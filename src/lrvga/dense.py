"""Dense small-dimension Gaussians and factor reconstructions.

Baseline and oracle material: everything here allocates d x d arrays, so
it is only for moderate dimensions (exact filters, evaluation, tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factor import FaPrecision


@dataclass(frozen=True)
class DenseGaussian:
    """Gaussian in covariance form, for exact baselines at small d."""

    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).ravel()
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("cov must be a square matrix")
        if cov.shape[0] != mu.shape[0]:
            raise ValueError("mu and cov dimensions disagree")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(cov))):
            raise ValueError("non-finite entries")
        # to within 1e-8 of its largest entry (or of 1, if larger)
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-8 * max(1.0, np.abs(cov).max())):
            raise ValueError("cov must be symmetric")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cov", (cov + cov.T) / 2.0)

    @property
    def d(self) -> int:
        return self.mu.shape[0]


def fa_dense_matrix(fa: FaPrecision) -> np.ndarray:
    """Materialize W W^T + diag(psi) as a d x d array."""
    return fa.W @ fa.W.T + np.diag(fa.psi)


def fa_dense_inverse(fa: FaPrecision) -> np.ndarray:
    """Materialize (W W^T + diag(psi))^-1 as a d x d array."""
    P = np.linalg.inv(fa_dense_matrix(fa))
    return (P + P.T) / 2.0
