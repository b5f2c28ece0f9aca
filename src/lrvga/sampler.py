"""Gaussian sampling from factored precisions in O(K d (p + 1)).

Draws x ~ N(mu, (W W^T + diag(psi))^-1) without ever factoring a d x d
matrix: a diagonal draw is corrected through the p-dimensional latent
space.
"""

from __future__ import annotations

import numpy as np

from .factor import FaPrecision
# Module attributes that perfbench/trace.py wraps by name.
from .factor import latent_gram, spd_solve  # noqa: F401


class EnsembleSampler:
    """Sampler bound to one factored precision.

    The d x p correction matrix L = Psi^-1 W M^-1 is computed once at
    construction by one product with the precision's cached p x p
    ``latent_inverse``, so building a sampler on a precision the filter
    has already used costs no factorization. Because :class:`FaPrecision`
    instances are immutable, neither cache can go stale. Build a new
    sampler after an update.

    With x ~ N(0, Psi^-1) drawn componentwise and eps ~ N(0, I_p),

        x_plus = (I_d - L W^T) x + L eps = x + L (eps - W^T x)

    has covariance exactly (W W^T + Psi)^-1, which follows from
    (I - L W^T) Psi^-1 (I - L W^T)^T + L L^T = (W W^T + Psi)^-1.
    """

    def __init__(self, fa: FaPrecision, rng: np.random.Generator | int | None = None):
        self.fa = fa
        self.rng = np.random.default_rng(rng)
        self._L = (fa.W / fa.psi[:, None]) @ fa.latent_inverse

    @property
    def L(self) -> np.ndarray:
        return self._L

    def draw(self, mu: np.ndarray, k: int) -> np.ndarray:
        """Return a d x k matrix of draws from N(mu, (W W^T + Psi)^-1)."""
        mu = np.asarray(mu, dtype=float).ravel()
        if mu.shape[0] != self.fa.d:
            raise ValueError(f"mean has length {mu.shape[0]}, expected {self.fa.d}")
        if k < 1:
            raise ValueError("need at least one draw")
        fa = self.fa
        X = self.rng.standard_normal((fa.d, k))
        X /= np.sqrt(fa.psi)[:, None]
        eps = self.rng.standard_normal((fa.p, k))
        X += self._L @ (eps - fa.W.T @ X)
        X += mu[:, None]
        return X


def draw_dense_reference(
    mu: np.ndarray,
    cov: np.ndarray,
    k: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Reference sampler: Cholesky of a dense covariance, small d only."""
    mu = np.asarray(mu, dtype=float).ravel()
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (mu.shape[0], mu.shape[0]):
        raise ValueError("covariance shape does not match the mean")
    if k < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(rng)
    L = np.linalg.cholesky(cov)  # raises LinAlgError if not positive definite
    return mu[:, None] + L @ rng.standard_normal((mu.shape[0], k))
