"""Low-rank plus diagonal precision factors and their O(d p^2) algebra.

The central object is a symmetric positive-definite matrix of the form
W W^T + diag(psi), held through its factors only. Every routine here works
on W and psi directly, so nothing in this module ever allocates a d x d
array. Dense reconstructions for small-dimension checks live in
``lrvga.dense`` and are meant for tests and baselines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy._core.multiarray import c_einsum  # np.einsum at optimize=False, unwrapped
from scipy.linalg import lapack

# Floor applied to fitted diagonal entries. Keeps the factorization usable
# when an update would push a psi entry to zero or below.
PSI_FLOOR = 1e-12


class DivergenceError(RuntimeError):
    """A recursion produced non-finite or otherwise unusable state."""


def spd_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for a small symmetric positive-definite A.

    Checks A for finiteness, then factors the symmetric part (A + A^T) / 2
    by LAPACK's dpotrf and solves by dpotrs, called directly because A is
    p x p and the wrappers of ``scipy.linalg.cho_solve`` cost several
    times the arithmetic; if the factorization fails because A drifted
    away from positive definiteness through rounding, falls back to the
    pseudo-inverse and warns. It is also the fallback of the passes'
    one-call solve, ``_cholesky_solve``. Meant for few right-hand sides:
    to apply A^-1 to a d x p block, solve against the identity once and
    multiply.
    """
    A = np.asarray(A, dtype=float)
    if not np.logical_and.reduce(np.isfinite(A), axis=None):
        raise ValueError("matrix contains non-finite entries")
    factor, info = lapack.dpotrf((A + A.T) / 2.0, lower=True)
    if info == 0:
        X, info = lapack.dpotrs(factor, B, lower=True)
        if info == 0:
            return X
    warnings.warn("positive-definite solve failed, falling back to pseudo-inverse",
                  RuntimeWarning, stacklevel=2)
    return np.linalg.pinv(A) @ B


def _cholesky_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^-1 B for a small finite SPD A by one LAPACK ``dposv`` call, which
    factors A's lower triangle and solves as dpotrf then dpotrs would, bit
    for bit, at one call's fixed cost; a failure goes to ``spd_solve``."""
    _, X, info = lapack.dposv(A, B, lower=1)
    return X if info == 0 else spd_solve(A, B)


@cache
def identity(p: int) -> np.ndarray:
    """I_p, read-only and shared: building it with ``np.eye`` on every
    call costs more than the p x p arithmetic it feeds at small p."""
    eye = np.eye(p)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class FaPrecision:
    """Precision matrix W W^T + diag(psi) stored by its factors.

    Parameters
    ----------
    W : ndarray, shape (d, p)
        Factor loadings, always a matrix: one column is shape (d, 1).
    psi : ndarray, shape (d,)
        Strictly positive diagonal entries.

    Notes
    -----
    Instances are frozen and their arrays are treated as read-only by
    convention; updates build new instances. The represented matrix is
    symmetric positive definite whenever the invariants hold, which is
    enforced at construction. The fitting recursions build their outputs
    through ``_trusted_precision`` instead, since they check finiteness
    and floor psi themselves. They write W column-major; every routine
    accepts W in either order.

    ``gram``, the latent Gram matrix M = I_p + W^T Psi^-1 W that every EM
    cycle and online EM read, and its inverse ``latent_inverse``, read
    by every filter step's prior scalars (``filters._prior_scalars``), an
    update's rank-K pass (the A of ``em._absorb``), the Woodbury gain,
    online EM, the sampler and evaluation, are ``cached_property``s;
    immutability keeps them valid. Every EM cycle hands over the
    symmetric, checked gram of the precision it builds, each pass
    checking its output once; otherwise the gram is formed and checked on
    first use. The inverse is formed on first use, from the
    gram by one raw p x p Cholesky solve. Only these p x p matrices are
    cached: the d x p Psi^-1 W that an update's first pass, and then each
    general cycle, hands the next cycle lives on the update's target. So
    an instance holds the factors plus 2 p^2 floats.
    """

    W: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 2:
            raise ValueError("W must be a d x p matrix")
        psi = np.asarray(self.psi, dtype=float).ravel()
        if psi.shape[0] != W.shape[0]:
            raise ValueError(
                f"psi has length {psi.shape[0]} but W has {W.shape[0]} rows"
            )
        if W.shape[1] > W.shape[0]:
            raise ValueError("rank p cannot exceed the dimension d")
        if W.shape[1] < 1:
            raise ValueError("W needs at least one column")
        if not np.logical_and.reduce(np.isfinite(W), axis=None):
            raise ValueError("W contains non-finite entries")
        if not np.logical_and.reduce(np.isfinite(psi)):
            raise ValueError("psi contains non-finite entries")
        if np.logical_or.reduce(psi <= 0.0):
            raise ValueError("psi must be strictly positive")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "psi", psi)

    @property
    def d(self) -> int:
        return self.W.shape[0]

    @property
    def p(self) -> int:
        return self.W.shape[1]

    @cached_property
    def latent_inverse(self) -> np.ndarray:
        """M^-1 = (I_p + W^T Psi^-1 W)^-1, read-only, formed once per
        instance by one Cholesky solve of ``gram``."""
        minv = _cholesky_solve(self.gram, identity(self.p))
        minv.setflags(write=False)
        return minv

    @cached_property
    def gram(self) -> np.ndarray:
        """M = I_p + W^T Psi^-1 W, read-only, formed once per instance."""
        M = latent_gram(self)
        if not np.logical_and.reduce(np.isfinite(M), axis=None):
            raise ValueError("matrix contains non-finite entries")
        M.setflags(write=False)
        return M


def _trusted_precision(
    W: np.ndarray, psi: np.ndarray, gram: np.ndarray | None = None
) -> FaPrecision:
    """FaPrecision over factors the caller has already checked: a (d, p)
    float W with p <= d, and a finite (d,) psi floored above zero.
    Skips the validation scans of the public constructor. A caller that
    has already formed the symmetric, finite ``gram`` of these factors
    hands it over, so that it is not formed again; it becomes read-only."""
    fa = object.__new__(FaPrecision)
    object.__setattr__(fa, "W", W)
    object.__setattr__(fa, "psi", psi)
    if gram is not None:
        gram.setflags(write=False)
        vars(fa)["gram"] = gram  # the cached_property's slot
    return fa


def latent_gram(fa: FaPrecision) -> np.ndarray:
    """The p x p Gram matrix M = I_p + W^T diag(psi)^-1 W.

    M is symmetric positive definite and M - I_p is positive semidefinite,
    since the second term is a Gram matrix.
    """
    return _gram_from(fa.W.T @ (fa.W / fa.psi[:, None]))


def _gram_from(G: np.ndarray) -> np.ndarray:
    """M = (G + G^T) / 2 + I_p, exactly symmetric, from G = W^T Psi^-1 W."""
    M = G + G.T
    M *= 0.5
    M += identity(G.shape[0])
    return M


def woodbury_apply(fa: FaPrecision, v: np.ndarray) -> np.ndarray:
    """Apply the inverse of W W^T + diag(psi) to a vector or matrix.

    Implements the Woodbury identity
    (W W^T + Psi)^-1 v = Psi^-1 (v - W M^-1 (W^T Psi^-1 v)),
    with M^-1 the cached ``latent_inverse``, costing O(d p k) for k
    columns with no d x d intermediate. ``v`` may be a (d,) vector or a
    (d, k) block of columns.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[0] != fa.d:
        raise ValueError(f"vector has length {v.shape[0]}, expected {fa.d}")
    if not np.logical_and.reduce(np.isfinite(v), axis=None):
        raise ValueError("input contains non-finite entries")
    psi = fa.psi if v.ndim == 1 else fa.psi[:, None]
    u = v / psi
    z = fa.latent_inverse.dot(fa.W.T.dot(u))
    return (v - fa.W.dot(z)) / psi


def log_det(fa: FaPrecision) -> float:
    """log det(W W^T + diag(psi)) via the matrix determinant lemma.

    Equals log det(M) + sum_i log psi_i, with M the cached latent Gram
    matrix.
    """
    sign, logdet_m = np.linalg.slogdet(fa.gram)
    if sign <= 0:
        raise ValueError("latent Gram matrix lost positive definiteness")
    return float(logdet_m + np.sum(np.log(fa.psi)))


def inverse_diag(fa: FaPrecision) -> np.ndarray:
    """Diagonal of (W W^T + diag(psi))^-1 without forming the inverse."""
    psi_inv_w = fa.W / fa.psi[:, None]
    return 1.0 / fa.psi - c_einsum("ij,ij->i", psi_inv_w.dot(fa.latent_inverse), psi_inv_w)


def init_isotropic_prior(
    d: int,
    p: int,
    sigma0: float,
    eps: float = 0.01,
    rng: np.random.Generator | int | None = None,
) -> FaPrecision:
    """Factored stand-in for the isotropic prior precision (1/sigma0^2) I_d.

    The diagonal takes (1 - eps) of the total weight uniformly and the
    remaining eps is spread over p random columns of equal norm
    sqrt(eps d / p) / sigma0, drawn isotropically. The split keeps the
    trace exact, Tr(W W^T + Psi) = d / sigma0^2, while keeping W away from
    zero: W = 0 is a stationary point of the fitting recursions, so a
    strictly positive eps is required for the factor part to move at all.

    Parameters
    ----------
    d, p : int
        Dimension and factor rank, with 1 <= p <= d.
    sigma0 : float
        Prior standard deviation, strictly positive.
    eps : float
        Fraction of the trace assigned to the factor part, in (0, 1).
    rng : numpy Generator, seed, or None
        Source of randomness for the column directions.
    """
    if not 1 <= p <= d:
        raise ValueError(f"need 1 <= p <= d, got p={p}, d={d}")
    if sigma0 <= 0:
        raise ValueError("sigma0 must be strictly positive")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly inside (0, 1)")
    rng = np.random.default_rng(rng)
    cols = rng.standard_normal((d, p))
    W = cols * (np.sqrt(eps * d / p) / sigma0 / np.linalg.norm(cols, axis=0))
    psi = np.full(d, (1.0 - eps) / sigma0**2)
    return FaPrecision(W, psi)
