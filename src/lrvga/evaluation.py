"""Posterior quality metrics and batch baselines.

Closed-form Gaussian KL divergences (with factored fast paths), a Monte
Carlo KL against an unnormalized log posterior, and a Laplace baseline
for logistic regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from .dense import DenseGaussian, fa_dense_inverse
from .factor import FaPrecision, inverse_diag, log_det, star, woodbury_apply
from .filters import GaussianBelief
from .sampler import EnsembleSampler, draw_dense_reference

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class KlEstimate:
    """Monte Carlo KL estimate with its sampling error.

    When the target density is unnormalized the value is shifted by the
    unknown log normalizer, so only differences between estimates against
    the same target are meaningful; ``normalized`` records which case
    applies.
    """

    value: float
    std_error: float
    n_samples: int
    normalized: bool = False


def _logdet_cov(g) -> float:
    if isinstance(g, GaussianBelief):
        return -log_det(g.prec)
    sign, ld = np.linalg.slogdet(g.cov)
    if sign <= 0:
        raise np.linalg.LinAlgError("covariance is not positive definite")
    return float(ld)


def gaussian_kl(q, target) -> float:
    """KL(q || target) between Gaussians, each a GaussianBelief or a
    DenseGaussian.

    When both sides carry factored precisions the computation stays in
    O(d p^2) using the Woodbury identity and the determinant lemma; any
    dense operand switches the affected terms to dense algebra, which is
    fine at baseline dimensions.
    """
    if not isinstance(q, (GaussianBelief, DenseGaussian)):
        raise TypeError("q must be a GaussianBelief or DenseGaussian")
    if not isinstance(target, (GaussianBelief, DenseGaussian)):
        raise TypeError("target must be a GaussianBelief or DenseGaussian")
    d = q.d
    if target.d != d:
        raise ValueError("dimension mismatch")
    delta = q.mu - target.mu

    if isinstance(target, GaussianBelief):
        # Target precision is available in factored form: apply it directly.
        tw, tpsi = target.prec.W, target.prec.psi
        quad = float(np.sum((tw.T @ delta) ** 2) + np.sum(tpsi * delta * delta))
        if isinstance(q, GaussianBelief):
            cov_cols = woodbury_apply(q.prec, tw)  # q covariance times target factors
            trace = float(np.sum(tpsi * inverse_diag(q.prec)) + np.einsum("ij,ij->", tw, cov_cols))
        else:
            trace = float(np.sum(tpsi * np.diag(q.cov)) + np.einsum("ij,ij->", tw, q.cov @ tw))
    else:
        factor = cho_factor((target.cov + target.cov.T) / 2.0, lower=True)
        quad = float(delta @ cho_solve(factor, delta))
        cov_q = fa_dense_inverse(q.prec) if isinstance(q, GaussianBelief) else q.cov
        trace = float(np.trace(cho_solve(factor, cov_q)))

    return 0.5 * (trace + quad - d + _logdet_cov(target) - _logdet_cov(q))


def covariance_fit_kl(fa: FaPrecision, S: np.ndarray) -> float:
    """KL(N(0, S) || N(0, W W^T + diag(psi))) for covariance tracking.

    Here the factored matrix plays the covariance role. S is dense (the
    reference is only available densely, at baseline dimensions), but the
    factored side is handled through Woodbury products so no additional
    d x d scratch appears:

        KL = (Tr((W W^T + Psi)^-1 S) + log det(W W^T + Psi) - log det S - d) / 2
    """
    S = np.asarray(S, dtype=float)
    d = fa.d
    if S.shape != (d, d):
        raise ValueError("S shape does not match the factorization")
    sign, ld_s = np.linalg.slogdet(S)
    if sign <= 0:
        raise np.linalg.LinAlgError("S is not positive definite")
    psi_inv_w = fa.W / fa.psi[:, None]
    inner = psi_inv_w.T @ (S @ psi_inv_w)
    trace = float(np.sum(np.diag(S) / fa.psi) - np.trace(fa.latent_inverse @ inner))
    return 0.5 * (trace + log_det(fa) - float(ld_s) - d)


def gaussian_entropy(q) -> float:
    """Differential entropy of a Gaussian given as belief or dense form."""
    d = q.d
    return 0.5 * (d * (1.0 + _LOG_2PI) + _logdet_cov(q))


def mc_kl_to_posterior(
    q: GaussianBelief | DenseGaussian,
    logpost: Callable[[np.ndarray], np.ndarray],
    k: int = 1000,
    rng: np.random.Generator | int | None = None,
    normalized: bool = False,
) -> KlEstimate:
    """Monte Carlo KL(q || posterior) from an unnormalized log density.

    Draws K samples from q, then estimates E_q[log q] - E_q[logpost].
    The entropy term is closed-form, so all sampling noise comes from the
    log-posterior average; the reported standard error is the standard
    deviation of the log-posterior values over sqrt(K). ``logpost`` takes
    a (d, K) matrix of column samples and returns K values. A factored
    q is drawn by the ensemble sampler, a dense one by the Cholesky of
    its covariance.
    """
    if k < 2:
        raise ValueError("need at least two draws for a standard error")
    if isinstance(q, DenseGaussian):
        draws = draw_dense_reference(q.mu, q.cov, k, rng)
    else:
        draws = EnsembleSampler(q.prec, rng).draw(q.mu, k)
    values = np.asarray(logpost(draws), dtype=float).ravel()
    if values.shape[0] != k:
        raise ValueError("logpost must return one value per sample column")
    if not np.all(np.isfinite(values)):
        raise ValueError("logpost returned non-finite values")
    estimate = -gaussian_entropy(q) - float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(k))
    return KlEstimate(estimate, std_error, k, normalized)


def logposterior_linear(
    theta: np.ndarray, X: np.ndarray, y: np.ndarray, sigma0: float
) -> np.ndarray | float:
    """Log posterior (up to the evidence) of linear regression with unit
    noise and an isotropic N(0, sigma0^2 I) prior.

    ``theta`` may be a single (d,) vector or a (d, K) block of columns.
    """
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    single = theta.ndim == 1
    T = theta[:, None] if single else theta
    d = T.shape[0]
    resid = y[:, None] - X @ T
    loglik = -0.5 * np.sum(resid * resid, axis=0) - 0.5 * X.shape[0] * _LOG_2PI
    prior = -0.5 * np.sum(T * T, axis=0) / sigma0**2 - 0.5 * d * (
        _LOG_2PI + 2.0 * np.log(sigma0)
    )
    out = loglik + prior
    return float(out[0]) if single else out


def logposterior_logistic(
    theta: np.ndarray, X: np.ndarray, y: np.ndarray, sigma0: float
) -> np.ndarray | float:
    """Log posterior (up to the evidence) of logistic regression with an
    isotropic N(0, sigma0^2 I) prior; labels in {0, 1}."""
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    single = theta.ndim == 1
    T = theta[:, None] if single else theta
    d = T.shape[0]
    Z = X @ T
    # y z - log(1 + e^z), computed stably.
    loglik = np.sum(y[:, None] * Z - np.logaddexp(0.0, Z), axis=0)
    prior = -0.5 * np.sum(T * T, axis=0) / sigma0**2 - 0.5 * d * (
        _LOG_2PI + 2.0 * np.log(sigma0)
    )
    out = loglik + prior
    return float(out[0]) if single else out


def laplace_logistic(
    X: np.ndarray,
    y: np.ndarray,
    sigma0: float,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> DenseGaussian:
    """Laplace approximation of the logistic posterior (dense, small d).

    Damped Newton ascent to the MAP of the l2-regularized logistic
    objective, then the covariance is the inverse Hessian there:
    H = I / sigma0^2 + sum_i sigma'(x_i.theta) x_i x_i^T.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X rows must match y")
    if sigma0 <= 0:
        raise ValueError("sigma0 must be strictly positive")
    n, d = X.shape
    theta = np.zeros(d)

    def objective(t):
        z = X @ t
        return float(np.sum(y * z - np.logaddexp(0.0, z)) - 0.5 * t @ t / sigma0**2)

    obj = objective(theta)
    for _ in range(max_iter):
        z = X @ theta
        s = expit(z)
        grad = X.T @ (y - s) - theta / sigma0**2
        if np.linalg.norm(grad) <= tol:
            break
        H = X.T @ (X * (s * (1.0 - s))[:, None]) + np.eye(d) / sigma0**2
        direction = np.linalg.solve(H, grad)
        step = 1.0
        for _ in range(40):
            cand = theta + step * direction
            cand_obj = objective(cand)
            if cand_obj >= obj:
                theta, obj = cand, cand_obj
                break
            step *= 0.5
        else:  # no ascent possible, already numerically stationary
            break
    z = X @ theta
    s = expit(z)
    H = X.T @ (X * (s * (1.0 - s))[:, None]) + np.eye(d) / sigma0**2
    cov = np.linalg.inv(H)
    return DenseGaussian(theta, (cov + cov.T) / 2.0)
