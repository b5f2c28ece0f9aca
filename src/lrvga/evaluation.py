"""Posterior quality metrics and batch baselines.

The closed-form Gaussian KL to a dense target, the KL of a factored
covariance fit, the KL to the logistic-regression posterior by
one-dimensional Gauss-Hermite quadrature, a Monte Carlo KL against any
unnormalized log posterior, and a Laplace baseline for logistic
regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from .dense import DenseGaussian, fa_dense_inverse
from .factor import FaPrecision, c_einsum, inverse_diag, log_det
from .filters import GaussianBelief
from .sampler import EnsembleSampler

_LOG_2PI = float(np.log(2.0 * np.pi))

# Probabilists' Gauss-Hermite rules (nodes, weights) of the logistic KL:
# 32 nodes, and the 16 its error is read against.
_GH_FINE, _GH_COARSE = (hermegauss(k) for k in (32, 16))
# Each rule as the (2, k) matrix [1; nodes], which maps a row (m, sd) to
# m + sd nodes, and its weights normalised to sum to 1: fine, then coarse.
_GH_RULES = tuple((np.vstack((np.ones_like(x), x)), w / w.sum()) for x, w in (_GH_FINE, _GH_COARSE))
# Rows of nodes the logistic KL evaluates at once.
_GH_ROWS = 256

# Newton ascent of the Laplace baseline: gradient-norm tolerance and step cap.
LAPLACE_TOL = 1e-8
LAPLACE_MAX_ITER = 100


@dataclass(frozen=True)
class KlEstimate:
    """KL estimate with its error: the standard error of ``n_samples``
    Monte Carlo draws, or the error bound of a quadrature on ``n_samples``
    nodes; always positive. Against an unnormalized log density the value
    is shifted by the unknown log normalizer, so only differences between
    estimates against the same target are meaningful.
    """

    value: float
    std_error: float
    n_samples: int


def _logdet_cov(g) -> float:
    if isinstance(g, GaussianBelief):
        return -log_det(g.prec)
    sign, ld = np.linalg.slogdet(g.cov)
    if sign <= 0:
        raise np.linalg.LinAlgError("covariance is not positive definite")
    return float(ld)


def gaussian_kl(q, target: DenseGaussian) -> float:
    """KL(q || target) from q, a GaussianBelief or a DenseGaussian, to a
    DenseGaussian target, through one Cholesky factorization of the
    target covariance: dense algebra, for baseline dimensions.
    """
    if not isinstance(q, (GaussianBelief, DenseGaussian)):
        raise TypeError("q must be a GaussianBelief or DenseGaussian")
    if not isinstance(target, DenseGaussian):
        raise TypeError("target must be a DenseGaussian")
    d = q.d
    if target.d != d:
        raise ValueError("dimension mismatch")
    delta = q.mu - target.mu
    factor = cho_factor(target.cov, lower=True)
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
    if isinstance(q, DenseGaussian):  # cholesky raises LinAlgError unless q.cov is SPD
        normals = np.random.default_rng(rng).standard_normal((q.d, k))
        draws = q.mu[:, None] + np.linalg.cholesky(q.cov) @ normals
    else:
        draws = EnsembleSampler(q.prec, rng).draw(q.mu, k)
    values = np.asarray(logpost(draws), dtype=float).ravel()
    if values.shape[0] != k:
        raise ValueError("logpost must return one value per sample column")
    if not np.logical_and.reduce(np.isfinite(values)):
        raise ValueError("logpost returned non-finite values")
    estimate = -gaussian_entropy(q) - float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(k))
    return KlEstimate(estimate, std_error, k)


def _softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + e^t) = max(t, 0) + log1p(e^-|t|), written over the float
    array ``t`` and returned: finite at any finite t, and vectorized,
    where ``np.logaddexp(0, t)`` calls scalar libm per element."""
    pos = np.maximum(t, 0.0)
    t -= pos
    t -= pos  # min(t, 0) - max(t, 0) = -|t|, exactly
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t += pos
    return t


def expected_kl_logistic(
    q: GaussianBelief | DenseGaussian, X: np.ndarray, y: np.ndarray, sigma0: float
) -> KlEstimate:
    """KL(q || posterior), up to the log evidence, of logistic regression
    with labels in {0, 1} and an N(0, sigma0^2 I) prior, by quadrature.

    E_q[log posterior] depends on theta only through z_i = x_i.theta ~
    N(m_i, nu_i), m = X mu, nu_i = x_i^T Sigma x_i. It is y.m - sum_i
    E softplus(z_i) - (|mu|^2 + tr Sigma) / (2 sigma0^2) - d log(2 pi sigma0^2) / 2,
    each expectation by 32-node Gauss-Hermite quadrature of softplus(t) =
    max(t, 0) + log1p(exp(-|t|)), evaluated in place. A factored q costs
    O(n d p) with no n x d temporary, nu coming from one reduction over X
    and the cached M^-1, so its working set is O(n p) vectors and the
    nodes of ``_GH_ROWS`` rows at a time, with no n x 32 array. The error
    is the larger of the change from 16 nodes and the sum's rounding
    bound, never 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.shape != (y.shape[0], q.d):
        raise ValueError("X must hold one length-d row per label")
    if isinstance(q, GaussianBelief):
        mu_u = X.dot(np.column_stack((q.mu, q.prec.W / q.prec.psi[:, None])))
        m, u = mu_u[:, 0], mu_u[:, 1:]
        nu = c_einsum("ij,ij,j->i", X, X, 1.0 / q.prec.psi)
        nu -= c_einsum("ij,ij->i", u @ q.prec.latent_inverse, u)
        trace = float(np.sum(inverse_diag(q.prec)))
    else:
        m = X @ q.mu
        nu, trace = c_einsum("ij,ij->i", X @ q.cov, X), float(np.trace(q.cov))
    mean_sd = np.column_stack((m, np.sqrt(np.maximum(nu, 0.0))))
    fine, coarse = np.empty_like(nu), np.empty_like(nu)
    for i in range(0, nu.size, _GH_ROWS):
        for out, (nodes, weights) in zip((fine, coarse), _GH_RULES):
            out[i:i + _GH_ROWS] = _softplus(mean_sd[i:i + _GH_ROWS].dot(nodes)).dot(weights)
    prior = [-0.5 * (q.mu @ q.mu + trace) / sigma0**2, -0.5 * q.d * (_LOG_2PI + 2 * np.log(sigma0))]
    terms = np.concatenate([y * m, -fine, prior, [gaussian_entropy(q)]])
    rounding = np.finfo(float).eps * terms.size * np.sum(np.abs(terms))
    error = max(abs(np.sum(fine - coarse)), rounding)
    return KlEstimate(-float(np.sum(terms)), float(error), _GH_FINE[0].size)


def laplace_logistic(X: np.ndarray, y: np.ndarray, sigma0: float) -> DenseGaussian:
    """Laplace approximation of the logistic posterior (dense, small d).

    Damped Newton ascent to the MAP of the l2-regularized logistic
    objective, stopped at a gradient norm of ``LAPLACE_TOL`` or after
    ``LAPLACE_MAX_ITER`` steps; the covariance is the inverse Hessian there:
    H = I / sigma0^2 + sum_i sigma'(x_i.theta) x_i x_i^T, formed once per
    iterate, the last at the returned mean.
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
        return float(np.sum(y * z - _softplus(z)) - 0.5 * t @ t / sigma0**2)

    obj = objective(theta)
    for it in range(LAPLACE_MAX_ITER + 1):
        s = expit(X @ theta)
        H = X.T @ (X * (s * (1.0 - s))[:, None]) + np.eye(d) / sigma0**2
        grad = X.T @ (y - s) - theta / sigma0**2
        if it == LAPLACE_MAX_ITER or np.linalg.norm(grad) <= LAPLACE_TOL:
            break
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
    return DenseGaussian(theta, np.linalg.inv(H))
