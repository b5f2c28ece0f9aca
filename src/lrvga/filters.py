"""Streaming Gaussian filters over factored precisions.

One observation in, one posterior out. The linear and logistic filters
share one implicit GLM update: the link turns a0 = x.mu_{t-1} and
nu0 = x^T P_{t-1} x into a weight s and a residual r, the mean moves by the
pre-update gain P_{t-1} x r, and the factored precision absorbs s x x^T.
General nonlinear likelihoods are handled by sampled expectations with an
optional extragradient (mirror-prox) correction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np
from scipy.special import expit

from .dense import DenseGaussian
from .em import RecursionWeights, default_inner_loops, recursive_em_update
from .factor import PSI_FLOOR, DivergenceError, FaPrecision, woodbury_apply
from .sampler import EnsembleSampler

# Moment-matching constant for the logistic sigmoid: sigma(z) ~ Phi(z / beta).
BETA_PROBIT = float(np.sqrt(8.0 / np.pi))

# Divergence guards, checked after every filter step.
MU_NORM_LIMIT = 1e8
PSI_FLOOR_FRACTION = 0.1


@dataclass(frozen=True)
class Observation:
    """One supervised sample. ``x`` is a dense (d,) vector or a sparse
    (indices, values) pair; ``y`` may be None for unsupervised streams."""

    x: np.ndarray | tuple[np.ndarray, np.ndarray]
    y: float | None = None

    def __post_init__(self):
        if isinstance(self.x, tuple):
            idx, vals = self.x
            idx = np.asarray(idx, dtype=np.int64).ravel()
            vals = np.asarray(vals, dtype=float).ravel()
            if idx.shape != vals.shape:
                raise ValueError("sparse indices and values disagree in length")
            if idx.size and np.any(idx < 0):
                raise ValueError("sparse indices must be non-negative")
            if not np.all(np.isfinite(vals)):
                raise ValueError("non-finite input entries")
            object.__setattr__(self, "x", (idx, vals))
        else:
            x = np.asarray(self.x, dtype=float).ravel()
            if not np.all(np.isfinite(x)):
                raise ValueError("non-finite input entries")
            object.__setattr__(self, "x", x)
        if self.y is not None:
            y = float(self.y)
            if not np.isfinite(y):
                raise ValueError("non-finite label")
            object.__setattr__(self, "y", y)

    @property
    def is_sparse(self) -> bool:
        return isinstance(self.x, tuple)

    def dense_x(self, d: int) -> np.ndarray:
        """Materialize the input as a length-d vector."""
        if not self.is_sparse:
            if self.x.shape[0] != d:
                raise ValueError(f"input has length {self.x.shape[0]}, expected {d}")
            return self.x
        idx, vals = self.x
        if idx.size and idx.max() >= d:
            raise ValueError("sparse index out of range")
        out = np.zeros(d)
        out[idx] = vals
        return out

    def squared_norm(self) -> float:
        if self.is_sparse:
            return float(np.sum(self.x[1] ** 2))
        return float(np.sum(self.x**2))


@dataclass(frozen=True)
class GaussianBelief:
    """Filter state: mean plus factored precision."""

    mu: np.ndarray
    prec: FaPrecision

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).ravel()
        if mu.shape[0] != self.prec.d:
            raise ValueError("mean and precision dimensions disagree")
        if not np.all(np.isfinite(mu)):
            raise ValueError("non-finite mean")
        object.__setattr__(self, "mu", mu)

    @property
    def d(self) -> int:
        return self.prec.d


def _checked(belief: GaussianBelief) -> GaussianBelief:
    """Abort on the standard divergence signals."""
    mu_norm = float(np.linalg.norm(belief.mu))
    if not np.isfinite(mu_norm) or mu_norm > MU_NORM_LIMIT:
        raise DivergenceError(f"mean norm {mu_norm:.3e} exceeds {MU_NORM_LIMIT:.0e}")
    floored = float(np.mean(belief.prec.psi <= PSI_FLOOR))
    if floored > PSI_FLOOR_FRACTION:
        raise DivergenceError(
            f"{floored:.0%} of the diagonal hit the floor {PSI_FLOOR:g}"
        )
    return belief


def _require_label(obs: Observation) -> float:
    if obs.y is None:
        raise ValueError("this filter needs labelled observations")
    return obs.y


def kalman_step_dense(belief: DenseGaussian, obs: Observation) -> DenseGaussian:
    """Exact conjugate update for y = x.theta + N(0, 1), dense O(d^2).

    Information form P_t^-1 = P_{t-1}^-1 + x x^T realized through a
    rank-one covariance downdate, then mu_t = mu_{t-1} + P_t x (y - x.mu).
    """
    x = obs.dense_x(belief.d)
    y = _require_label(obs)
    Px = belief.cov @ x
    denom = 1.0 + float(x @ Px)
    if denom <= 0.0 or not np.isfinite(denom):
        raise np.linalg.LinAlgError("covariance downdate lost positive definiteness")
    cov = belief.cov - np.outer(Px, Px) / denom
    gain = Px / denom  # equals P_t x
    mu = belief.mu + gain * (y - float(x @ belief.mu))
    return DenseGaussian(mu, cov)


def _prior_scalars(
    belief: GaussianBelief, obs: Observation, binary: bool = False
) -> tuple[np.ndarray, float, np.ndarray, float, float]:
    """Validate one observation and return (x, y, P_{t-1} x, nu0, a0),
    with nu0 = x^T P_{t-1} x and a0 = x.mu_{t-1}."""
    x = obs.dense_x(belief.d)
    y = _require_label(obs)
    if binary and y not in (0.0, 1.0):
        raise ValueError("logistic labels must be 0 or 1")
    gain = woodbury_apply(belief.prec, x)
    return x, y, gain, max(float(x @ gain), 0.0), float(x @ belief.mu)


def _glm_step(
    belief: GaussianBelief,
    obs: Observation,
    inner_loops: int | None,
    rule: Callable[[float, float, float], tuple[float, float]],
    binary: bool = False,
) -> GaussianBelief:
    """One implicit GLM update; ``rule(a0, nu0, y)`` gives the link's (s, r).

    The mean moves along the pre-update gain, mu_t = mu_{t-1} + P_{t-1} x r,
    and the factored precision absorbs s x x^T through the recursion with
    weights (1, s), so no reweighted copy of x is made.
    """
    x, y, gain, nu0, a0 = _prior_scalars(belief, obs, binary)
    s, r = rule(a0, nu0, y)
    # Built in the gain's buffer: the new mean is the only d-vector kept.
    gain *= r
    mu = np.add(belief.mu, gain, out=gain)
    loops = default_inner_loops(belief.d) if inner_loops is None else inner_loops
    prec = recursive_em_update(belief.prec, x[:, None], RecursionWeights(1.0, s), loops)
    return _checked(GaussianBelief(mu, prec))


def lrvga_linear_step(
    belief: GaussianBelief,
    obs: Observation,
    inner_loops: int | None = None,
) -> GaussianBelief:
    """Limited-memory update for a linear-Gaussian observation.

    The GLM step with s = 1 and the closed-form r = (y - a0) / (1 + nu0):

        mu_t  = mu_{t-1} + P_{t-1} x (y - x.mu_{t-1}) / (1 + x^T P_{t-1} x)
        P_t^-1 ~ W_t W_t^T + Psi_t fitted to P_{t-1}^-1 + x x^T

    The mean is the exact conjugate update at the carried precision; only
    the precision goes through the factored projection.
    """
    return _glm_step(
        belief, obs, inner_loops, lambda a0, nu0, y: (1.0, (y - a0) / (1.0 + nu0))
    )


@dataclass(frozen=True)
class GlmScalarSolution:
    """Solution of the two implicit scalars in a logistic update.

    ``a`` and ``nu`` are the posterior values x.mu_t and x^T P_t x;
    ``k`` is the moment-matching slope beta / sqrt(nu + beta^2). The
    residuals of the two defining equations are kept for auditing.
    """

    a: float
    nu: float
    k: float
    residual_a: float
    residual_nu: float
    iterations: int
    newton_converged: bool


def _sigmoid_weight(a: float, nu: float) -> float:
    """s(a, nu) = k sigma'(k a) with k = beta / sqrt(nu + beta^2)."""
    k = BETA_PROBIT / np.sqrt(nu + BETA_PROBIT**2)
    sig = expit(k * a)
    return float(k * sig * (1.0 - sig))


def _scalar_residuals(a: float, nu: float, a0: float, nu0: float, y: float) -> tuple[float, float]:
    k = BETA_PROBIT / np.sqrt(nu + BETA_PROBIT**2)
    s = _sigmoid_weight(a, nu)
    r_nu = nu * (1.0 + s * nu0) - nu0
    r_a = a - a0 - nu0 * (y - float(expit(k * a)))
    return r_a, r_nu


def _solve_scalar_system(
    a0: float, nu0: float, y: float, tol: float, max_iter: int
) -> GlmScalarSolution:
    beta2 = BETA_PROBIT**2
    if nu0 <= 0.0:
        # Deterministic direction: the update degenerates to a0 and k = 1.
        return GlmScalarSolution(a0, 0.0, 1.0, 0.0, 0.0, 0, True)

    a, nu = a0, nu0
    converged = False
    it = 0
    r_a, r_nu = _scalar_residuals(a, nu, a0, nu0, y)
    norm = max(abs(r_a), abs(r_nu))
    for it in range(1, max_iter + 1):
        if norm <= tol:
            converged = True
            break
        k = BETA_PROBIT / np.sqrt(nu + beta2)
        sig = expit(k * a)
        sig_p = sig * (1.0 - sig)
        sig_pp = sig_p * (1.0 - 2.0 * sig)
        dk_dnu = -0.5 * k / (nu + beta2)
        s = k * sig_p
        ds_da = k * k * sig_pp
        ds_dnu = dk_dnu * (sig_p + k * a * sig_pp)
        # Jacobian of (r_a, r_nu) with respect to (a, nu).
        j_aa = 1.0 + nu0 * sig_p * k
        j_anu = nu0 * sig_p * a * dk_dnu
        j_nua = nu * nu0 * ds_da
        j_nunu = 1.0 + s * nu0 + nu * nu0 * ds_dnu
        det = j_aa * j_nunu - j_anu * j_nua
        if det == 0.0 or not np.isfinite(det):
            break
        da = (-r_a * j_nunu + r_nu * j_anu) / det
        dnu = (-j_aa * r_nu + j_nua * r_a) / det
        step = 1.0
        improved = False
        for _ in range(30):  # damping: halve until the residual shrinks
            a_try = a + step * da
            nu_try = nu + step * dnu
            if nu_try >= 0.0:
                ra_t, rnu_t = _scalar_residuals(a_try, nu_try, a0, nu0, y)
                norm_t = max(abs(ra_t), abs(rnu_t))
                if norm_t < norm:
                    a, nu, r_a, r_nu, norm = a_try, nu_try, ra_t, rnu_t, norm_t
                    improved = True
                    break
            step *= 0.5
        if not improved:
            break
    else:
        converged = norm <= tol

    if norm <= tol:
        converged = True
    if not converged:
        warnings.warn(
            "implicit scalar solve hit its iteration cap, applying one "
            "fixed-point sweep instead",
            RuntimeWarning,
        )
        s = _sigmoid_weight(a, nu)
        nu = nu0 / (1.0 + s * nu0)
        k = BETA_PROBIT / np.sqrt(nu + beta2)
        a = a0 + nu0 * (y - float(expit(k * a)))
        r_a, r_nu = _scalar_residuals(a, nu, a0, nu0, y)
    k = float(BETA_PROBIT / np.sqrt(nu + beta2))
    return GlmScalarSolution(float(a), float(nu), k, float(r_a), float(r_nu), it, converged)


def solve_glm_scalars(
    belief: GaussianBelief,
    obs: Observation,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> GlmScalarSolution:
    """Solve the implicit pair (a, nu) of a logistic update.

    With nu0 = x^T P_{t-1} x and a0 = x.mu_{t-1}, the posterior scalars
    satisfy

        nu = nu0 / (1 + s(a, nu) nu0)
        a  = a0 + nu0 (y - sigma(k a))

    where s(a, nu) = k sigma'(k a) and k = beta / sqrt(nu + beta^2).
    Solved by damped Newton; if the iteration cap is hit, one Picard
    sweep is applied and a warning raised.
    """
    _, y, _, nu0, a0 = _prior_scalars(belief, obs, binary=True)
    return _solve_scalar_system(a0, nu0, y, tol, max_iter)


def lrvga_logistic_step(
    belief: GaussianBelief,
    obs: Observation,
    inner_loops: int | None = None,
    tol: float = 1e-10,
) -> GaussianBelief:
    """Limited-memory update for a Bernoulli observation with logistic link.

    The GLM step with the implicit scalars of ``solve_glm_scalars``:
    s = k sigma'(k a) and r = y - sigma(k a), so

        mu_t  = mu_{t-1} + P_{t-1} x (y - sigma(k a))
        P_t^-1 ~ W_t W_t^T + Psi_t fitted to P_{t-1}^-1 + s x x^T
    """

    def rule(a0: float, nu0: float, y: float) -> tuple[float, float]:
        sol = _solve_scalar_system(a0, nu0, y, tol, max_iter=50)
        return _sigmoid_weight(sol.a, sol.nu), y - float(expit(sol.k * sol.a))

    return _glm_step(belief, obs, inner_loops, rule, binary=True)


class NonlinearModel(Protocol):
    """Observation model h(theta, x) with enough structure for the
    sampled filter: Jacobians, the conditional observation covariance and
    its square root, and the log-likelihood gradient in theta."""

    def predict(self, theta: np.ndarray, x: np.ndarray) -> float | np.ndarray: ...

    def jacobian(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray: ...

    def observation_cov(self, theta: np.ndarray, x: np.ndarray) -> float | np.ndarray: ...

    def observation_cov_sqrt(self, theta: np.ndarray, x: np.ndarray) -> float | np.ndarray: ...

    def loglik_grad(self, theta: np.ndarray, x: np.ndarray, y: float) -> np.ndarray: ...


class LogisticModel:
    """Bernoulli likelihood with log-odds x.theta."""

    def predict(self, theta, x):
        return float(x @ theta)

    def jacobian(self, theta, x):
        return x

    def observation_cov(self, theta, x):
        s = float(expit(x @ theta))
        return s * (1.0 - s)

    def observation_cov_sqrt(self, theta, x):
        return float(np.sqrt(self.observation_cov(theta, x)))

    def loglik_grad(self, theta, x, y):
        return (y - float(expit(x @ theta))) * x


class LinearGaussianModel:
    """Gaussian likelihood y ~ N(x.theta, 1); Hessian independent of theta."""

    def predict(self, theta, x):
        return float(x @ theta)

    def jacobian(self, theta, x):
        return x

    def observation_cov(self, theta, x):
        return 1.0

    def observation_cov_sqrt(self, theta, x):
        return 1.0

    def loglik_grad(self, theta, x, y):
        return (y - float(x @ theta)) * x


def ggn_block(model: NonlinearModel, x: np.ndarray, theta_samples: np.ndarray) -> np.ndarray:
    """Square-root Gauss-Newton block from an ensemble of parameter draws.

    Column i is (dh/dtheta)(theta_i) Cov(y|theta_i)^{1/2} / sqrt(K), so
    X X^T reproduces the sampled expected Gauss-Newton curvature. For a
    model whose log-likelihood Hessian equals the Gauss-Newton term (any
    natural-parameter GLM, e.g. logistic), the reconstruction is exact at
    each sample. Scalar-output models give one column per draw;
    m-output models give m columns per draw.
    """
    theta_samples = np.asarray(theta_samples, dtype=float)
    if theta_samples.ndim == 1:
        theta_samples = theta_samples[:, None]
    k = theta_samples.shape[1]
    if k < 1:
        raise ValueError("need at least one parameter draw")
    cols = []
    for i in range(k):
        theta = theta_samples[:, i]
        jac = np.asarray(model.jacobian(theta, x), dtype=float)
        root = model.observation_cov_sqrt(theta, x)
        if jac.ndim == 1:
            block = jac[:, None] * float(root)
        else:
            block = jac @ np.atleast_2d(root)
        cols.append(block)
    return np.concatenate(cols, axis=1) / np.sqrt(k)


def _mean_grad(model, x, y, thetas: np.ndarray) -> np.ndarray:
    g = np.zeros(thetas.shape[0])
    for i in range(thetas.shape[1]):
        g += np.asarray(model.loglik_grad(thetas[:, i], x, y), dtype=float)
    return g / thetas.shape[1]


NONLINEAR_SCHEMES = ("explicit", "mirror-prox-full", "mirror-prox-skip-cov")


def lrvga_nonlinear_step(
    belief: GaussianBelief,
    obs: Observation,
    model: NonlinearModel,
    k_hess: int = 10,
    k_grad: int = 10,
    inner_loops: int | None = None,
    scheme: str = "mirror-prox-skip-cov",
    rng: np.random.Generator | int | None = None,
) -> GaussianBelief:
    """Sampled-expectation update for a general observation model.

    Stage one evaluates curvature and gradient at the current belief:
    the precision absorbs the Gauss-Newton block, and the mean moves by
    the averaged log-likelihood gradient through the refreshed gain.

    Schemes:

    * ``explicit`` stops there.
    * ``mirror-prox-full`` repeats both updates with expectations taken
      at the extrapolated belief, each re-applied on top of the
      pre-update state.
    * ``mirror-prox-skip-cov`` (default) keeps the stage-one precision
      and only re-evaluates the mean update at the extrapolated belief.

    Stage two draws new samples at the extrapolated belief. Within a
    stage, the curvature and gradient share one sample set; the first
    ``k_hess`` columns feed the curvature, the first ``k_grad`` the
    gradient.
    """
    if scheme not in NONLINEAR_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {NONLINEAR_SCHEMES}")
    if min(k_hess, k_grad) < 1:
        raise ValueError("sample counts must be at least 1")
    d = belief.d
    x = obs.dense_x(d)
    y = _require_label(obs)
    loops = default_inner_loops(d) if inner_loops is None else inner_loops
    rng = np.random.default_rng(rng)
    weights = RecursionWeights(1.0, 1.0)
    k = max(k_hess, k_grad)

    thetas = EnsembleSampler(belief.prec, rng).draw(belief.mu, k)
    block = ggn_block(model, x, thetas[:, :k_hess])
    prec_hat = recursive_em_update(belief.prec, block, weights, loops)
    grad = _mean_grad(model, x, y, thetas[:, :k_grad])
    mu_hat = belief.mu + woodbury_apply(prec_hat, grad)

    if scheme == "explicit":
        return _checked(GaussianBelief(mu_hat, prec_hat))

    thetas2 = EnsembleSampler(prec_hat, rng).draw(mu_hat, k)

    if scheme == "mirror-prox-full":
        block2 = ggn_block(model, x, thetas2[:, :k_hess])
        prec = recursive_em_update(belief.prec, block2, weights, loops)
        grad2 = _mean_grad(model, x, y, thetas2[:, :k_grad])
        mu = belief.mu + woodbury_apply(prec, grad2)
        return _checked(GaussianBelief(mu, prec))

    # mirror-prox-skip-cov: keep prec_hat, redo only the mean update.
    grad2 = _mean_grad(model, x, y, thetas2[:, :k_grad])
    mu = belief.mu + woodbury_apply(prec_hat, grad2)
    return _checked(GaussianBelief(mu, prec_hat))


def expectation_by_sampling(
    f: Callable[[np.ndarray], float],
    belief: GaussianBelief,
    k: int,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Monte Carlo estimate of E[f(theta)] under the belief.

    ``f`` is applied per draw; K draws come from the ensemble sampler, so
    the whole estimate costs O(K d p) plus K evaluations of f.
    """
    if k < 1:
        raise ValueError("need at least one draw")
    thetas = EnsembleSampler(belief.prec, rng).draw(belief.mu, k)
    return float(np.mean([f(thetas[:, i]) for i in range(k)]))
