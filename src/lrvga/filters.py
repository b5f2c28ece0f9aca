"""Streaming Gaussian filters over factored precisions.

One observation in, one posterior out. The linear and logistic filters
share one implicit GLM update: the link turns a0 = x.mu_{t-1} and
nu0 = x^T P_{t-1} x into a weight s and a residual r, the mean moves by the
pre-update gain P_{t-1} x r, and the factored precision absorbs s x x^T.
The step reads W three times: for W^T Psi^-1 x, which gives nu0 and
A = M^-1 W^T Psi^-1 x; for W A in ``em._absorb``'s first cycle, a rank-one
update by the column g = x - W A = Psi P_{t-1} x, which that cycle hands
back; and in its row-block loop, which writes the new factors. The new
mean mu_t = mu_{t-1} + r Psi^-1 g is formed here, in ``_glm_step``: the
EM layer fits the precision and never reads a mean.
Nonlinear single-index likelihoods, which read theta only through
z = x.theta, are handled by sampled expectations with an optional
extragradient (mirror-prox) correction: each stage draws K scalars
z ~ N(x.mu, x^T P x), exactly the law of x.theta under the belief, and
the precision absorbs s x x^T as in the GLM step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np
from scipy.special import expit

from . import em
from .dense import DenseGaussian
from .em import recursive_em_update  # noqa: F401 - perfbench/trace.py wraps it here by name
from .factor import PSI_FLOOR, DivergenceError, FaPrecision, woodbury_apply

# Moment-matching constant for the logistic sigmoid: sigma(z) ~ Phi(z / beta).
BETA_PROBIT = float(np.sqrt(8.0 / np.pi))

# Divergence guards, checked after every filter step.
MU_NORM_LIMIT = 1e8
PSI_FLOOR_FRACTION = 0.1

# Residual tolerance and iteration cap of the logistic step's scalar solve.
# Far from the root, at nu0 near 1e5 (d = 10^4), damped Newton has taken 124.
SCALAR_TOL = 1e-10
SCALAR_MAX_ITER = 200


@dataclass(frozen=True, slots=True, init=False)
class Observation:
    """One labelled sample: a dense (d,) input ``x`` and a finite label
    ``y``, each converted, checked through numpy's C entry points and set
    once here, so the filters need only match the input's length to the
    belief. Slotted, since a run keeps one per row: no per-instance dict."""

    x: np.ndarray
    y: float

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float).ravel()
        if not np.logical_and.reduce(np.isfinite(x)):
            raise ValueError("non-finite input entries")
        y = float(y)
        if not math.isfinite(y):
            raise ValueError("non-finite label")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _input(obs: Observation, d: int) -> np.ndarray:
    """The observation's input, checked against the belief's dimension."""
    if obs.x.shape[0] != d:
        raise ValueError(f"input has length {obs.x.shape[0]}, expected {d}")
    return obs.x


@dataclass(frozen=True)
class GaussianBelief:
    """Filter state: mean plus factored precision."""

    mu: np.ndarray
    prec: FaPrecision

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).ravel()
        if mu.shape[0] != self.prec.d:
            raise ValueError("mean and precision dimensions disagree")
        if not np.logical_and.reduce(np.isfinite(mu)):
            raise ValueError("non-finite mean")
        object.__setattr__(self, "mu", mu)

    @property
    def d(self) -> int:
        return self.prec.d


def _checked(belief: GaussianBelief) -> GaussianBelief:
    """Abort on the standard divergence signals: ValueError("non-finite
    mean"), as the constructor raises, if an entry of the mean is not finite,
    found by a scan made only when the norm check fails; DivergenceError if
    the finite mean's norm sqrt(mu @ mu), as ``np.linalg.norm`` forms it, is
    not finite or over ``MU_NORM_LIMIT``, or too much of psi is floored,
    counted only when psi's least entry is at the floor."""
    mu_norm = math.sqrt(belief.mu.dot(belief.mu))
    if not mu_norm <= MU_NORM_LIMIT:
        if not np.logical_and.reduce(np.isfinite(belief.mu)):
            raise ValueError("non-finite mean")
        raise DivergenceError(f"mean norm {mu_norm:.3e} exceeds {MU_NORM_LIMIT:.0e}")
    psi = belief.prec.psi
    if np.minimum.reduce(psi) <= PSI_FLOOR:
        floored = np.add.reduce(psi <= PSI_FLOOR) / belief.d
        if floored > PSI_FLOOR_FRACTION:
            raise DivergenceError(
                f"{floored:.0%} of the diagonal hit the floor {PSI_FLOOR:g}"
            )
    return belief


def _new_belief(mu: np.ndarray, prec: FaPrecision) -> GaussianBelief:
    """A step's output, built without the scan that ``_checked`` repeats."""
    belief = object.__new__(GaussianBelief)
    object.__setattr__(belief, "mu", mu)
    object.__setattr__(belief, "prec", prec)
    return _checked(belief)


def kalman_step_dense(belief: DenseGaussian, obs: Observation) -> DenseGaussian:
    """Exact conjugate update for y = x.theta + N(0, 1), dense O(d^2).

    Information form P_t^-1 = P_{t-1}^-1 + x x^T realized through a
    rank-one covariance downdate, then mu_t = mu_{t-1} + P_t x (y - x.mu).
    The output is checked once, by the sum of mu and cov; the downdate keeps
    cov exactly symmetric, so the constructor's scans would change nothing.
    """
    x, y = _input(obs, belief.d), obs.y
    Px = belief.cov @ x
    denom = 1.0 + float(x @ Px)
    if denom <= 0.0 or not math.isfinite(denom):
        raise np.linalg.LinAlgError("covariance downdate lost positive definiteness")
    cov = belief.cov - np.outer(Px, Px) / denom
    gain = Px / denom  # equals P_t x
    mu = belief.mu + gain * (y - float(x @ belief.mu))
    if not math.isfinite(np.add.reduce(mu) + np.add.reduce(cov, axis=None)):
        raise ValueError("non-finite entries")
    out = object.__new__(DenseGaussian)
    object.__setattr__(out, "mu", mu)
    object.__setattr__(out, "cov", cov)
    return out


def _prior_scalars(
    belief: GaussianBelief, obs: Observation, binary: bool = False
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, float, float]:
    """The prior scalars of one observation, (x, y, u, M^-1 c, nu0, a0),
    from one pass over W: u = Psi^-1 x, c = W^T u and, by Woodbury,
    nu0 = x^T P_{t-1} x = x.u - c^T M^-1 c, clamped at 0, with M^-1 the
    cached ``latent_inverse``, and a0 = x.mu_{t-1}. ``Observation`` has
    checked x and y for finiteness; only the input's length and, when
    ``binary``, the label are checked here."""
    x, y = _input(obs, belief.d), obs.y
    if binary and y not in (0.0, 1.0):
        raise ValueError("logistic labels must be 0 or 1")
    prec = belief.prec
    u = x / prec.psi
    # .dot: on whole arrays it costs less than matmul, with the same bits
    c = prec.W.T.dot(u)
    minv_c = prec.latent_inverse.dot(c)
    nu0 = max(float(x.dot(u)) - float(c.dot(minv_c)), 0.0)
    return x, y, u, minv_c, nu0, float(x.dot(belief.mu))


def _glm_step(
    belief: GaussianBelief,
    obs: Observation,
    inner_loops: int | None,
    rule: Callable[[float, float, float], tuple[float, float]],
    binary: bool = False,
) -> GaussianBelief:
    """One implicit GLM update; ``rule(a0, nu0, y)`` gives the link's (s, r).

    The mean moves along the pre-update gain, mu_t = mu_{t-1} + P_{t-1} x r,
    and the factored precision absorbs s x x^T through ``em._absorb`` with
    weights (1, s), so no reweighted copy of x is made. Its first pass is
    the warm-started rank-one cycle, given the scalars' M^-1 c,
    c = W^T Psi^-1 x, as its A. By Woodbury, P_{t-1} x r = r Psi^-1 g
    with g = x - W M^-1 c, the column that cycle is made of: it forms g
    in the spent buffer of Psi^-1 x, and mu_t is formed here, over g in
    that buffer.
    """
    x, y, u, minv_c, nu0, a0 = _prior_scalars(belief, obs, binary)
    s, r = rule(a0, nu0, y)
    prec = em._absorb(belief.prec, x[:, None], 1.0, s, inner_loops, minv_c[:, None], u[:, None])
    # u holds g: mu_t = r g / psi + mu, in place
    np.divide(np.multiply(u, r, out=u), belief.prec.psi, out=u)
    u += belief.mu
    return _new_belief(u, prec)


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


def _expit(z: float) -> float:
    """``scipy.special.expit`` of a float, bit for bit, without its ufunc
    call: 1 / (1 + exp(-z)), which is 0 where exp(-z) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:
        return 0.0


def _sigmoid_weight(a: float, nu: float) -> float:
    """s(a, nu) = k sigma'(k a) with k = beta / sqrt(nu + beta^2)."""
    k = BETA_PROBIT / math.sqrt(nu + BETA_PROBIT**2)
    sig = _expit(k * a)
    return k * sig * (1.0 - sig)


def _scalar_residuals(a: float, nu: float, a0: float, nu0: float, y: float) -> tuple[float, float]:
    k = BETA_PROBIT / math.sqrt(nu + BETA_PROBIT**2)
    s = _sigmoid_weight(a, nu)
    r_nu = nu * (1.0 + s * nu0) - nu0
    r_a = a - a0 - nu0 * (y - _expit(k * a))
    return r_a, r_nu


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of f in [lo, hi], where f(lo) >= 0 >= f(hi), halved until
    the ends are adjacent floats."""
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    return mid


def _bracketed_scalars(a0: float, nu0: float, y: float) -> tuple[float, float]:
    """(a, nu) by nested bisection, the fallback when Newton fails: since
    |y - sigma| < 1, |a - a0| < nu0 (widened by 1 against rounding), and
    for a fixed a, nu is the root in [0, nu0] of nu0 / (1 + s nu0) - nu."""
    def nu_of(a: float) -> float:
        return _bisect(lambda nu: nu0 / (1.0 + _sigmoid_weight(a, nu) * nu0) - nu, 0.0, nu0)

    def f(a: float) -> float:
        return a0 + nu0 * (y - _expit(BETA_PROBIT / math.sqrt(nu_of(a) + BETA_PROBIT**2) * a)) - a

    a = _bisect(f, a0 - nu0 - 1.0, a0 + nu0 + 1.0)
    return a, nu_of(a)


def _solve_scalar_system(a0: float, nu0: float, y: float) -> GlmScalarSolution:
    beta2 = BETA_PROBIT**2
    if nu0 <= 0.0:
        # Deterministic direction: the update degenerates to a0 and k = 1.
        return GlmScalarSolution(a0, 0.0, 1.0, 0.0, 0.0, 0, True)

    a, nu = a0, nu0
    it = 0
    tol = SCALAR_TOL
    r_a, r_nu = _scalar_residuals(a, nu, a0, nu0, y)
    norm = max(abs(r_a), abs(r_nu))
    for it in range(1, SCALAR_MAX_ITER + 1):
        if norm <= SCALAR_TOL:
            break
        k = BETA_PROBIT / math.sqrt(nu + beta2)
        sig = _expit(k * a)
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
        if det == 0.0 or not math.isfinite(det):
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
            tol = SCALAR_TOL * (1.0 + nu0)  # a stall: r_a rounds at about nu0 eps
            break

    converged = norm <= tol
    if not converged:
        warnings.warn(
            "implicit scalar solve: Newton stopped short within its iteration "
            "cap, solving by bracketing instead",
            RuntimeWarning,
        )
        a, nu = _bracketed_scalars(a0, nu0, y)
        r_a, r_nu = _scalar_residuals(a, nu, a0, nu0, y)
        if not math.isfinite(r_a + r_nu):
            raise DivergenceError(
                f"implicit scalar solve found no finite root at a0 = {a0:g}, nu0 = {nu0:g}")
    k = BETA_PROBIT / math.sqrt(nu + beta2)
    return GlmScalarSolution(float(a), float(nu), k, float(r_a), float(r_nu), it, converged)


def solve_glm_scalars(belief: GaussianBelief, obs: Observation) -> GlmScalarSolution:
    """Solve the implicit pair (a, nu) of a logistic update.

    With nu0 = x^T P_{t-1} x and a0 = x.mu_{t-1}, the posterior scalars
    satisfy

        nu = nu0 / (1 + s(a, nu) nu0)
        a  = a0 + nu0 (y - sigma(k a))

    where s(a, nu) = k sigma'(k a) and k = beta / sqrt(nu + beta^2).
    Solved by damped Newton to a residual of ``SCALAR_TOL``, or of
    ``SCALAR_TOL (1 + nu0)`` where no damped step shrinks it, since the
    rounding of a - a0 - nu0 (y - sigma) grows with nu0: both count as
    ``newton_converged``. If Newton stops short otherwise within
    ``SCALAR_MAX_ITER`` iterations, a warning is raised and the pair is
    found by nested bisection instead. A bisection that finds no finite
    root raises ``DivergenceError``.
    """
    _, y, _, _, nu0, a0 = _prior_scalars(belief, obs, binary=True)
    return _solve_scalar_system(a0, nu0, y)


def lrvga_logistic_step(
    belief: GaussianBelief, obs: Observation, inner_loops: int | None = None
) -> GaussianBelief:
    """Limited-memory update for a Bernoulli observation with logistic link.

    The GLM step with the implicit scalars of ``solve_glm_scalars``:
    s = k sigma'(k a) and r = y - sigma(k a), so

        mu_t  = mu_{t-1} + P_{t-1} x (y - sigma(k a))
        P_t^-1 ~ W_t W_t^T + Psi_t fitted to P_{t-1}^-1 + s x x^T
    """

    def rule(a0: float, nu0: float, y: float) -> tuple[float, float]:
        sol = _solve_scalar_system(a0, nu0, y)
        return _sigmoid_weight(sol.a, sol.nu), y - _expit(sol.k * sol.a)

    return _glm_step(belief, obs, inner_loops, rule, binary=True)


class NonlinearModel(Protocol):
    """Observation model of the sampled filter, single-index: it reads
    theta only through z = x.theta, and ``index_moments(z, y)`` gives the
    means over (K,) index draws of s = -d^2/dz^2 log p(y|z) and
    r = d/dz log p(y|z)."""

    def index_moments(self, z: np.ndarray, y: float) -> tuple[float, float]: ...


class LogisticModel:
    """Bernoulli likelihood with log-odds x.theta. At index draws
    z_k = x.theta_k the sampled curvature is mean(sigma'(z)) x x^T and the
    mean gradient x (y - mean sigma(z)).
    """

    def index_moments(self, z, y):
        if y not in (0.0, 1.0):
            raise ValueError("logistic labels must be 0 or 1")
        s = expit(z)
        return float(s.dot(1.0 - s)) / s.size, y - float(np.add.reduce(s)) / s.size


def ggn_block(model, x: np.ndarray, theta_samples: np.ndarray) -> np.ndarray:
    """Square-root Gauss-Newton block ``model.ggn_root(thetas, x)`` of a
    checked (d, K >= 1) block of parameter draws: a (d, m) block B with
    B B^T the sampled expected Gauss-Newton curvature. No filter step
    calls it; perfbench/trace.py wraps it here by name."""
    theta_samples = np.asarray(theta_samples, dtype=float)
    if theta_samples.ndim != 2 or theta_samples.shape[1] < 1:
        raise ValueError(f"need a (d, K >= 1) block of draws, got {theta_samples.shape}")
    return model.ggn_root(theta_samples, x)


NONLINEAR_SCHEMES = ("explicit", "mirror-prox-full", "mirror-prox-skip-cov")


def lrvga_nonlinear_step(
    belief: GaussianBelief,
    obs: Observation,
    model: NonlinearModel,
    k: int = 10,
    inner_loops: int | None = None,
    scheme: str = "mirror-prox-skip-cov",
    rng: np.random.Generator | int | None = None,
) -> GaussianBelief:
    """Sampled-expectation update for a single-index observation model.

    Stage one draws k indices x.theta ~ N(a0, nu0), a0 = x.mu and
    nu0 = x^T P x, and absorbs s1 x x^T into P_hat as the GLM step does;
    with h = P_hat x, ``explicit`` stops at mu + r1 h. The mirror-prox
    schemes draw k fresh indices at the extrapolated mean mu + r1 h,
    N(a0 + r1 nu_hat, nu_hat) with nu_hat = x^T h, and move the mean to
    mu + r2 h: ``mirror-prox-skip-cov`` (default) keeps P_hat, and
    ``mirror-prox-full`` first re-absorbs s2 into the pre-update precision
    and recomputes h.
    """
    if scheme not in NONLINEAR_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {NONLINEAR_SCHEMES}")
    if k < 1:
        raise ValueError("sample count must be at least 1")
    index_moments = getattr(model, "index_moments", None)
    if not callable(index_moments):
        raise TypeError(f"{type(model).__name__} defines no index_moments(z, y): "
                        "the sampled filter takes single-index models only")
    rng = np.random.default_rng(rng)
    x, y, _, minv_c, nu0, a0 = _prior_scalars(belief, obs)

    def absorb(s):
        prec = em._absorb(belief.prec, x[:, None], 1.0, s, inner_loops, minv_c[:, None])
        return prec, woodbury_apply(prec, x)

    s, r = index_moments(a0 + math.sqrt(nu0) * rng.standard_normal(k), y)
    prec, h = absorb(s)
    if scheme != "explicit":
        nu_hat = max(float(x.dot(h)), 0.0)
        s, r = index_moments(a0 + r * nu_hat + math.sqrt(nu_hat) * rng.standard_normal(k), y)
        if scheme == "mirror-prox-full":
            prec, h = absorb(s)
    return _new_belief(belief.mu + r * h, prec)
