"""Independent dense reference implementations used across the test suite.

Everything here recomputes quantities from first principles with plain
dense linear algebra (and brute-force root bracketing for the scalar
systems), deliberately sharing no code paths with the package. Tests
compare package output against these, so keep this module boring and
obviously correct rather than fast. The two exceptions take the gain
from the package's Woodbury product: ``two_route_glm_step``, the GLM
filter step, and ``block_nonlinear_step``, the sampled filter step on
(d, K) blocks of parameter draws from the package's ensemble sampler,
the reference for the index draws of ``lrvga_nonlinear_step``. Their EM
cycles are this module's own ``warm_cycle_one_shot`` and
``em_solve_step``, so no fused path of a step is on both sides of the
comparison. ``test_oracles.py`` fails if this module imports a routine
of ``lrvga.em`` or ``lrvga.filters``.

The last section holds helpers only the tests use: observation models
for the sampled filter, a Monte Carlo expectation over the ensemble
sampler, the linear- and logistic-regression log posteriors, the dense
input covariance of a regression spec, and LIBSVM and metadata writers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lapack
from scipy.optimize import brentq

from lrvga import (
    EnsembleSampler,
    FaPrecision,
    GaussianBelief,
    woodbury_apply,
)

BETA = math.sqrt(8.0 / math.pi)


def dense_precision(W: np.ndarray, psi: np.ndarray) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.ndim == 1:
        W = W[:, None]
    return W @ W.T + np.diag(np.asarray(psi, dtype=float))


def dense_covariance(W: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return np.linalg.inv(dense_precision(W, psi))


def cholesky_solve_two_calls(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^-1 B for an SPD A by LAPACK's dpotrf on A's lower triangle, then
    dpotrs: the two steps that LAPACK's one-call ``dposv`` makes."""
    factor, info = lapack.dpotrf(A, lower=1)
    assert info == 0, "not positive definite"
    X, info = lapack.dpotrs(factor, B, lower=1)
    assert info == 0
    return X


def avg_loglik(W: np.ndarray, psi: np.ndarray, S: np.ndarray) -> float:
    """Gaussian average log-likelihood of a factored fit, constants dropped.

    For the model N(0, Sigma) with Sigma = W W^T + diag(psi) and sample
    second moment S, equals -(1/2) (trace(Sigma^-1 S) + log det Sigma).
    Larger is better; the fitting recursions should never decrease it.
    """
    sigma = dense_precision(W, psi)
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    return -0.5 * (np.trace(np.linalg.solve(sigma, S)) + logdet)


def sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def sigmoid_deriv(t: float) -> float:
    s = sigmoid(t)
    return s * (1.0 - s)


def _k_of_nu(nu: float) -> float:
    return BETA / math.sqrt(nu + BETA * BETA)


def _nu_given_a(a: float, nu0: float) -> float:
    """Solve nu = nu0 / (1 + s nu0) with s = k(nu) sigmoid'(k(nu) a)."""

    def g(nu: float) -> float:
        s = _k_of_nu(nu) * sigmoid_deriv(_k_of_nu(nu) * a)
        return nu0 / (1.0 + s * nu0) - nu

    if g(nu0) >= 0.0:
        return nu0
    return brentq(g, 0.0, nu0, xtol=1e-15, rtol=8.9e-16)


def solve_scalars_bisect(a0: float, nu0: float, y: float) -> tuple[float, float, float]:
    """Reference solution of the coupled scalar system by nested bracketing.

    Finds (a, nu) with a = a0 + nu0 (y - sigmoid(k a)) and
    nu = nu0 / (1 + k sigmoid'(k a) nu0), where k = beta / sqrt(nu + beta^2).
    Returns (a, nu, k). Completely independent of the package's Newton
    solver; relies only on the update magnitude being bounded by nu0.
    """
    if nu0 <= 0.0:
        return a0, 0.0, 1.0

    def f(a: float) -> float:
        nu = _nu_given_a(a, nu0)
        return a0 + nu0 * (y - sigmoid(_k_of_nu(nu) * a)) - a

    lo = a0 - nu0 - 1.0
    hi = a0 + nu0 + 1.0
    a = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
    nu = _nu_given_a(a, nu0)
    return a, nu, _k_of_nu(nu)


def dense_logistic_step(
    mu: np.ndarray, prec: np.ndarray, x: np.ndarray, y: float
) -> tuple[np.ndarray, np.ndarray]:
    """One implicit logistic update carried out in dense arithmetic.

    Same two moment equations as the package filter: the precision gains
    k sigmoid'(k a) x x^T and the mean moves along the previous covariance
    times x, scaled by the residual at the new mean. Scalar system solved
    by the bracketing oracle. Returns the new (mu, precision).
    """
    cov = np.linalg.inv(prec)
    a0 = float(x @ mu)
    nu0 = float(x @ cov @ x)
    a, nu, k = solve_scalars_bisect(a0, nu0, y)
    s = k * sigmoid_deriv(k * a)
    prec_new = prec + s * np.outer(x, x)
    mu_new = mu + cov @ x * (y - sigmoid(k * a))
    return mu_new, prec_new


def dense_implicit_logistic_vga(
    mu: np.ndarray,
    prec: np.ndarray,
    x: np.ndarray,
    y: float,
    iters: int = 500,
) -> tuple[np.ndarray, np.ndarray]:
    """Converged implicit Gaussian update with exact 1-d expectations.

    Solves the coupled pair

        P_new = P + E_q[sigmoid'(x.theta)] x x^T
        mu_new = mu + P_new^-1 x (y - E_q[sigmoid(x.theta)])

    where q is the NEW Gaussian, by fixed-point iteration. The
    expectations reduce to one-dimensional integrals over
    u = x.theta ~ N(x.mu_q, x^T P_q^-1 x), evaluated with Gauss-Hermite
    quadrature. No moment-matching shortcut anywhere, so this is the
    target that sampled schemes approach as the ensemble grows.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(121)
    weights = weights / weights.sum()
    mu_cur, prec_cur = np.array(mu, dtype=float), np.array(prec, dtype=float)
    for _ in range(iters):
        cov = np.linalg.inv(prec_cur)
        a = float(x @ mu_cur)
        sd = math.sqrt(max(float(x @ cov @ x), 0.0))
        u = a + sd * nodes
        e_sig = float(weights @ (1.0 / (1.0 + np.exp(-u))))
        e_sig_p = float(weights @ (np.exp(-np.abs(u)) / (1.0 + np.exp(-np.abs(u))) ** 2))
        prec_new = prec + e_sig_p * np.outer(x, x)
        mu_new = mu + np.linalg.solve(prec_new, x) * (y - e_sig)
        if (
            np.max(np.abs(mu_new - mu_cur)) < 1e-14
            and np.max(np.abs(prec_new - prec_cur)) < 1e-14
        ):
            mu_cur, prec_cur = mu_new, prec_new
            break
        mu_cur, prec_cur = mu_new, prec_new
    return mu_cur, prec_cur


def exact_linear_posterior(
    X: np.ndarray, y: np.ndarray, sigma0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Gaussian posterior for unit-noise linear regression.

    Prior N(0, sigma0^2 I); returns (mean, precision).
    """
    d = X.shape[1]
    prec = np.eye(d) / sigma0**2 + X.T @ X
    mu = np.linalg.solve(prec, X.T @ y)
    return mu, prec


def em_reference_step(
    W: np.ndarray, psi: np.ndarray, S: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Textbook dense EM step for a factor-analysis fit of S.

    E-step moments under the current (W, psi), M-step in closed form:
    with Sigma = W W^T + diag(psi), G = Sigma^-1 W,
    E[z z^T] = I - W^T G + G^T S G and E[x z^T] = S G. The new loadings
    solve W E[z z^T] = E[x z^T] and the new diagonal is
    diag(S - W_new E[x z^T]^T).
    """
    W = np.asarray(W, dtype=float)
    if W.ndim == 1:
        W = W[:, None]
    S = np.asarray(S, dtype=float)
    sigma = dense_precision(W, psi)
    G = np.linalg.solve(sigma, W)
    Ezz = np.eye(W.shape[1]) - W.T @ G + G.T @ S @ G
    Exz = S @ G
    W_new = np.linalg.solve(Ezz.T, Exz.T).T
    psi_new = np.diag(S - W_new @ Exz.T).copy()
    return W_new, np.maximum(psi_new, 1e-12)


def mle_fixed_point_step(
    W: np.ndarray, psi: np.ndarray, S: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One cycle of the direct likelihood fixed-point equations (dense).

    W_new = S (W W^T + Psi)^-1 W, then psi_new = diag(S - W_new W_new^T).
    This map and the EM map share their fixed points, but they are
    different maps away from stationarity, so it cross-checks the EM
    limit.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim == 1:
        W = W[:, None]
    S = np.asarray(S, dtype=float)
    W_new = S @ np.linalg.solve(dense_precision(W, psi), W)
    psi_new = np.diag(S - W_new @ W_new.T).copy()
    return W_new, np.maximum(psi_new, 1e-12)


def em_solve_step(W: np.ndarray, psi: np.ndarray, S) -> tuple[np.ndarray, np.ndarray]:
    """The EM cycle in its solve-based form, the reference for the p-space
    kernel.

    With M = I_p + W^T Psi^-1 W, G = S Psi^-1 W and A = W^T Psi^-1 G,
    W_new solves W_new B = G for B = I_p + M^-1 A, and
    psi_new = diag(S) - diag(W_new M^-1 G^T). Every inverse is applied by
    a Cholesky or LU solve, with the d x p blocks as right-hand sides.
    ``S`` is a dense array or an object with ``matmat`` and ``diag``.
    """
    W = np.asarray(W, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if not hasattr(S, "matmat"):
        S_dense = np.asarray(S, dtype=float)
        matmat, diag = (lambda A: S_dense @ A), np.diag(S_dense)
    else:
        matmat, diag = S.matmat, S.diag()
    psi_inv_w = W / psi[:, None]
    M = np.eye(W.shape[1]) + W.T @ psi_inv_w
    chol = cho_factor((M + M.T) / 2.0, lower=True)
    G = matmat(psi_inv_w)
    B = np.eye(W.shape[1]) + cho_solve(chol, psi_inv_w.T @ G)
    W_new = np.linalg.solve(B.T, G.T).T
    psi_new = diag - np.einsum("ij,ij->i", cho_solve(chol, W_new.T).T, G)
    return W_new, np.maximum(psi_new, 1e-12)


def warm_cycle_one_shot(
    W: np.ndarray, psi: np.ndarray, X: np.ndarray, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One warm-started EM cycle toward alpha (W W^T + Psi) + beta X X^T,
    with Z = [W X] formed whole and multiplied twice.

    With M = I_p + W^T Psi^-1 W, V = X^T Psi^-1 W, L = [alpha M; beta V]
    and M B = M + alpha (M^2 - M) + beta V^T V,
    W_new = Z L (M B)^-1 M and
    psi_new = alpha psi + diag(Z R Z^T), R = diag(alpha I_p, beta I_K) - L (M B)^-1 L^T.
    Every inverse is applied by ``np.linalg.solve``.
    """
    p, k = W.shape[1], X.shape[1]
    M = np.eye(p) + W.T @ (W / psi[:, None])
    V = (X / psi[:, None]).T @ W
    L = np.vstack((alpha * M, beta * V))
    MB = (1.0 - alpha) * M + alpha * M @ M + beta * V.T @ V
    Y = np.linalg.solve(MB, L.T)
    R = np.diag([alpha] * p + [beta] * k) - L @ Y
    Z = np.concatenate((W, X), axis=1)
    W_new = Z @ (Y.T @ M)
    psi_new = alpha * psi + np.einsum("ij,jk,ik->i", Z, R, Z)
    return W_new, np.maximum(psi_new, 1e-12)


def closed_form_fit_one_shot(
    W: np.ndarray, psi: np.ndarray, X: np.ndarray, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form rank-p fit of alpha (W W^T + Psi) + beta X X^T by a
    plain SVD of A = [sqrt(alpha) W, sqrt(beta) X] = U S V^T:
    W_new = U_p S_p, the top p singular pairs, and psi_new = alpha psi
    plus the squared row norms of the discarded part U_rest S_rest."""
    p = W.shape[1]
    A = np.concatenate((math.sqrt(alpha) * W, math.sqrt(beta) * X), axis=1)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    psi_new = alpha * psi + np.sum((U[:, p:] * s[p:]) ** 2, axis=1)
    return U[:, :p] * s[:p], np.maximum(psi_new, 1e-12)


class BlockBlend:
    """A step's EM target W W^T + Psi + s X X^T for a (d, K) block X,
    applied from its parts so nothing d x d is formed: ``matmat`` and
    ``diag`` as ``em_solve_step`` reads them."""

    def __init__(self, W: np.ndarray, psi: np.ndarray, X: np.ndarray, s: float):
        self.W, self.psi, self.X, self.s = W, psi, X, s

    def matmat(self, A: np.ndarray) -> np.ndarray:
        return self.W @ (self.W.T @ A) + self.psi[:, None] * A + self.s * self.X @ (self.X.T @ A)

    def diag(self) -> np.ndarray:
        return np.sum(self.W * self.W, axis=1) + self.psi + self.s * np.sum(self.X * self.X, axis=1)


def _absorbed(prec: FaPrecision, X: np.ndarray, s: float, inner_loops: int) -> FaPrecision:
    """``inner_loops`` EM cycles toward W W^T + Psi + s X X^T, the first by
    ``warm_cycle_one_shot``, the rest by ``em_solve_step``."""
    W, psi = prec.W, prec.psi
    target = BlockBlend(W, psi, X, s)
    W_new, psi_new = warm_cycle_one_shot(W, psi, X, 1.0, s)
    for _ in range(inner_loops - 1):
        W_new, psi_new = em_solve_step(W_new, psi_new, target)
    return FaPrecision(W_new, psi_new)


def two_route_glm_step(belief, obs, rule, inner_loops) -> GaussianBelief:
    """The GLM filter step with its two halves taken apart, each on its own
    passes over W: the gain P_{t-1} x by ``woodbury_apply``, nu0 = x.gain
    (clamped at 0) and a0 = x.mu, the link's (s, r) = rule(a0, nu0, y),
    then mu_t = mu_{t-1} + r gain. The precision runs the EM cycles toward
    W W^T + Psi + s x x^T with no ``lrvga.em`` routine: the first by
    ``warm_cycle_one_shot``, the rest by ``em_solve_step``, ``inner_loops``
    in all. The new belief goes through the public constructor, which
    rejects a non-finite mean."""
    x = obs.x
    gain = woodbury_apply(belief.prec, x)
    s, r = rule(float(x @ belief.mu), max(float(x @ gain), 0.0), obs.y)
    return GaussianBelief(belief.mu + r * gain, _absorbed(belief.prec, x[:, None], s, inner_loops))


def block_nonlinear_step(belief, obs, model, k=10, inner_loops=3,
                         scheme="mirror-prox-skip-cov", rng=None) -> GaussianBelief:
    """The sampled filter step on (d, K) blocks of parameter draws, which
    ``lrvga_nonlinear_step`` takes in index space. ``model`` gives
    ``ggn_root(thetas, x)``, a root B of the sampled Gauss-Newton
    curvature, and ``mean_loglik_grad(thetas, x, y)``, the mean gradient g.

    Stage one draws K parameters from the belief by ``EnsembleSampler``,
    absorbs B B^T into the precision by ``inner_loops`` EM cycles (3, the
    package's default at d <= 1000), and moves the mean to
    mu_hat = mu + P_hat g, with P_hat the new covariance, applied by
    ``woodbury_apply``; ``explicit`` stops there. Stage two draws K fresh
    parameters from N(mu_hat, P_hat); ``mirror-prox-full`` re-absorbs
    their root into the pre-update precision, and the mean moves from mu
    by the stage-two gradient through the covariance kept. The new belief
    goes through the public constructor."""
    rng = np.random.default_rng(rng)
    x, y = obs.x, obs.y

    def absorb(thetas):
        return _absorbed(belief.prec, model.ggn_root(thetas, x), 1.0, inner_loops)

    thetas = EnsembleSampler(belief.prec, rng).draw(belief.mu, k)
    prec = absorb(thetas)
    mu = belief.mu + woodbury_apply(prec, model.mean_loglik_grad(thetas, x, y))
    if scheme != "explicit":
        thetas = EnsembleSampler(prec, rng).draw(mu, k)
        if scheme == "mirror-prox-full":
            prec = absorb(thetas)
        mu = belief.mu + woodbury_apply(prec, model.mean_loglik_grad(thetas, x, y))
    return GaussianBelief(mu, prec)


def quadrature_kl_logistic(q, X: np.ndarray, y: np.ndarray, sigma0: float,
                           coarse: int = 16) -> tuple[float, float]:
    """KL(q || logistic posterior) up to the log evidence, and its error,
    by the same 32- and 16-node Gauss-Hermite rules as
    ``expected_kl_logistic``, written plainly: the covariance Sigma is
    formed densely (a factored q's by inverting W W^T + Psi), a factored
    q's nu_i = x_i^T Sigma x_i is taken through Woodbury with X / psi
    and M = I + W^T Psi^-1 W solved densely, and E softplus(z) by
    ``np.logaddexp``. Returns (kl, error). At ``coarse=32`` the rules
    agree and the error is the sum's rounding bound alone."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    d = X.shape[1]
    if isinstance(q, GaussianBelief):
        W, psi = q.prec.W, q.prec.psi
        xs = X / psi
        u = xs @ W
        M = np.eye(W.shape[1]) + W.T @ (W / psi[:, None])
        nu = np.sum(xs * X, axis=1) - np.sum(u * np.linalg.solve(M, u.T).T, axis=1)
        cov = dense_covariance(W, psi)
    else:
        cov = q.cov
        nu = np.sum((X @ cov) * X, axis=1)
    m = X @ q.mu
    sd = np.sqrt(np.maximum(nu, 0.0))[:, None]
    sums = []
    for k in (32, coarse):
        nodes, weights = np.polynomial.hermite_e.hermegauss(k)
        sums.append(np.logaddexp(0.0, m[:, None] + sd * nodes) @ (weights / weights.sum()))
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    log_2pi = math.log(2.0 * math.pi)
    terms = np.concatenate([
        y * m,
        -sums[0],
        [-0.5 * (q.mu @ q.mu + np.trace(cov)) / sigma0**2,
         -0.5 * d * (log_2pi + 2.0 * math.log(sigma0)),
         0.5 * (d * (1.0 + log_2pi) + logdet)],
    ])
    rounding = np.finfo(float).eps * terms.size * np.sum(np.abs(terms))
    return -float(np.sum(terms)), max(abs(float(np.sum(sums[0] - sums[1]))), rounding)


# ------------------------------------------------------ test-only helpers


def precision_matvec(fa, v: np.ndarray) -> np.ndarray:
    """Multiply W W^T + diag(psi) against a vector or column block."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != fa.d:
        raise ValueError(f"vector has length {v.shape[0]}, expected {fa.d}")
    psi = fa.psi if v.ndim == 1 else fa.psi[:, None]
    return fa.W @ (fa.W.T @ v) + psi * v


def sampler_consistency_error(sampler: EnsembleSampler) -> float:
    """Max abs residual of Psi L M = W, with M = I + W^T Psi^-1 W formed
    densely; near zero for a valid correction matrix L."""
    W, psi = sampler.fa.W, sampler.fa.psi
    M = np.eye(W.shape[1]) + W.T @ (W / psi[:, None])
    return float(np.max(np.abs(psi[:, None] * (sampler.L @ M) - W)))


def expectation_by_sampling(f, belief, k: int, rng=None) -> float:
    """Monte Carlo estimate of E[f(theta)] under the belief: K draws from
    the ensemble sampler, ``f`` applied per draw."""
    if k < 1:
        raise ValueError("need at least one draw")
    thetas = EnsembleSampler(belief.prec, rng).draw(belief.mu, k)
    return float(np.mean([f(thetas[:, i]) for i in range(k)]))


class LinearGaussianModel:
    """Gaussian likelihood y ~ N(x.theta, 1): the curvature x x^T does not
    depend on the draws. Both forms: the (d, K) block methods, and the
    single-index ``index_moments`` with s = 1 and r = y - mean z."""

    def index_moments(self, z, y):
        return 1.0, y - float(np.mean(z))

    def ggn_root(self, thetas, x):
        return x[:, None]

    def mean_loglik_grad(self, thetas, x, y):
        return x * (y - np.mean(x @ thetas))


class DrawBlockModel:
    """A single-index model seen through ``ggn_root`` and
    ``mean_loglik_grad`` alone, built from its ``index_moments``, so that
    ``block_nonlinear_step`` runs it on (d, K) parameter blocks.
    Each gradient call records the index draws x.theta of its block in
    ``indices``, one array per stage."""

    def __init__(self, model):
        self.model, self.indices = model, []

    def ggn_root(self, thetas, x):
        return (x * math.sqrt(self.model.index_moments(x @ thetas, 0.0)[0]))[:, None]

    def mean_loglik_grad(self, thetas, x, y):
        self.indices.append(x @ thetas)
        return x * self.model.index_moments(self.indices[-1], y)[1]


class PerDrawLogisticModel:
    """Bernoulli likelihood with log-odds x.theta, evaluated draw by draw.

    The curvature root has one column per draw,
    x sqrt(s_k (1 - s_k)) / sqrt(K) with s_k = sigma(x.theta_k), and the
    gradient is the loop mean of (y - s_k) x: the general form, against
    which the one-column root of ``DrawBlockModel`` is checked.
    """

    def ggn_root(self, thetas, x):
        k = thetas.shape[1]
        cols = []
        for i in range(k):
            s = sigmoid(float(x @ thetas[:, i]))
            cols.append(x * math.sqrt(s * (1.0 - s)) / math.sqrt(k))
        return np.stack(cols, axis=1)

    def mean_loglik_grad(self, thetas, x, y):
        g = np.zeros(thetas.shape[0])
        for i in range(thetas.shape[1]):
            g += (y - sigmoid(float(x @ thetas[:, i]))) * x
        return g / thetas.shape[1]


def logposterior_linear(theta: np.ndarray, X: np.ndarray, y: np.ndarray, sigma0: float):
    """Log posterior (up to the evidence) of linear regression with unit
    noise and an isotropic N(0, sigma0^2 I) prior.

    ``theta`` may be a single (d,) vector or a (d, K) block of columns.
    """
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    T = theta[:, None] if single else theta
    d = T.shape[0]
    log_2pi = math.log(2.0 * math.pi)
    resid = np.asarray(y, dtype=float).ravel()[:, None] - np.asarray(X, dtype=float) @ T
    loglik = -0.5 * np.sum(resid * resid, axis=0) - 0.5 * resid.shape[0] * log_2pi
    prior = -0.5 * np.sum(T * T, axis=0) / sigma0**2 - 0.5 * d * (
        log_2pi + 2.0 * math.log(sigma0)
    )
    out = loglik + prior
    return float(out[0]) if single else out


def logposterior_logistic(theta: np.ndarray, X: np.ndarray, y: np.ndarray, sigma0: float):
    """Log posterior (up to the evidence) of logistic regression with an
    isotropic N(0, sigma0^2 I) prior; labels in {0, 1}.

    ``theta`` may be a single (d,) vector or a (d, K) block of columns.
    """
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    T = theta[:, None] if single else theta
    d = T.shape[0]
    Z = np.asarray(X, dtype=float) @ T
    # y z - log(1 + e^z), computed stably.
    y = np.asarray(y, dtype=float).ravel()
    loglik = np.sum(y[:, None] * Z - np.logaddexp(0.0, Z), axis=0)
    prior = -0.5 * np.sum(T * T, axis=0) / sigma0**2 - 0.5 * d * (
        math.log(2.0 * math.pi) + 2.0 * math.log(sigma0)
    )
    out = loglik + prior
    return float(out[0]) if single else out


def regression_input_covariance(spec) -> np.ndarray:
    """Dense input covariance C = M^T diag(lambda) M of a RegressionSpec."""
    lam = spec.input_spectrum()
    M = spec.rotation()
    if M is None:
        return np.diag(lam)
    return M.T @ (lam[:, None] * M)


def write_libsvm(path, observations) -> None:
    """Write observations in LIBSVM format (1-based, ascending indices,
    zero entries left out)."""
    with open(path, "w", encoding="utf-8") as fh:
        for obs in observations:
            label = repr(int(obs.y)) if obs.y.is_integer() else repr(obs.y)
            idx = np.flatnonzero(obs.x)
            feats = " ".join(f"{int(i) + 1}:{float(obs.x[i])!r}" for i in idx)
            fh.write(f"{label} {feats}".rstrip() + "\n")


def write_metadata(path, mapping: dict) -> None:
    """Key-value sidecar (``key=value`` per line, sorted keys)."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(mapping):
            fh.write(f"{key}={mapping[key]}\n")


def read_metadata(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key] = value
    return out
