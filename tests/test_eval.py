"""KL metrics, quadrature and Monte Carlo KL, log posteriors, Laplace baseline."""

import numpy as np
import pytest
from scipy.special import expit

import lrvga.evaluation
import lrvga.experiments
from lrvga import (
    DenseGaussian,
    FaPrecision,
    GaussianBelief,
    covariance_fit_kl,
    expected_kl_logistic,
    fa_dense_inverse,
    fa_dense_matrix,
    gaussian_entropy,
    gaussian_kl,
    init_isotropic_prior,
    laplace_logistic,
    make_config,
    mc_kl_to_posterior,
    run_experiment,
)

from oracles import logposterior_linear, logposterior_logistic, quadrature_kl_logistic
from test_experiments import TINY


def dense_kl(mu_q, cov_q, mu_t, cov_t):
    d = mu_q.shape[0]
    delta = mu_q - mu_t
    inv_t = np.linalg.inv(cov_t)
    return 0.5 * (
        np.trace(inv_t @ cov_q)
        + delta @ inv_t @ delta
        - d
        + np.linalg.slogdet(cov_t)[1]
        - np.linalg.slogdet(cov_q)[1]
    )


def random_belief(rng, d, p, scale=1.0):
    fa = FaPrecision(
        rng.standard_normal((d, p)) * scale, rng.uniform(0.5, 2.0, d) * scale
    )
    return GaussianBelief(rng.standard_normal(d), fa)


def test_gaussian_kl_of_identical_arguments_is_zero():
    bel = random_belief(np.random.default_rng(0), 7, 3)
    dense = DenseGaussian(bel.mu, fa_dense_inverse(bel.prec))
    assert gaussian_kl(bel, dense) == pytest.approx(0.0, abs=1e-10)
    assert gaussian_kl(dense, dense) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(TypeError):
        gaussian_kl(bel, bel)


@pytest.mark.parametrize("seed", range(5))
def test_gaussian_kl_matches_dense_formula_in_every_mix(seed):
    rng = np.random.default_rng(30 + seed)
    d = int(rng.integers(3, 9))
    q = random_belief(rng, d, int(rng.integers(1, d + 1)))
    t = random_belief(rng, d, int(rng.integers(1, d + 1)))
    cov_q = fa_dense_inverse(q.prec)
    cov_t = fa_dense_inverse(t.prec)
    expected = dense_kl(q.mu, cov_q, t.mu, cov_t)
    dq = DenseGaussian(q.mu, cov_q)
    dt = DenseGaussian(t.mu, cov_t)
    # Either form of q against the dense target; a factored target is refused.
    for a in (q, dq):
        assert gaussian_kl(a, dt) == pytest.approx(expected, rel=1e-10, abs=1e-10)
        with pytest.raises(TypeError):
            gaussian_kl(a, t)


def test_gaussian_kl_argument_validation():
    bel = random_belief(np.random.default_rng(1), 4, 2)
    other = random_belief(np.random.default_rng(2), 5, 2)
    with pytest.raises(ValueError):
        gaussian_kl(bel, DenseGaussian(other.mu, fa_dense_inverse(other.prec)))
    with pytest.raises(TypeError):
        gaussian_kl(bel, np.eye(4))
    with pytest.raises(TypeError):
        gaussian_kl(bel, other)
    with pytest.raises(TypeError):
        gaussian_kl("q", DenseGaussian(bel.mu, fa_dense_inverse(bel.prec)))


def test_covariance_fit_kl_zero_at_exact_fit():
    rng = np.random.default_rng(3)
    fa = FaPrecision(rng.standard_normal((6, 2)), rng.uniform(0.5, 2.0, 6))
    S = fa_dense_matrix(fa)
    assert covariance_fit_kl(fa, S) == pytest.approx(0.0, abs=1e-10)


def test_covariance_fit_kl_matches_dense_formula():
    rng = np.random.default_rng(4)
    d = 8
    fa = FaPrecision(rng.standard_normal((d, 3)), rng.uniform(0.5, 2.0, d))
    A = rng.standard_normal((d, d + 4))
    S = A @ A.T / (d + 4)
    sigma = fa_dense_matrix(fa)
    expected = 0.5 * (
        np.trace(np.linalg.solve(sigma, S))
        + np.linalg.slogdet(sigma)[1]
        - np.linalg.slogdet(S)[1]
        - d
    )
    assert covariance_fit_kl(fa, S) == pytest.approx(expected, rel=1e-10)
    with pytest.raises(ValueError):
        covariance_fit_kl(fa, S[:-1, :-1])
    with pytest.raises(np.linalg.LinAlgError):
        covariance_fit_kl(fa, np.zeros((d, d)))


def test_gaussian_entropy_matches_dense_formula():
    rng = np.random.default_rng(5)
    bel = random_belief(rng, 6, 2)
    cov = fa_dense_inverse(bel.prec)
    expected = 0.5 * (
        6 * (1.0 + np.log(2.0 * np.pi)) + np.linalg.slogdet(cov)[1]
    )
    assert gaussian_entropy(bel) == pytest.approx(expected, rel=1e-12)
    assert gaussian_entropy(DenseGaussian(bel.mu, cov)) == pytest.approx(
        expected, rel=1e-12
    )


def test_mc_kl_to_matching_gaussian_is_near_zero():
    # Target density equal to q itself: the KL is exactly zero, so the
    # estimate must sit within a few standard errors of zero.
    rng = np.random.default_rng(6)
    bel = random_belief(rng, 5, 2)
    cov = fa_dense_inverse(bel.prec)
    inv = np.linalg.inv(cov)
    _, ld = np.linalg.slogdet(cov)
    const = -0.5 * (5 * np.log(2 * np.pi) + ld)

    def logq(thetas):
        delta = thetas - bel.mu[:, None]
        return const - 0.5 * np.einsum("dk,dj,jk->k", delta, inv, delta)

    for q in (bel, DenseGaussian(bel.mu, cov)):
        est = mc_kl_to_posterior(q, logq, k=4000, rng=7)
        assert est.n_samples == 4000
        assert est.std_error > 0
        assert abs(est.value) < 4.0 * est.std_error + 1e-3


def test_mc_kl_validates_inputs():
    bel = random_belief(np.random.default_rng(8), 4, 1)
    with pytest.raises(ValueError):
        mc_kl_to_posterior(bel, lambda t: np.zeros(t.shape[1]), k=1)
    with pytest.raises(ValueError):
        mc_kl_to_posterior(bel, lambda t: np.zeros(3), k=10, rng=0)
    with pytest.raises(ValueError):
        mc_kl_to_posterior(
            bel, lambda t: np.full(t.shape[1], np.nan), k=10, rng=0
        )
    with pytest.raises(np.linalg.LinAlgError):  # a covariance that is not positive definite
        mc_kl_to_posterior(DenseGaussian(bel.mu, -np.eye(4)), lambda t: np.zeros(t.shape[1]), k=10)


def test_mc_kl_shrinks_with_distance():
    # Moving q away from the target should increase the estimated KL.
    rng = np.random.default_rng(9)
    d = 4
    fa = init_isotropic_prior(d, 2, 1.0, rng=1)
    near = GaussianBelief(np.zeros(d), fa)
    far = GaussianBelief(np.full(d, 3.0), fa)
    X = rng.standard_normal((20, d))
    y = (rng.random(20) < 0.5).astype(float)

    def logpost(thetas):
        return logposterior_logistic(thetas, X, y, 1.0)

    kl_near = mc_kl_to_posterior(near, logpost, k=2000, rng=2).value
    kl_far = mc_kl_to_posterior(far, logpost, k=2000, rng=2).value
    assert kl_far > kl_near


@pytest.mark.parametrize("kind", ["logistic", "nonlinear"])
def test_quadrature_kl_matches_large_monte_carlo_at_every_checkpoint(kind, monkeypatch):
    """Every row the TINY run scores, filter beliefs and the Laplace
    baseline alike, is rescored by 10^5 draws against the same log
    posterior; the two agree within 3 standard errors of the draws."""
    scored = []

    def record(q, X, y, sigma0):
        scored.append((q, X, y, sigma0))
        return expected_kl_logistic(q, X, y, sigma0)

    monkeypatch.setattr(lrvga.experiments, "expected_kl_logistic", record)
    report = run_experiment(make_config(kind, **TINY[kind]))
    assert len(scored) == len(report.rows)
    for i, ((q, X, y, sigma0), row) in enumerate(zip(scored, report.rows)):
        mc = mc_kl_to_posterior(
            q, lambda t: logposterior_logistic(t, X, y, sigma0), k=100_000, rng=i
        )
        assert abs(row.kl - mc.value) <= 3.0 * np.hypot(mc.std_error, row.stderr), row
        assert type(row.kl) is float and type(row.stderr) is float  # not np.float64
        assert row.stderr > 0.0


def _logistic_problem(rng, n, d):
    X = rng.standard_normal((n, d))
    return X, (rng.random(n) < expit(X @ rng.standard_normal(d))).astype(float)


def test_quadrature_kl_of_a_belief_matches_its_dense_copy():
    rng = np.random.default_rng(13)
    X, y = _logistic_problem(rng, 40, 7)
    for p in (1, 3, 7):
        bel = random_belief(rng, 7, p)
        dense = DenseGaussian(bel.mu, fa_dense_inverse(bel.prec))
        a, b = expected_kl_logistic(bel, X, y, 1.5), expected_kl_logistic(dense, X, y, 1.5)
        assert a.value == pytest.approx(b.value, rel=1e-9)
        assert a.std_error == pytest.approx(b.std_error, rel=1e-6, abs=1e-12)
        assert a.n_samples == b.n_samples == 32


@pytest.mark.parametrize("form", ["factored", "dense"])
def test_quadrature_kl_matches_the_plain_oracle_also_where_exp_overflows(form):
    """Against the quadrature written with a dense Sigma, X / psi and
    np.logaddexp, within the bounds of the dense-copy test above. Four
    rows put |x.mu| at 800 or more, where exp(x.mu) overflows: their KL
    alone is finite and equal to the oracle's too."""
    rng = np.random.default_rng(17)
    d, sigma0 = 9, 1.5
    X, y = _logistic_problem(rng, 60, d)
    q = random_belief(rng, d, 3)
    if form == "dense":
        q = DenseGaussian(q.mu, fa_dense_inverse(q.prec))
    X[:4] = np.outer([850.0, -900.0, 1200.0, -5000.0], q.mu / (q.mu @ q.mu))
    X[:4] += rng.standard_normal((4, d)) / 10.0
    assert np.all(np.abs(X[:4] @ q.mu) >= 800.0)
    for rows in (slice(None), slice(4)):
        est = expected_kl_logistic(q, X[rows], y[rows], sigma0)
        kl, error = quadrature_kl_logistic(q, X[rows], y[rows], sigma0)
        assert np.isfinite(est.value) and np.isfinite(est.std_error)
        assert est.value == pytest.approx(kl, rel=1e-9)
        assert est.std_error == pytest.approx(error, rel=1e-6, abs=1e-12)


def test_quadrature_kl_of_several_row_blocks_matches_the_plain_oracle():
    """600 rows: two whole blocks of ``_GH_ROWS`` nodes and a partial
    third, against the oracle's rules over the whole array, for a
    factored q and its dense copy, within the bounds above."""
    rng = np.random.default_rng(18)
    X, y = _logistic_problem(rng, 600, 6)
    bel = random_belief(rng, 6, 2)
    assert 2 * lrvga.evaluation._GH_ROWS < 600 < 3 * lrvga.evaluation._GH_ROWS
    for q in (bel, DenseGaussian(bel.mu, fa_dense_inverse(bel.prec))):
        est = expected_kl_logistic(q, X, y, 2.0)
        kl, error = quadrature_kl_logistic(q, X, y, 2.0)
        assert est.value == pytest.approx(kl, rel=1e-9)
        assert est.std_error == pytest.approx(error, rel=1e-6, abs=1e-12)


def test_quadrature_kl_error_stays_positive_when_the_rules_agree(monkeypatch):
    """The error is the larger of the 16- to 32-node change and the sum's
    rounding bound, which the oracle gives alone when its rules agree. For
    a q of unit scale the rules differ by far more than that bound; for a
    near-point-mass q, whose nodes all sit on the mean to rounding, they
    do not. Swapping in the 32-node rule for the coarse one leaves each
    KL as it is and its error at the bound, still above 0."""
    rng = np.random.default_rng(14)
    X, y = _logistic_problem(rng, 50, 4)
    wide = random_belief(rng, 4, 2)
    point = GaussianBelief(rng.standard_normal(4), FaPrecision(np.ones((4, 1)), np.full(4, 1e30)))
    beliefs = (wide, point)
    before = [expected_kl_logistic(q, X, y, 2.0) for q in beliefs]
    bounds = [quadrature_kl_logistic(q, X, y, 2.0, coarse=32)[1] for q in beliefs]
    assert before[0].std_error > 1e3 * bounds[0]
    assert before[1].std_error == pytest.approx(bounds[1], rel=1e-9, abs=0.0)
    assert 0.0 < before[1].std_error < 1e-10 * abs(before[1].value)
    fine_rule = lrvga.evaluation._GH_RULES[0]
    monkeypatch.setattr(lrvga.evaluation, "_GH_RULES", (fine_rule, fine_rule))
    for q, est, bound in zip(beliefs, before, bounds):
        after = expected_kl_logistic(q, X, y, 2.0)
        assert after.value == est.value
        assert after.std_error == pytest.approx(bound, rel=1e-9, abs=0.0)
        assert after.std_error > 0.0


def test_quadrature_kl_validates_shapes():
    bel = random_belief(np.random.default_rng(15), 4, 2)
    X, y = _logistic_problem(np.random.default_rng(16), 10, 4)
    with pytest.raises(ValueError):
        expected_kl_logistic(bel, X[:, :3], y, 1.0)
    with pytest.raises(ValueError):
        expected_kl_logistic(bel, X, y[:-1], 1.0)


def test_logposterior_linear_against_direct_formula():
    rng = np.random.default_rng(10)
    n, d, sigma0 = 12, 3, 1.7
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    theta = rng.standard_normal(d)
    resid = y - X @ theta
    expected = (
        -0.5 * float(resid @ resid)
        - 0.5 * n * np.log(2 * np.pi)
        - 0.5 * float(theta @ theta) / sigma0**2
        - 0.5 * d * np.log(2 * np.pi * sigma0**2)
    )
    assert logposterior_linear(theta, X, y, sigma0) == pytest.approx(
        expected, rel=1e-12
    )
    block = np.column_stack([theta, 2.0 * theta])
    vals = logposterior_linear(block, X, y, sigma0)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(expected, rel=1e-12)


def test_logposterior_logistic_against_direct_formula():
    rng = np.random.default_rng(11)
    n, d, sigma0 = 10, 3, 2.0
    X = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.5).astype(float)
    theta = rng.standard_normal(d)
    z = X @ theta
    expected = float(
        np.sum(y * z - np.log1p(np.exp(z)))
        - 0.5 * theta @ theta / sigma0**2
        - 0.5 * d * np.log(2 * np.pi * sigma0**2)
    )
    assert logposterior_logistic(theta, X, y, sigma0) == pytest.approx(
        expected, rel=1e-12
    )


def test_logposterior_logistic_is_stable_at_extreme_logits():
    X = np.array([[1000.0], [-1000.0]])
    y = np.array([1.0, 0.0])
    val = logposterior_logistic(np.array([1.0]), X, y, 1.0)
    assert np.isfinite(val)


def test_laplace_gradient_vanishes_at_the_mode():
    rng = np.random.default_rng(12)
    n, d, sigma0 = 60, 4, 2.0
    X = rng.standard_normal((n, d))
    theta_star = rng.standard_normal(d)
    y = (rng.random(n) < expit(X @ theta_star)).astype(float)
    lap = laplace_logistic(X, y, sigma0)
    grad = X.T @ (y - expit(X @ lap.mu)) - lap.mu / sigma0**2
    assert np.linalg.norm(grad) < 1e-7
    H = X.T @ (X * (expit(X @ lap.mu) * (1 - expit(X @ lap.mu)))[:, None])
    H += np.eye(d) / sigma0**2
    assert np.allclose(np.linalg.inv(H), lap.cov, rtol=1e-10)


@pytest.mark.parametrize("cap", [None, 0, 1], ids=["tolerance", "cap-0", "cap-1"])
def test_laplace_covariance_is_the_inverse_hessian_at_the_returned_mean(cap, monkeypatch):
    """On each exit, at the gradient tolerance or at an iteration cap of 0
    or 1, the covariance is the symmetrised inverse of the Hessian formed
    at the returned mean, bit for bit."""
    rng = np.random.default_rng(12)
    n, d, sigma0 = 60, 4, 2.0
    X = rng.standard_normal((n, d))
    y = (rng.random(n) < expit(X @ rng.standard_normal(d))).astype(float)
    if cap is not None:
        monkeypatch.setattr(lrvga.evaluation, "LAPLACE_MAX_ITER", cap)
    lap = laplace_logistic(X, y, sigma0)
    s = expit(X @ lap.mu)
    grad = X.T @ (y - s) - lap.mu / sigma0**2
    assert (np.linalg.norm(grad) <= lrvga.evaluation.LAPLACE_TOL) == (cap is None)
    assert lap.mu.any() == (cap != 0)
    H = X.T @ (X * (s * (1.0 - s))[:, None]) + np.eye(d) / sigma0**2
    inv = np.linalg.inv(H)
    assert np.array_equal(lap.cov, (inv + inv.T) / 2.0)


def _plain(arrays):
    return tuple(a.view(np.ndarray) if isinstance(a, _CountedVector) else a for a in arrays)


class _CountedVector(np.ndarray):
    """An array whose products with ``left`` on the left are counted. Every
    ufunc result over one is one too, so an iterate started as one stays
    one; ``@`` is np.matmul, so it reaches ``__array_ufunc__``."""

    left, products = None, 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[0] is _CountedVector.left:
            _CountedVector.products += 1
        if "out" in kwargs:
            kwargs["out"] = _plain(kwargs["out"])
        result = getattr(ufunc, method)(*_plain(inputs), **kwargs)
        return result.view(_CountedVector) if isinstance(result, np.ndarray) else result


def test_laplace_forms_x_theta_once_per_objective_evaluation(monkeypatch):
    """The line search scores each candidate through X theta, and the
    Newton step reuses the accepted candidate's product: one X @ v per
    objective evaluation, counted with theta started as a counted vector.
    The result is the plain call's, bit for bit."""
    rng = np.random.default_rng(12)
    n, d, sigma0 = 60, 4, 2.0
    X = rng.standard_normal((n, d))
    y = (rng.random(n) < expit(X @ rng.standard_normal(d))).astype(float)
    plain = laplace_logistic(X, y, sigma0)

    class Numpy(type(np)):
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def zeros(*args, **kwargs):
            return np.zeros(*args, **kwargs).view(_CountedVector)

    evaluations, softplus = 0, lrvga.evaluation._softplus

    def counted_softplus(t):
        nonlocal evaluations
        evaluations += 1
        return softplus(t)

    monkeypatch.setattr(lrvga.evaluation, "np", Numpy("numpy"))
    monkeypatch.setattr(lrvga.evaluation, "_softplus", counted_softplus)
    monkeypatch.setattr(_CountedVector, "left", X)
    monkeypatch.setattr(_CountedVector, "products", 0)
    lap = laplace_logistic(X, y, sigma0)
    assert evaluations > 2
    assert _CountedVector.products == evaluations
    assert np.array_equal(lap.mu, plain.mu) and np.array_equal(lap.cov, plain.cov)


def test_laplace_validates_inputs():
    with pytest.raises(ValueError):
        laplace_logistic(np.ones((4, 2)), np.ones(3), 1.0)
    with pytest.raises(ValueError):
        laplace_logistic(np.ones((3, 2)), np.ones(3), 0.0)


def test_laplace_separable_problem_matches_scalar_solve():
    # Orthogonal design: each coordinate solves an independent scalar
    # MAP problem, checked against a fine grid search.
    X = np.vstack([np.eye(2)] * 8)
    y = np.array([1.0, 0.0] * 8)
    sigma0 = 1.5
    lap = laplace_logistic(X, y, sigma0)
    grid = np.linspace(-4, 4, 200001)
    for j, labels in ((0, y[0::2]), (1, y[1::2])):
        obj = np.sum(
            labels[:, None] * grid[None, :] - np.logaddexp(0.0, grid)[None, :],
            axis=0,
        ) - 0.5 * grid**2 / sigma0**2
        assert lap.mu[j] == pytest.approx(grid[np.argmax(obj)], abs=1e-4)
