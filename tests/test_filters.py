"""Streaming filters: conjugate baseline, linear, logistic, nonlinear."""

import os
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.special import expit

import lrvga.em
import lrvga.factor
import lrvga.filters
import lrvga.sampler
from lrvga import (
    DenseGaussian,
    DivergenceError,
    FaPrecision,
    GaussianBelief,
    LogisticModel,
    Observation,
    fa_dense_inverse,
    fa_dense_matrix,
    ggn_block,
    init_isotropic_prior,
    kalman_step_dense,
    lrvga_linear_step,
    lrvga_logistic_step,
    lrvga_nonlinear_step,
    solve_glm_scalars,
    woodbury_apply,
)
from lrvga.em import _ROW_BLOCK
from lrvga.factor import PSI_FLOOR, latent_gram
from lrvga.filters import (
    NONLINEAR_SCHEMES,
    _checked,
    _expit,
    _sigmoid_weight,
    _solve_scalar_system,
)

from oracles import (
    DrawBlockModel,
    LinearGaussianModel,
    PerDrawLogisticModel,
    block_nonlinear_step,
    dense_implicit_logistic_vga,
    dense_logistic_step,
    exact_linear_posterior,
    expectation_by_sampling,
    solve_scalars_bisect,
    two_route_glm_step,
)


def belief_from_prior(d, p, sigma0=1.0, eps=0.5, seed=0, mu=None):
    fa = init_isotropic_prior(d, p, sigma0, eps=eps, rng=seed)
    return GaussianBelief(np.zeros(d) if mu is None else mu, fa)


# ---------------------------------------------------------------- kalman


def test_kalman_scalar_bayes_update():
    prior = DenseGaussian(np.zeros(1), np.eye(1))
    post = kalman_step_dense(prior, Observation(np.array([1.0]), 1.0))
    assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert post.mu[0] == pytest.approx(0.5, abs=1e-15)


def test_kalman_zero_input_is_identity():
    rng = np.random.default_rng(1)
    prior = DenseGaussian(rng.standard_normal(4), np.eye(4) * 2.0)
    post = kalman_step_dense(prior, Observation(np.zeros(4), 3.0))
    assert np.array_equal(post.mu, prior.mu)
    assert np.allclose(post.cov, prior.cov, atol=1e-15)


def test_kalman_stream_matches_batch_posterior():
    rng = np.random.default_rng(7)
    d, n, sigma0 = 5, 30, 2.0
    X = rng.standard_normal((n, d))
    y = X @ rng.standard_normal(d) + rng.standard_normal(n)
    state = DenseGaussian(np.zeros(d), np.eye(d) * sigma0**2)
    for i in range(n):
        state = kalman_step_dense(state, Observation(X[i], y[i]))
    mu_ref, prec_ref = exact_linear_posterior(X, y, sigma0)
    assert np.allclose(state.mu, mu_ref, rtol=1e-10, atol=1e-12)
    assert np.allclose(np.linalg.inv(state.cov), prec_ref, rtol=1e-9, atol=1e-10)


def test_kalman_requires_label_and_positive_definiteness():
    # The label is required when the observation is built.
    with pytest.raises(TypeError):
        Observation(np.ones(2))
    prior = DenseGaussian(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="length 3, expected 2"):
        kalman_step_dense(prior, Observation(np.ones(3), 0.0))
    broken = DenseGaussian(np.zeros(1), -np.eye(1))
    with pytest.raises(np.linalg.LinAlgError):
        kalman_step_dense(broken, Observation(np.ones(1), 0.0))


def test_kalman_steps_skip_the_constructor_and_keep_its_bits(monkeypatch):
    """50 steps at d = 100 run no ``DenseGaussian.__post_init__``, keep the
    covariance exactly symmetric, and match, bit for bit, the steps with
    every output rebuilt through the public constructor. A downdate that
    overflows still raises."""
    rng = np.random.default_rng(31)
    d = 100
    X, y = rng.standard_normal((50, d)), rng.standard_normal(50)
    obs = [Observation(x, label) for x, label in zip(X, y)]
    prior = DenseGaussian(np.zeros(d), 4.0 * np.eye(d))
    rebuilt = [prior]
    for o in obs:
        out = kalman_step_dense(rebuilt[-1], o)
        rebuilt.append(DenseGaussian(out.mu, out.cov))
    calls = []
    original = DenseGaussian.__post_init__
    monkeypatch.setattr(DenseGaussian, "__post_init__",
                        lambda self: calls.append(self) or original(self))
    state = prior
    for o, expected in zip(obs, rebuilt[1:]):
        state = kalman_step_dense(state, o)
        assert np.array_equal(state.cov, state.cov.T)
        assert np.array_equal(state.mu, expected.mu) and np.array_equal(state.cov, expected.cov)
    assert calls == []
    huge = DenseGaussian(np.zeros(2), np.diag([1e300, 1.0]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        kalman_step_dense(huge, Observation(np.array([1.0, 1e-200]), 0.0))


# ---------------------------------------------------------- linear filter


def test_linear_zero_input_is_identity():
    bel = belief_from_prior(6, 2, seed=3, mu=np.arange(6.0))
    out = lrvga_linear_step(bel, Observation(np.zeros(6), 1.5), inner_loops=4)
    assert np.allclose(out.mu, bel.mu, atol=1e-12)
    assert np.allclose(out.prec.W, bel.prec.W, rtol=1e-10, atol=1e-12)
    assert np.allclose(out.prec.psi, bel.prec.psi, rtol=1e-10, atol=1e-12)


def test_linear_single_step_hand_computation():
    """One inner loop at d=2, p=1, written out in dense arithmetic."""
    W = np.array([[0.6], [0.4]])
    psi = np.array([0.8, 1.2])
    mu = np.array([0.1, -0.2])
    x = np.array([1.0, 0.5])
    y = 0.7
    bel = GaussianBelief(mu, FaPrecision(W, psi))

    T = W @ W.T + np.diag(psi) + np.outer(x, x)
    M = 1.0 + float(W[:, 0] @ (W[:, 0] / psi))
    V = T @ (W / psi[:, None])
    B = 1.0 + float(W[:, 0] @ (V[:, 0] / psi)) / M
    W1 = V / B
    psi1 = np.diag(T) - (W1[:, 0] / M) * V[:, 0]
    # The mean moves along the pre-update gain: the exact conjugate update
    # at the carried precision.
    P0 = np.linalg.inv(W @ W.T + np.diag(psi))
    gain = P0 @ x
    mu1 = mu + gain * (y - float(x @ mu)) / (1.0 + float(x @ gain))

    obs = Observation(x, y)
    out = lrvga_linear_step(bel, obs, inner_loops=1)
    assert np.allclose(out.prec.W, W1, rtol=1e-12, atol=1e-14)
    assert np.allclose(out.prec.psi, psi1, rtol=1e-12, atol=1e-14)
    kalman = kalman_step_dense(DenseGaussian(mu, P0), obs)
    assert np.allclose(mu1, kalman.mu, rtol=1e-12, atol=1e-14)
    for loops in (1, 3):
        out = lrvga_linear_step(bel, obs, inner_loops=loops)
        assert np.allclose(out.mu, mu1, rtol=1e-12, atol=1e-14)


def test_default_linear_step_runs_no_validation_and_forms_one_gram(monkeypatch):
    """Structure of one default step (d=100, p=5, 3 loops) from a prior
    built by the public constructor, no timing: neither constructor's
    validation runs, and the latent Gram is formed once, for the
    prior's gain. The first cycle reuses it; every cycle hands the next
    the gram of its output."""
    belief = belief_from_prior(100, 5, eps=0.01, seed=4)
    x = np.random.default_rng(4).standard_normal(100) / 10.0
    counts = _count_step_calls(monkeypatch, lambda: lrvga_linear_step(belief, Observation(x, 0.5)))
    assert counts == {"FaPrecision.__post_init__": 0, "GaussianBelief.__post_init__": 0,
                      "em_fixed_point_step": 2, "latent_gram": 1, "spd_solve": 0}


def test_default_linear_step_makes_no_spd_solve_and_no_lu(monkeypatch):
    """Same step as above: it calls no ``spd_solve``, since the gain's
    M^-1 and every EM cycle's solve take one raw Cholesky solve, and no
    cycle inverts by LU."""
    belief = belief_from_prior(100, 5, eps=0.01, seed=4)
    x = np.random.default_rng(4).standard_normal(100) / 10.0
    dgesv_calls = []
    dgesv = lapack.dgesv
    monkeypatch.setattr(lapack, "dgesv", lambda *a, **kw: dgesv_calls.append(1) or dgesv(*a, **kw))
    counts = _count_step_calls(monkeypatch, lambda: lrvga_linear_step(belief, Observation(x, 0.5)))
    assert counts["spd_solve"] == 0
    assert dgesv_calls == []


def test_default_linear_step_makes_one_lapack_call_per_solve(monkeypatch):
    """A default step at d = 100, p = 5 from a belief fresh from a previous
    step, whose M^-1 is not yet formed, solves three times: once for that
    M^-1 and once in each of its two general cycles. Each solve is one
    ``dposv`` call, and no step makes a dpotrf or dpotrs call."""
    belief = belief_from_prior(100, 5, eps=0.01, seed=4)
    xs = np.random.default_rng(4).standard_normal((2, 100)) / 10.0
    belief = lrvga_linear_step(belief, Observation(xs[0], 0.5))
    assert "latent_inverse" not in belief.prec.__dict__
    calls = {name: 0 for name in ("dposv", "dpotrf", "dpotrs")}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(lapack, name, counting(name, getattr(lapack, name)))
    lrvga_linear_step(belief, Observation(xs[1], -0.3))
    assert calls == {"dposv": 3, "dpotrf": 0, "dpotrs": 0}


def test_default_step_at_scale_reads_no_gain_gram_or_cycle(monkeypatch):
    """A default step at d = 10^4 runs one EM cycle. After a warm-up step,
    which hands its gram over, the step takes its gain and that cycle in
    two passes over W: no ``woodbury_apply``, ``latent_gram`` or
    ``em_fixed_point_step`` call, and one ``spd_solve`` at most, the
    carried state's ``latent_inverse``."""
    import lrvga.em
    import lrvga.factor
    import lrvga.sampler

    d, p = 10_000, 10
    rng = np.random.default_rng(12)
    belief = belief_from_prior(d, p, eps=0.01, seed=12)
    xs = rng.standard_normal((2, d)) / np.sqrt(d)
    belief = lrvga_linear_step(belief, Observation(xs[0], 0.5))
    counts = dict.fromkeys(("woodbury_apply", "latent_gram", "em_fixed_point_step", "spd_solve"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module in (lrvga.filters, lrvga.factor, lrvga.em, lrvga.sampler):
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    out = lrvga_linear_step(belief, Observation(xs[1], -0.3))
    assert counts["woodbury_apply"] == counts["latent_gram"] == counts["em_fixed_point_step"] == 0
    assert counts["spd_solve"] <= 1
    assert np.all(np.isfinite(out.mu))


_STEP_CALLS = (
    (FaPrecision, "__post_init__"),
    (GaussianBelief, "__post_init__"),
    (lrvga.em, "em_fixed_point_step"),
    *((module, name) for module in (lrvga.factor, lrvga.em, lrvga.sampler)
      for name in ("latent_gram", "spd_solve")),
)


def _count_step_calls(monkeypatch, step, calls=_STEP_CALLS):
    """Run ``step()`` with every entry of ``calls`` counted; return the
    counts by name, summed over the modules that share one."""
    counts = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for owner, name in calls:
        key = f"{owner.__name__}.{name}" if name.startswith("__") else name
        counts[key] = 0
        monkeypatch.setattr(owner, name, counting(key, getattr(owner, name)))
    step()
    return counts


def test_warmed_up_default_steps_form_no_gram_solve_or_validation(monkeypatch):
    """After a warm-up step, whose output carries its gram, a default
    linear step at d = 100, p = 5 forms no latent Gram matrix, makes no
    ``spd_solve`` and runs neither constructor's validation. Its general
    EM cycles 2-3 go through ``lrvga.em.em_fixed_point_step``, exactly
    twice, where the benchmark's tracer sees them. A default sampled
    logistic step at d = 20, p = 10 with K = 10 draws in index space: it
    builds no ``EnsembleSampler`` and calls no ``ggn_block``, and otherwise
    counts as the linear step does."""
    belief = belief_from_prior(100, 5, eps=0.01, seed=4)
    xs = np.random.default_rng(4).standard_normal((2, 100)) / 10.0
    belief = lrvga_linear_step(belief, Observation(xs[0], 0.5))
    counts = _count_step_calls(monkeypatch, lambda: lrvga_linear_step(belief, Observation(xs[1], -0.3)))
    assert counts == {"FaPrecision.__post_init__": 0, "GaussianBelief.__post_init__": 0,
                      "em_fixed_point_step": 2, "latent_gram": 0, "spd_solve": 0}
    monkeypatch.undo()

    belief = belief_from_prior(20, 10, seed=5)
    x = np.random.default_rng(5).standard_normal(20) / np.sqrt(20)
    belief = lrvga_nonlinear_step(belief, Observation(x, 1.0), LogisticModel(), k=10, rng=6)
    calls = (*_STEP_CALLS, (lrvga.sampler.EnsembleSampler, "__init__"), (lrvga.filters, "ggn_block"))
    counts = _count_step_calls(
        monkeypatch,
        lambda: lrvga_nonlinear_step(belief, Observation(x, 0.0), LogisticModel(), k=10, rng=7),
        calls)
    assert counts == {"FaPrecision.__post_init__": 0, "GaussianBelief.__post_init__": 0,
                      "em_fixed_point_step": 2, "latent_gram": 0, "spd_solve": 0,
                      "EnsembleSampler.__init__": 0, "ggn_block": 0}


def _numpy_frames_entered(step):
    """Run ``step()`` under ``sys.setprofile``; return (file, function) of
    every Python frame it enters whose file lies under numpy's package
    directory."""
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            entered.append((frame.f_code.co_filename, frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        step()
    finally:
        sys.setprofile(previous)
    return entered


def test_warmed_up_default_steps_enter_no_numpy_python_frame():
    """After a warm-up step, a default linear step at d = 100, p = 5, a
    logistic step at d = 20, p = 10 and a sampled logistic step at K = 10
    call numpy only through C entry points: whole-array products by
    ``ndarray.dot``, row dots by the C einsum and reductions by ufuncs.
    ``np.dot``'s dispatch, ``np.einsum``'s wrapper, ``np.count_nonzero``
    or ``ndarray.all`` would each enter a numpy Python frame. The
    observations and the generator are built before the profiled step."""
    belief = belief_from_prior(100, 5, eps=0.01, seed=4)
    xs = np.random.default_rng(4).standard_normal((2, 100)) / 10.0
    belief = lrvga_linear_step(belief, Observation(xs[0], 0.5))
    obs = Observation(xs[1], -0.3)
    assert _numpy_frames_entered(lambda: lrvga_linear_step(belief, obs)) == []

    x = np.random.default_rng(5).standard_normal(20) / np.sqrt(20)
    first, second = Observation(x, 1.0), Observation(x, 0.0)
    belief = lrvga_logistic_step(belief_from_prior(20, 10, seed=5), first)
    assert _numpy_frames_entered(lambda: lrvga_logistic_step(belief, second)) == []

    belief = lrvga_nonlinear_step(belief_from_prior(20, 10, seed=5), first, LogisticModel(), k=10, rng=6)
    rng = np.random.default_rng(7)
    step = lambda: lrvga_nonlinear_step(belief, second, LogisticModel(), k=10, rng=rng)  # noqa: E731
    assert _numpy_frames_entered(step) == []


def test_boundary_checks_enter_no_numpy_python_frame():
    """At d = 100, p = 5, building an ``Observation``, a ``FaPrecision``
    with its first ``gram``, a ``GaussianBelief`` and a ``DenseGaussian``,
    and a first ``woodbury_apply`` on a new precision, which forms its
    latent inverse, check their inputs by ufunc reductions only:
    ``np.all``, ``np.any``, ``ndarray.all`` or ``np.allclose`` would each
    enter a numpy Python frame."""
    rng = np.random.default_rng(8)
    x, mu = rng.standard_normal(100), rng.standard_normal(100)
    W, psi = rng.standard_normal((100, 5)), rng.uniform(0.5, 2.0, 100)
    fa = FaPrecision(W, psi)
    fa.gram  # builds the cached identity(5), by np.eye, outside the profile
    cov = fa_dense_inverse(fa)
    builds = {
        "Observation": lambda: Observation(x, 0.3),
        "FaPrecision": lambda: FaPrecision(W, psi).gram,
        "GaussianBelief": lambda: GaussianBelief(mu, fa),
        "DenseGaussian": lambda: DenseGaussian(mu, cov),
        "woodbury_apply": lambda: woodbury_apply(FaPrecision(W, psi), x),
    }
    assert {name: _numpy_frames_entered(build) for name, build in builds.items()} == dict.fromkeys(
        builds, [])


@pytest.mark.parametrize("scale", [0.5, 4.0])
def test_dense_gaussian_symmetry_tolerance_edge(scale):
    """``cov`` is accepted while |cov - cov^T| is at most 1e-8 times its
    largest entry, or 1e-8 if that entry is below 1, and is symmetrised;
    the next float above that tolerance is rejected."""
    tol = 1e-8 * max(1.0, scale)
    cov = np.diag([scale, scale / 2.0])
    cov[1, 0] = tol
    inside = DenseGaussian(np.zeros(2), cov)
    assert inside.cov[0, 1] == inside.cov[1, 0] == tol / 2.0
    cov[1, 0] = np.nextafter(tol, np.inf)
    with pytest.raises(ValueError, match="cov must be symmetric"):
        DenseGaussian(np.zeros(2), cov)
    with pytest.raises(ValueError, match="non-finite entries"):
        DenseGaussian(np.zeros(2), np.diag([scale, np.nan]))


class _ConstantResidual:
    """A single-index model with no curvature and the residual r at any
    index draws."""

    def __init__(self, r):
        self.r = r

    def index_moments(self, z, y):
        return 0.0, self.r


def _overflowing_step(kind, d):
    """A step at dimension d whose new mean overflows, and nothing else.

    * linear: psi is 1e-10 on the last three coordinates, where x sits, and
      y = 1e306, so P_{t-1} x r is infinite there;
    * logistic: the residual is at most 1, so the mean starts at the
      largest float on coordinate 0, where psi = 1e-300 makes
      Psi^-1 x = 1e293, and coordinate 1 drives x.mu far below 0 so that
      r = 1. At this scale the scalar solve warns that it hit its cap;
    * nonlinear: a model with no curvature whose residual is 1e308, so
      that the mean's step r P_{t-1} x is near 5e306 on coordinate 0, where
      the mean starts at the largest float.
    """
    rng = np.random.default_rng(30)
    W, psi, mu, x = rng.standard_normal((d, 2)) / 10.0, np.ones(d), np.zeros(d), np.zeros(d)
    top = np.finfo(float).max
    if kind == "linear":
        psi[-3:], x[-3:] = 1e-10, 1e-5
        return lambda: lrvga_linear_step(GaussianBelief(mu, FaPrecision(W, psi)), Observation(x, 1e306))
    if kind == "logistic":
        W[0], psi[0], mu[:2], x[:2] = 0.0, 1e-300, (top, -1e303), (1e-7, 1.0)
        return lambda: lrvga_logistic_step(GaussianBelief(mu, FaPrecision(W, psi)), Observation(x, 1.0))
    mu[0] = top
    return lambda: lrvga_nonlinear_step(
        GaussianBelief(mu, FaPrecision(W, psi)), Observation(np.ones(d) / d, 1.0),
        _ConstantResidual(1e308), k=3, rng=0)


def _step_from_mean(kind, mu):
    """A default step from the mean ``mu`` whose input is zero on the two
    coordinates that carry ``mu``'s large entries, so they stay large."""
    d = mu.shape[0]
    belief = GaussianBelief(mu, init_isotropic_prior(d, 2, 1.0, rng=31))
    x = np.random.default_rng(31).standard_normal(d) / np.sqrt(d)
    x[:2] = 0.0
    if kind == "linear":
        return lambda: lrvga_linear_step(belief, Observation(x, 0.5))
    if kind == "logistic":
        return lambda: lrvga_logistic_step(belief, Observation(x, 1.0))
    return lambda: lrvga_nonlinear_step(belief, Observation(x, 1.0), LogisticModel(), k=10, rng=0)


@pytest.mark.parametrize("kind", ["linear", "logistic", "nonlinear"])
def test_new_mean_errors_at_small_dimension(kind):
    """Each filter step at d = 20, one block, raises what a check of the
    new belief at the public boundary raises: ValueError("non-finite
    mean") for a mean that overflows, and DivergenceError for a finite
    mean whose norm is above 1e8 or whose squared norm overflows, with
    entries near 1e200."""
    d = 20
    mu = np.zeros(d)
    mu[0] = 2e8
    with pytest.raises(DivergenceError, match="mean norm 2.0"):
        _step_from_mean(kind, mu)()
    with np.errstate(over="ignore", invalid="ignore"):
        mu[:2] = 1e200
        with pytest.raises(DivergenceError, match="mean norm inf"):
            _step_from_mean(kind, mu)()
        with warnings.catch_warnings(), pytest.raises(ValueError, match="non-finite mean"):
            warnings.simplefilter("ignore", RuntimeWarning)
            _overflowing_step(kind, d)()


def _linear_rule(a0, nu0, y):
    return 1.0, (y - a0) / (1.0 + nu0)


def _logistic_rule(a0, nu0, y):
    sol = _solve_scalar_system(a0, nu0, y)
    return _sigmoid_weight(sol.a, sol.nu), y - float(expit(sol.k * sol.a))


GLM_STEPS = {"linear": (lrvga_linear_step, _linear_rule),
             "logistic": (lrvga_logistic_step, _logistic_rule)}


def _relerr(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("loops", [1, 3])
@pytest.mark.parametrize("p", [1, 5])
@pytest.mark.parametrize("d", [100, 2 * _ROW_BLOCK + 37])
@pytest.mark.parametrize("kind", sorted(GLM_STEPS))
def test_fused_glm_step_matches_the_two_route_step(kind, d, p, loops):
    """The step that takes its gain and first EM cycle from one reduction
    and one row pass against the oracle that takes them apart and runs
    its EM cycles in the tests' own solve forms, within 1e-12 relative in
    mu, W and psi. At d = 2 _ROW_BLOCK + 37 the row pass walks three
    blocks, the last partial. A one-cycle step hands over the gram of its
    output."""
    _check_fused_glm_step(kind, d, p, loops, "C")


@pytest.mark.parametrize("loops", [1, 3])
@pytest.mark.parametrize("kind", sorted(GLM_STEPS))
def test_fused_glm_step_matches_the_two_route_step_on_a_column_major_belief(kind, loops):
    """The same bounds when the belief's W is F-ordered, as the row pass
    writes it, over three row blocks."""
    _check_fused_glm_step(kind, 2 * _ROW_BLOCK + 37, 5, loops, "F")


def _check_fused_glm_step(kind, d, p, loops, order):
    step, rule = GLM_STEPS[kind]
    rng = np.random.default_rng(d + 10 * p + loops)
    W = np.asarray(rng.standard_normal((d, p)) / 3.0, order=order)
    fa = FaPrecision(W, rng.uniform(0.5, 2.0, d))
    belief = GaussianBelief(rng.standard_normal(d) / np.sqrt(d), fa)
    y = 1.0 if kind == "logistic" else float(rng.standard_normal())
    obs = Observation(2.0 * rng.standard_normal(d) / np.sqrt(d), y)
    out = step(belief, obs, inner_loops=loops)
    ref = two_route_glm_step(belief, obs, rule, loops)
    assert _relerr(out.mu, ref.mu) <= 1e-12
    assert _relerr(out.prec.W, ref.prec.W) <= 1e-12
    assert _relerr(out.prec.psi, ref.prec.psi) <= 1e-12
    if loops == 1:
        assert "gram" in vars(out.prec)
        fresh = latent_gram(out.prec)
        assert _relerr(out.prec.gram, fresh) <= 1e-12
        if d <= _ROW_BLOCK:
            assert np.array_equal(out.prec.gram, fresh)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("loops", [1, 3])
@pytest.mark.parametrize("kind", sorted(GLM_STEPS))
def test_glm_step_does_not_depend_on_the_row_block_split(monkeypatch, kind, loops, order):
    """At d = 2 _ROW_BLOCK + 37 the rank-one pass walks three row blocks.
    Its d-length work (g = x - W A, psi_new and the mean) is done on whole
    arrays, and its d x p work block by block, so a one-pass step's mu, W
    and psi equal, bit for bit, those of the same step made in one block.
    Only the gram, summed block by block, may round differently: within
    1e-12 relative. The general cycles of a three-pass step read that
    gram, so there the mean stays bit-identical, as it is written by the
    first pass, and W and psi agree within 1e-12 relative."""
    step, _ = GLM_STEPS[kind]
    d, p = 2 * _ROW_BLOCK + 37, 5
    rng = np.random.default_rng(loops + (order == "F"))
    W = np.asarray(rng.standard_normal((d, p)) / 3.0, order=order)
    belief = GaussianBelief(rng.standard_normal(d) / np.sqrt(d),
                            FaPrecision(W, rng.uniform(0.5, 2.0, d)))
    y = 1.0 if kind == "logistic" else float(rng.standard_normal())
    obs = Observation(2.0 * rng.standard_normal(d) / np.sqrt(d), y)
    out = step(belief, obs, inner_loops=loops)
    monkeypatch.setattr(lrvga.em, "_ROW_BLOCK", d)
    ref = step(belief, obs, inner_loops=loops)
    assert np.array_equal(out.mu, ref.mu)
    for a, b in ((out.prec.W, ref.prec.W), (out.prec.psi, ref.prec.psi)):
        assert np.array_equal(a, b) if loops == 1 else _relerr(a, b) <= 1e-12
    assert _relerr(out.prec.gram, ref.prec.gram) <= 1e-12


def test_mean_overflow_in_the_last_partial_block_raises_as_the_two_route_step():
    """x lives in the last, partial row block, where psi is small, so
    P_{t-1} x r overflows there and nowhere else. The fused step raises
    what the two-route step raises."""
    d, p, tail = 2 * _ROW_BLOCK + 37, 4, 37
    rng = np.random.default_rng(7)
    psi = np.ones(d)
    psi[-tail:] = 1e-10
    belief = GaussianBelief(np.zeros(d), FaPrecision(rng.standard_normal((d, p)) / 10.0, psi))
    x = np.zeros(d)
    x[-tail:] = 1e-5
    obs = Observation(x, 1e306)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite mean"):
            two_route_glm_step(belief, obs, _linear_rule, 1)
        with pytest.raises(ValueError, match="non-finite mean"):
            lrvga_linear_step(belief, obs)


def test_linear_full_rank_tracks_kalman():
    d, n = 10, 100
    rng = np.random.default_rng(42)
    theta = rng.standard_normal(d)
    bel = belief_from_prior(d, d, sigma0=1.0, eps=0.5, seed=7)
    kal = DenseGaussian(np.zeros(d), fa_dense_inverse(bel.prec))
    worst_mu = worst_prec = 0.0
    for _ in range(n):
        x = rng.standard_normal(d)
        obs = Observation(x, float(x @ theta + rng.standard_normal()))
        bel = lrvga_linear_step(bel, obs, inner_loops=250)
        kal = kalman_step_dense(kal, obs)
        prec_ref = np.linalg.inv(kal.cov)
        worst_mu = max(
            worst_mu, np.linalg.norm(bel.mu - kal.mu) / np.linalg.norm(kal.mu)
        )
        worst_prec = max(
            worst_prec,
            np.linalg.norm(fa_dense_matrix(bel.prec) - prec_ref)
            / np.linalg.norm(prec_ref),
        )
    assert worst_mu < 1e-6
    assert worst_prec < 1e-6


def test_linear_step_requires_label():
    # An unlabelled observation cannot be built, so no step ever sees one.
    with pytest.raises(TypeError):
        Observation(np.ones(3))
    with pytest.raises(TypeError):
        Observation(np.ones(3), None)
    bel = belief_from_prior(3, 1)
    with pytest.raises(ValueError, match="length 2, expected 3"):
        lrvga_linear_step(bel, Observation(np.ones(2), 1.0))


# ------------------------------------------------------------ observation


def test_observation_dense_materialization():
    obs = Observation([1, 2], 0)
    assert obs.x.dtype == float and np.array_equal(obs.x, [1.0, 2.0])
    assert isinstance(obs.y, float) and obs.y == 0.0
    assert Observation(np.ones((1, 3)), 1.0).x.shape == (3,)
    with pytest.raises(ValueError, match="length 2, expected 3"):
        solve_glm_scalars(belief_from_prior(3, 1), obs)


def test_observation_sparse_validation():
    # Inputs are dense only; the checks the sparse form used to share
    # (finite entries, finite label) are made once at construction.
    with pytest.raises(ValueError, match="non-finite input"):
        Observation(np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError, match="non-finite input"):
        Observation(np.array([0.0, np.inf]), 1.0)
    with pytest.raises(ValueError, match="non-finite label"):
        Observation(np.ones(3), np.nan)
    with pytest.raises(ValueError, match="non-finite label"):
        Observation(np.ones(3), -np.inf)


# --------------------------------------------------------- scalar system


def test_glm_scalars_zero_input():
    bel = belief_from_prior(4, 2, seed=2, mu=np.array([1.0, -1.0, 0.5, 0.0]))
    sol = solve_glm_scalars(bel, Observation(np.zeros(4), 1.0))
    assert sol.a == 0.0
    assert sol.nu == 0.0
    assert sol.k == 1.0
    assert sol.newton_converged


@pytest.mark.parametrize("seed", range(12))
def test_glm_scalars_match_bracketing_oracle(seed):
    rng = np.random.default_rng(400 + seed)
    d = int(rng.integers(2, 8))
    bel = belief_from_prior(
        d, int(rng.integers(1, d + 1)),
        sigma0=float(rng.uniform(0.5, 4.0)),
        seed=seed, mu=rng.standard_normal(d),
    )
    x = rng.standard_normal(d) * float(rng.uniform(0.3, 3.0))
    y = float(rng.integers(0, 2))
    sol = solve_glm_scalars(bel, Observation(x, y))

    cov = fa_dense_inverse(bel.prec)
    a0 = float(x @ bel.mu)
    nu0 = float(x @ cov @ x)
    a_ref, nu_ref, k_ref = solve_scalars_bisect(a0, nu0, y)

    assert sol.a == pytest.approx(a_ref, rel=1e-8, abs=1e-10)
    assert sol.nu == pytest.approx(nu_ref, rel=1e-8, abs=1e-10)
    assert sol.k == pytest.approx(k_ref, rel=1e-8)
    assert 0.0 < sol.k <= 1.0
    assert abs(sol.residual_a) < 1e-10
    assert abs(sol.residual_nu) < 1e-10
    assert sol.newton_converged
    # The posterior spread never exceeds the prior spread.
    assert 0.0 <= sol.nu <= nu0


def test_glm_scalars_label_validation():
    bel = belief_from_prior(3, 1)
    with pytest.raises(ValueError):
        solve_glm_scalars(bel, Observation(np.ones(3), 0.5))


def test_public_scalar_solve_sees_the_logistic_step_s_scalars(monkeypatch):
    """``solve_glm_scalars`` and ``lrvga_logistic_step`` take (a0, nu0)
    from one owner, so the (s, r) the step absorbs and moves by follow
    from the public solution bit for bit."""
    d, p = 40, 4
    rng = np.random.default_rng(31)
    fa = FaPrecision(rng.standard_normal((d, p)), rng.uniform(0.5, 2.0, d))
    belief = GaussianBelief(0.3 * rng.standard_normal(d), fa)
    obs = Observation(rng.standard_normal(d), 1.0)
    used = {}
    glm_step = lrvga.filters._glm_step

    def spy(belief, obs, inner_loops, rule, binary=False):
        def spied_rule(a0, nu0, y):
            used["s"], used["r"] = rule(a0, nu0, y)
            return used["s"], used["r"]

        return glm_step(belief, obs, inner_loops, spied_rule, binary)

    monkeypatch.setattr(lrvga.filters, "_glm_step", spy)
    lrvga_logistic_step(belief, obs)
    sol = solve_glm_scalars(belief, obs)
    assert used == {"s": _sigmoid_weight(sol.a, sol.nu), "r": 1.0 - float(expit(sol.k * sol.a))}


def test_scalar_expit_is_scipy_s_bit_for_bit():
    """The scalar solve's ``_expit`` against ``scipy.special.expit`` on
    a grid through both tails, where exp(-z) overflows past z < -709.78
    and underflows past z > 745, plus signed zeros, +-inf and nan."""
    z = np.concatenate((np.linspace(-800.0, 800.0, 64_001),
                        [-745.2, -709.79, -709.78, 709.78, 709.79, 745.2, 1e-300,
                         -0.0, 0.0, np.inf, -np.inf, np.nan]))
    got = np.array([_expit(float(v)) for v in z])
    assert np.array_equal(got.view(np.int64), expit(z).view(np.int64))


def test_glm_scalars_fallback_warns_but_stays_usable(monkeypatch):
    """At a cap of 50 iterations Newton stops 78% away from the root on
    this triple, recorded from the logistic run at sigma0 = 100 (d = p =
    20, n = 200, c = 0, seed 3); it converges in 63."""
    from lrvga.filters import _solve_scalar_system

    monkeypatch.setattr(lrvga.filters, "SCALAR_MAX_ITER", 50)
    with pytest.warns(RuntimeWarning):
        sol = _solve_scalar_system(674.4950645795873, 16866.254001405436, 0.0)
    assert np.isfinite(sol.a) and np.isfinite(sol.nu)
    assert 0.0 < sol.k <= 1.0
    assert not sol.newton_converged


@pytest.mark.parametrize("a0, nu0, y, at_the_root", [
    (-10.10441403330001, 114538.47991308417, 1.0, True),
    (-5.0, 1e8, 1.0, True),
    (674.4950645795873, 16866.254001405436, 0.0, False),
], ids=["short-at-the-root", "short-at-the-root-at-1e8", "capped-far-from-it"])
def test_glm_scalars_fallback_matches_the_bracketing_oracle(a0, nu0, y, at_the_root, monkeypatch):
    """Triples on which Newton stops short at a cap of 50 iterations, two
    recorded from the logistic run at sigma0 = 100 (d = p = 20, n = 200,
    c = 0, seed 3): one where damping stalls within 1e-14 of the root
    after 9 iterations, and one where the cap leaves a 78% error. At
    (-5, 1e8, 1) damping stalls at a residual of 4.9e-5, which the
    rounding of a - a0 - nu0 (y - sigma) allows at nu0 = 1e8. A stall at
    the root counts as converged, with no warning; after a cap the
    bracketed fallback must land on the oracle's root."""
    from lrvga.filters import _solve_scalar_system

    monkeypatch.setattr(lrvga.filters, "SCALAR_MAX_ITER", 50)
    if at_the_root:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = _solve_scalar_system(a0, nu0, y)
    else:
        with pytest.warns(RuntimeWarning, match="bracketing"):
            sol = _solve_scalar_system(a0, nu0, y)
    a_ref, nu_ref, k_ref = solve_scalars_bisect(a0, nu0, y)
    assert sol.newton_converged == at_the_root
    assert sol.a == pytest.approx(a_ref, rel=1e-10)
    assert sol.nu == pytest.approx(nu_ref, rel=1e-10)
    assert sol.k == pytest.approx(k_ref, rel=1e-10)


def test_glm_scalars_converge_by_newton_past_fifty_iterations():
    """A triple from the logistic run at d = 10^4 (c = 0, n = 1000,
    p = 5, seed 3), far from the root at nu0 near 1e5: damped Newton
    needs more than 50 iterations, within ``SCALAR_MAX_ITER``, and lands
    on the oracle's root with no warning and no bracketing."""
    from lrvga.filters import SCALAR_MAX_ITER, _solve_scalar_system

    a0, nu0, y = -106.42678732591637, 106066.79903776475, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = _solve_scalar_system(a0, nu0, y)
    assert sol.newton_converged and 50 < sol.iterations < SCALAR_MAX_ITER
    a_ref, nu_ref, k_ref = solve_scalars_bisect(a0, nu0, y)
    assert sol.a == pytest.approx(a_ref, rel=1e-10)
    assert sol.nu == pytest.approx(nu_ref, rel=1e-10)
    assert sol.k == pytest.approx(k_ref, rel=1e-10)


@pytest.mark.parametrize("a0, nu0", [(np.nan, 1e8), (0.0, np.inf)])
def test_glm_scalars_without_a_finite_root_raise_divergence(a0, nu0):
    from lrvga.filters import _solve_scalar_system

    with pytest.warns(RuntimeWarning, match="bracketing"), pytest.raises(DivergenceError):
        _solve_scalar_system(a0, nu0, 1.0)


# --------------------------------------------------------- logistic filter


def test_logistic_zero_input_is_identity():
    bel = belief_from_prior(5, 2, seed=4, mu=np.linspace(0, 1, 5))
    out = lrvga_logistic_step(bel, Observation(np.zeros(5), 1.0), inner_loops=3)
    assert np.allclose(out.mu, bel.mu, atol=1e-12)
    assert np.allclose(out.prec.W, bel.prec.W, rtol=1e-10, atol=1e-12)
    assert np.allclose(out.prec.psi, bel.prec.psi, rtol=1e-10, atol=1e-12)


def test_logistic_full_rank_tracks_dense_oracle():
    d, n = 5, 50
    rng = np.random.default_rng(2)
    theta = rng.standard_normal(d)
    bel = belief_from_prior(d, d, sigma0=1.0, eps=0.5, seed=3)
    mu_ref = np.zeros(d)
    prec_ref = fa_dense_matrix(bel.prec)
    worst_mu = worst_prec = 0.0
    for _ in range(n):
        x = rng.standard_normal(d)
        y = float(rng.random() < expit(x @ theta))
        bel = lrvga_logistic_step(bel, Observation(x, y), inner_loops=250)
        mu_ref, prec_ref = dense_logistic_step(mu_ref, prec_ref, x, y)
        worst_mu = max(
            worst_mu,
            np.linalg.norm(bel.mu - mu_ref) / max(np.linalg.norm(mu_ref), 1e-12),
        )
        worst_prec = max(
            worst_prec,
            np.linalg.norm(fa_dense_matrix(bel.prec) - prec_ref)
            / np.linalg.norm(prec_ref),
        )
    assert worst_mu < 1e-4
    assert worst_prec < 1e-4


def test_logistic_label_validation():
    bel = belief_from_prior(3, 1)
    with pytest.raises(ValueError):
        lrvga_logistic_step(bel, Observation(np.ones(3), 2.0))


@pytest.mark.parametrize("scheme", NONLINEAR_SCHEMES)
@pytest.mark.parametrize("route", ["index", "parameter-block"])
def test_sampled_logistic_step_validates_the_label(route, scheme):
    """A label of 0.5 ran silently through the sampled step, while the
    closed-form logistic step refused it. The parameter-block route is the
    oracle step on the logistic model with its index form hidden."""
    step, model = ((lrvga_nonlinear_step, LogisticModel()) if route == "index"
                   else (block_nonlinear_step, DrawBlockModel(LogisticModel())))
    bel = belief_from_prior(3, 1)
    with pytest.raises(ValueError, match="logistic labels must be 0 or 1"):
        step(bel, Observation(np.ones(3), 0.5), model, k=4, scheme=scheme, rng=0)


@pytest.mark.parametrize("step_kind", ["linear", "logistic"])
def test_precision_monotonicity_at_full_rank(step_kind):
    d, n = 6, 25
    rng = np.random.default_rng(13)
    theta = rng.standard_normal(d)
    bel = belief_from_prior(d, d, sigma0=2.0, eps=0.5, seed=1)
    probes = rng.standard_normal((d, 12))
    for _ in range(n):
        x = rng.standard_normal(d)
        if step_kind == "linear":
            obs = Observation(x, float(x @ theta + rng.standard_normal()))
            nxt = lrvga_linear_step(bel, obs, inner_loops=150)
        else:
            obs = Observation(x, float(rng.random() < expit(x @ theta)))
            nxt = lrvga_logistic_step(bel, obs, inner_loops=150)
        before = np.einsum("dk,dk->k", probes, fa_dense_matrix(bel.prec) @ probes)
        after = np.einsum("dk,dk->k", probes, fa_dense_matrix(nxt.prec) @ probes)
        assert np.all(after >= before - 1e-6)
        bel = nxt


# ------------------------------------------------------- divergence guard


def test_mean_norm_guard_raises():
    d = 3
    mu = np.array([2e8, 0.0, 0.0])
    bel = belief_from_prior(d, 1, seed=0, mu=mu)
    # The update only touches the second coordinate, so the oversized
    # mean survives the step and trips the guard.
    with pytest.raises(DivergenceError):
        lrvga_linear_step(bel, Observation(np.array([0.0, 1.0, 0.0]), 0.5))


def test_psi_floor_guard_raises():
    fa = FaPrecision(np.ones((10, 1)), np.full(10, 1e-12))
    with pytest.raises(DivergenceError):
        _checked(GaussianBelief(np.zeros(10), fa))
    # One floored entry out of ten stays under the 10% threshold.
    psi = np.full(10, 1.0)
    psi[0] = 1e-12
    ok = _checked(GaussianBelief(np.zeros(10), FaPrecision(np.ones((10, 1)), psi)))
    assert ok is not None
    # Two out of ten are over it, and the message names the share.
    psi[1] = PSI_FLOOR
    with pytest.raises(DivergenceError, match="20% of the diagonal"):
        _checked(GaussianBelief(np.zeros(10), FaPrecision(np.ones((10, 1)), psi)))
    # A least entry just above the floor is no floored entry at all.
    psi = np.full(10, np.nextafter(PSI_FLOOR, 1.0))
    ok = _checked(GaussianBelief(np.zeros(10), FaPrecision(np.ones((10, 1)), psi)))
    assert ok is not None


# ----------------------------------------------------------------- GGN


def test_ggn_outer_product_is_sampled_fisher():
    rng = np.random.default_rng(22)
    d, k = 6, 40
    x = rng.standard_normal(d)
    thetas = rng.standard_normal((d, k))
    block = ggn_block(DrawBlockModel(LogisticModel()), x, thetas)
    fisher = np.zeros((d, d))
    for i in range(k):
        s = expit(float(x @ thetas[:, i]))
        fisher += s * (1.0 - s) * np.outer(x, x)
    fisher /= k
    assert np.allclose(block @ block.T, fisher, rtol=1e-12, atol=1e-14)


def test_ggn_exact_for_logistic_at_fixed_parameter():
    # At a single draw, the reconstruction equals the analytic expected
    # Hessian of the Bernoulli log-likelihood at that parameter.
    rng = np.random.default_rng(23)
    d = 8
    x = rng.standard_normal(d)
    theta = rng.standard_normal(d)
    block = ggn_block(DrawBlockModel(LogisticModel()), x, theta[:, None])
    s = expit(float(x @ theta))
    assert np.allclose(block @ block.T, s * (1 - s) * np.outer(x, x), rtol=1e-12)


def test_ggn_linear_model_ignores_samples():
    rng = np.random.default_rng(24)
    d, k = 5, 7
    x = rng.standard_normal(d)
    block = ggn_block(LinearGaussianModel(), x, rng.standard_normal((d, k)))
    assert np.allclose(block @ block.T, np.outer(x, x), rtol=1e-12)
    with pytest.raises(ValueError):
        ggn_block(LinearGaussianModel(), x, np.empty((d, 0)))
    with pytest.raises(ValueError):  # one draw is a (d, 1) block, not a (d,) vector
        ggn_block(LinearGaussianModel(), x, rng.standard_normal(d))


@pytest.mark.parametrize("scheme", NONLINEAR_SCHEMES)
@pytest.mark.parametrize("k", [1, 10])
def test_one_column_logistic_root_matches_the_per_draw_path(scheme, k):
    """On the oracle's path of (d, K) parameter blocks, the logistic model
    folds the K draws into one curvature column; a model with one column
    per draw and a per-draw gradient loop gives the same step to rounding.
    The logistic model is wrapped so that it shows no single-index form."""
    d = 8
    rng = np.random.default_rng(25)
    bel = belief_from_prior(d, 3, seed=12, mu=0.3 * rng.standard_normal(d))
    obs = Observation(rng.standard_normal(d), 1.0)
    a, b = (
        block_nonlinear_step(bel, obs, model, k=k, inner_loops=3, scheme=scheme, rng=4)
        for model in (DrawBlockModel(LogisticModel()), PerDrawLogisticModel())
    )
    for u, v in ((a.mu, b.mu), (a.prec.W, b.prec.W), (a.prec.psi, b.prec.psi)):
        assert np.linalg.norm(u - v) <= 1e-12 * np.linalg.norm(v)


class _ReplayedNormals(np.random.Generator):
    """A generator whose ``standard_normal(k)`` returns the given (k,)
    blocks in turn."""

    def __init__(self, blocks):
        super().__init__(np.random.PCG64(0))
        self.blocks = list(blocks)

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        block = self.blocks.pop(0)
        assert block.shape == (size,)
        return block


@pytest.mark.parametrize("scheme", NONLINEAR_SCHEMES)
@pytest.mark.parametrize("k", [1, 10])
def test_index_draws_replay_the_parameter_block_path(scheme, k):
    """The single-index route is the (d, K) path with the draws taken in
    index space. The oracle's parameter-block step runs on the logistic
    model with its index form hidden and records z = x.theta at each stage;
    fed the normals that map to those z under the index route's scalars,
    here from dense inverses, the index route gives the same step. Stage
    one's index is N(a0, nu0) with a0 = x.mu and nu0 = x^T P x; stage
    two's is N(a_hat, nu_hat) under the stage-one precision P_hat, whose
    mean mu + r1 P_hat x is the extrapolated one."""
    d = 8
    rng = np.random.default_rng(26)
    bel = belief_from_prior(d, 3, seed=13, mu=0.3 * rng.standard_normal(d))
    x = rng.standard_normal(d)
    obs = Observation(x, 1.0)
    blocks = DrawBlockModel(LogisticModel())
    ref = block_nonlinear_step(bel, obs, blocks, k=k, scheme=scheme, rng=5)

    z1 = blocks.indices[0]
    cov = fa_dense_inverse(bel.prec)
    a0, nu0 = x @ bel.mu, x @ cov @ x
    normals = [(z1 - a0) / np.sqrt(nu0)]
    if scheme != "explicit":
        s1 = expit(z1)
        prec_hat = lrvga.em.recursive_em_update(bel.prec, x[:, None] * np.sqrt(np.mean(s1 * (1 - s1))))
        h = fa_dense_inverse(prec_hat) @ x
        a_hat, nu_hat = a0 + np.mean(1.0 - s1) * (x @ h), x @ h
        normals.append((blocks.indices[1] - a_hat) / np.sqrt(nu_hat))
    replay = _ReplayedNormals(normals)
    out = lrvga_nonlinear_step(bel, obs, LogisticModel(), k=k, scheme=scheme, rng=replay)
    assert replay.blocks == []
    for u, v in ((out.mu, ref.mu), (out.prec.W, ref.prec.W), (out.prec.psi, ref.prec.psi)):
        assert np.linalg.norm(u - v) <= 1e-10 * np.linalg.norm(v)


# ------------------------------------------------------- nonlinear filter


def test_nonlinear_constant_hessian_makes_extra_pass_idempotent():
    bel = belief_from_prior(5, 2, seed=6, mu=np.full(5, 0.1))
    obs = Observation(np.array([1.0, -0.5, 0.2, 0.0, 0.7]), 0.4)
    full = lrvga_nonlinear_step(
        bel, obs, LinearGaussianModel(), k=4,
        inner_loops=3, scheme="mirror-prox-full", rng=5,
    )
    explicit = lrvga_nonlinear_step(
        bel, obs, LinearGaussianModel(), k=4,
        inner_loops=3, scheme="explicit", rng=5,
    )
    # Same curvature block both times, so the precision passes coincide.
    assert np.array_equal(full.prec.W, explicit.prec.W)
    assert np.array_equal(full.prec.psi, explicit.prec.psi)


def test_nonlinear_schemes_run_and_differ_in_means():
    bel = belief_from_prior(4, 2, seed=8)
    obs = Observation(np.array([1.0, 0.5, -0.3, 0.8]), 1.0)
    outs = {
        scheme: lrvga_nonlinear_step(
            bel, obs, LogisticModel(), k=6,
            inner_loops=3, scheme=scheme, rng=3,
        )
        for scheme in NONLINEAR_SCHEMES
    }
    for out in outs.values():
        assert np.all(np.isfinite(out.mu))
    assert not np.allclose(outs["explicit"].mu, outs["mirror-prox-skip-cov"].mu)


def test_nonlinear_rejects_bad_arguments():
    bel = belief_from_prior(3, 1)
    obs = Observation(np.ones(3), 1.0)
    with pytest.raises(ValueError):
        lrvga_nonlinear_step(bel, obs, LogisticModel(), scheme="implicit")
    with pytest.raises(ValueError):
        lrvga_nonlinear_step(bel, obs, LogisticModel(), k=0)
    with pytest.raises(ValueError, match="length 4, expected 3"):
        lrvga_nonlinear_step(bel, Observation(np.ones(4), 1.0), LogisticModel())
    # A model with only the (d, K) block methods is refused before any draw.
    no_draws = _ReplayedNormals([])
    with pytest.raises(TypeError, match="index_moments"):
        lrvga_nonlinear_step(bel, obs, PerDrawLogisticModel(), rng=no_draws)


def test_nonlinear_step_is_reproducible_under_a_seed():
    bel = belief_from_prior(4, 2, seed=10)
    obs = Observation(np.array([0.5, 1.0, -1.0, 0.2]), 0.0)
    a = lrvga_nonlinear_step(bel, obs, LogisticModel(), rng=77)
    b = lrvga_nonlinear_step(bel, obs, LogisticModel(), rng=77)
    c = lrvga_nonlinear_step(bel, obs, LogisticModel(), rng=78)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.prec.W, b.prec.W)
    assert not np.array_equal(a.mu, c.mu)


def test_nonlinear_large_ensemble_approaches_implicit_update():
    """One extrapolated step lands near the converged implicit update.

    The remaining gap is the one-pass extrapolation bias, which shrinks
    with the update size; the plain explicit step is left clearly
    further away.
    """
    d = 3
    rng = np.random.default_rng(9)
    fa = init_isotropic_prior(d, d, 0.3, eps=0.5, rng=4)
    mu0 = rng.standard_normal(d) * 0.5
    bel = GaussianBelief(mu0, fa)
    x = rng.standard_normal(d)
    y = 1.0
    mu_ref, prec_ref = dense_implicit_logistic_vga(mu0, fa_dense_matrix(fa), x, y)

    def gaps(scheme):
        out = lrvga_nonlinear_step(
            bel, Observation(x, y), LogisticModel(),
            k=50_000, inner_loops=300,
            scheme=scheme, rng=11,
        )
        dmu = np.linalg.norm(out.mu - mu_ref) / np.linalg.norm(mu_ref)
        dprec = np.linalg.norm(fa_dense_matrix(out.prec) - prec_ref) / np.linalg.norm(
            prec_ref
        )
        return dmu, dprec

    mp_mu, mp_prec = gaps("mirror-prox-full")
    ex_mu, _ = gaps("explicit")
    assert mp_mu < 1e-2
    assert mp_prec < 1e-3
    assert ex_mu > 3 * mp_mu


# ------------------------------------------------------------ expectation


def test_expectation_of_a_constant():
    bel = belief_from_prior(4, 2, seed=0)
    assert expectation_by_sampling(lambda t: 3.75, bel, 5, rng=1) == 3.75


def test_expectation_of_a_linear_function_is_unbiased():
    rng = np.random.default_rng(6)
    d = 5
    bel = belief_from_prior(d, 2, seed=2, mu=rng.standard_normal(d))
    x = rng.standard_normal(d)
    k = 20_000
    est = expectation_by_sampling(lambda t: float(x @ t), bel, k, rng=3)
    var = float(x @ fa_dense_inverse(bel.prec) @ x)
    assert abs(est - float(x @ bel.mu)) < 5.0 * np.sqrt(var / k)
    with pytest.raises(ValueError):
        expectation_by_sampling(lambda t: 0.0, bel, 0)
