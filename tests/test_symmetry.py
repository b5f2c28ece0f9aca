"""Exact symmetries of the filter steps.

A change of units must not change the answer. With inputs x a and the
prior precision's factors W a and psi a^2 (sigma0 / a), the posterior of
theta / a is the old one rescaled, so the steps must return W a, psi a^2
and mu / a; an EM update of W a and psi a^2 by data X a must return its
factors scaled the same way. A power-of-two a scales every float
exactly, so the match is bit for bit. A permutation of the coordinates permutes the posterior;
there the sums run in another order, so the match is to rounding.
"""

import numpy as np
import pytest

from lrvga import (
    FaPrecision,
    OnlineEmState,
    GaussianBelief,
    LogisticModel,
    Observation,
    init_isotropic_prior,
    lrvga_linear_step,
    lrvga_logistic_step,
    lrvga_nonlinear_step,
    online_em_gamma,
    online_em_update,
    recursive_em_update,
)
from lrvga.em import _ROW_BLOCK
from lrvga.filters import NONLINEAR_SCHEMES

SCALES = (2.0**-10, 2.0**10)


def _stream(kind, d, n, seed):
    """n inputs of unit mean squared norm and their linear or logistic labels."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) / np.sqrt(d)
    z = X @ rng.standard_normal(d)
    y = z + rng.standard_normal(n) if kind == "linear" else (rng.random(n) < 1 / (1 + np.exp(-z)))
    return X, y.astype(float)


def _run(step, prior, X, y):
    belief = GaussianBelief(np.zeros(prior.d), prior)
    for x, v in zip(X, y):
        belief = step(belief, Observation(x, v))
    return belief


def _scaled(prior, a):
    return FaPrecision(prior.W * a, prior.psi * a**2)


def _assert_scaled_bits(scaled, base, a):
    assert np.array_equal(scaled.mu * a, base.mu)
    assert np.array_equal(scaled.prec.W / a, base.prec.W)
    assert np.array_equal(scaled.prec.psi / a**2, base.prec.psi)


GLM_STEPS = {"linear": lrvga_linear_step, "logistic": lrvga_logistic_step}


@pytest.mark.parametrize("a", SCALES)
@pytest.mark.parametrize("kind", list(GLM_STEPS))
def test_glm_steps_are_scale_equivariant_bit_for_bit(kind, a):
    """300 default steps at d = 100, p = 5."""
    d, p, n = 100, 5, 300
    X, y = _stream(kind, d, n, seed=21)
    prior = init_isotropic_prior(d, p, 1.0, rng=21)
    base = _run(GLM_STEPS[kind], prior, X, y)
    _assert_scaled_bits(_run(GLM_STEPS[kind], _scaled(prior, a), X * a, y), base, a)


@pytest.mark.parametrize("a", SCALES)
@pytest.mark.parametrize("k", [1, 100])
@pytest.mark.parametrize("scheme", NONLINEAR_SCHEMES)
def test_sampled_steps_are_scale_equivariant_bit_for_bit(scheme, k, a):
    """100 sampled logistic steps at d = 20, p = 10. As in a CLI run, one
    generator draws the prior's factors, then the index draws; both runs
    start it from the same seed, so they see the same normals."""
    d, p, n = 20, 10, 100
    X, y = _stream("logistic", d, n, seed=22)
    model = LogisticModel()
    runs = []
    for scale in (1.0, a):
        rng = np.random.default_rng(22)
        prior = _scaled(init_isotropic_prior(d, p, 1.0, rng=rng), scale)
        runs.append(_run(
            lambda b, o: lrvga_nonlinear_step(b, o, model, k=k, scheme=scheme, rng=rng),
            prior, X * scale, y))
    _assert_scaled_bits(runs[1], runs[0], a)


def _assert_scaled_factors(scaled, base, a):
    assert np.array_equal(scaled.W / a, base.W)
    assert np.array_equal(scaled.psi / a**2, base.psi)


@pytest.mark.parametrize("a", SCALES)
@pytest.mark.parametrize("loops", [1, 3])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("alpha", [1.0, 0.9])
@pytest.mark.parametrize("d", [30, 2 * _ROW_BLOCK + 37])
def test_recursive_em_updates_are_scale_equivariant_bit_for_bit(d, alpha, k, loops, a):
    """Three chained updates by (d, K) blocks at p = 4, from a C-ordered
    prior and then from the F-ordered factors the row pass writes: the
    warm-started rank-K pass at alpha = 1, the closed-form fit at
    alpha = 0.9, each followed by general cycles at 3 loops. At
    d = 2 _ROW_BLOCK + 37 the row pass walks three blocks."""
    rng = np.random.default_rng(d + k + loops)
    prior = FaPrecision(rng.standard_normal((d, 4)) / 3.0, rng.uniform(0.5, 2.0, d))
    blocks = [rng.standard_normal((d, k)) / np.sqrt(d) for _ in range(3)]
    runs = []
    for scale in (1.0, a):
        fa = _scaled(prior, scale)
        for X in blocks:
            fa = recursive_em_update(fa, X * scale, alpha, 0.7, inner_loops=loops)
        runs.append(fa)
    _assert_scaled_factors(runs[1], runs[0], a)


# At gamma = 1 the first online step's psi is v^2 / (1 + m^T M m), as
# small as 3.9e-9 here, so at a = 2^-10 psi a^2 falls under the absolute
# PSI_FLOOR (1e-12) and is clamped; with the floor at 1e-40 the cell
# matches bit for bit. A floor relative to the belief (ROADMAP item 16)
# would make it pass.
_ONLINE_FLOORED = pytest.mark.xfail(
    strict=True, reason="the absolute PSI_FLOOR clamps the first step's psi a^2")


@pytest.mark.parametrize("d, a", [(30, SCALES[0]), (30, SCALES[1]),
                                  pytest.param(2 * _ROW_BLOCK + 37, SCALES[0],
                                               marks=_ONLINE_FLOORED),
                                  (2 * _ROW_BLOCK + 37, SCALES[1])])
def test_online_em_updates_are_scale_equivariant_bit_for_bit(d, a):
    """200 online EM steps at p = 4 on observations v a, from W a and
    psi a^2: the factors come out as W a and psi a^2, and the running
    statistics as s1 a^2, s2 a and s3, each bit for bit."""
    n, p = 200, 4
    rng = np.random.default_rng(d)
    prior = FaPrecision(rng.standard_normal((d, p)) / 3.0, rng.uniform(0.5, 2.0, d))
    V = rng.standard_normal((n, p)) @ rng.standard_normal((p, d)) + rng.standard_normal((n, d))
    runs = []
    for scale in (1.0, a):
        state, fa = OnlineEmState.zeros(d, p), _scaled(prior, scale)
        for t, v in enumerate(V * scale, 1):
            state, fa = online_em_update(state, fa, v, online_em_gamma(t))
        runs.append((state, fa))
    (state_a, fa_a), (state, fa) = runs[1], runs[0]
    _assert_scaled_factors(fa_a, fa, a)
    assert np.array_equal(state_a.s1_diag / a**2, state.s1_diag)
    assert np.array_equal(state_a.s2 / a, state.s2)
    assert np.array_equal(state_a.s3, state.s3)


def _relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("kind", list(GLM_STEPS))
def test_glm_steps_are_permutation_equivariant_to_rounding(kind):
    """300 default steps at d = 100, p = 5 on permuted coordinates match
    the unpermuted run, permuted, to 1e-12 relative in mu, W and psi."""
    d, p, n = 100, 5, 300
    X, y = _stream(kind, d, n, seed=23)
    prior = init_isotropic_prior(d, p, 1.0, rng=23)
    perm = np.random.default_rng(23).permutation(d)
    base = _run(GLM_STEPS[kind], prior, X, y)
    moved = _run(GLM_STEPS[kind], FaPrecision(prior.W[perm], prior.psi[perm]), X[:, perm], y)
    assert _relative_gap(moved.mu, base.mu[perm]) <= 1e-12
    assert _relative_gap(moved.prec.W, base.prec.W[perm]) <= 1e-12
    assert _relative_gap(moved.prec.psi, base.prec.psi[perm]) <= 1e-12
