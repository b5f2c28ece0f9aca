"""Stochastic EM on streamed vectors and iterate averaging."""

import numpy as np
import pytest

import lrvga.em
from lrvga import (
    FaPrecision,
    covariance_fit_kl,
    init_isotropic_prior,
    online_em_gamma,
    online_em_update,
    polyak_ruppert_average,
)
from lrvga.datasets import SyntheticCovSpec, gen_fa_covariance_samples
from lrvga.em import OnlineEmState


def test_gamma_schedule():
    assert online_em_gamma(1) == 1.0
    assert online_em_gamma(32) == pytest.approx(32.0**-0.6)
    assert online_em_gamma(2) > online_em_gamma(3)
    with pytest.raises(ValueError):
        online_em_gamma(0)


def test_state_zeros_validation():
    st = OnlineEmState.zeros(6, 2)
    assert st.s1_diag.shape == (6,)
    assert st.s2.shape == (2, 6)
    assert st.s3.shape == (2, 2)
    with pytest.raises(ValueError):
        OnlineEmState.zeros(3, 4)
    with pytest.raises(ValueError):
        OnlineEmState.zeros(3, 0)


def test_single_update_matches_hand_computation():
    rng = np.random.default_rng(3)
    d, p = 5, 2
    fa = init_isotropic_prior(d, p, 1.0, eps=0.4, rng=1)
    v = rng.standard_normal(d)
    gamma = 0.25
    # Give the accumulators nonzero content so the decay term matters.
    state = OnlineEmState(rng.uniform(0.5, 1.0, d), rng.standard_normal((p, d)), np.eye(p) * 2.0)

    M = np.eye(p) + fa.W.T @ np.diag(1.0 / fa.psi) @ fa.W
    m = np.linalg.solve(M, fa.W.T @ (v / fa.psi))
    s1 = 0.75 * state.s1_diag + gamma * v * v
    s2 = 0.75 * state.s2 + gamma * np.outer(m, v)
    s3 = 0.75 * state.s3 + gamma * (np.linalg.inv(M) + np.outer(m, m))
    W = s2.T @ np.linalg.inv(s3)
    psi = np.maximum(s1 - np.diag(W @ s2), 1e-12)

    new_state, new_fa = online_em_update(state, fa, v, gamma)
    assert np.allclose(new_state.s1_diag, s1, rtol=1e-12)
    assert np.allclose(new_state.s2, s2, rtol=1e-12)
    assert np.allclose(new_state.s3, s3, rtol=1e-12)
    assert np.allclose(new_fa.W, W, rtol=1e-10)
    assert np.allclose(new_fa.psi, psi, rtol=1e-10)


def test_update_reads_the_cached_gram_and_inverse(monkeypatch):
    """One step takes M and M^-1 from the precision's caches, as every
    other recursion does: it forms no gram and calls no ``spd_solve``
    of its own."""
    calls = {"latent_gram": 0, "spd_solve": 0}
    for name in calls:
        def count(*args, _name=name, _f=getattr(lrvga.em, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(lrvga.em, name, count)
    fa = init_isotropic_prior(6, 2, 1.0, eps=0.4, rng=1)
    v = np.random.default_rng(2).standard_normal(6)
    online_em_update(OnlineEmState.zeros(6, 2), fa, v, 0.5)
    assert calls == {"latent_gram": 0, "spd_solve": 0}


def test_update_validation():
    fa = init_isotropic_prior(4, 2, 1.0, rng=0)
    state = OnlineEmState.zeros(4, 2)
    v = np.ones(4)
    with pytest.raises(ValueError):
        online_em_update(state, fa, np.ones(5), 0.5)
    with pytest.raises(ValueError):
        online_em_update(state, fa, np.full(4, np.nan), 0.5)
    with pytest.raises(ValueError):
        online_em_update(state, fa, v, 0.0)
    with pytest.raises(ValueError):
        online_em_update(state, fa, v, 1.5)


def test_stream_fit_improves_and_averaging_helps():
    d, p_true, p = 12, 2, 3
    spec = SyntheticCovSpec(d, p_true, seed=4)
    S = spec.dense_matrix()
    n = 3000
    fa = init_isotropic_prior(d, p, 1.0, eps=0.5, rng=11)
    init_kl = covariance_fit_kl(fa, S)
    state = OnlineEmState.zeros(d, p)
    averaged = None
    for t, v in enumerate(gen_fa_covariance_samples(spec, n, rng=8), start=1):
        state, fa = online_em_update(state, fa, v, online_em_gamma(t))
        if t > n // 2:
            averaged = polyak_ruppert_average(averaged, fa, t - n // 2)
    last_kl = covariance_fit_kl(fa, S)
    avg_kl = covariance_fit_kl(averaged, S)
    assert init_kl > 1.0
    assert last_kl < 0.2
    assert avg_kl < last_kl
    assert avg_kl < 0.05


def test_polyak_average_of_constant_iterates_is_the_iterate():
    d, p = 6, 2
    fa = init_isotropic_prior(d, p, 1.0, rng=5)
    out = None
    for k in range(1, 6):
        out = polyak_ruppert_average(out, fa, k)
    assert np.allclose(out.W, fa.W)
    assert np.allclose(out.psi, fa.psi)


def test_polyak_average_of_two_iterates_is_their_mean():
    d, p = 4, 1
    first = FaPrecision(np.ones((d, p)), np.full(d, 1.0))
    second = FaPrecision(3.0 * np.ones((d, p)), np.full(d, 2.0))
    out = polyak_ruppert_average(polyak_ruppert_average(None, first, 1), second, 2)
    assert np.allclose(out.W, 2.0 * np.ones((d, p)))
    assert np.allclose(out.psi, np.full(d, 1.5))


def test_polyak_average_ramp():
    # Iterates 1, 2, 3 folded in order; the mean is 2.
    d, p = 3, 1
    out = None
    for k in (1, 2, 3):
        iterate = FaPrecision(float(k) * np.ones((d, p)), float(k) * np.ones(d))
        out = polyak_ruppert_average(out, iterate, k)
    assert np.allclose(out.W, 2.0)
    assert np.allclose(out.psi, 2.0)


def test_polyak_average_starts_from_a_c_ordered_copy():
    """The first mean copies the iterate into C order: an online EM
    iterate's W is a transposed solve, and the layout sets the rounding
    of the BLAS products later taken with the average."""
    fa = FaPrecision(np.asfortranarray(np.arange(12.0).reshape(6, 2) + 1.0), np.ones(6))
    assert not fa.W.flags.c_contiguous
    out = polyak_ruppert_average(None, fa, 1)
    assert out.W.flags.c_contiguous
    assert np.array_equal(out.W, fa.W) and np.array_equal(out.psi, fa.psi)
    assert not np.shares_memory(out.W, fa.W) and not np.shares_memory(out.psi, fa.psi)
    with pytest.raises(ValueError):
        polyak_ruppert_average(out, fa, 0)
