"""Ensemble sampling from factored precisions."""

import numpy as np
import pytest

from lrvga import FaPrecision
from lrvga.sampler import EnsembleSampler

from oracles import dense_covariance, sampler_consistency_error


def random_fa(rng, d=None, p=None):
    d = d or int(rng.integers(2, 17))
    p = p or int(rng.integers(1, d + 1))
    return FaPrecision(rng.standard_normal((d, p)), rng.uniform(0.2, 3.0, d))


@pytest.mark.parametrize("seed", range(10))
def test_push_through_identity(seed):
    """(I - L W^T) Psi^-1 (I - L W^T)^T + L L^T equals the covariance."""
    rng = np.random.default_rng(seed)
    fa = random_fa(rng)
    L = EnsembleSampler(fa).L
    A = np.eye(fa.d) - L @ fa.W.T
    lhs = A @ np.diag(1.0 / fa.psi) @ A.T + L @ L.T
    assert np.allclose(lhs, dense_covariance(fa.W, fa.psi), rtol=1e-12, atol=1e-13)


def test_consistency_error_is_tiny():
    rng = np.random.default_rng(12)
    for _ in range(5):
        fa = random_fa(rng)
        assert sampler_consistency_error(EnsembleSampler(fa)) < 1e-12


def test_correction_matrix_shape():
    fa = random_fa(np.random.default_rng(1), d=30, p=4)
    sampler = EnsembleSampler(fa)
    assert sampler.L.shape == (30, 4)


def test_empirical_moments_match_the_belief():
    rng = np.random.default_rng(2024)
    fa = random_fa(rng, d=20, p=3)
    mu = rng.standard_normal(20)
    draws = EnsembleSampler(fa, rng=99).draw(mu, 50_000)
    assert draws.shape == (20, 50_000)
    emp_mean = draws.mean(axis=1)
    centered = draws - emp_mean[:, None]
    emp_cov = centered @ centered.T / (draws.shape[1] - 1)
    cov = dense_covariance(fa.W, fa.psi)
    rel = np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov)
    assert rel < 0.05
    assert np.linalg.norm(emp_mean - mu) < 0.05 * max(1.0, np.linalg.norm(mu))


def test_draws_are_reproducible_under_a_seed():
    fa = random_fa(np.random.default_rng(5), d=8, p=2)
    mu = np.zeros(8)
    a = EnsembleSampler(fa, rng=123).draw(mu, 16)
    b = EnsembleSampler(fa, rng=123).draw(mu, 16)
    c = EnsembleSampler(fa, rng=124).draw(mu, 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_validation():
    fa = random_fa(np.random.default_rng(0), d=6, p=2)
    sampler = EnsembleSampler(fa)
    with pytest.raises(ValueError):
        sampler.draw(np.zeros(5), 4)
    with pytest.raises(ValueError):
        sampler.draw(np.zeros(6), 0)
