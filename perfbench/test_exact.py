"""Checks of the benchmark's own exact-posterior code.

    python3 -m pytest -q perfbench/test_exact.py

The dense and the rank-n Woodbury routes must agree with each other and
with a direct computation through explicit dense inverses.
"""

import numpy as np
import pytest

import exact


def _explicit(s: exact.Stream, mu, W, psi):
    d = s.X.shape[1]
    prec = np.eye(d) / s.sigma0**2 + s.X.T @ s.X
    cov = np.linalg.inv(prec)
    mean = cov @ (s.X.T @ s.y)
    q_cov = np.linalg.inv(W @ W.T + np.diag(psi))
    delta = mu - mean
    kl = 0.5 * (
        np.trace(prec @ q_cov)
        + delta @ prec @ delta
        - d
        + np.linalg.slogdet(cov)[1]
        - np.linalg.slogdet(q_cov)[1]
    )
    return mean, float(kl)


@pytest.mark.parametrize("gen", [exact.spectral_stream, exact.isotropic_stream])
@pytest.mark.parametrize("d,n,p", [(60, 25, 4), (40, 80, 40)])
def test_dense_and_woodbury_routes_match_explicit_inverses(gen, d, n, p):
    s = gen(d, n, 1.3, [7, d, n])
    rng = np.random.default_rng([d, n, p])
    W = rng.standard_normal((d, p))
    psi = rng.uniform(0.5, 2.0, d)
    mu = rng.standard_normal(d)
    mean, kl = _explicit(s, mu, W, psi)
    for post in (exact.DensePosterior(s), exact.WoodburyPosterior(s)):
        np.testing.assert_allclose(post.mean, mean, rtol=1e-9, atol=1e-10)
        assert post.kl(mu, W, psi) == pytest.approx(kl, rel=1e-9)


def test_kl_vanishes_at_the_exact_posterior():
    s = exact.spectral_stream(30, 50, 1.0, 3)
    post = exact.DensePosterior(s)
    # p = d factors can hold the exact precision: W = chol(prec - I), psi = 1.
    W = np.linalg.cholesky(post.prec - np.eye(30))
    for route in (post, exact.WoodburyPosterior(s)):
        assert abs(route.kl(post.mean, W, np.ones(30))) < 1e-8


def test_streams_are_reproducible_and_scaled():
    a = exact.spectral_stream(50, 400, 1.0, [1, 2])
    b = exact.spectral_stream(50, 400, 1.0, [1, 2])
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    assert np.mean(np.sum(a.X**2, axis=1)) == pytest.approx(50, rel=0.15)
    iso = exact.isotropic_stream(2000, 400, 1.0, 5)
    assert np.mean(np.sum(iso.X**2, axis=1)) == pytest.approx(1.0, rel=0.05)
