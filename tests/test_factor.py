"""Woodbury algebra against dense linear algebra on small instances."""

import numpy as np
import pytest

from lrvga import (
    FaPrecision,
    init_isotropic_prior,
    inverse_diag,
    latent_gram,
    log_det,
    woodbury_apply,
)
from lrvga.factor import _cholesky_solve, c_einsum, spd_solve

from oracles import cholesky_solve_two_calls, dense_covariance, dense_precision, precision_matvec


def random_fa(rng, d=None, p=None):
    d = d or int(rng.integers(2, 17))
    p = p or int(rng.integers(1, d + 1))
    W = rng.standard_normal((d, p))
    psi = rng.uniform(0.2, 3.0, size=d)
    return FaPrecision(W, psi)


@pytest.mark.parametrize("seed", range(8))
def test_woodbury_apply_matches_dense_solve(seed):
    rng = np.random.default_rng(seed)
    fa = random_fa(rng)
    v = rng.standard_normal(fa.d)
    expected = np.linalg.solve(dense_precision(fa.W, fa.psi), v)
    got = woodbury_apply(fa, v)
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_woodbury_apply_on_column_blocks():
    rng = np.random.default_rng(3)
    fa = random_fa(rng, d=9, p=4)
    V = rng.standard_normal((9, 6))
    expected = np.linalg.solve(dense_precision(fa.W, fa.psi), V)
    assert np.allclose(woodbury_apply(fa, V), expected, rtol=1e-10, atol=1e-12)


def test_woodbury_apply_rejects_bad_input():
    fa = random_fa(np.random.default_rng(0), d=5, p=2)
    with pytest.raises(ValueError):
        woodbury_apply(fa, np.zeros(4))
    with pytest.raises(ValueError):
        woodbury_apply(fa, np.full(5, np.nan))
    with pytest.raises(ValueError):
        woodbury_apply(fa, np.full((5, 2), np.nan))


def test_precision_matvec_matches_dense():
    rng = np.random.default_rng(11)
    fa = random_fa(rng, d=7, p=3)
    v = rng.standard_normal(7)
    assert np.allclose(precision_matvec(fa, v), dense_precision(fa.W, fa.psi) @ v)
    V = rng.standard_normal((7, 4))
    assert np.allclose(precision_matvec(fa, V), dense_precision(fa.W, fa.psi) @ V)


@pytest.mark.parametrize("seed", range(6))
def test_log_det_matches_slogdet(seed):
    rng = np.random.default_rng(100 + seed)
    fa = random_fa(rng)
    sign, expected = np.linalg.slogdet(dense_precision(fa.W, fa.psi))
    assert sign > 0
    assert log_det(fa) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_inverse_diag_and_trace():
    rng = np.random.default_rng(5)
    fa = random_fa(rng, d=12, p=5)
    cov = dense_covariance(fa.W, fa.psi)
    assert np.allclose(inverse_diag(fa), np.diag(cov), rtol=1e-10)
    assert np.sum(inverse_diag(fa)) == pytest.approx(np.trace(cov), rel=1e-10)


def test_latent_gram_value_and_definiteness():
    rng = np.random.default_rng(9)
    fa = random_fa(rng, d=8, p=3)
    M = latent_gram(fa)
    expected = np.eye(3) + fa.W.T @ np.diag(1.0 / fa.psi) @ fa.W
    assert np.allclose(M, expected)
    assert np.allclose(M, M.T)
    # M - I is a Gram matrix, so every eigenvalue of M is at least one.
    assert np.linalg.eigvalsh(M).min() >= 1.0 - 1e-12


def test_latent_inverse_is_the_inverse_of_the_latent_gram():
    rng = np.random.default_rng(11)
    for d, p in [(6, 1), (12, 4), (40, 10)]:
        fa = random_fa(rng, d=d, p=p)
        expected = np.linalg.inv(latent_gram(fa))
        assert np.allclose(fa.latent_inverse, expected, rtol=1e-12, atol=1e-12)
        assert not fa.latent_inverse.flags.writeable


@pytest.mark.parametrize("p", [1, 5, 10, 20])
def test_one_call_cholesky_solve_matches_factor_then_solve_bit_for_bit(p):
    """The passes' one ``dposv`` call gives the bits of dpotrf followed by
    dpotrs, for the identity as right-hand side and for a p x 3 block, on
    SPD matrices whose upper triangle differs from the lower by rounding."""
    rng = np.random.default_rng(100 + p)
    for _ in range(20):
        R = rng.standard_normal((p, p + 2))
        A = np.eye(p) + R @ R.T * np.exp(rng.uniform(-3.0, 3.0))
        A += 1e-15 * np.abs(A) * np.triu(rng.standard_normal((p, p)), 1)
        for B in (np.eye(p), rng.standard_normal((p, 3))):
            expected = cholesky_solve_two_calls(A, B)
            got = _cholesky_solve(A, B)
            assert got.tobytes() == expected.tobytes()


def test_latent_inverse_is_formed_once_per_instance(monkeypatch):
    import lrvga.factor

    calls = []
    original = lrvga.factor._cholesky_solve

    def counting_solve(A, B):
        calls.append(A)
        return original(A, B)

    monkeypatch.setattr(lrvga.factor, "_cholesky_solve", counting_solve)
    fa = random_fa(np.random.default_rng(12), d=9, p=3)
    first = fa.latent_inverse
    v = np.ones(9)
    woodbury_apply(fa, v)
    inverse_diag(fa)
    assert fa.latent_inverse is first
    assert len(calls) == 1
    # A new instance, even over the same arrays, forms its own.
    FaPrecision(fa.W, fa.psi).latent_inverse
    assert len(calls) == 2


def test_gram_is_formed_once_and_read_by_log_det(monkeypatch):
    import lrvga.factor

    calls = []
    original = lrvga.factor.latent_gram

    def counting_gram(fa):
        calls.append(fa)
        return original(fa)

    monkeypatch.setattr(lrvga.factor, "latent_gram", counting_gram)
    fa = random_fa(np.random.default_rng(14), d=9, p=3)
    fa.latent_inverse
    value = log_det(fa)
    assert len(calls) == 1 and fa.gram is fa.gram
    assert not fa.gram.flags.writeable
    assert np.array_equal(fa.gram, original(fa))
    assert value == float(np.linalg.slogdet(original(fa))[1] + np.sum(np.log(fa.psi)))


def test_latent_inverse_falls_back_on_an_indefinite_gram(monkeypatch):
    import lrvga.factor

    gram = np.diag([2.0, -1.0])
    monkeypatch.setattr(lrvga.factor, "latent_gram", lambda fa: gram)
    fa = random_fa(np.random.default_rng(13), d=5, p=2)
    with pytest.warns(RuntimeWarning, match="falling back to pseudo-inverse"):
        minv = fa.latent_inverse
    assert np.allclose(minv, np.linalg.pinv(gram))


def test_spd_solve_plain_case():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6))
    A = A @ A.T + 6 * np.eye(6)
    B = rng.standard_normal((6, 3))
    assert np.allclose(spd_solve(A, B), np.linalg.solve(A, B), rtol=1e-11)


def test_spd_solve_falls_back_on_singular_input():
    A = np.ones((3, 3))
    b = np.ones(3)
    with pytest.warns(RuntimeWarning):
        x = spd_solve(A, b)
    assert np.all(np.isfinite(x))
    # Pseudo-inverse solution of the rank-one system.
    assert np.allclose(A @ x, b)


def test_c_einsum_is_the_c_entry_point_with_np_einsum_bits():
    """Under numpy 2 ``c_einsum`` is numpy's C einsum, not the Python
    wrapper ``np.einsum``, so a renamed private path shows here rather than
    as a silently slower step. It gives ``np.einsum``'s bits on C- and
    F-ordered d x p arrays, with a per-column weight, and on the row blocks
    of an F-ordered array written with ``out=``, as the row passes do."""
    assert (c_einsum is not np.einsum) == (np.lib.NumpyVersion(np.__version__) >= "2.0.0")
    rng = np.random.default_rng(21)
    d, p = 300, 7
    A, B, w = rng.standard_normal((d, p)), rng.standard_normal((d, p)), rng.uniform(0.5, 2.0, p)
    for X, Y in ((A, B), (np.asfortranarray(A), np.asfortranarray(B)), (A, np.asfortranarray(B))):
        assert c_einsum("ij,ij->i", X, Y).tobytes() == np.einsum("ij,ij->i", X, Y).tobytes()
        assert c_einsum("ij,ij,j->i", X, Y, w).tobytes() == np.einsum("ij,ij,j->i", X, Y, w).tobytes()
    F = np.asfortranarray(A)
    ours, numpys = np.empty(d), np.empty(d)
    for start in range(0, d, 128):
        rows = slice(start, start + 128)
        c_einsum("ij,ij->i", F[rows], F[rows], out=ours[rows])
        np.einsum("ij,ij->i", F[rows], F[rows], out=numpys[rows])
    assert ours.tobytes() == numpys.tobytes()


def test_fa_precision_validation():
    with pytest.raises(ValueError):
        FaPrecision(np.zeros((3, 2)), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        FaPrecision(np.zeros((3, 2)), np.array([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        FaPrecision(np.zeros((3, 4)), np.ones(3))
    with pytest.raises(ValueError):
        FaPrecision(np.full((3, 2), np.inf), np.ones(3))
    with pytest.raises(ValueError):
        FaPrecision(np.ones(3), np.ones(3))
    fa = FaPrecision(np.ones((3, 1)), np.ones(3))
    assert fa.W.shape == (3, 1)
    assert fa.d == 3 and fa.p == 1


def test_init_isotropic_prior_trace_split():
    for d, p, sigma0, eps in [(10, 3, 1.0, 0.01), (25, 5, 2.0, 0.5), (4, 4, 0.5, 0.1)]:
        fa = init_isotropic_prior(d, p, sigma0, eps=eps, rng=0)
        trace = np.sum(c_einsum("ij,ij->i", fa.W, fa.W)) + np.sum(fa.psi)
        assert trace == pytest.approx(d / sigma0**2, rel=1e-12)
        col_norms = np.linalg.norm(fa.W, axis=0)
        assert np.allclose(col_norms, np.sqrt(eps * d / p) / sigma0, rtol=1e-12)
        assert np.allclose(fa.psi, (1.0 - eps) / sigma0**2)


def test_init_isotropic_prior_is_seeded():
    a = init_isotropic_prior(12, 4, 1.0, rng=7)
    b = init_isotropic_prior(12, 4, 1.0, rng=7)
    c = init_isotropic_prior(12, 4, 1.0, rng=8)
    assert np.array_equal(a.W, b.W)
    assert not np.array_equal(a.W, c.W)


def test_init_isotropic_prior_rejects_bad_arguments():
    with pytest.raises(ValueError):
        init_isotropic_prior(3, 0, 1.0)
    with pytest.raises(ValueError):
        init_isotropic_prior(3, 4, 1.0)
    with pytest.raises(ValueError):
        init_isotropic_prior(3, 2, -1.0)
    with pytest.raises(ValueError):
        init_isotropic_prior(3, 2, 1.0, eps=0.0)
    with pytest.raises(ValueError):
        init_isotropic_prior(3, 2, 1.0, eps=1.0)
