"""Factor-analysis fitting: fixed-point maps, recursion, helpers."""

import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

import lrvga.em
import lrvga.experiments
from lrvga import (
    ConfigError,
    FaPrecision,
    covariance_fit_kl,
    default_inner_loops,
    fa_dense_matrix,
    init_isotropic_prior,
    make_config,
    recursive_em_update,
    run_experiment,
)
from lrvga.em import (
    _ROW_BLOCK,
    _absorb,
    _BlendTarget,
    _closed_form,
    _rank_k_rows,
    _rank_k_weight,
    _row_pass,
    em_fixed_point_step,
)
from lrvga.experiments import _s0_guess
from lrvga.factor import DivergenceError, _cholesky_solve, latent_gram
from lrvga.memory import MemoryMeter

from oracles import (
    avg_loglik,
    closed_form_fit_blockwise,
    closed_form_fit_one_shot,
    em_reference_step,
    em_solve_step,
    mle_fixed_point_step,
    warm_cycle_one_shot,
)


def mle_step(fa, S):
    return FaPrecision(*mle_fixed_point_step(fa.W, fa.psi, S))


def product_target(*blocks):
    """S = L L^T for L = [blocks], as the product-form target the EM cycle
    takes, and S formed densely for the oracles."""
    L = np.hstack(blocks)
    return _BlendTarget(None, L, 0.0, 1.0), L @ L.T


def random_instance(rng, d=None, p=None):
    d = d or int(rng.integers(3, 13))
    p = p or int(rng.integers(1, max(2, d // 2)))
    fa = FaPrecision(rng.standard_normal((d, p)), rng.uniform(0.3, 2.0, d))
    A = rng.standard_normal((d, d + 2))
    return fa, *product_target(A / np.sqrt(d + 2))


@pytest.mark.parametrize("seed", range(8))
def test_em_step_matches_textbook_moments(seed):
    rng = np.random.default_rng(seed)
    fa, target, S = random_instance(rng)
    out = em_fixed_point_step(fa, target)
    W_ref, psi_ref = em_reference_step(fa.W, fa.psi, S)
    assert np.allclose(out.W, W_ref, rtol=1e-9, atol=1e-11)
    assert np.allclose(out.psi, psi_ref, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("seed", range(10))
def test_exact_fit_is_stationary_for_both_maps(seed):
    rng = np.random.default_rng(50 + seed)
    fa, _, _ = random_instance(rng)
    target, S = product_target(fa.W, np.diag(np.sqrt(fa.psi)))
    for out in (em_fixed_point_step(fa, target), mle_step(fa, S)):
        assert np.allclose(out.W, fa.W, rtol=1e-10, atol=1e-12)
        assert np.allclose(out.psi, fa.psi, rtol=1e-10, atol=1e-12)


def test_maps_agree_at_fixed_points_but_not_elsewhere():
    """The two maps share stationary points, not intermediate iterates.

    Worked two-dimensional case: W = (1, 0)^T, psi = (1, 1),
    S = diag(3, 1). The likelihood map scales W by S Sigma^-1 giving
    (1.5, 0)^T, while the moment-matching map lands at (1.2, 0)^T.
    Away from convergence the iterates genuinely differ; the shared
    limit is covered by the convergence test below.
    """
    fa = FaPrecision(np.array([[1.0], [0.0]]), np.ones(2))
    target, S = product_target(np.diag(np.sqrt([3.0, 1.0])))
    em = em_fixed_point_step(fa, target)
    mle = mle_step(fa, S)
    assert np.allclose(mle.W.ravel(), [1.5, 0.0], atol=1e-12)
    assert np.allclose(em.W.ravel(), [1.2, 0.0], atol=1e-12)
    assert np.allclose(mle.psi, [0.75, 1.0], atol=1e-12)
    assert np.allclose(em.psi, [1.2, 1.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_em_limit_is_stationary_for_the_likelihood_map(seed):
    # A target with genuine factor structure and a healthy diagonal, so
    # the iteration settles without psi entries racing toward the floor.
    rng = np.random.default_rng(300 + seed)
    d, p = 8, 2
    L = rng.standard_normal((d, p))
    target, S = product_target(L, np.diag(np.sqrt(rng.uniform(0.5, 1.5, d))))
    fa = FaPrecision(rng.standard_normal((d, p)), rng.uniform(0.3, 2.0, d))
    for _ in range(4000):
        nxt = em_fixed_point_step(fa, target)
        if np.max(np.abs(nxt.W - fa.W)) < 1e-14:
            fa = nxt
            break
        fa = nxt
    out = mle_step(fa, S)
    assert np.allclose(out.W, fa.W, rtol=1e-9, atol=1e-11)
    assert np.allclose(out.psi, fa.psi, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("seed", range(10))
def test_em_cycles_never_decrease_the_likelihood(seed):
    rng = np.random.default_rng(700 + seed)
    fa, target, S = random_instance(rng)
    score = avg_loglik(fa.W, fa.psi, S)
    for _ in range(20):
        fa = em_fixed_point_step(fa, target)
        nxt = avg_loglik(fa.W, fa.psi, S)
        assert nxt >= score - 1e-10
        score = nxt


def test_tiny_diagonal_limit_follows_the_power_method():
    """With psi -> 0 and one factor, both maps step along S w."""
    rng = np.random.default_rng(17)
    d = 6
    target, S = product_target(rng.standard_normal((d, d + 3)) / np.sqrt(d + 3))
    w = rng.standard_normal((d, 1))
    fa = FaPrecision(w, np.full(d, 1e-8))
    direction = (S @ w).ravel()
    direction /= np.linalg.norm(direction)
    for out in (em_fixed_point_step(fa, target), mle_step(fa, S)):
        got = out.W.ravel() / np.linalg.norm(out.W)
        cos = abs(got @ direction)
        assert cos > 1.0 - 1e-6
    # With the diagonal pinned at the tiny isotropic value, iterating the
    # loading update is power iteration and finds the dominant eigenvector.
    cur = fa
    for _ in range(200):
        stepped = mle_step(cur, S)
        cur = FaPrecision(stepped.W, fa.psi)
    lead = np.linalg.eigh(S)[1][:, -1]
    assert abs(cur.W.ravel() @ lead) / np.linalg.norm(cur.W) > 1.0 - 1e-8


def test_recursive_update_zero_block_is_stationary():
    prev = init_isotropic_prior(9, 3, 1.5, eps=0.3, rng=1)
    out = recursive_em_update(prev, np.zeros((9, 4)), 1.0, 1.0, 5)
    assert np.allclose(out.W, prev.W, rtol=1e-10, atol=1e-12)
    assert np.allclose(out.psi, prev.psi, rtol=1e-10, atol=1e-12)


def _signed_like(W, ref):
    """``ref`` with each column's sign flipped to agree with ``W``'s: a
    rank-p fit is defined up to the signs of its columns, and EM cycles
    carry a column's sign through."""
    return ref * np.where(np.sum(W * ref, axis=0) < 0.0, -1.0, 1.0)


def test_recursive_update_matches_explicit_dense_target():
    """At alpha < 1 the first pass is the closed-form fit, the other three
    are EM cycles against the target held densely, here by the
    solve-based oracle."""
    rng = np.random.default_rng(23)
    prev = FaPrecision(rng.standard_normal((8, 3)), rng.uniform(0.5, 2.0, 8))
    X = rng.standard_normal((8, 4))
    got = recursive_em_update(prev, X, 0.7, 0.3, inner_loops=4)
    target = 0.7 * fa_dense_matrix(prev) + 0.3 * (X @ X.T)
    W, psi = closed_form_fit_one_shot(prev.W, prev.psi, X, 0.7, 0.3)
    for _ in range(3):
        W, psi = em_solve_step(W, psi, target)
    assert np.allclose(got.W, _signed_like(got.W, W), rtol=1e-10, atol=1e-12)
    assert np.allclose(got.psi, psi, rtol=1e-10, atol=1e-12)


def _relerr(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize(
    "d, p, k",
    [(20, 1, 2), (500, 1, 2), (20, 5, 2), (500, 5, 2), (6, 6, 2), (20, 5, 7)],
    ids=["1-20", "1-500", "5-20", "5-500", "full-rank", "wide-block"],
)
def test_p_space_kernel_matches_the_solve_based_cycle(d, p, k):
    """Twenty cycles of the p-space kernel against the solve-based oracle,
    on a well-conditioned target L L^T + diag and on the blended recursion
    target with a d x k block, at p = d and with k >= p too. Through
    recursive_em_update, whose first pass at alpha < 1 is the closed-form
    fit, twenty passes match the dense fit followed by nineteen
    solve-based cycles."""
    rng = np.random.default_rng(1000 * d + p + (k - 2))
    L = rng.standard_normal((d, p)) / np.sqrt(d)
    dense, _ = product_target(L, np.diag(np.sqrt(rng.uniform(0.5, 1.5, d))))
    prev = FaPrecision(rng.standard_normal((d, p)) / np.sqrt(d), rng.uniform(0.5, 2.0, d))
    X = rng.standard_normal((d, k)) / np.sqrt(d)
    blend = _BlendTarget(prev, X, 0.8, 0.6)
    for S in (dense, blend):
        fa, W, psi = prev, prev.W, prev.psi
        for _ in range(20):
            fa = em_fixed_point_step(fa, S)
            W, psi = em_solve_step(W, psi, S)
        assert _relerr(fa.W, W) <= 1e-10
        assert _relerr(fa.psi, psi) <= 1e-10
    got = recursive_em_update(prev, X, 0.8, 0.6, inner_loops=20)
    W, psi = closed_form_fit_one_shot(prev.W, prev.psi, X, 0.8, 0.6)
    for _ in range(19):
        W, psi = em_solve_step(W, psi, blend)
    assert _relerr(got.W, _signed_like(got.W, W)) <= 1e-10
    assert _relerr(got.psi, psi) <= 1e-10


@pytest.mark.parametrize("d, p", [(9, 3), (6, 6)])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("beta", [0.3, 1.0])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_warm_started_cycle_matches_one_step_against_the_dense_target(alpha, beta, k, d, p):
    """The first pass of an update, at K < p and K >= p (p = 3, K = 4)
    and at p = d too: at alpha = 1 it must equal the solve-based cycle
    against alpha (W W^T + Psi) + beta X X^T held densely, and at alpha < 1 the
    closed-form fit by a dense SVD, up to the signs of W's columns."""
    rng = np.random.default_rng(int(100 * alpha + 10 * beta) + 7 * k + d)
    prev = FaPrecision(rng.standard_normal((d, p)), rng.uniform(0.5, 2.0, d))
    X = rng.standard_normal((d, k))
    got = recursive_em_update(prev, X, alpha, beta, inner_loops=1)
    if alpha == 1.0:
        dense = alpha * fa_dense_matrix(prev) + beta * (X @ X.T)
        W, psi = em_solve_step(prev.W, prev.psi, dense)
    else:
        W, psi = closed_form_fit_one_shot(prev.W, prev.psi, X, alpha, beta)
        W = _signed_like(got.W, W)
    assert _relerr(got.W, W) <= 1e-10
    assert _relerr(got.psi, psi) <= 1e-10


@pytest.mark.parametrize(
    "k, alpha",
    [pytest.param(2, 1.0, id="2-alpha-1"), pytest.param(3, 0.5, id="3-alpha-0.5"),
     pytest.param(2, 0.5, id="2-alpha-0.5"),
     pytest.param(3, 1.0, id="3-alpha-1"),
     pytest.param(5, 1.0, id="5-alpha-1")],
)
def test_one_pass_update_never_reads_the_target(k, alpha, monkeypatch):
    """A one-pass update (the default above d = 1000) never multiplies the
    target nor forms its diagonal, at any K, p = 3 here: at alpha = 1 its
    pass is the warm-started rank-K cycle, and at alpha < 1 the
    closed-form fit, for wide blocks K >= p as well."""
    reads = []
    for name in ("matmat", "diag"):
        original = getattr(_BlendTarget, name)
        monkeypatch.setattr(_BlendTarget, name,
                            lambda self, *a, _f=original, _n=name: reads.append(_n) or _f(self, *a))
    prev = init_isotropic_prior(9, 3, 1.0, rng=2)
    recursive_em_update(prev, np.ones((9, k)), alpha, 1.0, inner_loops=1)
    assert reads == []


@pytest.mark.parametrize("k", [1, 4, 12])
def test_first_cycle_peaks_within_four_blocks_of_its_width(k):
    """One warm-started cycle at d = 10^4, p = 10 allocates W_new and
    psi_new plus scratch: it must peak under four d x (p + K) blocks."""
    d, p = 10_000, 10
    prev = init_isotropic_prior(d, p, 1.0, rng=3)
    X = np.random.default_rng(4).standard_normal((d, k)) / np.sqrt(d)
    prev.latent_inverse
    with MemoryMeter() as meter:
        recursive_em_update(prev, X, inner_loops=1)
    assert 0 < meter.peak_bytes <= 4 * 8 * d * (p + k)


@pytest.mark.parametrize("k", [1, 4, 12])
def test_closed_form_fit_peaks_within_four_blocks_of_its_width(k):
    """The same bound for the alpha < 1 fit, which also forms [W X] D
    whole for its Gram matrix."""
    d, p = 10_000, 10
    prev = init_isotropic_prior(d, p, 1.0, rng=3)
    X = np.random.default_rng(4).standard_normal((d, k)) / np.sqrt(d)
    with MemoryMeter() as meter:
        recursive_em_update(prev, X, 0.9, 0.1, inner_loops=1)
    assert 0 < meter.peak_bytes <= 4 * 8 * d * (p + k)


def test_one_loop_closed_form_fit_frees_z_before_its_row_pass():
    """A one-loop alpha < 1 update at d = 10^4, p = 10, K = 1 frees
    Z = [W X] once psi_new is formed, and its row pass builds each block's
    rows of Z anew: it peaks at about 1.42 blocks of 8 d (p + K) bytes.
    Holding Z through the row pass peaked at 2.38."""
    d, p, k = 10_000, 10, 1
    prev = init_isotropic_prior(d, p, 1.0, rng=3)
    X = np.random.default_rng(4).standard_normal((d, k)) / np.sqrt(d)
    with MemoryMeter() as meter:
        recursive_em_update(prev, X, 0.9, 0.1, inner_loops=1)
    assert 0 < meter.peak_bytes <= 1.6 * 8 * d * (p + k)


@pytest.mark.parametrize(
    "alpha, k, d, order",
    [pytest.param(alpha, k, d, order, id=f"{k}-{d}" + ("-alpha-1" if alpha == 1.0 else "")
                  + ("-F" if order == "F" else ""))
     for order in "CF" for alpha in (0.9, 1.0) for k in (1, 3)
     for d in (_ROW_BLOCK, 2 * _ROW_BLOCK + 37)],
)
def test_warm_started_row_pass_matches_the_one_shot_cycle(alpha, k, d, order):
    """The blocked row passes against their one-shot oracles: at
    alpha = 0.9 the closed-form fit's pass over [W X] against a dense
    SVD, up to the signs of W's columns, and at alpha = 1 the rank-K pass
    against the cycle with Z = [W X] formed whole and its full R. At
    d = 2 _ROW_BLOCK + 37 each walks three blocks, the last partial. The
    incoming W is C- or F-ordered; the output's is F-ordered. The gram
    handed over with the output matches a fresh ``latent_gram``, and
    equals it bit for bit when there is one block."""
    p = 6
    rng = np.random.default_rng(d + k)
    W0 = np.asarray(rng.standard_normal((d, p)) / 10.0, order=order)
    prev = FaPrecision(W0, rng.uniform(0.5, 2.0, d))
    X = rng.standard_normal((d, k)) / np.sqrt(d)
    beta = 0.7
    out = recursive_em_update(prev, X, alpha, beta, inner_loops=1)
    if alpha == 1.0:
        W, psi = warm_cycle_one_shot(prev.W, prev.psi, X, alpha, beta)
    else:
        W, psi = closed_form_fit_one_shot(prev.W, prev.psi, X, alpha, beta)
        W = _signed_like(out.W, W)
    assert out.W.flags.f_contiguous
    assert _relerr(out.W, W) <= 1e-12
    assert _relerr(out.psi, psi) <= 1e-12
    assert "gram" in vars(out) and not out.gram.flags.writeable
    fresh = latent_gram(out)
    assert _relerr(out.gram, fresh) <= 1e-12
    if d <= _ROW_BLOCK:
        assert np.array_equal(out.gram, fresh)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", [1, 3])
def test_closed_form_fit_keeps_the_bits_of_its_blockwise_pass(k, order):
    """At d = 2 _ROW_BLOCK + 37 the closed-form fit forms psi_new whole,
    from the whole Z C, and W_new and the gram in three row blocks: W_new,
    psi_new and the gram equal, bit for bit, those of the pass that forms
    everything d-length block by block (``closed_form_fit_blockwise``)."""
    d, p, alpha, beta = 2 * _ROW_BLOCK + 37, 6, 0.9, 0.7
    rng = np.random.default_rng(k)
    W = np.asarray(rng.standard_normal((d, p)) / 10.0, order=order)
    prev = FaPrecision(W, rng.uniform(0.5, 2.0, d))
    X = rng.standard_normal((d, k)) / np.sqrt(d)
    out = _closed_form(prev, X, alpha, beta)
    for got, expected in zip((out.W, out.psi, out.gram),
                             closed_form_fit_blockwise(W, prev.psi, X, alpha, beta, _ROW_BLOCK)):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.5, 0.5)])
@pytest.mark.parametrize("p", [5, 10])
@pytest.mark.parametrize("d", [20, 100])
def test_general_cycles_hand_forward_without_changing_a_bit(d, p, alpha, beta, k):
    """Three passes against one target, where the first is the
    warm-started cycle at alpha = 1 and the closed-form fit at alpha < 1,
    and cycles 2-3 are general and each hands its output's gram and
    Psi^-1 W forward, against the same
    cycles run each on a fresh FaPrecision over copies of the previous
    output, in its memory order, which sets the rounding of the BLAS
    products, and which carries nothing handed over: W, psi and gram are equal
    bit for bit, and every handed gram equals ``latent_gram``'s. The
    target keys the stored Psi^-1 W by the precision it belongs to, so a
    cycle on another precision, here a copy of an output with psi
    doubled, computes its own."""
    rng = np.random.default_rng(100 * d + 10 * p + k)
    prev = FaPrecision(rng.standard_normal((d, p)) / 10.0, rng.uniform(0.5, 2.0, d))
    X = rng.standard_normal((d, k)) / np.sqrt(d)
    got = recursive_em_update(prev, X, alpha, beta, inner_loops=3)
    target = _BlendTarget(prev, X, alpha, beta)
    chain = [recursive_em_update(prev, X, alpha, beta, inner_loops=1)]
    fresh = chain[0]
    for _ in range(2):
        chain.append(em_fixed_point_step(chain[-1], target))
        fresh = em_fixed_point_step(FaPrecision(fresh.W.copy(order="K"), fresh.psi.copy()), target)
        assert np.array_equal(chain[-1].W, fresh.W)
        assert np.array_equal(chain[-1].psi, fresh.psi)
        assert "gram" in vars(chain[-1])
        assert np.array_equal(chain[-1].gram, latent_gram(chain[-1]))
        assert np.array_equal(chain[-1].gram, fresh.gram)
    for a, b in ((got.W, fresh.W), (got.psi, fresh.psi), (got.gram, fresh.gram)):
        assert np.array_equal(a, b)
    other = FaPrecision(chain[-1].W.copy(), 2.0 * chain[-1].psi)
    expected = em_fixed_point_step(other, _BlendTarget(prev, X, alpha, beta))
    out = em_fixed_point_step(FaPrecision(other.W, other.psi), target)
    assert np.array_equal(out.W, expected.W)
    assert np.array_equal(out.psi, expected.psi)


@pytest.mark.parametrize("d", [30, 2 * _ROW_BLOCK + 37])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_first_general_cycle_starts_from_the_first_pass_s_psi_inverse_w(alpha, d, monkeypatch):
    """In a three-pass update the first pass, the rank-K cycle at
    alpha = 1 and the closed-form fit at alpha < 1, hands the first
    general cycle Psi^-1 W of its output: a column-major array equal bit
    for bit to W / psi, written block by block, which that cycle
    multiplies by the target in place of forming its own. A one-pass
    update hands nothing over."""
    cycles, products, targets = [], [], []
    step, matmat, init = lrvga.em.em_fixed_point_step, _BlendTarget.matmat, _BlendTarget.__init__

    def spy(fa, S):
        cycles.append((fa, *S.handed))
        return step(fa, S)

    monkeypatch.setattr(lrvga.em, "em_fixed_point_step", spy)
    monkeypatch.setattr(_BlendTarget, "matmat", lambda self, A: products.append(A) or matmat(self, A))
    monkeypatch.setattr(_BlendTarget, "__init__",
                        lambda self, *a: targets.append(self) or init(self, *a))
    rng = np.random.default_rng(d + 7)
    p = 4
    prev = FaPrecision(rng.standard_normal((d, p)) / 10.0, rng.uniform(0.5, 2.0, d))
    X = rng.standard_normal((d, 1)) / np.sqrt(d)
    recursive_em_update(prev, X, alpha, 0.7, inner_loops=3)
    (first, owner, handed), (second, owner2, _) = cycles
    assert owner is first and owner2 is second
    assert handed.flags.f_contiguous
    assert np.array_equal(handed, first.W / first.psi[:, None])
    assert products[0] is handed
    recursive_em_update(prev, X, alpha, 0.7, inner_loops=1)
    assert len(cycles) == 2 and targets[-1].handed == (None, None)


def test_rank_one_weight_is_the_one_by_one_cholesky_solve():
    """At K = 1 the rank-K cycle's Q = beta (1 + beta a^T a)^-1 is a
    float, formed without LAPACK, equal to the 1 x 1 Cholesky solve's to
    rtol 1e-15; the golden digests hold it to the bit."""
    rng = np.random.default_rng(17)
    for _ in range(500):
        p = int(rng.integers(1, 12))
        A = rng.standard_normal((p, 1)) * np.exp(rng.uniform(-5.0, 5.0))
        beta = float(np.exp(rng.uniform(-8.0, 4.0)))
        expected = _cholesky_solve(np.eye(1) + beta * (A.T @ A), beta * np.eye(1))[0, 0]
        q = _rank_k_weight(A, beta)
        assert isinstance(q, float)
        assert q == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("loops", [1, 3])
def test_the_first_pass_takes_the_caller_s_a(loops):
    """At alpha = 1 ``_absorb`` makes its first pass from the A it is
    given, as the GLM step gives it the M^-1 c of its scalars, and forms
    A = M^-1 V^T itself, another pass over W, only when given none: the
    formed A gives the update bit for bit, and a scaled A the rank-K pass
    from it, followed by the same general cycles."""
    rng = np.random.default_rng(41)
    d, p, beta = 30, 4, 0.7
    prev = FaPrecision(rng.standard_normal((d, p)) / 5.0, rng.uniform(0.5, 2.0, d))
    X = rng.standard_normal((d, 2)) / np.sqrt(d)
    A = prev.latent_inverse @ ((X.T / prev.psi) @ prev.W).T
    own = recursive_em_update(prev, X, 1.0, beta, inner_loops=loops)
    given = _absorb(prev, X, 1.0, beta, loops, A)
    expected = _rank_k_rows(prev, X, 0.5 * A, beta)
    target = _BlendTarget(prev, X, 1.0, beta)
    for _ in range(loops - 1):
        expected = em_fixed_point_step(expected, target)
    scaled = _absorb(prev, X, 1.0, beta, loops, 0.5 * A)
    for a, b in ((own, given), (scaled, expected)):
        assert np.array_equal(a.W, b.W) and np.array_equal(a.psi, b.psi)
    assert not np.allclose(scaled.W, own.W)


def _psi_overflow_raises_silently(row):
    """A one-pass update at d = 2 _ROW_BLOCK + 37 whose psi_new is +inf in
    ``row`` only must raise, with no warning of the overflow on the way,
    also where warnings are errors. W_new stays finite in that row and
    adds 0 to the gram, so only the sum of psi in the pass's one check
    sees the overflow."""
    d, p = 2 * _ROW_BLOCK + 37, 4
    rng = np.random.default_rng(5)
    psi = rng.uniform(0.5, 2.0, d)
    psi[row] = 1e300  # keeps the huge input entry below out of M and V
    prev = FaPrecision(rng.standard_normal((d, p)) / 10.0, psi)
    X = rng.standard_normal((d, 1)) / np.sqrt(d)
    X[row] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError):
            recursive_em_update(prev, X, inner_loops=1)


def test_non_finite_value_in_the_last_partial_block_raises():
    """One row at the very end of a three-block pass overflows psi_new:
    the small matrices and the first two blocks are finite, the update
    must still raise."""
    _psi_overflow_raises_silently(2 * _ROW_BLOCK + 36)


def test_psi_overflow_in_a_middle_block_raises_without_a_warning():
    """The same row in the middle one of the three blocks."""
    _psi_overflow_raises_silently(_ROW_BLOCK + 5)


def test_row_pass_raises_on_a_non_finite_factor_row_in_its_last_block():
    """W_new overflows in the last row only, while psi_new stays finite:
    the row pass checks W_new through the gram it accumulates."""
    d, p = 2 * _ROW_BLOCK + 37, 4
    W = np.zeros((d, p))
    W[-1] = 1e300  # its square over psi overflows the gram

    def fill(rows, w_new):
        w_new[...] = W[rows]

    psi = np.random.default_rng(6).uniform(0.5, 2.0, d)
    with pytest.raises(DivergenceError), np.errstate(over="ignore", invalid="ignore"):
        _row_pass(fill, psi, p)


def test_rank_k_row_pass_raises_on_a_gram_overflow_in_its_last_block():
    """The alpha = 1 pass, called directly, at a last row of W far too
    large for W_new^T Psi_new^-1 W_new while psi_new stays finite: the
    pass must raise through the check of the gram it accumulates. The
    row comes in with W, since with Q built from A and beta a finite
    psi_new bounds every entry of G Q A^T by its square root
    (Cauchy-Schwarz, as A Q A^T <= I): the update cannot overflow W_new
    on its own."""
    d, p = 2 * _ROW_BLOCK + 37, 4
    rng = np.random.default_rng(8)
    W = rng.standard_normal((d, p))
    W[-1] = [1e200, 0.0, 0.0, 0.0]  # finite, but its square over psi is not
    fa = FaPrecision(W, rng.uniform(0.5, 2.0, d))
    X = rng.standard_normal((d, 1))
    A = np.array([[0.0], [0.1], [0.2], [0.3]])  # no weight on W's first column
    with pytest.raises(DivergenceError), np.errstate(over="ignore", invalid="ignore"):
        _rank_k_rows(fa, X, A, 1.0)


def _unpatched_and_patched(monkeypatch, run):
    """run() before and after a failed Cholesky factorization: LAPACK's
    ``dposv``, the passes' one-call solve, and ``dpotrf``, the one that
    ``spd_solve`` retries with, both report info = 1, as for a matrix
    that lost positive definiteness. The em and factor modules share the
    ``lapack`` module that is patched."""
    expected = run()
    monkeypatch.setattr(lapack, "dposv", lambda a, b, lower: (a, b, 1))
    monkeypatch.setattr(lapack, "dpotrf", lambda a, lower: (a, 1))
    with pytest.warns(RuntimeWarning, match="falling back to pseudo-inverse"):
        got = run()
    assert np.isfinite(got.W).all() and np.isfinite(got.psi).all()
    assert _relerr(got.W, expected.W) <= 1e-8
    assert _relerr(got.psi, expected.psi) <= 1e-8


def test_general_cycle_warns_when_its_cholesky_fails(monkeypatch):
    fa, target, _ = random_instance(np.random.default_rng(41), d=8, p=3)
    _unpatched_and_patched(monkeypatch, lambda: em_fixed_point_step(fa, target))


def test_warm_started_cycle_warns_when_its_cholesky_fails(monkeypatch):
    rng = np.random.default_rng(42)
    prev = FaPrecision(rng.standard_normal((8, 3)), rng.uniform(0.5, 2.0, 8))
    prev.latent_inverse
    X = rng.standard_normal((8, 2))
    _unpatched_and_patched(monkeypatch, lambda: recursive_em_update(prev, X, inner_loops=1))


def test_closed_form_fit_raises_when_its_eigendecomposition_fails(monkeypatch):
    """LAPACK reports a failed eigendecomposition, as it does for a
    non-finite Gram matrix: the alpha < 1 update raises rather than fit
    with whatever vectors came back."""
    rng = np.random.default_rng(43)
    prev = FaPrecision(rng.standard_normal((8, 3)), rng.uniform(0.5, 2.0, 8))
    X = rng.standard_normal((8, 2))
    monkeypatch.setattr(lapack, "dsyevd", lambda a, **kw: (np.zeros(5), np.eye(5), 2))
    with pytest.raises(DivergenceError):
        recursive_em_update(prev, X, 0.5, 0.5, inner_loops=1)


def test_recursive_update_single_column_equals_block_form():
    rng = np.random.default_rng(31)
    prev = FaPrecision(rng.standard_normal((7, 2)), rng.uniform(0.5, 2.0, 7))
    x = rng.standard_normal(7)
    # A single observation is a (d, 1) block; a bare (d,) vector is refused.
    with pytest.raises(ValueError):
        recursive_em_update(prev, x, 1.0, 1.0, 3)
    as_block = recursive_em_update(prev, x[:, None], 1.0, 1.0, 3)
    # Padding with an all-zero column leaves the target unchanged.
    padded = recursive_em_update(
        prev, np.column_stack([x, np.zeros(7)]), 1.0, 1.0, 3
    )
    assert np.allclose(padded.W, as_block.W, rtol=1e-12, atol=1e-14)
    assert np.allclose(padded.psi, as_block.psi, rtol=1e-12, atol=1e-14)


def test_recursive_full_rank_update_recovers_dense_accumulation():
    """At p = d the factored form can hold the blended target exactly.

    The fixed-point iteration converges to it linearly, not in a handful
    of cycles: ten loops from a fresh prior still leave an error around
    1e-1, which is why the filters spread the work over many small
    steps. With a few hundred loops the target is reproduced to well
    below 1e-6 relative Frobenius error.
    """
    d = 10
    prev = init_isotropic_prior(d, d, 1.0, eps=0.5, rng=100)
    X = np.random.default_rng(0).standard_normal((d, 1))
    target = fa_dense_matrix(prev) + X @ X.T

    def relerr(loops):
        out = recursive_em_update(prev, X, 1.0, 1.0, loops)
        return np.linalg.norm(fa_dense_matrix(out) - target) / np.linalg.norm(target)

    assert relerr(10) > 1e-4
    assert relerr(500) < 1e-6


def test_recursive_update_input_validation(monkeypatch):
    prev = init_isotropic_prior(5, 2, 1.0, rng=0)
    with pytest.raises(ValueError):
        recursive_em_update(prev, np.zeros((4, 1)))
    with pytest.raises(ValueError):
        recursive_em_update(prev, np.full((5, 1), np.nan))
    with pytest.raises(ValueError):
        recursive_em_update(prev, np.zeros((5, 1)), inner_loops=0)
    # A weight must be finite and non-negative, and one of them positive;
    # a refused pair is refused before any pass runs.
    monkeypatch.setattr(lrvga.em, "_absorb", lambda *args: pytest.fail("a pass ran"))
    refused = [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (-0.1, 1.0), (0.0, 0.0)]
    for alpha, beta in refused + [(b, a) for a, b in refused[:-1]]:
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            recursive_em_update(prev, np.ones((5, 1)), alpha, beta)


def test_psi_floor_keeps_rank_deficient_targets_usable():
    rng = np.random.default_rng(77)
    # S = x x^T is rank one, so the diagonal residual collapses
    target, _ = product_target(rng.standard_normal((5, 1)))
    fa = FaPrecision(rng.standard_normal((5, 1)), np.ones(5))
    for _ in range(200):
        fa = em_fixed_point_step(fa, target)
    assert np.all(fa.psi >= 1e-12)
    assert np.all(np.isfinite(fa.W))
    assert np.min(fa.psi) == pytest.approx(1e-12, rel=1e-6)


def test_em_fit_quality_improves_toward_random_target():
    rng = np.random.default_rng(5)
    d, p_true = 12, 3
    L = rng.standard_normal((d, p_true))
    target, S = product_target(L, np.diag(np.sqrt(rng.uniform(0.5, 1.5, d))))
    fa = init_isotropic_prior(d, p_true, 1.0, eps=0.5, rng=9)
    start = covariance_fit_kl(fa, S)
    for _ in range(400):
        fa = em_fixed_point_step(fa, target)
    end = covariance_fit_kl(fa, S)
    assert end < start
    assert end < 1e-8


def test_covariance_mode_weights_schedule(monkeypatch):
    """The cov driver's recursive-em blends its t-th sample with
    alpha = (t - 1) / t and beta = 1 / t, exactly, so the target is the
    running mean of the outer products seen so far."""
    update, calls = lrvga.experiments.recursive_em_update, []

    def spy(prev, X, alpha=1.0, beta=1.0, inner_loops=None):
        calls.append((alpha, beta))
        return update(prev, X, alpha, beta, inner_loops)

    monkeypatch.setattr(lrvga.experiments, "recursive_em_update", spy)
    run_experiment(make_config("cov", d=6, p=2, n=12, checkpoints=2, methods=["recursive-em"]))
    assert calls == [((t - 1) / t, 1 / t) for t in range(1, 13)]


def test_guess_s0_scale_formula():
    """``experiments._s0_guess``: sigma0 = sqrt(d / mean ||x||^2)."""
    d = 8
    batch = np.eye(d)[:4]  # unit vectors
    assert _s0_guess(batch, d) == pytest.approx(np.sqrt(d))
    batch = np.full((3, d), 1.0)  # squared norm d for every row
    assert _s0_guess(batch, d) == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    batch = rng.standard_normal((5, d))
    expected = np.sqrt(d / np.mean(np.sum(batch**2, axis=1)))
    assert _s0_guess(batch, d) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ConfigError):
        _s0_guess(np.zeros((3, d)), d)


def test_default_inner_loops_switches_at_scale():
    assert default_inner_loops(10) == 3
    assert default_inner_loops(1000) == 3
    assert default_inner_loops(1001) == 1
    assert default_inner_loops(100000) == 1


@pytest.mark.parametrize("d, cycles", [(10, 3), (1001, 1)])
def test_recursive_update_defaults_to_the_heuristic_cycle_count(d, cycles, monkeypatch):
    """With no ``inner_loops``, the update makes ``default_inner_loops(d)``
    passes, the first the rank-K cycle and the rest general ones, so every
    filter that passes None through gets the same count."""
    calls = []

    def counting(fn):
        def counted(fa, *args):
            calls.append(fa.d)
            return fn(fa, *args)
        return counted

    for name in ("_rank_k_rows", "em_fixed_point_step"):
        monkeypatch.setattr(lrvga.em, name, counting(getattr(lrvga.em, name)))
    prev = init_isotropic_prior(d, 2, 1.0, rng=0)
    recursive_em_update(prev, np.random.default_rng(1).standard_normal((d, 1)))
    assert calls == [d] * cycles == [d] * default_inner_loops(d)
