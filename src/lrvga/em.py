"""Fixed-point EM updates for W W^T + diag(psi) factorizations.

Three layers, all sharing one step kernel:

* ``em_fixed_point_step`` performs a single EM cycle toward the best
  factored fit of a target held in product form (``_BlendTarget``),
  touched only through products with d x p blocks and its diagonal; no
  d x d matrix is formed anywhere here, batch EM's included.
* ``recursive_em_update`` makes a fixed number of passes toward the
  implicit target alpha (W_prev W_prev^T + Psi_prev) + beta X X^T, which
  is how a streaming filter absorbs a new observation block. Its passes,
  and the GLM filter step's, are made by ``_absorb``, the one owner of an
  update's cycle count, by default ``default_inner_loops(d)``, and of its
  first pass.
* ``online_em_update`` is the stochastic-approximation variant that keeps
  running sufficient statistics instead of re-fitting per sample;
  ``polyak_ruppert_average`` is the running mean of its iterates.

Each EM cycle solves in p-space by one LAPACK call, ``dposv``, which
factors the SPD p x p matrix M B of ``em_fixed_point_step`` by Cholesky
and solves with it, and hands its output the latent Gram matrix of the
new factors, so the next Woodbury gain or cycle reads it without another
pass over W; within one update a general cycle also leaves Psi^-1 W of
its output on the target for the next. An update's first pass never
applies the target. At alpha = 1 it is the warm-started rank-K cycle
``_rank_k_rows``, at alpha != 1 the closed-form fit ``_closed_form``.
Both have one shape: each solves small matrices and forms psi_new whole,
with its d-length work done once on whole arrays, then hands it to
``_row_pass``, the one loop over cache-sized row blocks, which writes
the new factors column-major, each block p contiguous column segments,
and accumulates their gram; when general cycles follow, it also writes
Psi^-1 W of its output, column-major, and hands it to the first of
them. The rank-K cycle's column G = X - W A = Psi (W W^T + Psi)^-1 X
goes into a caller's buffer if given, from which the GLM filter step
moves its mean: nothing here reads a mean. Every routine accepts either
order. Inputs are validated once per update; each pass checks its output
once, by the sum of psi before the floor and of its gram, floors psi and
builds it unvalidated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .factor import (
    PSI_FLOOR,
    DivergenceError,
    FaPrecision,
    _cholesky_solve,
    _gram_from,
    _trusted_precision,
    c_einsum,
    identity,
)
# Module attributes that perfbench/trace.py wraps by name.
from .factor import latent_gram, spd_solve  # noqa: F401

# Rows per block of ``_row_pass``, the first passes' one row loop: a
# block's rows of W and X, its products and its output rows, at most
# about 1.4 MB at p = 10, K = 1, stay in a 2 MB L2 cache.
_ROW_BLOCK = 4096


class _BlendTarget:
    """EM target alpha (W_prev W_prev^T + Psi_prev) + beta X X^T in product
    form: the recursion's, or at alpha = 0, where ``prev`` is never read
    and may be None, batch EM's sample second moment beta X X^T.

    Products are taken block by block, so the carried factor is read in
    place rather than copied into a widened matrix; only the p-column
    product outputs are allocated, and the diagonal on first use.
    """

    def __init__(self, prev: FaPrecision | None, X: np.ndarray, alpha: float, beta: float):
        self.prev = prev
        self.X = X
        self.alpha = alpha
        self.beta = beta
        self._psi_col = prev.psi[:, None] if alpha > 0.0 else None
        self._diag = None
        self.handed = None, None  # the last pass's output and its Psi^-1 W

    def matmat(self, A: np.ndarray) -> np.ndarray:
        out = None
        if self.alpha > 0.0:
            W = self.prev.W
            out = W.dot(W.T.dot(A))
            out += self._psi_col * A
            if self.alpha != 1.0:
                out *= self.alpha
        if self.beta > 0.0:
            block = self.X.T.dot(A)
            if self.beta != 1.0:
                block *= self.beta
            # .dot: for a one-column X, matmul takes a slow loop here
            block = self.X.dot(block)
            if out is None:
                return block
            out += block
        return out

    def diag(self) -> np.ndarray:
        if self._diag is None:
            self._diag = c_einsum("ij,ij->i", self.X, self.X)
            if self.beta != 1.0:
                self._diag *= self.beta
            if self.alpha > 0.0:
                W = self.prev.W
                carried = c_einsum("ij,ij->i", W, W) + self.prev.psi
                if self.alpha != 1.0:
                    carried *= self.alpha
                self._diag += carried
        return self._diag


def em_fixed_point_step(fa: FaPrecision, S: _BlendTarget) -> FaPrecision:
    """One EM cycle toward the factored fit of the symmetric target S,
    held in product form (``_BlendTarget``).

    With M = I_p + W^T Psi^-1 W, the cached ``gram``, A = Psi^-1 W,
    G = S A and B = I_p + M^-1 A^T G the update reads

        W_new   = G B^-1
        psi_new = diag(S) - diag(W_new M^-1 G^T)

    and the marginal likelihood of S under the factor model is
    non-decreasing across cycles. As B^-1 = (M B)^-1 M, the cycle makes
    one Cholesky factorization of the SPD matrix M B = M + A^T G and
    inverts neither M nor B: T = G (M B)^-1 = W_new M^-1, W_new = T M
    and psi_new = diag(S) - diag(T G^T), at one product of S with a
    d x p block plus O(d p^2).

    The output carries its gram, formed as ``latent_gram`` forms it, and
    the cycle leaves Psi_new^-1 W_new on the target for the next. Entries
    of psi_new below ``PSI_FLOOR`` are clamped to it; a failed
    factorization falls back to the pseudo-inverse with a warning. The
    output is checked for finiteness once, by the sum of psi_new before
    the floor and of the gram, and built without the public
    constructor's validation.
    """
    M = fa.gram
    owner, psi_inv_w = S.handed
    S.handed = None, None  # so that the del below frees the block
    if owner is not fa:
        psi_inv_w = fa.W / fa.psi[:, None]
    G = S.matmat(psi_inv_w)  # S Psi^-1 W, d x p
    MB = psi_inv_w.T.dot(G)
    MB += M
    del psi_inv_w  # freed before the two d x p products below, to lower the peak
    T = G.dot(_cholesky_solve(MB, identity(fa.p)))  # G (M B)^-1 = W_new M^-1
    W_new = T.dot(M)
    psi_new = S.diag() - c_einsum("ij,ij->i", T, G)
    del T, G  # freed before Psi_new^-1 W_new below, to lower the peak
    psi_sum = _floored(psi_new)
    psi_inv_w = W_new / psi_new[:, None]
    out = _trusted_precision(W_new, psi_new, _checked_gram(W_new.T.dot(psi_inv_w), psi_sum))
    S.handed = out, psi_inv_w
    return out


def _closed_form(
    fa: FaPrecision, X: np.ndarray, alpha: float, beta: float, target=None
) -> FaPrecision:
    """The closed-form rank-p fit of the recursion target. With
    Z = [W X], D = diag(sqrt(alpha) I_p, sqrt(beta) I_K) and the
    eigenvectors of the Gram matrix of Z D split into the top p, V_p, and
    the rest, H = D V_p and C = D V_rest give W_new = Z H and psi_new =
    alpha psi + diag(Z C C^T Z^T), the squared row norms of Z C, formed
    whole; ``_row_pass`` writes W_new from each block's rows of Z, formed
    anew. A non-finite or unconverged eigendecomposition raises."""
    p, k = fa.p, X.shape[1]
    scale = np.full(p + k, math.sqrt(beta))
    scale[:p] = math.sqrt(alpha)
    Z = np.concatenate((fa.W, X), axis=1)
    Z *= scale  # Z D, formed whole so that its Gram matrix is one product
    _, vecs, info = lapack.dsyevd(Z.T @ Z, lower=1, overwrite_a=1)
    if info != 0:
        raise DivergenceError("EM step produced non-finite factors")
    np.concatenate((fa.W, X), axis=1, out=Z)  # Z again, unscaled, in place
    vecs *= scale[:, None]  # D V, eigenvalues ascending
    H = vecs[:, k:][:, ::-1]  # W_new's columns go largest first
    zc = Z.dot(vecs[:, :k])
    psi_new = c_einsum("ij,ij->i", zc, zc)
    del Z, zc  # freed before the pass's d x p arrays, to lower the peak
    psi_new += alpha * fa.psi

    def fill(rows, w_new):
        np.matmul(np.concatenate((fa.W[rows], X[rows]), axis=1), H, out=w_new)

    return _row_pass(fill, psi_new, p, target)


def _checked_gram(G: np.ndarray, psi_sum: float) -> np.ndarray:
    """M of G = W^T Psi^-1 W, by ``_gram_from``, and a pass's one check of its
    output: that psi_sum, psi's sum before the floor, plus M's sum is finite."""
    M = _gram_from(G)
    if not math.isfinite(psi_sum + np.add.reduce(M, axis=None)):
        raise DivergenceError("EM step produced non-finite factors")
    return M


def _rank_k_rows(
    fa: FaPrecision, X: np.ndarray, A: np.ndarray, beta: float, out=None, target=None
) -> FaPrecision:
    """The EM cycle toward W W^T + Psi + beta X X^T started at ``fa``,
    given A = M^-1 V^T (p x K) with V = X^T Psi^-1 W.

    There the target is never applied: in ``em_fixed_point_step``'s
    terms M B = M (I_p + beta A A^T) M, and with
    Q = beta (I_K + beta A^T A)^-1 the cycle is a rank-K update by
    G = X - W A = Psi (W W^T + Psi)^-1 X,

        W_new = W + G Q A^T,  psi_new = psi + diag(G Q G^T),

    at O(d p K), plus O(d p^2) for the output's gram: below the general
    cycle's cost at every K. Its d-length work is done once, on whole
    arrays: G, by one product over W, written into the d x K buffer
    ``out`` if given, and psi_new. Only the d x p work goes through
    ``_row_pass``'s blocks: each column-major block of W_new is G Q A^T
    written in place, an outer product at K = 1, to which the block of W
    is added."""
    k = A.shape[1]
    Q = _rank_k_weight(A, beta)
    AQ = A * Q if k == 1 else A @ Q
    g = np.matmul(fa.W, A, out=out)
    np.subtract(X, g, out=g)
    # G Q is a scalar product at K = 1. The einsum, unlike np.multiply,
    # stays silent where psi overflows, which the pass's check reports.
    psi_new = c_einsum("ij,ij->i", g * Q if k == 1 else g.dot(Q), g)
    psi_new += fa.psi

    def fill(rows, w_new):
        # At K = 1 matmul takes a slow loop; the product is then an outer one
        (np.multiply if k == 1 else np.matmul)(g[rows], AQ.T, out=w_new)
        w_new += fa.W[rows]

    return _row_pass(fill, psi_new, fa.p, target)


def _rank_k_weight(A: np.ndarray, beta: float):
    """Q = beta (I_K + beta A^T A)^-1 of ``_rank_k_rows``. At K = 1 it is
    the scalar (beta l) l with l = 1 / sqrt(1 + beta a^T a), rounded as
    OpenBLAS rounds the 1 x 1 Cholesky solve."""
    k = A.shape[1]
    if k == 1:
        ell = 1.0 / math.sqrt(1.0 + beta * A[:, 0].dot(A[:, 0]))
        return (beta * ell) * ell
    return _cholesky_solve(identity(k) + beta * (A.T @ A), beta * identity(k))


def _row_pass(fill, psi_new: np.ndarray, p: int, target=None) -> FaPrecision:
    """One pass over the rows of an update's first output, given its
    whole psi_new, which is summed and floored at ``PSI_FLOOR`` once: in
    blocks of ``_ROW_BLOCK``, ``fill(rows, w_new)`` writes a block of
    W_new. W_new is column-major, so ``w_new`` is p contiguous column
    segments, which ``fill`` must write in place. The output carries its
    gram, summed into the first block's product; with a single block
    (d <= _ROW_BLOCK) it equals ``latent_gram``'s, bit for bit, and is
    checked once, at the end. Given the update's ``target``, the pass
    keeps the Psi^-1 W_new it forms in one column-major array and hands
    it on there."""
    d = psi_new.shape[0]
    W_new = np.empty((d, p), order="F")
    psi_sum = _floored(psi_new)
    psi_inv_w = None if target is None else np.empty((d, p), order="F")
    for start in range(0, d, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        w_new = W_new[rows]
        fill(rows, w_new)
        out = None if psi_inv_w is None else psi_inv_w[rows]
        # Block products here and in the fills keep @: past one block, a row
        # block of an F-ordered array is not contiguous, and .dot copies it
        block_gram = w_new.T @ np.divide(w_new, psi_new[rows, None], out=out)
        G = np.add(G, block_gram, out=G) if start else block_gram
    fa = _trusted_precision(W_new, psi_new, _checked_gram(G, psi_sum))
    if target is not None:
        target.handed = fa, psi_inv_w
    return fa


def _floored(psi: np.ndarray) -> float:
    """The sum of psi, for a pass's check; psi is then floored in place."""
    psi_sum = np.add.reduce(psi)
    np.maximum(psi, PSI_FLOOR, out=psi)
    return psi_sum


def default_inner_loops(d: int) -> int:
    """Inner-loop count heuristic: 3 in moderate dimension, 1 at scale."""
    return 3 if d <= 1000 else 1


def recursive_em_update(
    prev: FaPrecision,
    X: np.ndarray,
    alpha: float = 1.0,
    beta: float = 1.0,
    inner_loops: int | None = None,
) -> FaPrecision:
    """Absorb a (d, K) observation block into the factored state; a
    single observation is a (d, 1) block.

    Makes ``inner_loops`` passes, ``default_inner_loops(prev.d)`` when it
    is None, toward alpha (W_prev W_prev^T + Psi_prev) + beta X X^T, held
    in product form so nothing quadratic in d is allocated. At alpha = 1
    each is an EM cycle, the first warm-started at the carried state. At
    alpha != 1 the first is the closed-form rank-p fit of
    [sqrt(alpha) W_prev, sqrt(beta) X] (LoFi; Chang et al., arXiv
    2305.19535), the rest EM cycles, so ``inner_loops=1`` is the fit
    alone. The block and the weights are validated here, once: both
    weights finite and non-negative, at least one positive. Each pass
    checks its own output. The count is fixed so that cost per step is
    predictable.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != prev.d:
        raise ValueError(f"block has shape {X.shape}, expected ({prev.d}, K)")
    if not np.logical_and.reduce(np.isfinite(X), axis=None):
        raise ValueError("observation block contains non-finite entries")
    if not (0.0 <= alpha < math.inf and 0.0 <= beta < math.inf and alpha + beta > 0.0):
        raise ValueError("weights must be finite and non-negative, at least one "
                         f"positive; got alpha = {alpha}, beta = {beta}")
    return _absorb(prev, X, alpha, beta, inner_loops)


def _absorb(prev: FaPrecision, X: np.ndarray, alpha: float, beta: float,
            inner_loops: int | None, A=None, out=None) -> FaPrecision:
    """The ``inner_loops`` passes of one update by a checked d x K block X,
    ``default_inner_loops(prev.d)`` when None. The first is
    ``_rank_k_rows`` at alpha = 1, from the caller's A = M^-1 V^T if
    given, which writes G = Psi P_prev X into the d x K buffer ``out`` if
    given; at alpha != 1 the closed-form fit, which writes no G. The rest
    are general cycles, through the module's ``em_fixed_point_step``,
    where the benchmark tracer wraps it; the first pass hands the first
    of them its Psi^-1 W through the target."""
    if inner_loops is None:
        inner_loops = default_inner_loops(prev.d)
    elif inner_loops < 1:
        raise ValueError("inner_loops must be at least 1")
    target = _BlendTarget(prev, X, alpha, beta)
    hand = target if inner_loops > 1 else None
    if alpha != 1.0:
        fa = _closed_form(prev, X, alpha, beta, hand)
    else:
        if A is None:
            A = prev.latent_inverse @ ((X.T / prev.psi) @ prev.W).T
        fa = _rank_k_rows(prev, X, A, beta, out, hand)
    for _ in range(inner_loops - 1):
        fa = em_fixed_point_step(fa, target)
    return fa


def online_em_gamma(t: int) -> float:
    """Stochastic-approximation step size, 1/t^0.6 with gamma(1) = 1."""
    if t < 1:
        raise ValueError("step index starts at 1")
    return float(t) ** -0.6


@dataclass(frozen=True)
class OnlineEmState:
    """Running sufficient statistics for the online EM recursion.

    ``s1_diag`` tracks the diagonal of the second moment of the data,
    ``s2`` the latent-observed cross moment (p x d), ``s3`` the latent
    second moment (p x p).
    """

    s1_diag: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    @classmethod
    def zeros(cls, d: int, p: int) -> "OnlineEmState":
        if not 1 <= p <= d:
            raise ValueError(f"need 1 <= p <= d, got p={p}, d={d}")
        return cls(np.zeros(d), np.zeros((p, d)), np.zeros((p, p)))


def online_em_update(
    state: OnlineEmState, fa: FaPrecision, v: np.ndarray, gamma: float
) -> tuple[OnlineEmState, FaPrecision]:
    """One stochastic EM step on a single observation v.

    E-step moments are taken at the current parameters: with
    m = M^-1 W^T Psi^-1 v,

        s1 <- (1 - gamma) s1 + gamma v * v          (diagonal only)
        s2 <- (1 - gamma) s2 + gamma m v^T
        s3 <- (1 - gamma) s3 + gamma (M^-1 + m m^T)

    and the M-step solves W = s2^T s3^-1 in p-space, then
    psi = s1 - diag(W s2). Everything is O(d p^2) per step. Returns the
    updated state and the refreshed factors.

    M and M^-1 are the precision's cached ``gram`` and ``latent_inverse``,
    as in every other recursion, but m and W stay solves, m by one
    Cholesky solve with M and W by an LU solve with s3, rather than
    products with inverses: the stochastic recursion amplifies rounding,
    and the product forms move the KL of a 1000-step covariance tracking
    run by about 1e-8 relative.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != fa.d:
        raise ValueError(f"observation has length {v.shape[0]}, expected {fa.d}")
    if not np.logical_and.reduce(np.isfinite(v)):
        raise ValueError("observation contains non-finite entries")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")

    m = _cholesky_solve(fa.gram, fa.W.T @ (v / fa.psi))
    keep = 1.0 - gamma
    s1 = keep * state.s1_diag + gamma * (v * v)
    s2 = keep * state.s2 + gamma * np.outer(m, v)
    s3 = keep * state.s3 + gamma * (fa.latent_inverse + np.outer(m, m))

    try:
        W = np.linalg.solve((s3 + s3.T) / 2.0, s2).T
    except np.linalg.LinAlgError as exc:
        raise DivergenceError("singular latent second moment in online EM") from exc
    psi = s1 - c_einsum("ij,ij->i", W, s2.T)
    if not (np.logical_and.reduce(np.isfinite(W), axis=None)
            and np.logical_and.reduce(np.isfinite(psi))):
        raise DivergenceError("online EM produced non-finite factors")
    psi = np.maximum(psi, PSI_FLOOR)
    return OnlineEmState(s1, s2, s3), _trusted_precision(W, psi)


def polyak_ruppert_average(avg: FaPrecision | None, fa: FaPrecision, k: int) -> FaPrecision:
    """Mean of k iterates, from the mean ``avg`` of the first k - 1 and
    the k-th iterate ``fa``:

        avg_k = (1 - 1/k) avg_{k-1} + fa / k

    ``avg`` is ignored at k = 1. There the mean is a copy of ``fa`` in C
    order: an online EM iterate's W is the transpose of a solve, and the
    layout of the averaged factors sets the rounding of every BLAS
    product taken with them downstream.
    """
    if k < 1:
        raise ValueError("the average needs at least one iterate")
    if k == 1:
        return _trusted_precision(fa.W.copy(), fa.psi.copy())
    w = 1.0 / k
    return _trusted_precision((1.0 - w) * avg.W + w * fa.W, (1.0 - w) * avg.psi + w * fa.psi)
