"""Synthetic streams and LIBSVM-format files.

The generators are single-pass iterators: the input generators yield
dense (d,) vectors, and the label generators pair each input with its
label, yielding (x, y) tuples. Generation is chunked internally for
speed, but the chunk size shrinks with the dimension so no large buffers
appear at scale. ``parse_libsvm`` reads a whole file into a sparse row
matrix and a label vector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np
from scipy.special import expit

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


def _chunk_rows(d: int) -> int:
    """Rows drawn per generator chunk: at most 256 and at most 65536 // d,
    so one chunk array of float64 rows is at most 0.5 MB unless a single
    row is larger. Two such arrays alive at once, about 1 MB, outgrow the
    64 d (p + 2) byte budget of a metered run at p = 5 below d of about
    2300, so ``gen_regression_inputs`` draws its c = 0 rows singly."""
    return max(1, min(256, 65536 // max(d, 1)))


@dataclass(frozen=True)
class SyntheticCovSpec:
    """Zero-mean factor-structured covariance S = Wt Wt^T + diag(psit).

    The ground-truth loadings have standard normal entries and the
    diagonal is squared standard normals floored at 0.1, all drawn from
    ``seed`` so the same spec always denotes the same matrix.
    """

    d: int
    p_true: int
    seed: int = 0

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= self.p_true <= self.d:
            raise ValueError("need 1 <= p_true <= d")
        rng = np.random.default_rng(self.seed)
        W = rng.standard_normal((self.d, self.p_true))
        psi = rng.standard_normal(self.d) ** 2 + 0.1
        return W, psi

    def dense_matrix(self) -> np.ndarray:
        W, psi = self.factors()
        return W @ W.T + np.diag(psi)


def gen_fa_covariance_samples(
    spec: SyntheticCovSpec, n: int, rng: np.random.Generator | int | None = None
) -> Iterator[np.ndarray]:
    """Stream n draws from N(0, S) using the factor structure directly:
    v = Wt z + sqrt(psit) g costs O(d p_true) per sample, no dense S."""
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(rng)
    W, psi = spec.factors()
    root = np.sqrt(psi)
    chunk = _chunk_rows(spec.d)
    remaining = n
    while remaining > 0:
        m = min(chunk, remaining)
        Z = rng.standard_normal((spec.p_true, m))
        G = rng.standard_normal((spec.d, m))
        G *= root[:, None]  # in place: no second chunk-sized array
        G += W @ Z
        for j in range(m):
            yield G[:, j].copy()
        remaining -= m


@dataclass(frozen=True)
class RegressionSpec:
    """Input law for regression experiments.

    Inputs are x ~ N(0, C) with C = M^T diag(1, 1/2^c, ..., 1/d^c) M for a
    random orthogonal M, rescaled so E||x||^2 = d exactly; the condition
    number of C is d^c. With c = 0 the law is exactly standard normal and
    no rotation is materialized, which is the only regime usable in very
    high dimension (the rotation is a d x d object). The truth is always
    drawn as N(0, sigma0^2 I) from ``seed``, and streams hold n inputs.
    """

    d: int
    n: int
    c: float = 1.0
    sigma0: float = 1.0
    seed: int = 0

    def _param_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def input_spectrum(self) -> np.ndarray:
        lam = 1.0 / np.arange(1.0, self.d + 1.0) ** self.c
        return lam * (self.d / np.sum(lam))

    def rotation(self) -> np.ndarray | None:
        """Orthogonal basis of the input covariance; None when c = 0."""
        if self.c == 0.0:
            return None
        rng = self._param_rng()
        Q, R = np.linalg.qr(rng.standard_normal((self.d, self.d)))
        return Q * np.sign(np.diag(R))  # fix the sign convention

    def truth(self) -> np.ndarray:
        rng = self._param_rng()
        if self.c != 0.0:
            for _ in range(self.d):  # skip past the rotation's draw, a row at a time
                rng.standard_normal(self.d)
        return self.sigma0 * rng.standard_normal(self.d)


def gen_regression_inputs(
    spec: RegressionSpec, rng: np.random.Generator | int | None = None
) -> Iterator[np.ndarray]:
    """Stream spec.n inputs x ~ N(0, C) for the given spec."""
    if spec.n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(rng)
    lam_root = np.sqrt(spec.input_spectrum())
    M = spec.rotation()
    # The normal stream does not depend on the chunking, so at c = 0 the
    # rows come one at a time, inside any memory budget. A rotated block's
    # rounding depends on its row count: rotated inputs keep the chunks.
    chunk = _chunk_rows(spec.d) if M is not None else 1
    remaining = spec.n
    while remaining > 0:
        m = min(chunk, remaining)
        block = rng.standard_normal((m, spec.d))
        block *= lam_root  # in place: one chunk array alive, not two
        if M is not None:
            block = block @ M  # rows become M^T Lambda^(1/2) g
        for j in range(m):
            yield block[j].copy()
        remaining -= m


def gen_linear_labels(
    xs: Iterable[np.ndarray],
    theta_star: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> Iterator[tuple[np.ndarray, float]]:
    """Pair each input x of a stream with its label y = x.theta_star + N(0, 1)."""
    rng = np.random.default_rng(rng)
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    for x in xs:
        yield x, float(x @ theta_star) + rng.standard_normal()


def gen_logistic_labels(
    xs: Iterable[np.ndarray],
    theta_star: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> Iterator[tuple[np.ndarray, float]]:
    """Pair each input x of a stream with a Bernoulli(sigma(x.theta_star)) label y in {0, 1}."""
    rng = np.random.default_rng(rng)
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    for x in xs:
        prob = float(expit(x @ theta_star))
        yield x, float(rng.random() < prob)


def parse_libsvm(path) -> tuple[csr_matrix, np.ndarray]:
    """Read a sparse LIBSVM/SVMlight file.

    Lines look like ``label idx:val idx:val ...`` with 1-based indices.
    Returns the rows as an (n, d) CSR matrix, d being the largest index
    seen, and the n labels, with labels in {-1, +1} mapped to {0, 1}.
    Malformed lines, non-finite feature values and repeated indices raise
    ValueError with their line number; non-ascending indices are
    tolerated with a warning.
    """
    # Imported here: scipy.sparse would add to every import of the package.
    from scipy.sparse import csr_matrix

    labels: list[float] = []
    indices: list[int] = []
    values: list[float] = []
    indptr = [0]
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad label {parts[0]!r}") from exc
            seen: set[int] = set()
            prev = 0
            for token in parts[1:]:
                try:
                    idx_str, val_str = token.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad feature {token!r}") from exc
                if not math.isfinite(val):
                    raise ValueError(f"line {lineno}: non-finite value {token!r}")
                if idx < 1:
                    raise ValueError(f"line {lineno}: index {idx} is not 1-based")
                if idx in seen:
                    raise ValueError(f"line {lineno}: index {idx} appears twice")
                if idx < prev:
                    warnings.warn(
                        f"line {lineno}: feature indices are not ascending",
                        RuntimeWarning,
                    )
                seen.add(idx)
                prev = idx
                indices.append(idx - 1)
                values.append(val)
            labels.append(0.0 if label == -1.0 else label)
            indptr.append(len(indices))
    d = max(indices, default=-1) + 1
    rows = csr_matrix((values, indices, indptr), shape=(len(labels), d), dtype=float)
    return rows, np.asarray(labels, dtype=float)
