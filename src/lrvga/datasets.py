"""Synthetic streams, LIBSVM-format files, and input normalization.

Streams are plain single-pass iterators of vectors or Observations; every
consumer in the package iterates them exactly once. Generation is chunked
internally for speed but the chunk size shrinks with the dimension so no
large buffers appear at scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from scipy.special import expit

from .filters import Observation


def _chunk_rows(d: int) -> int:
    """Rows drawn per generator chunk: at most 256 and at most 65536 // d,
    so one chunk array of float64 rows is at most 0.5 MB unless a single
    row is larger, and streaming stays inside the d x (p + 2) contract."""
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
        block = W @ Z + root[:, None] * G
        for j in range(m):
            yield block[:, j].copy()
        remaining -= m


@dataclass(frozen=True)
class RegressionSpec:
    """Input law for regression experiments.

    Inputs are x ~ N(0, C) with C = M^T diag(1, 1/2^c, ..., 1/d^c) M for a
    random orthogonal M, rescaled so E||x||^2 = d exactly; the condition
    number of C is d^c. With c = 0 the law is exactly standard normal and
    no rotation is materialized, which is the only regime usable in very
    high dimension (the rotation is a d x d object). ``theta_star`` is
    drawn as N(0, sigma0^2 I) from ``seed`` unless given explicitly.
    """

    d: int
    n: int
    c: float = 1.0
    sigma0: float = 1.0
    seed: int = 0
    theta_star: np.ndarray | None = None

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
        if self.theta_star is not None:
            theta = np.asarray(self.theta_star, dtype=float).ravel()
            if theta.shape[0] != self.d:
                raise ValueError("theta_star has the wrong length")
            return theta
        rng = self._param_rng()
        if self.c != 0.0:
            rng.standard_normal((self.d, self.d))  # skip past the rotation draw
        return self.sigma0 * rng.standard_normal(self.d)

    def input_covariance(self) -> np.ndarray:
        """Dense C, for oracle use at small d."""
        lam = self.input_spectrum()
        M = self.rotation()
        if M is None:
            return np.diag(lam)
        return M.T @ (lam[:, None] * M)


def gen_regression_inputs(
    spec: RegressionSpec, rng: np.random.Generator | int | None = None, n: int | None = None
) -> Iterator[np.ndarray]:
    """Stream inputs x ~ N(0, C) for the given spec."""
    n = spec.n if n is None else n
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(rng)
    lam_root = np.sqrt(spec.input_spectrum())
    M = spec.rotation()
    chunk = _chunk_rows(spec.d)
    remaining = n
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
    noise_sigma: float = 1.0,
) -> Iterator[Observation]:
    """Attach y = x.theta_star + N(0, noise_sigma^2) labels to a stream.

    ``noise_sigma = 0`` gives the noise-free stream used by exactness
    tests.
    """
    rng = np.random.default_rng(rng)
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    for x in xs:
        y = float(x @ theta_star)
        if noise_sigma > 0.0:
            y += noise_sigma * rng.standard_normal()
        yield Observation(x, y)


def gen_logistic_labels(
    xs: Iterable[np.ndarray],
    theta_star: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> Iterator[Observation]:
    """Attach Bernoulli(sigma(x.theta_star)) labels in {0, 1} to a stream."""
    rng = np.random.default_rng(rng)
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    for x in xs:
        prob = float(expit(x @ theta_star))
        yield Observation(x, float(rng.random() < prob))


def parse_libsvm(path, map_binary_labels: bool = True) -> tuple[list[Observation], int]:
    """Read a sparse LIBSVM/SVMlight file.

    Lines look like ``label idx:val idx:val ...`` with 1-based indices.
    Returns the observations (sparse inputs) and the inferred dimension,
    which is the largest index seen. Labels in {-1, +1} are mapped to
    {0, 1} when ``map_binary_labels`` is set; malformed lines raise
    ValueError with their line number, and non-ascending indices are
    tolerated with a warning.
    """
    observations: list[tuple[float, np.ndarray, np.ndarray]] = []
    d = 0
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
            idx_list: list[int] = []
            val_list: list[float] = []
            prev = 0
            for token in parts[1:]:
                try:
                    idx_str, val_str = token.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad feature {token!r}") from exc
                if idx < 1:
                    raise ValueError(f"line {lineno}: index {idx} is not 1-based")
                if idx <= prev:
                    warnings.warn(
                        f"line {lineno}: feature indices are not ascending",
                        RuntimeWarning,
                    )
                prev = idx
                idx_list.append(idx - 1)
                val_list.append(val)
                d = max(d, idx)
            observations.append(
                (label, np.asarray(idx_list, dtype=np.int64), np.asarray(val_list))
            )
    out = []
    for label, idx, vals in observations:
        if map_binary_labels:
            if label == -1.0:
                label = 0.0
            elif label == +1.0:
                label = 1.0
        out.append(Observation((idx, vals), label))
    return out, d


class NormalizedStream:
    """Rescale a stream so the mean squared norm is the dimension.

    The scale is estimated from the leading batch (default 100 samples),
    then applied to those samples and everything after them, so the
    stream is still consumed exactly once. ``scale`` holds the applied
    factor once iteration starts; with mode "none" the stream passes
    through and the scale is 1.
    """

    def __init__(self, stream: Iterable, d: int, mode: str = "mean-norm", leading_batch: int = 100):
        if mode not in ("mean-norm", "none"):
            raise ValueError(f"unknown normalization mode {mode!r}")
        if leading_batch < 1:
            raise ValueError("leading batch must hold at least one sample")
        self._stream = iter(stream)
        self._d = d
        self._mode = mode
        self._leading = leading_batch
        self.scale: float | None = 1.0 if mode == "none" else None

    @staticmethod
    def _squared_norm(item) -> float:
        if isinstance(item, Observation):
            return item.squared_norm()
        return float(np.sum(np.asarray(item, dtype=float) ** 2))

    def _scaled(self, item):
        s = self.scale
        if s == 1.0:
            return item
        if isinstance(item, Observation):
            if item.is_sparse:
                idx, vals = item.x
                return Observation((idx, vals * s), item.y)
            return Observation(item.x * s, item.y)
        return np.asarray(item, dtype=float) * s

    def __iter__(self):
        if self._mode == "none":
            for item in self._stream:
                yield item
            return
        buffer = []
        for item in self._stream:
            buffer.append(item)
            if len(buffer) >= self._leading:
                break
        if not buffer:
            return
        mean_sq = float(np.mean([self._squared_norm(b) for b in buffer]))
        if mean_sq <= 0.0 or not np.isfinite(mean_sq):
            raise ValueError("leading batch has no usable scale")
        self.scale = float(np.sqrt(self._d / mean_sq))
        for item in buffer:
            yield self._scaled(item)
        for item in self._stream:
            yield self._scaled(item)


def normalize_stream(
    stream: Iterable, d: int, mode: str = "mean-norm", leading_batch: int = 100
) -> NormalizedStream:
    """Wrap a stream with mean-norm input scaling (or pass through)."""
    return NormalizedStream(stream, d, mode=mode, leading_batch=leading_batch)
