"""Reference clock: a fixed numpy/scipy kernel timed between workload chunks.

Wall time on a small shared machine drifts by 20-30% over minutes, even
inside one process. A reference kernel that does not use ``lrvga`` is timed
in short chunks interleaved with the workload's chunks; each workload
segment is then rescaled by

    nominal chunk seconds / measured chunk seconds around that segment

so a time is reported as seconds at the reference's nominal speed. The
kernels are shaped like the workloads' dominant operations, so the drift
that slows the workload (clock speed, cache and memory-bandwidth
contention) slows the reference in the same proportion.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve


class RefKernel:
    """A reference kernel: one chunk runs ``step`` ``reps`` times.

    ``nominal_s`` is roughly the median chunk time on the machine the
    benchmark was tuned on (2-vCPU Intel Xeon, numpy 2.4.6 with OpenBLAS
    0.3.31, one BLAS thread). It only fixes the unit of the scaled times and
    must never change, or every scaled time moves with it.
    """

    def __init__(self, name: str, make_state, step, reps: int, nominal_s: float):
        self.name = name
        self.state = make_state()
        self.step = step
        self.reps = reps
        self.nominal_s = nominal_s

    def chunk(self) -> float:
        """Run one chunk and return its wall seconds."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(self.reps):
            acc += self.step(*self.state)
        t1 = time.perf_counter()
        if not np.isfinite(acc):
            raise FloatingPointError(f"reference kernel {self.name} lost finiteness")
        return t1 - t0


def _setup(d: int, p: int):
    def make():
        rng = np.random.default_rng([20230325, d, p])
        return (
            rng.standard_normal((d, p)) * np.sqrt(0.1 / p),
            rng.uniform(0.5, 1.5, d),
            rng.standard_normal((d, 1)),
        )

    return make


def _em_shaped_step(W, psi, X) -> float:
    """One EM cycle's shape plus one Woodbury gain, in plain numpy/scipy:
    p x p Cholesky solves, thin d x p products with fresh outputs, a solve
    with d right-hand sides and the finiteness checks; about twenty library
    calls whatever d is."""
    p = W.shape[1]
    pw = W / psi[:, None]
    M = np.eye(p) + W.T @ pw
    c = cho_factor((M + M.T) / 2.0, lower=True)
    G = W @ (W.T @ pw)
    G += psi[:, None] * pw
    G += X @ (X.T @ pw)
    B = np.eye(p) + cho_solve(c, pw.T @ G)
    Wn = np.linalg.solve(B.T, G.T).T
    s = np.einsum("ij,ij->i", cho_solve(c, Wn.T).T, G)
    x = X[:, 0]
    v = (x - W @ cho_solve(c, pw.T @ x)) / psi
    if not (np.all(np.isfinite(Wn)) and np.all(np.isfinite(s))):
        return float("nan")
    return float(s[0] + v[0])


def small_kernel() -> RefKernel:
    """d = 100, p = 5: per-call overhead dominates, as in linear-d100 and in
    the many small calls of the nonlinear CLI run."""
    return RefKernel("em-d100-p5", _setup(100, 5), _em_shaped_step, reps=16, nominal_s=0.0025)


def large_kernel() -> RefKernel:
    """d = 100 000, p = 10: memory traffic of d x p blocks dominates."""
    return RefKernel("em-d100k-p10", _setup(100_000, 10), _em_shaped_step, reps=1, nominal_s=0.065)


class Clock:
    """Workload time in segments separated by reference chunks.

    A round runs ``begin()``, then work with ``tick()`` calls between
    chunks of it, then ``end()``. Every call runs one reference chunk, so
    segment i of a round lies between chunks i and i + 1 and is scaled by
    the nominal chunk time over the mean of those two. ``step(dt)``
    records one call latency in the current segment; it is scaled with
    its segment. If ``tracer`` is set, the round is recorded as a span
    named ``bench.round`` and each reference chunk as a span named ``ref``,
    so layer self times exclude the chunks.
    """

    def __init__(self, kernel: RefKernel):
        self.kernel = kernel
        self.tracer = None
        self.ref_times: list[float] = []  # every chunk of the run
        self._refs: list[float] = []
        self._segs: list[float] = []
        self._steps: list[list[float]] = []
        self._start = 0.0
        self._span = None

    def _ref(self) -> None:
        sid = self.tracer.open("ref") if self.tracer is not None else None
        r = self.kernel.chunk()
        if sid is not None:
            self.tracer.close(sid)
        self._refs.append(r)
        self.ref_times.append(r)

    def begin(self) -> None:
        self._refs, self._segs, self._steps = [], [], [[]]
        self._span = self.tracer.open("bench.round") if self.tracer is not None else None
        self._ref()
        self._start = time.perf_counter()

    def step(self, dt: float) -> None:
        self._steps[-1].append(dt)

    def tick(self) -> None:
        self._segs.append(time.perf_counter() - self._start)
        self._ref()
        self._steps.append([])
        self._start = time.perf_counter()

    def end(self) -> tuple[float, float, list[float]]:
        """Close the round; return raw seconds, scaled seconds and the
        scaled step latencies in seconds."""
        self._segs.append(time.perf_counter() - self._start)
        self._ref()
        if self._span is not None:
            self.tracer.close(self._span)
        nominal = self.kernel.nominal_s
        scaled, steps = 0.0, []
        for i, seg in enumerate(self._segs):
            f = nominal / (0.5 * (self._refs[i] + self._refs[i + 1]))
            scaled += seg * f
            steps.extend(dt * f for dt in self._steps[i])
        return sum(self._segs), scaled, steps

    def scale(self, seconds: float, before: float, after: float) -> float:
        """Scale an interval timed outside a round by the chunks around it."""
        return seconds * self.kernel.nominal_s / (0.5 * (before + after))

    def median_ref(self) -> float:
        return statistics.median(self.ref_times)
