"""Coarse accounting of auxiliary memory used by a run.

The meter wraps tracemalloc, which numpy reports its buffer allocations
to, so the measured peak covers filter state and workspace arrays
allocated inside the metered window. The contract budget is expressed in
bytes-equivalent of the factored state: a run in dimension d with rank p
may use at most 64 d (p + 2) bytes of auxiliary storage, eight times the
8 d (p + 2) bytes the state itself occupies in float64. Any d x d
allocation blows through that budget for d beyond a few dozen, so staying
under it also certifies the no-quadratic-storage rule.
"""

from __future__ import annotations

import tracemalloc


def contract_budget_bytes(d: int, p: int) -> int:
    """Auxiliary allocation budget: 64 d (p + 2) bytes."""
    return 64 * d * (p + 2)


class MemoryMeter:
    """Context manager recording the peak traced allocation in bytes.

    Only allocations made inside the ``with`` block count, so start the
    meter before the state is initialized to capture the whole run.
    """

    def __init__(self):
        self.peak_bytes: int | None = None
        self._started_here = False

    def __enter__(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_here = True
        tracemalloc.reset_peak()
        return self

    def __exit__(self, exc_type, exc, tb):
        _, peak = tracemalloc.get_traced_memory()
        self.peak_bytes = int(peak)
        if self._started_here:
            tracemalloc.stop()
        return False
