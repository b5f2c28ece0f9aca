"""In-memory spans around calls into each ``lrvga`` layer.

The benchmark wraps every public function it traces under the name the
calling module uses (``filters`` imports ``recursive_em_update`` directly,
so the wrapper is installed as ``lrvga.filters.recursive_em_update``).
Methods are wrapped on their class. Spans are kept in memory as
[name, start_ns, end_ns, parent] lists and written out when the run ends.
A span's self time is its duration minus the durations of its children;
a layer's self time is the sum over its spans (``filters.step`` belongs
to layer ``filters``). Counts are the number of spans of each name.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import lrvga.cli
import lrvga.em
import lrvga.experiments
import lrvga.factor
import lrvga.filters
import lrvga.sampler


def em_cycle_flops(fa, target, *args, **kwargs) -> float:
    """Floating-point operations of one em_fixed_point_step, computed from
    array shapes: the d x p products of the Gram matrix, the target, the
    projection and the two solves (12 d p^2), the incoming d x K block's
    product (4 d K p) and the elementwise work (8 d p)."""
    d, p = fa.W.shape
    k = target.X.shape[1] if hasattr(target, "X") else 0
    return 12.0 * d * p * p + 4.0 * d * k * p + 8.0 * d * p


# (owner, attribute, span name). Only call sites that the three workloads
# reach are listed.
WRAPS = (
    (lrvga.filters, "lrvga_linear_step", "filters.step"),
    (lrvga.experiments, "lrvga_logistic_step", "filters.step"),
    (lrvga.experiments, "lrvga_nonlinear_step", "filters.step"),
    (lrvga.filters, "ggn_block", "filters.ggn"),
    (lrvga.filters, "recursive_em_update", "em.update"),
    (lrvga.em, "em_fixed_point_step", "em.cycle"),
    (lrvga.filters, "woodbury_apply", "factor.woodbury"),
    (lrvga.experiments, "woodbury_apply", "factor.woodbury"),
    (lrvga.em, "spd_solve", "factor.spd_solve"),
    (lrvga.factor, "spd_solve", "factor.spd_solve"),
    (lrvga.sampler, "spd_solve", "factor.spd_solve"),
    (lrvga.em, "latent_gram", "factor.latent_gram"),
    (lrvga.factor, "latent_gram", "factor.latent_gram"),
    (lrvga.sampler, "latent_gram", "factor.latent_gram"),
    (lrvga.factor, "init_isotropic_prior", "factor.init"),
    (lrvga.experiments, "init_isotropic_prior", "factor.init"),
    (lrvga.factor.FaPrecision, "__post_init__", "factor.validate"),
    (lrvga.sampler.EnsembleSampler, "__init__", "sampler.build"),
    (lrvga.sampler.EnsembleSampler, "draw", "sampler.draw"),
    (lrvga.experiments, "mc_kl_to_posterior", "evaluation.mc_kl"),
    (lrvga.experiments, "laplace_logistic", "evaluation.laplace"),
    (lrvga.cli, "run_experiment", "experiments.run"),
    (lrvga.cli, "emit_report", "cli.emit"),
)

def patch(wraps) -> list:
    """Replace ``owner.attr`` by ``make(original)`` for each
    (owner, attribute, make); return what ``restore`` needs."""
    saved = []
    for owner, attr, make in wraps:
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn))
    return saved


def restore(saved: list) -> None:
    """Undo ``patch``, last replacement first."""
    for owner, attr, fn in reversed(saved):
        setattr(owner, attr, fn)


LAYERS = ("filters", "em", "factor", "sampler", "evaluation", "experiments", "cli", "bench")


class Tracer:
    """Span recorder. ``open`` returns the span's index, ``close`` ends it."""

    def __init__(self):
        self.spans: list[list] = []
        self.flops = 0.0  # computed em.cycle flops, see em_cycle_flops
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "em.cycle":
                self.flops += em_cycle_flops(*args, **kwargs)
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def install(self) -> list:
        """Install every wrapper; return what ``restore`` needs."""
        return patch((owner, attr, functools.partial(self.wrap, name=name))
                     for owner, attr, name in WRAPS)

    def summary(self, first: int, last: int) -> tuple[dict, dict, dict]:
        """Self seconds, inclusive seconds and counts per span name over
        spans[first:last], which must hold whole span trees."""
        child = defaultdict(int)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= first:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        incl_s: dict = defaultdict(float)
        counts: dict = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans[first:last], start=first):
            self_s[name] += (end - start - child[i]) * 1e-9
            incl_s[name] += (end - start) * 1e-9
            counts[name] += 1
        return dict(self_s), dict(incl_s), dict(counts)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)
