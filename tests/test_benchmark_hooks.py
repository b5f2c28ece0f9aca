"""The benchmark's hooks into the package: the names its tracer wraps and
the CLI call its warm-up makes."""

import importlib.util
from pathlib import Path

import numpy as np

from lrvga import init_isotropic_prior
from lrvga.cli import main
from lrvga.em import _BlendTarget
from lrvga.experiments import read_results_csv

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _tracer():
    """perfbench/trace.py, loaded by path under another name: ``trace``
    shadows the stdlib."""
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves_to_a_callable():
    """perfbench/trace.py wraps (owner, attribute) pairs by name, so a
    retired name would only fail in a traced benchmark run."""
    tracer = _tracer()
    assert tracer.WRAPS
    missing = [(owner.__name__, attr) for owner, attr, _ in tracer.WRAPS
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_em_cycle_flops_count_the_incoming_block():
    """The tracer reads the block's width from the recursion target's
    ``X``; were that attribute renamed, it would count K = 0 silently."""
    tracer = _tracer()
    d, p, k = 50, 4, 3
    prev = init_isotropic_prior(d, p, 1.0, rng=0)
    target = _BlendTarget(prev, np.ones((d, k)), 1.0, 1.0)
    extra = tracer.em_cycle_flops(prev, target) - tracer.em_cycle_flops(prev, object())
    assert extra == 4 * d * k * p


def test_the_nonlinear_warm_up_call_runs_and_reports_positive_errors(tmp_path):
    """perfbench/workloads.py warms up with this call and does not check
    its exit code, so a flag the CLI stopped accepting (``--mc-samples``)
    would only shorten the warm-up. Its results.csv must also carry a
    positive error in every row: the benchmark divides each KL drop by
    them."""
    out = tmp_path / "warm"
    argv = ["--experiment", "nonlinear", "--sigma0", "2", "--k-hess", "1,2", "--n", "30",
            "--checkpoints", "3", "--mc-samples", "20", "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    rows = read_results_csv(out / "results.csv")
    assert rows and all(r.stderr > 0 for r in rows)
