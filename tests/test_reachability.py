"""Every ``lrvga`` function is reached by some CLI run, or is listed here
with the reason it is kept. Dead code then shows as a failing test."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# The functions no run below calls, each with the reason it stays.
UNREACHED = {
    "cli._Parser.error": "error path: a flag argparse refuses exits 1",
    "evaluation.mc_kl_to_posterior": "perfbench trap: trace.py wraps it in lrvga.experiments",
    "experiments.read_results_csv": "public API kept on purpose: reads back emit_report",
    "factor.spd_solve": "error path: the fallback of `_cholesky_solve`",
    "filters.NonlinearModel.index_moments": "public API kept on purpose: the model protocol",
    "filters._bisect": "error path: Newton stops short under a vague prior",
    "filters._bracketed_scalars": "error path: Newton stops short under a vague prior",
    "filters.ggn_block": "perfbench trap: trace.py wraps it in lrvga.filters",
    "sampler.EnsembleSampler.__init__": "perfbench trap: trace.py wraps it",
    "sampler.EnsembleSampler.draw": "perfbench trap: trace.py wraps it",
}

# Records every lrvga code object called from the first import on, so
# calls made at import time count, then runs main once per argv. Prints
# the exit codes and the functions never called, as "module.qualname";
# a function nested in one never called is left out with it.
_RUNNER = """
import contextlib, io, json, sys, types
from pathlib import Path

called = set()
sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
import lrvga.cli

out, runs = Path(sys.argv[1]), json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [lrvga.cli.main(argv + ["--out", str(out / str(i))]) for i, argv in enumerate(runs)]
sys.setprofile(None)

package = Path(lrvga.__file__).parent


def nested(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from nested(const)


def name(code):
    return Path(code.co_filename).stem + "." + code.co_qualname


every = {name(c) for path in package.glob("*.py")
         for c in nested(compile(path.read_text(), str(path), "exec"))}
reached = {name(c) for c in called if Path(c.co_filename).parent == package}
unreached = [n for n in sorted(every - reached)
             if n.rsplit(".<locals>.", 1)[0] in (n, *reached)]
print(json.dumps(dict(codes=codes, unreached=unreached)))
"""


def _write_dataset(path):
    """40 LIBSVM rows with d = 6, about 30% of entries zero."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 6))
    X[rng.random(X.shape) < 0.3] = 0.0
    path.write_text("".join(
        "1 " + " ".join(f"{j}:{v!r}" for j, v in enumerate(row, start=1) if v) + "\n"
        for row in X.tolist()))


def test_every_function_is_reached_by_a_cli_run_or_listed(tmp_path):
    data = tmp_path / "data.txt"
    _write_dataset(data)
    small = ["--n", "20", "--checkpoints", "2"]
    runs = [
        ["linear", "--d", "10", "--p", "2,3"],
        ["linear", "--d", "700", "--c", "0", "--p", "2,3", "--track-memory"],
        ["logistic"],
        *(["nonlinear", "--scheme", scheme, "--sigma0", "1", "--k-hess", "1,2"]
          for scheme in ("explicit", "mirror-prox-full", "mirror-prox-skip-cov")),
        ["cov", "--d", "8", "--p", "2", "--batch-passes", "2"],
        *(["cov", "--dataset", str(data), "--p", "2", "--batch-passes", "2", "--normalize", mode]
          for mode in ("mean-norm", "none")),
    ]
    runs = [["--experiment", *argv, *small] for argv in runs]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(tmp_path), json.dumps(runs)],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(runs)
    assert result["unreached"] == sorted(UNREACHED)
