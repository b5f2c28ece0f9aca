"""Experiment drivers at their shipped defaults, and the CLI exit codes."""

import numpy as np

import lrvga.experiments
from lrvga import DivergenceError
from lrvga.cli import main
from lrvga.experiments import make_config, run_experiment


def test_default_linear_run_converges():
    cfg = make_config("linear", n=200, checkpoints=8)
    assert (cfg.d, cfg.p, cfg.eps_init) == (100, [5], 0.01)
    report = run_experiment(cfg)
    kl = [r.kl for r in report.rows if r.method == "lrvga"]
    assert len(kl) >= 2
    assert np.all(np.isfinite(kl))
    assert all(v < kl[0] for v in kl[1:])
    assert kl[-1] < 0.1 * kl[0]


def test_cli_rejects_unknown_scheme(tmp_path):
    argv = ["--experiment", "nonlinear", "--scheme", "bogus", "--out", str(tmp_path)]
    assert main(argv) == 1


def test_cli_reports_divergence_with_exit_code_2(tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise DivergenceError("mean norm exceeds the limit")

    monkeypatch.setattr(lrvga.experiments, "lrvga_linear_step", diverge)
    out = tmp_path / "run"
    argv = [
        "--experiment", "linear", "--d", "5", "--p", "2", "--n", "5",
        "--checkpoints", "2", "--out", str(out),
    ]
    assert main(argv) == 2
    assert not (out / "results.csv").exists()


def test_cli_reports_unwritable_output(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    argv = [
        "--experiment", "linear", "--d", "5", "--p", "2", "--n", "5",
        "--checkpoints", "2", "--out", str(blocker / "run"),
    ]
    assert main(argv) == 3


def test_cli_small_nonlinear_run(tmp_path):
    out = tmp_path / "run"
    argv = [
        "--experiment", "nonlinear", "--n", "30", "--checkpoints", "3",
        "--mc-samples", "20", "--k-hess", "1,2", "--out", str(out),
    ]
    assert main(argv) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) > 1
    assert (out / "config.json").exists() and (out / "summary.txt").exists()
