"""Experiment drivers, their reports and reproducibility, and the CLI exit codes."""

import hashlib
import json

import numpy as np
import pytest

import lrvga.experiments
from lrvga import DivergenceError
from lrvga.cli import main
from lrvga.datasets import RegressionSpec, SyntheticCovSpec, gen_regression_inputs
from lrvga.experiments import (
    CheckpointRow,
    RunReport,
    emit_report,
    log_spaced_checkpoints,
    make_config,
    read_results_csv,
    run_experiment,
)


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


# Tiny configs of every kind: a few seconds in all, several methods each.
TINY = {
    "cov": dict(d=8, p=2, n=40, checkpoints=5, batch_passes=2),
    "linear": dict(d=6, p=[2, 3], n=30, checkpoints=4),
    "logistic": dict(d=5, p=[2], n=30, checkpoints=4, mc_samples=50),
    "nonlinear": dict(
        d=5, p=2, n=20, sigma0=[1.0, 2.0], k_hess=[1, 3], checkpoints=3, mc_samples=30
    ),
}


def _methods(report):
    counts = {}
    for r in report.rows:
        counts[(r.method, r.k)] = counts.get((r.method, r.k), 0) + 1
    return counts


def test_cov_logistic_and_nonlinear_smoke_runs():
    reports = {kind: run_experiment(make_config(kind, **TINY[kind]))
               for kind in ("cov", "logistic", "nonlinear")}
    for kind, report in reports.items():
        assert all(np.isfinite(r.kl) for r in report.rows), kind
        assert all(r.wall_ms is None for r in report.rows), kind

    cov = reports["cov"]
    marks = len(log_spaced_checkpoints(40, 5))
    assert _methods(cov) == {("recursive-em", 0): marks, ("online-em", 0): marks,
                             ("batch-em", 0): 2}
    assert [r.checkpoint for r in cov.rows if r.method == "batch-em"] == [40, 80]
    assert all(r.stderr is None for r in cov.rows)

    logistic = reports["logistic"]
    marks = len(log_spaced_checkpoints(30, 4))
    assert _methods(logistic) == {("lrvga", 0): marks, ("laplace", 0): 1}
    assert all(r.stderr > 0 for r in logistic.rows)
    assert {"final_kl[lrvga,p=2]", "final_kl[laplace]"} <= set(logistic.summary)

    nonlinear = reports["nonlinear"]
    marks = len(log_spaced_checkpoints(20, 3))
    assert _methods(nonlinear) == {
        (f"{name}[s0={s}]", k): marks
        for s in (1, 2) for name, k in (("closed-form", 0), ("sampled", 1), ("sampled", 3))
    }
    assert np.isfinite(nonlinear.summary["final_kl[sampled,s0=2,K=3]"])


def _results_bytes(kind, out):
    emit_report(run_experiment(make_config(kind, **TINY[kind])), out)
    return (out / "results.csv").read_bytes()


@pytest.mark.parametrize("kind", sorted(TINY))
def test_reruns_write_byte_identical_results(kind, tmp_path):
    first = _results_bytes(kind, tmp_path / "a")
    assert first.count(b"\n") > 3
    assert _results_bytes(kind, tmp_path / "b") == first


# SHA-256 of results.csv for each TINY config. A change to any of them
# is a change of output: explain it, then update the digest.
GOLDEN = {
    "cov": "49c364d6d0d78d30c85c85555aba921d8f1ad0c1e1be0bc1ea57f0fb8d555dd2",
    "linear": "3cf30c9de4d406b57ec077f6f1e3c018ad63074ed2de92d1c876550c5efc2f81",
    "logistic": "fae4b6d7a0b08bdbbf7a575bc6692d7c8e7d744f01ae0497b8b8d65248ea4343",
    "nonlinear": "03efbac5b5065d9219741e9bc2644d64f54ef198ed3482a34f9d2405e642201d",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_results_match_the_golden_digest(kind, tmp_path):
    digest = hashlib.sha256(_results_bytes(kind, tmp_path)).hexdigest()
    assert digest == GOLDEN[kind]


def test_report_round_trips_through_results_csv(tmp_path):
    rows = [
        CheckpointRow(1, "lrvga", 5, 0, 0.1 + 0.2, 1e-17, None),
        CheckpointRow(7, "sampled[s0=2]", 5, 10, None, None, None),
        CheckpointRow(9, "kalman", 20, 0, 5.684341886080802e-14, None, 12.5),
    ]
    report = RunReport(make_config("linear"), rows, {"final_kl[lrvga,p=5]": 0.3})
    paths = emit_report(report, tmp_path)
    assert read_results_csv(paths["results"]) == rows
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "checkpoint,method,p,K,kl,stderr,wall_ms"
    assert lines[2] == "7,sampled[s0=2],5,10,,,"


def test_config_echo_reruns_and_rejects_the_removed_k_grad_key(tmp_path):
    out = tmp_path / "run"
    argv = ["--experiment", "cov", "--d", "6", "--p", "2", "--n", "20",
            "--checkpoints", "3", "--methods", "recursive-em"]
    assert main(argv + ["--out", str(out)]) == 0
    echo = json.loads((out / "config.json").read_text())
    assert "k_grad" not in echo
    rerun = tmp_path / "rerun"
    assert main(["--config", str(out / "config.json"), "--out", str(rerun)]) == 0
    assert (rerun / "results.csv").read_bytes() == (out / "results.csv").read_bytes()

    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({**echo, "k_grad": 10}))
    assert main(["--config", str(stale), "--out", str(tmp_path / "stale")]) == 1
    assert main(argv + ["--k-grad", "10", "--out", str(tmp_path / "flag")]) == 1



def test_data_streams_do_not_replay_the_true_parameters():
    """The problem specs draw their parameters from default_rng(seed); no
    stream key may reproduce that generator. When the data key did, the
    first input at c = 0 was exactly theta*/sigma0, and the cov stream's
    first latent draws were the entries of the true loadings."""
    ex = lrvga.experiments
    keys = (ex._SEED_DATA, ex._SEED_LABELS, ex._SEED_FILTER, ex._SEED_EVAL)
    cfg = make_config("linear", d=20, c=0.0, seed=3)
    for key in keys:
        draws = ex._rng(cfg, key, 0).standard_normal(4)
        assert not np.array_equal(draws, np.random.default_rng(3).standard_normal(4))

    spec = RegressionSpec(20, 10, c=0.0, sigma0=1.0, seed=3)
    x1 = next(iter(gen_regression_inputs(spec, ex._rng(cfg, ex._SEED_DATA))))
    theta = spec.truth()
    assert abs(x1 @ theta) / (np.linalg.norm(x1) * np.linalg.norm(theta)) < 0.9

    W, _ = SyntheticCovSpec(20, 5, seed=3).factors()
    latent = ex._rng(make_config("cov", d=20, seed=3), ex._SEED_DATA).standard_normal(W.size)
    assert not np.allclose(latent, W.ravel())
