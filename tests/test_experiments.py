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


@pytest.mark.parametrize("argv", [
    ["--experiment", "linear", "--d", "10", "--n", "20", "--checkpoints", "2"],
    ["--experiment", "nonlinear", "--n", "20", "--checkpoints", "2", "--k-hess", "1"],
])
def test_track_memory_is_refused_where_nothing_is_metered(argv, tmp_path, capsys):
    """Only linear runs above the dense limit meter their allocations."""
    out = tmp_path / "run"
    assert main(argv + ["--track-memory", "--out", str(out)]) == 1
    assert "track_memory meters only" in capsys.readouterr().err
    assert not out.exists()


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
    "logistic": "ed05bbffeaac9c8c25b841042df526c46e9b6deeb9a3c46e676ccc6208c20bbb",
    "nonlinear": "e53164b997f0acf5d1d5b93754c674ccd9db62f21ba81379d0c9dadf304ed974",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_results_match_the_golden_digest(kind, tmp_path):
    digest = hashlib.sha256(_results_bytes(kind, tmp_path)).hexdigest()
    assert digest == GOLDEN[kind]


def test_wider_cov_run_matches_the_golden_digest(tmp_path):
    """A cov run long enough for the online-EM Polyak-Ruppert average to
    span 100 iterates. The TINY cov config averages only 20, and misses a
    change of array layout in the average that moves its KLs by about
    1e-12 relative; this one catches it. The digest is the same at one
    and two BLAS threads."""
    cfg = make_config("cov", d=20, p=3, n=200, checkpoints=20, batch_passes=2, seed=3)
    emit_report(run_experiment(cfg), tmp_path)
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == "27c84f9ba6b321d5afea13d6969176c7212f1b47eb0d39c6b92855c7c6d614ed"


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


def _write_dataset(path):
    """80 rows of d=30 LIBSVM data, about 30% of entries zero, labels +-1."""
    rng = np.random.default_rng(2303)
    X = rng.standard_normal((80, 30))
    X[rng.random(X.shape) < 0.3] = 0.0
    labels = rng.choice([-1, 1], size=80)
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(labels, X):
            feats = " ".join(f"{i + 1}:{float(row[i])!r}" for i in np.flatnonzero(row))
            fh.write(f"{label:+d} {feats}\n")


# SHA-256 of results.csv for a covariance run on the file above, under
# each normalization mode.
DATASET_GOLDEN = {
    "mean-norm": "1e6ab9aa95a273746c1f72606759c7d99ca3fd92c0c314cffb8f1fb6958666c8",
    "none": "5b1da0035453b578524ddcaafdbcffe9762e64eaa0d10718efb40f3cb546aabe",
}


@pytest.mark.parametrize("mode", sorted(DATASET_GOLDEN))
def test_dataset_runs_match_the_golden_digest(mode, tmp_path):
    data = tmp_path / "data.txt"
    _write_dataset(data)
    out = tmp_path / "run"
    argv = ["--experiment", "cov", "--dataset", str(data), "--n", "60", "--p", "3",
            "--checkpoints", "5", "--batch-passes", "2", "--normalize", mode,
            "--out", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == DATASET_GOLDEN[mode]


@pytest.mark.parametrize("content, message", [
    ("1 1:0.5 2:1.0\nabc 1:1\n", "line 2: bad label 'abc'"),
    (None, "cannot read dataset"),
    ("1 1:0.0 2:0.0\n-1 1:0.0\n1 2:0.0\n", "no usable scale"),
    ("1 1:0.5\n-1 1:1.5\n", "factor rank 2 exceeds the dataset dimension 1"),
])
def test_bad_datasets_exit_with_code_1(content, message, tmp_path, capsys):
    data = tmp_path / "data.txt"
    if content is not None:
        data.write_text(content)
    argv = ["--experiment", "cov", "--dataset", str(data), "--p", "2",
            "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "run").exists()


def _write_eleven_features(path, missing):
    """60 LIBSVM rows with d = 11, every entry nonzero except feature ``missing``."""
    X = np.random.default_rng(11).uniform(0.5, 1.5, (60, 11))
    with open(path, "w", encoding="utf-8") as fh:
        for row in X:
            feats = (f"{i}:{float(v)!r}" for i, v in enumerate(row, start=1) if i != missing)
            fh.write(f"1 {' '.join(feats)}\n")


@pytest.mark.parametrize("n, missing, message", [
    (50, 3, "rank 10 < d = 11 (no row read has feature 3)"),
    (8, None, "rank 8 < d = 11 (8 rows cannot span 11 dimensions)"),
    (8, 3, "rank 8 < d = 11 (no row read has feature 3)"),
])
def test_datasets_that_do_not_span_exit_with_code_1(n, missing, message, tmp_path, capsys):
    """The reference covariance of a dataset run is the second moment of
    the first n rows; when they do not span R^d it is singular, and the
    run is refused before it starts."""
    data = tmp_path / "data.txt"
    _write_eleven_features(data, missing)
    argv = ["--experiment", "cov", "--dataset", str(data), "--n", str(n), "--p", "2",
            "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "run").exists()


def test_dataset_of_dependent_rows_is_refused(tmp_path):
    data = tmp_path / "data.txt"
    pairs = [(1, 2), (2, 4), (3, 1), (1, 5)]  # features 1 and 2 are equal in every row
    data.write_text("".join(f"1 1:{a} 2:{a} 3:{b}\n" for a, b in pairs))
    with pytest.raises(lrvga.experiments.ConfigError, match="rows read are linearly dependent"):
        lrvga.experiments._cov_data(make_config("cov", dataset=str(data), p=1))


@pytest.mark.parametrize("flags, config", [
    (["--d", "30", "--p-true", "500"], None),
    (["--d", "30", "--p-true", "0"], None),
    (["--seed", "-1"], None),
    ([], {"p": "abc"}),
    ([], {"n": "ten"}),
    ([], {"d": 20.5}),
    ([], {"sigma0": float("nan")}),
], ids=["p_true-above-d", "p_true-zero", "seed-negative", "p-string", "n-string",
        "d-fraction", "sigma0-nan"])
def test_config_values_of_the_wrong_range_or_type_exit_with_code_1(
    flags, config, tmp_path, capsys
):
    """Each case raised out of ``main`` or ran with other values: a
    generator rank above d, a zero one (read as "unset"), a negative seed,
    and config-file
    values of the wrong type, a non-integral count or a non-finite real."""
    argv = ["--experiment", "cov", "--checkpoints", "2", "--out", str(tmp_path / "run"), *flags]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


def test_config_counts_accept_integral_floats_only():
    cfg = make_config("cov", d=20.0, p=3.0, n=50, sigma0=2, methods="batch-em")
    assert (cfg.d, cfg.p, cfg.sigma0, cfg.methods) == (20, [3], [2.0], ["batch-em"])
    assert type(cfg.d) is int
    for bad in (dict(d=True), dict(normalize=1), dict(record_timing="yes"), dict(p=[2, 2.5]),
                dict(c=float("inf"))):
        with pytest.raises(lrvga.experiments.ConfigError):
            make_config("cov", **bad)


def test_cov_inputs_are_scaled_to_mean_squared_norm_d():
    """Under "mean-norm" the first 100 samples have mean squared norm d,
    and the reference covariance is scaled to match; "none" leaves both."""
    base = dict(d=6, p=2, n=150, checkpoints=0, methods=["batch-em"])
    V, S_ref, info = lrvga.experiments._cov_data(make_config("cov", **base))
    raw, S_raw, info_raw = lrvga.experiments._cov_data(
        make_config("cov", normalize="none", **base))
    scale = info["normalization_scale"]
    assert np.mean(np.sum(V[:100] ** 2, axis=1)) == pytest.approx(6.0, rel=1e-12)
    assert info_raw["normalization_scale"] == 1.0
    assert np.array_equal(V, raw * scale)
    assert np.allclose(S_ref, scale**2 * S_raw, rtol=1e-14)
