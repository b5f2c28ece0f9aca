"""Experiment drivers, their reports and reproducibility, and the CLI exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import lrvga.experiments
import lrvga.filters
from lrvga import DivergenceError, FaPrecision, covariance_fit_kl, init_isotropic_prior
from lrvga.cli import build_parser, config_from_args, main
from lrvga.datasets import RegressionSpec, SyntheticCovSpec, gen_regression_inputs
from lrvga.experiments import (
    COV_METHODS,
    EXPERIMENT_KINDS,
    CheckpointRow,
    ExperimentConfig,
    RunReport,
    emit_report,
    log_spaced_checkpoints,
    make_config,
    read_results_csv,
    run_experiment,
)
from lrvga.memory import contract_budget_bytes

from oracles import em_reference_step


def test_default_linear_run_converges():
    cfg = make_config("linear", n=200, checkpoints=8)
    assert (cfg.d, cfg.p) == (100, [5])
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


# A value other than the default for every config field but kind.
NON_DEFAULT = dict(
    d=700, p=[3, 4], n=50, k_hess=[2, 5], inner_loops=2, sigma0=[0.5, 2.0], c=0.0,
    seed=7, scheme="explicit", dataset="data.txt", out_dir="elsewhere", checkpoints=3,
    methods=["online-em", "batch-em"], p_true=2, mc_samples=20, batch_passes=2,
    normalize="none", record_timing=True, track_memory=True,
)


def test_every_config_field_but_kind_is_one_flag_with_help():
    flags = {}
    for action in build_parser()._actions:
        flags.setdefault(action.dest, []).append(action)
    names = {f.name for f in fields(ExperimentConfig)} - {"kind"}
    assert set(flags) == names | {"help", "experiment", "config"}
    for name in names:
        (action,) = flags[name]
        assert len(action.option_strings) == 1 and action.help.strip(), name
    assert flags["out_dir"][0].option_strings == ["--out"]


def test_help_names_the_run_kinds_that_read_each_option():
    """A flag whose option only some run kinds read names exactly those
    kinds in its help; cov reads neither c nor sigma0."""
    helps = {action.dest: action.help for action in build_parser()._actions}
    kinds_named = re.compile(rf"\b({'|'.join(EXPERIMENT_KINDS)})\b").findall
    for option in fields(ExperimentConfig)[1:]:
        if option.metadata["kinds"] is not None:
            assert set(kinds_named(helps[option.name])) == set(option.metadata["kinds"]), option
    for name in ("c", "sigma0"):
        assert set(kinds_named(helps[name])) == {"linear", "logistic", "nonlinear"}


def test_flags_set_to_other_values_build_the_config_make_config_builds(monkeypatch):
    """Every flag, spelled ``--`` and its field's name with dashes, set to
    a value other than its default. No run takes both a dataset and
    track_memory, so validation is off: the mapping is under test."""
    defaults = ExperimentConfig(kind="linear")
    assert set(NON_DEFAULT) == {f.name for f in fields(ExperimentConfig)} - {"kind"}
    assert all(getattr(defaults, k) != v for k, v in NON_DEFAULT.items())
    argv = ["--experiment", "linear"]
    for name, value in NON_DEFAULT.items():
        argv.append("--out" if name == "out_dir" else "--" + name.replace("_", "-"))
        if isinstance(value, list):
            argv.append(",".join(map(str, value)))
        elif not isinstance(value, bool):
            argv.append(str(value))
    monkeypatch.setattr(lrvga.experiments, "_validate", lambda cfg: None)
    assert config_from_args(argv) == make_config("linear", **NON_DEFAULT)
    monkeypatch.undo()
    assert config_from_args(["--experiment", "nonlinear", "--mc-samples", "20"]).mc_samples == 20


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


def test_record_timing_fills_wall_ms_and_changes_no_other_column():
    """Each row's wall_ms is the time since its method's run began."""
    untimed = run_experiment(make_config("linear", **TINY["linear"])).rows
    timed = run_experiment(make_config("linear", record_timing=True, **TINY["linear"])).rows
    assert [replace(r, wall_ms=None) for r in timed] == untimed
    for method, p in {(r.method, r.p) for r in timed}:
        wall = [r.wall_ms for r in timed if (r.method, r.p) == (method, p)]
        assert len(wall) > 1 and wall[0] >= 0.0 and wall == sorted(wall), (method, p)


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
    "cov": "127f66609a1f4aba6b07575ca42f33b4a37e481dfa2be8ae98e9af2b7d02abe8",
    "linear": "ef1b8f8f90338e38f57a74c049ec2015bed168eb18897b88d884af0f88e4d7bc",
    "logistic": "38b294fc40b682f3a0450e7a9ee0cd8028e05484fabc4ca393a5e88ee8dbc108",
    "nonlinear": "de9c43638135894f4dc7d08847a3b428178a448a0608a840a9942d4935c2dfe2",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_results_match_the_golden_digest(kind, tmp_path):
    digest = hashlib.sha256(_results_bytes(kind, tmp_path)).hexdigest()
    assert digest == GOLDEN[kind]


_GOLDEN_RUNNER = """
import hashlib, json, sys
from pathlib import Path
from lrvga.experiments import emit_report, make_config, run_experiment
digests = {}
for name, (kind, kwargs) in json.loads(sys.argv[1]).items():
    out = Path(sys.argv[2]) / name
    emit_report(run_experiment(make_config(kind, **kwargs)), out)
    digests[name] = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
print(json.dumps(digests))
"""


WIDER_COV = dict(d=20, p=3, n=200, checkpoints=20, batch_passes=2, seed=3)
WIDER_COV_GOLDEN = "ec9cf4bbd3338be95dd8339c6962cf998c721a5f3387e32c64d09965ec4ff1d2"


def test_wider_cov_run_matches_the_golden_digest(tmp_path):
    """A cov run long enough for the online-EM Polyak-Ruppert average to
    span 100 iterates. The TINY cov config averages only 20, and misses a
    change of array layout in the average that moves its KLs by about
    1e-12 relative; this one catches it. The digest is the same at one
    and two BLAS threads (``test_golden_digests_hold_at_two_blas_threads``)."""
    emit_report(run_experiment(make_config("cov", **WIDER_COV)), tmp_path)
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == WIDER_COV_GOLDEN


def test_cov_recursive_em_final_kl_does_not_depend_on_rounding(monkeypatch):
    """Switching the Cholesky factorizations from the lower to the upper
    triangle changes rounding and nothing else: the final KL of
    ``cov --methods recursive-em`` at d=20, p=3, n=200 must move by at
    most 1% relative at seeds 1-5. A first step that fits a rank-1
    target by EM and floors psi moves it by 1-16% under this switch."""
    from scipy.linalg import lapack

    def final_kls():
        cfgs = [make_config("cov", d=20, p=3, n=200, methods=["recursive-em"], seed=seed)
                for seed in range(1, 6)]
        return np.array([run_experiment(cfg).rows[-1].kl for cfg in cfgs])

    lower = final_kls()
    posv, potrf, potrs = lapack.dposv, lapack.dpotrf, lapack.dpotrs
    monkeypatch.setattr(lapack, "dposv", lambda a, b, lower=0, **kw: posv(a, b, lower=0))
    monkeypatch.setattr(lapack, "dpotrf", lambda a, lower=0, **kw: potrf(a, lower=0))
    monkeypatch.setattr(lapack, "dpotrs", lambda c, b, lower=0, **kw: potrs(c, b, lower=0))
    upper = final_kls()
    assert np.all(np.isfinite(lower)) and np.all(lower > 0.0)
    assert np.all(np.abs(upper - lower) <= 0.01 * lower)


def test_cov_recursive_em_discards_its_prior(monkeypatch):
    """Recursive-em builds no prior: it starts from W = 0, psi = 1, which
    its first update, at alpha = (t - 1) / t = 0, discards. So its rows do
    not move when the prior's eps goes from 0.01 to 0.3, sigma0 is scaled
    by 100 and the random columns are redrawn. The online-em and batch-em
    rows move: their EM recursions start from the prior."""
    original = lrvga.experiments.init_isotropic_prior

    def other_prior(d, p, sigma0, eps=0.01, rng=None):
        return original(d, p, 100.0 * sigma0, 0.3, np.random.default_rng(99))

    for seed in (1, 3, 5):
        cfg = make_config("cov", seed=seed, **TINY["cov"])
        shipped = run_experiment(cfg).rows
        monkeypatch.setattr(lrvga.experiments, "init_isotropic_prior", other_prior)
        moved = run_experiment(cfg).rows
        monkeypatch.undo()
        for method in COV_METHODS:
            same = [r for r in shipped if r.method == method] == [
                r for r in moved if r.method == method]
            assert same == (method == "recursive-em"), (seed, method)


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


_HEADER = "checkpoint,method,p,K,kl,stderr,wall_ms\n"


@pytest.mark.parametrize("text, message", [
    ("checkpoint,method,p,K,kl,stderr\n1,lrvga,5,0,0.5,\n", "unexpected header"),
    (_HEADER + "1,lrvga,5,0,0.5,\n", "not enough values"),
    (_HEADER + "1,lrvga,5,0,0.5,,,\n", "too many values"),
    (_HEADER + "1.5,lrvga,5,0,0.5,,\n", "invalid literal for int"),
], ids=["header", "6-fields", "8-fields", "checkpoint"])
def test_read_results_csv_refuses_a_malformed_file(text, message, tmp_path):
    """A wrong header, a row of 6 or 8 fields and a non-integer checkpoint
    each raise ValueError; blank lines between rows are skipped."""
    path = tmp_path / "results.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_results_csv(path)
    path.write_text(_HEADER + "\n1,lrvga,5,0,0.5,,\n\n\n2,lrvga,5,0,,,1.5\n\n")
    assert read_results_csv(path) == [CheckpointRow(1, "lrvga", 5, 0, 0.5, None, None),
                                      CheckpointRow(2, "lrvga", 5, 0, None, None, 1.5)]


@pytest.mark.parametrize("key, value", [("k_grad", 10), ("eps_init", 0.2)],
                         ids=["k_grad", "eps_init"])
def test_config_echo_reruns_and_rejects_a_removed_key(key, value, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["--experiment", "cov", "--d", "6", "--p", "2", "--n", "20",
            "--checkpoints", "3", "--methods", "recursive-em"]
    assert main(argv + ["--out", str(out)]) == 0
    echo = json.loads((out / "config.json").read_text())
    assert key not in echo
    rerun = tmp_path / "rerun"
    assert main(["--config", str(out / "config.json"), "--out", str(rerun)]) == 0
    assert (rerun / "results.csv").read_bytes() == (out / "results.csv").read_bytes()

    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({**echo, key: value}))
    capsys.readouterr()
    assert main(["--config", str(stale), "--out", str(tmp_path / "stale")]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    flag = "--" + key.replace("_", "-")
    assert main(argv + [flag, str(value), "--out", str(tmp_path / "flag")]) == 1


def test_data_streams_do_not_replay_the_true_parameters():
    """The problem specs draw their parameters from default_rng(seed); no
    stream key may reproduce that generator. When the data key did, the
    first input at c = 0 was exactly theta*/sigma0, and the cov stream's
    first latent draws were the entries of the true loadings."""
    ex = lrvga.experiments
    keys = (ex._SEED_DATA, ex._SEED_LABELS, ex._SEED_FILTER)
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


# The options of a covariance run on the file above, besides the file and
# the normalization mode, and the SHA-256 of its results.csv under each mode.
DATASET_RUN = dict(n=60, p=3, checkpoints=5, batch_passes=2)
DATASET_GOLDEN = {
    "mean-norm": "0448bb99502ddf387102e139110cd527af2c9529af14290297e43567d1962826",
    "none": "e5c4daaaf8eebe36207ed9655773f3ddcabf9d3fbd304334c5bccbffd6be956e",
}


@pytest.mark.parametrize("mode", sorted(DATASET_GOLDEN))
def test_dataset_runs_match_the_golden_digest(mode, tmp_path):
    """Through the CLI; the digests are the same at one and two BLAS
    threads (``test_golden_digests_hold_at_two_blas_threads``)."""
    data = tmp_path / "data.txt"
    _write_dataset(data)
    out = tmp_path / "run"
    argv = ["--experiment", "cov", "--dataset", str(data), "--normalize", mode, "--out", str(out)]
    for key, value in DATASET_RUN.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert main(argv) == 0
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == DATASET_GOLDEN[mode]


def test_golden_digests_hold_at_two_blas_threads(tmp_path):
    """The TINY runs, the wider cov run and the dataset runs again with two
    BLAS threads, which may split a product's reductions differently: the
    goldens must not change. The thread count is read when numpy loads, so
    the runs go to a fresh interpreter with the count pinned in its
    environment."""
    data = tmp_path / "data.txt"
    _write_dataset(data)
    runs = {kind: (kind, kwargs) for kind, kwargs in TINY.items()}
    runs["wider-cov"] = ("cov", WIDER_COV)
    expected = {**GOLDEN, "wider-cov": WIDER_COV_GOLDEN}
    for mode, digest in DATASET_GOLDEN.items():
        runs[f"dataset-{mode}"] = ("cov", dict(DATASET_RUN, dataset=str(data), normalize=mode))
        expected[f"dataset-{mode}"] = digest
    src = str(Path(__file__).resolve().parents[1] / "src")
    pins = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "2")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _GOLDEN_RUNNER, json.dumps(runs), str(tmp_path)],
        env={**os.environ, **pins, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == expected


# The shapes the benchmark runs: linear at its defaults (d = 100, p = 5,
# n = 1000) and the nonlinear-cli workload's run, the latter also under
# the two other schemes, all at seed 3, with the SHA-256 of their
# results.csv at one BLAS thread.
BENCH_SHAPED_RUNS = {
    "linear-defaults": ("linear", dict(seed=3)),
    "nonlinear-bench": ("nonlinear", dict(sigma0=2.0, k_hess=[1, 10, 100], seed=3)),
    **{f"nonlinear-bench-{scheme}": (
        "nonlinear", dict(sigma0=2.0, k_hess=[1, 10, 100], seed=3, scheme=scheme))
       for scheme in ("explicit", "mirror-prox-full")},
}
BENCH_SHAPED_GOLDEN = {
    "linear-defaults": "243eeaa676149c8459bb8681b9cd8ff3a7a113b7218c8a045162fc9e3987eea4",
    "nonlinear-bench": "d8de2db73e29c1fba5fe7624faccb73cd54f59072095cc7a7cf73be4cfa22fe2",
    "nonlinear-bench-explicit":
        "8dcc926c35d186096c11e896060321518a5f3c82b2ff07c42b8c761e082cf751",
    "nonlinear-bench-mirror-prox-full":
        "c2a076aeec4f61905883faaae6977ca8732f0a29e0438b2ccc3b9614523e7512",
}


def test_benchmark_shaped_runs_match_their_golden_digests(tmp_path):
    """The TINY goldens stop at d = 8, n = 40; these pin the bytes at the
    benchmark's shapes, where a step runs its general cycles at d = 100
    and the nonlinear filters their K = 100 draws. The runs go to a fresh
    interpreter with one BLAS thread, as the benchmark pins it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pins = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _GOLDEN_RUNNER, json.dumps(BENCH_SHAPED_RUNS), str(tmp_path)],
        env={**os.environ, **pins, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == BENCH_SHAPED_GOLDEN


def _textbook_batch_em_kls(cfg):
    """The KLs of a cov run's batch-em rows replayed by ``em_reference_step``,
    the dense textbook EM, on S = V^T V / n from the run's own prior."""
    ex = lrvga.experiments
    V, S_ref, _ = ex._cov_data(cfg)
    n, d = V.shape
    prior = init_isotropic_prior(d, cfg.p[0], ex._s0_guess(V, d),
                                 rng=ex._rng(cfg, ex._SEED_FILTER, 2))
    S, W, psi, kls = V.T @ V / n, prior.W, prior.psi, []
    for _ in range(cfg.batch_passes):
        W, psi = em_reference_step(W, psi, S)
        kls.append(covariance_fit_kl(FaPrecision(W, psi), S_ref))
    return kls


@pytest.mark.parametrize("seed, dataset", [(1, False), (3, False), (5, False), (1, True)],
                         ids=["tiny-1", "tiny-3", "tiny-5", "dataset"])
def test_batch_em_rows_match_the_textbook_dense_em(seed, dataset, tmp_path):
    """Every batch-em KL is within 1e-10 relative of the dense textbook EM's,
    which shares no code with ``lrvga.em``, on the TINY cov config and on
    a dataset run."""
    kwargs = dict(TINY["cov"], seed=seed)
    if dataset:
        _write_dataset(tmp_path / "data.txt")
        kwargs = dict(DATASET_RUN, dataset=str(tmp_path / "data.txt"), seed=seed)
    cfg = make_config("cov", methods=["batch-em"], **kwargs)
    got = [r.kl for r in run_experiment(cfg).rows]
    expected = _textbook_batch_em_kls(cfg)
    assert len(got) == cfg.batch_passes
    assert np.allclose(got, expected, rtol=1e-10, atol=0.0)


def _rows_with_nan(n, row):
    """n LIBSVM rows with d = 5, feature 3 of ``row`` nan."""
    X = np.random.default_rng(12).uniform(0.5, 1.5, (n, 5))
    X[row - 1, 2] = np.nan
    return "".join("1 " + " ".join(f"{j}:{v!r}" for j, v in enumerate(r, start=1)) + "\n"
                   for r in X.tolist())


@pytest.mark.parametrize("content, message", [
    ("1 1:0.5 2:1.0\nabc 1:1\n", "line 2: bad label 'abc'"),
    (None, "cannot read dataset"),
    ("1 1:0.0 2:0.0\n-1 1:0.0\n1 2:0.0\n", "no usable scale"),
    ("1 1:0.5\n-1 1:1.5\n", "factor rank 2 exceeds the dataset dimension 1"),
    pytest.param(_rows_with_nan(150, 121), "line 121: non-finite value '3:nan'",
                 id="nan-in-row-121"),
    pytest.param(("1 1:nan 2:1.0\n-1 1:1.0 2:2.0\n1 1:2.0 2:0.5\n", "none"),
                 "line 1: non-finite value '1:nan'", id="nan-in-row-1-unnormalized"),
])
def test_bad_datasets_exit_with_code_1(content, message, tmp_path, capsys):
    """``content`` is the file, or the pair (file, normalization mode).
    A nan in row 121 of 150 ended in a LinAlgError out of ``main``, and
    one in row 1 of 3, unnormalized, was blamed on dependent rows."""
    content, normalize = content if isinstance(content, tuple) else (content, "mean-norm")
    data = tmp_path / "data.txt"
    if content is not None:
        data.write_text(content)
    argv = ["--experiment", "cov", "--dataset", str(data), "--p", "2",
            "--normalize", normalize, "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, message", [
    (["logistic", "--d", "601"], "above the dense limit the input rotation (a d x d matrix) "
                                 "is unavailable; use c = 0"),
    (["nonlinear", "--d", "601"], "nonlinear runs diverge above d = 600: the sampled filter's "
                                  "KL rises at K = 1"),
    (["linear", "--d", "601"], "above the dense limit the input rotation (a d x d matrix) "
                               "is unavailable; use c = 0"),
    (["cov", "--d", "2001"], "covariance runs need dense evaluation; keep d <= 2000"),
    (["cov", "--dataset", "WIDE"], "dataset dimension too large for dense evaluation"),
])
def test_dimensions_past_the_dense_limits_exit_with_code_1(argv, message, tmp_path, capsys):
    """Each run kind refuses a dimension its dense evaluation cannot
    reach, before it writes anything; the linear and logistic runs at the
    default c, whose input rotation is a d x d matrix, and the nonlinear
    run at any c, where its sampled filter diverges. WIDE is a one-row dataset
    whose feature index, and so its dimension, is 2001."""
    wide = tmp_path / "wide.txt"
    wide.write_text("1 1:0.5 2001:1.0\n")
    out = tmp_path / "run"
    argv = ["--experiment"] + [str(wide) if a == "WIDE" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_cov_dimension_past_its_limit_is_refused_when_the_config_is_built():
    """A synthetic covariance run's d is known before the run starts, so
    ``make_config`` refuses it; a dataset's d is checked once it is read."""
    with pytest.raises(lrvga.experiments.ConfigError, match="keep d <= 2000"):
        make_config("cov", d=2001)
    make_config("cov", d=2000)


_DROPPED_OR_REPEATED = [
    ("cov --p 3,5", "cov runs take one p value, got [3, 5]"),
    ("logistic --sigma0 1,4", "logistic runs take one sigma0 value, got [1.0, 4.0]"),
    ("nonlinear --p 3,5", "nonlinear runs take one p value, got [3, 5]"),
    ("linear --p 3,3", "p values name the rows, so they must be distinct; got [3, 3]"),
    ("nonlinear --sigma0 2,2.0000001",
     "sigma0 values name the rows, so they must be distinct; got ['2', '2']"),
    ("cov --methods batch-em,batch-em",
     "methods values name the rows, so they must be distinct; got ['batch-em', 'batch-em']"),
    ("nonlinear --k-hess 1,1", "k_hess values name the rows, so they must be distinct; got [1, 1]"),
]


@pytest.mark.parametrize("argv, message", _DROPPED_OR_REPEATED,
                         ids=[argv for argv, _ in _DROPPED_OR_REPEATED])
def test_list_values_a_run_would_drop_or_repeat_exit_with_code_1(argv, message, tmp_path, capsys):
    """A run that reads only the first value of a list refuses a longer
    one, and rows named by repeated values (sigma0 by its ``:g`` tag) are
    refused, before anything is written."""
    out = tmp_path / "run"
    assert main(["--experiment", *argv.split(), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("kind, key, value", [
    ("cov", "sigma0", [1.0, 2.0]), ("cov", "k_hess", [5]), ("cov", "scheme", "explicit"),
    ("linear", "k_hess", [1, 7]), ("linear", "batch_passes", 9),
    ("logistic", "normalize", "none"), ("nonlinear", "methods", ["batch-em"]),
    ("nonlinear", "dataset", "data.txt"),
])
def test_options_a_run_kind_never_reads_are_refused(kind, key, value):
    """A value other than the kind's default in a field its run never
    reads would be echoed in config.json as if the run had used it."""
    with pytest.raises(lrvga.experiments.ConfigError, match=f"{kind} runs never read {key}"):
        make_config(kind, **{key: value})


def test_unknown_run_kinds_are_refused(tmp_path, capsys):
    """Each run kind has one spelling; ``covariance`` is not one of them."""
    out = tmp_path / "run"
    assert main(["--experiment", "covariance", "--out", str(out)]) == 1
    assert "invalid choice: 'covariance'" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(lrvga.experiments.ConfigError, match="unknown experiment kind 'bogus'"):
        make_config("bogus")


@pytest.mark.parametrize("flag, value", [("--d", "50"), ("--p-true", "3")])
def test_dataset_runs_refuse_the_options_the_file_sets(flag, value, tmp_path, capsys):
    """A dataset run takes its dimension and rank from the file: a value
    of ``--d`` or ``--p-true`` would change nothing but the config echo."""
    data = tmp_path / "data.txt"
    _write_dataset(data)
    out = tmp_path / "run"
    argv = ["--experiment", "cov", "--dataset", str(data), "--n", "40", "--p", "3",
            flag, value, "--out", str(out)]
    assert main(argv) == 1
    key = flag[2:].replace("-", "_")
    assert f"cov runs on a dataset never read {key}: leave unset" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_linear_run_past_the_dense_limit_runs_each_p_unscored(tmp_path):
    """Above the dense limit each p gets its own unscored block of rows,
    wall time and final mean norm, from the stream a one-p run draws; the
    meter holds the filter runs to the budget of the largest p."""
    argv = ["--experiment", "linear", "--d", "700", "--c", "0", "--n", "50",
            "--checkpoints", "4", "--track-memory"]
    assert main(argv + ["--p", "3,4", "--out", str(tmp_path / "both")]) == 0
    rows = read_results_csv(tmp_path / "both" / "results.csv")
    assert [(r.method, r.p) for r in rows] == [("lrvga", 3)] * 4 + [("lrvga", 4)] * 4
    assert all(r.kl is None and r.stderr is None for r in rows)
    summary = dict(line.split(": ", 1)
                   for line in (tmp_path / "both" / "summary.txt").read_text().splitlines())
    for p in (3, 4):
        assert float(summary[f"wall_seconds[lrvga,p={p}]"]) > 0
        assert float(summary[f"final_mu_norm[lrvga,p={p}]"]) > 0
    assert summary["aux_budget_bytes"] == str(contract_budget_bytes(700, 4))
    assert summary["aux_within_budget"] == "True"
    single = run_experiment(make_config("linear", d=700, c=0.0, n=50, p=[3])).summary
    assert summary["final_mu_norm[lrvga,p=3]"] == repr(single["final_mu_norm[lrvga,p=3]"])


def test_linear_run_over_its_memory_budget_writes_outputs_and_exits_4(tmp_path, monkeypatch,
                                                                        capsys):
    """The run above at a budget of 1 KB: its outputs are all written, one
    stderr line names the peak and the budget, and the exit code is 4."""
    monkeypatch.setattr(lrvga.experiments, "contract_budget_bytes", lambda d, p: 1024)
    argv = ["--experiment", "linear", "--d", "700", "--c", "0", "--n", "50",
            "--checkpoints", "4", "--track-memory", "--p", "3,4", "--out", str(tmp_path)]
    assert main(argv) == 4
    summary = dict(line.split(": ", 1) for line in (tmp_path / "summary.txt").read_text().splitlines())
    assert summary["aux_budget_bytes"] == "1024" and summary["aux_within_budget"] == "False"
    assert len(read_results_csv(tmp_path / "results.csv")) == 8
    assert (tmp_path / "config.json").exists()
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: peak auxiliary memory {summary['peak_aux_bytes']} bytes exceeds "
                   "the budget of 1024 bytes"]


def test_linear_run_past_the_dense_limit_keeps_its_final_mean():
    """No row above the dense limit carries a number, so no digest covers
    that path: this pins its final mean norm, bit for bit, at d = 700."""
    cfg = make_config("linear", d=700, c=0.0, n=200, p=[5], seed=3)
    assert repr(run_experiment(cfg).summary["final_mu_norm[lrvga,p=5]"]) == "8.822113423333233"


def test_logistic_run_past_the_dense_limit_scores_its_filter_without_laplace(tmp_path):
    """At c = 0 the logistic filter and its quadrature KL stay factored
    above the dense limit; only the Laplace row and the cosine to its
    mean, which need d x d matrices, are left out."""
    argv = ["--experiment", "logistic", "--d", "1000", "--c", "0", "--n", "200", "--p", "5",
            "--checkpoints", "4", "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = read_results_csv(tmp_path / "results.csv")
    assert {r.method for r in rows} == {"lrvga"} and len(rows) == 4
    kl = [r.kl for r in rows]
    assert np.all(np.isfinite(kl)) and all(b < a for a, b in zip(kl, kl[1:]))
    assert kl[-1] < 0.2 * kl[0]
    summary = (tmp_path / "summary.txt").read_text()
    assert "laplace" not in summary and "cosine" not in summary


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
    (["--checkpoints", "0"], None),
], ids=["p_true-above-d", "p_true-zero", "seed-negative", "p-string", "n-string",
        "d-fraction", "sigma0-nan", "checkpoints-zero"])
def test_config_values_of_the_wrong_range_or_type_exit_with_code_1(
    flags, config, tmp_path, capsys
):
    """Each case raised out of ``main`` or ran with other values: a
    generator rank above d, a zero one (read as "unset"), a negative seed,
    config-file values of the wrong type, a non-integral count or a
    non-finite real, and zero checkpoints, which ran and wrote a final KL
    of None into the summary."""
    argv = ["--experiment", "cov", "--checkpoints", "2", "--out", str(tmp_path / "run"), *flags]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sigma0", ["2e154", "1e-200", "1e-160"])
def test_sigma0_whose_square_or_its_inverse_is_not_a_finite_float_exits_with_code_1(
    sigma0, tmp_path, capsys
):
    """sigma0^2 overflows at 2e154 and underflows to 0 at 1e-200, and
    1 / sigma0^2 overflows at 1e-160: these ended in an OverflowError,
    a ZeroDivisionError and a ValueError out of ``main``."""
    out = tmp_path / "run"
    argv = ["--experiment", "logistic", "--d", "5", "--p", "2", "--n", "20",
            "--checkpoints", "2", "--sigma0", sigma0, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sigma0" in err
    assert not out.exists()


def test_logistic_run_under_a_vague_prior_ends_below_its_first_checkpoint(tmp_path, monkeypatch):
    """At sigma0 = 100 and a cap of 50 iterations, Newton stops short on
    a step of this run. The one Picard sweep that followed took its KL
    from 34 452 at the first checkpoint to 218 233 at the last; the
    bracketed fallback ends it near 237."""
    monkeypatch.setattr(lrvga.filters, "SCALAR_MAX_ITER", 50)
    argv = ["--experiment", "logistic", "--d", "20", "--n", "200", "--p", "20", "--c", "0",
            "--sigma0", "100", "--checkpoints", "8", "--seed", "3", "--out", str(tmp_path)]
    with pytest.warns(RuntimeWarning, match="solving by bracketing"):
        assert main(argv) == 0
    kl = [r.kl for r in read_results_csv(tmp_path / "results.csv") if r.method == "lrvga"]
    assert len(kl) == 8 and kl[-1] < kl[0]


@pytest.mark.filterwarnings("ignore:positive-definite solve failed:RuntimeWarning")
@pytest.mark.parametrize("sigma0, code, message", [
    ("1000", 2, "run diverged: "),
    ("1e5", 1, "the exact posterior at sigma0 = 100000, n = 50 < d = 100 is too "
               "ill-conditioned to score against: max|P Sigma - I| = "),
    ("1e7", 1, "the exact posterior at sigma0 = 1e+07, n = 50 < d = 100 is too "
               "ill-conditioned to score against"),
], ids=["1000", "1e5", "1e7"])
def test_linear_runs_below_n_equals_d_under_a_vague_prior_report_their_error(
        sigma0, code, message, tmp_path, capsys):
    """At n = 50 < d = 100 the exact posterior's precision has 50
    eigenvalues of 1 / sigma0^2, so its inverse is ill-conditioned. At
    sigma0 = 1000 the filter diverges. At 1e5 the inverse misses the
    identity by more than ``EXACT_RESIDUAL_LIMIT``, and its Kalman row
    used to end at a KL near 1e6; at 1e7 the inverse is not positive
    definite. Both are refused before the run starts. Each case ends in
    one error line, and none writes a results.csv."""
    out = tmp_path / "run"
    argv = ["--experiment", "linear", "--n", "50", "--sigma0", sigma0, "--out", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        line for line in err.splitlines() if message in line]
    assert message in err and "Traceback" not in err
    assert not (out / "results.csv").exists()


def test_config_counts_accept_integral_floats_only():
    cfg = make_config("cov", d=20.0, p=3.0, n=50, methods="batch-em")
    assert (cfg.d, cfg.p, cfg.methods) == (20, [3], ["batch-em"])
    assert type(cfg.d) is int
    assert make_config("linear", sigma0=2).sigma0 == [2.0]  # cov never reads sigma0
    for bad in (dict(d=True), dict(normalize=1), dict(record_timing="yes"), dict(p=[2, 2.5]),
                dict(c=float("inf"))):
        with pytest.raises(lrvga.experiments.ConfigError):
            make_config("cov", **bad)


def test_cov_inputs_are_scaled_to_mean_squared_norm_d():
    """Under "mean-norm" the first 100 samples have mean squared norm d,
    and the reference covariance is scaled to match; "none" leaves both."""
    base = dict(d=6, p=2, n=150, checkpoints=1, methods=["batch-em"])
    V, S_ref, info = lrvga.experiments._cov_data(make_config("cov", **base))
    raw, S_raw, info_raw = lrvga.experiments._cov_data(
        make_config("cov", normalize="none", **base))
    scale = info["normalization_scale"]
    assert np.mean(np.sum(V[:100] ** 2, axis=1)) == pytest.approx(6.0, rel=1e-12)
    assert info_raw["normalization_scale"] == 1.0
    assert np.array_equal(V, raw * scale)
    assert np.allclose(S_ref, scale**2 * S_raw, rtol=1e-14)
