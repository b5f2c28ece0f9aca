"""Synthetic generators and LIBSVM file I/O."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrvga
from lrvga import Observation
from lrvga.datasets import (
    RegressionSpec,
    SyntheticCovSpec,
    gen_fa_covariance_samples,
    gen_linear_labels,
    gen_logistic_labels,
    gen_regression_inputs,
    parse_libsvm,
)
from lrvga.experiments import _regression_data, make_config

from oracles import read_metadata, regression_input_covariance, write_libsvm, write_metadata


def test_cov_spec_is_deterministic_and_positive_definite():
    spec = SyntheticCovSpec(d=10, p_true=3, seed=5)
    S1, S2 = spec.dense_matrix(), spec.dense_matrix()
    assert np.array_equal(S1, S2)
    assert np.linalg.eigvalsh(S1).min() >= 0.1
    other = SyntheticCovSpec(d=10, p_true=3, seed=6).dense_matrix()
    assert not np.array_equal(S1, other)
    with pytest.raises(ValueError):
        SyntheticCovSpec(d=3, p_true=4).factors()


def test_cov_samples_have_the_right_second_moment():
    spec = SyntheticCovSpec(d=8, p_true=2, seed=0)
    n = 40_000
    draws = np.stack(list(gen_fa_covariance_samples(spec, n, rng=3)))
    assert draws.shape == (n, 8)
    emp = draws.T @ draws / n
    S = spec.dense_matrix()
    assert np.linalg.norm(emp - S) / np.linalg.norm(S) < 0.05


def test_cov_samples_are_reproducible():
    spec = SyntheticCovSpec(d=6, p_true=2, seed=1)
    a = np.stack(list(gen_fa_covariance_samples(spec, 50, rng=9)))
    b = np.stack(list(gen_fa_covariance_samples(spec, 50, rng=9)))
    assert np.array_equal(a, b)
    assert list(gen_fa_covariance_samples(spec, 0, rng=9)) == []
    with pytest.raises(ValueError):
        list(gen_fa_covariance_samples(spec, -1))


def test_regression_spectrum_trace_and_conditioning():
    spec = RegressionSpec(d=6, n=1, c=1.0)
    lam = spec.input_spectrum()
    assert np.sum(lam) == pytest.approx(6.0, rel=1e-12)
    assert lam[0] / lam[-1] == pytest.approx(6.0, rel=1e-12)
    flat = RegressionSpec(d=6, n=1, c=0.0)
    assert np.allclose(flat.input_spectrum(), np.ones(6))
    assert flat.rotation() is None
    assert np.allclose(regression_input_covariance(flat), np.eye(6))


def test_regression_rotation_is_orthogonal_and_seeded():
    spec = RegressionSpec(d=5, n=1, c=2.0, seed=3)
    M = spec.rotation()
    assert np.allclose(M @ M.T, np.eye(5), atol=1e-12)
    assert np.array_equal(M, RegressionSpec(d=5, n=1, c=2.0, seed=3).rotation())
    cov = regression_input_covariance(spec)
    assert np.trace(cov) == pytest.approx(5.0, rel=1e-12)
    assert np.allclose(cov, cov.T)


def test_regression_truth_is_stable_across_c():
    # The truth draw skips the rotation block, so it only depends on the
    # seed and sigma0, not on whether a rotation was materialized.
    a = RegressionSpec(d=4, n=1, c=1.0, sigma0=2.0, seed=8).truth()
    b = RegressionSpec(d=4, n=1, c=2.0, sigma0=2.0, seed=8).truth()
    assert np.array_equal(a, b)


def test_regression_inputs_match_their_covariance():
    n = 60_000
    spec = RegressionSpec(d=4, n=n, c=1.5, seed=2)
    draws = np.stack(list(gen_regression_inputs(spec, rng=5)))
    assert draws.shape == (n, 4)
    emp = draws.T @ draws / n
    cov = regression_input_covariance(spec)
    assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05
    assert np.mean(np.sum(draws**2, axis=1)) == pytest.approx(4.0, rel=0.05)


def test_label_generators():
    xs = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
    theta = np.array([3.0, -1.0])
    noisy = list(gen_linear_labels(iter(xs), theta, rng=0))
    # The labels are x.theta plus unit normal draws from the given generator.
    noise = np.random.default_rng(0).standard_normal(2)
    assert [y for _, y in noisy] == [3.0 + noise[0], -2.0 + noise[1]]
    assert np.array_equal(noisy[1][0], xs[1])

    labels = [y for _, y in gen_logistic_labels(iter(xs * 50), theta, rng=1)]
    assert set(labels) <= {0.0, 1.0}
    assert 0 < sum(labels) < len(labels)


def test_the_data_layer_imports_nothing_from_the_package():
    """``datasets`` depends on numpy and scipy alone: its label generators
    pair inputs with labels, and only the experiments' folds build
    Observations from them."""
    tree = ast.parse(Path(lrvga.datasets.__file__).read_text(encoding="utf-8"))
    own = [node.module for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.startswith("lrvga"))]
    own += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.startswith("lrvga")]
    assert own == []


@pytest.mark.parametrize("labels", [gen_linear_labels, gen_logistic_labels])
def test_regression_data_builds_no_observation(labels, monkeypatch):
    """``_regression_data`` reads y straight from the label generator's
    (x, y) pairs, so it calls ``Observation.__init__`` no time at all;
    wrapping each row in an Observation called it n times. A fold's
    ``map(Observation, X, y)`` is counted, n calls, by the same patch."""
    calls = []
    init = Observation.__init__
    monkeypatch.setattr(Observation, "__init__",
                        lambda self, x, y: calls.append(1) or init(self, x, y))
    cfg = make_config("logistic", d=20, n=100)
    X, y = _regression_data(cfg, cfg.sigma0[0], labels)
    assert len(calls) == 0 and X.shape == (100, 20) and y.shape == (100,)
    assert [o.y for o in map(Observation, X, y)] == list(y) and len(calls) == 100


def test_libsvm_round_trip(tmp_path):
    path = tmp_path / "data.txt"
    obs = [
        Observation(np.array([1.5, 0.0, -2.0, 0.0]), 1.0),
        Observation(np.array([0.0, 0.25, 0.0, 0.0]), 0.0),
        Observation(np.array([0.0, 0.0, 0.0, 3.0]), 1.0),
    ]
    write_libsvm(path, obs)
    rows, y = parse_libsvm(path)
    assert rows.format == "csr" and rows.shape == (3, 4)
    assert rows.nnz == 4
    assert np.array_equal(rows.toarray(), np.stack([o.x for o in obs]))
    assert np.array_equal(y, [1.0, 0.0, 1.0])


def test_libsvm_parsing_details(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(
        "# leading comment\n"
        "+1 1:0.5 3:1.25\n"
        "\n"
        "-1 2:-1.0   # trailing comment\n"
        "2.5\n"
    )
    rows, y = parse_libsvm(path)
    assert rows.shape == (3, 3)
    # -1 maps to 0; other labels pass through.
    assert np.array_equal(y, [1.0, 0.0, 2.5])
    assert np.array_equal(rows.toarray(), [[0.5, 0.0, 1.25], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    path.write_text("")
    rows, y = parse_libsvm(path)
    assert rows.shape == (0, 0) and y.shape == (0,)


def test_libsvm_error_reporting(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1:0.5\nabc 1:1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_libsvm(path)
    path.write_text("1 1:0.5\n1 0:1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_libsvm(path)
    path.write_text("1 1:0.5\n1 and:1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_libsvm(path)
    path.write_text("1 1:0.5\n1 3:1.0 2:2.0 3:0.5\n")
    with pytest.raises(ValueError, match="line 2: index 3 appears twice"), \
            pytest.warns(RuntimeWarning, match="not ascending"):
        parse_libsvm(path)
    path.write_text("1 2:0.5 1:1.0\n")
    with pytest.warns(RuntimeWarning, match="not ascending"):
        rows, _ = parse_libsvm(path)
    assert np.array_equal(rows.toarray(), [[1.0, 0.5]])


def test_metadata_round_trip(tmp_path):
    path = tmp_path / "meta.txt"
    write_metadata(path, {"n": 100, "source": "unit-test", "scale": 0.5})
    assert read_metadata(path) == {"n": "100", "source": "unit-test", "scale": "0.5"}
    # Keys come back sorted in the file.
    lines = path.read_text().splitlines()
    assert lines == sorted(lines)


def test_importing_the_package_leaves_scipy_sparse_unloaded():
    """Only parse_libsvm needs scipy.sparse, and it imports it when called:
    loaded with the package, it would add to every start-up."""
    code = (
        "import sys, numpy, scipy.linalg, scipy.special\n"
        "import lrvga, lrvga.cli\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    src = str(Path(lrvga.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
