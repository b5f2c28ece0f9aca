"""Synthetic generators, sparse file I/O, stream normalization."""

import numpy as np
import pytest

from lrvga import Observation
from lrvga.datasets import (
    NormalizedStream,
    RegressionSpec,
    SyntheticCovSpec,
    gen_fa_covariance_samples,
    gen_linear_labels,
    gen_logistic_labels,
    gen_regression_inputs,
    normalize_stream,
    parse_libsvm,
)

from oracles import read_metadata, write_libsvm, write_metadata


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
    assert np.allclose(flat.input_covariance(), np.eye(6))


def test_regression_rotation_is_orthogonal_and_seeded():
    spec = RegressionSpec(d=5, n=1, c=2.0, seed=3)
    M = spec.rotation()
    assert np.allclose(M @ M.T, np.eye(5), atol=1e-12)
    assert np.array_equal(M, RegressionSpec(d=5, n=1, c=2.0, seed=3).rotation())
    cov = spec.input_covariance()
    assert np.trace(cov) == pytest.approx(5.0, rel=1e-12)
    assert np.allclose(cov, cov.T)


def test_regression_truth_is_stable_across_c():
    # The truth draw skips the rotation block, so it only depends on the
    # seed and sigma0, not on whether a rotation was materialized.
    a = RegressionSpec(d=4, n=1, c=1.0, sigma0=2.0, seed=8).truth()
    b = RegressionSpec(d=4, n=1, c=2.0, sigma0=2.0, seed=8).truth()
    assert np.array_equal(a, b)
    given = np.arange(4.0)
    c = RegressionSpec(d=4, n=1, theta_star=given).truth()
    assert np.array_equal(c, given)
    with pytest.raises(ValueError):
        RegressionSpec(d=4, n=1, theta_star=np.ones(3)).truth()


def test_regression_inputs_match_their_covariance():
    spec = RegressionSpec(d=4, n=1, c=1.5, seed=2)
    n = 60_000
    draws = np.stack(list(gen_regression_inputs(spec, rng=5, n=n)))
    assert draws.shape == (n, 4)
    emp = draws.T @ draws / n
    cov = spec.input_covariance()
    assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05
    assert np.mean(np.sum(draws**2, axis=1)) == pytest.approx(4.0, rel=0.05)


def test_label_generators():
    xs = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
    theta = np.array([3.0, -1.0])
    noiseless = list(gen_linear_labels(iter(xs), theta, rng=0, noise_sigma=0.0))
    assert [o.y for o in noiseless] == [3.0, -2.0]
    noisy = list(gen_linear_labels(iter(xs), theta, rng=0, noise_sigma=1.0))
    assert noisy[0].y != 3.0
    again = list(gen_linear_labels(iter(xs), theta, rng=0, noise_sigma=1.0))
    assert [o.y for o in noisy] == [o.y for o in again]

    labels = [o.y for o in gen_logistic_labels(iter(xs * 50), theta, rng=1)]
    assert set(labels) <= {0.0, 1.0}
    assert 0 < sum(labels) < len(labels)


def test_libsvm_round_trip(tmp_path):
    path = tmp_path / "data.txt"
    obs = [
        Observation((np.array([0, 2]), np.array([1.5, -2.0])), 1.0),
        Observation((np.array([1]), np.array([0.25])), 0.0),
        Observation(np.array([0.0, 0.0, 0.0, 3.0]), 1.0),
    ]
    write_libsvm(path, obs)
    parsed, d = parse_libsvm(path)
    assert d == 4
    assert len(parsed) == 3
    for orig, back in zip(obs, parsed):
        assert np.allclose(back.dense_x(4), orig.dense_x(4))
        assert back.y == orig.y


def test_libsvm_parsing_details(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(
        "# leading comment\n"
        "+1 1:0.5 3:1.25\n"
        "\n"
        "-1 2:-1.0   # trailing comment\n"
    )
    parsed, d = parse_libsvm(path)
    assert d == 3
    assert parsed[0].y == 1.0
    assert parsed[1].y == 0.0
    assert np.allclose(parsed[0].dense_x(3), [0.5, 0.0, 1.25])
    raw, _ = parse_libsvm(path, map_binary_labels=False)
    assert raw[1].y == -1.0


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
    path.write_text("1 2:0.5 1:1.0\n")
    with pytest.warns(RuntimeWarning, match="not ascending"):
        parse_libsvm(path)


def test_metadata_round_trip(tmp_path):
    path = tmp_path / "meta.txt"
    write_metadata(path, {"n": 100, "source": "unit-test", "scale": 0.5})
    assert read_metadata(path) == {"n": "100", "source": "unit-test", "scale": "0.5"}
    # Keys come back sorted in the file.
    lines = path.read_text().splitlines()
    assert lines == sorted(lines)


def test_normalized_stream_scales_to_mean_norm():
    d = 4
    vecs = [np.full(d, 2.0) for _ in range(10)]  # squared norm 16 = 4 d
    ns = normalize_stream(iter(vecs), d, leading_batch=5)
    out = list(ns)
    assert ns.scale == pytest.approx(0.5)
    assert all(np.allclose(v, np.ones(d)) for v in out)
    assert np.mean([np.sum(v**2) for v in out]) == pytest.approx(d)


def test_normalized_stream_handles_observations_and_sparse():
    d = 3
    obs = [
        Observation(np.array([2.0, 0.0, 0.0]), 1.0),
        Observation((np.array([1]), np.array([2.0])), 0.0),
    ] * 3
    out = list(normalize_stream(iter(obs), d, leading_batch=6))
    # mean squared norm 4 -> scale sqrt(3) / 2
    s = np.sqrt(3.0) / 2.0
    assert np.allclose(out[0].x, [2.0 * s, 0.0, 0.0])
    assert np.allclose(out[1].x[1], [2.0 * s])
    assert out[0].y == 1.0


def test_normalized_stream_none_mode_passes_through():
    vecs = [np.array([5.0, 0.0])] * 4
    ns = normalize_stream(iter(vecs), 2, mode="none")
    out = list(ns)
    assert ns.scale == 1.0
    assert all(np.array_equal(v, vecs[0]) for v in out)


def test_normalized_stream_short_and_empty_streams():
    # Fewer samples than the leading batch: scale comes from what exists.
    vecs = [np.array([2.0, 0.0])] * 3
    ns = normalize_stream(iter(vecs), 2, leading_batch=100)
    out = list(ns)
    assert len(out) == 3
    assert ns.scale == pytest.approx(np.sqrt(2.0) / 2.0)
    assert list(normalize_stream(iter([]), 2)) == []


def test_normalized_stream_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_stream(iter([]), 2, mode="zscore")
    with pytest.raises(ValueError):
        normalize_stream(iter([]), 2, leading_batch=0)
    ns = normalize_stream(iter([np.zeros(2)] * 5), 2)
    with pytest.raises(ValueError):
        list(ns)


def test_normalized_stream_consumes_the_stream_once():
    seen = []

    def gen():
        for i in range(6):
            seen.append(i)
            yield np.array([1.0, float(i)])

    out = list(normalize_stream(gen(), 2, leading_batch=3))
    assert len(out) == 6
    assert seen == list(range(6))
