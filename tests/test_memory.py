"""Auxiliary-memory contract of the streaming filter."""

import numpy as np
import pytest

import lrvga.experiments
from lrvga import (
    GaussianBelief,
    LogisticModel,
    RecursionWeights,
    Observation,
    init_isotropic_prior,
    lrvga_linear_step,
    lrvga_nonlinear_step,
    make_config,
    recursive_em_update,
    run_experiment,
)
from lrvga.cli import main
from lrvga.datasets import SyntheticCovSpec, gen_fa_covariance_samples
from lrvga.evaluation import expected_kl_logistic, mc_kl_to_posterior
from lrvga.memory import MemoryMeter, contract_budget_bytes
from lrvga.sampler import EnsembleSampler


def test_linear_steps_stay_within_the_contract_at_moderate_dimension():
    """Twenty steps at d=10^4, p=10, one loop: the traced peak must stay
    under 64 d (p + 2) bytes, 7.68 MB here. A d x d array breaks it a
    hundredfold; the step itself peaks near 3.6 MB, so the headroom is
    about five d x p arrays."""
    d, p = 10_000, 10
    rng = np.random.default_rng(8)
    obs = [Observation(x, float(y)) for x, y in zip(
        rng.standard_normal((20, d)) / np.sqrt(d), rng.standard_normal(20))]
    belief = GaussianBelief(np.zeros(d), init_isotropic_prior(d, p, 1.0, rng=8))
    with MemoryMeter() as meter:
        for o in obs:
            belief = lrvga_linear_step(belief, o, inner_loops=1)
    assert 0 < meter.peak_bytes <= contract_budget_bytes(d, p)


def test_sampled_logistic_steps_stay_within_the_contract_at_moderate_dimension():
    """Ten default sampled logistic steps at d=10^4, p=10, K=100, one
    loop, under the same 7.68 MB budget. One (d, K) block of parameter
    draws is 8 MB alone; the steps draw K index scalars per stage."""
    d, p, k = 10_000, 10, 100
    rng = np.random.default_rng(14)
    obs = [Observation(x, float(y)) for x, y in zip(
        rng.standard_normal((10, d)) / np.sqrt(d), rng.integers(0, 2, 10))]
    belief = GaussianBelief(np.zeros(d), init_isotropic_prior(d, p, 1.0, rng=14))
    model = LogisticModel()
    with MemoryMeter() as meter:
        for o in obs:
            belief = lrvga_nonlinear_step(belief, o, model, k=k, inner_loops=1, rng=rng)
    assert 0 < meter.peak_bytes <= contract_budget_bytes(d, p)


def test_warm_started_update_peaks_near_its_output_and_hands_over_its_gram():
    """One warm-started update at d = 5 10^4, p = 10, K = 1 allocates its
    output, W_new and psi_new (1.1 units of 8 d p bytes), plus row-block
    scratch; a whole Z = [W X] or Z R would add 1.1 units. Reading the
    result's latent inverse then costs p x p arrays only, since the gram
    comes with the result."""
    d, p = 50_000, 10
    unit = 8 * d * p
    prev = init_isotropic_prior(d, p, 1.0, rng=9)
    x = np.random.default_rng(9).standard_normal((d, 1)) / np.sqrt(d)
    prev.latent_inverse
    with MemoryMeter() as meter:
        out = recursive_em_update(prev, x, RecursionWeights(1.0, 1.0), inner_loops=1)
    assert 0 < meter.peak_bytes <= 1.6 * unit
    with MemoryMeter() as meter:
        out.latent_inverse
    assert meter.peak_bytes < 0.01 * unit


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_three_cycle_update_peaks_no_higher_than_before_the_hand_over(alpha):
    """A three-cycle update at d = 2 10^4, p = 10, K = 1, in units of
    8 d p bytes. Each general cycle frees its d x p products before it
    forms the Psi^-1 W that it hands the next cycle, so the update peaks
    inside a cycle's products, as it did when every cycle formed its own
    Psi^-1 W (4.429 units): the hand-over must add nothing. At d = 100
    interpreter objects would hide the order of these frees."""
    d, p = 20_000, 10
    prev = init_isotropic_prior(d, p, 1.0, rng=13)
    x = np.random.default_rng(13).standard_normal((d, 1)) / np.sqrt(d)
    prev.latent_inverse
    with MemoryMeter() as meter:
        recursive_em_update(prev, x, RecursionWeights(alpha, alpha), inner_loops=3)
    assert 0 < meter.peak_bytes <= 4.43 * 8 * d * p


def _default_step_peak(d, p):
    """The traced peak of one default linear step at (d, p), after a
    warm-up step whose gram it reads."""
    rng = np.random.default_rng(11)
    belief = GaussianBelief(np.zeros(d), init_isotropic_prior(d, p, 1.0, rng=11))
    obs = [Observation(rng.standard_normal(d) / np.sqrt(d), float(rng.standard_normal()))
           for _ in range(2)]
    belief = lrvga_linear_step(belief, obs[0])
    with MemoryMeter() as meter:
        lrvga_linear_step(belief, obs[1])
    return meter.peak_bytes


@pytest.mark.parametrize("d, p, two_route_units",[(50_000, 10, 1.3913), (100, 5, 6.729)])
def test_default_linear_step_peaks_no_higher_than_the_two_route_step(d, p, two_route_units):
    """One default step, after a warm-up step whose gram it reads, in
    units of 8 d p bytes. Before its gain and first EM cycle were fused,
    this step peaked at 1.3913 units at d = 5 10^4, p = 10 (W_new, psi_new
    and the gain, plus one row block's temporaries) and at 6.729 at
    d = 100, p = 5, where interpreter objects dominate. The fused step
    keeps x / psi, which becomes the new mean, in place of the gain, and
    must peak no higher."""
    assert 0 < _default_step_peak(d, p) <= two_route_units * 8 * d * p


def test_row_block_products_read_the_blocks_in_place():
    """One default step at d = 3 4096 + 37, p = 10, after a warm-up step,
    in units of 8 d p bytes. Above ``_ROW_BLOCK`` the row pass reads
    blocks of an F-ordered d x p array, which are neither C- nor
    F-contiguous: ``@`` hands them to BLAS in place, at 1.538 units,
    while ``np.dot`` copies each one and took the step to 1.870. At
    d = 5 10^4 the copies hide under the two-route bound above."""
    d, p = 3 * 4096 + 37, 10
    assert 0 < _default_step_peak(d, p) <= 1.6 * 8 * d * p


def test_a_used_precision_caches_nothing_larger_than_p_squared():
    """After a default step, an MC-KL evaluation, a quadrature KL and a
    sampler build, the only arrays on the precision besides W and psi are
    the p x p caches of M and M^-1. The budget test above would not see a
    cached d x p block."""
    d, p = 300, 5
    rng = np.random.default_rng(4)
    belief = GaussianBelief(np.zeros(d), init_isotropic_prior(d, p, 1.0, rng=4))
    belief = lrvga_linear_step(belief, Observation(rng.standard_normal(d) / np.sqrt(d), 0.7))
    mc_kl_to_posterior(belief, lambda t: -0.5 * np.sum(t * t, axis=0), 20, rng=5)
    X = rng.standard_normal((40, d))
    expected_kl_logistic(belief, X, (X[:, 0] > 0).astype(float), 1.0)
    EnsembleSampler(belief.prec, 6).draw(belief.mu, 3)
    cached = {k: v for k, v in vars(belief.prec).items()
              if isinstance(v, np.ndarray) and k not in ("W", "psi")}
    assert "latent_inverse" in cached and "gram" in cached
    assert all(v.size <= p * p for v in cached.values()), {k: v.shape for k, v in cached.items()}


def test_factored_quadrature_kl_allocates_nothing_n_by_d():
    """One quadrature KL of a factored belief at n = 500, d = 2000, p = 5
    peaks under a quarter of X's 8 MB: an n x d temporary such as X / psi
    or X * X would be a whole X. Its node blocks are 256 x 32 doubles."""
    n, d, p = 500, 2000, 5
    rng = np.random.default_rng(12)
    belief = GaussianBelief(rng.standard_normal(d) / np.sqrt(d), init_isotropic_prior(d, p, 1.0, rng=12))
    X = rng.standard_normal((n, d)) / np.sqrt(d)
    y = (X[:, 0] > 0).astype(float)
    with MemoryMeter() as meter:
        expected_kl_logistic(belief, X, y, 1.0)
    assert 0 < meter.peak_bytes < n * d * 8 / 4


def test_quadrature_kl_scores_its_nodes_in_row_blocks():
    """One factored quadrature KL at n = 2 10^4, d = 5, p = 2 peaks under
    16 doubles a row, 2.56 MB. Its O(n p) vectors take about 12 a row;
    whole n x 32 and n x 16 node arrays with their softplus and sums
    took it to 11.2 MB."""
    n, d, p = 20_000, 5, 2
    rng = np.random.default_rng(3)
    belief = GaussianBelief(rng.standard_normal(d), init_isotropic_prior(d, p, 1.0, rng=3))
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n).astype(float)
    belief.prec.latent_inverse
    with MemoryMeter() as meter:
        expected_kl_logistic(belief, X, y, 2.0)
    assert 0 < meter.peak_bytes < 16 * 8 * n


def test_observations_carry_no_instance_dict():
    """10^4 observations over the rows of one (10^4, 4) array allocate
    the object, a row view, a float label and a list slot each, 193 B in
    all; an instance dict took it to 233 B."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10_000, 4))
    y = rng.integers(0, 2, 10_000).astype(float)
    with MemoryMeter() as meter:
        obs = [Observation(x, v) for x, v in zip(X, y)]
    assert len(obs) == 10_000
    assert 0 < meter.peak_bytes <= 210 * 10_000


def test_large_scale_cli_run_stays_within_its_own_budget():
    """The metered large-scale linear run, data generation included, stays
    under the budget it reports (1.54 MB at d=2000, p=10). At c = 0 the
    input generator draws one row at a time, so no chunk of rows counts
    against it."""
    cfg = make_config("linear", d=2000, c=0.0, n=60, p=[10], track_memory=True)
    summary = run_experiment(cfg).summary
    assert 0 < summary["peak_aux_bytes"] <= summary["aux_budget_bytes"]
    assert summary["aux_within_budget"] is True


def test_metered_run_at_the_default_rank_stays_within_its_budget():
    """At d = 700, p = 5 the budget is 314 KB. Two 512 KB chunks of input
    rows alive at once put the peak at 1.11 MB; drawn one row at a time
    the inputs leave the filter's state and workspace as the peak."""
    cfg = make_config("linear", d=700, c=0.0, n=200, p=[5], track_memory=True)
    summary = run_experiment(cfg).summary
    assert summary["aux_budget_bytes"] == contract_budget_bytes(700, 5)
    assert 0 < summary["peak_aux_bytes"] <= summary["aux_budget_bytes"]
    assert summary["aux_within_budget"] is True


def test_track_memory_reports_an_over_budget_run(tmp_path, monkeypatch):
    """summary.txt compares the metered peak with the budget, and the run
    exits 4; a budget of one byte stands in for a run that exceeds it."""
    monkeypatch.setattr(lrvga.experiments, "contract_budget_bytes", lambda d, p: 1)
    argv = ["--experiment", "linear", "--d", "2000", "--c", "0", "--n", "60", "--p", "10",
            "--track-memory", "--out", str(tmp_path)]
    assert main(argv) == 4
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert "aux_budget_bytes: 1" in lines and "aux_within_budget: False" in lines


def test_covariance_samples_are_built_in_one_chunk_array():
    """64 draws at d=2000, p_true=5 come in two 512 KB chunks. The block
    is built in the normal draws' buffer, so the peak is that buffer and
    the W Z product (about 1.2 MB); the two further chunk-sized arrays
    of an out-of-place sum would put it near 2.3 MB."""
    spec = SyntheticCovSpec(2000, 5, seed=1)
    with MemoryMeter() as meter:
        for _ in gen_fa_covariance_samples(spec, 64, rng=2):
            pass
    assert 0 < meter.peak_bytes <= 1_600_000
