"""Auxiliary-memory contract of the streaming filter."""

import numpy as np

import lrvga.experiments
from lrvga import (
    GaussianBelief,
    Observation,
    init_isotropic_prior,
    lrvga_linear_step,
    make_config,
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


def test_a_used_precision_caches_nothing_larger_than_p_squared():
    """After a default step, an MC-KL evaluation, a quadrature KL and a
    sampler build, the only arrays on the precision besides W and psi are
    p x p caches. The budget test above would not see a cached d x p
    block."""
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
    assert "latent_inverse" in cached
    assert all(v.size <= p * p for v in cached.values()), {k: v.shape for k, v in cached.items()}


def test_large_scale_cli_run_stays_within_its_own_budget():
    """The metered large-scale linear run, data generation included, stays
    under the budget it reports (1.54 MB at d=2000, p=10). The input
    generator's chunk is a third of that, so a second chunk-sized
    array alive beside it breaks the budget."""
    cfg = make_config("linear", d=2000, c=0.0, n=60, p=[10], track_memory=True)
    summary = run_experiment(cfg).summary
    assert 0 < summary["peak_aux_bytes"] <= summary["aux_budget_bytes"]
    assert summary["aux_within_budget"] is True


def test_track_memory_reports_an_over_budget_run(tmp_path, monkeypatch):
    """summary.txt compares the metered peak with the budget; a budget of
    one byte stands in for a run that exceeds it."""
    monkeypatch.setattr(lrvga.experiments, "contract_budget_bytes", lambda d, p: 1)
    argv = ["--experiment", "linear", "--d", "2000", "--c", "0", "--n", "60", "--p", "10",
            "--track-memory", "--out", str(tmp_path)]
    assert main(argv) == 0
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
