"""Auxiliary-memory contract of the streaming filter."""

import numpy as np

from lrvga import GaussianBelief, Observation, init_isotropic_prior, lrvga_linear_step
from lrvga.evaluation import mc_kl_to_posterior
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
    """After a default step, an MC-KL evaluation and a sampler build, the
    only arrays on the precision besides W and psi are p x p caches. The
    budget test above would not see a cached d x p block."""
    d, p = 300, 5
    rng = np.random.default_rng(4)
    belief = GaussianBelief(np.zeros(d), init_isotropic_prior(d, p, 1.0, rng=4))
    belief = lrvga_linear_step(belief, Observation(rng.standard_normal(d) / np.sqrt(d), 0.7))
    mc_kl_to_posterior(belief, lambda t: -0.5 * np.sum(t * t, axis=0), 20, rng=5)
    EnsembleSampler(belief.prec, 6).draw(belief.mu, 3)
    cached = {k: v for k, v in vars(belief.prec).items()
              if isinstance(v, np.ndarray) and k not in ("W", "psi")}
    assert "latent_inverse" in cached
    assert all(v.size <= p * p for v in cached.values()), {k: v.shape for k, v in cached.items()}
