"""Streaming Bayesian estimation with low-rank-plus-diagonal precision.

The precision of a d-dimensional Gaussian belief is kept as W @ W.T +
diag(psi) with a small factor rank p, so one pass over the data costs
O(d p^2) per observation in time and O(d p) in memory. Linear, logistic,
and sampled single-index nonlinear observation models are supported,
along with dense reference baselines, an ensemble sampler that never
forms a d x d matrix, and KL-based evaluation utilities.
"""

from .dense import DenseGaussian, fa_dense_inverse, fa_dense_matrix
from .em import (
    OnlineEmState,
    RecursionWeights,
    covariance_mode_weights,
    default_inner_loops,
    em_fixed_point_step,
    guess_s0_scale,
    online_em_gamma,
    online_em_update,
    polyak_ruppert_average,
    recursive_em_update,
)
from .evaluation import (
    KlEstimate,
    covariance_fit_kl,
    expected_kl_logistic,
    gaussian_entropy,
    gaussian_kl,
    laplace_logistic,
    mc_kl_to_posterior,
)
from .factor import (
    DivergenceError,
    FaPrecision,
    init_isotropic_prior,
    inverse_diag,
    latent_gram,
    log_det,
    woodbury_apply,
)
from .filters import (
    GaussianBelief,
    GlmScalarSolution,
    LogisticModel,
    NonlinearModel,
    Observation,
    ggn_block,
    kalman_step_dense,
    lrvga_linear_step,
    lrvga_logistic_step,
    lrvga_nonlinear_step,
    solve_glm_scalars,
)
from .sampler import EnsembleSampler
from .experiments import (
    ConfigError,
    ExperimentConfig,
    RunReport,
    emit_report,
    log_spaced_checkpoints,
    make_config,
    read_results_csv,
    run_experiment,
)
from .memory import MemoryMeter, contract_budget_bytes

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DenseGaussian",
    "DivergenceError",
    "EnsembleSampler",
    "ExperimentConfig",
    "FaPrecision",
    "GaussianBelief",
    "GlmScalarSolution",
    "KlEstimate",
    "LogisticModel",
    "MemoryMeter",
    "NonlinearModel",
    "Observation",
    "OnlineEmState",
    "RecursionWeights",
    "RunReport",
    "contract_budget_bytes",
    "covariance_fit_kl",
    "covariance_mode_weights",
    "default_inner_loops",
    "em_fixed_point_step",
    "emit_report",
    "expected_kl_logistic",
    "fa_dense_inverse",
    "fa_dense_matrix",
    "gaussian_entropy",
    "gaussian_kl",
    "ggn_block",
    "guess_s0_scale",
    "init_isotropic_prior",
    "inverse_diag",
    "kalman_step_dense",
    "laplace_logistic",
    "latent_gram",
    "log_det",
    "log_spaced_checkpoints",
    "lrvga_linear_step",
    "lrvga_logistic_step",
    "lrvga_nonlinear_step",
    "make_config",
    "mc_kl_to_posterior",
    "online_em_gamma",
    "online_em_update",
    "polyak_ruppert_average",
    "read_results_csv",
    "recursive_em_update",
    "run_experiment",
    "solve_glm_scalars",
    "woodbury_apply",
]
