"""Streaming Bayesian estimation with low-rank-plus-diagonal precision.

The precision of a d-dimensional Gaussian belief is kept as W @ W.T +
diag(psi) with a small factor rank p, so one pass over the data costs
O(d p^2) per observation in time and O(d p) in memory.

The package root is the filter library: the beliefs and the linear,
logistic and sampled single-index nonlinear steps (``filters``), the
factor algebra (``factor``), the recursive and online EM updates
(``em``), and the KL scores and dense baselines (``evaluation``,
``dense``). The experiment drivers and their config live in
``lrvga.experiments``, the command line in ``lrvga.cli``, the memory
meter in ``lrvga.memory``, the ensemble sampler in ``lrvga.sampler``,
and the Monte Carlo KL in ``lrvga.evaluation``; import them from there.
"""

from .dense import DenseGaussian, fa_dense_inverse, fa_dense_matrix
from .em import (
    OnlineEmState,
    default_inner_loops,
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
    LogisticModel,
    NonlinearModel,
    Observation,
    kalman_step_dense,
    lrvga_linear_step,
    lrvga_logistic_step,
    lrvga_nonlinear_step,
)

__version__ = "0.1.0"

__all__ = [
    "DenseGaussian",
    "DivergenceError",
    "FaPrecision",
    "GaussianBelief",
    "KlEstimate",
    "LogisticModel",
    "NonlinearModel",
    "Observation",
    "OnlineEmState",
    "covariance_fit_kl",
    "default_inner_loops",
    "expected_kl_logistic",
    "fa_dense_inverse",
    "fa_dense_matrix",
    "gaussian_entropy",
    "gaussian_kl",
    "init_isotropic_prior",
    "inverse_diag",
    "kalman_step_dense",
    "laplace_logistic",
    "latent_gram",
    "log_det",
    "lrvga_linear_step",
    "lrvga_logistic_step",
    "lrvga_nonlinear_step",
    "online_em_gamma",
    "online_em_update",
    "polyak_ruppert_average",
    "recursive_em_update",
    "woodbury_apply",
]
