"""Experiment drivers and reporting.

Four run kinds: covariance tracking, linear regression, logistic
regression, and the sampled-nonlinear ablation. No run kind keeps its own
loop: every method, batch EM's passes and the Laplace fit too, goes
through one checkpoint fold, ``_fold``, the one writer of rows, final
KLs and wall times. Every run is seeded; its results.csv is
byte-identical across reruns of the same config and seed on the same
BLAS build with the same BLAS thread count. The thread count changes how
BLAS splits its sums, and so the rounding: pin it
(``OPENBLAS_NUM_THREADS=1``) to compare runs across machines. Wall-clock
numbers always go to summary.txt, and are written into results.csv only
when ``record_timing`` is set, since timing jitter would break
byte-level reproducibility.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .dense import DenseGaussian
from .em import (
    OnlineEmState,
    _BlendTarget,
    covariance_mode_weights,
    em_fixed_point_step,
    guess_s0_scale,
    online_em_gamma,
    online_em_update,
    polyak_ruppert_average,
    recursive_em_update,
)
from .evaluation import (
    covariance_fit_kl,
    expected_kl_logistic,
    gaussian_kl,
    laplace_logistic,
    mc_kl_to_posterior,  # noqa: F401 - perfbench/trace.py wraps it here by name
)
from .factor import (
    FaPrecision,
    init_isotropic_prior,
    woodbury_apply,  # noqa: F401 - perfbench/trace.py wraps it here by name
)
from .filters import (
    NONLINEAR_SCHEMES,
    GaussianBelief,
    LogisticModel,
    kalman_step_dense,
    lrvga_linear_step,
    lrvga_logistic_step,
    lrvga_nonlinear_step,
)
from .memory import MemoryMeter, contract_budget_bytes
from .datasets import (
    RegressionSpec,
    SyntheticCovSpec,
    gen_fa_covariance_samples,
    gen_linear_labels,
    gen_logistic_labels,
    gen_regression_inputs,
    parse_libsvm,
)

# Above this dimension no dense baseline or dense evaluation is attempted.
DENSE_EVAL_LIMIT = 600

# Largest max|P Sigma - I| of a linear run's exact posterior, P its
# precision and Sigma the symmetrised inverse, that a run is scored
# against. At n = 50 < d = 100, seeds 0-4 and 41 values of sigma0 from
# 100 to 1e6, every run that ended with |final_kl[kalman]| above 1e-6 (up
# to 1e12) was scored against a reference past it, and none under it did.
EXACT_RESIDUAL_LIMIT = 9e-8

COV_METHODS = ("recursive-em", "online-em", "batch-em")
NORMALIZE_MODES = ("mean-norm", "none")

# Stable stream ids for seeding: data, labels, init/filter.
# No id is 0: SeedSequence zero-pads its entropy, so default_rng([seed, 0])
# is default_rng(seed), the generator the problem specs draw their true
# parameters from, and a data stream keyed 0 would replay them.
_SEED_DATA, _SEED_LABELS, _SEED_FILTER = 1, 2, 3


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _option(default, help_text: str, *, kinds=None, lists=None, least=None, **meta):
    """A config field: its default (a list is copied for each config), its
    CLI flag's help text and any ``flag`` name or ``choices``, the run
    ``kinds`` that read it (None: every kind), the ``lists`` of them that
    take several values (None: all of them) and its ``least`` value."""
    meta = dict(help=help_text, kinds=kinds, lists=lists, least=least, **meta)
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    """Everything a run needs; JSON-serializable for the config echo.

    Each field but ``kind`` is a run option, and ``cli.build_parser``
    makes it one flag: ``--`` and its name with dashes (``--out`` for
    ``out_dir``), of the field's type, with its metadata's help, choices
    and run kinds (``_option``). A run kind's own defaults are in
    ``_KINDS``."""

    kind: str
    d: int = _option(100, "parameter dimension", least=1)
    p: list[int] = _option(
        [5], "factor rank(s), comma separated and distinct", lists=("linear", "logistic"), least=1)
    n: int = _option(1000, "number of streamed observations", least=1)
    k_hess: list[int] = _option(
        [10], "index draws z = x.theta per stage of the sampled filter, feeding both "
        "its curvature and its gradient; comma separated and distinct",
        kinds=("nonlinear",), least=1)
    inner_loops: int | None = _option(
        None, "EM passes per observation; in cov recursive-em the first is the "
        "closed-form rank-p fit", least=1)
    sigma0: list[float] = _option(
        [1.0], "prior scale(s), comma separated and distinct to 6 significant digits",
        kinds=("linear", "logistic", "nonlinear"), lists=("nonlinear",))
    c: float = _option(1.0, "input spectrum decay exponent",
                       kinds=("linear", "logistic", "nonlinear"))
    seed: int = _option(0, "master seed", least=0)
    scheme: str = _option("mirror-prox-skip-cov", "update scheme of the sampled filter",
                          kinds=("nonlinear",), choices=NONLINEAR_SCHEMES)
    dataset: str | None = _option(None, "libsvm-format file", kinds=("cov",))
    out_dir: str = _option("runs/latest", "output directory", flag="--out")
    checkpoints: int = _option(50, "number of log-spaced checkpoints", least=1)
    methods: list[str] = _option(list(COV_METHODS), "covariance methods to run, comma separated",
                                 kinds=("cov",), choices=COV_METHODS)
    p_true: int | None = _option(None, "generator rank", kinds=("cov",), least=1)
    # No run kind reads it; perfbench's warm-up still passes it.
    mc_samples: int = _option(1000, "unused: no run kind draws to score", least=2)
    batch_passes: int = _option(5, "full-data passes for the batch baseline",
                                kinds=("cov",), least=1)
    normalize: str = _option(
        "mean-norm", "mean-norm (default) scales every sample by one factor so the "
        "first 100 have mean squared norm d; none leaves them as read",
        kinds=("cov",), choices=NORMALIZE_MODES)
    record_timing: bool = _option(
        False, "write wall-clock times into results.csv (breaks byte reproducibility)")
    track_memory: bool = _option(
        False, f"meter auxiliary allocations above d = {DENSE_EVAL_LIMIT}", kinds=("linear",))


def make_config(kind: str, **overrides) -> ExperimentConfig:
    """Build a validated config: the field defaults, then the run kind's
    own (``_KINDS``), then the overrides that are not None."""
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}, expected one of {EXPERIMENT_KINDS}")
    values = {**_KINDS[kind][1], **{k: v for k, v in overrides.items() if v is not None}}
    unknown = set(values) - (set(ExperimentConfig.__dataclass_fields__) - {"kind"})
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = ExperimentConfig(kind=kind, **{k: _typed(k, v) for k, v in values.items()})
    _validate(cfg)
    return cfg


def declared_type(key: str) -> str:
    """The type the field ``key`` declares, without ``| None``: "int",
    "float", "str", "bool" or a list of one of them, "list[int]"."""
    return ExperimentConfig.__dataclass_fields__[key].type.split(" | ")[0]


def _typed(key: str, value):
    """``value`` as the type the field ``key`` declares, or a ConfigError.

    A count takes an int or an integral float, a real takes any finite
    number, and a list field takes a list or one item; a bool is not a
    number.
    """
    kind = declared_type(key)
    if kind.startswith("list["):
        items = value if isinstance(value, (list, tuple)) else [value]
        return [_typed_item(key, kind[5:-1], v) for v in items]
    return _typed_item(key, kind, value)


def _typed_item(key: str, kind: str, value):
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind == "int" and number and float(value).is_integer():
        return int(value)
    if kind == "float" and number and math.isfinite(value):
        return float(value)
    if (kind == "str" and isinstance(value, str)) or (kind == "bool" and isinstance(value, bool)):
        return value
    raise ConfigError(f"{key} takes {kind} values, got {value!r}")


def _validate(cfg: ExperimentConfig) -> None:
    """Check each option against its declaration (``_option``), then the
    rules that relate two options or depend on d."""
    default = ExperimentConfig(cfg.kind, **_KINDS[cfg.kind][1])
    # A dataset run takes its dimension and rank from the file.
    from_file = ("d", "p_true") if cfg.kind == "cov" and cfg.dataset is not None else ()
    unread = []
    for option in fields(cfg)[1:]:
        key, meta, value = option.name, option.metadata, getattr(cfg, option.name)
        values = value if isinstance(value, list) else [value]
        reads = (meta["kinds"] is None or cfg.kind in meta["kinds"]) and key not in from_file
        if not reads and value != getattr(default, key):
            unread.append(key)
        if not values:
            raise ConfigError(f"{key} takes at least one value")
        least = meta["least"]
        if least is not None and any(v is not None and v < least for v in values):
            raise ConfigError(f"{key} must be at least {least}, got {value}")
        if "choices" in meta and not set(values) <= set(meta["choices"]):
            raise ConfigError(f"{key} takes values in {meta['choices']}, got {value!r}")
        if not isinstance(value, list):
            continue
        # Rows and summary keys are named by these values, a float by its tag.
        tags = [f"{v:g}" for v in value] if declared_type(key) == "list[float]" else value
        if len(set(tags)) < len(tags):
            raise ConfigError(f"{key} values name the rows, so they must be distinct; got {tags}")
        if reads and meta["lists"] is not None and cfg.kind not in meta["lists"] and len(value) > 1:
            raise ConfigError(f"{cfg.kind} runs take one {key} value, got {value}")
    if any(p > cfg.d for p in cfg.p):
        raise ConfigError("each factor rank must satisfy p <= d")
    if cfg.p_true is not None and cfg.p_true > cfg.d:
        raise ConfigError("the generator rank must satisfy p_true <= d")
    # The priors scale by sigma0^2 and 1 / sigma0^2; both must be finite floats.
    if not all(s > 0 and 0 < s * s < math.inf and 1 / (s * s) < math.inf for s in cfg.sigma0):
        raise ConfigError("sigma0 values must be positive, with sigma0^2 and "
                          "1 / sigma0^2 positive finite floats")
    if cfg.track_memory and not (cfg.kind == "linear" and cfg.d > DENSE_EVAL_LIMIT):
        raise ConfigError(f"track_memory meters only linear runs above d = {DENSE_EVAL_LIMIT}")
    if cfg.kind == "nonlinear" and cfg.d > DENSE_EVAL_LIMIT:
        raise ConfigError(
            f"nonlinear runs diverge above d = {DENSE_EVAL_LIMIT}: the sampled filter's KL "
            "rises at K = 1 and ends far above the closed form's at K = 100; "
            f"keep d <= {DENSE_EVAL_LIMIT}"
        )
    if cfg.kind == "cov" and not from_file and cfg.d > 2000:
        raise ConfigError("covariance runs need dense evaluation; keep d <= 2000")
    if cfg.kind in ("linear", "logistic") and cfg.d > DENSE_EVAL_LIMIT and cfg.c != 0.0:
        raise ConfigError(
            "above the dense limit the input rotation (a d x d matrix) is "
            "unavailable; use c = 0"
        )
    if unread:
        who = f"{cfg.kind} runs" + (" on a dataset" if from_file else "")
        raise ConfigError(f"{who} never read {', '.join(unread)}: leave unset")


@dataclass
class CheckpointRow:
    checkpoint: int
    method: str
    p: int
    k: int
    kl: float | None
    stderr: float | None
    wall_ms: float | None


@dataclass
class RunReport:
    config: ExperimentConfig
    rows: list[CheckpointRow]
    summary: dict


def log_spaced_checkpoints(n: int, count: int) -> list[int]:
    """Log-spaced step indices in [1, n], deduplicated and sorted."""
    if count <= 0 or n < 1:
        return []
    pts = np.unique(np.round(np.geomspace(1.0, float(n), min(count, n))).astype(int))
    return [int(t) for t in pts]


def _rng(cfg: ExperimentConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, *key])


def _prior(cfg: ExperimentConfig, p: int, sigma0: float, rng) -> GaussianBelief:
    """The N(0, sigma0^2 I) prior belief, its precision factored at rank p."""
    return GaussianBelief(
        np.zeros(cfg.d), init_isotropic_prior(cfg.d, p, sigma0, rng=rng)
    )


def _fold(report: RunReport, marks, label, row, init, stream, step, score):
    """Run ``state = step(state, t, item)`` over the ``(t, item)`` pairs of
    ``stream``, starting from ``init()``, and return the final state.

    At each t in ``marks`` the row ``(method, p, k) = row`` is logged with
    ``score(state) -> (kl, stderr)``, or unscored when ``score`` is None.
    ``final_kl[label]`` (scored runs) and ``wall_seconds[label]`` go to
    the summary. The first state is built here so that no caller keeps it
    alive while the stream runs.
    """
    t0 = time.perf_counter()
    state = init()
    pending = iter(marks)
    mark = next(pending, None)
    kl = None
    for t, item in stream:
        state = step(state, t, item)
        if t == mark:
            kl, se = score(state) if score is not None else (None, None)
            wall = 1000.0 * (time.perf_counter() - t0) if report.config.record_timing else None
            report.rows.append(CheckpointRow(t, *row, kl, se, wall))
            mark = next(pending, None)
    if score is not None:
        report.summary[f"final_kl[{label}]"] = kl
    report.summary[f"wall_seconds[{label}]"] = round(time.perf_counter() - t0, 6)
    return state


def _kl_scorer(X, y, sigma0: float):
    """(KL, error) of a belief to the logistic posterior of (X, y)."""

    def score(q):
        est = expected_kl_logistic(q, X, y, sigma0)
        return est.value, est.std_error

    return score


# ---------------------------------------------------------------------------
# covariance tracking


def _cov_data(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, dict]:
    """Materialize the sample matrix, scaled to mean squared norm d under
    "mean-norm" (the scale is estimated from the first 100 rows), and the
    dense reference covariance the KL is measured against. Desk scale
    only."""
    info: dict = {}
    if cfg.dataset is not None:
        try:
            rows, _ = parse_libsvm(cfg.dataset)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read dataset {cfg.dataset}: {exc}") from exc
        d = rows.shape[1]
        if rows.shape[0] == 0:
            raise ConfigError("dataset is empty")
        if d > 2000:
            raise ConfigError("dataset dimension too large for dense evaluation")
        if cfg.p[0] > d:
            raise ConfigError(f"factor rank {cfg.p[0]} exceeds the dataset dimension {d}")
        raw = rows[: cfg.n].toarray()
        info["source"] = f"libsvm:{cfg.dataset}"
    else:
        d = cfg.d
        spec = SyntheticCovSpec(d, cfg.p[0] if cfg.p_true is None else cfg.p_true, cfg.seed)
        raw = np.array(list(gen_fa_covariance_samples(spec, cfg.n, _rng(cfg, _SEED_DATA))))
        info["source"] = f"synthetic(p_true={spec.p_true})"
    scale = _s0_guess(raw, d) if cfg.normalize == "mean-norm" else 1.0
    V = raw * scale
    info["normalization_scale"] = scale
    if cfg.dataset is None:
        S_ref = scale**2 * spec.dense_matrix()
    else:
        S_ref = (V.T @ V) / V.shape[0]
        _require_full_rank(V, S_ref)
    return V, S_ref, info


def _require_full_rank(V: np.ndarray, S_ref: np.ndarray) -> None:
    """The KL is measured against S_ref, the second moment of the rows
    read, so they must span R^d; name the cause when they do not."""
    n, d = V.shape
    rank = np.linalg.matrix_rank(S_ref, hermitian=True)
    if rank == d:
        return
    absent = np.flatnonzero(~V.any(axis=0)) + 1
    if absent.size:
        cause = "no row read has feature " + ", ".join(map(str, absent[:5]))
        cause += ", ..." if absent.size > 5 else ""
    elif n < d:
        cause = f"{n} rows cannot span {d} dimensions"
    else:
        cause = "the rows read are linearly dependent"
    raise ConfigError(
        f"the covariance of the first {n} rows has rank {rank} < d = {d} ({cause}); "
        "the KL against it is undefined"
    )


def _s0_guess(V: np.ndarray, d: int) -> float:
    """``guess_s0_scale`` of the first 100 rows; a leading batch without
    a usable norm is a configuration error."""
    try:
        return guess_s0_scale(V[:100], d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_covariance_experiment(cfg: ExperimentConfig) -> RunReport:
    """Track a covariance matrix three ways on one stream and score the
    factored fit by the Gaussian KL against the reference covariance."""
    V, S_ref, info = _cov_data(cfg)
    n, d = V.shape
    p = cfg.p[0]
    marks = log_spaced_checkpoints(n, cfg.checkpoints)
    sigma0 = _s0_guess(V, d)
    info["sigma0_guess"] = sigma0
    report = RunReport(cfg, [], dict(info))

    def prior(index):
        return init_isotropic_prior(d, p, sigma0, rng=_rng(cfg, _SEED_FILTER, index))

    def score(fa):
        return covariance_fit_kl(fa, S_ref), None

    def online_step(state, t, v):
        # (statistics, iterate, fit scored): the fit is the Polyak-Ruppert
        # average over the second half of the stream, the iterate before.
        stats, fa, fit = state
        stats, fa = online_em_update(stats, fa, v, online_em_gamma(t))
        return stats, fa, polyak_ruppert_average(fit, fa, t - n // 2) if t > n // 2 else fa

    for method in cfg.methods:
        if method == "recursive-em":
            # The first update, at alpha = 0, discards the state it starts from.
            _fold(
                report, marks, method, (method, p, 0),
                lambda: FaPrecision(np.zeros((d, p)), np.ones(d)), enumerate(V, 1),
                lambda fa, t, v: recursive_em_update(
                    fa, v[:, None], covariance_mode_weights(t), cfg.inner_loops
                ),
                score,
            )
        elif method == "online-em":
            _fold(
                report, marks, method, (method, p, 0),
                lambda: (OnlineEmState.zeros(d, p), prior(1), None), enumerate(V, 1),
                online_step, lambda state: score(state[2]),
            )
        elif method == "batch-em":
            # One EM cycle per pass toward V^T V / n, checkpointed at pass x n.
            target = _BlendTarget(None, V.T, 0.0, 1.0 / n)
            passes = [k * n for k in range(1, cfg.batch_passes + 1)]
            _fold(
                report, passes, method, (method, p, 0), lambda: prior(2),
                ((t, None) for t in passes),
                lambda fa, t, _: em_fixed_point_step(fa, target), score,
            )
    return report


# ---------------------------------------------------------------------------
# linear regression


def _regression_data(cfg: ExperimentConfig, sigma0: float, labels, s_idx: int = 0):
    """Inputs X, labels y and the observation list of the regression
    problem at prior scale sigma0, labelled by ``labels`` (a ``datasets``
    label generator); s_idx keys its data and label streams."""
    spec = RegressionSpec(cfg.d, cfg.n, c=cfg.c, sigma0=sigma0, seed=cfg.seed)
    X = np.array(list(gen_regression_inputs(spec, _rng(cfg, _SEED_DATA, s_idx))))
    obs = list(labels(X, spec.truth(), _rng(cfg, _SEED_LABELS, s_idx)))
    return X, np.array([o.y for o in obs]), obs


def _exact_linear_scorer(cfg: ExperimentConfig, X, y, sigma0: float):
    """(KL, None) of a belief to the exact Gaussian posterior of (X, y);
    refused before the run starts when that posterior is too
    ill-conditioned to trust (``EXACT_RESIDUAL_LIMIT``)."""
    prec_star = np.eye(cfg.d) / sigma0**2 + X.T @ X
    cov_star = np.linalg.inv(prec_star)
    target = DenseGaussian(cov_star @ (X.T @ y), (cov_star + cov_star.T) / 2)
    try:
        np.linalg.cholesky(target.cov)
    except np.linalg.LinAlgError:
        residual, fault = np.inf, "its covariance is not positive definite"
    else:
        residual = np.maximum.reduce(np.abs(prec_star @ target.cov - np.eye(cfg.d)), axis=None)
        fault = f"max|P Sigma - I| = {residual:.1e} exceeds {EXACT_RESIDUAL_LIMIT:g}"
    if not residual <= EXACT_RESIDUAL_LIMIT:
        raise ConfigError(
            f"the exact posterior at sigma0 = {sigma0:g}, n = {cfg.n} "
            f"{'<' if cfg.n < cfg.d else '>='} d = {cfg.d} is too ill-conditioned to score "
            f"against: {fault}; lower sigma0 or raise n"
        )
    return lambda q: (gaussian_kl(q, target), None)


def run_linear_experiment(cfg: ExperimentConfig) -> RunReport:
    """Stream ridge-style linear regression, one filter run per p.

    The dimension alone decides, before the runs, where their observations
    come from and how they are scored. Up to the dense limit the
    observations are materialised, and each run is scored by the exact
    Gaussian KL against the full-data posterior (``_exact_linear_scorer``),
    with a dense Kalman trajectory for reference. Above it each run draws
    a fresh seeded stream and is unscored: it reports its final mean norm
    and wall time. Under ``track_memory`` the meter wraps the filter runs
    only, and their peak is held to the budget of the largest p.
    """
    sigma0 = cfg.sigma0[0]
    marks = log_spaced_checkpoints(cfg.n, cfg.checkpoints)
    report = RunReport(cfg, [], {})
    if cfg.d <= DENSE_EVAL_LIMIT:
        X, y, obs = _regression_data(cfg, sigma0, gen_linear_labels)
        score, stream = _exact_linear_scorer(cfg, X, y, sigma0), lambda: obs
    else:
        # Inputs are rescaled to unit mean squared norm; the raw spectrum has
        # E||x||^2 = d. The scaling sets the signal-to-noise ratio, and so
        # the outputs. The spectrum trace is known, so the scale is exact.
        spec = RegressionSpec(cfg.d, cfg.n, c=cfg.c, sigma0=sigma0, seed=cfg.seed)
        scale = report.summary["input_scale"] = 1.0 / np.sqrt(cfg.d)
        score, stream = None, lambda: gen_linear_labels(
            (x * scale for x in gen_regression_inputs(spec, _rng(cfg, _SEED_DATA))),
            spec.truth(), _rng(cfg, _SEED_LABELS),
        )
    meter = MemoryMeter() if cfg.track_memory else nullcontext()
    with meter:
        for p_idx, p in enumerate(cfg.p):
            # Only the mean outlives the fold, so no belief is metered twice.
            mu = _fold(
                report, marks, f"lrvga,p={p}", ("lrvga", p, 0),
                lambda: _prior(cfg, p, sigma0, _rng(cfg, _SEED_FILTER, p_idx)),
                enumerate(stream(), 1),
                lambda belief, t, o: lrvga_linear_step(belief, o, cfg.inner_loops), score,
            ).mu
            if score is None:
                report.summary[f"final_mu_norm[lrvga,p={p}]"] = float(np.linalg.norm(mu))
    if cfg.track_memory:
        budget = contract_budget_bytes(cfg.d, max(cfg.p))
        report.summary.update(peak_aux_bytes=meter.peak_bytes, aux_budget_bytes=budget,
                              aux_within_budget=meter.peak_bytes <= budget)
    if score is not None:
        _fold(
            report, marks, "kalman", ("kalman", cfg.d, 0),
            lambda: DenseGaussian(np.zeros(cfg.d), sigma0**2 * np.eye(cfg.d)),
            enumerate(stream(), 1), lambda dense, t, o: kalman_step_dense(dense, o), score,
        )
    return report


# ---------------------------------------------------------------------------
# logistic regression


def run_logistic_experiment(cfg: ExperimentConfig) -> RunReport:
    """Stream Bayesian logistic regression, with a Laplace baseline up to
    the dense limit. A row's kl is the quadrature KL to the full-data
    posterior, up to its log evidence, and its stderr the quadrature's
    error bound."""
    sigma0 = cfg.sigma0[0]
    X, y, obs = _regression_data(cfg, sigma0, gen_logistic_labels)
    score = _kl_scorer(X, y, sigma0)
    marks = log_spaced_checkpoints(cfg.n, cfg.checkpoints)
    report = RunReport(cfg, [], {"label_balance": float(np.mean(y))})
    final_beliefs: dict[int, GaussianBelief] = {}
    for p_idx, p in enumerate(cfg.p):
        final_beliefs[p] = _fold(
            report, marks, f"lrvga,p={p}", ("lrvga", p, 0),
            lambda: _prior(cfg, p, sigma0, _rng(cfg, _SEED_FILTER, p_idx)),
            enumerate(obs, 1),
            lambda belief, t, o: lrvga_logistic_step(belief, o, cfg.inner_loops),
            score,
        )
    if cfg.d > DENSE_EVAL_LIMIT:
        return report

    # One step at t = n: the fit to all n observations.
    lap = _fold(
        report, [cfg.n], "laplace", ("laplace", cfg.d, 0), lambda: None, [(cfg.n, None)],
        lambda _, t, __: laplace_logistic(X, y, sigma0), score,
    )
    for p, belief in final_beliefs.items():
        cos = float(
            belief.mu @ lap.mu / (np.linalg.norm(belief.mu) * np.linalg.norm(lap.mu))
        )
        report.summary[f"cosine_mean_vs_map[p={p}]"] = cos
    return report


# ---------------------------------------------------------------------------
# nonlinear ablation


def run_nonlinear_ablation(cfg: ExperimentConfig) -> RunReport:
    """Sampled-expectation logistic filtering across (K, sigma0) cells,
    against the closed-form-expectation filter as baseline, scored as in
    ``run_logistic_experiment``: stderr is the quadrature's error bound."""
    p = cfg.p[0]
    marks = log_spaced_checkpoints(cfg.n, cfg.checkpoints)
    report = RunReport(cfg, [], {"scheme": cfg.scheme})
    model = LogisticModel()

    for s_idx, sigma0 in enumerate(cfg.sigma0):
        X, y, obs = _regression_data(cfg, sigma0, gen_logistic_labels, s_idx)
        tag = f"s0={sigma0:g}"
        score = _kl_scorer(X, y, sigma0)
        _fold(
            report, marks, f"closed-form,{tag}", (f"closed-form[{tag}]", p, 0),
            lambda: _prior(cfg, p, sigma0, _rng(cfg, _SEED_FILTER, s_idx, 0)),
            enumerate(obs, 1),
            lambda belief, t, o: lrvga_logistic_step(belief, o, cfg.inner_loops),
            score,
        )

        for k_idx, k in enumerate(cfg.k_hess):
            # One generator draws the prior's factors, then the filter's samples.
            rng = _rng(cfg, _SEED_FILTER, s_idx, 1 + k_idx)
            _fold(
                report, marks, f"sampled,{tag},K={k}", (f"sampled[{tag}]", p, k),
                lambda: _prior(cfg, p, sigma0, rng), enumerate(obs, 1),
                lambda belief, t, o: lrvga_nonlinear_step(
                    belief, o, model, k=k, inner_loops=cfg.inner_loops,
                    scheme=cfg.scheme, rng=rng,
                ),
                score,
            )
    return report


# ---------------------------------------------------------------------------
# dispatch and reporting


# Each run kind's driver, and the config defaults it sets over the fields'.
_KINDS = {
    "cov": (run_covariance_experiment, {}),
    "linear": (run_linear_experiment, {}),
    "logistic": (run_logistic_experiment, {"d": 20, "sigma0": [4.0]}),
    "nonlinear": (run_nonlinear_ablation,
                  {"d": 20, "p": [10], "sigma0": [1.0, 2.0, 3.0], "k_hess": [1, 10, 100]}),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    return _KINDS[cfg.kind][0](cfg)


CSV_HEADER = ("checkpoint", "method", "p", "K", "kl", "stderr", "wall_ms")


def emit_report(report: RunReport, out_dir: str | Path) -> dict[str, str]:
    """Write results.csv, config.json, and summary.txt.

    results.csv carries one row per checkpoint per method with the exact
    columns (checkpoint, method, p, K, kl, stderr, wall_ms), and its
    bytes are a pure function of (config, seed): the wall_ms column is
    only populated when the config requests timing, because measured
    times are not reproducible. config.json is the canonicalized config
    echo (sorted keys); summary.txt holds human-oriented lines including
    wall-clock measurements.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = out / "results.csv"
    with open(results, "w", encoding="utf-8", newline="") as fh:
        # None is written as an empty field
        csv.writer(fh, lineterminator="\n").writerows([CSV_HEADER, *map(astuple, report.rows)])
    config_path = out / "config.json"
    with open(config_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(report.config), fh, sort_keys=True, indent=2)
        fh.write("\n")
    summary_path = out / "summary.txt"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"experiment: {report.config.kind}\n")
        fh.write(f"rows: {len(report.rows)}\n")
        for key in sorted(report.summary):
            fh.write(f"{key}: {report.summary[key]}\n")
    return {
        "results": str(results),
        "config": str(config_path),
        "summary": str(summary_path),
    }


def read_results_csv(path) -> list[CheckpointRow]:
    """Parse a results.csv back into rows (round-trips emit_report),
    skipping blank lines; a wrong header, field count or number raises ValueError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = csv.reader(fh)
        header = next(lines, [])
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        return [CheckpointRow(int(ck), method, int(p), int(k),
                              *(float(v) if v else None for v in (kl, stderr, wall)))
                for ck, method, p, k, kl, stderr, wall in filter(None, lines)]
