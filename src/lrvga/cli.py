"""Command-line front end for the experiment drivers.

Exit codes: 0 on success, 1 for configuration problems (bad flags, bad
config file, invalid values), 2 when a run diverges, 3 for I/O failures
while writing outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    DENSE_EVAL_LIMIT,
    ConfigError,
    EXPERIMENT_KINDS,
    emit_report,
    make_config,
    run_experiment,
)
from .factor import DivergenceError
from .filters import NONLINEAR_SCHEMES


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so main() can return exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lrvga",
        description="Streaming low-rank-plus-diagonal Gaussian estimation experiments.",
    )
    parser.add_argument(
        "--experiment",
        choices=list(EXPERIMENT_KINDS) + ["covariance"],
        help="which experiment to run",
    )
    parser.add_argument("--config", help="JSON file with config values (flags override it)")
    parser.add_argument("--d", type=int, help="parameter dimension")
    parser.add_argument("--p", type=_int_list, help="factor rank(s), comma separated")
    parser.add_argument("--n", type=int, help="number of streamed observations")
    parser.add_argument(
        "--k-hess", type=_int_list, dest="k_hess",
        help="parameter draws per stage of the sampled filter, feeding both "
        "the curvature and the gradient; comma separated",
    )
    parser.add_argument(
        "--inner-loops", type=int, dest="inner_loops",
        help="EM passes per observation; in cov recursive-em the first is the "
        "closed-form rank-p fit",
    )
    parser.add_argument(
        "--sigma0", type=_float_list,
        help="prior scale(s), comma separated",
    )
    parser.add_argument(
        "--eps-init", type=float, dest="eps_init",
        help="fraction of prior precision carried by the low-rank part",
    )
    parser.add_argument("--c", type=float, help="input spectrum decay exponent")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument(
        "--scheme",
        choices=NONLINEAR_SCHEMES,
        help="nonlinear update scheme",
    )
    parser.add_argument("--dataset", help="libsvm-format file (covariance runs)")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--checkpoints", type=int, help="number of log-spaced checkpoints")
    parser.add_argument(
        "--methods", type=_str_list,
        help="covariance methods to run, comma separated",
    )
    parser.add_argument("--p-true", type=int, dest="p_true", help="generator rank (covariance)")
    parser.add_argument(
        "--mc-samples", type=int, dest="mc_samples", help="unused: no run kind draws to score"
    )
    parser.add_argument(
        "--batch-passes", type=int, dest="batch_passes",
        help="full-data passes for the batch baseline",
    )
    parser.add_argument(
        "--normalize", choices=["mean-norm", "none"],
        help="covariance runs: mean-norm (default) scales every sample by one "
        "factor so the first 100 have mean squared norm d; none leaves them as read",
    )
    parser.add_argument(
        "--record-timing", action="store_true", default=None, dest="record_timing",
        help="write wall-clock times into results.csv (breaks byte reproducibility)",
    )
    parser.add_argument(
        "--track-memory", action="store_true", default=None, dest="track_memory",
        help=f"meter auxiliary allocations (linear runs above d = {DENSE_EVAL_LIMIT} only)",
    )
    return parser


def config_from_args(argv=None):
    args = build_parser().parse_args(argv)
    overrides: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        overrides.update(loaded)
    kind = args.experiment or overrides.pop("kind", None)
    if kind is None:
        raise ConfigError("an experiment kind is required (--experiment or config file)")
    overrides.pop("kind", None)
    for key, value in vars(args).items():
        if key in ("experiment", "config") or value is None:
            continue
        overrides[key] = value
    return make_config(kind, **overrides)


def main(argv=None) -> int:
    try:
        cfg = config_from_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_experiment(cfg)
        paths = emit_report(report, cfg.out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"error: run diverged: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for name in ("results", "config", "summary"):
        print(f"wrote {paths[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
