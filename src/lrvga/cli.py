"""Command-line front end for the experiment drivers.

Besides ``--experiment`` and ``--config``, every flag is built from a
field of ``ExperimentConfig``, which declares its type, default, help
and the run kinds that read it.

Exit codes: 0 on success, 1 for configuration problems (bad flags, bad
config file, invalid values), 2 when a run diverges, 3 for I/O failures
while writing outputs, 4 when a ``--track-memory`` run's metered peak
exceeds its budget (its outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .experiments import (
    ConfigError,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    declared_type,
    emit_report,
    make_config,
    run_experiment,
)
from .factor import DivergenceError


def _comma_list(item):
    """The flag type of a list field: comma-separated items."""
    def parse(text: str) -> list:
        return [item(tok.strip()) for tok in text.split(",") if tok.strip()]

    parse.__name__ = f"_{item.__name__}_list"  # argparse names it in its errors
    return parse


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so main() can return exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _help(meta) -> str:
    """An option's help text, naming the run kinds that read it and, of a
    list, those that take several values, as ``ExperimentConfig`` declares."""
    notes = [f"{', '.join(meta['kinds'])} runs"] if meta["kinds"] else []
    notes += [f"a list only in {', '.join(meta['lists'])} runs"] if meta["lists"] else []
    return f"{meta['help']} ({'; '.join(notes)})" if notes else meta["help"]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lrvga",
        description="Streaming low-rank-plus-diagonal Gaussian estimation experiments.",
    )
    parser.add_argument("--experiment", choices=EXPERIMENT_KINDS, help="which experiment to run")
    parser.add_argument("--config", help="JSON file with config values (flags override it)")
    for option in fields(ExperimentConfig)[1:]:  # every field but kind
        meta, kind = option.metadata, declared_type(option.name)
        flag = meta.get("flag", "--" + option.name.replace("_", "-"))
        if kind == "bool":
            parser.add_argument(flag, action="store_true", default=None, dest=option.name,
                                help=_help(meta))
        else:
            many = kind.startswith("list[")
            scalar = {"int": int, "float": float, "str": str}[
                kind.removeprefix("list[").removesuffix("]")]
            # argparse would match choices against the whole list: make_config checks a list's.
            parser.add_argument(
                flag, dest=option.name, choices=None if many else meta.get("choices"),
                help=_help(meta), type=_comma_list(scalar) if many else scalar,
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
    overrides.update((key, value) for key, value in vars(args).items()
                     if value is not None and key not in ("experiment", "config"))
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
    if report.summary.get("aux_within_budget") is False:
        peak, budget = report.summary["peak_aux_bytes"], report.summary["aux_budget_bytes"]
        print(f"error: peak auxiliary memory {peak} bytes exceeds the budget of {budget} bytes",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
