"""Command-line interface.

Subcommands:

* ``run``          execute an experiment from a YAML config (CLI flags
                   override config entries) and write the output files;
* ``oracle-check`` cross-validate the closed-form prediction sets against
                   the generic engine and full enumeration on random
                   instances;
* ``report``       recompute the per-time metrics from an event log.

Exit codes: 0 success, 2 configuration error, 3 data error, and 1 for an
oracle-check mismatch or an internal error: a failed precondition, such
as a closed form finding unselected a point the observed trajectory
selected.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from .errors import (
    ConfigurationError,
    DomainError,
    GuardError,
    ParseError,
    PreconditionError,
    SchemaError,
)
from .experiment import ExperimentConfig, recompute_metrics, run_experiment, write_outputs

EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pemi",
        description="Selection-conditional conformal prediction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    run.add_argument("--config", type=Path, help="YAML config file")
    run.add_argument("--seed", type=int)
    run.add_argument("--alpha", type=float)
    run.add_argument("--M", type=int, dest="M")
    run.add_argument("--T", type=int, dest="T")
    run.add_argument("--N", type=int, dest="N")
    run.add_argument("--rule", help="rule name override (keeps other rule options)")
    run.add_argument("--method", action="append", dest="methods", help="repeatable")
    run.add_argument("--out", help="output directory")

    oc = sub.add_parser("oracle-check", help="closed-form vs generic-engine battery")
    oc.add_argument("--instances", type=int, default=8, help="instances per rule family")
    oc.add_argument("--seed", type=int, default=0)
    oc.add_argument("--grid", type=int, default=40, help="label grid resolution")
    oc.add_argument("--full-enum", action="store_true", help="also check all-orderings references")

    rep = sub.add_parser("report", help="recompute metrics from an event log")
    rep.add_argument("--events", type=Path, required=True)
    rep.add_argument("--out", type=Path, help="metrics CSV to write")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {args.config}") from None
        except yaml.YAMLError as err:
            raise ConfigurationError(f"invalid YAML in {args.config}: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{args.config}: config must be a mapping")
    for key in ("seed", "alpha", "M", "T", "N", "out"):
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    if args.methods:
        raw["methods"] = args.methods
    if args.rule:
        spec = raw.get("rule", {})
        if not isinstance(spec, dict):
            raise ConfigurationError(f"config key 'rule' has the wrong type: {spec!r}")
        raw["rule"] = {**spec, "name": args.rule}
    return ExperimentConfig.from_dict(raw)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = run_experiment(config)
    paths = write_outputs(result)
    for line in result.warnings:
        print(f"warning: {line}", file=sys.stderr)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    from .crosscheck import run_crosscheck

    report = run_crosscheck(
        instances=args.instances,
        seed=args.seed,
        grid_points=args.grid,
        full_enum=args.full_enum,
    )
    ok = True
    for line in report.lines:
        print(line)
        ok &= not line.startswith("FAIL")
    print("all consistent" if ok else "MISMATCH FOUND")
    return 0 if ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    out = args.out if args.out is not None else args.events.with_name("metrics_recomputed.csv")
    rows = recompute_metrics(args.events, out)
    print(f"{len(rows)} metric rows -> {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "oracle-check":
            return _cmd_oracle_check(args)
        if args.command == "report":
            return _cmd_report(args)
        raise AssertionError(args.command)
    except (ConfigurationError, GuardError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchemaError, ParseError, DomainError, FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except PreconditionError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
