"""Command-line interface.

Subcommands: `run` executes a configured simulation and writes flows.csv /
summary.csv (and trace.tsv with --trace); `verify` dry-runs config
validation; `oracle-check` runs the exhaustive soundness suite on the
configured scenario when the mesh is small enough.

Exit codes: 0 success, 2 configuration error, 3 runtime invariant violation,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from .config import RunConfig, echo_lines, parse_config, validate_config
from .engine import run_simulation
from .errors import BeenocError, ConfigError, InvariantViolationError, OracleSizeError
from .metrics import write_report
from .oracle import single_flow_scenario, soundness_violation
from .traffic import make_rng

ORACLE_CHECK_SCENARIOS = 40


def _load_config(path: str) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if getattr(args, "workload", None) is not None:
        changes["workload_file"] = args.workload
    if getattr(args, "trace", False):
        changes["trace"] = True
    if not changes:
        return cfg
    defaults = tuple(k for k in cfg.applied_defaults if k not in changes)
    cfg = replace(cfg, applied_defaults=defaults, **changes)
    validate_config(cfg, {f.name for f in fields(cfg)} - {"applied_defaults", *defaults})  # keys set or overridden
    return cfg


def _cmd_run(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    print("resolved configuration:")
    for line in echo_lines(cfg):
        print(f"  {line}")
    report = run_simulation(cfg)
    write_report(report, args.out)
    s = report.summary
    ratio = "n/a" if s.success_ratio is None else f"{s.success_ratio:.6f}"
    print(
        f"run complete: {s.offered} flows offered, {s.established} established "
        f"(success ratio {ratio}), {report.stats.events_processed} events, "
        f"final cycle {report.stats.final_cycle}"
    )
    print(f"wrote {Path(args.out) / 'flows.csv'} and {Path(args.out) / 'summary.csv'}")
    if report.trace is not None:
        print(f"wrote {Path(args.out) / 'trace.tsv'}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    print("configuration ok:")
    for line in echo_lines(cfg):
        print(f"  {line}")
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = _load_config(args.config)
    if cfg.mesh_width > 5 or cfg.mesh_height > 5:
        raise OracleSizeError(
            f"oracle-check needs a mesh no larger than 5x5, got {cfg.mesh_width}x{cfg.mesh_height}"
        )
    rng = make_rng(cfg.seed)
    established = 0
    for index in range(ORACLE_CHECK_SCENARIOS):
        outcome = single_flow_scenario(cfg, rng, saturate=index % 2 == 1)
        problem = soundness_violation(outcome)
        if problem is not None:
            raise InvariantViolationError(
                f"scenario {index} ({outcome.source}->{outcome.destination}, "
                f"bandwidth {outcome.required_bandwidth}): {problem}"
            )
        established += outcome.established
    print(
        f"oracle-check passed: {ORACLE_CHECK_SCENARIOS} scenarios sound "
        f"({established} established)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beenoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured simulation and write CSV reports")
    run.add_argument("--config", required=True, help="path to the key = value config file")
    run.add_argument("--seed", type=int, default=None, help="override the configured seed")
    run.add_argument("--out", default=".", help="output directory (default: current directory)")
    run.add_argument("--trace", action="store_true", help="also write a per-event trace.tsv")
    run.add_argument("--workload", default=None, help="override the workload file path")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="validate a config file without running")
    verify.add_argument("--config", required=True)
    verify.set_defaults(func=_cmd_verify)

    oracle = sub.add_parser("oracle-check", help="run the exhaustive soundness suite (small meshes only)")
    oracle.add_argument("--config", required=True)
    oracle.set_defaults(func=_cmd_oracle_check)

    return parser


def cli_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"error: invariant: {exc}", file=sys.stderr)
        return 3
    except BeenocError as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(cli_main())
