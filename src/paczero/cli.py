"""Command-line driver.

Subcommands: run, sweep-mi, sweep-t, sweep-decomp, sweep-k, attack,
validate, bounds.  Every command exits 0 on success; on failure the exit
code is nonzero and the first failed invariant is named on stderr.  The
artifact root defaults to ./runs and can be overridden with --out or the
PACZERO_OUTPUT_ROOT environment variable.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from . import harness
from .accounting import validate_transcript
from .adversary import empirical_mia_experiment
from .engine import TwoPointNumericsError
from .harness import ExperimentConfig

__all__ = ["main", "build_parser"]


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="YAML experiment config")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY.PATH=VALUE", help="override a nested config value",
    )
    parser.add_argument("--out", default=None, help="artifact root directory")


def _default(function, name: str):
    """A harness function's own default for one of its parameters."""
    return inspect.signature(function).parameters[name].default


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paczero",
        description="Info-budgeted sign-release training: runs, sweeps, attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train per seed, persist artifacts, validate")
    _add_config_args(p)

    p = sub.add_parser("sweep-mi", help="same recipe across total budgets")
    _add_config_args(p)
    p.add_argument("--budgets", type=float, nargs="+",
                   default=_default(harness.sweep_mi_plateau, "budgets"))

    p = sub.add_parser("sweep-t", help="horizon ladder on one trajectory")
    _add_config_args(p)
    p.add_argument("--rungs", type=int, nargs="+",
                   default=_default(harness.sweep_t_ladder, "rungs"))

    p = sub.add_parser("sweep-decomp",
                       help="surrogate ladder plus both private variants")
    _add_config_args(p)

    p = sub.add_parser("sweep-k", help="directions-per-step ladder")
    _add_config_args(p)
    p.add_argument("--ks", type=int, nargs="+", default=_default(harness.sweep_k, "ks"))

    p = sub.add_parser("attack", help="Monte-Carlo membership attack vs bound")
    _add_config_args(p)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--attack-seed", type=int, default=0)

    p = sub.add_parser("validate", help="re-derive and check a transcript")
    p.add_argument("transcript", help="path to transcript.jsonl")

    p = sub.add_parser("bounds", help="MI / attack-success / DP reference table")
    p.add_argument("--mi", type=float, nargs="+",
                   default=_default(harness.report_bounds, "mi_values"))
    p.add_argument("--eps", type=float, nargs="+",
                   default=_default(harness.report_bounds, "eps_values"))
    p.add_argument("--delta", type=float, default=_default(harness.report_bounds, "delta"))

    return parser


def _out_dir(args: argparse.Namespace, config: ExperimentConfig) -> Path:
    root = harness.output_root(args.out)
    return root / config.label


def _verdict(violation: str | None) -> int:
    """Exit code 0 without a violation; otherwise name it on stderr."""
    if violation is None:
        return 0
    print(f"FAILED invariant: {violation}", file=sys.stderr)
    return 1


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_yaml(args.config, args.overrides)
    out = _out_dir(args, config)
    summary = harness.run_experiment(config, out_dir=out)
    print(summary.csv_text(), end="")
    print(f"artifacts: {out}")
    return _verdict(summary.first_violation())


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_yaml(args.config, args.overrides)
    out = _out_dir(args, config)
    if args.command == "sweep-mi":
        result = harness.sweep_mi_plateau(config, budgets=tuple(args.budgets), out_dir=out)
    elif args.command == "sweep-t":
        result = harness.sweep_t_ladder(config, rungs=tuple(args.rungs), out_dir=out)
    elif args.command == "sweep-k":
        result = harness.sweep_k(config, ks=tuple(args.ks), out_dir=out)
    else:
        result = harness.sweep_decomposition(config, out_dir=out)
    print(result.csv_text(), end="")
    if args.command == "sweep-mi":
        print(f"test-metric spread: {result.notes['test_spread']:.6g}")
    if args.command == "sweep-t" and result.notes["drift_at_4x"] is not None:
        print(f"test drift at 4x best rung: {result.notes['drift_at_4x']:+.6g}")
    return _verdict(result.violation)


def _cmd_attack(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_yaml(args.config, args.overrides)
    result = empirical_mia_experiment(
        config.make_task(), config.mechanism, config.train,
        trials=args.trials, seed=args.attack_seed,
    )
    print(
        f"trials={result.trials} rate={result.empirical_rate:.4f} "
        f"bound={result.bound:.4f} se={result.standard_error:.4f}"
    )
    if not result.sound():
        return _verdict("empirical attack rate exceeded the posterior bound + 3 SE")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    transcript = harness.load_transcript(args.transcript)
    harness.load_design(transcript)
    report = validate_transcript(transcript)
    print(report)
    print(f"re-derived: {', '.join(report.rederived)}; trusted: {', '.join(report.trusted)}")
    return _verdict(None if report.ok else report.first_violation or report.message)


def _cmd_bounds(args: argparse.Namespace) -> int:
    result = harness.report_bounds(
        mi_values=tuple(args.mi), eps_values=tuple(args.eps), delta=args.delta
    )
    print(result.csv_text(), end="")
    print(result.notes["disclaimer"])
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep-mi": _cmd_sweep,
    "sweep-t": _cmd_sweep,
    "sweep-decomp": _cmd_sweep,
    "sweep-k": _cmd_sweep,
    "attack": _cmd_attack,
    "validate": _cmd_validate,
    "bounds": _cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a fault is reported as one line; NumPy's overflow warnings would print first
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except (ValueError, TwoPointNumericsError) as exc:  # ConfigError, SchemaError, divergence
        return _verdict(str(exc))
    except OSError as exc:  # a missing file, a directory, a file in a path
        kind = "missing file" if isinstance(exc, FileNotFoundError) else exc.strerror
        return _verdict(f"{kind}: {exc.filename or exc}")


if __name__ == "__main__":
    sys.exit(main())
