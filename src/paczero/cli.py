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


# each sweep command: its help, its harness function, and the parameter it
# sweeps (its flag and keyword) with the type of that parameter's values
_SWEEPS = {
    "sweep-mi": ("same recipe across total budgets", harness.sweep_mi_plateau, "budgets", float),
    "sweep-t": ("horizon ladder on one trajectory", harness.sweep_t_ladder, "rungs", int),
    "sweep-decomp": ("surrogate ladder plus both private variants",
                     harness.sweep_decomposition, None, None),
    "sweep-k": ("directions-per-step ladder", harness.sweep_k, "ks", int),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paczero",
        description="Info-budgeted sign-release training: runs, sweeps, attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train per seed, persist artifacts, validate")
    _add_config_args(p)
    p.set_defaults(handler=_cmd_run)

    for name, (text, function, swept, kind) in _SWEEPS.items():
        p = sub.add_parser(name, help=text)
        _add_config_args(p)
        p.set_defaults(handler=_cmd_sweep)
        if swept is not None:
            p.add_argument(f"--{swept}", type=kind, nargs="+", default=_default(function, swept))

    p = sub.add_parser("attack", help="Monte-Carlo membership attack vs bound")
    _add_config_args(p)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--attack-seed", type=int, default=0)
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("validate", help="re-derive and check a transcript")
    p.add_argument("transcript", help="path to transcript.jsonl")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("bounds", help="MI / attack-success / DP reference table")
    p.add_argument("--mi", type=float, nargs="+",
                   default=_default(harness.report_bounds, "mi_values"))
    p.add_argument("--eps", type=float, nargs="+",
                   default=_default(harness.report_bounds, "eps_values"))
    p.add_argument("--delta", type=float, default=_default(harness.report_bounds, "delta"))
    p.set_defaults(handler=_cmd_bounds)

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


def _report(result: harness.SweepResult) -> int:
    """Print a table's CSV and then its summary lines; exit as its violation says."""
    print(result.csv_text(), end="")
    for line in result.footer:
        print(line)
    return _verdict(result.violation)


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_yaml(args.config, args.overrides)
    _, function, swept, _ = _SWEEPS[args.command]
    values = {} if swept is None else {swept: tuple(getattr(args, swept))}
    return _report(function(config, out_dir=_out_dir(args, config), **values))


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
    return _report(harness.report_bounds(
        mi_values=tuple(args.mi), eps_values=tuple(args.eps), delta=args.delta
    ))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a fault is reported as one line; NumPy's overflow warnings would print first
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except (ValueError, TwoPointNumericsError) as exc:  # ConfigError, SchemaError, divergence
        return _verdict(str(exc))
    except OSError as exc:  # a missing file, a directory, a file in a path
        kind = "missing file" if isinstance(exc, FileNotFoundError) else exc.strerror
        return _verdict(f"{kind}: {exc.filename or exc}")


if __name__ == "__main__":
    sys.exit(main())
