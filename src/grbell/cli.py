"""Command-line interface.

    grbell run --config cfg.json [--out report.json] [--format text|csv|json]
    grbell sweep --config cfg.json --out rows.csv
    grbell horizon --mass 1.0 --r-start 10 --r-end 2.01 --steps 40 --out w.csv
    grbell lhv-audit --config cfg.json [--n 100000] [--seed 0]
    grbell selftest

The horizon study reads radii down to the fixed guard radius 2M(1 + 1e-6);
a radius at or inside it gives a horizon_guard row.

Global options: --tol, --seed, --quiet. --seed and --n override the
config's mc block and are checked as its fields are (a non-negative
integer seed). Exit codes: 0 success, 2 configuration error (an --out that
cannot be written, or a standard output closed before the output was
written, too), 3 geometry or integration error, 4 statistical
audit/selftest failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import replace
from itertools import chain

import numpy as np

from . import scenario as sc
from .errors import ConfigError, PipelineError, SimulatorError
from .geometry import SCHWARZSCHILD, MetricSpec
from .lhv import SIGMA_FACTOR

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_AUDIT = 4


# built once per process: a parser holds reference cycles that only a full
# garbage collection frees, so one per call grew the resident set of a
# process that calls main() many times
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grbell",
        description="Bell correlations for spin pairs on curved-spacetime geodesics",
    )

    def add_globals(target, suppress):
        kw = {"default": argparse.SUPPRESS} if suppress else {}
        target.add_argument(
            "--tol", type=float, help="override integrator tolerance",
            **(kw or {"default": None}),
        )
        target.add_argument(
            "--seed", type=int, help="override Monte Carlo seed",
            **(kw or {"default": None}),
        )
        if suppress:
            target.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
        else:
            target.add_argument("--quiet", action="store_true", help="suppress progress chatter")

    add_globals(parser, suppress=False)
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    add_globals(common, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="run one scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_sweep = sub.add_parser("sweep", parents=[common], help="run the config's sweep block")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)

    p_hor = sub.add_parser(
        "horizon", parents=[common], help="transported weight versus detection radius"
    )
    p_hor.add_argument("--mass", type=float, required=True)
    p_hor.add_argument("--r-start", type=float, required=True)
    p_hor.add_argument("--r-end", type=float, required=True)
    p_hor.add_argument("--steps", type=int, required=True)
    p_hor.add_argument("--out", required=True)

    p_audit = sub.add_parser(
        "lhv-audit", parents=[common], help="Monte Carlo inequality audit of a scenario"
    )
    p_audit.add_argument("--config", required=True)
    p_audit.add_argument("--n", type=int, default=None)

    sub.add_parser("selftest", parents=[common], help="flat-space reduction checks")
    return parser


def _load(args) -> sc.ScenarioConfig:
    cfg = sc.load_config(args.config)
    overrides = {}
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.seed is not None:
        overrides["mc"] = {**cfg.echo.get("mc", {}), "seed": args.seed}
    if getattr(args, "n", None) is not None:
        overrides.setdefault("mc", dict(cfg.echo.get("mc", {})))["n"] = args.n
    if overrides:
        cfg = sc.config_from_dict({**cfg.echo, **overrides})
    return cfg


def _write(path: str | None, text: str | Iterable[str]) -> None:
    """Write text, one string or the strings an iterable makes one at a
    time, to path, or to standard output if path is None; the file is
    opened before the first string is asked for."""
    chunks = (text,) if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        except OSError as e:  # a missing directory, a directory, no permission, a full disk
            raise ConfigError(f"cannot write {path}: {e}") from None


def _cmd_run(args) -> int:
    cfg = _load(args)
    report = sc.run_scenario(cfg)
    if args.format == "text":
        _write(args.out, sc.report_to_text(report))
    elif args.format == "json":
        _write(args.out, sc.report_to_json(report))
    else:
        _write(args.out, sc.rows_to_csv([sc.csv_row(report, "run")]))
    if report.lhv is not None and not report.lhv.passed:
        return EXIT_AUDIT
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    rows = sc.run_sweep(cfg)
    _write(args.out, sc.rows_to_csv(rows))
    if not args.quiet:
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_horizon(args) -> int:
    # MetricSpec and run_horizon_sweep check the rest; these guard np.linspace
    for flag, value in (("--r-start", args.r_start), ("--r-end", args.r_end)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite")
    if not 1 <= args.steps <= sc.MAX_ROWS:
        raise ConfigError(f"--steps must be between 1 and {sc.MAX_ROWS}")
    if not args.r_start > args.r_end:
        raise ConfigError("--r-start must exceed --r-end")
    spec = MetricSpec(SCHWARZSCHILD, mass=args.mass)
    r_values = np.linspace(args.r_start, args.r_end, args.steps)
    tol = args.tol if args.tol is not None else sc.DEFAULT_TOL
    # each row is written as it is made, one per radius
    rows = (line + "\n" for line in sc.run_horizon_sweep(spec, r_values, tol=tol))
    _write(args.out, chain([sc.CSV_HEADER + "\n"], rows))
    if not args.quiet:
        print(f"wrote {len(r_values)} rows to {args.out}")
    return EXIT_OK


def _cmd_lhv_audit(args) -> int:
    audit = sc.run_scenario(replace(_load(args), lhv_audit=True)).lhv
    for row in audit.rows:
        status = "ok" if row.satisfied else "VIOLATED"
        print(
            f"triple {row.index}: lhs={row.lhs:.6f} rhs={row.rhs:.6f} "
            f"margin={row.margin:+.6f} "
            f"(4sigma={SIGMA_FACTOR * min(row.margin_stderr, row.combined_stderr):.6f}) {status}"
        )
    print(f"audit {'passed' if audit.passed else 'FAILED'} (n={audit.n}, seed={audit.seed})")
    return EXIT_OK if audit.passed else EXIT_AUDIT


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return EXIT_OK if run_selftest(quiet=args.quiet) else EXIT_AUDIT


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "horizon": _cmd_horizon,
        "lhv-audit": _cmd_lhv_audit,
        "selftest": _cmd_selftest,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a buffered write to a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: the rest goes to the null device, so
        # that the interpreter's final flush of stdout does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("config error: standard output closed before the output was written", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineError as e:
        print(f"pipeline error: {e}", file=sys.stderr)
        return EXIT_GEOMETRY
    except SimulatorError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GEOMETRY


if __name__ == "__main__":
    raise SystemExit(main())
