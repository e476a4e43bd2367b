"""Command-line driver for the dependence-bound scenarios.

Usage:

    copulabounds --scenario second-to-default --rho 0 --out out.csv
    copulabounds --scenario max-known --rho -0.7 --strike-min -50 --strike-max 50
    copulabounds --config run.cfg --validate

A config file holds ``key=value`` lines (``#`` comments allowed) with the
same names as the long flags (dashes or underscores); explicit flags
override file values.  Exit codes: 0 success, 1 configuration error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .constrained import ConstraintError
from .functional import LevelRangeError
from .pricing import InconsistentIntervalError
from .quadrature import QuadratureError
from .scenarios import (
    SCENARIOS,
    ScenarioConfig,
    check_rows,
    run_scenario,
    validate_scenario_surfaces,
    write_rows,
)

__all__ = ["main", "console_entry", "UsageError"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

# sweep flag family accepted per scenario
_SWEEP_FAMILY = {
    "second-to-default": "maturity",
    "max-known": "strike",
    "single-price": "strike",
    "log-correlation": "corr",
}

_CONFIG_KEYS = {f.name: f for f in fields(ScenarioConfig)}


class UsageError(Exception):
    """Configuration problems that should exit with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="copulabounds", add_help=True, description=__doc__)
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--rho", type=float, help="reference-model correlation")
    p.add_argument("--out", help="output CSV path (default out.csv)")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--panels", type=int, help="pricing quadrature panels")
    p.add_argument("--grid", type=int, dest="grid_n", help="validation lattice size")
    p.add_argument("--tol", type=float, dest="theta_tol", help="bisection tolerance in theta")
    for fam, what in (("strike", "strike"), ("maturity", "maturity"), ("corr", "correlation")):
        p.add_argument(f"--{fam}-min", type=float, help=f"sweep start ({what} axis)")
        p.add_argument(f"--{fam}-max", type=float, help=f"sweep end ({what} axis)")
        p.add_argument(f"--{fam}-steps", type=int, help=f"sweep point count ({what} axis)")
    p.add_argument(
        "--validate",
        action="store_true",
        default=None,
        help="also grid-validate the bound surfaces and report",
    )
    return p


def _parse_config_value(key: str, raw: str):
    raw = raw.strip()
    if key == "validate":
        return raw.lower() in ("1", "true", "yes", "on")
    if key == "constraint_maturities":
        return tuple(float(v) for v in raw.split())
    if key in ("scenario", "out"):
        return raw
    if key in ("panels", "bound_panels", "rho_panels", "grid_n", "sweep_steps",
               "constraint_strikes"):
        return int(raw)
    return float(raw)


def load_config_file(path) -> dict:
    """Flat key=value file mirroring the flags; unknown keys are errors."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
        key, raw = body.split("=", 1)
        key = key.strip().replace("-", "_")
        for fam in ("strike", "maturity", "corr"):
            if key in (f"{fam}_min", f"{fam}_max", f"{fam}_steps"):
                key = "sweep_" + key.split("_", 1)[1]
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _parse_config_value(key, raw)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def _sweep_overrides(args, scenario: str) -> dict:
    fam = _SWEEP_FAMILY.get(scenario)
    out = {}
    for other in ("strike", "maturity", "corr"):
        triple = [getattr(args, f"{other}_{suffix}") for suffix in ("min", "max", "steps")]
        if all(v is None for v in triple):
            continue
        if other != fam:
            raise UsageError(
                f"--{other}-* flags do not apply to scenario {scenario!r} "
                f"(its sweep axis is {fam})"
            )
        for suffix, val in zip(("min", "max", "steps"), triple):
            if val is not None:
                out[f"sweep_{suffix}"] = val
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        settings = {}
        if args.config:
            settings.update(load_config_file(args.config))
        for key in ("scenario", "rho", "out", "panels", "grid_n", "theta_tol", "validate"):
            val = getattr(args, key)
            if val is not None:
                settings[key] = val
        if "scenario" not in settings or not settings["scenario"]:
            raise UsageError("--scenario is required (or a config file that sets it)")
        settings.update(_sweep_overrides(args, settings["scenario"]))
        cfg = ScenarioConfig(**settings)
        cfg.check()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        rows = run_scenario(cfg)
        problems = check_rows(cfg, rows)
        write_rows(rows, cfg.out)
        if problems:
            for msg in problems:
                print(f"numerical failure: {msg}", file=sys.stderr)
            return EXIT_NUMERICAL
        if cfg.validate:
            failed = False
            for rep in validate_scenario_surfaces(cfg):
                print(rep.summary(), file=sys.stderr)
                failed = failed or not rep.passed
            if failed:
                return EXIT_NUMERICAL
    except (ConstraintError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, LevelRangeError, InconsistentIntervalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {len(rows)} rows to {cfg.out}", file=sys.stderr)
    return EXIT_OK


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
