"""Command-line driver for the dependence-bound scenarios.

Usage:

    copulabounds --scenario second-to-default --rho 0 --out out.csv
    copulabounds --scenario max-known --rho -0.7 --strike-min -50 --strike-max 50
    copulabounds --config run.cfg --validate

A config file holds ``key=value`` lines (``#`` comments allowed) with the
same names as the long flags (dashes or underscores); explicit flags
override file values.  The sweep flags of each scenario's family come
from ``scenarios.SCENARIOS``, and sweep keys of another family are
errors wherever they are given.  Exit codes: 0 success, 1 configuration
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .constrained import ConstraintError
from .functional import LevelRangeError
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

# glibc mallopt parameters, and the values a run sets (chosen by
# measurement, README): arrays up to 4 MB come from the heap, and the heap
# keeps up to 8 MB of freed memory at its top.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 8 << 20

# sweep key named by family (e.g. strike_min) -> (family, ScenarioConfig field)
_SWEEP_KEYS = {
    f"{spec.family}_{end}": (spec.family, f"sweep_{end}")
    for spec in SCENARIOS.values()
    for end in ("min", "max", "steps")
}
_CONFIG_KEYS = {f.name: f for f in fields(ScenarioConfig)}


class UsageError(Exception):
    """Configuration problems that should exit with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)


def _scenario_defaults(key: str) -> str:
    return ", ".join(
        f"{spec.defaults[key]} for {name}"
        for name, spec in SCENARIOS.items()
        if key in spec.defaults
    )


def build_parser() -> _Parser:
    p = _Parser(prog="copulabounds", add_help=True, description=__doc__)
    p.add_argument("--scenario", choices=tuple(SCENARIOS))
    p.add_argument("--rho", type=float, help="reference-model correlation")
    p.add_argument("--out", help="output CSV path (default out.csv)")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument(
        "--panels", type=int,
        help="uniform panels of the money-space path rules that price the sweep "
        f"(default {_scenario_defaults('panels')})",
    )
    p.add_argument(
        "--grid", type=int, dest="grid_n",
        help=f"validation lattice size (default {_scenario_defaults('grid_n')})",
    )
    p.add_argument(
        "--tol", type=float, dest="theta_tol",
        help="absolute theta tolerance of the functional inversion (at least 1e-15)",
    )
    for key, (fam, field) in _SWEEP_KEYS.items():
        p.add_argument(
            "--" + key.replace("_", "-"),
            type=int if field == "sweep_steps" else float,
            help=f"{field.replace('_', ' ')} ({fam} axis)",
        )
    p.add_argument(
        "--validate",
        action="store_true",
        default=None,
        help="also grid-validate the bound surfaces and report",
    )
    return p


def _parse_config_value(key: str, raw: str):
    raw = raw.strip()
    field = _SWEEP_KEYS[key][1] if key in _SWEEP_KEYS else key
    kind = _CONFIG_KEYS[field].type  # the annotation, e.g. "int | None"
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected true/false, got {raw!r}")
    if kind == "tuple":
        return tuple(float(v) for v in raw.split())
    if kind == "str":
        return raw
    return int(raw) if kind.startswith("int") else float(raw)


def _read_config(path) -> dict:
    """Values of a key=value file; sweep keys keep their family names."""
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
        if key not in _CONFIG_KEYS and key not in _SWEEP_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _parse_config_value(key, raw)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def _config_settings(settings: dict) -> dict:
    """ScenarioConfig keywords from ``settings``, whose sweep keys are named
    by family; the family must be the one of the scenario in ``settings``."""
    scenario = settings.get("scenario")
    own = SCENARIOS[scenario].family if scenario in SCENARIOS else None
    out = {k: v for k, v in settings.items() if k not in _SWEEP_KEYS}
    for key, val in settings.items():
        if key in _SWEEP_KEYS:
            fam, field = _SWEEP_KEYS[key]
            if fam != own:
                raise UsageError(
                    f"{fam} sweep settings do not apply to scenario {scenario!r} "
                    f"(its sweep axis is {own})"
                )
            out[field] = val
    return out


def load_config_file(path) -> dict:
    """ScenarioConfig keywords from a flat key=value file mirroring the
    flags; unknown keys and sweep keys of another scenario's family are
    errors."""
    return _config_settings(_read_config(path))


def _config_from_args(args) -> ScenarioConfig:
    """The run's configuration: the config file's values, overridden by flags."""
    settings = _read_config(args.config) if args.config else {}
    settings.update((k, v) for k, v in vars(args).items() if k != "config" and v is not None)
    if not settings.get("scenario"):
        raise UsageError("--scenario is required (or a config file that sets it)")
    return ScenarioConfig(**_config_settings(settings))


def _keep_freed_memory() -> None:
    """Let glibc reuse freed memory instead of returning it to the system.

    A sweep allocates and frees temporaries of tens of KB to a few MB at
    every step.  With glibc's default thresholds, arrays above 128 KB are
    mapped and unmapped one by one and the heap top is trimmed whenever
    128 KB are free, so each step faults its pages in again: about 50k
    page faults in a default max-known sweep and 100k in log-correlation.
    No-op where the C library has no ``mallopt``.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    try:
        cfg = _config_from_args(build_parser().parse_args(argv))
        cfg.check()
    except (UsageError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    _keep_freed_memory()
    try:
        pieces = SCENARIOS[cfg.scenario].pieces(cfg)
        rows = run_scenario(cfg, pieces)
        problems = check_rows(cfg, rows)
        write_rows(rows, cfg.out)
        if problems:
            for msg in problems:
                print(f"numerical failure: {msg}", file=sys.stderr)
            return EXIT_NUMERICAL
        if cfg.validate:
            failed = False
            for rep in validate_scenario_surfaces(cfg, pieces):
                print(rep.summary(), file=sys.stderr)
                failed = failed or not rep.passed
            if failed:
                return EXIT_NUMERICAL
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, LevelRangeError, FloatingPointError) as exc:
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
