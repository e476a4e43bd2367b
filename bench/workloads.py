"""Benchmark workloads: seed -> CLI config, and row checks against the
stored high-resolution references.

Every workload is a shipped CLI scenario at its default resolution.  The
seed only picks inputs, from a small fixed grid, so that each input has
a stored reference (``bench/refs/<workload>.json``, written by
``make_refs.py``):

* ``max-known`` and ``single-price`` draw the reference-model ``rho``
  from a narrow band around -0.7, the correlation of the README
  examples.  Both the work per sweep and the deviation from the reference
  depend on ``rho`` (on max-known, ``err_max`` goes from 6.6e-5 to 9.0e-5
  between -0.8 and -0.6); a wide band would make the run-to-run spread a
  property of the inputs rather than of the code.
* ``log-correlation`` sweeps the fixed log-return correlations -0.5, 0
  and 0.5 (all feasible levels); the seed does not change its inputs.
  The deviation from the reference is an irregular function of the
  level: the largest deviation over the three levels shifted by -0.02,
  -0.01, 0, 0.01, 0.02 reads 3.8e-5, 4.8e-5, 1.6e-5, 2.9e-5, 1.1e-5.
  Drawn levels would make ``err_max`` a property of the draw.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

WORKLOADS = ("max-known", "single-price", "log-correlation")

RHO_GRID = (-0.72, -0.71, -0.7, -0.69, -0.68)
CORR_LEVELS = (-0.5, 0.0, 0.5)

CURVES = ("frechet_lower", "improved_lower", "reference", "improved_upper", "frechet_upper")
HEADER = ("axis",) + CURVES

# Absolute deviation from the reference beyond which a row fails (money):
# more than ten times the largest deviation of the shipped defaults.
REF_TOL = 1e-3

# Curves must be ordered and the improved band inside the Frechet band
# within this slack (the CLI's own money tolerance).
ORDER_TOL = 1e-6


# Sweep axes: the scenarios' shipped default sweeps, written out so the
# workload stays fixed if a default changes.
SWEEPS = {"max-known": (-50.0, 50.0, 101), "single-price": (0.0, 200.0, 41)}


def settings(workload: str, seed: int) -> dict:
    """CLI config values (without ``out``) for one workload and seed."""
    if workload in SWEEPS:
        lo, hi, n = SWEEPS[workload]
        values = {"scenario": workload, "rho": random.Random(seed).choice(RHO_GRID),
                  "strike_min": lo, "strike_max": hi, "strike_steps": n}
        if workload == "max-known":
            values["validate"] = True
        return values
    if workload == "log-correlation":
        return {
            "scenario": workload,
            "corr_min": CORR_LEVELS[0],
            "corr_max": CORR_LEVELS[-1],
            "corr_steps": len(CORR_LEVELS),
        }
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")


def sweep(values: dict) -> tuple[float, float, int]:
    """(min, max, steps) of a config's sweep axis."""
    fam = "corr" if values["scenario"] == "log-correlation" else "strike"
    return tuple(values[f"{fam}_{k}"] for k in ("min", "max", "steps"))


def axes(values: dict) -> list[float]:
    """Sweep points of a config, as the CLI computes them."""
    return np.linspace(*sweep(values)).tolist()


def write_config(path, values: dict) -> None:
    lines = []
    for key, val in values.items():
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{key}={val}")
    Path(path).write_text("\n".join(lines) + "\n")


def ref_key(values: dict) -> str:
    """Reference table entry that holds the rows of one input: the rho,
    or one shared table of levels for log-correlation."""
    if values["scenario"] == "log-correlation":
        return "levels"
    return f"{values['rho']:.2f}"


def load_reference(workload: str) -> dict:
    with open(REFS / f"{workload}.json") as fh:
        return json.load(fh)


def read_rows(path) -> list[list[float]]:
    """Rows of a CLI output CSV; an unreadable or malformed file gives none."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if tuple(next(reader)) != HEADER:
                return []
            return [[float(v) for v in rec] for rec in reader]
    except (OSError, StopIteration, ValueError):
        return []


def _match(axis: float, ref_rows: list[list[float]]):
    if not ref_rows:
        return None
    best = min(ref_rows, key=lambda r: abs(r[0] - axis))
    return best if abs(best[0] - axis) <= 1e-9 * max(1.0, abs(axis)) else None


def check(workload: str, values: dict, rows: list[list[float]], exit_code: int, ref: dict) -> dict:
    """Count failed rows and the largest deviation from the reference.

    A row fails on a non-zero exit code (then every expected row fails),
    when it is missing, when its five curves are out of order, when the
    improved band is wider than the Frechet band, on NaN (every level of
    these workloads is feasible), or when a curve deviates from the
    reference by more than ``REF_TOL``.
    """
    ref_rows = ref["rows"].get(ref_key(values), [])
    expected = axes(values)
    attempted = len(expected)
    if exit_code != 0:
        return {"attempted": attempted, "failed": attempted, "err_max": 0.0, "problems": [
            f"exit code {exit_code}"]}
    by_axis = {}
    for row in rows:
        by_axis.setdefault(round(row[0], 9), row)
    failed = 0
    err_max = 0.0
    problems = []
    for axis in expected:
        row = by_axis.get(round(axis, 9))
        ref_row = _match(axis, ref_rows)
        why = None
        if row is None or len(row) != len(HEADER):
            why = "missing"
        elif ref_row is None:
            why = "no reference"
        elif any(math.isnan(v) for v in row[1:]):
            why = "NaN on a feasible level"
        else:
            fl, il, rf, iu, fu = row[1:]
            dev = max(abs(a - b) for a, b in zip(row[1:], ref_row[1:]))
            err_max = max(err_max, dev)
            if not (fl <= il + ORDER_TOL and il <= rf + ORDER_TOL
                    and rf <= iu + ORDER_TOL and iu <= fu + ORDER_TOL):
                why = "curves out of order"
            elif iu - il > fu - fl + ORDER_TOL:
                why = "improved band wider than the Frechet band"
            elif dev > REF_TOL:
                why = f"deviation {dev:.3g} from the reference exceeds {REF_TOL:g}"
        if why:
            failed += 1
            problems.append(f"axis={axis!r}: {why}")
    return {"attempted": attempted, "failed": failed, "err_max": err_max, "problems": problems}
