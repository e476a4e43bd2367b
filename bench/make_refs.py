"""Generate the high-resolution reference outputs of the benchmark workloads.

For every input a benchmark seed can draw (see ``workloads.py``) this runs
the scenario with the quadrature and inversion knobs of ``HIRES`` raised
and stores the five curves per sweep point in ``refs/<workload>.json``.
``run.py`` scores the default-resolution output against these tables
(``err_max``, and the deviation check behind ``failed``).

    python3 bench/make_refs.py                      # all workloads
    python3 bench/make_refs.py --workload max-known

Run from the repository root.  References change only when a change
shows that the new numbers are more accurate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads as wl

sys.path.insert(0, str(wl.HERE.parent / "src"))

from copulabounds.scenarios import ScenarioConfig, run_scenario  # noqa: E402

# Raised resolution of the references.  Measured on single-price at
# rho=-0.7: bound_panels 320 -> 640 moves the curves by 1e-4, rho_panels
# 28 -> 56 by 1e-7, theta_tol 1e-10 -> 1e-12 by 8e-10, panels 2001 ->
# 4001 by 1e-13; on max-known panels 2001 -> 4001 moves the improved band
# by 6e-5.  Each knob is raised well past the point where it matters.
HIRES = {
    "max-known": {"panels": 8001},
    "single-price": {"panels": 4001, "bound_panels": 1280, "rho_panels": 56, "theta_tol": 1e-12},
    "log-correlation": {"panels": 4001, "bound_panels": 1280, "rho_panels": 56, "theta_tol": 1e-12},
}


def _inputs(workload: str) -> list[dict]:
    """Config values of every input a seed can draw."""
    values = wl.settings(workload, 0)
    if workload == "log-correlation":
        return [values]
    return [{**values, "rho": rho} for rho in wl.RHO_GRID]


def _config(values: dict, hires: dict) -> ScenarioConfig:
    lo, hi, n = wl.sweep(values)
    return ScenarioConfig(
        scenario=values["scenario"], rho=values.get("rho", 0.0),
        sweep_min=lo, sweep_max=hi, sweep_steps=n, **hires,
    )


def generate(workload: str) -> dict:
    hires = HIRES[workload]
    rows: dict[str, list] = {}
    for values in _inputs(workload):
        key = wl.ref_key(values)
        t0 = time.perf_counter()
        out = run_scenario(_config(values, hires))
        rows[key] = [[r.axis, *(getattr(r, c) for c in wl.CURVES)] for r in out]
        print(f"{workload} {key}: {len(out)} rows in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr, flush=True)
    return {"workload": workload, "hires": hires, "columns": list(wl.HEADER), "rows": rows}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, action="append")
    args = ap.parse_args(argv)
    wl.REFS.mkdir(exist_ok=True)
    for workload in args.workload or wl.WORKLOADS:
        table = generate(workload)
        path = wl.REFS / f"{workload}.json"
        path.write_text(json.dumps(table, indent=0) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
