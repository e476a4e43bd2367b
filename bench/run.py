"""Scenario benchmark of copulabounds: CLI sweeps timed end to end, with
every output row checked against a stored high-resolution reference.

    python3 bench/run.py --workload max-known --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.
Each sweep runs ``cli.main`` in a fresh child process (``child.py``),
one child at a time, with the thread environment this process has.

Untraced (``--trace 0``): a few set-up-only children, then sweeps until
``--seconds`` have passed (at least two).  Prints the end-to-end metrics
(medians over the children) by name and unit.

Traced (``--trace 1``): untraced sweeps for half of ``--seconds``, then
one sweep with the layer wrappers of ``tracer.py`` installed.  Prints the
per-layer metrics of the traced sweep and ``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (rows) and ``metrics``.  Lines
before it give each metric's quartiles and sample count, the seed and
inputs, and the machine record.  Scratch files go to ``bench/.work``.
See ``bench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5
# Host speed on a shared machine varies by about 10% from one sweep to the
# next, so every untraced run takes the median of at least two sweeps.
MIN_SWEEPS = 2
CHILD_TIMEOUT_S = 170.0
# Stop starting sweeps once a run would pass this, whatever --seconds says.
RUN_LIMIT_S = 150.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "err_max": "money",
}
PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "points": "count", "nodes": "count"}


class BenchError(Exception):
    """The benchmark cannot run here (no library, no reference tables)."""


def spawn(mode: str, config: Path, tag: str) -> dict:
    """Run one child to completion; returns its result plus the child's
    own resource usage (CPU seconds, peak RSS) from ``wait4``."""
    result = WORK / f"{tag}.json"
    spans = WORK / f"{tag}.spans.npz"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(config), str(result), str(spans)]
    with open(WORK / f"{tag}.log", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        # Block in wait4 rather than poll: a polling parent would wake up on
        # a core the child's BLAS threads are using.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {}
    if proc.returncode == 0 and result.is_file():
        out = json.loads(result.read_text())
    out["child_exit"] = proc.returncode
    if "setup_done" in out:
        out["setup_s"] = out.pop("setup_done") - t0
    out["wall_s"] = wall
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["sys_s"] = usage.ru_stime
    out["minor_faults"] = usage.ru_minflt
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark pass; returns (result line, detail record)."""
    if not (ROOT / "src" / "copulabounds" / "cli.py").is_file():
        raise BenchError(f"no copulabounds sources under {ROOT / 'src'}")
    try:
        ref = wl.load_reference(workload)
    except (OSError, ValueError) as exc:
        raise BenchError(f"no reference table for {workload}: {exc}") from exc
    WORK.mkdir(exist_ok=True)
    values = wl.settings(workload, seed)
    tag = f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
    out_csv = WORK / f"{tag}.csv"
    config = WORK / f"{tag}.cfg"
    wl.write_config(config, {**values, "out": str(out_csv)})
    begin = time.monotonic()

    children = []
    checks = []

    def sweep(mode: str) -> dict:
        out_csv.unlink(missing_ok=True)
        res = spawn(mode, config, f"{tag}-{len(children)}")
        code = res.get("exit_code", 1) if res["child_exit"] == 0 else res["child_exit"]
        checks.append(wl.check(workload, values, wl.read_rows(out_csv), code, ref))
        children.append(res)
        return res

    setups = []
    if not trace:
        spawn("setup", config, f"{tag}-warm")  # compiles bytecode; not timed
        setups = [spawn("setup", config, f"{tag}-setup{i}") for i in range(SETUP_SAMPLES)]
    budget = seconds / 2 if trace else seconds
    least = 1 if trace else MIN_SWEEPS
    sweeps = []
    measuring = time.monotonic()
    while len(sweeps) < least or (
        time.monotonic() - measuring < budget
        and time.monotonic() - begin + sweeps[-1]["wall_s"] < RUN_LIMIT_S
    ):
        sweeps.append(sweep("sweep"))
    traced = sweep("trace") if trace else None

    ok_children = all(c["child_exit"] == 0 for c in setups + children)
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    stats = {}
    if trace:
        layers = traced.get("layers", {})
        base = statistics.median(s["sweep_s"] for s in sweeps if "sweep_s" in s) if ok_children else 0.0
        metrics = {
            name: {"value": val, "unit": _layer_unit(name)} for name, val in layers.items()
        }
        overhead = traced["sweep_s"] / base - 1.0 if ok_children and base else 0.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        sums_ok = ok_children and abs(self_sum - traced["trace_wall_s"]) <= 1e-9 * max(
            1.0, traced["trace_wall_s"]
        )
        correct = ok_children and failed == 0 and sums_ok
    else:
        samples = {
            "setup_s": [c["setup_s"] for c in setups + sweeps if "setup_s" in c],
            "sweep_s": [s["sweep_s"] for s in sweeps if "sweep_s" in s],
            "cpu_s": [s["cpu_s"] for s in sweeps],
            "peak_rss_mb": [s["peak_rss_mb"] for s in sweeps],
            "err_max": [c["err_max"] for c in checks],
        }
        metrics = {}
        for name, unit in END_TO_END.items():
            vals = samples[name] or [0.0]
            q1, med, q3 = quartiles(vals)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "n": len(samples[name])}
            metrics[name] = {"value": med, "unit": unit}
        correct = ok_children and failed == 0
    detail = {
        "workload": workload,
        "seed": seed,
        "inputs": values,
        "trace": trace,
        "rows_attempted": attempted,
        "rows_failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "stats": stats,
        "problems": [p for c in checks for p in c["problems"]][:20],
        "children": children,
        "machine": machine(),
        "run_s": time.monotonic() - begin,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[last]
    if last.endswith("_ratio") or "_per_" in last:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, st in detail["stats"].items():
        print(
            f"{name:12s} median {st['median']:.6g} {END_TO_END[name]}  "
            f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n={st['n']}"
        )
    print(f"rows {detail['rows_attempted']} failed {detail['rows_failed']} "
          f"fail_frac {detail['fail_frac']:.6g}")
    for msg in detail["problems"]:
        print(f"problem: {msg}")
    record = {k: detail[k] for k in ("workload", "seed", "inputs", "trace", "machine", "run_s")}
    print(json.dumps(record, sort_keys=True))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (WORK / f"result-{tag}.json").write_text(json.dumps({**detail, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
