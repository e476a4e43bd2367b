"""Checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/tests

The smoke runs use a three-row max-known sweep; its strikes are on the
default sweep grid, so the stored references apply.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from tracer import SPAN_NAMES, Tracer, root_wall, summarize  # noqa: E402

from copulabounds import cli  # noqa: E402


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A three-row max-known sweep: its config values, output rows and
    the reference table."""
    tmp = tmp_path_factory.mktemp("tiny")
    values = {**wl.settings("max-known", 0), "strike_steps": 3, "validate": False}
    out = tmp / "out.csv"
    cfg = tmp / "run.cfg"
    wl.write_config(cfg, {**values, "out": str(out)})
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["--config", str(cfg)])
    finally:
        tracer.uninstall()
    assert code == 0
    return values, wl.read_rows(out), wl.load_reference("max-known"), tracer


def test_seed_fixes_inputs():
    for workload in wl.WORKLOADS:
        assert wl.settings(workload, 7) == wl.settings(workload, 7)
    drawn = {wl.settings("single-price", s)["rho"] for s in range(50)}
    assert drawn <= set(wl.RHO_GRID) and len(drawn) > 1


def test_every_seed_has_a_reference():
    for workload in wl.WORKLOADS:
        ref = wl.load_reference(workload)
        for seed in range(40):
            values = wl.settings(workload, seed)
            rows = ref["rows"][wl.ref_key(values)]
            ref_axes = [r[0] for r in rows]
            for axis in wl.axes(values):
                assert min(abs(a - axis) for a in ref_axes) < 1e-9


def test_clean_sweep_passes(tiny):
    values, rows, ref, _ = tiny
    res = wl.check("max-known", values, rows, 0, ref)
    assert res["attempted"] == 3 and res["failed"] == 0, res["problems"]
    assert 0.0 < res["err_max"] < wl.REF_TOL


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.__setitem__(2, r[2] + 1.0),  # improved_lower off the reference
        lambda r: r.__setitem__(4, r[1] - 1.0),  # improved_upper below frechet_lower
        lambda r: r.__setitem__(3, float("nan")),
    ],
)
def test_corrupted_row_fails(tiny, corrupt):
    values, rows, ref, _ = tiny
    bad = [list(r) for r in rows]
    corrupt(bad[1])
    res = wl.check("max-known", values, bad, 0, ref)
    assert res["failed"] == 1
    assert res["failed"] / res["attempted"] > 0


def test_missing_row_and_bad_exit_fail(tiny):
    values, rows, ref, _ = tiny
    assert wl.check("max-known", values, rows[:2], 0, ref)["failed"] == 1
    assert wl.check("max-known", values, rows, 2, ref)["failed"] == 3


def test_self_times_sum_to_traced_wall(tiny):
    _, _, _, tracer = tiny
    layers = summarize(tracer)
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(root_wall(tracer), rel=1e-9)
    assert set(tracer.names) <= set(SPAN_NAMES)
    assert layers["pricing.price.calls"] == 15
    assert layers["functional.levels"] == 0
    assert layers["functional.map.calls"] == 0


def test_tracer_uninstall_restores_library(tiny):
    from copulabounds import pricing, surfaces

    assert not hasattr(pricing.price, "__wrapped__")
    assert not hasattr(surfaces.CopulaSurface.__call__, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")


def test_refuses_to_run_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "max-known", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
