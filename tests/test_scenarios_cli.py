import contextlib
import ctypes
import dataclasses
import filecmp
import io
import itertools
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import copulabounds as cb
from copulabounds import cli, constrained, marginals, pricing, quadrature
from copulabounds.cli import main
from copulabounds.functional import MonotoneFunctional
from copulabounds.scenarios import (
    SCENARIOS,
    CurveRow,
    ScenarioConfig,
    _scenario3_pieces,
    _scenario4_pieces,
    check_rows,
    run_scenario,
    sweep_grid,
    write_rows,
)

FAST_S3 = dict(sweep_min=60.0, sweep_max=140.0, sweep_steps=5, panels=48)
FAST_S4 = dict(sweep_min=-1.0, sweep_max=1.0, sweep_steps=5, panels=48)
# each scenario's sweep-flag family
SWEEP_FAMILY = {"second-to-default": "maturity", "max-known": "strike",
                "single-price": "strike", "log-correlation": "corr"}
# small sweeps of each scenario, as config-file settings
SMALL_RUNS = {
    "second-to-default": dict(rho=0.0, sweep_steps=5),
    "max-known": dict(rho=-0.7, sweep_min=-10.0, sweep_max=10.0, sweep_steps=3,
                      panels=401, constraint_strikes=100),
    "single-price": dict(rho=-0.7, **FAST_S3),
    "log-correlation": FAST_S4,
}


# Small-sweep outputs written by write_rows(run_scenario(cfg), path) for the
# configs of the tests below.  A golden file changes only together with
# evidence that the new numbers are closer to a higher-resolution run.
# TestShippedAccuracy compares the functional sweeps only with themselves at
# finer settings, so a change that moves coarse and fine runs alike shows
# only here.  What each golden guards beyond that:
#   second-to-default      the point-set envelopes of the default-time
#                          constraints and the digital prices, at rho = 0
#   max-known-rho-0.7      the point-set envelopes of the max-option curve
#                          and spread prices under them (no accuracy test)
#   max-known-rho0         the same at the rho = 0 reference column, where
#                          the reference surface is the product copula
#   single-price-rho-0.7   the strikes 60, 80, 120 and 140, which
#                          TestShippedAccuracy does not run
#   single-price-rho0      a second known level, the zero-strike spread
#                          priced under the product copula, and the rho = 0
#                          reference column
#   log-correlation        the levels -1, -0.5 and 0, which
#                          TestShippedAccuracy does not run; at -1 the band
#                          collapses onto the Frechet upper price
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
SRC = str(Path(__file__).parent.parent / "src")
PROBABILITY_TOL = 1e-12
MONEY_TOL = 1e-8


def assert_matches_golden(rows, name, tol=MONEY_TOL):
    """Every column of ``rows`` agrees with ``golden/<name>.csv`` within ``tol``."""
    want = np.loadtxt(GOLDEN / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
    got = np.array([dataclasses.astuple(r) for r in rows])
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)


class TestConfig:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioConfig(scenario="bogus").check()

    def test_rho_range(self):
        with pytest.raises(ValueError, match="rho"):
            ScenarioConfig(scenario="max-known", rho=1.5).check()

    def test_sweep_must_be_sorted(self):
        cfg = ScenarioConfig(scenario="max-known", sweep_min=10.0, sweep_max=-10.0)
        with pytest.raises(ValueError, match="sweep"):
            cfg.check()

    def test_grid_n_at_least_2(self):
        with pytest.raises(ValueError, match="grid_n"):
            ScenarioConfig(scenario="second-to-default", grid_n=1).check()

    @pytest.mark.parametrize("scenario", ["max-known", "single-price", "log-correlation"])
    def test_panels_at_least_8(self, scenario):
        with pytest.raises(ValueError, match="panels must be at least 8"):
            ScenarioConfig(scenario=scenario, panels=7).check()

    @pytest.mark.parametrize("scenario, field, value", [
        ("max-known", "sweep_steps", 2.5), ("max-known", "panels", 40.5),
        ("second-to-default", "grid_n", 10.5), ("max-known", "constraint_strikes", 2.5),
    ])
    def test_counts_must_be_integers(self, scenario, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ScenarioConfig(scenario=scenario, **{field: value}).check()

    def test_default_sweeps(self):
        grid = sweep_grid(ScenarioConfig(scenario="second-to-default"))
        assert grid[0] == 0.0 and grid[-1] == 10.0 and grid.size == 101

    @pytest.mark.parametrize("scenario, panels, grid_n", [
        ("second-to-default", None, 200), ("max-known", 2001, 200),
        ("single-price", 40, 50), ("log-correlation", 40, 50),
    ])
    def test_unset_settings_take_the_scenario_defaults(self, scenario, panels, grid_n):
        cfg = ScenarioConfig(scenario=scenario)
        assert (cfg.panels, cfg.grid_n) == (panels, grid_n)
        cfg = ScenarioConfig(scenario=scenario, panels=60, grid_n=60, sweep_steps=3)
        assert (cfg.panels, cfg.grid_n, cfg.sweep_steps) == (60, 60, 3)

    def test_readme_defaults_table_matches_the_scenarios(self):
        # the `| scenario | default sweep | --panels | --grid |` table under ## CLI
        lines = README.read_text().split("## CLI", 1)[1].splitlines()
        start = next(i for i, line in enumerate(lines) if "| default sweep" in line)
        table = {}
        for line in itertools.takewhile(lambda x: x.startswith("|"), lines[start + 2:]):
            name, sweep, panels, grid = (c.strip() for c in line.strip("|").split("|"))
            lo, hi, steps = re.fullmatch(r"(\S+) to (\S+), (\d+) points", sweep).groups()
            row = dict(sweep_min=float(lo.replace("\u2212", "-")),
                       sweep_max=float(hi.replace("\u2212", "-")),
                       sweep_steps=int(steps), grid_n=int(grid))
            if panels != "(unused)":
                row["panels"] = int(panels)
            table[name.strip("`")] = row
        assert table == {name: spec.defaults for name, spec in SCENARIOS.items()}


@pytest.fixture(scope="module")
def second_to_default_rows():
    cfg = ScenarioConfig(scenario="second-to-default", rho=0.0)
    return cfg, run_scenario(cfg)


class TestSecondToDefault:
    @pytest.fixture
    def rows(self, second_to_default_rows):
        return second_to_default_rows

    def test_ordering(self, rows):
        cfg, rows = rows
        assert check_rows(cfg, rows) == []

    def test_collapse_at_constraints(self, rows):
        _, rows = rows
        for target in (2.0, 3.0):
            row = min(rows, key=lambda r: abs(r.axis - target))
            assert abs(row.improved_lower - row.reference) <= 1e-9
            assert abs(row.improved_upper - row.reference) <= 1e-9

    def test_reference_closed_form(self, rows):
        _, rows = rows
        row = min(rows, key=lambda r: abs(r.axis - 2.0))
        expected = (1 - math.exp(-0.4)) * (1 - math.exp(-0.6))
        assert row.reference == pytest.approx(expected, abs=1e-12)

    def test_zero_maturity_row_vanishes(self, rows):
        _, rows = rows
        first = rows[0]
        assert first.axis == 0.0
        for v in (first.frechet_lower, first.improved_lower, first.reference,
                  first.improved_upper, first.frechet_upper):
            assert v == 0.0

    def test_golden(self, rows):
        _, rows = rows
        assert_matches_golden(rows, "second-to-default", PROBABILITY_TOL)


class TestMaxKnown:
    def test_small_sweep(self):
        cfg = ScenarioConfig(
            scenario="max-known", rho=-0.7, sweep_min=-10.0, sweep_max=10.0,
            sweep_steps=5, panels=401, constraint_strikes=100,
        )
        rows = run_scenario(cfg)
        assert check_rows(cfg, rows) == []
        mid = rows[2]
        assert mid.axis == 0.0
        # the diagonal constraint pins the spread price tightly near K=0
        assert mid.improved_upper - mid.improved_lower < 0.2 * (
            mid.frechet_upper - mid.frechet_lower
        )
        assert_matches_golden(rows, "max-known-rho-0.7")
        assert_matches_golden(
            run_scenario(dataclasses.replace(cfg, rho=0.0)), "max-known-rho0"
        )


class TestSinglePrice:
    def test_small_sweep(self):
        cfg = ScenarioConfig(scenario="single-price", rho=-0.7, **FAST_S3)
        rows = run_scenario(cfg)
        assert check_rows(cfg, rows) == []
        for row in rows:
            assert row.frechet_lower <= row.improved_lower + 1e-6
            assert row.improved_upper <= row.frechet_upper + 1e-6
        assert_matches_golden(rows, "single-price-rho-0.7")
        assert_matches_golden(
            run_scenario(dataclasses.replace(cfg, rho=0.0)), "single-price-rho0"
        )

    def test_strike_must_be_nonnegative(self):
        cfg = ScenarioConfig(scenario="single-price", sweep_min=-5.0)
        with pytest.raises(ValueError):
            cfg.check()


class TestLogCorrelation:
    def test_small_sweep(self):
        cfg = ScenarioConfig(scenario="log-correlation", rho=0.0, **FAST_S4)
        rows = run_scenario(cfg)
        assert check_rows(cfg, rows) == []
        # extreme correlations force the band onto the matching Frechet price
        lo_row, hi_row = rows[0], rows[-1]
        assert lo_row.axis == -1.0 and hi_row.axis == 1.0
        assert lo_row.improved_lower == pytest.approx(lo_row.frechet_upper, abs=5e-3)
        assert hi_row.improved_upper == pytest.approx(hi_row.frechet_lower, abs=5e-3)
        assert_matches_golden(rows, "log-correlation")

    @pytest.mark.parametrize(
        "sigma_x, sigma_y, maturity",
        [(0.05, 0.05, 1.0), (0.2, 0.3, 1.0), (1.0, 1.5, 1.0), (0.2, 0.3, 10.0),
         (2.0, 0.1, 5.0), (0.01, 3.0, 1.0)],
    )
    def test_extreme_correlations_are_attainable(self, sigma_x, sigma_y, maturity):
        # the +-1 levels fall within the functional's slack of the attainable
        # range, so they are clamped, not rejected; the envelopes are lazy,
        # so no inversion runs here
        cfg = ScenarioConfig(
            scenario="log-correlation", sigma_x=sigma_x, sigma_y=sigma_y, maturity=maturity,
            sweep_steps=2,
        )
        _, _, bands = _scenario4_pieces(cfg)
        assert len(bands) == 2


def readme_error_budget() -> dict:
    """The error figures of the README's budget table under ## Numerical
    notes: scenario -> (Frechet bounds and reference, improved lower,
    improved upper); a row with words in place of figures is skipped."""
    lines = [x.strip() for x in README.read_text().split("## Numerical notes", 1)[1].splitlines()]
    start = next(i for i, line in enumerate(lines) if "| improved lower | improved upper |" in line)
    budget = {}
    for line in itertools.takewhile(lambda x: x.startswith("|"), lines[start + 2:]):
        cells = [c.strip() for c in line.strip("|").split("|")]
        with contextlib.suppress(ValueError):
            budget[cells[0].replace("`", "")] = tuple(float(c) for c in cells[2:5])
    return budget


class TestShippedAccuracy:
    """Rows of the functional sweeps at their shipped ``panels`` agree with
    the same rows at four times the panels and ``theta_tol=1e-12`` within
    the figures the README states for each column."""

    @pytest.mark.parametrize("row, scenario, sweep", [
        ("single-price", "single-price",
         dict(rho=-0.7, sweep_min=100.0, sweep_max=150.0, sweep_steps=2)),
        ("log-correlation", "log-correlation", dict(sweep_min=0.5, sweep_max=1.0, sweep_steps=2)),
        ("log-correlation, one level", "log-correlation",
         dict(sweep_min=-0.95, sweep_max=-0.95, sweep_steps=1)),
        ("log-correlation, one level", "log-correlation",
         dict(sweep_min=0.95, sweep_max=0.95, sweep_steps=1)),
    ])
    def test_rows_within_the_readme_budget(self, row, scenario, sweep):
        frechet_and_reference, lower, upper = readme_error_budget()[row]
        cfg = ScenarioConfig(scenario=scenario, **sweep)
        fine = dataclasses.replace(cfg, panels=4 * cfg.panels, theta_tol=1e-12)
        got, want = (np.array([dataclasses.astuple(r) for r in run_scenario(c)])
                     for c in (cfg, fine))
        tol = [0.0, frechet_and_reference, lower, frechet_and_reference, upper,
               frechet_and_reference]
        assert np.all(np.abs(got - want) <= tol)


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="second-to-default", rho=-0.7, sweep_steps=11,
            out=str(tmp_path / "a.csv"),
        )
        write_rows(run_scenario(cfg), cfg.out)
        cfg2 = ScenarioConfig(
            scenario="second-to-default", rho=-0.7, sweep_steps=11,
            out=str(tmp_path / "b.csv"),
        )
        write_rows(run_scenario(cfg2), cfg2.out)
        assert filecmp.cmp(cfg.out, cfg2.out, shallow=False)

    def test_csv_independent_of_the_hash_seed(self, tmp_path):
        # both levels at an end of the range: each member follows a Frechet
        # bound there, and both bounds' cusp splits grade the same panels
        args = ["--scenario", "log-correlation", "--corr-min", "-1", "--corr-max", "1",
                "--corr-steps", "2"]
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            subprocess.run([sys.executable, "-m", "copulabounds.cli", *args,
                            "--out", str(tmp_path / f"{seed}.csv")],
                           env=env, check=True, capture_output=True)
        assert filecmp.cmp(tmp_path / "0.csv", tmp_path / "1.csv", shallow=False)


class TestCli:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(
            [
                "--scenario", "second-to-default", "--rho", "0",
                "--maturity-steps", "11", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "axis,frechet_lower,improved_lower,reference,improved_upper,frechet_upper"
        assert len(lines) == 12
        # rows ordered by the sweep axis
        axes = [float(l.split(",")[0]) for l in lines[1:]]
        assert axes == sorted(axes)

    def test_missing_scenario(self):
        assert main([]) == 1

    def test_allocator_thresholds_are_set_where_mallopt_exists(self, tmp_path, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        argv = ["--scenario", "second-to-default", "--maturity-steps", "3",
                "--out", str(tmp_path / "run.csv")]
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert main(argv) == 0
        assert calls == [(cli._M_MMAP_THRESHOLD, 4 << 20), (cli._M_TRIM_THRESHOLD, 8 << 20)]
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # no mallopt
        assert main(argv) == 0

    def test_unknown_scenario_flag(self):
        assert main(["--scenario", "nope"]) == 1

    def test_wrong_sweep_family(self):
        assert main(["--scenario", "max-known", "--maturity-min", "1"]) == 1

    def test_invalid_rho(self):
        assert main(["--scenario", "max-known", "--rho", "2.0"]) == 1

    def test_config_file_roundtrip(self, tmp_path):
        out = tmp_path / "cfg.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# comment\nscenario=second-to-default\nrho=-0.7\n"
            f"maturity-steps=6\nout={out}\n"
        )
        assert main(["--config", str(cfgfile)]) == 0
        assert len(out.read_text().splitlines()) == 7

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "o.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario=second-to-default\nmaturity_steps=4\n")
        assert main(["--config", str(cfgfile), "--out", str(out), "--maturity-steps", "3"]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_validate_grid_too_small_is_config_error(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(
            ["--scenario", "second-to-default", "--validate", "--grid", "1", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario=max-known\nwibble=3\n")
        assert main(["--config", str(cfgfile)]) == 1

    def test_unreadable_config(self, tmp_path):
        assert main(["--config", str(tmp_path / "missing.cfg")]) == 1

    @pytest.mark.parametrize("value, reports", [("true", 2), ("false", 0)])
    def test_config_file_validate_setting(self, tmp_path, capsys, value, reports):
        # a max-known config written the way the benchmark writes them
        out = tmp_path / "v.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "scenario=max-known\nrho=-0.7\nstrike_min=-10.0\nstrike_max=10.0\n"
            "strike_steps=3\npanels=401\nconstraint_strikes=100\ngrid_n=20\n"
            f"validate={value}\nout={out}\n"
        )
        settings = cli.load_config_file(cfgfile)
        assert settings["validate"] is (value == "true")
        assert settings["sweep_steps"] == 3 and "strike_steps" not in settings
        assert main(["--config", str(cfgfile)]) == 0
        assert capsys.readouterr().err.count("check on 21x21 grid: pass") == reports

    @pytest.mark.parametrize("body, out, fragment", [
        ("scenario=second-to-default\nrho\n", "o.csv", "run.cfg:2: expected key=value, got 'rho'"),
        ("scenario=second-to-default\nmaturity_steps=3\n", "missing/o.csv",
         "No such file or directory"),
    ])
    def test_config_errors_exit_1(self, tmp_path, capsys, body, out, fragment):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(body)
        assert main(["--config", str(cfgfile), "--out", str(tmp_path / out)]) == 1
        assert fragment in capsys.readouterr().err

    def test_a_flag_added_to_the_parser_reaches_the_config(self):
        parser = cli.build_parser()
        parser.add_argument("--lambda-x", type=float)
        args = parser.parse_args(["--scenario", "second-to-default", "--lambda-x", "0.5"])
        assert cli._config_from_args(args).lambda_x == 0.5

    def test_config_keys_named_like_the_long_flags(self, tmp_path):
        by_flag, by_field = tmp_path / "flag.cfg", tmp_path / "field.cfg"
        by_flag.write_text("scenario=single-price\ngrid=10\ntol=1e-9\n")
        by_field.write_text("scenario=single-price\ngrid_n=10\ntheta_tol=1e-9\n")
        got = ScenarioConfig(**cli.load_config_file(by_flag))
        assert got == ScenarioConfig(**cli.load_config_file(by_field))
        assert (got.grid_n, got.theta_tol) == (10, 1e-9)

    def test_load_config_file_rejects_what_main_rejects(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario=log-correlation\nstrike_steps=3\n")
        with pytest.raises(cli.UsageError, match="strike sweep settings do not apply"):
            cli.load_config_file(cfgfile)

    def test_numerical_failure_maps_to_exit_2(self, tmp_path, monkeypatch):
        import copulabounds.cli as cli_mod
        from copulabounds.quadrature import QuadratureError

        def boom(cfg, pieces=None):
            raise QuadratureError("synthetic failure")

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        code = main(["--scenario", "second-to-default", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_row_ordering_violation_exits_2_and_writes_the_csv(
        self, tmp_path, monkeypatch, capsys
    ):
        # improved lower end 0.5 above the reference 0.3
        bad = CurveRow(1.0, 0.0, 0.5, 0.3, 0.6, 1.0)
        monkeypatch.setattr(cli, "run_scenario", lambda cfg, pieces=None: [bad])
        out = tmp_path / "x.csv"
        assert main(["--scenario", "second-to-default", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: row ordering violated at axis=1.0 within 1e-09\n"
        assert out.read_text().splitlines()[1:] == ["1.0,0.0,0.5,0.3,0.6,1.0"]

    def test_failed_validation_exits_2(self, tmp_path, monkeypatch, capsys):
        failing = cb.ValidationReport(kind="quasi-copula", grid_n=10, boundary_error=1.0)
        monkeypatch.setattr(cli, "validate_scenario_surfaces", lambda cfg, pieces: [failing])
        out = tmp_path / "x.csv"
        assert main(["--scenario", "second-to-default", "--out", str(out), "--validate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("quasi-copula check on 11x11 grid: FAIL\n")
        assert "wrote" not in err

    def test_constraint_error_building_the_pieces_exits_1(self, tmp_path, monkeypatch, capsys):
        spec = SCENARIOS["max-known"]
        incompatible = [(0.21, 0.21, 0.0), (0.2, 0.2, 0.2)]
        monkeypatch.setitem(SCENARIOS, "max-known", dataclasses.replace(
            spec, pieces=lambda cfg: cb.ConstraintSet.from_points(incompatible)
        ))
        assert main(["--scenario", "max-known", "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: constraints 0 and 1 are incompatible: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scenario", list(SWEEP_FAMILY))
    def test_validate_builds_the_pieces_once(self, tmp_path, monkeypatch, scenario):
        # the run and the validation share one (m_x, m_y, band)
        spec = SCENARIOS[scenario]
        built = []

        def counting(cfg):
            built.append(cfg.scenario)
            return spec.pieces(cfg)

        monkeypatch.setitem(SCENARIOS, scenario, dataclasses.replace(spec, pieces=counting))
        cfgfile = tmp_path / "v.cfg"
        settings = dict(scenario=scenario, **SMALL_RUNS[scenario])
        cfgfile.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        out = str(tmp_path / "v.csv")
        assert main(["--config", str(cfgfile), "--grid", "10", "--out", out, "--validate"]) == 0
        assert built == [scenario]

    @pytest.mark.parametrize("scenario", list(SWEEP_FAMILY))
    def test_validate_flag(self, tmp_path, capsys, scenario):
        out = tmp_path / "v.csv"
        cfgfile = tmp_path / "v.cfg"
        settings = dict(scenario=scenario, **SMALL_RUNS[scenario])
        cfgfile.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        code = main(["--config", str(cfgfile), "--grid", "10", "--out", str(out), "--validate"])
        assert code == 0
        err = capsys.readouterr().err
        assert "quasi-copula check" in err or "copula check" in err
        # one report block per distinct improved surface of the sweep: the
        # log-correlation band changes with each of its 5 levels
        blocks = 10 if scenario == "log-correlation" else 2
        assert err.count("check on 11x11 grid: pass") == blocks

    def test_log_correlation_validates_the_swept_levels(self, tmp_path, capsys):
        # --rho does not enter the log-correlation sweep, so neither CSV nor
        # report may depend on it
        cfgfile = tmp_path / "v.cfg"
        cfgfile.write_text("".join(f"{k}={v}\n" for k, v in FAST_S4.items()))
        reports = []
        for rho in ("0", "0.9"):
            out = tmp_path / f"v{rho}.csv"
            argv = ["--config", str(cfgfile), "--scenario", "log-correlation", "--rho", rho,
                    "--grid", "10", "--out", str(out), "--validate"]
            assert main(argv) == 0
            reports.append(capsys.readouterr().err.replace(str(out), "OUT"))
        assert filecmp.cmp(tmp_path / "v0.csv", tmp_path / "v0.9.csv", shallow=False)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e-16"])
    def test_theta_tolerance_must_be_reachable(self, tmp_path, capsys, tol):
        out = tmp_path / "t.csv"
        cfgfile = tmp_path / "t.cfg"
        settings = dict(scenario="single-price", **SMALL_RUNS["single-price"])
        cfgfile.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        assert main(["--config", str(cfgfile), "--tol", tol, "--out", str(out)]) == 1
        assert "error: theta_tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("scenario", list(SWEEP_FAMILY))
    def test_sweep_keys_of_another_family(self, tmp_path, scenario, where):
        fam = next(f for f in ("strike", "maturity", "corr") if f != SWEEP_FAMILY[scenario])
        out = tmp_path / "f.csv"
        cfgfile = tmp_path / "run.cfg"
        argv = ["--config", str(cfgfile), "--out", str(out)]
        if where == "flag":
            cfgfile.write_text(f"scenario={scenario}\n")
            argv += [f"--{fam}-min", "1", f"--{fam}-max", "2", f"--{fam}-steps", "3"]
        else:
            cfgfile.write_text(
                f"scenario={scenario}\n{fam}_min=1\n{fam}_max=2\n{fam}_steps=3\n"
            )
        assert main(argv) == 1
        assert not out.exists()

    @pytest.mark.parametrize("scenario", list(SWEEP_FAMILY))
    def test_family_sweep_keys_in_a_file_match_the_flags(self, tmp_path, scenario):
        # a config file may name the sweep by its family, as the long flags
        # do; both give the same CSV byte for byte
        fam = SWEEP_FAMILY[scenario]
        small = dict(SMALL_RUNS[scenario])
        sweep = {k[len("sweep_"):]: small.pop(k) for k in list(small) if k.startswith("sweep_")}
        common = f"scenario={scenario}\n" + "".join(f"{k}={v}\n" for k, v in small.items())
        by_file, by_flag = tmp_path / "file.cfg", tmp_path / "flag.cfg"
        by_file.write_text(common + "".join(f"{fam}_{k}={v}\n" for k, v in sweep.items()))
        by_flag.write_text(common)
        flags = [a for k, v in sweep.items() for a in (f"--{fam}-{k}", str(v))]
        outs = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert main(["--config", str(by_file), "--out", str(outs[0])]) == 0
        assert main(["--config", str(by_flag), "--out", str(outs[1]), *flags]) == 0
        assert filecmp.cmp(*outs, shallow=False)
        assert len(outs[0].read_text().splitlines()) == sweep["steps"] + 1

    def test_file_sweep_keys_follow_the_flag_scenario(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario=max-known\nstrike_min=1\nstrike_steps=3\n")
        assert main(["--config", str(cfgfile), "--scenario", "second-to-default"]) == 1
        cfgfile.write_text("scenario=second-to-default\nstrike_min=1\nstrike_steps=3\n")
        args = cli.build_parser().parse_args(["--config", str(cfgfile), "--scenario", "max-known"])
        cfg = cli._config_from_args(args)
        assert (cfg.scenario, cfg.sweep_min, cfg.sweep_steps) == ("max-known", 1.0, 3)

    @pytest.mark.parametrize(
        "scenario, line",
        [
            ("second-to-default", "constraint_maturities=-1 2"),
            ("max-known", "constraint_strikes=-1"),
            ("second-to-default", "validate=maybe"),
            ("second-to-default", "sweep_min=nan"),
        ],
    )
    def test_bad_config_values_are_config_errors(self, tmp_path, capsys, scenario, line):
        out = tmp_path / "c.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"scenario={scenario}\nsweep_steps=3\npanels=101\n{line}\n")
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "scenario, name",
        [("max-known", "spot"), ("max-known", "maturity"), ("single-price", "sigma_x"),
         ("log-correlation", "sigma_y"), ("second-to-default", "lambda_x"),
         ("second-to-default", "lambda_y")],
    )
    def test_non_finite_model_parameters_are_config_errors(
        self, tmp_path, capsys, scenario, name, value
    ):
        # NaN fails every comparison, so a "<= 0" check lets it through
        out = tmp_path / "c.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"scenario={scenario}\nsweep_steps=3\n{name}={value}\n")
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {name} must be finite and positive" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_removed_rho_panels_key_is_a_config_error(self, tmp_path, capsys):
        # the one-point maps have one fixed rule; the old knob is unknown now
        out = tmp_path / "c.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario=single-price\nsweep_steps=3\nrho_panels=28\n")
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 1
        assert "unknown config key 'rho_panels'" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_bound_panels_key_is_a_config_error(self, tmp_path, capsys):
        # every scenario prices its sweep at the one `panels` setting
        out = tmp_path / "c.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario=single-price\nsweep_steps=3\nbound_panels=48\n")
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 1
        assert "unknown config key 'bound_panels'" in capsys.readouterr().err
        assert not out.exists()

    def test_panels_reach_every_pricing_call(self, tmp_path, monkeypatch):
        # the single-price known level is priced at the panels of its band
        seen = []
        for name in ("price", "price_batch"):
            original = getattr(pricing, name)

            def recording(*args, original=original, name=name, **kwargs):
                seen.append((name, kwargs.get("panels")))
                return original(*args, **kwargs)

            monkeypatch.setattr(pricing, name, recording)
        argv = ["--scenario", "single-price", "--strike-min", "60", "--strike-max", "140",
                "--strike-steps", "3", "--panels", "60", "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 0
        assert {name for name, _ in seen} == {"price", "price_batch"}
        assert {panels for _, panels in seen} == {60}

    def test_functional_validation_lattice_is_not_capped(self, tmp_path, capsys):
        argv = ["--scenario", "single-price", "--strike-min", "60", "--strike-max", "140",
                "--strike-steps", "3", "--panels", "48", "--grid", "60", "--validate",
                "--out", str(tmp_path / "g.csv")]
        assert main(argv) == 0
        assert capsys.readouterr().err.count("check on 61x61 grid: pass") == 2

    @pytest.mark.parametrize("name", ["sigma_x", "sigma_y"])
    def test_overflowing_variance_is_a_config_error(self, tmp_path, capsys, name):
        # 1e300 is finite, but sigma**2 * maturity overflows
        out = tmp_path / "c.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"scenario=max-known\nsweep_steps=3\n{name}=1e300\n")
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: sigma**2 * maturity must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_underflowing_volatility_is_a_config_error(self, tmp_path, capsys):
        # 1e-300 is positive, but sigma * sqrt(maturity) underflows to 0
        out = tmp_path / "c.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario=max-known\nsweep_steps=3\nsigma_x=1e-300\nmaturity=1e-300\n")
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: sigma * sqrt(maturity) must be positive" in err
        assert not out.exists()

    def test_help_keeps_the_usage_lines(self):
        # the module docstring's examples stay one per line in --help
        help_text = cli.build_parser().format_help()
        assert "\n    copulabounds --config run.cfg --validate\n" in help_text

    def test_log_correlation_validates_up_to_corr_one(self, tmp_path):
        # the corr = 1 level is the comonotone value; its envelopes must
        # still pass the quasi-copula checks on the validation lattice
        out = tmp_path / "lc.csv"
        args = ["--scenario", "log-correlation", "--corr-min", "0.9", "--corr-max", "1",
                "--corr-steps", "2", "--validate", "--out", str(out)]
        assert main(args) == 0
        assert out.exists()

    def test_readme_examples_are_valid(self):
        # every CLI example of the README parses and configures a valid run
        block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("copulabounds ")]
        assert lines
        for line in lines:
            args = cli.build_parser().parse_args(shlex.split(line)[1:])
            cli._config_from_args(args).check()


def test_log_correlation_sweep_prices_in_one_batch(monkeypatch):
    calls = []
    price_batch = pricing.price_batch

    def counting(*args, **kwargs):
        calls.append(args[0])
        return price_batch(*args, **kwargs)

    monkeypatch.setattr(pricing, "price_batch", counting)
    rows = run_scenario(ScenarioConfig(scenario="log-correlation", **FAST_S4))
    assert len(rows) == 5
    assert len(calls) == 1


def test_single_price_envelope_map_points(monkeypatch):
    # Count guard on the inversion: one single-price envelope call on the
    # pricing nodes of its default panels (425 points, split at its kinks)
    # stays under 8000 map points per side, kink probes included.  The calls
    # take 0.65k and 1.4k (1.9k and 4.7k on 320 unsplit panels); halving
    # every point to the batch's widest bracket took 61.5k per side.
    cfg = ScenarioConfig(scenario="single-price", rho=-0.7)
    m_x, m_y, bands = _scenario3_pieces(cfg)
    low, _, up = bands[0]
    seen = [0]
    for name in ("at_one_point_lower", "at_one_point_upper"):
        original = getattr(MonotoneFunctional, name)

        def counting(self, a, b, theta, original=original):
            seen[0] += np.broadcast(np.asarray(a), np.asarray(b), np.asarray(theta)).size
            return original(self, a, b, theta)

        monkeypatch.setattr(MonotoneFunctional, name, counting)
    payoffs = [pricing.call_on_max(float(k)) for k in sweep_grid(cfg)]
    for surface in (low, up):
        seen[0] = 0
        pricing.price_batch(payoffs, [surface], m_x, m_y, panels=cfg.panels)
        assert 0 < seen[0] < 8000


@pytest.mark.parametrize("config, calls, points", [
    (dict(scenario="single-price", rho=-0.7), 39, 2361),
    (dict(scenario="log-correlation"), 224, 59812),
    (dict(scenario="log-correlation", sweep_min=-0.5, sweep_max=0.5, sweep_steps=3), 73, 3360),
])
def test_map_calls_and_points_are_pinned(monkeypatch, config, calls, points):
    # the one-point-map calls and points of the default runs and of the
    # benchmark's 3-level input, inversions and kink refinements together
    seen = [0, 0]
    for name in ("at_one_point_lower", "at_one_point_upper"):
        original = getattr(MonotoneFunctional, name)

        def counting(self, a, b, theta, original=original):
            seen[0] += 1
            seen[1] += np.broadcast(np.asarray(a), np.asarray(b), np.asarray(theta)).size
            return original(self, a, b, theta)

        monkeypatch.setattr(MonotoneFunctional, name, counting)
    run_scenario(ScenarioConfig(**config))
    assert seen == [calls, points]


@pytest.mark.parametrize("config, points", [
    (dict(scenario="max-known"), 764945),
    (dict(scenario="single-price", rho=-0.7), 665),
    (dict(scenario="log-correlation"), 700),
    (dict(scenario="log-correlation", sweep_min=-0.5, sweep_max=0.5, sweep_steps=3), 305),
])
def test_surface_points_are_pinned(monkeypatch, config, points):
    # the points each surface is evaluated at, over every path rule of the
    # default runs and of the benchmark's 3-level input; max-known evaluated
    # 1,011,415 before its tails were merged, the others are unmerged
    seen = [0]
    original = pricing.evaluate_surfaces

    def counting(surfaces, u, v):
        seen[0] += np.size(u)
        return original(surfaces, u, v)

    monkeypatch.setattr(pricing, "evaluate_surfaces", counting)
    run_scenario(ScenarioConfig(**config))
    assert seen[0] == points


def test_max_known_range_queries_and_cdf_points_are_pinned(monkeypatch):
    # In a default max-known sweep: the points at which the point-set
    # envelopes query their sparse tables, one per run of consecutive path
    # nodes in one cell of the chain's grid over both envelopes, plus 400
    # per envelope at set-up (1,531,490, one per node, before runs shared
    # them), and 800 for the constraint set's compatibility check, which
    # evaluates a third chain envelope at its 400 points; and the points of
    # the lognormal CDFs, whose survival bound on a path's uniform edges is
    # evaluated only in the far tails (2,043,694 when it was evaluated at
    # every edge).
    seen = {"queries": 0, "cdf": 0}
    query, cdf = constrained._RangeBest.__call__, marginals.LognormalMartingale.cdf

    def counting_query(self, row, lo, hi):
        seen["queries"] += np.size(lo)
        return query(self, row, lo, hi)

    def counting_cdf(self, x):
        seen["cdf"] += np.size(x)
        return cdf(self, x)

    monkeypatch.setattr(constrained._RangeBest, "__call__", counting_query)
    monkeypatch.setattr(marginals.LognormalMartingale, "cdf", counting_cdf)
    run_scenario(ScenarioConfig(scenario="max-known"))
    assert seen == {"queries": 156484, "cdf": 1750452}


@pytest.mark.parametrize("rho", [-0.9, -0.7, -0.3, 0.0, 0.3, 0.5, 0.9])
def test_max_known_merged_tails_match_uniform_panels(monkeypatch, rho):
    # every max-known column stays within 1e-9 of the unmerged 2001-panel rule
    cfg = ScenarioConfig(scenario="max-known", rho=rho)
    pieces = SCENARIOS["max-known"].pieces(cfg)
    merged = [dataclasses.astuple(r) for r in run_scenario(cfg, pieces)]
    monkeypatch.setattr(quadrature, "_TAIL_SURVIVAL", 0.0)
    uniform = [dataclasses.astuple(r) for r in run_scenario(cfg, pieces)]
    assert np.max(np.abs(np.subtract(merged, uniform))) <= 1e-9


# config keys the exit-code property sets, and the values it draws for them;
# "typical" keeps the small run's own value
EXTREME_KEYS = ("rho", "lambda_x", "lambda_y", "sigma_x", "sigma_y", "spot", "maturity",
                "theta_tol", "sweep_min", "sweep_max", "panels", "grid_n", "constraint_strikes")
EXTREME_VALUES = ("0", "-1", "nan", "inf", "1e-300", "1e300", "typical")


@settings(max_examples=30, deadline=None)
@given(
    scenario=st.sampled_from(list(SMALL_RUNS)),
    keys=st.lists(st.sampled_from(EXTREME_KEYS), min_size=2, max_size=2, unique=True),
    values=st.lists(st.sampled_from(EXTREME_VALUES), min_size=2, max_size=2),
)
# sigma * sqrt(maturity) underflows to 0: the lognormal cdf was NaN at the spot
@example(scenario="max-known", keys=["sigma_x", "maturity"], values=["1e-300", "1e-300"])
def test_exit_codes_on_extreme_config_values(scenario, keys, values):
    # every config either runs, is rejected (1) or fails numerically (2);
    # numpy overflow warnings at extreme values are not failures here
    config = dict(scenario=scenario, **SMALL_RUNS[scenario])
    config.update((k, v) for k, v in zip(keys, values) if v != "typical")
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = Path(tmp) / "run.cfg"
        cfgfile.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
        argv = ["--config", str(cfgfile), "--out", str(Path(tmp) / "x.csv")]
        with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            assert main(argv) in (0, 1, 2)
