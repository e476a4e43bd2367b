import dataclasses
import filecmp
import math
from pathlib import Path

import numpy as np
import pytest

import copulabounds as cb
from copulabounds.cli import main
from copulabounds.scenarios import (
    ScenarioConfig,
    _scenario4_pieces,
    check_rows,
    run_scenario,
    sweep_grid,
    write_rows,
)

FAST_S3 = dict(
    sweep_min=60.0, sweep_max=140.0, sweep_steps=5, bound_panels=48, rho_panels=16,
    panels=401,
)
FAST_S4 = dict(sweep_min=-1.0, sweep_max=1.0, sweep_steps=5, bound_panels=48,
               rho_panels=16, panels=401)

# Small-sweep outputs written by write_rows(run_scenario(cfg), path) for the
# configs of the tests below.  A golden file changes only together with
# evidence that the new numbers are closer to a higher-resolution run.
GOLDEN = Path(__file__).parent / "golden"
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

    def test_default_sweeps(self):
        grid = sweep_grid(ScenarioConfig(scenario="second-to-default"))
        assert grid[0] == 0.0 and grid[-1] == 10.0 and grid.size == 101


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
            scenario="log-correlation", sigma_x=sigma_x, sigma_y=sigma_y, maturity=maturity
        )
        _, _, bounds_at = _scenario4_pieces(cfg)
        for rho0 in (-1.0, 1.0):
            bounds_at(rho0)


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

    def test_numerical_failure_maps_to_exit_2(self, tmp_path, monkeypatch):
        import copulabounds.cli as cli_mod
        from copulabounds.quadrature import QuadratureError

        def boom(cfg):
            raise QuadratureError("synthetic failure")

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        code = main(["--scenario", "second-to-default", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_validate_flag(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        code = main(
            [
                "--scenario", "second-to-default", "--rho", "0",
                "--maturity-steps", "5", "--grid", "60",
                "--out", str(out), "--validate",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "quasi-copula check" in err or "copula check" in err
