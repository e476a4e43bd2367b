import dataclasses
import filecmp
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import copulabounds as cb
from copulabounds import cli, pricing
from copulabounds.cli import main
from copulabounds.functional import MonotoneFunctional
from copulabounds.scenarios import (
    SCENARIOS,
    ScenarioConfig,
    _scenario3_pieces,
    _scenario4_pieces,
    check_rows,
    run_scenario,
    sweep_grid,
    write_rows,
)

FAST_S3 = dict(
    sweep_min=60.0, sweep_max=140.0, sweep_steps=5, bound_panels=48,
    panels=401,
)
FAST_S4 = dict(sweep_min=-1.0, sweep_max=1.0, sweep_steps=5, bound_panels=48,
               panels=401)
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
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
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

        def boom(cfg, pieces=None):
            raise QuadratureError("synthetic failure")

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        code = main(["--scenario", "second-to-default", "--out", str(tmp_path / "x.csv")])
        assert code == 2

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
    # Count guard on the inversion: one single-price envelope call on its
    # bound_panels pricing nodes (about 1.8k points) stays under 8000 map
    # points per side.  The inversion takes 1.9k and 4.7k; halving every
    # point to the batch's widest bracket took 61.5k per side.
    cfg = ScenarioConfig(scenario="single-price", rho=-0.7)
    m_x, m_y, band = _scenario3_pieces(cfg)
    low, _, up = band(None)
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
        pricing.price_batch(payoffs, [surface], m_x, m_y, panels=cfg.bound_panels)
        assert 0 < seen[0] < 8000
