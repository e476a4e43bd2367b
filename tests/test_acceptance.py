"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them for passing tests).  Expected values come from independent oracles:
closed forms, Monte Carlo, and the library's cross-representation
identities; nothing is asserted against an uncomputed constant.
"""

import math
import sys

import numpy as np
import pytest

import copulabounds as cb
from copulabounds.scenarios import ScenarioConfig, check_rows, run_scenario

from _oracles import (
    TwoPointPenalty,
    coupling_price,
    margrabe_price,
    random_point_set,
    reflected,
    sample_gaussian_lognormals,
    volume,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_counterexample_volume():
    points = [(1 / 3, 1 / 3, 0.0), (2 / 3, 2 / 3, 1 / 3)]
    A = cb.upper_bound(points)
    vol = volume(A, 1 / 3, 2 / 3, 1 / 3, 2 / 3)
    ok = abs(vol - (-1 / 3)) <= 1e-12
    ok = ok and abs(float(A(1 / 3, 2 / 3)) - 1 / 3) <= 1e-12
    ok = ok and abs(float(A(2 / 3, 1 / 3)) - 1 / 3) <= 1e-12
    report("1 counterexample-volume", ok, f"volume={vol!r}")


def test_criterion_2_envelope_copula_conditions():
    rng = np.random.default_rng(101)
    worst_match = 0.0
    ok = True
    for i in range(50):
        pts = random_point_set(rng, int(rng.integers(1, 21)), "increasing")
        B = cb.lower_bound(pts)
        ok = ok and B.is_copula and cb.validate_copula(B, grid_n=200, tol=1e-9).passed
        ok = ok and cb.validate_quasi_copula(cb.upper_bound(pts), grid_n=200).passed
        for a, b, t in pts:
            worst_match = max(worst_match, abs(float(B(a, b)) - t))
    for i in range(50):
        pts = random_point_set(rng, int(rng.integers(1, 21)), "decreasing")
        A = cb.upper_bound(pts)
        ok = ok and A.is_copula and cb.validate_copula(A, grid_n=200, tol=1e-9).passed
        ok = ok and cb.validate_quasi_copula(cb.lower_bound(pts), grid_n=200).passed
        for a, b, t in pts:
            worst_match = max(worst_match, abs(float(A(a, b)) - t))
    ok = ok and worst_match <= 1e-12
    report("2 monotone-set-copula-envelopes", ok, f"worst constraint match {worst_match:.2e}")


def test_criterion_3_reflection_identity():
    rng = np.random.default_rng(202)
    g = np.linspace(0.0, 1.0, 201)
    U, V = np.meshgrid(g, g, indexing="ij")
    worst = 0.0
    for i in range(20):
        kind = ("increasing", "decreasing", "none")[i % 3]
        cs = cb.ConstraintSet.from_points(random_point_set(rng, int(rng.integers(1, 16)), kind))
        A = cb.upper_bound(cs)(U, V)
        B_ref = cb.lower_bound(reflected(cs))
        worst = max(worst, float(np.max(np.abs(A - (U - B_ref(U, 1.0 - V))))))
    report("3 reflection-identity", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_4_functional_inversion_consistency(lognormal_marginals):
    mx, my = lognormal_marginals
    # The spread payoff is 2-decreasing; the functional machinery works on
    # its negative with negated levels, which constrains the same copulas.
    F = cb.MonotoneFunctional(
        lambda x, y: -np.maximum(x - y, 0.0), mx, my, kink=lambda x, y: x - y
    )
    lo_r, hi_r = F.value_countermonotone, F.value_comonotone
    rng_scale = hi_r - lo_r
    tol = 1e-7 * rng_scale
    margin = 2.0 * F.level_slack
    rng = np.random.default_rng(303)
    ok = True
    worst = 0.0
    n_first = n_else = 0
    for k in range(100):
        u, v = rng.uniform(0.02, 0.98, 2)
        # mix uniform draws with ones pushed toward each end of the range so
        # both branches of both envelopes are exercised
        t = rng.uniform()
        if k % 3 == 1:
            t = t**3
        elif k % 3 == 2:
            t = 1.0 - t**3
        level = lo_r + (hi_r - lo_r) * t
        lower, upper = cb.bound_surfaces_for_levels(F, [level])[0]
        m_uv = min(u, v)
        w_uv = max(0.0, u + v - 1.0)
        a_val = float(upper(u, v))
        cap_a = float(F.at_one_point_lower(u, v, m_uv))
        if level <= cap_a - margin:
            n_first += 1
            err = abs(float(F.at_one_point_lower(u, v, a_val)) - level)
            worst = max(worst, err)
            ok = ok and err <= tol
        elif level >= cap_a + margin:
            n_else += 1
            ok = ok and abs(a_val - m_uv) <= 1e-12
        b_val = float(lower(u, v))
        cap_b = float(F.at_one_point_upper(u, v, w_uv))
        if level >= cap_b + margin:
            err = abs(float(F.at_one_point_upper(u, v, b_val)) - level)
            worst = max(worst, err)
            ok = ok and err <= tol
        elif level <= cap_b - margin:
            ok = ok and abs(b_val - w_uv) <= 1e-12

    # Remark consistency: the zero level of the two-point exceedance
    # functional reproduces the two-point upper envelope.
    points = [(0.3, 0.4, 0.2), (0.7, 0.6, 0.5)]
    pen = TwoPointPenalty(points)
    _, A0 = cb.bound_surfaces_for_levels(pen, [0.0])[0]
    A_pts = cb.upper_bound(points)
    g = np.linspace(0.0, 1.0, 101)
    U, V = np.meshgrid(g, g, indexing="ij")
    dev = float(np.max(np.abs(A0(U, V) - A_pts(U, V))))
    ok = ok and dev <= 1e-8
    report(
        "4 functional-inversion",
        ok,
        f"round-trip worst {worst:.2e} (first-branch n={n_first}, else n={n_else}); "
        f"two-point remark deviation {dev:.2e}",
    )


def test_criterion_5_pricing_oracles(lognormal_marginals):
    mx, my = lognormal_marginals
    p = cb.spread(0.0)
    got = cb.price(p, cb.gaussian_copula(0.0), mx, my)
    oracle = margrabe_price(100.0, 100.0, 0.2, 0.3, 0.0, 1.0)
    ok = abs(got - oracle) <= 0.05

    x, y = sample_gaussian_lognormals(0.0, 0.2, 0.3, 100.0, 1.0, 1_000_000, seed=7)
    samples = np.maximum(x - y, 0.0)
    mc = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    ok = ok and abs(got - mc) <= 3.0 * se

    worst_basket = 0.0
    pk = cb.basket(1.0, 1.0, 0.0)
    for surf in (
        cb.FRECHET_LOWER,
        cb.PRODUCT,
        cb.FRECHET_UPPER,
        cb.gaussian_copula(0.5),
        cb.gaussian_copula(-0.5),
    ):
        worst_basket = max(worst_basket, abs(cb.price(pk, surf, mx, my) - 200.0))
    ok = ok and worst_basket <= 1e-6
    report(
        "5 pricing-oracles",
        ok,
        f"spread={got:.6f} margrabe={oracle:.6f} mc={mc:.4f}+-{se:.4f} "
        f"basket err {worst_basket:.2e}",
    )


def test_criterion_6_diagonal_consistency(lognormal_marginals):
    mx, my = lognormal_marginals
    kinds = [
        cb.basket(1.0, 1.0, 190.0),
        cb.basket(1.0, -1.0, 10.0),
        cb.call_on_min(100.0),
        cb.put_on_min(100.0),
        cb.call_on_max(100.0),
        cb.put_on_max(100.0),
        cb.worst_off_call(90.0, 110.0),
        cb.worst_off_put(110.0, 90.0),
        cb.best_off_call(90.0, 110.0),
        cb.best_off_put(110.0, 90.0),
    ]
    worst = 0.0
    for p in kinds:
        worst = max(
            worst,
            abs(cb.price(p, cb.FRECHET_UPPER, mx, my) - coupling_price(p, mx, my, "co")),
            abs(cb.price(p, cb.FRECHET_LOWER, mx, my) - coupling_price(p, mx, my, "counter")),
        )
    report("6 diagonal-consistency", worst <= 1e-6, f"worst gap {worst:.2e}")


def test_criterion_7_second_to_default_scenario():
    ok = True
    details = []
    for rho in (0.0, -0.7):
        cfg = ScenarioConfig(scenario="second-to-default", rho=rho)
        rows = run_scenario(cfg)
        ok = ok and check_rows(cfg, rows) == []
        for target in (2.0, 3.0):
            row = min(rows, key=lambda r: abs(r.axis - target))
            gap = max(
                abs(row.improved_lower - row.reference),
                abs(row.improved_upper - row.reference),
            )
            ok = ok and gap <= 1e-9
        if rho == 0.0:
            row = min(rows, key=lambda r: abs(r.axis - 2.0))
            expected = (1 - math.exp(-0.4)) * (1 - math.exp(-0.6))
            err = abs(row.reference - expected)
            ok = ok and err <= 1e-6
            details.append(f"ref(T=2)={row.reference:.9f} err {err:.1e}")
    report("7 second-to-default", ok, "; ".join(details))


def test_criterion_8_pricing_scenarios():
    ok = True
    details = []
    for rho in (0.0, -0.7):
        cfg = ScenarioConfig(scenario="max-known", rho=rho)
        rows = run_scenario(cfg)
        ok = ok and check_rows(cfg, rows) == []
        ok = ok and all(
            r.improved_upper - r.improved_lower
            <= r.frechet_upper - r.frechet_lower + 1e-6
            for r in rows
        )
    for rho in (0.0, -0.7):
        cfg = ScenarioConfig(scenario="single-price", rho=rho)
        rows = run_scenario(cfg)
        ok = ok and check_rows(cfg, rows) == []
        ok = ok and all(
            r.improved_upper - r.improved_lower
            <= r.frechet_upper - r.frechet_lower + 1e-6
            for r in rows
        )
        if rho == -0.7:
            row = min(rows, key=lambda r: abs(r.axis - 100.0))
            fre_w = row.frechet_upper - row.frechet_lower
            imp_w = row.improved_upper - row.improved_lower
            narrowing = 1.0 - imp_w / fre_w
            ok = ok and abs(row.axis - 100.0) < 1e-9 and narrowing >= 0.10
            details.append(f"single-price K=100 narrowing {100 * narrowing:.1f}%")
    cfg = ScenarioConfig(scenario="log-correlation", rho=0.0)
    rows = run_scenario(cfg)
    ok = ok and check_rows(cfg, rows) == []
    ok = ok and all(
        np.isnan(r.improved_lower)
        or r.improved_upper - r.improved_lower <= r.frechet_upper - r.frechet_lower + 1e-6
        for r in rows
    )
    feasible = sum(1 for r in rows if not np.isnan(r.improved_lower))
    details.append(f"log-correlation feasible rows {feasible}/{len(rows)}")
    report("8 pricing-scenarios", ok, "; ".join(details))
