"""Scenario computations behind the command-line driver.

``SCENARIOS`` maps each scenario name to its ``Scenario`` record, the only
place a scenario is declared: sweep-flag family, default and admissible
sweep, pieces builder, payoff per sweep point, and whether the band holds
functional envelopes.  A pieces builder returns ``(m_x, m_y, band)``, the
marginals and ``band(axis) -> (improved lower, reference, improved upper)``;
the reference is the Gaussian-copula model that synthesizes the "known"
dependence information.  Each row holds five curves: the Frechet band, the
improved band and the reference.  Without a payoff they are surface values
at the sweep point's marginal probabilities; with one, the whole sweep is
priced by one ``pricing.price_batch`` call, so the curves share one node
set and their ordering is exact, and the payoff's concordance sign decides
which surface prices which end of each band.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import constrained, pricing
from .functional import (
    MonotoneFunctional,
    bound_surfaces_for_level,
    bound_surfaces_for_levels,
    check_theta_tol,
    evaluate_surfaces,
)
from .marginals import exponential, lognormal_martingale
from .surfaces import FRECHET_LOWER, FRECHET_UPPER, _validate, gaussian_copula, lattice

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioConfig",
    "CurveRow",
    "sweep_bounds",
    "sweep_grid",
    "run_scenario",
    "write_rows",
    "check_rows",
    "validate_scenario_surfaces",
]


@dataclass
class ScenarioConfig:
    """Inputs of one scenario run; field defaults reproduce the shipped
    experiments (exponential default times, martingale lognormal assets)."""

    scenario: str = ""
    rho: float = 0.0
    out: str = "out.csv"
    lambda_x: float = 0.2
    lambda_y: float = 0.3
    sigma_x: float = 0.2
    sigma_y: float = 0.3
    spot: float = 100.0
    maturity: float = 1.0
    sweep_min: float | None = None
    sweep_max: float | None = None
    sweep_steps: int | None = None
    panels: int = 2001
    bound_panels: int = 320
    grid_n: int = 200
    theta_tol: float = 1e-10
    constraint_maturities: tuple = (2.0, 3.0)
    constraint_strikes: int = 400
    validate: bool = False

    def check(self) -> None:
        spec = SCENARIOS.get(self.scenario)
        if spec is None:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; pick one of {tuple(SCENARIOS)}"
            )
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        lo, hi, steps = sweep_bounds(self)
        if steps < 1 or hi < lo or not np.isfinite([lo, hi]).all():
            raise ValueError("sweep grid must be finite, nonempty and sorted")
        a, b = spec.admissible
        if lo < a or hi > b:
            raise ValueError(f"{self.scenario} sweeps {spec.family} values in [{a:g}, {b:g}]")
        for name in ("lambda_x", "lambda_y", "sigma_x", "sigma_y", "spot", "maturity"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.panels < 8 or self.bound_panels < 8:
            raise ValueError("panel counts must be at least 8")
        if self.grid_n < 2:
            raise ValueError("grid_n (the validation lattice size) must be at least 2")
        check_theta_tol(self.theta_tol)
        if not all(0.0 <= T < np.inf for T in self.constraint_maturities):
            raise ValueError("constraint_maturities must be finite and nonnegative")
        if self.constraint_strikes < 0:
            raise ValueError("constraint_strikes must be nonnegative")


def sweep_bounds(cfg: ScenarioConfig) -> tuple[float, float, int]:
    d_lo, d_hi, d_n = SCENARIOS[cfg.scenario].default_sweep
    lo = d_lo if cfg.sweep_min is None else float(cfg.sweep_min)
    hi = d_hi if cfg.sweep_max is None else float(cfg.sweep_max)
    n = d_n if cfg.sweep_steps is None else int(cfg.sweep_steps)
    return lo, hi, n


def sweep_grid(cfg: ScenarioConfig) -> np.ndarray:
    lo, hi, n = sweep_bounds(cfg)
    return np.linspace(lo, hi, n)


@dataclass(frozen=True)
class CurveRow:
    """One sweep point: Frechet band, improved band, and reference value."""

    axis: float
    frechet_lower: float
    improved_lower: float
    reference: float
    improved_upper: float
    frechet_upper: float

    def ordered_within(self, tol: float) -> bool:
        vals = (
            self.frechet_lower,
            self.improved_lower,
            self.reference,
            self.improved_upper,
            self.frechet_upper,
        )
        return all(vals[i] <= vals[i + 1] + tol for i in range(4))


def _scenario1_pieces(cfg: ScenarioConfig):
    """Both-default digital probability bands versus maturity."""
    m_x = exponential(cfg.lambda_x)
    m_y = exponential(cfg.lambda_y)
    ref = gaussian_copula(cfg.rho)
    quotes = [
        (T, pricing.digital_default_prices(ref, m_x, m_y, T)[1])
        for T in cfg.constraint_maturities
    ]
    low, up = constrained.bounds_from_second_to_default(quotes, m_x, m_y)
    return m_x, m_y, lambda _: (low, ref, up)


def _lognormals(cfg: ScenarioConfig):
    m_x = lognormal_martingale(cfg.sigma_x, cfg.spot, cfg.maturity)
    m_y = lognormal_martingale(cfg.sigma_y, cfg.spot, cfg.maturity)
    return m_x, m_y


def _scenario2_pieces(cfg: ScenarioConfig):
    """Spread option price bands versus strike when the whole diagonal of
    the joint CDF is pinned by max-option quotes."""
    m_x, m_y = _lognormals(cfg)
    ref = gaussian_copula(cfg.rho)
    curve = lambda K: ref(m_x.cdf(K), m_y.cdf(K))
    lo = min(float(m_x.quantile_unchecked(1e-4)), float(m_y.quantile_unchecked(1e-4)))
    hi = max(float(m_x.quantile_unchecked(1.0 - 1e-4)), float(m_y.quantile_unchecked(1.0 - 1e-4)))
    strikes = np.linspace(lo, hi, cfg.constraint_strikes)
    low, up = constrained.bounds_from_max_options(curve, m_x, m_y, strikes)
    return m_x, m_y, lambda _: (low, ref, up)


def _scenario3_pieces(cfg: ScenarioConfig):
    """Max-option call price bands versus strike when only the reference
    model's zero-strike spread price is known.

    The spread payoff decreases under the concordance order, so the
    functional machinery runs on its negative with the negated level; the
    constrained copula family is the same either way.
    """
    m_x, m_y = _lognormals(cfg)
    ref = gaussian_copula(cfg.rho)
    level = pricing.price(pricing.spread(0.0), ref, m_x, m_y, panels=cfg.panels)
    functional = MonotoneFunctional(
        lambda x, y: -np.maximum(x - y, 0.0), m_x, m_y, kink=lambda x, y: x - y
    )
    low, up = bound_surfaces_for_level(functional, -level, theta_tol=cfg.theta_tol)
    return m_x, m_y, lambda _: (low, ref, up)


def _scenario4_pieces(cfg: ScenarioConfig):
    """Zero-strike spread price bands versus the known log-return
    correlation, whose reference is the Gaussian copula of that
    correlation.

    The correlation pins E[log X log Y] through the fixed marginal
    moments; that expectation is the constraint functional.  The envelopes
    of all sweep levels form one family, so each evaluation grid inverts
    them together.  Levels outside the attainable range beyond the
    functional's slack raise LevelRangeError.  ``band`` takes the sweep's
    points.
    """
    m_x, m_y = _lognormals(cfg)
    functional = MonotoneFunctional(lambda x, y: np.log(x) * np.log(y), m_x, m_y)
    cov_scale = np.sqrt(m_x.log_var * m_y.log_var)
    mean_term = m_x.log_mean * m_y.log_mean
    axes = [float(a) for a in sweep_grid(cfg)]
    family = bound_surfaces_for_levels(
        functional, [a * cov_scale + mean_term for a in axes], theta_tol=cfg.theta_tol
    )
    pairs = dict(zip(axes, family))

    def band(rho0: float):
        low, up = pairs[rho0]
        return low, gaussian_copula(rho0), up

    return m_x, m_y, band


@dataclass(frozen=True)
class Scenario:
    """One CLI scenario.  ``family`` names the sweep flags
    (``--{family}-min/-max/-steps``); ``admissible`` is the closed range of
    the sweep points.  ``payoff=None`` makes the curves surface values
    (probabilities).  Functional envelopes invert a one-point map at every
    point they are evaluated at, so a band of them is priced at
    ``bound_panels`` and validated on a capped lattice."""

    family: str
    default_sweep: tuple[float, float, int]
    admissible: tuple[float, float]
    pieces: Callable[[ScenarioConfig], tuple]
    payoff: Callable[[float], pricing.PayoffSpec] | None
    functional_envelopes: bool


SCENARIOS = {
    "second-to-default": Scenario(
        "maturity", (0.0, 10.0, 101), (0.0, np.inf), _scenario1_pieces, None, False
    ),
    "max-known": Scenario(
        "strike", (-50.0, 50.0, 101), (-np.inf, np.inf), _scenario2_pieces,
        pricing.spread, False,
    ),
    "single-price": Scenario(
        "strike", (0.0, 200.0, 41), (0.0, np.inf), _scenario3_pieces,
        pricing.call_on_max, True,
    ),
    "log-correlation": Scenario(
        "corr", (-1.0, 1.0, 21), (-1.0, 1.0), _scenario4_pieces,
        lambda _: pricing.spread(0.0), True,
    ),
}


def run_scenario(cfg: ScenarioConfig, pieces: tuple | None = None) -> list[CurveRow]:
    """One row per sweep point, each with the curves
    (W, improved lower, reference, improved upper, M) in increasing order.

    ``pieces`` is the scenario's ``(m_x, m_y, band)``, built from ``cfg``
    when not given."""
    cfg.check()
    spec = SCENARIOS[cfg.scenario]
    m_x, m_y, band = pieces or spec.pieces(cfg)
    axes = [float(a) for a in sweep_grid(cfg)]
    surfaces = [(FRECHET_LOWER, *band(a), FRECHET_UPPER) for a in axes]
    rows = []
    if spec.payoff is None:
        for a, row in zip(axes, surfaces):
            u, v = float(m_x.cdf(a)), float(m_y.cdf(a))
            rows.append(CurveRow(a, *(float(s(u, v)) for s in row)))
        return rows
    # Surfaces hold arrays and do not hash, so they are told apart by identity.
    payoffs = [spec.payoff(a) for a in axes]
    payoff_col = {p: i for i, p in enumerate(dict.fromkeys(payoffs))}
    distinct = {id(s): s for row in surfaces for s in row}
    surface_col = {key: j for j, key in enumerate(distinct)}
    prices = pricing.price_batch(
        list(payoff_col), list(distinct.values()), m_x, m_y,
        panels=cfg.bound_panels if spec.functional_envelopes else cfg.panels,
    )
    for a, p, row in zip(axes, payoffs, surfaces):
        values = [float(prices[payoff_col[p], surface_col[id(s)]]) for s in row]
        # prices of submodular payoffs decrease along the surface order
        if pricing.payoff_sign(p) < 0:
            values.reverse()
        rows.append(CurveRow(a, *values))
    return rows


def check_rows(cfg: ScenarioConfig, rows: list[CurveRow]) -> list[str]:
    """Ordering violations among the five curves, one message per bad row;
    the slack is 1e-9 for probabilities and 1e-6 for money."""
    tol = 1e-9 if SCENARIOS[cfg.scenario].payoff is None else 1e-6
    return [
        f"row ordering violated at axis={row.axis!r} within {tol}"
        for row in rows
        if not row.ordered_within(tol)
    ]


def validate_scenario_surfaces(cfg: ScenarioConfig, pieces: tuple | None = None) -> list:
    """Grid validation reports for the distinct improved surfaces of the
    sweep, in sweep order (lower before upper); distinct by identity, as in
    ``run_scenario``, so a band that does not vary along the sweep gives
    one pair.  ``pieces`` as in ``run_scenario``.

    Functional envelopes invert a one-point map at every lattice node, so
    they are checked on a lattice capped at 50 to stay interactive; the
    members of one envelope family are evaluated on it together.
    """
    spec = SCENARIOS[cfg.scenario]
    band = (pieces or spec.pieces(cfg))[2]
    distinct = {}
    for a in sweep_grid(cfg):
        low, _, up = band(float(a))
        distinct.setdefault(id(low), low)
        distinct.setdefault(id(up), up)
    surfaces = list(distinct.values())
    grid = min(cfg.grid_n, 50) if spec.functional_envelopes else cfg.grid_n
    return [
        _validate(values, kind="copula" if s.is_copula else "quasi-copula")
        for s, values in zip(surfaces, evaluate_surfaces(surfaces, *lattice(grid)))
    ]


def write_rows(rows: list[CurveRow], path) -> None:
    """Write sweep rows as CSV; numeric-only, deterministic formatting."""
    names = [f.name for f in fields(CurveRow)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for r in rows:
            fh.write(",".join(repr(float(getattr(r, n))) for n in names) + "\n")
