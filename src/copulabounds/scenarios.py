"""Scenario computations behind the command-line driver.

Each scenario builds its pieces once (marginals, the Gaussian-copula
reference model that synthesizes the "known" dependence information, and
the improved bound surfaces) and sweeps an axis emitting five curves per
row: the unconstrained Frechet band, the improved band, and the
reference model value.  The pricing scenarios get all five curves of a
row from one ``pricing.price_batch`` call, so the curves share one
quadrature node set and their ordering is exact; the payoff's concordance
sign decides which surface prices which end of each band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constrained, pricing
from .functional import MonotoneFunctional, bound_surfaces_for_level
from .marginals import exponential, lognormal_martingale
from .surfaces import (
    FRECHET_LOWER,
    FRECHET_UPPER,
    frechet_lower,
    frechet_upper,
    gaussian_copula,
    validate_copula,
    validate_quasi_copula,
)

__all__ = [
    "SCENARIOS",
    "ScenarioConfig",
    "CurveRow",
    "sweep_grid",
    "run_scenario",
    "run_second_to_default",
    "run_max_known",
    "run_single_price",
    "run_log_correlation",
    "write_rows",
    "check_rows",
    "validate_scenario_surfaces",
]

SCENARIOS = ("second-to-default", "max-known", "single-price", "log-correlation")

_DEFAULT_SWEEPS = {
    "second-to-default": (0.0, 10.0, 101),
    "max-known": (-50.0, 50.0, 101),
    "single-price": (0.0, 200.0, 41),
    "log-correlation": (-1.0, 1.0, 21),
}


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
    rho_panels: int = 28
    grid_n: int = 200
    theta_tol: float = 1e-10
    constraint_maturities: tuple = (2.0, 3.0)
    constraint_strikes: int = 400
    validate: bool = False

    def check(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; pick one of {SCENARIOS}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        lo, hi, steps = sweep_bounds(self)
        if steps < 1 or hi < lo:
            raise ValueError("sweep grid must be nonempty and sorted")
        if self.scenario == "single-price" and lo < 0:
            raise ValueError("single-price sweeps max-option strikes, which must be nonnegative")
        if self.scenario == "second-to-default" and lo < 0:
            raise ValueError("maturities must be nonnegative")
        if self.scenario == "log-correlation" and (lo < -1 or hi > 1):
            raise ValueError("log-return correlations must lie in [-1, 1]")
        for name in ("lambda_x", "lambda_y", "sigma_x", "sigma_y", "spot", "maturity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.panels < 8 or self.bound_panels < 8 or self.rho_panels < 8:
            raise ValueError("panel counts must be at least 8")
        if self.grid_n < 2:
            raise ValueError("grid_n (the validation lattice size) must be at least 2")


def sweep_bounds(cfg: ScenarioConfig) -> tuple[float, float, int]:
    d_lo, d_hi, d_n = _DEFAULT_SWEEPS.get(cfg.scenario, (0.0, 1.0, 2))
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


# -- scenario 1: digital both-default quotes at a few maturities -----------


def _scenario1_pieces(cfg: ScenarioConfig):
    m_x = exponential(cfg.lambda_x)
    m_y = exponential(cfg.lambda_y)
    ref = gaussian_copula(cfg.rho)
    quotes = [
        (T, pricing.digital_default_prices(ref, m_x, m_y, T)[1])
        for T in cfg.constraint_maturities
    ]
    low, up = constrained.bounds_from_second_to_default(quotes, m_x, m_y)
    return m_x, m_y, ref, low, up


def run_second_to_default(cfg: ScenarioConfig) -> list[CurveRow]:
    """Both-default digital price bands as a function of maturity."""
    m_x, m_y, ref, low, up = _scenario1_pieces(cfg)
    rows = []
    for T in sweep_grid(cfg):
        u = float(m_x.cdf(T))
        v = float(m_y.cdf(T))
        rows.append(
            CurveRow(
                axis=float(T),
                frechet_lower=float(frechet_lower(u, v)),
                improved_lower=float(low(u, v)),
                reference=float(ref(u, v)),
                improved_upper=float(up(u, v)),
                frechet_upper=float(frechet_upper(u, v)),
            )
        )
    return rows


# -- scenario 2: full diagonal of the joint CDF known ----------------------


def _lognormals(cfg: ScenarioConfig):
    m_x = lognormal_martingale(cfg.sigma_x, cfg.spot, cfg.maturity)
    m_y = lognormal_martingale(cfg.sigma_y, cfg.spot, cfg.maturity)
    return m_x, m_y


def _constraint_strike_grid(cfg, m_x, m_y) -> np.ndarray:
    lo = min(float(m_x.quantile(1e-4)), float(m_y.quantile(1e-4)))
    hi = max(float(m_x.quantile(1.0 - 1e-4)), float(m_y.quantile(1.0 - 1e-4)))
    return np.linspace(lo, hi, cfg.constraint_strikes)


def _scenario2_pieces(cfg: ScenarioConfig):
    m_x, m_y = _lognormals(cfg)
    ref = gaussian_copula(cfg.rho)
    curve = lambda K: float(ref(float(m_x.cdf(K)), float(m_y.cdf(K))))
    low, up = constrained.bounds_from_max_options(
        curve, m_x, m_y, _constraint_strike_grid(cfg, m_x, m_y)
    )
    return m_x, m_y, ref, low, up


def _priced_rows(axes, payoffs, surfaces, m_x, m_y, panels) -> list[CurveRow]:
    """One row per payoff from its prices under ``surfaces``, which are
    (W, improved lower, reference, improved upper, M), pointwise increasing.

    Prices of supermodular payoffs increase along that order and those of
    submodular ones decrease, so the latter are read backwards.
    """
    prices = pricing.price_batch(payoffs, surfaces, m_x, m_y, panels=panels)
    rows = []
    for axis, payoff, row in zip(axes, payoffs, prices.tolist()):
        if pricing.payoff_sign(payoff) < 0:
            row = row[::-1]
        rows.append(CurveRow(float(axis), *row))
    return rows


def run_max_known(cfg: ScenarioConfig) -> list[CurveRow]:
    """Spread option price bands versus strike when the whole diagonal of
    the joint CDF is pinned by max-option quotes."""
    m_x, m_y, ref, low, up = _scenario2_pieces(cfg)
    strikes = sweep_grid(cfg)
    payoffs = [pricing.spread(float(K)) for K in strikes]
    surfaces = (FRECHET_LOWER, low, ref, up, FRECHET_UPPER)
    return _priced_rows(strikes, payoffs, surfaces, m_x, m_y, cfg.panels)


# -- scenarios 3 and 4: a single functional value is known -----------------


def _scenario3_pieces(cfg: ScenarioConfig):
    """Envelopes of the copulas that reproduce the reference model's
    zero-strike spread price.

    The spread payoff decreases under the concordance order, so the
    functional machinery runs on its negative with the negated level; the
    constrained copula family is the same either way.
    """
    m_x, m_y = _lognormals(cfg)
    ref = gaussian_copula(cfg.rho)
    level = pricing.price(pricing.spread(0.0), ref, m_x, m_y, panels=cfg.panels)
    functional = MonotoneFunctional(
        lambda x, y: -np.maximum(x - y, 0.0), m_x, m_y,
        kink=lambda x, y: x - y, panels=cfg.rho_panels,
    )
    low, up = bound_surfaces_for_level(functional, -level, theta_tol=cfg.theta_tol)
    return m_x, m_y, ref, low, up


def run_single_price(cfg: ScenarioConfig) -> list[CurveRow]:
    """Max-option call price bands versus strike when only the zero-strike
    spread price is known."""
    m_x, m_y, ref, low, up = _scenario3_pieces(cfg)
    strikes = sweep_grid(cfg)
    payoffs = [pricing.call_on_max(float(K)) for K in strikes]
    surfaces = (FRECHET_LOWER, low, ref, up, FRECHET_UPPER)
    return _priced_rows(strikes, payoffs, surfaces, m_x, m_y, cfg.bound_panels)


def _scenario4_pieces(cfg: ScenarioConfig):
    """Marginals and the builder of the envelopes of the copulas with a
    given log-return correlation.

    The correlation pins E[log X log Y] through the fixed marginal
    moments; that expectation is the constraint functional.  The builder
    raises LevelRangeError for levels outside the attainable range beyond
    the functional's slack.
    """
    m_x, m_y = _lognormals(cfg)
    functional = MonotoneFunctional(
        lambda x, y: np.log(x) * np.log(y), m_x, m_y, panels=cfg.rho_panels
    )
    cov_scale = np.sqrt(m_x.log_var * m_y.log_var)
    mean_term = m_x.log_mean * m_y.log_mean

    def bounds_at(rho0: float):
        level = rho0 * cov_scale + mean_term
        return bound_surfaces_for_level(functional, level, theta_tol=cfg.theta_tol)

    return m_x, m_y, bounds_at


def run_log_correlation(cfg: ScenarioConfig) -> list[CurveRow]:
    """Zero-strike spread price bands versus the known log-return correlation.

    Each level's envelopes are priced and dropped before the next level is
    built, so their inversion caches do not accumulate.
    """
    m_x, m_y, bounds_at = _scenario4_pieces(cfg)
    payoff = pricing.spread(0.0)
    rows = []
    for rho0 in sweep_grid(cfg):
        low, up = bounds_at(float(rho0))
        surfaces = (FRECHET_LOWER, low, gaussian_copula(float(rho0)), up, FRECHET_UPPER)
        rows += _priced_rows([rho0], [payoff], surfaces, m_x, m_y, cfg.bound_panels)
    return rows


_RUNNERS = {
    "second-to-default": run_second_to_default,
    "max-known": run_max_known,
    "single-price": run_single_price,
    "log-correlation": run_log_correlation,
}


def run_scenario(cfg: ScenarioConfig) -> list[CurveRow]:
    cfg.check()
    return _RUNNERS[cfg.scenario](cfg)


def row_tolerance(cfg: ScenarioConfig) -> float:
    # probability-valued curves in scenario 1, money-valued elsewhere
    return 1e-9 if cfg.scenario == "second-to-default" else 1e-6


def check_rows(cfg: ScenarioConfig, rows: list[CurveRow]) -> list[str]:
    """Ordering violations among the five curves, one message per bad row."""
    tol = row_tolerance(cfg)
    return [
        f"row ordering violated at axis={row.axis!r} within {tol}"
        for row in rows
        if not row.ordered_within(tol)
    ]


def validate_scenario_surfaces(cfg: ScenarioConfig) -> list:
    """Grid validation reports for the scenario's bound surfaces.

    Functional bound surfaces invert one bisection per lattice node, so
    they are checked on a capped lattice to stay interactive.
    """
    reports = []
    if cfg.scenario == "second-to-default":
        _, _, _, low, up = _scenario1_pieces(cfg)
        grid = cfg.grid_n
    elif cfg.scenario == "max-known":
        _, _, _, low, up = _scenario2_pieces(cfg)
        grid = cfg.grid_n
    elif cfg.scenario == "single-price":
        _, _, _, low, up = _scenario3_pieces(cfg)
        grid = min(cfg.grid_n, 50)
    else:
        _, _, bounds_at = _scenario4_pieces(cfg)
        low, up = bounds_at(cfg.rho)
        grid = min(cfg.grid_n, 50)
    for surf in (low, up):
        rep = (
            validate_copula(surf, grid_n=grid)
            if surf.is_copula
            else validate_quasi_copula(surf, grid_n=grid)
        )
        reports.append(rep)
    return reports


def write_rows(rows: list[CurveRow], path) -> None:
    """Write sweep rows as CSV; numeric-only, deterministic formatting."""
    with open(path, "w", newline="") as fh:
        fh.write("axis,frechet_lower,improved_lower,reference,improved_upper,frechet_upper\n")
        for r in rows:
            fh.write(
                ",".join(
                    repr(float(v))
                    for v in (
                        r.axis,
                        r.frechet_lower,
                        r.improved_lower,
                        r.reference,
                        r.improved_upper,
                        r.frechet_upper,
                    )
                )
                + "\n"
            )
