"""Scenario computations behind the command-line driver.

``SCENARIOS`` maps each scenario name to its ``Scenario`` record, the only
place a scenario is declared: sweep-flag family, admissible sweep, pieces
builder, payoff per sweep point, and the defaults of every setting a
config leaves unset.  A pieces builder returns ``(m_x, m_y, bands)``, the
marginals and one ``(improved lower, reference, improved upper)`` per sweep
point; the reference is the Gaussian-copula model that synthesizes the
"known" dependence information.  Each row holds five curves: the Frechet
band, the improved band and the reference.  Without a payoff they are
surface values at the sweep point's marginal probabilities; with one, the
whole sweep is priced by one ``pricing.price_batch`` call, which takes
each row's five surfaces and prices a surface shared by rows once.  Its
nodes depend on the payoffs, the marginals, ``panels`` and the kinks of
all the sweep's surfaces, and every curve is priced on them, so the
ordering of the curves is exact; the payoff's concordance sign decides
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
    "sweep_grid",
    "run_scenario",
    "write_rows",
    "check_rows",
    "validate_scenario_surfaces",
]


@dataclass
class ScenarioConfig:
    """Inputs of one scenario run; field defaults reproduce the shipped
    experiments (exponential default times, martingale lognormal assets).
    Settings left ``None`` take the scenario's ``defaults`` on construction."""

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
    panels: int | None = None
    grid_n: int | None = None
    theta_tol: float = 1e-10
    constraint_maturities: tuple = (2.0, 3.0)
    constraint_strikes: int = 400
    validate: bool = False

    def __post_init__(self) -> None:
        spec = SCENARIOS.get(self.scenario)
        if spec is None:  # check() rejects it; its settings stay unset
            return
        for name, value in spec.defaults.items():
            if getattr(self, name) is None:
                setattr(self, name, value)

    def check(self) -> None:
        spec = SCENARIOS.get(self.scenario)
        if spec is None:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; pick one of {tuple(SCENARIOS)}"
            )
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        for name in ("sweep_steps", "panels", "grid_n", "constraint_strikes"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        lo, hi, steps = self.sweep_min, self.sweep_max, self.sweep_steps
        if steps < 1 or hi < lo or not np.isfinite([lo, hi]).all():
            raise ValueError("sweep grid must be finite, nonempty and sorted")
        a, b = spec.admissible
        if lo < a or hi > b:
            raise ValueError(f"{self.scenario} sweeps {spec.family} values in [{a:g}, {b:g}]")
        for name in ("lambda_x", "lambda_y", "sigma_x", "sigma_y", "spot", "maturity"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        _lognormals(self)  # rejects a sigma whose sigma**2 * maturity overflows
        if self.panels is not None and self.panels < 8:
            raise ValueError("panels must be at least 8")
        if self.grid_n < 2:
            raise ValueError("grid_n (the validation lattice size) must be at least 2")
        check_theta_tol(self.theta_tol)
        if not all(0.0 <= T < np.inf for T in self.constraint_maturities):
            raise ValueError("constraint_maturities must be finite and nonnegative")
        if self.constraint_strikes < 0:
            raise ValueError("constraint_strikes must be nonnegative")


def sweep_grid(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(float(cfg.sweep_min), float(cfg.sweep_max), cfg.sweep_steps)


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
    return m_x, m_y, [(low, ref, up)] * cfg.sweep_steps


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
    return m_x, m_y, [(low, ref, up)] * cfg.sweep_steps


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
    return m_x, m_y, [(low, ref, up)] * cfg.sweep_steps


def _scenario4_pieces(cfg: ScenarioConfig):
    """Zero-strike spread price bands versus the known log-return
    correlation, whose reference is the Gaussian copula of that
    correlation.

    The correlation pins E[log X log Y] through the fixed marginal
    moments; that expectation is the constraint functional.  The envelopes
    of all sweep levels form one family, so each evaluation grid inverts
    them together.  Levels outside the attainable range beyond the
    functional's slack raise LevelRangeError.
    """
    m_x, m_y = _lognormals(cfg)
    functional = MonotoneFunctional(lambda x, y: np.log(x) * np.log(y), m_x, m_y)
    cov_scale = np.sqrt(m_x.log_var * m_y.log_var)
    mean_term = m_x.log_mean * m_y.log_mean
    axes = [float(a) for a in sweep_grid(cfg)]
    family = bound_surfaces_for_levels(
        functional, [a * cov_scale + mean_term for a in axes], theta_tol=cfg.theta_tol
    )
    return m_x, m_y, [(low, gaussian_copula(a), up) for a, (low, up) in zip(axes, family)]


@dataclass(frozen=True)
class Scenario:
    """One CLI scenario.  ``family`` names the sweep flags
    (``--{family}-min/-max/-steps``); ``admissible`` is the closed range of
    the sweep points.  ``payoff=None`` makes the curves surface values
    (probabilities).  ``defaults`` holds the value of each ``ScenarioConfig``
    setting a config leaves unset: the sweep, ``grid_n`` and, for a scenario
    that prices, ``panels`` (chosen by measurement; README, error budget).
    Functional envelopes invert a one-point map at every point they are
    evaluated at, so their scenarios default to a smaller validation
    lattice."""

    family: str
    admissible: tuple[float, float]
    pieces: Callable[[ScenarioConfig], tuple]
    payoff: Callable[[float], pricing.PayoffSpec] | None
    defaults: dict


SCENARIOS = {
    "second-to-default": Scenario(
        "maturity", (0.0, np.inf), _scenario1_pieces, None,
        dict(sweep_min=0.0, sweep_max=10.0, sweep_steps=101, grid_n=200),
    ),
    "max-known": Scenario(
        "strike", (-np.inf, np.inf), _scenario2_pieces, pricing.spread,
        dict(sweep_min=-50.0, sweep_max=50.0, sweep_steps=101, panels=2001, grid_n=200),
    ),
    "single-price": Scenario(
        "strike", (0.0, np.inf), _scenario3_pieces, pricing.call_on_max,
        dict(sweep_min=0.0, sweep_max=200.0, sweep_steps=41, panels=40, grid_n=50),
    ),
    "log-correlation": Scenario(
        "corr", (-1.0, 1.0), _scenario4_pieces, lambda _: pricing.spread(0.0),
        dict(sweep_min=-1.0, sweep_max=1.0, sweep_steps=21, panels=40, grid_n=50),
    ),
}


def run_scenario(cfg: ScenarioConfig, pieces: tuple | None = None) -> list[CurveRow]:
    """One row per sweep point, each with the curves
    (W, improved lower, reference, improved upper, M) in increasing order.

    ``pieces`` is the scenario's ``(m_x, m_y, bands)``, built from ``cfg``
    when not given."""
    cfg.check()
    spec = SCENARIOS[cfg.scenario]
    m_x, m_y, bands = pieces or spec.pieces(cfg)
    axes = [float(a) for a in sweep_grid(cfg)]
    surfaces = [(FRECHET_LOWER, *band, FRECHET_UPPER) for band in bands]
    rows = []
    if spec.payoff is None:
        for a, row in zip(axes, surfaces, strict=True):
            u, v = float(m_x.cdf(a)), float(m_y.cdf(a))
            rows.append(CurveRow(a, *(float(s(u, v)) for s in row)))
        return rows
    payoffs = [spec.payoff(a) for a in axes]
    flat = [s for row in surfaces for s in row]
    prices = pricing.price_batch(payoffs, flat, m_x, m_y, panels=cfg.panels)
    for i, (a, p, row) in enumerate(zip(axes, payoffs, surfaces, strict=True)):
        values = prices[i, i * len(row) : (i + 1) * len(row)].tolist()  # row i's own surfaces
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
    sweep, in sweep order (lower before upper), so a band that does not vary
    along the sweep gives one pair.  ``pieces`` as in ``run_scenario``.  The
    lattice has ``cfg.grid_n`` cells per side; the members of one envelope
    family are evaluated on it together.
    """
    bands = (pieces or SCENARIOS[cfg.scenario].pieces(cfg))[2]
    surfaces = list(dict.fromkeys(s for low, _, up in bands for s in (low, up)))
    return [
        _validate(values, kind="copula" if s.is_copula else "quasi-copula")
        for s, values in zip(surfaces, evaluate_surfaces(surfaces, *lattice(cfg.grid_n)))
    ]


def write_rows(rows: list[CurveRow], path) -> None:
    """Write sweep rows as CSV; numeric-only, deterministic formatting."""
    names = [f.name for f in fields(CurveRow)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for r in rows:
            fh.write(",".join(repr(float(getattr(r, n))) for n in names) + "\n")
