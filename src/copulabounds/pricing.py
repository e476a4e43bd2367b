"""Model-free pricing of two-asset European payoffs.

The price of a payoff under fixed marginals is a functional of the
copula alone.  For payoffs whose second differences have one sign it is
computed through the representation

    price = -f(0, 0) + E[f(X, 0)] + E[f(0, Y)]
            + integral of (1 - F_X(x) - F_Y(y) + C(F_X(x), F_Y(y)))
              against the curvature measure of f,

which needs only pointwise values of C and therefore accepts
quasi-copula bound surfaces.  For the shipped payoff catalog the
curvature measure lives on a line, so the double integral collapses to a
one-dimensional one; the product payoff x*y is the exception (Lebesgue
measure on the quadrant, priced by tensor quadrature).

``price_batch`` is the one place the representation is evaluated; it
prices a list of payoffs under a list of surfaces.  ``price`` and
``price_interval`` are single-payoff views of it.  Quadrature nodes
depend only on the payoffs priced together, the marginals, and the panel
count, never on the copula, so prices of pointwise-ordered surfaces are
ordered exactly as computed.  One-strike payoffs priced together share
one rule on the diagonal, split at every strike and at the kinks of the
Frechet surfaces.  Discounting is assumed absorbed into the payoff; the
scenario rate is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .functional import evaluate_surfaces
from .marginals import Marginal
from .quadrature import (
    DEFAULT_PANELS,
    interval_rule,
    refine_sign_changes,
    unit_rule,
)
from .surfaces import CopulaSurface

__all__ = [
    "PayoffSpec",
    "PriceInterval",
    "InconsistentIntervalError",
    "basket",
    "spread",
    "call_on_min",
    "put_on_min",
    "call_on_max",
    "put_on_max",
    "worst_off_call",
    "worst_off_put",
    "best_off_call",
    "best_off_put",
    "product_xy",
    "payoff_value",
    "payoff_sign",
    "survival_weight",
    "price",
    "price_batch",
    "price_interval",
    "digital_default_prices",
]

_KINDS_ONE_STRIKE = ("call-on-min", "put-on-min", "call-on-max", "put-on-max")
_KINDS_TWO_STRIKE = ("worst-off-call", "worst-off-put", "best-off-call", "best-off-put")
# Panels per axis of the product payoff's tensor rule: under M the product
# price is 8.6e-7 relative off a direct quadrature along the coupling.
_PANELS_2D = 100


class InconsistentIntervalError(RuntimeError):
    """Computed price interval is crossed beyond tolerance."""


@dataclass(frozen=True)
class PayoffSpec:
    """Payoff identifier plus parameters; build via the module constructors."""

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    strike: float = 0.0
    strike1: float = 0.0
    strike2: float = 0.0


def _check_finite(kind: str, **params: float) -> None:
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{kind} {name} must be finite, got {value!r}")


def basket(alpha: float, beta: float, strike: float) -> PayoffSpec:
    """(alpha*X + beta*Y - K)^+; spreads are alpha/beta of opposite sign.

    Either coefficient sign is accepted and so are negative strikes (the
    curvature-measure support is resolved per sign quadrant).
    """
    _check_finite("basket", alpha=alpha, beta=beta, strike=strike)
    if alpha == 0.0 or beta == 0.0:
        raise ValueError("basket weights must be nonzero (payoff degenerates to one asset)")
    return PayoffSpec("basket", alpha=float(alpha), beta=float(beta), strike=float(strike))


def spread(strike: float) -> PayoffSpec:
    """(X - Y - K)^+."""
    return basket(1.0, -1.0, strike)


def _one_strike(kind: str, strike: float) -> PayoffSpec:
    _check_finite(kind, strike=strike)
    if strike < 0.0:
        raise ValueError(f"{kind} strike must be nonnegative")
    return PayoffSpec(kind, strike=float(strike))


def call_on_min(strike: float) -> PayoffSpec:
    return _one_strike("call-on-min", strike)


def put_on_min(strike: float) -> PayoffSpec:
    return _one_strike("put-on-min", strike)


def call_on_max(strike: float) -> PayoffSpec:
    return _one_strike("call-on-max", strike)


def put_on_max(strike: float) -> PayoffSpec:
    return _one_strike("put-on-max", strike)


def _two_strike(kind: str, k1: float, k2: float) -> PayoffSpec:
    _check_finite(kind, k1=k1, k2=k2)
    if k1 < 0.0 or k2 < 0.0:
        raise ValueError(f"{kind} strikes must be nonnegative")
    return PayoffSpec(kind, strike1=float(k1), strike2=float(k2))


def worst_off_call(k1: float, k2: float) -> PayoffSpec:
    return _two_strike("worst-off-call", k1, k2)


def worst_off_put(k1: float, k2: float) -> PayoffSpec:
    return _two_strike("worst-off-put", k1, k2)


def best_off_call(k1: float, k2: float) -> PayoffSpec:
    return _two_strike("best-off-call", k1, k2)


def best_off_put(k1: float, k2: float) -> PayoffSpec:
    return _two_strike("best-off-put", k1, k2)


def product_xy() -> PayoffSpec:
    return PayoffSpec("product-xy")


def payoff_value(p: PayoffSpec, x, y):
    """Vectorized payoff evaluation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = p.kind
    if k == "basket":
        return np.maximum(p.alpha * x + p.beta * y - p.strike, 0.0)
    if k == "call-on-min":
        return np.maximum(np.minimum(x, y) - p.strike, 0.0)
    if k == "put-on-min":
        return np.maximum(p.strike - np.minimum(x, y), 0.0)
    if k == "call-on-max":
        return np.maximum(np.maximum(x, y) - p.strike, 0.0)
    if k == "put-on-max":
        return np.maximum(p.strike - np.maximum(x, y), 0.0)
    if k == "worst-off-call":
        return np.minimum(np.maximum(x - p.strike1, 0.0), np.maximum(y - p.strike2, 0.0))
    if k == "worst-off-put":
        return np.minimum(np.maximum(p.strike1 - x, 0.0), np.maximum(p.strike2 - y, 0.0))
    if k == "best-off-call":
        return np.maximum(np.maximum(x - p.strike1, 0.0), np.maximum(y - p.strike2, 0.0))
    if k == "best-off-put":
        return np.maximum(np.maximum(p.strike1 - x, 0.0), np.maximum(p.strike2 - y, 0.0))
    if k == "product-xy":
        return x * y
    raise ValueError(f"unknown payoff kind {k!r}")


def payoff_sign(p: PayoffSpec) -> int:
    """+1 for supermodular (2-increasing) payoffs, -1 for submodular.

    Note the puts: a put on the minimum decreases when dependence
    increases, a put on the maximum increases (second differences have
    the opposite signs of the corresponding calls).
    """
    k = p.kind
    if k == "basket":
        return 1 if p.alpha * p.beta > 0 else -1
    if k in ("call-on-min", "put-on-max", "worst-off-call", "worst-off-put", "product-xy"):
        return 1
    if k in ("call-on-max", "put-on-min", "best-off-call", "best-off-put"):
        return -1
    raise ValueError(f"unknown payoff kind {k!r}")


def survival_weight(surface: CopulaSurface, m_x: Marginal, m_y: Marginal, x, y):
    """Joint survival weight 1 - F_X(x) - F_Y(y) + C(F_X(x), F_Y(y)) in [0, 1]."""
    u = m_x.cdf(np.maximum(np.asarray(x, dtype=float), 0.0))
    v = m_y.cdf(np.maximum(np.asarray(y, dtype=float), 0.0))
    out = np.clip(1.0 - u - v + surface(u, v), 0.0, 1.0)
    return out if np.ndim(out) else float(out)


def _strike_candidates(p: PayoffSpec) -> list[float]:
    vals = []
    if p.kind == "basket":
        vals += [p.strike / p.alpha, p.strike / p.beta]
    vals += [p.strike, p.strike1, p.strike2, p.strike1 - p.strike2, p.strike2 - p.strike1]
    return [v for v in vals if np.isfinite(v) and v > 0.0]


def _edge_terms(payoffs, m: Marginal, on_x: bool) -> np.ndarray:
    """E[f(X, 0)] (``on_x``) or E[f(0, Y)] of each payoff, on one unit rule
    split at the CDF values of all their kinks; the quantile is evaluated
    once, and each payoff's values are checked on their own."""
    kinks = sorted({k for p in payoffs for k in _strike_candidates(p)})
    rule = unit_rule(breakpoints=m.cdf(np.asarray(kinks, dtype=float)))
    q = m.quantile_unchecked(rule.nodes)
    x, y = (q, 0.0) if on_x else (0.0, q)
    return np.array([rule.integrate_checked(lambda _: payoff_value(p, x, y)) for p in payoffs])


class _Segment(NamedTuple):
    """Support of a payoff's curvature measure: the points ``lo < z < hi``
    of the line ``x = cx*z + dx``, ``y = cy*z + dy``, with the measure's
    sign."""

    lo: float
    hi: float
    cx: float
    dx: float
    cy: float
    dy: float
    sign: int


def _mu_segment(p: PayoffSpec, m_x: Marginal, m_y: Marginal) -> _Segment:
    """Curvature support of ``p``.

    Infinite upper limits are truncated where either marginal's survival
    drops below ``DEFAULT_EPS``; the integrand is dominated by those
    survivals.
    """
    sign = payoff_sign(p)
    cx = m_x.upper_cutoff()
    cy = m_y.upper_cutoff()
    k = p.kind
    if k == "basket":
        a, b, K = p.alpha, p.beta, p.strike
        line = (1.0 / a, 0.0, -1.0 / b, K / b)  # x = z / a, y = (K - z) / b
        if a > 0 and b > 0:
            lo, hi = max(0.0, K - b * cy), min(K, a * cx)
        elif a > 0 and b < 0:
            lo, hi = max(0.0, K), min(a * cx, K - b * cy)
        elif a < 0 and b > 0:
            lo, hi = max(a * cx, K - b * cy), min(0.0, K)
        else:  # a < 0 and b < 0: the support line meets the quadrant only if K < 0
            lo, hi = max(K, a * cx), min(0.0, K - b * cy)
        return _Segment(lo, hi, *line, sign)
    if k in _KINDS_ONE_STRIKE:
        diag_hi = min(cx, cy)
        lo, hi = (p.strike, diag_hi) if k.startswith("call") else (0.0, min(p.strike, diag_hi))
        return _Segment(lo, hi, 1.0, 0.0, 1.0, 0.0, sign)
    if k in _KINDS_TWO_STRIKE:
        if k in ("worst-off-call", "best-off-call"):
            hi = min(cx - p.strike1, cy - p.strike2)
            return _Segment(0.0, max(hi, 0.0), 1.0, p.strike1, 1.0, p.strike2, sign)
        hi = min(p.strike1, p.strike2)
        return _Segment(0.0, hi, -1.0, p.strike1, -1.0, p.strike2, sign)
    raise ValueError(f"unknown payoff kind {k!r}")


def _shared_path(segments) -> _Segment:
    """One path covering the union of segments that lie on the same line."""
    nonempty = [s for s in segments if s.hi > s.lo]
    lo = min((s.lo for s in nonempty), default=0.0)
    hi = max((s.hi for s in nonempty), default=0.0)
    return segments[0]._replace(lo=lo, hi=hi)


def _path_crossings(m_x, m_y, paths) -> list[np.ndarray]:
    """Where each path crosses the kinks of the Frechet surfaces: F_X(x(z))
    crosses F_Y(y(z)), or their sum crosses 1.  One ``refine_sign_changes``
    call per kink family covers every path."""
    lo, hi, cx, dx, cy, dy = np.array([p[:6] for p in paths], dtype=float).reshape(-1, 6).T

    def fx(z, i):
        return m_x.cdf(np.maximum(cx[i] * z + dx[i], 0.0))

    def fy(z, i):
        return m_y.cdf(np.maximum(cy[i] * z + dy[i], 0.0))

    r1, i1 = refine_sign_changes(lambda z, i: fx(z, i) - fy(z, i), lo, hi)
    r2, i2 = refine_sign_changes(lambda z, i: fx(z, i) + fy(z, i) - 1.0, lo, hi)
    roots, rows = np.concatenate([r1, r2]), np.concatenate([i1, i2])
    return [roots[rows == j] for j in range(len(paths))]


def _mu_terms(u, v, weights: np.ndarray, surfaces) -> np.ndarray:
    """``weights @ G`` under each surface, G the survival weight at (u, v).

    ``weights`` has one row per payoff and one column per point of the
    flattened (u, v) grid; each surface is evaluated once on the grid, and
    the members of one envelope family together.  The sums are einsum
    reductions: a BLAS product would wake a thread pool that spins on the
    other cores.
    """
    out = np.zeros((weights.shape[0], len(surfaces)))
    if weights.size:
        for j, c in enumerate(evaluate_surfaces(surfaces, u, v)):
            g = np.clip(1.0 - u - v + c, 0.0, 1.0).ravel()
            out[:, j] = np.einsum("ij,j->i", weights, g)
    return out


def _path_terms(payoffs, segments, path, crossings, surfaces, m_x, m_y, panels):
    """Curvature terms, shape ``(len(payoffs), len(surfaces))``, of payoffs
    whose curvature measures lie on one path: a single payoff, or one-strike
    payoffs on the diagonal x = y = z.

    One rule covers the path, split at the strikes and at the path's
    crossings of the Frechet kinks.  Segment ends are panel edges, so each
    payoff's term is the exact partial sum over the nodes inside its own
    segment.
    """
    breaks = [p.strike for p in payoffs] + crossings.tolist()
    rule = interval_rule(path.lo, path.hi, panels, breakpoints=breaks)
    z = rule.nodes
    weights = np.array(
        [s.sign * np.where((z > s.lo) & (z < s.hi), rule.weights, 0.0) for s in segments]
    )
    u = m_x.cdf(np.maximum(path.cx * z + path.dx, 0.0))
    v = m_y.cdf(np.maximum(path.cy * z + path.dy, 0.0))
    return _mu_terms(u, v, weights, surfaces)


def price_batch(
    payoffs,
    surfaces,
    m_x: Marginal,
    m_y: Marginal,
    *,
    panels: int = DEFAULT_PANELS,
) -> np.ndarray:
    """Prices of every payoff under every surface, shape
    ``(len(payoffs), len(surfaces))``, through the quasi-copula-compatible
    representation.

    Works for any surface (copula or quasi-copula); only pointwise values
    of the surfaces enter.  ``panels`` sets the uniform panels of the
    money-space path rules; the edge expectations of all payoffs share one
    graded unit rule per marginal.  The kink crossings of all paths are
    found together, and each surface is called once per rule.  One-strike
    payoffs (calls and puts on the minimum or maximum) share one rule on
    the diagonal.  Raises QuadratureError on boundary-integrability
    violations.
    """
    payoffs = list(payoffs)
    surfaces = list(surfaces)
    out = np.empty((len(payoffs), len(surfaces)))
    diagonal = [i for i, p in enumerate(payoffs) if p.kind in _KINDS_ONE_STRIKE]
    groups = [diagonal] if diagonal else []
    groups += [[i] for i, p in enumerate(payoffs)
               if p.kind not in _KINDS_ONE_STRIKE and p.kind != "product-xy"]
    segments = [[_mu_segment(payoffs[i], m_x, m_y) for i in g] for g in groups]
    paths = [_shared_path(s) for s in segments]
    for g, segs, path, crossings in zip(
        groups, segments, paths, _path_crossings(m_x, m_y, paths)
    ):
        out[g] = _path_terms(
            [payoffs[i] for i in g], segs, path, crossings, surfaces, m_x, m_y, panels
        )
    for i, p in enumerate(payoffs):
        if p.kind == "product-xy":
            rx = interval_rule(0.0, m_x.upper_cutoff(), _PANELS_2D)
            ry = interval_rule(0.0, m_y.upper_cutoff(), _PANELS_2D)
            u = m_x.cdf(rx.nodes)[:, None]
            v = m_y.cdf(ry.nodes)[None, :]
            out[i] = _mu_terms(u, v, np.outer(rx.weights, ry.weights).reshape(1, -1), surfaces)[0]
    at_origin = np.array([float(payoff_value(p, 0.0, 0.0)) for p in payoffs])
    edges = _edge_terms(payoffs, m_x, True) + _edge_terms(payoffs, m_y, False) - at_origin
    return out + edges[:, None]


def price(
    p: PayoffSpec,
    surface: CopulaSurface,
    m_x: Marginal,
    m_y: Marginal,
    *,
    panels: int = DEFAULT_PANELS,
) -> float:
    """Price of one payoff under one surface; ``panels`` as in ``price_batch``."""
    return float(price_batch([p], [surface], m_x, m_y, panels=panels)[0, 0])


@dataclass(frozen=True)
class PriceInterval:
    """Model-free price interval with the surfaces that produced each end.

    ``sharp_lower``/``sharp_upper`` record whether the producing surface
    is a copula, in which case that end of the interval is attained.
    """

    lower: float
    upper: float
    lower_surface: CopulaSurface
    upper_surface: CopulaSurface
    sharp_lower: bool
    sharp_upper: bool

    @property
    def width(self) -> float:
        return self.upper - self.lower


def price_interval(
    p: PayoffSpec,
    lower_surface: CopulaSurface,
    upper_surface: CopulaSurface,
    m_x: Marginal,
    m_y: Marginal,
    *,
    panels: int = DEFAULT_PANELS,
) -> PriceInterval:
    """Price interval from pointwise bound surfaces (lower <= upper).

    For supermodular payoffs the lower surface prices the lower end; for
    submodular payoffs the surfaces swap roles.
    """
    pl, pu = price_batch([p], [lower_surface, upper_surface], m_x, m_y, panels=panels)[0].tolist()
    if payoff_sign(p) >= 0:
        lo, hi = pl, pu
        s_lo, s_hi = lower_surface, upper_surface
    else:
        lo, hi = pu, pl
        s_lo, s_hi = upper_surface, lower_surface
    tol = 1e-6 * max(1.0, abs(lo), abs(hi))
    if lo > hi + tol:
        raise InconsistentIntervalError(
            f"price interval crossed: [{lo}, {hi}] for {p.kind}"
        )
    return PriceInterval(
        lower=min(lo, hi),
        upper=max(lo, hi),
        lower_surface=s_lo,
        upper_surface=s_hi,
        sharp_lower=s_lo.is_copula,
        sharp_upper=s_hi.is_copula,
    )


def digital_default_prices(
    surface: CopulaSurface, m_x: Marginal, m_y: Marginal, T: float
) -> tuple[float, float]:
    """Prices of the digital first- and second-to-default claims at horizon T.

    first  = F_X(T) + F_Y(T) - C(F_X(T), F_Y(T))
    second = C(F_X(T), F_Y(T))
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    u = float(m_x.cdf(T))
    v = float(m_y.cdf(T))
    second = float(surface(u, v))
    return u + v - second, second
