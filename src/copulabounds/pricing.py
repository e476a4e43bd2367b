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
one-dimensional one.

``price_batch`` is the one place the representation is evaluated; it
prices a list of payoffs under a list of surfaces.  ``price`` and
``price_interval`` are single-payoff views of it.  Quadrature nodes
depend on the payoffs, the marginals, the panel count and the kinks of
the surfaces priced together, and every surface of one call is evaluated
on the same nodes, so prices of pointwise-ordered surfaces are ordered
exactly as computed within one call.  Each path's rule is split at the
strikes, where the path crosses a kink of the Frechet bounds (whatever
is priced), and where it crosses the kinks that the groups of the
surfaces priced declare (``surfaces.surface_groups``), with their
grading splits.  Payoffs priced together whose curvature lies on one
line share one rule on it.
Discounting is assumed absorbed into the payoff; the scenario rate is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import quadrature
from .marginals import Marginal
from .quadrature import (
    DEFAULT_PANELS,
    QuadratureError,
    interval_rule,
    refine_sign_changes,
    unit_rule,
)
from .surfaces import CopulaSurface, evaluate_surfaces, surface_groups

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
    "payoff_value",
    "payoff_sign",
    "price",
    "price_batch",
    "price_interval",
    "digital_default_prices",
]

# The calls and puts on the minimum or maximum and the worst-off and best-off
# options are one family, (ext(s*(x - K1), s*(y - K2)))^+ with s = +1 for calls
# and -1 for puts; a one-strike kind has K1 = K2.  Its curvature lies on the
# line y = x + K2 - K1, positive for ext = min and negative for ext = max.
_MIN_MAX = {
    "call-on-min": (1.0, np.minimum),
    "put-on-min": (-1.0, np.maximum),
    "call-on-max": (1.0, np.maximum),
    "put-on-max": (-1.0, np.minimum),
    "worst-off-call": (1.0, np.minimum),
    "worst-off-put": (-1.0, np.minimum),
    "best-off-call": (1.0, np.maximum),
    "best-off-put": (-1.0, np.maximum),
}


class InconsistentIntervalError(RuntimeError):
    """Computed price interval is crossed beyond tolerance."""


@dataclass(frozen=True)
class PayoffSpec:
    """Payoff identifier plus parameters, checked however it is built.

    Raises ValueError for an unknown kind, a field that is not finite
    (naming it), a nonzero field the kind never reads (naming it: a
    basket's ``strike1`` and ``strike2``, a min/max kind's ``alpha`` and
    ``beta``, a worst-off or best-off kind's ``strike``), a zero basket
    weight, a negative strike of a min/max kind, or a one-strike kind
    (calls and puts on the min or max) whose ``strike``, ``strike1`` and
    ``strike2`` differ; the fields are stored as floats.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    strike: float = 0.0
    strike1: float = 0.0
    strike2: float = 0.0

    def __post_init__(self) -> None:
        if self.kind != "basket" and self.kind not in _MIN_MAX:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        for f in fields(self)[1:]:
            value = float(getattr(self, f.name))
            if not np.isfinite(value):
                raise ValueError(f"{self.kind} {f.name} must be finite, got {value!r}")
            object.__setattr__(self, f.name, value)
        # a spec with such a field set prices as its twin without it, yet
        # compares unequal, so price_batch would price the pair twice
        unread = (
            ("strike1", "strike2") if self.kind == "basket"
            else ("alpha", "beta", "strike") if "-off-" in self.kind
            else ("alpha", "beta")
        )
        for name in unread:
            if getattr(self, name) != 0.0:
                raise ValueError(
                    f"{self.kind} never reads {name}, so {name} must be 0, "
                    f"got {getattr(self, name)}"
                )
        if self.kind == "basket":
            if self.alpha == 0.0 or self.beta == 0.0:
                raise ValueError(
                    "basket weights must be nonzero (payoff degenerates to one asset)"
                )
            return
        if min(self.strike, self.strike1, self.strike2) < 0.0:
            raise ValueError(f"{self.kind} strikes must be nonnegative")
        # pricing reads strike1 and strike2 only: strike must not say otherwise
        if "-on-" in self.kind and not self.strike == self.strike1 == self.strike2:
            raise ValueError(
                f"{self.kind} needs strike == strike1 == strike2, got {self.strike}, "
                f"{self.strike1} and {self.strike2}"
            )


def basket(alpha: float, beta: float, strike: float) -> PayoffSpec:
    """(alpha*X + beta*Y - K)^+; spreads are alpha/beta of opposite sign.

    Either coefficient sign is accepted and so are negative strikes (the
    curvature-measure support is where the line alpha*x + beta*y = K
    meets the truncated quadrant).
    """
    return PayoffSpec("basket", alpha=alpha, beta=beta, strike=strike)


def spread(strike: float) -> PayoffSpec:
    """(X - Y - K)^+."""
    return basket(1.0, -1.0, strike)


def _one_strike(kind: str, strike: float) -> PayoffSpec:
    return PayoffSpec(kind, strike=strike, strike1=strike, strike2=strike)


def call_on_min(strike: float) -> PayoffSpec:
    return _one_strike("call-on-min", strike)


def put_on_min(strike: float) -> PayoffSpec:
    return _one_strike("put-on-min", strike)


def call_on_max(strike: float) -> PayoffSpec:
    return _one_strike("call-on-max", strike)


def put_on_max(strike: float) -> PayoffSpec:
    return _one_strike("put-on-max", strike)


def worst_off_call(k1: float, k2: float) -> PayoffSpec:
    return PayoffSpec("worst-off-call", strike1=k1, strike2=k2)


def worst_off_put(k1: float, k2: float) -> PayoffSpec:
    return PayoffSpec("worst-off-put", strike1=k1, strike2=k2)


def best_off_call(k1: float, k2: float) -> PayoffSpec:
    return PayoffSpec("best-off-call", strike1=k1, strike2=k2)


def best_off_put(k1: float, k2: float) -> PayoffSpec:
    return PayoffSpec("best-off-put", strike1=k1, strike2=k2)


def payoff_value(p: PayoffSpec, x, y):
    """Vectorized payoff evaluation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if p.kind == "basket":
        return np.maximum(p.alpha * x + p.beta * y - p.strike, 0.0)
    s, ext = _MIN_MAX[p.kind]
    return np.maximum(ext(s * (x - p.strike1), s * (y - p.strike2)), 0.0)


def payoff_sign(p: PayoffSpec) -> int:
    """+1 for supermodular (2-increasing) payoffs, -1 for submodular.

    Note the puts: a put on the minimum decreases when dependence
    increases, a put on the maximum increases (second differences have
    the opposite signs of the corresponding calls).
    """
    if p.kind == "basket":
        return 1 if p.alpha * p.beta > 0 else -1
    return 1 if _MIN_MAX[p.kind][1] is np.minimum else -1


def _strike_candidates(p: PayoffSpec) -> list[float]:
    vals = []
    if p.kind == "basket":
        vals += [p.strike / p.alpha, p.strike / p.beta]
    vals += [p.strike, p.strike1, p.strike2, p.strike1 - p.strike2, p.strike2 - p.strike1]
    return [v for v in vals if np.isfinite(v) and v > 0.0]


def _edge_terms(payoffs, m: Marginal, on_x: bool) -> np.ndarray:
    """E[f(X, 0)] (``on_x``) or E[f(0, Y)] of each payoff, on one unit rule
    split at the CDF values of all their kinks; the quantile is evaluated
    once, and each payoff's values are checked on their own.  A check that
    fails raises QuadratureError naming the payoff and the marginal."""
    kinks = sorted({k for p in payoffs for k in _strike_candidates(p)})
    rule = unit_rule(breakpoints=m.cdf(np.asarray(kinks, dtype=float)))
    q = m.quantile_unchecked(rule.nodes)
    x, y = (q, 0.0) if on_x else (0.0, q)
    terms = []
    for p in payoffs:
        try:
            terms.append(rule.integrate_checked(lambda _: payoff_value(p, x, y)))
        except QuadratureError as exc:
            term = "E[f(X, 0)]" if on_x else "E[f(0, Y)]"
            raise QuadratureError(f"{term} of {p!r} under {m!r} is not finite: {exc}") from None
    return np.array(terms)


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
    if p.kind == "basket":
        # x = z / a, y = (K - z) / b: z lies in a*[0, cx] and in K - b*[0, cy]
        a, b, K = p.alpha, p.beta, p.strike
        (x_lo, x_hi), (y_lo, y_hi) = sorted((0.0, a * cx)), sorted((K, K - b * cy))
        return _Segment(max(x_lo, y_lo), min(x_hi, y_hi), 1.0 / a, 0.0, -1.0 / b, K / b, sign)
    # x = z, y = z + d, on the side of the strikes the payoff pays on
    s, _ = _MIN_MAX[p.kind]
    k1, d = p.strike1, p.strike2 - p.strike1
    lo, hi = (k1, min(cx, cy - d)) if s > 0 else (max(0.0, -d), min(k1, cx, cy - d))
    return _Segment(lo, hi, 1.0, 0.0, 1.0, d, sign)


def _segment_ends(segments) -> list[float]:
    """Both ends of each nonempty segment."""
    return [e for s in segments if s.hi > s.lo for e in (s.lo, s.hi)]


def _shared_path(segments) -> _Segment:
    """One path covering the union of segments that lie on the same line."""
    ends = _segment_ends(segments)
    return segments[0]._replace(lo=min(ends, default=0.0), hi=max(ends, default=0.0))


def _on_line(line, z):
    """``(x, y)`` at the points ``z`` of the line ``x = cx*z + dx``,
    ``y = cy*z + dy``, given as ``(cx, dx, cy, dy)``, clamped at 0."""
    cx, dx, cy, dy = line
    return np.maximum(cx * z + dx, 0.0), np.maximum(cy * z + dy, 0.0)


def _on_square(m_x: Marginal, m_y: Marginal, line, z):
    """``(F_X(x), F_Y(y))`` at the points ``z`` of ``line`` (``_on_line``)."""
    x, y = _on_line(line, z)
    return m_x.cdf(x), m_y.cdf(y)


def _tail_survival(m_x: Marginal, m_y: Marginal, line, far, z):
    """The survival bound s = min(1 - F_X(x), 1 - F_Y(y)) at the points
    ``z`` of ``line`` where x or y is at least its entry of ``far``, the
    marginal's quantile at 1 - 2 _TAIL_SURVIVAL, and 1 elsewhere.  Below
    that quantile a marginal's survival exceeds 2 _TAIL_SURVIVAL, so there
    s is not below _TAIL_SURVIVAL, which is all that the rule reads of it."""
    x, y = _on_line(line, z)
    at = (x >= far[0]) | (y >= far[1])
    s = np.ones_like(z)
    s[at] = 1.0 - np.maximum(m_x.cdf(x[at]), m_y.cdf(y[at]))
    return s


# Kinks of the Frechet bounds M and W: where a path's u = F_X(x(z)) crosses
# its v = F_Y(y(z)), or their sum crosses 1.
_FRECHET_KINKS = {
    "M": lambda u, v: u - v,
    "W": lambda u, v: u + v - 1.0,
}
# A grading split is left out where another break lies closer to it than
# this fraction of its offset (its distance from its kink): that break grades
# the panels already.  Chosen by measurement (README: Grading splits); it must
# stay below 3/4, or the envelopes' cusp splits, a factor 4 apart, would
# remove each other.
_GRADING_KEEP = 0.5


def _path_breaks(surfaces, m_x, m_y, paths, panels) -> list[np.ndarray]:
    """Breakpoints of each path's rule from the surfaces priced together,
    sorted: where the path crosses a kink of one of the surfaces, and
    splits that grade the panels next to some of them (README: Grading splits).

    Every path is split at the kinks of both Frechet surfaces, whatever is
    priced: W and M are kinked there, every envelope falls back to one of
    them, and copulas near W or M bend sharply there.  They are found by
    one ``refine_sign_changes`` call per bound for every path.  Each group
    of surfaces (``surface_groups``) declares its members' kinks and
    grading splits for all paths together, from probes at the edges of
    each path's ``panels`` uniform panels and at its Frechet kinks, where a
    kink of a surface that follows a Frechet bound can hide inside one
    panel.  A surface without a group declares no kinks.
    """
    lo, hi, *lines = np.array([p[:6] for p in paths], dtype=float).reshape(-1, 6).T

    def at(z, i):
        return _on_square(m_x, m_y, [c[i] for c in lines], z)

    frechet = {
        key: refine_sign_changes(lambda z, i, kink=kink: kink(*at(z, i)), lo, hi)
        for key, kink in _FRECHET_KINKS.items()
    }
    kinks, grading = list(frechet.values()), []
    groups = surface_groups(surfaces)
    if groups:
        probes = np.linspace(lo, hi, panels + 1, axis=-1)
        ends = _gathered(kinks, [], len(paths))
        most = max(b.size for b in ends)
        if most:  # each path's Frechet kinks, padded with its end
            padded = np.array([np.pad(b, (0, most - b.size), constant_values=h)
                               for b, h in zip(ends, hi)])
            probes = np.sort(np.hstack([probes, padded]), axis=-1)
        width = (hi - lo) / panels
    for group, _, keys in groups:
        group_kinks, group_grading = group.breaks(keys, at, probes, width, frechet)
        kinks += group_kinks
        grading += group_grading
    return _gathered(kinks, grading, len(paths))


def _gathered(kinks, grading, n) -> list[np.ndarray]:
    """The sorted breaks of each of the ``n`` paths: its roots among the
    ``(roots, rows)`` pairs ``kinks``, plus those of its grading splits
    ``(at, rows, offset)`` that no break lies within ``_GRADING_KEEP`` of
    their offset from, finer splits placed first.  Where the kinks of many
    levels crowd together, their breaks grade each other's panels, and the
    splits would only add nodes at which every level inverts.  Of two
    competing splits of equal offset the first listed is kept, so the order
    of ``grading``, the order in which the groups list their splits,
    reaches the nodes."""
    roots, rows = (np.concatenate(x) for x in zip(*kinks))
    at, at_rows, offset = (
        (np.concatenate(x) for x in zip(*grading)) if grading else np.empty((3, 0))
    )
    out = []
    for j in range(n):
        keep = list(roots[rows == j])
        mine = np.flatnonzero(at_rows == j)
        for i in mine[np.argsort(offset[mine], kind="stable")]:
            if np.min(np.abs(np.asarray(keep) - at[i])) > _GRADING_KEEP * offset[i]:
                keep.append(at[i])
        out.append(np.sort(np.asarray(keep, dtype=float)))
    return out


def _path_terms(segments, path, breaks, surfaces, m_x, m_y, panels, far):
    """Curvature terms, shape ``(len(segments), len(surfaces))``, of payoffs
    whose curvature ``segments`` lie on one line, covered by ``path``.

    One rule covers the path, split at the ends of the nonempty segments and
    at ``breaks``, the path's breakpoints from the surfaces' kinks.  Its
    uniform panels are merged where the path's survival bound
    s = min(1 - F_X(x), 1 - F_Y(y)) is below ``quadrature._TAIL_SURVIVAL``:
    every surface priced lies between W and M, and M - W <= s.  The bound is
    evaluated only where x or y reaches its entry of ``far``
    (``_tail_survival``).  Segment ends are panel edges, so each payoff's
    term is the exact partial sum over the nodes inside its own segment.
    Each surface is evaluated once on the rule's nodes, and the members of
    one group together.  The sums are einsum reductions: a BLAS product
    would wake a thread pool that spins on the other cores.
    """
    rule = interval_rule(
        path.lo, path.hi, panels, breakpoints=_segment_ends(segments) + breaks.tolist(),
        survival=lambda z: _tail_survival(m_x, m_y, path[2:6], far, z),
    )
    z = rule.nodes
    out = np.zeros((len(segments), len(surfaces)))
    if z.size:
        weights = np.array(
            [s.sign * np.where((z > s.lo) & (z < s.hi), rule.weights, 0.0) for s in segments]
        )
        u, v = _on_square(m_x, m_y, path[2:6], z)
        for j, c in enumerate(evaluate_surfaces(surfaces, u, v)):
            if not np.all(np.isfinite(c)):  # the clip would turn inf into a number
                raise QuadratureError(
                    f"surface {surfaces[j].name} is not finite at a pricing node"
                )
            out[:, j] = np.einsum("ij,j->i", weights, np.clip(1.0 - u - v + c, 0.0, 1.0))
    return out


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
    money-space path rules, merged in their far tails (``_path_terms``);
    the edge expectations of all payoffs share one graded unit rule per
    marginal.  The rules are split where the paths
    cross the kinks of the surfaces, all found together, and each surface
    is called once per rule.  Payoffs whose curvature lies on one line
    share one rule on it, split at the ends of their segments.  Equal
    payoffs are priced once and share their row's values; a surface listed
    more than once is priced once, and its columns are equal.  Raises
    ValueError unless ``panels`` is an integer >= 1, and QuadratureError on
    boundary-integrability violations and for a surface that is infinite or
    NaN at a pricing node.
    """
    if not isinstance(panels, (int, np.integer)) or panels < 1:
        raise ValueError(f"panels must be an integer >= 1, got {panels!r}")
    index = {}  # distinct payoff -> its row in out; equal payoffs share it
    rows = [index.setdefault(p, len(index)) for p in payoffs]
    payoffs = list(index)
    column = {}  # distinct surface -> its column in out; surfaces hash by identity
    cols = [column.setdefault(s, len(column)) for s in surfaces]
    surfaces = list(column)
    if not payoffs:
        return np.empty((0, len(cols)))
    out = np.empty((len(payoffs), len(surfaces)))
    by_line = {}  # (cx, dx, cy, dy) -> {payoff index: segment}
    for i, p in enumerate(payoffs):
        segment = _mu_segment(p, m_x, m_y)
        by_line.setdefault(segment[2:6], {})[i] = segment
    segments = [list(g.values()) for g in by_line.values()]
    paths = [_shared_path(s) for s in segments]
    far = [m.quantile_unchecked(1.0 - 2.0 * quadrature._TAIL_SURVIVAL) for m in (m_x, m_y)]
    for g, segs, path, breaks in zip(
        by_line.values(), segments, paths, _path_breaks(surfaces, m_x, m_y, paths, panels)
    ):
        out[list(g)] = _path_terms(segs, path, breaks, surfaces, m_x, m_y, panels, far)
    at_origin = np.array([float(payoff_value(p, 0.0, 0.0)) for p in payoffs])
    edges = _edge_terms(payoffs, m_x, True) + _edge_terms(payoffs, m_y, False) - at_origin
    return (out + edges[:, None])[np.ix_(rows, cols)]


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
