"""Copula bounds from a known value of a concordance-monotone functional.

A functional ``rho`` on (quasi-)copulas that is nondecreasing for the
pointwise order and continuous under pointwise convergence constrains
the copula once its value ``r`` is known.  The pointwise envelopes of
``{C : rho(C) = r}`` evaluate by inverting the monotone maps

    theta -> rho(largest copula with C(u, v) = theta)
    theta -> rho(smallest copula with C(u, v) = theta)

at each point.  For expectation functionals ``rho(C) = E[f0(X, Y)]`` the
two maps reduce to four one-dimensional integrals along the singular
support of the one-point bound copulas; generic functionals evaluate on
the bound surfaces directly.

The integrand ``f0`` must be 2-increasing (this is spot-checked); for a
2-decreasing payoff pass its negative and negate the level, which leaves
the constrained set of copulas unchanged.

Inversion shrinks a bracket on the Frechet interval of each point onto
the edge of a monotone predicate (``quadrature.solve_brackets``, ITP
steps), so that flat segments resolve to the extreme root (largest for
the lower map, smallest for the upper map).  A point whose level is out
of reach is decided from the map at one bracket end and costs one map
evaluation.  Each call of a bound surface inverts its points in one batch,
every point stopping at its own tolerance, and keeps nothing between
calls.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .marginals import Marginal
from .quadrature import (
    DEFAULT_EPS,
    QuadratureError,
    gauss_legendre_01,
    mapped_nodes,
    refine_roots,
    refine_sign_changes,
    solve_brackets,
    unit_panel_edges,
    unit_rule,
)
from .surfaces import (
    FRECHET_LOWER,
    FRECHET_UPPER,
    CopulaSurface,
    frechet_lower,
    frechet_upper,
    one_point_lower,
    one_point_upper,
)

__all__ = [
    "LevelRangeError",
    "MonotoneFunctional",
    "SurfaceFunctional",
    "value_of",
    "invert_lower",
    "invert_upper",
    "bound_surfaces_for_level",
]

_THETA_TOL = 1e-10
# theta lies in [0, 1], where doubles are about 2e-16 apart.
_THETA_TOL_MIN = 1e-15
_SHIFT_TABLE_N = 2001
# Gauss-Legendre order per panel of the one-point maps' mapped rule.
_MAP_ORDER = 7


class LevelRangeError(ValueError):
    """Requested functional level is not attainable."""


class _RunningIntegral:
    """Antiderivative of the path integrand, tabulated at panel edges.

    Evaluating the running integral at an arbitrary point costs one table
    lookup plus a short Gauss-Legendre sum over the partial panel, so the
    two unshifted segments of the one-point maps become O(1) instead of a
    full quadrature per evaluation.
    """

    _PANELS = 400
    _TAIL_ORDER = 8

    def __init__(self, func: "MonotoneFunctional", shift: float, anti: bool):
        self.func = func
        self.shift = float(shift)
        self.anti = anti
        breaks: list[float] = []
        if func.kink is not None:
            breaks = refine_sign_changes(
                lambda u, _: func._kink_on_path(u, np.full_like(u, shift), anti),
                DEFAULT_EPS,
                1.0 - DEFAULT_EPS,
            )[0].tolist()
        edges = unit_panel_edges(self._PANELS, breakpoints=breaks)
        t, w = gauss_legendre_01(self._TAIL_ORDER)
        width = np.diff(edges)
        nodes = edges[:-1, None] + width[:, None] * t[None, :]
        vals = func._path_values(nodes, np.asarray(shift), anti)
        sums = (width[:, None] * w[None, :] * vals).sum(axis=-1)
        self.edges = edges
        self.cum = np.concatenate([[0.0], np.cumsum(sums)])
        self.total = float(self.cum[-1])
        self._t = t
        self._w = w

    def __call__(self, t):
        t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        idx = np.clip(
            np.searchsorted(self.edges, t, side="right") - 1, 0, self.edges.size - 2
        )
        lo = self.edges[idx]
        nodes, weights = mapped_nodes(self._t, self._w, lo, t)
        part = (weights * self.func._path_values(nodes, np.asarray(self.shift), self.anti)).sum(
            axis=-1
        )
        return self.cum[idx] + part


class _ShiftRootTable:
    """Roots of the payoff kink along a shifted path, tabulated over shifts.

    Splitting a segment at an approximate kink location is always valid
    (the integrand is continuous), so interpolation error here only
    perturbs where the panel boundary lands.  At most two roots per shift
    are tracked, and a kink with more sign changes along any path raises
    QuadratureError; shifts without a root give no split.
    """

    _PROBES = 129

    def __init__(self, func: "MonotoneFunctional", anti: bool):
        self.anti = anti
        lo, hi = (0.0, 2.0) if anti else (-1.0, 1.0)
        s = np.linspace(lo, hi, _SHIFT_TABLE_N)
        u = np.linspace(DEFAULT_EPS, 1.0 - DEFAULT_EPS, self._PROBES)
        d = func._kink_on_path(u[None, :], s[:, None], anti)
        sign = np.sign(d)
        change = sign[:, :-1] * sign[:, 1:] < 0
        most = int(change.sum(axis=1).max())
        if most > 2:
            raise QuadratureError(
                f"payoff kink changes sign {most} times along a shifted path; "
                "at most two roots per path are supported"
            )
        self.s = s
        # Shifted quantile curves can cross twice; refine the first and the
        # last bracket of each row (identical when there is one root).
        first = np.argmax(change, axis=1)
        last = change.shape[1] - 1 - np.argmax(change[:, ::-1], axis=1)
        rows = np.flatnonzero(change.any(axis=1))
        self.root1 = self._refine(func, u, d, rows, first[rows], s)
        self.root2 = self._refine(func, u, d, rows, last[rows], s)

    def _refine(self, func, u, d, rows, idx, s):
        """Kink root in probe bracket ``idx`` of each shift row in ``rows``;
        NaN for the rows without a sign change."""
        root = np.full(s.size, np.nan)
        root[rows] = refine_roots(
            lambda x, i: func._kink_on_path(x, s[rows[i]], self.anti),
            u[idx], u[idx + 1], d[rows, idx], d[rows, idx + 1],
        )
        return root

    def __call__(self, shift):
        shift = np.asarray(shift, dtype=float)
        r1 = np.interp(shift, self.s, self.root1)
        r2 = np.interp(shift, self.s, self.root2)
        r1 = np.where(np.isnan(r1), 0.0, r1)
        r2 = np.where(np.isnan(r2), 0.0, r2)
        return r1, np.maximum(r1, r2)


class MonotoneFunctional:
    """Expectation functional ``rho(C) = E[f0(X, Y)]`` of a 2-increasing
    integrand under fixed marginal laws.

    Parameters
    ----------
    integrand:
        Vectorized ``f0(x, y)``; must be 2-increasing.
    m_x, m_y:
        Marginal laws of the two risk factors.
    kink:
        Optional signed function whose zero set is the only curve where
        ``integrand`` is not smooth (for example ``x - y`` for spread-type
        payoffs).  Integration segments are split at its roots, of which
        each shifted path may cross at most two.
    panels:
        Panels of the mapped rule on the shifted segments.

    The integrand is spot-checked for 2-increasingness on sampled
    rectangles at construction.
    """

    def __init__(
        self,
        integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
        m_x: Marginal,
        m_y: Marginal,
        *,
        kink: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        panels: int = 28,
    ):
        self.integrand = integrand
        self.m_x = m_x
        self.m_y = m_y
        self.kink = kink
        # Inversion evaluates these integrals tens of times per surface
        # point, so the shifted segments use a small mapped rule: heavy
        # endpoint grading plus a high order per panel (segments are smooth
        # once kinks are split).  The two unshifted segments of each map
        # reduce to a precomputed running integral along the (anti)diagonal.
        rule = unit_rule(panels=panels, order=_MAP_ORDER, edge_per_decade=1)
        self._t = rule.nodes
        self._w = rule.weights
        self._rho_m: float | None = None
        self._rho_w: float | None = None
        self._spot_check_two_increasing()
        self._diag = _RunningIntegral(self, shift=0.0, anti=False)
        self._anti = _RunningIntegral(self, shift=1.0, anti=True)
        self._root_co = _ShiftRootTable(self, anti=False) if kink else None
        self._root_anti = _ShiftRootTable(self, anti=True) if kink else None

    def _spot_check_two_increasing(self, samples: int = 64) -> None:
        rng = np.random.default_rng(1871)
        u = np.sort(rng.uniform(0.02, 0.98, (samples, 2)), axis=1)
        v = np.sort(rng.uniform(0.02, 0.98, (samples, 2)), axis=1)
        x1, x2 = self.m_x.quantile(u[:, 0]), self.m_x.quantile(u[:, 1])
        y1, y2 = self.m_y.quantile(v[:, 0]), self.m_y.quantile(v[:, 1])
        f = self.integrand
        vol = f(x2, y2) + f(x1, y1) - f(x1, y2) - f(x2, y1)
        scale = max(1.0, float(np.max(np.abs(vol))))
        if np.any(vol < -1e-9 * scale):
            raise ValueError(
                "integrand is not 2-increasing on sampled rectangles; "
                "negate a 2-decreasing payoff (and its level) instead"
            )

    # -- quantile-space helpers ------------------------------------------

    def _xy(self, u: np.ndarray, yarg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = DEFAULT_EPS, 1.0 - DEFAULT_EPS
        x = self.m_x.quantile_unchecked(np.clip(u, lo, hi))
        y = self.m_y.quantile_unchecked(np.clip(yarg, lo, hi))
        return x, y

    def _path_values(self, u: np.ndarray, shift: np.ndarray, anti: bool) -> np.ndarray:
        yarg = shift - u if anti else u + shift
        x, y = self._xy(u, yarg)
        return np.asarray(self.integrand(x, y), dtype=float)

    def _kink_on_path(self, u: np.ndarray, shift: np.ndarray, anti: bool) -> np.ndarray:
        yarg = shift - u if anti else u + shift
        x, y = self._xy(u, yarg)
        return np.asarray(self.kink(x, y), dtype=float)

    def _plain_seg(self, lo, hi, shift, anti: bool) -> np.ndarray:
        nodes, weights = mapped_nodes(self._t, self._w, lo, hi)
        vals = self._path_values(nodes, np.asarray(shift)[..., None], anti)
        return (weights * vals).sum(axis=-1)

    def _seg(self, lo, hi, shift, anti: bool) -> np.ndarray:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        shift = np.asarray(shift, dtype=float)
        lo, hi, shift = np.broadcast_arrays(lo, hi, shift)
        hi = np.maximum(hi, lo)
        if self.kink is None:
            return self._plain_seg(lo, hi, shift, anti)
        table = self._root_anti if anti else self._root_co
        r1, r2 = table(shift)
        m1 = np.clip(r1, lo, hi)
        m2 = np.clip(r2, m1, hi)
        return (
            self._plain_seg(lo, m1, shift, anti)
            + self._plain_seg(m1, m2, shift, anti)
            + self._plain_seg(m2, hi, shift, anti)
        )

    # -- the monotone maps -----------------------------------------------

    def at_one_point_upper(self, a, b, theta):
        """Functional value at the largest copula with C(a, b) = theta.

        Mass of that copula runs along the diagonal outside [theta, a+b-theta]
        and along two unit-slope segments through (a, b) inside, giving two
        running-integral differences plus two shifted segment integrals.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        th = np.asarray(theta, dtype=float)
        out = (
            self._diag(th)
            + (self._diag.total - self._diag(a + b - th))
            + self._seg(th, a, b - th, False)
            + self._seg(a + 0.0 * th, a + b - th, th - a, False)
        )
        return out if out.ndim else float(out)

    def at_one_point_lower(self, a, b, theta):
        """Functional value at the smallest copula with C(a, b) = theta."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        th = np.asarray(theta, dtype=float)
        out = (
            self._anti(a - th)
            + (self._anti.total - self._anti(1.0 - b + th))
            + self._seg(a - th, a + 0.0 * th, a + b - th, True)
            + self._seg(a + 0.0 * th, 1.0 - b + th, 1.0 + th, True)
        )
        return out if out.ndim else float(out)

    @property
    def value_comonotone(self) -> float:
        """Functional value at the upper Frechet bound."""
        if self._rho_m is None:
            val = float(self._diag.total)
            if not np.isfinite(val):
                raise QuadratureError("functional value at the comonotone copula is not finite")
            self._rho_m = val
        return self._rho_m

    @property
    def value_countermonotone(self) -> float:
        """Functional value at the lower Frechet bound."""
        if self._rho_w is None:
            val = float(self._anti.total)
            if not np.isfinite(val):
                raise QuadratureError(
                    "functional value at the countermonotone copula is not finite"
                )
            self._rho_w = val
        return self._rho_w

    @property
    def level_slack(self) -> float:
        """Tolerance for level comparisons, relative to the attainable range."""
        return 1e-9 * max(1.0, abs(self.value_comonotone - self.value_countermonotone))

    def of(self, surface: CopulaSurface) -> float:
        """Functional value at a surface with a recognized structure.

        Supports the Frechet bounds, the product copula, and the one-point
        bound copulas (the cases needed by the inversion machinery); other
        copulas should be priced through the pricing representation.
        """
        return value_of(self, surface)


def value_of(functional, surface: CopulaSurface) -> float:
    """Dispatch ``functional`` over the structure of ``surface``."""
    s = surface.structure
    kind = s[0] if s else None
    if kind == "frechet-upper":
        return functional.value_comonotone
    if kind == "frechet-lower":
        return functional.value_countermonotone
    if kind == "one-point-upper":
        return float(functional.at_one_point_upper(s[1], s[2], s[3]))
    if kind == "one-point-lower":
        return float(functional.at_one_point_lower(s[1], s[2], s[3]))
    if kind == "product" and isinstance(functional, MonotoneFunctional):
        u = np.clip(functional._t, DEFAULT_EPS, 1 - DEFAULT_EPS)
        x = functional.m_x.quantile_unchecked(u)
        y = functional.m_y.quantile_unchecked(u)
        vals = np.asarray(functional.integrand(x[:, None], y[None, :]), dtype=float)
        return float(np.einsum("i,ij,j->", functional._w, vals, functional._w))
    raise ValueError(f"no one-dimensional reduction for surface {surface.name!r}")


class SurfaceFunctional:
    """Concordance-monotone functional given directly as a map on surfaces.

    The generic fallback when no expectation representation exists; the
    one-point maps evaluate the callable on freshly built bound copulas,
    one surface per point, so it is only suitable for cheap functionals
    or modest grids.
    """

    def __init__(self, fn: Callable[[CopulaSurface], float]):
        self.fn = fn
        self._rho_m: float | None = None
        self._rho_w: float | None = None

    def _map(self, builder, a, b, theta):
        a, b, th = np.broadcast_arrays(
            np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(theta, dtype=float)
        )
        flat = [
            self.fn(builder(ai, bi, ti))
            for ai, bi, ti in zip(a.ravel(), b.ravel(), th.ravel())
        ]
        out = np.asarray(flat, dtype=float).reshape(a.shape)
        return out if out.ndim else float(out)

    def at_one_point_upper(self, a, b, theta):
        return self._map(one_point_upper, a, b, theta)

    def at_one_point_lower(self, a, b, theta):
        return self._map(one_point_lower, a, b, theta)

    @property
    def value_comonotone(self) -> float:
        if self._rho_m is None:
            self._rho_m = float(self.fn(FRECHET_UPPER))
        return self._rho_m

    @property
    def value_countermonotone(self) -> float:
        if self._rho_w is None:
            self._rho_w = float(self.fn(FRECHET_LOWER))
        return self._rho_w

    @property
    def level_slack(self) -> float:
        return 1e-9 * max(1.0, abs(self.value_comonotone - self.value_countermonotone))

    def of(self, surface: CopulaSurface) -> float:
        return float(self.fn(surface))


def check_theta_tol(theta_tol) -> None:
    """Raise ValueError unless ``theta_tol`` is a finite tolerance the
    inversion can reach: at least 1e-15, a few ulps of theta <= 1."""
    if not (np.isfinite(theta_tol) and theta_tol >= _THETA_TOL_MIN):
        raise ValueError(
            f"theta_tol must be finite and at least {_THETA_TOL_MIN:g}, got {theta_tol!r}"
        )


def _invert_batch(functional, a, b, level, side: str, theta_tol: float):
    """Vectorized extreme-root inversion of the one-point maps.

    side='lower': largest theta with map_lower(theta) = level.
    side='upper': smallest theta with map_upper(theta) = level.

    Returns ``(theta, feasible, saturated)``.  ``feasible`` is the full
    bracket check for the scalar API; ``saturated`` marks points where
    the level exceeds what the map can reach there (the envelope falls
    back to the matching Frechet bound at those points).  Each point costs
    one map evaluation at a bracket end, plus the steps of its own bracket
    when the level is inside the map's range there.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    level = np.asarray(level, dtype=float)
    a, b, level = np.broadcast_arrays(a, b, level)
    lo = frechet_lower(a, b)
    hi = frechet_upper(a, b)
    eps_r = functional.level_slack
    # The lower map's copula at theta = W(a, b) is W and the upper map's at
    # theta = M(a, b) is M; only the other bracket end needs the map.
    if side == "lower":
        fmap = functional.at_one_point_lower
        f_lo = functional.value_countermonotone
        f_hi = np.asarray(fmap(a, b, hi), dtype=float)
        # map <= level + slack holds left of the rightmost root.
        target = level + eps_r
    elif side == "upper":
        fmap = functional.at_one_point_upper
        f_lo = np.asarray(fmap(a, b, lo), dtype=float)
        f_hi = functional.value_comonotone
        # map < level - slack holds left of the leftmost root.
        target = level - eps_r
    else:  # pragma: no cover
        raise ValueError(side)
    feasible = (level >= f_lo - eps_r) & (level <= f_hi + eps_r)
    saturated = (level > f_hi + eps_r) if side == "lower" else (level < f_lo - eps_r)

    a_flat, b_flat, t_flat = a.ravel(), b.ravel(), np.ravel(target)
    left, right = solve_brackets(
        lambda th, i: np.asarray(fmap(a_flat[i], b_flat[i], th), dtype=float) - t_flat[i],
        lo, hi, f_lo - target, f_hi - target, theta_tol, strict=side == "upper",
    )
    return (left if side == "lower" else right), feasible, saturated


def invert_lower(functional, a: float, b: float, level: float, theta_tol: float = _THETA_TOL) -> float:
    """Largest theta in the Frechet interval at (a, b) whose smallest-copula
    functional value equals ``level``; flat segments give the right end."""
    check_theta_tol(theta_tol)
    theta, feasible, _ = _invert_batch(functional, a, b, level, "lower", theta_tol)
    if not bool(np.all(feasible)):
        raise LevelRangeError(f"level {level} unattainable by the lower map at ({a}, {b})")
    return float(theta)


def invert_upper(functional, a: float, b: float, level: float, theta_tol: float = _THETA_TOL) -> float:
    """Smallest theta whose largest-copula functional value equals ``level``."""
    check_theta_tol(theta_tol)
    theta, feasible, _ = _invert_batch(functional, a, b, level, "upper", theta_tol)
    if not bool(np.all(feasible)):
        raise LevelRangeError(f"level {level} unattainable by the upper map at ({a}, {b})")
    return float(theta)


def bound_surfaces_for_level(
    functional, level: float, theta_tol: float = _THETA_TOL
) -> tuple[CopulaSurface, CopulaSurface]:
    """Pointwise envelopes of all copulas at which the functional equals
    ``level``; returns ``(lower, upper)``, both tagged quasi-copula.

    At each point the upper envelope is the inverted lower map where the
    level is reachable there and the comonotone bound otherwise (dually
    for the lower envelope).  The envelopes need not be copulas, so price
    bounds derived from them are valid but not always sharp.  Each call
    of an envelope inverts all of its points in one batch; nothing is kept
    between calls.  Raises ValueError for a ``theta_tol`` that is not
    finite or below 1e-15.
    """
    check_theta_tol(theta_tol)
    rho_w = functional.value_countermonotone
    rho_m = functional.value_comonotone
    eps_r = functional.level_slack
    level = float(level)
    if level < rho_w - eps_r or level > rho_m + eps_r:
        raise LevelRangeError(
            f"level {level} outside the attainable range [{rho_w}, {rho_m}]"
        )
    level = min(max(level, rho_w), rho_m)

    def make(side: str) -> CopulaSurface:
        def fn(u, v):
            theta, _, saturated = _invert_batch(functional, u, v, level, side, theta_tol)
            fallback = frechet_upper(u, v) if side == "lower" else frechet_lower(u, v)
            return np.where(saturated, fallback, theta)

        name = "functional-upper" if side == "lower" else "functional-lower"
        return CopulaSurface(
            fn, tag="quasi-copula", name=f"{name}(level={level:.6g})",
            structure=(name, level),
        )

    return make("upper"), make("lower")
