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

A functional's values at the Frechet bounds are fixed when it is built.
Inversion shrinks a bracket on the Frechet interval of each point onto
the edge of a monotone predicate (``quadrature.solve_brackets``, ITP
steps), so that flat segments resolve to the extreme root: the lower
map's largest root is the upper envelope, the upper map's smallest root
the lower one (``_SIDES``).  A point whose level is out of reach is
decided from the map at one bracket end, one map evaluation.  The
envelopes of one functional at several levels form a family: evaluating
any of its members on a set of points evaluates that bracket end once
per point and side, whatever the number of levels, decides every
level's saturated points from it, and inverts all the (level, point)
brackets still open in one batch, every bracket stopping at its own
tolerance.  The same bracket end tells where along a pricing path each
member starts to fall back to a Frechet bound, which is where it is
kinked; the family finds those kinks for all its levels from one set of
probes.  Nothing is kept between calls.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .constrained import one_point_lower, one_point_upper
from .marginals import Marginal
from .quadrature import (
    DEFAULT_EPS,
    DEFAULT_ORDER,
    QuadratureError,
    mapped_nodes,
    refine_roots,
    refine_sign_changes,
    solve_brackets,
    tanh_sinh_01,
    unit_rule,
)
from .surfaces import (
    FRECHET_LOWER,
    FRECHET_UPPER,
    CopulaSurface,
    check_unit_point,
    frechet_lower,
    frechet_upper,
    unit_square_args,
)

__all__ = [
    "LevelRangeError",
    "MonotoneFunctional",
    "SurfaceFunctional",
    "invert_lower",
    "invert_upper",
    "bound_surfaces_for_level",
    "bound_surfaces_for_levels",
]

_THETA_TOL = 1e-10
# theta lies in [0, 1], where doubles are about 2e-16 apart.
_THETA_TOL_MIN = 1e-15
# Tanh-sinh nodes per segment of the one-point maps.
_MAP_NODES = 49
# Lines of constant u tracing the kink curve, half as many anti paths (257
# probes each), and lines of constant u added around each turning point.
_TRACE_ROWS = 1001
_TURN_ROWS = 129
# Points per one-point-map call in the inversion.
_MAP_BLOCK = 512
# Sampled rectangles of the 2-increasing spot check.
_SPOT_CHECK_SAMPLES = 64


class LevelRangeError(ValueError):
    """Requested functional level is not attainable."""


class _RunningIntegral:
    """Antiderivative of the integrand along the support of M (the co path
    of shift 0) or, if ``anti``, of W (the anti path of shift 1), tabulated
    at the panel edges of the unit rule.

    Evaluating the running integral at an arbitrary point costs one table
    lookup plus the rule on the partial panel, so the two unshifted
    segments of the one-point maps become O(1) instead of a full quadrature
    per evaluation.  A total (the value at M or W) that is not finite, or a
    tail divergence (``Rule.check``), raises QuadratureError.
    """

    def __init__(self, func: "MonotoneFunctional", anti: bool):
        self.func = func
        self.shift = 1.0 if anti else 0.0
        self.anti = anti
        breaks = []
        if func._kink is not None:
            ends = np.zeros(1), np.ones(1), np.full(1, self.shift)
            breaks = np.ravel(func._kink.splits(*ends, anti))
        self.rule = unit_rule(breakpoints=breaks)
        vals = func._path_values(self.rule.nodes, self.shift, anti)
        sums = (self.rule.weights * vals).reshape(-1, DEFAULT_ORDER).sum(axis=-1)
        self.cum = np.concatenate([[0.0], np.cumsum(sums)])
        self.total = float(self.cum[-1])
        if not np.isfinite(self.total):
            name = "countermonotone" if anti else "comonotone"
            raise QuadratureError(f"functional value at the {name} copula is not finite")
        self.rule.check(vals, self.total)

    def __call__(self, t):
        panel, nodes, weights = self.rule.partial_panels(np.asarray(t, dtype=float))
        part = (weights * self.func._path_values(nodes, self.shift, self.anti)).sum(axis=-1)
        return self.cum[panel] + part


class _KinkCurve:
    """Where the shifted paths cross the payoff kink.

    The kink's zero set is traced once in the quantile plane as a curve
    w = c(u), by its zeros on fixed anti paths (which reach steep stretches
    too) and lines of constant u, more of these around each turning point.
    A co path w = u + s meets the curve where g = c - u equals s, an anti
    path w = s - u where g = c + u does, so at most once on each monotone
    piece of g: a segment's crossing on a piece is the sign change of the
    kink between the ends of its part of the piece, refined by
    ``refine_roots``.  No split is interpolated.
    """

    def __init__(self, func: "MonotoneFunctional"):
        self.func = func
        grid = np.linspace(DEFAULT_EPS, 1.0 - DEFAULT_EPS, _TRACE_ROWS)
        s = 2.0 * grid[::2]
        u_s, rows = refine_sign_changes(
            lambda u, i: func._path_values(u, s[i], True, func.kink),
            np.maximum(s - 1.0, 0.0) + DEFAULT_EPS, np.minimum(s, 1.0) - DEFAULT_EPS,
        )
        _check_crossings(np.bincount(rows).max(initial=0))
        u, c = self._with_lines(u_s, s[rows] - u_s, grid)
        if u.size < 2:
            raise QuadratureError("payoff kink does not change sign in the quantile square")
        turns = np.concatenate([_turning_rows(c - u), _turning_rows(c + u)])
        extra = np.linspace(u[turns - 1], u[turns + 1], _TURN_ROWS, axis=-1).ravel()
        u, c = self._with_lines(u, c, extra)
        self.pieces = {}
        for anti, g in ((False, c - u), (True, c + u)):
            cut = np.concatenate([[0], _turning_rows(g), [g.size - 1]])
            first, last = cut[:-1], cut[1:]
            g_lo, g_hi = np.sort([g[first], g[last]], axis=0)
            # A path crossing the most pieces has its shift at a piece end.
            ends = np.concatenate([g_lo, g_hi])[:, None]
            _check_crossings(np.max(np.sum((g_lo <= ends) & (ends <= g_hi), axis=1)))
            self.pieces[anti] = (u[first], u[last], g_lo, g_hi)

    def _with_lines(self, u, c, lines):
        """Samples ``(u, c)`` of the curve and its zeros on the lines of
        constant u at ``lines``, in increasing order of u."""
        x = self.func.m_x.quantile_unchecked(lines)
        roots, rows = refine_sign_changes(
            lambda w, i: self.func.kink(x[i], self.func.m_y.quantile_unchecked(w)),
            np.full(lines.size, DEFAULT_EPS), np.full(lines.size, 1.0 - DEFAULT_EPS),
        )
        most = np.bincount(rows).max(initial=0)
        if most > 1:
            raise QuadratureError(f"payoff kink changes sign {most} times along a line of constant u")
        u, c = np.concatenate([u, lines[rows]]), np.concatenate([c, roots])
        order = np.argsort(u, kind="stable")
        return u[order], c[order]

    def splits(self, lo, hi, shift, anti: bool):
        """``(m1, m2)`` with lo <= m1 <= m2 <= hi: the first two crossings of
        the segments [lo, hi] of the paths of ``shift`` with the kink, hi
        where there are fewer."""
        shape = lo.shape
        lo, hi, shift = (np.ravel(x) for x in (lo, hi, shift))
        p_lo, p_hi, g_lo, g_hi = self.pieces[anti]
        a, b = np.maximum(lo, p_lo[:, None]), np.minimum(hi, p_hi[:, None])
        k, j = np.nonzero((a < b) & (g_lo[:, None] <= shift) & (shift <= g_hi[:, None]))
        a, b, s = a[k, j], b[k, j], shift[j]
        on_path = lambda z, s: self.func._path_values(z, s, anti, self.func.kink)
        f_a, f_b = on_path(a, s), on_path(b, s)
        cross = f_a * f_b < 0
        s = s[cross]
        splits = np.repeat(hi[None], p_lo.size + 1, axis=0)
        splits[k[cross], j[cross]] = refine_roots(
            lambda z, i: on_path(z, s[i]), a[cross], b[cross], f_a[cross], f_b[cross]
        )
        splits.sort(axis=0)
        return splits[0].reshape(shape), splits[1].reshape(shape)


def _check_crossings(most) -> None:
    """Raise unless ``most``, the most kink crossings of any path, is <= 2."""
    if most > 2:
        raise QuadratureError(
            f"payoff kink changes sign {most} times along a shifted path; "
            "at most two roots per path are supported"
        )


def _turning_rows(g) -> np.ndarray:
    """Rows where the sampled ``g`` turns between rising and falling; a
    step at rounding level keeps the direction of the steps before it."""
    step = np.diff(g)
    sign = np.where(np.abs(step) > 1e-12, np.sign(step), 0.0)
    moves = np.flatnonzero(sign)
    return moves[1:][sign[moves[1:]] != sign[moves[:-1]]]


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
        payoffs); segments are split where they cross it.  In the quantile
        plane (u, w) = (F_X(x), F_Y(y)) its zero set must be a curve
        w = c(u), crossed at most once by each line of constant u and at
        most twice by each path w = u + s or w = s - u.  A kink that breaks
        this, or has no zero, raises QuadratureError at construction.

    The integrand is spot-checked for 2-increasingness on sampled
    rectangles at construction.

    Attributes ``value_comonotone`` and ``value_countermonotone``, the
    values at the Frechet bounds M and W, and ``level_slack``, the
    tolerance of level comparisons, are fixed at construction; a value
    at M or W that is not finite raises QuadratureError.
    """

    def __init__(
        self,
        integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
        m_x: Marginal,
        m_y: Marginal,
        *,
        kink: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ):
        self.integrand = integrand
        self.m_x = m_x
        self.m_y = m_y
        self.kink = kink
        # Inversion evaluates the maps tens of times per surface point: each
        # shifted segment, smooth once split at the kink, takes one small
        # tanh-sinh rule, and the unshifted ones read a running integral.
        self._t, self._w = tanh_sinh_01(_MAP_NODES)
        self._spot_check_two_increasing()
        self._kink = None if kink is None else _KinkCurve(self)
        self._diag = _RunningIntegral(self, anti=False)
        self._anti = _RunningIntegral(self, anti=True)
        self.value_comonotone = self._diag.total
        self.value_countermonotone = self._anti.total
        self.level_slack = _level_slack(self)

    def _spot_check_two_increasing(self) -> None:
        rng = np.random.default_rng(1871)
        u = np.sort(rng.uniform(0.02, 0.98, (_SPOT_CHECK_SAMPLES, 2)), axis=1)
        v = np.sort(rng.uniform(0.02, 0.98, (_SPOT_CHECK_SAMPLES, 2)), axis=1)
        x1, x2 = self.m_x.quantile_unchecked(u[:, 0]), self.m_x.quantile_unchecked(u[:, 1])
        y1, y2 = self.m_y.quantile_unchecked(v[:, 0]), self.m_y.quantile_unchecked(v[:, 1])
        f = self.integrand
        vol = f(x2, y2) + f(x1, y1) - f(x1, y2) - f(x2, y1)
        scale = max(1.0, float(np.max(np.abs(vol))))
        if np.any(vol < -1e-9 * scale):
            raise ValueError(
                "integrand is not 2-increasing on sampled rectangles; "
                "negate a 2-decreasing payoff (and its level) instead"
            )

    # -- quantile-space helpers ------------------------------------------

    def _path_values(self, u, shift, anti: bool, f=None) -> np.ndarray:
        """``f``, by default the integrand, at the points u of the co or anti
        paths of ``shift``."""
        lo, hi = DEFAULT_EPS, 1.0 - DEFAULT_EPS
        x = self.m_x.quantile_unchecked(np.clip(u, lo, hi))
        y = self.m_y.quantile_unchecked(np.clip(shift - u if anti else u + shift, lo, hi))
        return np.asarray((f or self.integrand)(x, y), dtype=float)

    def _plain_seg(self, lo, hi, shift, anti: bool) -> np.ndarray:
        """Mapped-rule integral over [lo, hi] of the path; the rule runs only
        on the nonempty intervals, the others are exact zeros."""
        out = np.zeros(lo.shape)
        live = hi > lo
        nodes, weights = mapped_nodes(self._t, self._w, lo[live], hi[live])
        vals = self._path_values(nodes, shift[live][..., None], anti)
        out[live] = (weights * vals).sum(axis=-1)
        return out

    def _seg(self, lo, hi, shift, anti: bool) -> np.ndarray:
        """Path integral over [lo, hi], split at the kink crossings; the
        pieces of a kinked functional take one stacked rule call."""
        lo, hi, shift = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (lo, hi, shift)))
        hi = np.maximum(hi, lo)
        if self._kink is None:
            return self._plain_seg(lo, hi, shift, anti)
        m1, m2 = self._kink.splits(lo, hi, shift, anti)
        pieces = np.stack([lo, m1, m2]), np.stack([m1, m2, hi]), np.stack([shift] * 3)
        return sum(self._plain_seg(*pieces, anti))

    def _one_point(self, run, ends, lo, hi, shift, anti: bool):
        """``run`` below ``ends[0]`` and above ``ends[1]`` plus the path
        integrals over the two shifted segments ``[lo[k], hi[k]]``: one
        running-integral lookup and one ``_seg`` call cover both of each."""
        at = run(np.stack(ends))
        seg = self._seg(np.stack(lo), np.stack(hi), np.stack(shift), anti)
        out = at[0] + (run.total - at[1]) + seg[0] + seg[1]
        return out if out.ndim else float(out)

    # -- the monotone maps -----------------------------------------------

    def at_one_point_upper(self, a, b, theta):
        """Functional value at the largest copula with C(a, b) = theta.

        Mass of that copula runs along the diagonal outside [theta, a+b-theta]
        and along two unit-slope segments through (a, b) inside, giving two
        running-integral differences plus two shifted segment integrals.
        """
        a, b, th = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, theta)))
        return self._one_point(
            self._diag, (th, a + b - th), (th, a), (a, a + b - th), (b - th, th - a), False
        )

    def at_one_point_lower(self, a, b, theta):
        """Functional value at the smallest copula with C(a, b) = theta."""
        a, b, th = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, theta)))
        return self._one_point(
            self._anti, (a - th, 1.0 - b + th),
            (a - th, a), (a, 1.0 - b + th), (a + b - th, 1.0 + th), True,
        )


class SurfaceFunctional:
    """Concordance-monotone functional given directly as a map on surfaces.

    The generic fallback when no expectation representation exists; the
    one-point maps evaluate the callable on freshly built bound copulas,
    one surface per point, so it is only suitable for cheap functionals
    or modest grids.  Its attributes are ``MonotoneFunctional``'s; a value
    at M or W that is not finite raises ValueError.
    """

    def __init__(self, fn: Callable[[CopulaSurface], float]):
        self.fn = fn
        self.value_comonotone = float(fn(FRECHET_UPPER))
        self.value_countermonotone = float(fn(FRECHET_LOWER))
        for bound, value in (("M", self.value_comonotone), ("W", self.value_countermonotone)):
            if not np.isfinite(value):
                raise ValueError(f"functional value at the Frechet bound {bound} is not finite: {value}")
        self.level_slack = _level_slack(self)

    def _map(self, builder, a, b, theta):
        a, b, th = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, theta)))
        flat = [self.fn(builder(*p)) for p in zip(a.ravel(), b.ravel(), th.ravel())]
        out = np.asarray(flat, dtype=float).reshape(a.shape)
        return out if out.ndim else float(out)

    def at_one_point_upper(self, a, b, theta):
        return self._map(one_point_upper, a, b, theta)

    def at_one_point_lower(self, a, b, theta):
        return self._map(one_point_lower, a, b, theta)


def _level_slack(functional) -> float:
    """Tolerance for level comparisons, relative to the attainable range."""
    return 1e-9 * max(1.0, abs(functional.value_comonotone - functional.value_countermonotone))


def check_theta_tol(theta_tol) -> None:
    """Raise ValueError unless ``theta_tol`` is a finite tolerance the
    inversion can reach: at least 1e-15, a few ulps of theta <= 1."""
    if not (np.isfinite(theta_tol) and theta_tol >= _THETA_TOL_MIN):
        raise ValueError(
            f"theta_tol must be finite and at least {_THETA_TOL_MIN:g}, got {theta_tol!r}"
        )


def _map_blocks(fmap, a, b, theta) -> np.ndarray:
    """``fmap`` at the points of same-shape ``a``, ``b``, ``theta``, flattened,
    in blocks of at most ``_MAP_BLOCK`` points: a map call holds several
    node arrays per point, so this bounds its memory whatever the number of
    levels inverted together."""
    a, b, theta = np.ravel(a), np.ravel(b), np.ravel(theta)
    out = np.empty(a.size)
    for s in range(0, a.size, _MAP_BLOCK):
        blk = slice(s, s + _MAP_BLOCK)
        out[blk] = fmap(a[blk], b[blk], theta[blk])
    return out


class _Side(NamedTuple):
    """One side of the inversion, keyed in ``_SIDES`` by the one-point map
    it inverts.  Its predicate holds left of the map's extreme root; out of
    the map's reach, the bracket closes on the saturation bound."""

    envelope: str  # the envelope whose values are the map's extreme roots
    map: Callable  # functional -> its one-point map
    saturation: Callable  # Frechet bound at the bracket end deciding saturation
    slack_sign: float  # the predicate's target is level + slack_sign * slack
    right: bool  # returns the bracket's right end, not its left
    strict: bool  # the predicate is map < target, not map <= target
    extreme: Callable  # Frechet bound the envelope follows at an end of the range
    value: Callable  # functional -> its value at ``extreme``


# The upper side comes first: it fixes the order of the pricing rules'
# grading splits (``pricing._gathered``).
_SIDES = {
    "upper": _Side("functional-lower", attrgetter("at_one_point_upper"), frechet_lower, -1.0,
                   True, True, frechet_upper, attrgetter("value_comonotone")),
    "lower": _Side("functional-upper", attrgetter("at_one_point_lower"), frechet_upper, 1.0,
                   False, False, frechet_lower, attrgetter("value_countermonotone")),
}


def _saturation_end(functional, a, b, side: _Side) -> np.ndarray:
    """The map of ``side`` at the end of the points' Frechet brackets that
    decides saturation.  It does not depend on the level."""
    return _map_blocks(side.map(functional), a, b, side.saturation(a, b)).reshape(np.shape(a))


def _invert_batch(functional, a, b, level, side: str, theta_tol: float):
    """Vectorized extreme-root inversion of the one-point maps.

    side='lower': largest theta with map_lower(theta) = level.
    side='upper': smallest theta with map_upper(theta) = level.

    ``level`` broadcasts against the points ``(a, b)``; shape ``(L, 1)``
    against points of shape ``(n,)`` inverts L levels at n points.
    Returns ``(theta, f_lo, f_hi)``: theta in the broadcast shape and the
    map at the bracket ends W(a, b) and M(a, b).  Where the level is out
    of reach, the bracket lands before any step on its end that decides
    saturation, the Frechet bound the envelope falls back to (``_SIDES``).
    The map there does not depend on the level, so it is evaluated once
    per point; then every (level, point) bracket still open takes its own
    steps in one ``solve_brackets`` call.
    """
    s = _SIDES[side]
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    target = np.asarray(level, dtype=float) + s.slack_sign * functional.level_slack
    # A saturated bracket closes on the end opposite the one it returns.
    end, other = _saturation_end(functional, a, b, s), s.value(functional)
    f_lo, f_hi = (end, other) if s.right else (other, end)
    shape = np.broadcast(a, target).shape
    a_flat, b_flat, t_flat = (np.broadcast_to(x, shape).ravel() for x in (a, b, target))
    left, right = solve_brackets(
        lambda th, i: _map_blocks(s.map(functional), a_flat[i], b_flat[i], th) - t_flat[i],
        frechet_lower(a, b), frechet_upper(a, b), f_lo - target, f_hi - target,
        theta_tol, strict=s.strict,
    )
    return (right if s.right else left), f_lo, f_hi


def _invert_point(functional, a, b, level, side: str, theta_tol) -> float:
    """The extreme root of the map of ``side`` at one point (a, b)."""
    check_theta_tol(theta_tol)
    check_unit_point(a, b)
    theta, f_lo, f_hi = _invert_batch(functional, a, b, level, side, theta_tol)
    slack = functional.level_slack
    if not f_lo - slack <= level <= f_hi + slack:
        raise LevelRangeError(f"level {level} unattainable by the {side} map at ({a}, {b})")
    return float(theta)


def invert_lower(functional, a: float, b: float, level: float, theta_tol: float = _THETA_TOL) -> float:
    """Largest theta in the Frechet interval at (a, b) whose smallest-copula
    functional value equals ``level``; flat segments give the right end.
    ValueError for (a, b) outside the unit square."""
    return _invert_point(functional, a, b, level, "lower", theta_tol)


def invert_upper(functional, a: float, b: float, level: float, theta_tol: float = _THETA_TOL) -> float:
    """Smallest theta whose largest-copula functional value equals ``level``;
    ValueError for (a, b) outside the unit square."""
    return _invert_point(functional, a, b, level, "upper", theta_tol)


def _levels_by_side(members):
    """``(side, record, levels)`` for each ``_SIDES`` entry whose envelope is
    named among the ``(name, level)`` pairs ``members``, with its distinct levels."""
    for side, record in _SIDES.items():
        levels = list(dict.fromkeys(lvl for nm, lvl in members if nm == record.envelope))
        if levels:
            yield side, record, levels


class _EnvelopeFamily:
    """The envelopes of one functional at several levels, evaluated together.

    Member surfaces carry ``(name, level, family)`` as their structure.
    """

    def __init__(self, functional, theta_tol: float):
        self.functional = functional
        self.theta_tol = theta_tol

    def values(self, u, v, members) -> list[np.ndarray]:
        """Values at ``(u, v)`` of the members named by ``(name, level)``
        pairs, in order; one inversion per side covers all their levels."""
        u, v = unit_square_args(u, v)
        ndim = np.broadcast(u, v).ndim
        found = {}
        for side, record, levels in _levels_by_side(members):
            theta, _, _ = _invert_batch(
                self.functional, u, v, np.reshape(levels, (-1,) + (1,) * ndim),
                side, self.theta_tol,
            )
            found.update(((record.envelope, lvl), val) for lvl, val in zip(levels, theta))
        return [found[m] for m in members]

    def extremes(self, members) -> list:
        """The Frechet bounds (``_SIDES``' ``extreme``), in the table's order,
        that members at an end of the attainable range follow up to the
        level slack: M for a lower envelope at the top, W for an upper
        envelope at the bottom."""
        f = self.functional
        return [s.extreme for s in _SIDES.values() if any(
            nm == s.envelope and s.slack_sign * lvl <= s.slack_sign * s.value(f) + f.level_slack
            for nm, lvl in members)]

    def kinks(self, members, at, probes):
        """Where the members named by ``(name, level)`` pairs are kinked
        along paths: where they start to fall back to a Frechet bound.

        ``at(z, rows)`` maps points ``z`` of the paths ``rows`` to the unit
        square, and ``probes`` holds increasing points of each path, one
        row per path.  A member is kinked where the map at the bracket end
        that decides saturation crosses the member's target (``_SIDES``).
        That map is level-free, so it is evaluated once per probe and side,
        whatever the number of levels; the sign changes between adjacent
        probes bracket every level's roots, which are refined in one
        ``refine_roots`` call per side.  Two roots between the same two
        probes are missed.

        Returns ``(roots, rows, sides)``: each root, its path row, and the
        side on which the member leaves its Frechet bound, +1 for larger z
        and -1 for smaller.
        """
        u, v = at(probes, np.arange(probes.shape[0])[:, None])
        found = []
        for _, record, levels in _levels_by_side(members):
            target = np.array(levels) + record.slack_sign * self.functional.level_slack
            g = _saturation_end(self.functional, u, v, record) - target[:, None, None]
            lv, rows, k = np.nonzero(np.sign(g[..., :-1]) * np.sign(g[..., 1:]) < 0)
            target, g_left, g_right = target[lv], g[lv, rows, k], g[lv, rows, k + 1]

            def gap(z, i):
                return _saturation_end(self.functional, *at(z, rows[i]), record) - target[i]

            roots = refine_roots(gap, probes[rows, k], probes[rows, k + 1], g_left, g_right)
            # A map saturates where its gap has the sign of -slack_sign (<= 0 for
            # the lower map, >= 0 for the upper); the member inverts on the other side.
            found.append((roots, rows, np.where(record.slack_sign * g_right > 0, 1.0, -1.0)))
        return tuple(np.concatenate(x) for x in zip(*found))


def envelope_families(surfaces) -> list:
    """``(family, positions, members)`` for each envelope family among
    ``surfaces``, told apart by the family object their structure ends
    with: the positions of its members in ``surfaces`` and their ``(name,
    level)`` pairs."""
    families = {}
    for j, s in enumerate(surfaces):
        family = s.structure[-1] if s.structure else None
        if isinstance(family, _EnvelopeFamily):
            positions, members = families.setdefault(family, ([], []))
            positions.append(j)
            members.append(s.structure[:2])
    return [(family, *found) for family, found in families.items()]


def evaluate_surfaces(surfaces, u, v) -> list:
    """``[s(u, v) for s in surfaces]``, except that the points are checked
    once (``unit_square_args``) and the members of one envelope family are
    evaluated together, by one call of the family."""
    u, v = unit_square_args(u, v)
    out = {}
    for family, positions, members in envelope_families(surfaces):
        out.update(zip(positions, family.values(u, v, members)))
    return [out[j] if j in out else s.fn(u, v) for j, s in enumerate(surfaces)]


def bound_surfaces_for_levels(
    functional, levels, theta_tol: float = _THETA_TOL
) -> list[tuple[CopulaSurface, CopulaSurface]]:
    """Pointwise envelopes of all copulas at which the functional equals
    each of ``levels``; one ``(lower, upper)`` pair per level, both tagged
    quasi-copula.

    At each point the upper envelope is the largest root of the lower
    map; where the level is out of that map's reach, the inversion's
    bracket lands on the comonotone bound (dually for the lower envelope).
    The envelopes need not be copulas, so price bounds derived from them
    are valid but not always sharp.  All pairs share one family (the last
    entry of their ``structure``): evaluating one member inverts all of its
    points in one batch, and ``evaluate_surfaces`` evaluates several
    members on the same points with one inversion per side, computing the
    level-free bracket end once per point.  Nothing is kept between calls.
    Raises LevelRangeError for a NaN level or one outside the attainable
    range beyond the slack, and ValueError for a ``theta_tol`` that is not
    finite or below 1e-15.
    """
    check_theta_tol(theta_tol)
    rho_w, rho_m = functional.value_countermonotone, functional.value_comonotone
    eps_r = functional.level_slack
    family = _EnvelopeFamily(functional, theta_tol)

    def member(name: str, level: float) -> CopulaSurface:
        def fn(u, v):
            return family.values(u, v, [(name, level)])[0]

        return CopulaSurface(
            fn, tag="quasi-copula", name=f"{name}(level={level:.6g})",
            structure=(name, level, family),
        )

    pairs = []
    for level in map(float, levels):
        if not rho_w - eps_r <= level <= rho_m + eps_r:
            raise LevelRangeError(
                f"level {level} outside the attainable range [{rho_w}, {rho_m}]"
            )
        level = min(max(level, rho_w), rho_m)
        pairs.append(tuple(member(s.envelope, level) for s in _SIDES.values()))
    return pairs


def bound_surfaces_for_level(
    functional, level: float, theta_tol: float = _THETA_TOL
) -> tuple[CopulaSurface, CopulaSurface]:
    """``(lower, upper)`` envelopes at one level: the one-level case of
    ``bound_surfaces_for_levels``."""
    return bound_surfaces_for_levels(functional, [level], theta_tol)[0]
