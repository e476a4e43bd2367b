"""Fixed-node quadrature rules and the bracketing root solvers.

Probability-space integrals over (0, 1) have integrands from quantile
transforms (slowly divergent derivatives at the endpoints); money-space
integrals run over truncated half-lines.  Composite Gauss-Legendre rules
split at breakpoints serve both: one fixed grid, graded toward 0 and 1, for
every unit-interval integral and uniform panels on money intervals, merged
in the far tails (``interval_rule``).  The one-point maps map one tanh-sinh rule on [0, 1] onto each short segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "QuadratureError",
    "Rule",
    "unit_rule",
    "interval_rule",
    "gauss_legendre_01",
    "tanh_sinh_01",
    "mapped_nodes",
    "solve_brackets",
    "refine_roots",
    "refine_sign_changes",
    "DEFAULT_PANELS",
    "DEFAULT_ORDER",
    "UNIT_PANELS",
    "DEFAULT_EPS",
]

DEFAULT_PANELS = 2001
DEFAULT_ORDER = 5
# Probability arguments are clipped to [EPS, 1-EPS]; the omitted tail mass
# is below 1e-9 in expectation for every shipped marginal family.
DEFAULT_EPS = 1e-12

# Panels of the graded unit grid, chosen by measurement (README: Unit grid).
UNIT_PANELS = 400
# Graded panels per decade: of the unit grid toward its ends, and of the
# merged tails of money rules.
_PER_DECADE = 6
# Survival bound below which money rules merge their uniform panels; the
# largest power of ten at which the default max-known outputs move by at
# most 1e-9 (README: Merged tails).
_TAIL_SURVIVAL = 1e-8


class QuadratureError(RuntimeError):
    """Integrand is non-finite or looks non-integrable at an endpoint."""


@lru_cache(maxsize=None)
def gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(order)
    return (t + 1.0) / 2.0, w / 2.0


def tanh_sinh_01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh nodes and weights on [0, 1] (Takahasi & Mori, Publ. RIMS
    1974): ``nodes`` equal steps in t on [-3.2, 3.2], where the end weights
    are about 1e-16, mapped through x = (1 + tanh(pi/2 sinh t)) / 2."""
    t = np.linspace(-3.2, 3.2, int(nodes))
    z = np.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-z))
    return x, (t[1] - t[0]) * np.pi * np.cosh(t) * x / (1.0 + np.exp(z))


@dataclass(frozen=True)
class Rule:
    """Fixed nodes and positive weights for one integral: DEFAULT_ORDER
    Gauss-Legendre nodes on each panel between adjacent ``edges``."""

    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray

    def integrate_checked(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integrate ``fn``, whose values broadcast to the nodes' shape, and
        raise QuadratureError as ``check`` does or for another shape."""
        vals = np.asarray(fn(self.nodes), dtype=float)
        try:
            vals = np.broadcast_to(vals, self.nodes.shape)
        except ValueError:
            raise QuadratureError(
                f"integrand values of shape {vals.shape} do not broadcast to the "
                f"nodes' shape {self.nodes.shape}"
            ) from None
        total = float(np.einsum("i,i->", self.weights, vals))  # no BLAS threads woken
        self.check(vals, total)
        return total

    def check(self, vals: np.ndarray, total: float) -> None:
        """Raise QuadratureError for non-finite ``vals`` (the integrand at the
        nodes) or, on unit rules, for a tail divergence of their ``total``."""
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand is non-finite at a quadrature node")
        # Convergent endpoint behaviour shows up as decade contributions that
        # shrink toward the endpoint; flat or growing decades mean divergence.
        contrib = self.weights * vals
        scale = max(1.0, abs(total))
        for dist in (self.nodes, 1.0 - self.nodes):
            near = dist < 1e-2
            if not np.any(near):
                continue
            decades = np.floor(-np.log10(np.maximum(dist[near], 1e-300))).astype(int)
            sums = np.bincount(decades, weights=contrib[near])
            mags = np.abs(sums[2:])
            mags = mags[mags > 1e-13 * scale]
            if mags.size >= 3 and mags[-1] >= 0.9 * mags[-2] >= 0.81 * mags[-3]:
                raise QuadratureError(
                    "integrand appears non-integrable near an endpoint "
                    f"(decade sums {mags[-3:]!r})"
                )

    def partial_panels(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(panel, nodes, weights)``: the panel holding each point ``t``,
        clipped to the edges, and its rule mapped onto the part of it left
        of the point."""
        t = np.clip(t, self.edges[0], self.edges[-1])
        panel = np.clip(np.searchsorted(self.edges, t, side="right") - 1, 0, self.edges.size - 2)
        return (panel, *mapped_nodes(*gauss_legendre_01(DEFAULT_ORDER), self.edges[panel], t))


def _unit_edges() -> np.ndarray:
    """Edges of UNIT_PANELS panels: _PER_DECADE per decade from 1e-2 down
    to DEFAULT_EPS toward each end, the rest uniform on [1e-2, 1 - 1e-2]."""
    graded = (int(np.ceil(-np.log10(DEFAULT_EPS))) - 2) * _PER_DECADE
    expo = np.linspace(2.0, -np.log10(DEFAULT_EPS), graded + 1)
    stack = 10.0 ** (-expo)  # 1e-2 ... DEFAULT_EPS, descending
    mid = np.linspace(1e-2, 1.0 - 1e-2, UNIT_PANELS - 2 * graded + 1)
    return np.unique(np.concatenate([stack[::-1], mid[1:-1], 1.0 - stack]))


def _rule(edges: np.ndarray, breakpoints: Iterable[float], lo: float, hi: float) -> Rule:
    """Rule on ``edges`` merged with the ``breakpoints`` strictly inside (lo, hi)."""
    b = np.asarray(list(breakpoints), dtype=float)
    if b.size:
        edges = np.unique(np.concatenate([edges, b[(b > lo) & (b < hi)]]))
    nodes, weights = mapped_nodes(*gauss_legendre_01(DEFAULT_ORDER), edges[:-1], edges[1:])
    return Rule(nodes.ravel(), weights.ravel(), edges)


def unit_rule(breakpoints: Iterable[float] = ()) -> Rule:
    """Rule on the graded unit grid on [DEFAULT_EPS, 1-DEFAULT_EPS] split at
    ``breakpoints``; built on every call, nothing is cached."""
    return _rule(_unit_edges(), breakpoints, DEFAULT_EPS, 1.0 - DEFAULT_EPS)


def _merged_tails(edges: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The ``edges`` kept where the bound ``s`` at them is below
    _TAIL_SURVIVAL: of each run of adjacent edges in one band of
    1/_PER_DECADE decade of ``s`` (s = 0 forms its own band), only the one
    where ``s`` is largest, nearest the bulk.  Every other edge is kept,
    and so are both ends."""
    tail = s < _TAIL_SURVIVAL
    with np.errstate(divide="ignore"):
        band = np.floor(_PER_DECADE * np.log10(s))  # -inf at s = 0
    same = tail[1:] & tail[:-1] & (band[1:] == band[:-1])  # edge k + 1 continues k's run
    first = np.flatnonzero(tail & ~np.concatenate([[False], same]))
    last = np.flatnonzero(tail & ~np.concatenate([same, [False]]))
    keep = ~tail
    keep[np.where(s[last] <= s[first], first, last)] = True
    keep[[0, -1]] = True
    return edges[keep]


def interval_rule(
    lo: float,
    hi: float,
    panels: int,
    breakpoints: Iterable[float],
    survival: Callable[[np.ndarray], np.ndarray],
) -> Rule:
    """Composite rule on [lo, hi]: ``panels`` uniform panels, split at
    breakpoints.

    ``survival(z)`` bounds at the uniform edges ``z`` how far apart the
    integrands priced on the rule can be.  Where it is below
    _TAIL_SURVIVAL the uniform panels are merged, so that at most one
    edge is kept per 1/_PER_DECADE decade of it (``_merged_tails``); a
    merged panel is never finer than a uniform one.  The breakpoints are
    added after the merge.
    """
    if not hi > lo:
        return _rule(np.empty(0), (), lo, hi)
    edges = np.linspace(lo, hi, int(panels) + 1)
    edges = _merged_tails(edges, np.asarray(survival(edges), dtype=float))
    return _rule(edges, breakpoints, lo, hi)


def mapped_nodes(
    t01: np.ndarray, w01: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Affine image of a unit rule on elementwise intervals [lo, hi].

    ``lo`` and ``hi`` broadcast; returns nodes and weights of shape
    ``lo.shape + t01.shape``.  Empty or inverted intervals get zero weights.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    span = np.maximum(hi - lo, 0.0)
    nodes = lo[..., None] + span[..., None] * t01
    weights = span[..., None] * w01
    return nodes, weights


# ITP constants (Oliveira & Takahashi, ACM TOMS 2020): kappa1 = _ITP_K1 / w0
# for a bracket of starting width w0, kappa2 = 2, n0 = 1.  Over kappa1 w0 in
# {0.05, 0.1, 0.2, 0.4, 0.8} and n0 in {0, 1, 2}, no setting took more than
# 5% fewer map evaluations in the functional inversions of the single-price
# and log-correlation sweeps; n0 = 1 allows one evaluation more than halving.
_ITP_K1 = 0.2
_ITP_N0 = 1
# Brackets within a few ulps of their ends' magnitude cannot shrink further.
_ULPS = 4
# Sign-change roots are refined to this fraction of their bracket's width.
_ROOT_REL_TOL = 2.0**-40
# Probe points per interval in refine_sign_changes, and intervals probed
# per call of the function, so that its probe grids stay at most 64 x 257
# points however many intervals are searched.
_SIGN_PROBES = 257
_SIGN_BLOCK = 64


def solve_brackets(g, left, right, g_left, g_right, tol, strict: bool = False):
    """Shrink each bracket ``[left, right]`` onto the edge of the set where
    ``g(x) <= 0`` holds (``g(x) < 0`` when ``strict``).

    The predicate must hold on a left part of each bracket and fail on the
    rest; ``g_left`` and ``g_right`` are ``g`` at the ends.  Brackets are
    decided from their end values first, at no cost: one whose predicate
    holds at its right end collapses onto that end, and one whose predicate
    fails at its left end collapses onto that end.  Every other bracket
    takes ITP steps until it is at most ``tol`` plus 4 ulps of its ends
    wide, which takes at most ``ceil(log2(w0 / tol)) + 1`` evaluations for a
    starting width ``w0``.  ``g(x, idx)`` evaluates ``g`` at one point ``x``
    of each unconverged bracket ``idx`` (flat indices into the broadcast
    inputs), so each bracket stops on its own.

    Returns the final ``(left, right)`` in the broadcast shape; the predicate
    holds at ``left`` and fails at ``right`` unless the two are equal.
    """
    arrays = np.broadcast_arrays(left, right, g_left, g_right, tol)
    shape = arrays[0].shape
    left, right, g_left, g_right, tol = (np.array(x, dtype=float).ravel() for x in arrays)
    holds = (lambda y: y < 0) if strict else (lambda y: y <= 0)
    at_right = holds(g_right)
    at_left = ~holds(g_left) & ~at_right
    left[at_right] = right[at_right]
    right[at_left] = left[at_left]
    stop = tol + _ULPS * np.spacing(np.maximum(np.abs(left), np.abs(right)))

    idx = np.flatnonzero(right - left > stop)
    a, b, ya, yb = left[idx], right[idx], g_left[idx], g_right[idx]
    tol, stop = tol[idx], stop[idx]
    k1 = _ITP_K1 / (b - a)
    n_max = np.ceil(np.log2((b - a) / tol)) + _ITP_N0
    step = 0
    while idx.size:
        w = b - a
        mid = a + 0.5 * w
        # A step leaves at most half the width plus r, and r shrinks so that
        # every bracket is within tol after n_max steps.
        r = np.maximum(tol * 2.0 ** (n_max - step - 1) - 0.5 * w, 0.0)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x_f = a - ya * w / (yb - ya)
        x_f = np.where(np.isfinite(x_f), x_f, mid)
        sigma = np.sign(mid - x_f)
        delta = k1 * w * w
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        x = np.where(np.abs(x_t - mid) <= r, x_t, mid - sigma * r)
        # Half the stopping width away from both ends: a bracket with one end
        # on the root then stops after one more step instead of creeping.
        x = np.clip(x, a + 0.5 * stop, b - 0.5 * stop)
        y = np.asarray(g(x, idx), dtype=float)
        ok = holds(y)
        a = np.where(ok, x, a)
        ya = np.where(ok, y, ya)
        b = np.where(ok, b, x)
        yb = np.where(ok, yb, y)
        left[idx] = a
        right[idx] = b
        keep = b - a > stop
        idx, a, b, ya, yb, tol, stop, k1, n_max = (
            v[keep] for v in (idx, a, b, ya, yb, tol, stop, k1, n_max)
        )
        step += 1
    return left.reshape(shape), right.reshape(shape)


def refine_roots(fn, left, right, f_left, f_right) -> np.ndarray:
    """Roots of ``fn`` in brackets ``[left, right]`` whose end values
    ``f_left`` and ``f_right`` have opposite signs, refined by
    ``solve_brackets`` to 2**-40 of each bracket's width; ``fn(x, idx)``
    evaluates at points ``x`` of the brackets ``idx``."""
    sign = np.sign(f_left)
    a, b = solve_brackets(
        lambda x, i: -sign[i] * np.asarray(fn(x, i), dtype=float),
        left, right, -np.abs(f_left), np.abs(f_right),
        _ROOT_REL_TOL * (right - left), strict=True,
    )
    return 0.5 * (a + b)


def refine_sign_changes(fn, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Roots of ``fn`` on each interval ``[lo[i], hi[i]]``, located by
    probing and refined by ``refine_roots``.

    ``lo`` and ``hi`` are scalars (one interval) or 1-d arrays; an interval
    with ``hi <= lo`` has no roots.  ``fn(z, rows)`` evaluates the function
    of interval ``rows`` at ``z`` (the two broadcast), so one call finds the
    roots of a whole family of functions.  Each interval is probed at
    ``np.linspace(lo[i], hi[i], 257)``, at most ``_SIGN_BLOCK`` intervals
    per call of ``fn``, and every bracket found is refined in one
    ``refine_roots`` call, so the roots of an interval do not depend on the
    other intervals.  Returns the roots and their interval indices, ordered
    by interval and then by root.

    Only sign changes between adjacent probe points are found; tangential
    roots are ignored, which is adequate for the CDF-crossing and payoff
    kink curves this is used on.
    """
    lo, hi = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (lo, hi))
    # Empty intervals stay out of the grid: one zero width would make
    # linspace build every row by another formula.
    live = np.flatnonzero(hi > lo)
    found = [(live[:0], *np.empty((4, 0)))]  # (rows, left, right, f_left, f_right)
    for start in range(0, live.size, _SIGN_BLOCK):
        block = live[start : start + _SIGN_BLOCK]
        grid = np.linspace(lo[block], hi[block], _SIGN_PROBES, axis=-1)
        vals = np.asarray(fn(grid, block[:, None]), dtype=float)
        sign = np.sign(vals)
        row, col = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
        found.append((block[row], grid[row, col], grid[row, col + 1],
                      vals[row, col], vals[row, col + 1]))
    rows, left, right, f_left, f_right = (np.concatenate(x) for x in zip(*found))
    if rows.size == 0:
        return np.empty(0), rows
    roots = refine_roots(lambda x, i: fn(x, rows[i]), left, right, f_left, f_right)
    return roots, rows
