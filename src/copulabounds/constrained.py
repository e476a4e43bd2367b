"""Best-possible quasi-copula bounds from copula values on a point set.

Given the values of an unknown copula on a finite set of points, the
pointwise envelope of all quasi-copulas matching those values is
computable in closed form.  The upper envelope adds the one-sided
Lipschitz cone to each constraint and takes the minimum; the lower
envelope subtracts it and takes the maximum; the upper one is coded as
the lower one's image under negating a, b, theta, u and v.  When the point
set is decreasing the upper envelope is itself a copula (and hence sharp
for copulas too); when it is increasing the lower envelope is.

When the point set is a chain (increasing: every pair ordered the same
way in both coordinates), sorting it by (a, b) makes both coordinates
nondecreasing.  Two binary searches per point then split the constraints
into four index ranges, on each of which a term is a per-constraint key
plus a function of the point alone.  The best term is therefore among
three candidates: a prefix best, a suffix best, and the range best of
the one middle range that can be nonempty, read from a sparse table of
best indices.  Set-up is O(n log n) per envelope, and each point costs
two binary searches and three terms, computed with the same formula as
the direct path.  Other point sets use the direct formula, O(n) numpy
operations per point.  Construction checks a chain's pairs in O(n log n)
too, and other point sets pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .marginals import Marginal, read_csv_rows
from .surfaces import CopulaSurface, frechet_lower, frechet_upper

__all__ = [
    "ConstraintError",
    "ConstraintSet",
    "upper_bound",
    "lower_bound",
    "bounds_from_second_to_default",
    "bounds_from_max_options",
    "constraints_from_csv",
    "constraints_from_price_csv",
]

_TOL = 1e-12
# Entries per block of the pairwise compatibility check (8 bytes each).
_BLOCK_ELEMENTS = 1 << 17
# Points per block of an envelope evaluation: bounds its temporaries (about
# 130 bytes a point on a chain) and keeps them in cache.
_BLOCK_POINTS = 1 << 13


def _nondecreasing(x: np.ndarray) -> bool:
    return bool(np.all(x[1:] >= x[:-1]))


def _is_chain(a, b) -> bool:
    """Every pair satisfies (a_i - a_j)(b_i - b_j) >= 0: sorted by (a, b),
    b is nondecreasing."""
    return _nondecreasing(b[np.lexsort((b, a))])


class ConstraintError(ValueError):
    """Constraint values cannot come from any quasi-copula."""


def _worst_pair(a, b, t) -> tuple[float, int, int]:
    """Largest directed Lipschitz excess ``theta_j - theta_i - (a_j - a_i)^+
    - (b_j - b_i)^+`` over all ordered pairs (i, j), with its pair: the
    first in row-major order among those with the largest excess.  Checked
    in row blocks, so memory stays bounded."""
    worst, i, j = -np.inf, 0, 0
    rows = max(1, _BLOCK_ELEMENTS // max(a.size, 1))
    for r0 in range(0, a.size, rows):
        sl = slice(r0, r0 + rows)
        da = a[None, :] - a[sl, None]
        db = b[None, :] - b[sl, None]
        dt = t[None, :] - t[sl, None]
        excess = dt - np.maximum(da, 0.0) - np.maximum(db, 0.0)
        k = int(np.argmax(excess))
        if excess.flat[k] > worst:
            worst = excess.flat[k]
            i, j = r0 + k // a.size, k % a.size
    return float(worst), i, j


def _chain_excess(a, b, t) -> float | None:
    """Largest excess over all ordered pairs of a chain in one running
    extremum pass, or None when the points are not a chain.

    Sorted by (a, b), an increasing chain has both coordinates
    nondecreasing, so for i before j the excess of (i, j) is F_j - F_i with
    F = theta - a - b, and that of (j, i) is G_i - G_j with G = theta.
    Sorted by (a, -b), a decreasing chain has F = theta - a and
    G = theta - b.  A pair of a point with itself has excess 0.
    """
    for sign in (1.0, -1.0):
        order = np.lexsort((sign * b, a))
        if _nondecreasing(sign * b[order]):
            aa, bb, tt = a[order], b[order], t[order]
            f = tt - aa - bb if sign > 0 else tt - aa
            g = tt if sign > 0 else tt - bb
            forward = f[1:] - np.minimum.accumulate(f[:-1])
            reverse = np.maximum.accumulate(g[:-1]) - g[1:]
            return float(max(0.0, forward.max(initial=0.0), reverse.max(initial=0.0)))
    return None


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Finite set of (a, b, theta) point constraints on a copula.

    Construction, direct or through ``from_points``, stores a, b and theta
    as 1-d float arrays of one length.  It verifies that each value
    respects the Frechet bounds at its point and that every pair satisfies
    the directed Lipschitz inequality
    ``theta_j - theta_i <= (a_j - a_i)^+ + (b_j - b_i)^+``, which is
    exactly quasi-copula compatibility for point data.
    Inconsistent data is rejected, never projected.  The arrays are
    read-only, so the checked data cannot change; sets compare and hash by
    identity.
    """

    a: np.ndarray
    b: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        a, b, t = (np.array(c, dtype=float) for c in (self.a, self.b, self.theta))
        if not (a.ndim == b.ndim == t.ndim == 1 and a.size == b.size == t.size):
            raise ConstraintError("a, b and theta must be 1-d arrays of one length")
        for name, col in (("a", a), ("b", b), ("theta", t)):
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(t))):
            raise ConstraintError("constraints must be finite")
        if np.any(a < 0) or np.any(a > 1) or np.any(b < 0) or np.any(b > 1):
            raise ConstraintError("constraint points must lie in the unit square")
        lo = frechet_lower(a, b)
        hi = frechet_upper(a, b)
        bad = (t < lo - _TOL) | (t > hi + _TOL)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ConstraintError(
                f"constraint {i}: value {t[i]} at ({a[i]}, {b[i]}) outside "
                f"Frechet bounds [{lo[i]}, {hi[i]}]"
            )
        # A chain is checked in O(n log n); the pairwise check then runs only
        # to name the worst pair of a set that fails.
        worst = _chain_excess(a, b, t)
        if worst is not None and worst <= _TOL:
            return
        worst, i, j = _worst_pair(a, b, t)
        if worst > _TOL:
            raise ConstraintError(
                f"constraints {i} and {j} are incompatible: no quasi-copula takes "
                f"value {t[i]} at ({a[i]}, {b[i]}) and {t[j]} at ({a[j]}, {b[j]})"
            )

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float, float]]) -> "ConstraintSet":
        pts = [(float(a), float(b), float(t)) for a, b, t in points]
        return cls(*np.reshape(pts, (-1, 3)).T)

    def __len__(self) -> int:
        return int(self.a.size)

    @property
    def is_increasing(self) -> bool:
        """Every pair satisfies (a_i - a_j)(b_i - b_j) >= 0."""
        return _is_chain(self.a, self.b)

    @property
    def is_decreasing(self) -> bool:
        """Every pair satisfies (a_i - a_j)(b_i - b_j) <= 0: (a, -b) is a chain."""
        return _is_chain(self.a, -self.b)


def _as_constraints(constraints) -> ConstraintSet:
    if isinstance(constraints, ConstraintSet):
        return constraints
    return ConstraintSet.from_points(constraints)


def _lower_term(t, a, b, u, v):
    return t - np.maximum(a - u, 0.0) - np.maximum(b - v, 0.0)


def _in_blocks(block, u, v):
    """``block`` on the broadcast points ``(u, v)``, ``_BLOCK_POINTS`` at a time."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    out = np.empty(u.shape)
    flat, u, v = out.reshape(-1), u.ravel(), v.ravel()
    for p in range(0, flat.size, _BLOCK_POINTS):
        sl = slice(p, p + _BLOCK_POINTS)
        flat[sl] = block(u[sl], v[sl])
    return out


def _direct_envelope(a, b, t, bound):
    """The lower envelope by its definition: the largest of ``bound`` and
    every constraint's term, one constraint at a time."""

    def block(u, v):
        out = bound(u, v)
        for ak, bk, tk in zip(a, b, t):
            out = np.maximum(out, _lower_term(tk, ak, bk, u, v))
        return out

    return block


class _RangeBest:
    """Index of the largest key over index ranges of the rows of ``keys``
    (m x n), from a sparse table of best indices: entry [r, k, p] is the
    index of the largest key in ``keys[r, p:p + 2**k]``, the earliest on
    ties (entries with p > n - 2**k are unused).  O(n log n) to build; a
    range query reads two overlapping power-of-two windows."""

    def __init__(self, keys: np.ndarray):
        m, n = keys.shape
        levels = [np.tile(np.arange(n), (m, 1))]
        w = 1
        while 2 * w <= n:
            prev = levels[-1]
            left, right = prev[:, : n - w], prev[:, w:]
            take = np.take_along_axis(keys, right, 1) > np.take_along_axis(keys, left, 1)
            level = prev.copy()
            level[:, : n - w] = np.where(take, right, left)
            levels.append(level)
            w *= 2
        # flat storage: one gather per lookup instead of a multi-index one
        self.table = np.stack(levels, axis=1).ravel()  # [r, k, p] at (r * depth + k) * n + p
        self.keys = keys.ravel()  # [r, p] at r * n + p
        self.n, self.depth = n, len(levels)
        # floor(log2(length)) and 2**floor(log2(length)) for lengths 1..n
        self.log2 = np.frexp(np.arange(n + 1))[1] - 1
        self.pow2 = 1 << np.maximum(self.log2, 0)

    def __call__(self, row, lo, hi) -> np.ndarray:
        """Best index in ``keys[row, lo:hi]``; any index where the range is empty."""
        n = self.n
        start = np.minimum(lo, n - 1)
        length = np.maximum(hi - lo, 1)
        window = (row * self.depth + self.log2[length]) * n + start
        c1 = self.table[window]
        c2 = self.table[window + length - self.pow2[length]]
        return np.where(self.keys[row * n + c2] > self.keys[row * n + c1], c2, c1)


def _chain_envelope(a, b, t, bound):
    """The lower envelope of a chain, equal to ``_direct_envelope``.

    Sorted by (a, b), a chain has both coordinates nondecreasing, so with
    i = #{a_k <= u} and j = #{b_k <= v} each term is a key plus a function
    of (u, v) on index range r: t on k < min(i, j), t - a on i <= k < j,
    t - b on j <= k < i and t - a - b on k >= max(i, j).  (A constraint
    with a_k = u or b_k = v has the same term in either neighbouring
    range.)  Each point evaluates the term on the best index of each
    nonempty range.
    """
    order = np.lexsort((b, a))
    a, b, t = a[order], b[order], t[order]
    n = a.size
    best_in = _RangeBest(np.stack((t, t - a, t - b, t - a - b)))
    every = np.arange(n)
    prefix = best_in(0, np.zeros(n, dtype=int), every + 1)
    suffix = best_in(3, every, np.full(n, n))

    def block(u, v):
        out = bound(u, v)
        i = np.searchsorted(a, u, side="right")
        j = np.searchsorted(b, v, side="right")
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        middle = best_in(1 + (j < i), lo, hi)
        for k, nonempty in (
            (prefix[lo - 1], lo > 0),
            (middle, lo < hi),
            (suffix[np.minimum(hi, n - 1)], hi < n),
        ):
            np.maximum(out, _lower_term(t[k], a[k], b[k], u, v), out=out, where=nonempty)
        return out

    return block


def _envelope(a, b, t, bound):
    """The lower envelope from the start value ``bound``, on one block of
    flat points: ``_chain_envelope`` for a nonempty chain,
    ``_direct_envelope`` otherwise."""
    if a.size and _is_chain(a, b):
        return _chain_envelope(a, b, t, bound)
    return _direct_envelope(a, b, t, bound)


def upper_bound(constraints) -> CopulaSurface:
    """Pointwise largest quasi-copula matching the constraint values.

    A copula (tagged ``known-copula``) when the point set is decreasing;
    in general only a quasi-copula.
    """
    cs = _as_constraints(constraints)
    # The lower envelope of the negated data from -M = max(-u, -v), at (-u, -v),
    # negated: its terms are t + (u - a)^+ + (v - b)^+ bit for bit.
    lower = _envelope(-cs.a, -cs.b, -cs.theta, np.maximum)
    fn = partial(_in_blocks, lambda u, v: -lower(-u, -v))
    tag = "known-copula" if cs.is_decreasing else "quasi-copula"
    return CopulaSurface(
        fn, tag=tag, name=f"constrained-upper(n={len(cs)})", structure=("point-set-upper", cs)
    )


def lower_bound(constraints) -> CopulaSurface:
    """Pointwise smallest quasi-copula matching the constraint values.

    A copula (tagged ``known-copula``) when the point set is increasing.
    """
    cs = _as_constraints(constraints)
    fn = partial(_in_blocks, _envelope(cs.a, cs.b, cs.theta, frechet_lower))
    tag = "known-copula" if cs.is_increasing else "quasi-copula"
    return CopulaSurface(
        fn, tag=tag, name=f"constrained-lower(n={len(cs)})", structure=("point-set-lower", cs)
    )


def bounds_from_second_to_default(
    prices: Sequence[tuple[float, float]], m_x: Marginal, m_y: Marginal
) -> tuple[CopulaSurface, CopulaSurface]:
    """Bound surfaces from digital both-default prices at known maturities.

    Each quote (T_k, P_k) pins the copula at (F_X(T_k), F_Y(T_k)) to P_k.
    The induced point set is increasing (CDFs are nondecreasing in T), so
    the lower bound is a copula and the price bound it yields is sharp.
    Returns ``(lower, upper)``.
    """
    pts = [
        (float(m_x.cdf(T)), float(m_y.cdf(T)), float(P)) for T, P in prices
    ]
    cs = ConstraintSet.from_points(pts)
    return lower_bound(cs), upper_bound(cs)


def bounds_from_max_options(
    curve: Callable[[np.ndarray], np.ndarray],
    m_x: Marginal,
    m_y: Marginal,
    strike_grid: Sequence[float],
) -> tuple[CopulaSurface, CopulaSurface]:
    """Bound surfaces from the joint CDF diagonal K -> F(K, K).

    Prices of options on the maximum (or minimum) of the two assets at all
    strikes determine F(K, K); sampling that curve on ``strike_grid`` pins
    the copula on the increasing set (F_X(K), F_Y(K)).  ``curve`` is
    called once, on the whole strike array, and must return the array of
    F(K, K) values; the marginal CDFs are evaluated once on the same
    array.  Returns ``(lower, upper)`` with the lower bound a copula.
    """
    strikes = np.asarray(strike_grid, dtype=float)
    theta = np.broadcast_to(np.asarray(curve(strikes), dtype=float), strikes.shape)
    cs = ConstraintSet.from_points(zip(m_x.cdf(strikes), m_y.cdf(strikes), theta))
    return lower_bound(cs), upper_bound(cs)


def constraints_from_csv(path) -> ConstraintSet:
    """Read an ``a,b,theta`` CSV into a ConstraintSet; malformed files raise
    ValueError as in ``marginals.read_csv_rows``."""
    return ConstraintSet.from_points(read_csv_rows(path, [("a", "b", "theta")])[1])


def constraints_from_price_csv(path, m_x: Marginal, m_y: Marginal) -> ConstraintSet:
    """Read a ``T,price`` CSV of both-default quotes into a ConstraintSet;
    malformed files raise ValueError as in ``marginals.read_csv_rows``."""
    rows = read_csv_rows(path, [("T", "price")])[1]
    return ConstraintSet.from_points(
        (float(m_x.cdf(T)), float(m_y.cdf(T)), P) for T, P in rows
    )
