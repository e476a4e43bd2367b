"""Best-possible quasi-copula bounds from copula values on a point set.

Given the values of an unknown copula on a finite set of points, the
pointwise envelope of all quasi-copulas matching those values is
computable in closed form: the largest of W and each constraint less
the one-sided Lipschitz cone, and the smallest of M and each constraint
plus the cone.  The upper terms are the lower ones' image under negating
a, b, theta, u and v.  A set builds its lower terms once, which its
check and ``lower_bound`` read; W or M is applied last.  When the point
set is decreasing the upper envelope is itself a copula (and hence sharp
for copulas too); when it is increasing the lower envelope is.

When the point set is a chain (increasing: every pair ordered the same
way in both coordinates), sorting it by (a, b) makes both coordinates
nondecreasing.  Two binary searches per point then split the constraints
into four index ranges, on each of which the sign of every clamp is
fixed and a term is a per-constraint key plus a function of the point
alone.  The best term is therefore among three candidates: a prefix
best, read from a table of running maxima, a suffix best, read from a
table of best constraints, and the range best of the one middle range
that can be nonempty, read from a sparse table of best indices.  Set-up
is O(n log n) per side, built with the set or by ``upper_bound``.  Each
point costs two binary searches; the two table lookups and the range
query are made once per run of consecutive points that fall in the same
ranges, and each candidate costs at most three subtractions.  Other
point sets use the direct formula, O(n) numpy operations per point.
Construction checks every pair by evaluating the lower terms at the
data, so in O(n log n) on an increasing set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .marginals import Marginal, read_csv_rows
from .surfaces import CopulaSurface, frechet_lower, frechet_upper, in_blocks

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
# Points per block of an envelope evaluation: bounds its temporaries and
# keeps them in cache.  On a chain they and the block's output peak at about
# 31 bytes a point on pricing-path nodes, and at 121 where no two
# consecutive points share a run (README: Block sizes).
_BLOCK_POINTS = 1 << 13


def _is_chain(a, b) -> bool:
    """Every pair satisfies (a_i - a_j)(b_i - b_j) >= 0: sorted by (a, b),
    b is nondecreasing."""
    b = b[np.lexsort((b, a))]
    return bool(np.all(b[1:] >= b[:-1]))


class ConstraintError(ValueError):
    """Constraint values cannot come from any quasi-copula."""


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Finite set of (a, b, theta) point constraints on a copula.

    Construction, direct or through ``from_points``, stores a, b and theta
    as 1-d float arrays of one length, and decides once whether the set is
    increasing (every pair satisfies (a_i - a_j)(b_i - b_j) >= 0) and
    whether it is decreasing (<= 0).  It verifies that each value respects
    the Frechet bounds at its point and that every pair satisfies the
    directed Lipschitz inequality
    ``theta_j - theta_i <= (a_j - a_i)^+ + (b_j - b_i)^+``, which is
    exactly quasi-copula compatibility for point data.  The set builds
    its lower terms (the largest constraint term, before W) once.  The
    largest excess over the pairs (i, j) with i fixed is those terms at
    (a_i, b_i), less theta_i, so one evaluation at the data checks every
    pair, in O(n log n) on an increasing set; ``lower_bound`` clips the
    same terms at W.  Inconsistent data is rejected, never projected.
    The arrays are read-only, so the checked data cannot change; sets
    compare and hash by identity, and a loaded pickle is checked again.
    """

    a: np.ndarray
    b: np.ndarray
    theta: np.ndarray
    is_increasing: bool = field(init=False)
    is_decreasing: bool = field(init=False)
    _terms: Callable = field(init=False, repr=False)

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
        object.__setattr__(self, "is_increasing", _is_chain(a, b))
        object.__setattr__(self, "is_decreasing", _is_chain(a, -b))
        lo = frechet_lower(a, b)
        hi = frechet_upper(a, b)
        bad = (t < lo - _TOL) | (t > hi + _TOL)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ConstraintError(
                f"constraint {i}: value {t[i]} at ({a[i]}, {b[i]}) outside "
                f"Frechet bounds [{lo[i]}, {hi[i]}]"
            )
        object.__setattr__(self, "_terms", _envelope(a, b, t, self.is_increasing))
        excess = in_blocks(self._terms, _BLOCK_POINTS, a, b) - t
        if np.any(excess > _TOL):
            # the worst pair, first in row-major order
            i = int(np.argmax(excess))
            j = int(np.argmax(_lower_term(t, a, b, a[i], b[i])))
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

    def __reduce__(self):
        # a loaded set is checked again, and builds its own terms
        return ConstraintSet, (self.a, self.b, self.theta)


def _as_constraints(constraints) -> ConstraintSet:
    if isinstance(constraints, ConstraintSet):
        return constraints
    return ConstraintSet.from_points(constraints)


def _lower_term(t, a, b, u, v):
    return t - np.maximum(a - u, 0.0) - np.maximum(b - v, 0.0)


def _direct_envelope(a, b, t):
    """The lower terms by their definition: the largest constraint term,
    one constraint at a time."""

    def block(u, v):
        out = np.full(u.shape, -np.inf)
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


def _chain_envelope(a, b, t):
    """The lower terms of a chain, equal to ``_direct_envelope``.

    Sorted by (a, b), a chain has both coordinates nondecreasing, so with
    i = #{a_k <= u} and j = #{b_k <= v} the sign of every clamp in the
    term ``t - (a - u)^+ - (b - v)^+`` is fixed on each of four index
    ranges, and the term is t on k < min(i, j), t - (a - u) on
    i <= k < j, t - (b - v) on j <= k < i and t - (a - u) - (b - v) on
    k >= max(i, j).  A clamp that is zero leaves the term's bits as they
    are, so these are the term's values.  (A constraint with a_k = u or
    b_k = v has the same term in either neighbouring range.)  On each
    range the best term is at the best index of a per-constraint key: the
    running maximum of t on the prefix range, a suffix table of the best
    (t, a, b) on the suffix range, and a sparse-table range query on the
    middle one.  All three depend on the point only through (i, j), so
    they are read once per run of consecutive points with equal (i, j) and
    repeated over the run.
    """
    order = np.lexsort((b, a))
    a, b, t = a[order], b[order], t[order]
    n = a.size
    best_in = _RangeBest(np.stack((t - a, t - b, t - a - b)))
    # Tables indexed by min(i, j) and max(i, j); the entries at 0 and at n
    # stand for an empty range, whose term is -inf.
    prefix_t = np.concatenate(([-np.inf], np.maximum.accumulate(t)))
    suffix = best_in(2, np.arange(n), np.full(n, n))
    suffix_t = np.append(t[suffix], -np.inf)
    suffix_a = np.append(a[suffix], 0.0)
    suffix_b = np.append(b[suffix], 0.0)
    middle_c = np.concatenate((a, b))  # the clamped coordinate of row r at r * n + k

    def block(u, v):
        # (i, j) as one key i * (n + 1) + j, and where its runs start
        ij = np.searchsorted(a, u, side="right")
        ij *= n + 1
        ij += np.searchsorted(b, v, side="right")
        starts = np.flatnonzero(ij[1:] != ij[:-1])
        starts += 1
        starts = np.concatenate(([0], starts))
        i, j = np.divmod(ij[starts], n + 1)
        del ij
        counts = np.diff(starts, append=u.size)
        # from here i, j and the tables' entries are one per run
        lo, hi, row = np.minimum(i, j), np.maximum(i, j), j < i
        out = np.repeat(prefix_t[lo], counts)
        k = best_in(row, lo, hi)
        term = np.repeat(middle_c[row * n + k], counts)
        term -= np.where(np.repeat(row, counts), v, u)
        np.subtract(np.repeat(np.where(lo < hi, t[k], -np.inf), counts), term, out=term)
        np.maximum(out, term, out=out)
        np.subtract(np.repeat(suffix_a[hi], counts), u, out=term)
        np.subtract(np.repeat(suffix_t[hi], counts), term, out=term)
        clamp_b = np.repeat(suffix_b[hi], counts)
        clamp_b -= v
        term -= clamp_b
        np.maximum(out, term, out=out)
        return out

    return block


def _envelope(a, b, t, chain: bool):
    """The largest constraint term, -inf where there is none, on one block
    of flat points: ``_chain_envelope`` for a nonempty ``chain``,
    ``_direct_envelope`` otherwise."""
    if a.size and chain:
        return _chain_envelope(a, b, t)
    return _direct_envelope(a, b, t)


def upper_bound(constraints) -> CopulaSurface:
    """Pointwise largest quasi-copula matching the constraint values.

    A copula (tagged ``known-copula``) when the point set is decreasing;
    in general only a quasi-copula.
    """
    cs = _as_constraints(constraints)
    # The lower terms of the negated data at (-u, -v), negated, are
    # t + (u - a)^+ + (v - b)^+ bit for bit.
    terms = _envelope(-cs.a, -cs.b, -cs.theta, cs.is_increasing)
    fn = partial(in_blocks, lambda u, v: np.minimum(frechet_upper(u, v), -terms(-u, -v)),
                 _BLOCK_POINTS)
    tag = "known-copula" if cs.is_decreasing else "quasi-copula"
    return CopulaSurface(
        fn, tag=tag, name=f"constrained-upper(n={len(cs)})", structure=("point-set-upper", cs)
    )


def lower_bound(constraints) -> CopulaSurface:
    """Pointwise smallest quasi-copula matching the constraint values.

    A copula (tagged ``known-copula``) when the point set is increasing.
    """
    cs = _as_constraints(constraints)
    fn = partial(in_blocks, lambda u, v: np.maximum(frechet_lower(u, v), cs._terms(u, v)),
                 _BLOCK_POINTS)
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
