"""Composite Gauss-Legendre quadrature with graded panels and breakpoints.

Two families of integrals appear in this package: probability-space
integrals over (0, 1) whose integrands come from quantile transforms
(slowly divergent derivatives at the endpoints), and money-space
integrals over truncated half-lines.  Both use fixed-node composite
Gauss-Legendre rules.  Unit rules grade the panels geometrically toward
0 and 1 so that quantile-transformed integrands are resolved; interval
rules are uniform.  Panels are split at caller-supplied breakpoints.
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
    "unit_panel_edges",
    "interval_rule",
    "gauss_legendre_01",
    "mapped_nodes",
    "bisect",
    "refine_sign_changes",
    "DEFAULT_PANELS",
    "DEFAULT_ORDER",
    "DEFAULT_EPS",
]

DEFAULT_PANELS = 2001
DEFAULT_ORDER = 5
# Probability arguments are clipped to [EPS, 1-EPS]; the omitted tail mass
# is below 1e-9 in expectation for every shipped marginal family.
DEFAULT_EPS = 1e-12

_EDGE_PANELS_PER_DECADE = 6


class QuadratureError(RuntimeError):
    """Integrand is non-finite or looks non-integrable at an endpoint."""


@lru_cache(maxsize=None)
def gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(order)
    return (t + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True)
class Rule:
    """Fixed nodes and positive weights for one integral."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate_checked(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integrate and raise QuadratureError on non-finite values or
        geometric tail divergence near 0 or 1 (unit rules only)."""
        vals = np.asarray(fn(self.nodes), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand is non-finite at a quadrature node")
        total = float(self.weights @ vals)
        _check_tail_divergence(self.nodes, self.weights * vals, total)
        return total


def _check_tail_divergence(nodes: np.ndarray, contrib: np.ndarray, total: float) -> None:
    # Convergent endpoint behaviour shows up as decade contributions that
    # shrink toward the endpoint; flat or growing decades mean divergence.
    scale = max(1.0, abs(total))
    for dist in (nodes, 1.0 - nodes):
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


def _unit_edges(panels: int, eps: float, per_decade: int) -> np.ndarray:
    decades = max(1, int(np.ceil(-np.log10(eps))) - 2)
    expo = np.linspace(2.0, -np.log10(eps), decades * per_decade + 1)
    stack = 10.0 ** (-expo)  # 1e-2 ... eps, descending
    bulk = max(panels - 2 * decades * per_decade, 8)
    mid = np.linspace(1e-2, 1.0 - 1e-2, bulk + 1)
    return np.unique(np.concatenate([stack[::-1], mid[1:-1], 1.0 - stack]))


def _rule_from_edges(edges: np.ndarray, order: int) -> Rule:
    t, w = gauss_legendre_01(order)
    width = np.diff(edges)
    nodes = edges[:-1, None] + width[:, None] * t[None, :]
    weights = width[:, None] * w[None, :]
    return Rule(nodes.ravel(), weights.ravel())


def unit_panel_edges(
    panels: int,
    eps: float = DEFAULT_EPS,
    breakpoints: Iterable[float] = (),
    edge_per_decade: int = _EDGE_PANELS_PER_DECADE,
) -> np.ndarray:
    """Graded panel edges on (eps, 1-eps) merged with ``breakpoints``."""
    edges = _unit_edges(int(panels), float(eps), int(edge_per_decade))
    b = np.asarray(sorted(set(float(x) for x in breakpoints)), dtype=float)
    if b.size:
        b = b[(b > eps) & (b < 1.0 - eps)]
        edges = np.unique(np.concatenate([edges, b]))
    return edges


@lru_cache(maxsize=128)
def _unit_rule_cached(
    panels: int, order: int, eps: float, breaks: tuple[float, ...], per_decade: int
) -> Rule:
    return _rule_from_edges(unit_panel_edges(panels, eps, breaks, per_decade), order)


def unit_rule(
    panels: int = DEFAULT_PANELS,
    order: int = DEFAULT_ORDER,
    eps: float = DEFAULT_EPS,
    breakpoints: Iterable[float] = (),
    edge_per_decade: int = _EDGE_PANELS_PER_DECADE,
) -> Rule:
    """Graded rule on (eps, 1-eps) with panels split at ``breakpoints``."""
    breaks = tuple(sorted(set(float(b) for b in breakpoints)))
    return _unit_rule_cached(int(panels), int(order), float(eps), breaks, int(edge_per_decade))


def interval_rule(
    lo: float,
    hi: float,
    panels: int = 512,
    order: int = DEFAULT_ORDER,
    breakpoints: Iterable[float] = (),
) -> Rule:
    """Uniform composite rule on [lo, hi] with panels split at breakpoints."""
    if not hi > lo:
        return Rule(np.empty(0), np.empty(0))
    edges = np.linspace(lo, hi, int(panels) + 1)
    b = np.asarray(sorted(set(float(x) for x in breakpoints)), dtype=float)
    if b.size:
        b = b[(b > lo) & (b < hi)]
        edges = np.unique(np.concatenate([edges, b]))
    return _rule_from_edges(edges, order)


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


def bisect(go_right, left: np.ndarray, right: np.ndarray, iters: int, tol: float = 0.0):
    """Halve every bracket ``[left, right]`` up to ``iters`` times.

    Each step keeps the right half where ``go_right(mid)`` holds and the
    left half elsewhere; it stops early once every bracket is at most
    ``tol`` wide.  Returns the final ``(left, right)``.
    """
    for _ in range(iters):
        if np.all(right - left <= tol):
            break
        mid = 0.5 * (left + right)
        ok = go_right(mid)
        left = np.where(ok, mid, left)
        right = np.where(ok, right, mid)
    return left, right


def refine_sign_changes(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    probes: int = 257,
    iters: int = 60,
) -> np.ndarray:
    """Roots of ``fn`` on [lo, hi] located by probing then bisection.

    Only sign changes between adjacent probe points are found; tangential
    roots are ignored, which is adequate for the CDF-crossing and payoff
    kink curves this is used on.
    """
    if not hi > lo:
        return np.empty(0)
    grid = np.linspace(lo, hi, probes)
    vals = np.asarray(fn(grid), dtype=float)
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if idx.size == 0:
        return np.empty(0)
    a, b = bisect(lambda mid: sign[idx] * fn(mid) > 0, grid[idx], grid[idx + 1], iters)
    return 0.5 * (a + b)
