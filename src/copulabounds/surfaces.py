"""Copula and quasi-copula surfaces on the unit square.

Surfaces are closed-form evaluators, never precomputed grids, so they
stay exact for constraint sets of any size and are safe to evaluate
concurrently.  Each surface carries a provenance tag: ``known-copula``
for surfaces that are copulas by construction, ``quasi-copula`` for
best-possible bounds that need not be 2-increasing, and ``unverified``
for arbitrary user evaluators.  A ``structure`` tuple records how the
surface was built, for provenance only; the members of a group
(``surface_groups``) are evaluated together and declare their kinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri, owens_t

from .quadrature import gauss_legendre_01

__all__ = [
    "CopulaSurface",
    "ValidationReport",
    "frechet_lower",
    "frechet_upper",
    "FRECHET_LOWER",
    "FRECHET_UPPER",
    "PRODUCT",
    "gaussian_copula",
    "validate_quasi_copula",
    "validate_copula",
]

_DOMAIN_SLACK = 1e-12
# Largest monotonicity or Lipschitz excess, and negative cell volume, of a
# passing report.
_VALIDATION_TOL = 1e-9
# Largest boundary error of a passing report: a surface's edges are closed
# forms, so they hold to rounding.
_BOUNDARY_TOL = 1e-12


def frechet_lower(u, v):
    """Countermonotone bound W(u, v) = max(0, u + v - 1)."""
    return np.maximum(0.0, np.asarray(u, dtype=float) + np.asarray(v, dtype=float) - 1.0)


def frechet_upper(u, v):
    """Comonotone bound M(u, v) = min(u, v)."""
    return np.minimum(np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def unit_square_args(u, v) -> tuple[np.ndarray, np.ndarray]:
    """``u`` and ``v`` as float arrays clipped to [0, 1]; ValueError for
    arguments that are NaN or more than 1e-12 outside the unit square."""
    uu = np.asarray(u, dtype=float)
    vv = np.asarray(v, dtype=float)
    if not (  # every comparison with NaN is false
        np.all(uu >= -_DOMAIN_SLACK)
        and np.all(uu <= 1.0 + _DOMAIN_SLACK)
        and np.all(vv >= -_DOMAIN_SLACK)
        and np.all(vv <= 1.0 + _DOMAIN_SLACK)
    ):
        raise ValueError("arguments must lie in the unit square")
    return np.clip(uu, 0.0, 1.0), np.clip(vv, 0.0, 1.0)


def check_unit_point(a: float, b: float) -> None:
    """ValueError unless (a, b) lies in the closed unit square; NaN fails."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError("(a, b) must lie in the unit square")


@dataclass(frozen=True, eq=False)
class CopulaSurface:
    """Evaluable function on the unit square with provenance metadata.
    Surfaces compare and hash by identity.  ``group``, if set, is
    ``(group, key)``: the surface is the member ``key`` of ``group``."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tag: str = "unverified"
    name: str = "surface"
    structure: tuple = ()
    group: tuple | None = None

    def __post_init__(self):
        if self.tag not in ("known-copula", "quasi-copula", "unverified"):
            raise ValueError(f"unknown provenance tag {self.tag!r}")

    def __call__(self, u, v):
        out = self.fn(*unit_square_args(u, v))
        return out if np.ndim(out) else float(out)

    @property
    def is_copula(self) -> bool:
        return self.tag == "known-copula"

    def __repr__(self) -> str:
        return f"CopulaSurface({self.name}, tag={self.tag})"


FRECHET_LOWER = CopulaSurface(
    frechet_lower, tag="known-copula", name="frechet-lower", structure=("frechet-lower",)
)
FRECHET_UPPER = CopulaSurface(
    frechet_upper, tag="known-copula", name="frechet-upper", structure=("frechet-upper",)
)
PRODUCT = CopulaSurface(
    lambda u, v: np.asarray(u, dtype=float) * np.asarray(v, dtype=float),
    tag="known-copula",
    name="product",
    structure=("product",),
)


def surface_groups(surfaces) -> list:
    """``(group, positions, keys)`` for each group among ``surfaces``: the
    positions of its members in ``surfaces`` and their keys, in order.
    ``group.values(u, v, keys)`` returns the members' values at checked
    points, and ``group.breaks(keys, at, probes, width, frechet)`` their
    kinks and grading splits along pricing paths (``pricing._path_breaks``)."""
    found = {}
    for j, s in enumerate(surfaces):
        if s.group is not None:
            group, key = s.group
            positions, keys = found.setdefault(group, ([], []))
            positions.append(j)
            keys.append(key)
    return [(group, *members) for group, members in found.items()]


def evaluate_surfaces(surfaces, u, v) -> list:
    """``[s(u, v) for s in surfaces]``, except that the points are checked
    once (``unit_square_args``) and the members of one group are evaluated
    together, by one call of the group."""
    u, v = unit_square_args(u, v)
    out = {}
    for group, positions, keys in surface_groups(surfaces):
        out.update(zip(positions, group.values(u, v, keys)))
    return [out[j] if j in out else s.fn(u, v) for j, s in enumerate(surfaces)]


# Gauss-Legendre orders of the Drezner-Wesolowsky integral by |rho| below
# each limit (Genz, Stat. Comput. 14, 2004); Owen's T above the last.
_DW_ORDERS = ((0.3, 6), (0.75, 12), (0.925, 20))


def _drezner_wesolowsky(h, k, rho: float, order: int):
    """(1 / 2 pi) times the integral over theta in [0, arcsin(rho)] of
    exp(-(h^2 + k^2 - 2 h k sin(theta)) / (2 cos(theta)^2)), by an
    ``order``-node Gauss-Legendre rule; every term has the sign of rho."""
    t, w = gauss_legendre_01(order)
    asr = np.arcsin(rho)
    sn = np.sin(asr * t)
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    total = np.zeros_like(hk)
    term = np.empty_like(hk)
    for s, c, wi in zip(sn, 1.0 / (1.0 - sn * sn), w * (asr / (2.0 * np.pi))):
        np.multiply(hk, s, out=term)
        term -= hs
        term *= c
        np.exp(term, out=term)
        term *= wi
        total += term
    return total


def _bvn(h, k, rho: float, ph, pk):
    """P(Z1 <= h, Z2 <= k) for finite h, k and 0 < |rho| < 1, given
    ph = Phi(h) and pk = Phi(k), unclipped.

    For |rho| below 0.3, 0.75 or 0.925 it is Genz's (Stat. Comput. 14,
    2004) form of the Drezner-Wesolowsky integral, ph * pk plus a
    Gauss-Legendre sum of 6, 12 or 20 nodes; above, Owen's T function.
    """
    order = next((n for limit, n in _DW_ORDERS if abs(rho) < limit), None)
    if order is not None:
        return ph * pk + _drezner_wesolowsky(h, k, rho, order)
    s = np.sqrt(1.0 - rho * rho)
    # Zero arguments would make the T-function arguments blow up; nudging by
    # 1e-15 changes the CDF by < 1e-15 (density is bounded by 1/sqrt(2*pi)).
    hh = np.where(h == 0.0, 1e-15, h)
    kk = np.where(k == 0.0, 1e-15, k)
    with np.errstate(divide="ignore", over="ignore"):
        a1 = (kk - rho * hh) / (hh * s)
        a2 = (hh - rho * kk) / (kk * s)
    t = owens_t(hh, a1) + owens_t(kk, a2)
    delta = np.where(hh * kk > 0.0, 0.0, 0.5)
    return 0.5 * (ph + pk) - t - delta


def gaussian_copula(rho: float) -> CopulaSurface:
    """Gaussian copula with correlation ``rho``; +-1 map exactly to the
    Frechet bounds and 0 to the product copula."""
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    if rho == 1.0:
        return FRECHET_UPPER
    if rho == -1.0:
        return FRECHET_LOWER
    if rho == 0.0:
        return PRODUCT

    def fn(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        shape = u.shape
        u, v = u.ravel(), v.ravel()
        # On the boundary of the square min(u, v) equals the copula exactly.
        out = np.minimum(u, v)
        interior = (u > 0.0) & (u < 1.0) & (v > 0.0) & (v < 1.0)
        if np.any(interior):
            # u and v stand for Phi(ndtri(u)) and Phi(ndtri(v)): exact, and the
            # copula then lies on the side of the product that rho's sign says.
            # The kernel can pass a Frechet bound by an ulp near |rho| = 1.
            ui, vi = u[interior], v[interior]
            out[interior] = np.clip(
                _bvn(ndtri(ui), ndtri(vi), rho, ui, vi),
                frechet_lower(ui, vi), np.minimum(ui, vi),
            )
        return out.reshape(shape)

    return CopulaSurface(
        fn, tag="known-copula", name=f"gaussian({rho:.6g})", structure=("gaussian", rho)
    )


@dataclass
class ValidationReport:
    """Outcome of grid validation; failures are content, not exceptions.
    ``nonfinite_at`` is the first lattice node (u, v) where the surface is
    infinite or NaN, if any; such a surface fails."""

    kind: str
    grid_n: int
    boundary_error: float = 0.0
    boundary_at: tuple = ()
    monotonicity_violation: float = 0.0
    monotonicity_at: tuple = ()
    lipschitz_violation: float = 0.0
    lipschitz_at: tuple = ()
    min_cell_volume: float | None = None
    min_cell_at: tuple = ()
    nonfinite_at: tuple = ()

    @property
    def passed(self) -> bool:
        ok = (
            not self.nonfinite_at
            and self.boundary_error <= _BOUNDARY_TOL
            and self.monotonicity_violation <= _VALIDATION_TOL
            and self.lipschitz_violation <= _VALIDATION_TOL
        )
        if self.kind == "copula":
            ok = ok and (
                self.min_cell_volume is not None and self.min_cell_volume >= -_VALIDATION_TOL
            )
        return ok

    def summary(self) -> str:
        lines = [
            f"{self.kind} check on {self.grid_n + 1}x{self.grid_n + 1} grid: "
            f"{'pass' if self.passed else 'FAIL'}",
            f"  boundary error      {self.boundary_error:.3e} at {self.boundary_at}",
            f"  monotonicity excess {self.monotonicity_violation:.3e} at {self.monotonicity_at}",
            f"  lipschitz excess    {self.lipschitz_violation:.3e} at {self.lipschitz_at}",
        ]
        if self.min_cell_volume is not None:
            lines.append(
                f"  min cell volume     {self.min_cell_volume:.3e} at {self.min_cell_at}"
            )
        if self.nonfinite_at:
            lines.append(f"  non-finite value    at {self.nonfinite_at}")
        return "\n".join(lines)


def lattice(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The validation lattice: ``(U, V)`` of shape ``(grid_n + 1, grid_n + 1)``
    on the uniform grid of [0, 1].  ValueError unless ``grid_n`` is an
    integer >= 2."""
    if not isinstance(grid_n, (int, np.integer)) or grid_n < 2:
        raise ValueError(f"grid_n must be an integer >= 2, got {grid_n!r}")
    g = np.linspace(0.0, 1.0, grid_n + 1)
    return tuple(np.meshgrid(g, g, indexing="ij"))


def _validate(Z, kind: str) -> ValidationReport:
    """Report on surface values ``Z`` at the nodes of ``lattice(grid_n)``."""
    Z = np.asarray(Z, dtype=float)
    grid_n = Z.shape[0] - 1
    g = np.linspace(0.0, 1.0, grid_n + 1)
    rep = ValidationReport(kind=kind, grid_n=grid_n)
    bad = ~np.isfinite(Z)
    if bad.any():  # the comparisons below pass NaN over
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        rep.nonfinite_at = (float(g[i]), float(g[j]))

    edges = [
        ("u=0", np.abs(Z[0, :])),
        ("v=0", np.abs(Z[:, 0])),
        ("u=1", np.abs(Z[-1, :] - g)),
        ("v=1", np.abs(Z[:, -1] - g)),
    ]
    for label, err in edges:
        worst = float(np.max(err))
        if worst > rep.boundary_error:
            rep.boundary_error = worst
            rep.boundary_at = (label, float(g[int(np.argmax(err))]))

    du = np.diff(g)[:, None]
    dv = np.diff(g)[None, :]
    incr_u = np.diff(Z, axis=0)
    incr_v = np.diff(Z, axis=1)
    for incr, axis in ((incr_u, "u"), (incr_v, "v")):
        worst = float(-np.min(incr))
        if worst > rep.monotonicity_violation:
            i, j = np.unravel_index(int(np.argmin(incr)), incr.shape)
            rep.monotonicity_violation = worst
            rep.monotonicity_at = (axis, float(g[i]), float(g[j]))
        excess = incr - (du if axis == "u" else dv)
        worst = float(np.max(excess))
        if worst > rep.lipschitz_violation:
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            rep.lipschitz_violation = worst
            rep.lipschitz_at = (axis, float(g[i]), float(g[j]))

    if kind == "copula":
        vols = Z[1:, 1:] + Z[:-1, :-1] - Z[1:, :-1] - Z[:-1, 1:]
        i, j = np.unravel_index(int(np.argmin(vols)), vols.shape)
        rep.min_cell_volume = float(vols[i, j])
        rep.min_cell_at = (float(g[i]), float(g[j]), float(g[i + 1]), float(g[j + 1]))
    return rep


def validate_quasi_copula(surface: CopulaSurface, grid_n: int = 200) -> ValidationReport:
    """Check boundary conditions, coordinatewise monotonicity, and the
    Lipschitz property on a lattice."""
    return _validate(surface(*lattice(grid_n)), "quasi-copula")


def validate_copula(surface: CopulaSurface, grid_n: int = 200) -> ValidationReport:
    """Quasi-copula checks plus nonnegative cell volumes on the lattice."""
    return _validate(surface(*lattice(grid_n)), "copula")
