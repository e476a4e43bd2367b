"""One-dimensional risk-factor distributions.

Three families cover the shipped scenarios: exponential default times,
martingale lognormal terminal asset prices, and tabulated distributions
(step CDFs), the latter typically reconstructed from call-option quotes.
All objects are immutable after construction and safe to share across
workers; ``cdf`` and ``quantile`` accept scalars or numpy arrays.

The generalized inverse follows the usual convention
``quantile(u) = inf{x : cdf(x) >= u}`` with ``inf of the empty set = +inf``.
"""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .quadrature import DEFAULT_EPS

__all__ = [
    "Marginal",
    "Exponential",
    "LognormalMartingale",
    "Tabulated",
    "from_call_prices",
    "marginal_from_csv",
]


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _check_positive(**params) -> None:
    for name, value in params.items():
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive")


class Marginal:
    """Common interface: vectorized ``cdf`` and generalized-inverse ``quantile``.

    A family defines ``cdf`` and ``quantile_unchecked``; ``quantile``
    checks its argument and calls ``quantile_unchecked``.
    """

    def cdf(self, x):
        raise NotImplementedError

    def quantile_unchecked(self, u):
        """Quantile without argument validation; quadrature hot path only,
        callers guarantee u in (0, 1]."""
        raise NotImplementedError

    def quantile(self, u):
        """Generalized inverse at u in (0, 1]; a float for a scalar ``u``,
        +inf where u exceeds the attainable mass (at u = 1 for an unbounded
        support)."""
        with np.errstate(divide="ignore"):  # u = 1 legitimately maps to +inf
            out = self.quantile_unchecked(self._check_u(u))
        return out if np.ndim(out) else float(out)

    def upper_cutoff(self) -> float:
        """Truncation point for integrals over the support: the quantile at
        1 - DEFAULT_EPS."""
        return float(self.quantile_unchecked(1.0 - DEFAULT_EPS))

    def _check_x(self, x) -> np.ndarray:
        arr = _as_float_array(x, "x")
        if np.any(arr < 0.0):
            raise ValueError("x must be nonnegative")
        return arr

    @staticmethod
    def _check_u(u) -> np.ndarray:
        arr = np.asarray(u, dtype=float)
        if np.any(np.isnan(arr)) or np.any(arr <= 0.0) or np.any(arr > 1.0):
            raise ValueError("u must lie in (0, 1]")
        return arr


class Exponential(Marginal):
    def __init__(self, rate: float):
        _check_positive(rate=rate)
        self.rate = float(rate)

    def cdf(self, x):
        return -np.expm1(-self.rate * self._check_x(x))

    def quantile_unchecked(self, u):
        return -np.log1p(-u) / self.rate

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate})"


class LognormalMartingale(Marginal):
    """Terminal value of a driftless geometric Brownian motion.

    ``X = spot * exp(sigma * W_T - sigma^2 T / 2)`` so that ``E[X] = spot``.
    """

    def __init__(self, sigma: float, spot: float, maturity: float):
        _check_positive(sigma=sigma, spot=spot, maturity=maturity)
        self.sigma = float(sigma)
        self.spot = float(spot)
        self.maturity = float(maturity)
        # a float product overflows to inf, where float ** raises OverflowError
        variance = self.sigma * self.sigma * self.maturity
        if not variance < np.inf:
            raise ValueError(
                f"sigma**2 * maturity must be finite (sigma={sigma}, maturity={maturity})"
            )
        self._sig_sqrt_t = self.sigma * np.sqrt(self.maturity)
        if not self._sig_sqrt_t > 0.0:
            raise ValueError(
                f"sigma * sqrt(maturity) must be positive, it underflows to 0 "
                f"(sigma={sigma}, maturity={maturity})"
            )
        self._half_var = 0.5 * variance

    def cdf(self, x):
        arr = self._check_x(x)
        out = np.zeros_like(arr)
        pos = arr > 0.0
        with np.errstate(divide="ignore"):  # x / spot may underflow to 0: cdf 0
            z = (np.log(arr[pos] / self.spot) + self._half_var) / self._sig_sqrt_t
        out[pos] = ndtr(z)
        return out if out.ndim else float(out)

    def quantile_unchecked(self, u):
        return self.spot * np.exp(self._sig_sqrt_t * ndtri(u) - self._half_var)

    @property
    def log_mean(self) -> float:
        """E[log X]."""
        return float(np.log(self.spot) - self._half_var)

    @property
    def log_var(self) -> float:
        """Var[log X]."""
        return 2.0 * self._half_var

    def __repr__(self) -> str:
        return (
            f"LognormalMartingale(sigma={self.sigma}, spot={self.spot}, "
            f"maturity={self.maturity})"
        )


class Tabulated(Marginal):
    """Right-continuous step CDF through sorted ``(x, F(x))`` pairs."""

    def __init__(self, xs: Sequence[float], fs: Sequence[float]):
        xs = _as_float_array(xs, "xs")
        fs = _as_float_array(fs, "fs")
        if xs.ndim != 1 or xs.shape != fs.shape or xs.size < 1:
            raise ValueError("xs and fs must be equal-length 1-d arrays")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        if np.any(fs < 0) or np.any(fs > 1) or np.any(np.diff(fs) < 0):
            raise ValueError("fs must be nondecreasing probabilities")
        self.xs = xs
        self.fs = fs

    def cdf(self, x):
        arr = self._check_x(x)
        idx = np.searchsorted(self.xs, arr, side="right")
        vals = np.concatenate([[0.0], self.fs])[idx]
        return vals if vals.ndim else float(vals)

    def quantile_unchecked(self, u):
        # Left-continuous step inversion: smallest tabulated x with F(x) >= u,
        # +inf when u exceeds the attainable mass.
        idx = np.searchsorted(self.fs, u, side="left")
        return np.concatenate([self.xs, [np.inf]])[idx]

    def upper_cutoff(self) -> float:
        return float(self.xs[-1])

    def __repr__(self) -> str:
        return f"Tabulated(n={self.xs.size})"


def from_call_prices(
    strikes: Sequence[float],
    prices: Sequence[float],
    rate: float = 0.0,
    maturity: float = 1.0,
) -> Tabulated:
    """Implied CDF from undiscounted-to-discounted call quotes on a strike grid.

    The call curve ``P(K) = E[exp(-r T) (X - K)^+]`` has slope
    ``dP/dK = -exp(-r T) (1 - F(K))``, so ``F(K) = 1 + exp(r T) dP/dK``.
    Slopes are second-order finite differences on the (possibly
    non-uniform) strike grid, ``np.gradient(P, K, edge_order=2)``,
    one-sided at the ends (first order with two strikes); the result is
    clamped to [0, 1] and made nondecreasing by a running maximum.  The
    mass ``1 - F(K_max)`` above the last strike becomes one atom at
    ``K_max + exp(r T) P(K_max) / (1 - F(K_max))``, the one point where it
    reprices the last quote, so every quantile is finite.

    Rejects fewer than two strikes, prices that increase in strike
    (arbitrage), constant price curves (no distributional content), a
    ``rate`` that is not finite, a ``maturity`` that is not finite and
    nonnegative, and an ``exp(rate * maturity)`` that overflows.
    """
    rate, maturity = float(rate), float(maturity)
    if not np.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate!r}")
    if not 0.0 <= maturity < np.inf:
        raise ValueError(f"maturity must be finite and nonnegative, got {maturity!r}")
    with np.errstate(over="ignore"):
        growth = float(np.exp(rate * maturity))
    if growth == np.inf:
        raise ValueError(f"exp(rate * maturity) overflows (rate={rate}, maturity={maturity})")
    K = _as_float_array(strikes, "strikes")
    P = _as_float_array(prices, "prices")
    if K.ndim != 1 or K.shape != P.shape or K.size < 2:
        raise ValueError("need at least two strikes with matching prices")
    if np.any(np.diff(K) <= 0):
        raise ValueError("strikes must be strictly increasing")
    if np.any(P < 0):
        raise ValueError("prices must be nonnegative")
    tol = 1e-12 * max(1.0, float(np.max(np.abs(P))))
    dP = np.diff(P)
    if np.any(dP > tol):
        i = int(np.argmax(dP))
        raise ValueError(
            f"prices increase between strikes {K[i]} and {K[i + 1]} (arbitrage)"
        )
    if np.all(np.abs(dP) <= tol):
        raise ValueError("constant call prices carry no distribution (degenerate)")

    # A first-order slope would bias the CDF by O(h) times the density.
    slope = np.gradient(P, K, edge_order=2 if K.size >= 3 else 1)
    F = np.maximum.accumulate(np.clip(1.0 + growth * slope, 0.0, 1.0))
    tail = 1.0 - F[-1]
    if tail > 0.0:
        atom = K[-1] + growth * P[-1] / tail
        if atom > K[-1]:
            K, F = np.append(K, atom), np.append(F, 1.0)
        else:  # a zero last quote leaves no mass above K_max
            F[-1] = 1.0
    return Tabulated(K, F)


def read_csv_rows(path, headers) -> tuple[int, list[tuple[float, ...]]]:
    """Numeric rows of a CSV file whose header line is one of ``headers``.

    ``headers`` lists the accepted headers as tuples of column names,
    matched case-insensitively against the leading cells of the header
    line.  Returns the index of the matching header and, for every nonblank
    row, its leading cells as floats, as many as the header has columns.
    Raises ValueError naming the file for an unknown header, and naming
    ``path:line`` for a short row or a non-numeric cell.
    """
    names = [tuple(c.lower() for c in h) for h in headers]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or []
        cells = tuple(h.strip().lower() for h in header)
        kind = next((k for k, h in enumerate(names) if cells[: len(h)] == h), None)
        if kind is None:
            expected = " or ".join(repr(",".join(h)) for h in headers)
            raise ValueError(f"{path}: expected header {expected}, got {header!r}")
        n = len(names[kind])
        rows = []
        for row in reader:
            if not row or not row[0].strip():
                continue
            try:
                values = tuple(float(c) for c in row[:n])
            except ValueError:
                values = ()
            if len(values) < n:
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {n} numeric cells, got {row!r}"
                )
            rows.append(values)
    return kind, rows


def marginal_from_csv(path, rate: float = 0.0, maturity: float = 1.0) -> Tabulated:
    """Load a tabulated marginal from a two-column CSV.

    The header declares the content: ``x,F`` gives CDF samples directly;
    ``strike,price`` gives call quotes passed through ``from_call_prices``
    with the supplied ``rate`` and ``maturity``.  Malformed files raise
    ValueError as in ``read_csv_rows``.
    """
    kind, rows = read_csv_rows(path, [("x", "F"), ("strike", "price")])
    xs, ys = [r[0] for r in rows], [r[1] for r in rows]
    if kind == 0:
        return Tabulated(xs, ys)
    return from_call_prices(xs, ys, rate=rate, maturity=maturity)
