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
    "exponential",
    "lognormal_martingale",
    "tabulated",
    "from_call_prices",
    "marginal_from_csv",
]


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


class Marginal:
    """Common interface: vectorized ``cdf`` and generalized-inverse ``quantile``."""

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def upper_cutoff(self, eps: float = DEFAULT_EPS) -> float:
        """Truncation point for integrals over the support."""
        return float(self.quantile(1.0 - eps))

    def quantile_unchecked(self, u):
        """Quantile without argument validation; quadrature hot path only,
        callers guarantee u in (0, 1]."""
        return self.quantile(u)

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
        if not rate > 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)

    def cdf(self, x):
        return -np.expm1(-self.rate * self._check_x(x))

    def quantile(self, u):
        with np.errstate(divide="ignore"):  # u = 1 legitimately maps to +inf
            return -np.log1p(-self._check_u(u)) / self.rate

    def quantile_unchecked(self, u):
        return -np.log1p(-u) / self.rate

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate})"


class LognormalMartingale(Marginal):
    """Terminal value of a driftless geometric Brownian motion.

    ``X = spot * exp(sigma * W_T - sigma^2 T / 2)`` so that ``E[X] = spot``.
    """

    def __init__(self, sigma: float, spot: float, maturity: float):
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        if not spot > 0:
            raise ValueError("spot must be positive")
        if not maturity > 0:
            raise ValueError("maturity must be positive")
        self.sigma = float(sigma)
        self.spot = float(spot)
        self.maturity = float(maturity)
        self._sig_sqrt_t = self.sigma * np.sqrt(self.maturity)
        self._half_var = 0.5 * self.sigma**2 * self.maturity

    def cdf(self, x):
        arr = self._check_x(x)
        out = np.zeros_like(arr)
        pos = arr > 0.0
        with np.errstate(divide="ignore"):  # x / spot may underflow to 0: cdf 0
            z = (np.log(arr[pos] / self.spot) + self._half_var) / self._sig_sqrt_t
        out[pos] = ndtr(z)
        return out if out.ndim else float(out)

    def quantile(self, u):
        arr = self._check_u(u)
        return self.spot * np.exp(self._sig_sqrt_t * ndtri(arr) - self._half_var)

    def quantile_unchecked(self, u):
        return self.spot * np.exp(self._sig_sqrt_t * ndtri(u) - self._half_var)

    @property
    def mean(self) -> float:
        return self.spot

    @property
    def log_mean(self) -> float:
        """E[log X]."""
        return float(np.log(self.spot) - self._half_var)

    @property
    def log_var(self) -> float:
        """Var[log X]."""
        return float(self.sigma**2 * self.maturity)

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

    def quantile(self, u):
        # Left-continuous step inversion: smallest tabulated x with F(x) >= u,
        # +inf when u exceeds the attainable mass.
        arr = self._check_u(u)
        idx = np.searchsorted(self.fs, arr, side="left")
        vals = np.concatenate([self.xs, [np.inf]])[idx]
        return vals if vals.ndim else float(vals)

    def quantile_unchecked(self, u):
        idx = np.searchsorted(self.fs, u, side="left")
        return np.concatenate([self.xs, [np.inf]])[idx]

    def upper_cutoff(self, eps: float = DEFAULT_EPS) -> float:
        return float(self.xs[-1])

    def __repr__(self) -> str:
        return f"Tabulated(n={self.xs.size})"


def exponential(rate: float) -> Exponential:
    return Exponential(rate)


def lognormal_martingale(sigma: float, spot: float, maturity: float) -> LognormalMartingale:
    return LognormalMartingale(sigma, spot, maturity)


def tabulated(xs: Sequence[float], fs: Sequence[float]) -> Tabulated:
    return Tabulated(xs, fs)


def from_call_prices(
    strikes: Sequence[float],
    prices: Sequence[float],
    rate: float = 0.0,
    maturity: float = 1.0,
) -> Tabulated:
    """Implied CDF from undiscounted-to-discounted call quotes on a strike grid.

    The call curve ``P(K) = E[exp(-r T) (X - K)^+]`` has slope
    ``dP/dK = -exp(-r T) (1 - F(K))``, so ``F(K) = 1 + exp(r T) dP/dK``.
    Slopes are central finite differences at interior strikes and one-sided
    at the ends; the result is clamped to [0, 1] and made nondecreasing by a
    running maximum.

    Rejects fewer than two strikes, prices that increase in strike
    (arbitrage), and constant price curves (no distributional content).
    """
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

    slope = np.empty_like(P)
    slope[1:-1] = (P[2:] - P[:-2]) / (K[2:] - K[:-2])
    if K.size >= 3:
        # second-order one-sided ends; first-order would bias the end CDF
        # values by O(h) times the density
        h0, h1 = K[1] - K[0], K[2] - K[1]
        slope[0] = (
            -(2 * h0 + h1) / (h0 * (h0 + h1)) * P[0]
            + (h0 + h1) / (h0 * h1) * P[1]
            - h0 / (h1 * (h0 + h1)) * P[2]
        )
        g1, g0 = K[-1] - K[-2], K[-2] - K[-3]
        slope[-1] = (
            (2 * g1 + g0) / (g1 * (g1 + g0)) * P[-1]
            - (g1 + g0) / (g1 * g0) * P[-2]
            + g1 / (g0 * (g1 + g0)) * P[-3]
        )
    else:
        slope[0] = (P[1] - P[0]) / (K[1] - K[0])
        slope[-1] = slope[0]
    F = np.clip(1.0 + np.exp(rate * maturity) * slope, 0.0, 1.0)
    return Tabulated(K, np.maximum.accumulate(F))


def marginal_from_csv(path, rate: float = 0.0, maturity: float = 1.0) -> Tabulated:
    """Load a tabulated marginal from a two-column CSV.

    The header declares the content: ``x,F`` gives CDF samples directly;
    ``strike,price`` gives call quotes passed through ``from_call_prices``
    with the supplied ``rate`` and ``maturity``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError(f"{path}: expected a two-column header line")
        cols = [[], []]
        for row in reader:
            if not row or not row[0].strip():
                continue
            cols[0].append(float(row[0]))
            cols[1].append(float(row[1]))
    names = tuple(h.strip().lower() for h in header[:2])
    if names == ("x", "f"):
        return Tabulated(cols[0], cols[1])
    if names == ("strike", "price"):
        return from_call_prices(cols[0], cols[1], rate=rate, maturity=maturity)
    raise ValueError(f"{path}: header must be 'x,F' or 'strike,price', got {header!r}")
