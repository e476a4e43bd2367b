"""Independent oracles and generators shared by the test modules.

Everything here is deliberately computed through routes different from
the library code it checks: closed forms, Monte Carlo, adaptive
quadrature along the Frechet couplings, and a disintegration oracle that
reads conditional laws off surface values by finite differences.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr, owens_t

from copulabounds.constrained import ConstraintSet
from copulabounds.pricing import payoff_value


def margrabe_price(spot_x, spot_y, sigma_x, sigma_y, rho, maturity) -> float:
    """Closed-form exchange-option price E[(X - Y)^+] for joint lognormals."""
    sig = np.sqrt(sigma_x**2 + sigma_y**2 - 2.0 * rho * sigma_x * sigma_y)
    st = sig * np.sqrt(maturity)
    d1 = (np.log(spot_x / spot_y) + 0.5 * st**2) / st
    d2 = d1 - st
    return float(spot_x * ndtr(d1) - spot_y * ndtr(d2))


def owens_t_bivariate_normal_cdf(h, k, rho):
    """P(Z1 <= h, Z2 <= k) for finite h, k and 0 < |rho| < 1 through Owen's T
    function, a route independent of the Gauss-Legendre rules that the
    library uses for |rho| < 0.925."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    s = np.sqrt(1.0 - rho * rho)
    # a zero argument moved by 1e-15 moves the CDF by less than 1e-15
    hh = np.where(h == 0.0, 1e-15, h)
    kk = np.where(k == 0.0, 1e-15, k)
    t = owens_t(hh, (kk - rho * hh) / (hh * s)) + owens_t(kk, (hh - rho * kk) / (kk * s))
    delta = np.where(hh * kk > 0.0, 0.0, 0.5)
    return np.clip(0.5 * (ndtr(hh) + ndtr(kk)) - t - delta, 0.0, 1.0)


def black_call(spot, strike, sigma, maturity) -> float:
    """Undiscounted Black call price E[(X - K)^+] for a martingale lognormal."""
    if strike <= 0:
        return float(spot - strike)
    st = sigma * np.sqrt(maturity)
    d1 = (np.log(spot / strike) + 0.5 * st**2) / st
    return float(spot * ndtr(d1) - strike * ndtr(d1 - st))


def sample_gaussian_lognormals(rho, sigma_x, sigma_y, spot, maturity, n, seed):
    """Joint lognormal terminal values under a Gaussian copula."""
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = rho * z1 + np.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    rt = np.sqrt(maturity)
    x = spot * np.exp(sigma_x * rt * z1 - 0.5 * sigma_x**2 * maturity)
    y = spot * np.exp(sigma_y * rt * z2 - 0.5 * sigma_y**2 * maturity)
    return x, y


def mixture_values(rng, a, b):
    """Copula values at (a, b) from a random convex mixture of the Frechet
    bounds and the product copula; always quasi-copula-compatible."""
    w = rng.dirichlet(np.ones(3))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return w[0] * np.maximum(0.0, a + b - 1.0) + w[1] * a * b + w[2] * np.minimum(a, b)


def random_point_set(rng, size, kind):
    """(a, b, theta) triples on an increasing / decreasing / arbitrary set."""
    a = np.sort(rng.uniform(0.0, 1.0, size))
    b = rng.uniform(0.0, 1.0, size)
    if kind == "increasing":
        b = np.sort(b)
    elif kind == "decreasing":
        b = np.sort(b)[::-1]
    theta = mixture_values(rng, a, b)
    return list(zip(a.tolist(), b.tolist(), theta.tolist()))


def volume(surface, u1, u2, v1, v2) -> float:
    """Mass that ``surface`` assigns to the rectangle [u1, u2] x [v1, v2];
    a negative value shows a quasi-copula that is not a copula."""
    return float(surface(u2, v2) + surface(u1, v1) - surface(u1, v2) - surface(u2, v1))


def reflect_second(surface):
    """The reflection (u, v) -> u - C(u, 1 - v) of ``surface``: it maps a
    copula to the copula of (U, 1 - V), and is an involution."""
    return lambda u, v: np.asarray(u, dtype=float) - surface(u, 1.0 - np.asarray(v, dtype=float))


def reflected(cs):
    """The constraint set's image under (a, b, theta) -> (a, 1 - b, a - theta):
    the data of the copula of (U, 1 - V).  It swaps increasing and
    decreasing sets, and the upper envelope of ``cs`` is ``reflect_second``
    of the lower envelope of the image."""
    return ConstraintSet(cs.a, 1.0 - cs.b, cs.a - cs.theta)


def survival_value(surface, u, v):
    """The survival copula u + v - 1 + C(1 - u, 1 - v) of ``surface``: the
    copula of (1 - U, 1 - V)."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return u + v - 1.0 + surface(1.0 - u, 1.0 - v)


def direct_envelopes(points, u, v):
    """(upper, lower) point-set envelopes at (u, v) by their definition: the
    Frechet bounds tightened by every constraint's Lipschitz cone, with all
    constraints broadcast along a trailing axis."""
    a, b, t = (np.asarray(col, dtype=float) for col in zip(*points))
    u = np.asarray(u, dtype=float)[..., None]
    v = np.asarray(v, dtype=float)[..., None]
    upper = t + np.maximum(u - a, 0.0) + np.maximum(v - b, 0.0)
    lower = t - np.maximum(a - u, 0.0) - np.maximum(b - v, 0.0)
    upper = np.minimum(np.minimum(u, v)[..., 0], upper.min(axis=-1))
    lower = np.maximum(np.maximum(0.0, u + v - 1.0)[..., 0], lower.max(axis=-1))
    return upper, lower


class TwoPointPenalty:
    """sum_i (C(a_i, b_i) - theta_i)^+ as a vectorized surface functional.

    Concordance-monotone with closed-form values on the one-point bound
    copulas; its zero level set reproduces point-set constraints.
    """

    def __init__(self, points):
        self.points = points

    def at_one_point_lower(self, a, b, theta):
        a, b, theta = np.broadcast_arrays(
            np.asarray(a, float), np.asarray(b, float), np.asarray(theta, float)
        )
        out = np.zeros_like(theta)
        for ai, bi, ti in self.points:
            val = np.maximum(
                np.maximum(0.0, ai + bi - 1.0),
                theta - np.maximum(a - ai, 0.0) - np.maximum(b - bi, 0.0),
            )
            out = out + np.maximum(val - ti, 0.0)
        return out

    def at_one_point_upper(self, a, b, theta):
        a, b, theta = np.broadcast_arrays(
            np.asarray(a, float), np.asarray(b, float), np.asarray(theta, float)
        )
        out = np.zeros_like(theta)
        for ai, bi, ti in self.points:
            val = np.minimum(
                np.minimum(ai, bi),
                theta + np.maximum(ai - a, 0.0) + np.maximum(bi - b, 0.0),
            )
            out = out + np.maximum(val - ti, 0.0)
        return out

    @property
    def value_comonotone(self):
        return sum(max(min(ai, bi) - ti, 0.0) for ai, bi, ti in self.points)

    @property
    def value_countermonotone(self):
        return 0.0

    @property
    def level_slack(self):
        return 1e-9 * max(1.0, self.value_comonotone)


def expectation_by_disintegration(
    surface, m_x, m_y, f0, n_u=400_000, delta=1e-7, eps=1e-12
) -> float:
    """E[f0(X, Y)] under a copula whose conditional law V | U=u is a point
    mass, located by bisecting the finite-difference conditional CDF.

    Uses only pointwise surface values, so it is independent of any
    closed-form reduction of the expectation.
    """
    u = (np.arange(n_u) + 0.5) / n_u
    u = np.clip(u, eps, 1.0 - eps)

    def cond_cdf(v):
        lo = np.clip(u - delta, 0.0, 1.0)
        hi = np.clip(u + delta, 0.0, 1.0)
        return (surface(hi, v) - surface(lo, v)) / (hi - lo)

    left = np.zeros_like(u)
    right = np.ones_like(u)
    for _ in range(50):
        mid = 0.5 * (left + right)
        below = cond_cdf(mid) < 0.5
        left = np.where(below, mid, left)
        right = np.where(below, right, mid)
    v = np.clip(0.5 * (left + right), eps, 1.0 - eps)
    vals = np.asarray(f0(m_x.quantile(u), m_y.quantile(v)), dtype=float)
    return float(vals.mean())


# Largest double below 1.  Nodes of ``quad`` next to an end of (0, 1) can
# round onto it, where a quantile is infinite.
_BELOW_ONE = 1.0 - 2.0**-53


def coupling_expectation(g, m_x, m_y, direction="co", points=()):
    """E[g(X, Y)] under the comonotone (``co``) or countermonotone
    (``counter``) coupling: the integral of g(q_X(u), q_Y(u)), or of
    g(q_X(1 - u), q_Y(u)), over (0, 1) by ``scipy.integrate.quad``, split
    at ``points``."""
    if direction not in ("co", "counter"):
        raise ValueError("direction must be 'co' or 'counter'")

    def integrand(u):
        ux = 1.0 - u if direction == "counter" else u
        x = m_x.quantile(min(max(ux, 1e-300), _BELOW_ONE))
        return float(g(x, m_y.quantile(min(u, _BELOW_ONE))))

    edges = sorted({0.0, 1.0, *(float(p) for p in points if 0.0 < p < 1.0)})
    return sum(
        quad(integrand, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=500)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def coupling_price(payoff, m_x, m_y, direction="co"):
    """Price of a catalog payoff under the comonotone or countermonotone
    coupling, split at the strikes' CDF values and where the coupled
    quantiles cross."""
    strikes = [k for k in (payoff.strike, payoff.strike1, payoff.strike2) if k > 0.0]
    fx = [float(m_x.cdf(k)) for k in strikes]
    points = [1.0 - f for f in fx] if direction == "counter" else fx
    points += [float(m_y.cdf(k)) for k in strikes]

    def gap(u):
        ux = 1.0 - u if direction == "counter" else u
        return m_x.quantile(ux) - m_y.quantile(u)

    u = np.linspace(1e-9, 1.0 - 1e-9, 4097)
    d = gap(u)
    for i in np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0):
        points.append(brentq(gap, u[i], u[i + 1], xtol=1e-15))
    return coupling_expectation(
        lambda x, y: payoff_value(payoff, x, y), m_x, m_y, direction, points
    )
