import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import copulabounds as cb
from copulabounds import pricing, quadrature
from copulabounds.pricing import InconsistentIntervalError
from copulabounds.quadrature import refine_roots
from copulabounds.scenarios import ScenarioConfig, sweep_grid

from _oracles import (
    coupling_expectation,
    coupling_price,
    margrabe_price,
    random_point_set,
    sample_gaussian_lognormals,
)

ALL_TABLE_KINDS = [
    cb.basket(1.0, 1.0, 190.0),
    cb.basket(1.0, -1.0, 10.0),
    cb.call_on_min(100.0),
    cb.put_on_min(100.0),
    cb.call_on_max(100.0),
    cb.put_on_max(100.0),
    cb.worst_off_call(90.0, 110.0),
    cb.worst_off_put(110.0, 90.0),
    cb.best_off_call(90.0, 110.0),
    cb.best_off_put(110.0, 90.0),
]


class TestPayoffCatalog:
    def test_values(self):
        assert cb.payoff_value(cb.spread(5.0), 112.0, 100.0) == 7.0
        assert cb.payoff_value(cb.call_on_min(90.0), 100.0, 95.0) == 5.0
        assert cb.payoff_value(cb.put_on_max(120.0), 100.0, 95.0) == 20.0
        assert cb.payoff_value(cb.worst_off_call(90.0, 95.0), 100.0, 94.0) == 0.0
        assert cb.payoff_value(cb.best_off_put(90.0, 95.0), 100.0, 94.0) == 1.0

    def test_signs(self):
        assert cb.payoff_sign(cb.basket(1.0, 2.0, 50.0)) == 1
        assert cb.payoff_sign(cb.spread(0.0)) == -1
        assert cb.payoff_sign(cb.call_on_min(10.0)) == 1
        assert cb.payoff_sign(cb.call_on_max(10.0)) == -1
        # puts carry the opposite curvature of the matching calls
        assert cb.payoff_sign(cb.put_on_min(10.0)) == -1
        assert cb.payoff_sign(cb.put_on_max(10.0)) == 1
        assert cb.payoff_sign(cb.worst_off_put(10.0, 20.0)) == 1
        assert cb.payoff_sign(cb.best_off_call(10.0, 20.0)) == -1

    def test_put_call_degeneracies(self):
        # worst-off-put(K, K) is the put on the maximum, best-off-put(K, K)
        # the put on the minimum; signs must agree with those identities
        assert cb.payoff_sign(cb.worst_off_put(50.0, 50.0)) == cb.payoff_sign(
            cb.put_on_max(50.0)
        )
        assert cb.payoff_sign(cb.best_off_put(50.0, 50.0)) == cb.payoff_sign(
            cb.put_on_min(50.0)
        )
        x = np.linspace(0.0, 120.0, 7)
        y = np.linspace(0.0, 120.0, 7)[::-1]
        assert np.allclose(
            cb.payoff_value(cb.worst_off_put(50.0, 50.0), x, y),
            cb.payoff_value(cb.put_on_max(50.0), x, y),
        )

    @given(
        xy=st.lists(st.tuples(st.floats(0.0, 300.0), st.floats(0.0, 300.0)), min_size=1,
                    max_size=20),
        k1=st.floats(0.0, 250.0),
        k2=st.floats(0.0, 250.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_min_max_kinds_equal_their_textbook_formulas(self, xy, k1, k2):
        x, y = np.array(xy).T
        lo, hi = np.minimum(x, y), np.maximum(x, y)

        def pos(a):
            return np.maximum(a, 0.0)

        textbook = {
            cb.call_on_min(k1): pos(lo - k1),
            cb.put_on_min(k1): pos(k1 - lo),
            cb.call_on_max(k1): pos(hi - k1),
            cb.put_on_max(k1): pos(k1 - hi),
            cb.worst_off_call(k1, k2): np.minimum(pos(x - k1), pos(y - k2)),
            cb.worst_off_put(k1, k2): np.minimum(pos(k1 - x), pos(k2 - y)),
            cb.best_off_call(k1, k2): np.maximum(pos(x - k1), pos(y - k2)),
            cb.best_off_put(k1, k2): np.maximum(pos(k1 - x), pos(k2 - y)),
        }
        for payoff, want in textbook.items():
            np.testing.assert_array_equal(cb.payoff_value(payoff, x, y), want, err_msg=payoff.kind)

    def test_rejections(self):
        with pytest.raises(ValueError):
            cb.basket(0.0, 1.0, 5.0)
        with pytest.raises(ValueError):
            cb.call_on_min(-1.0)
        with pytest.raises(ValueError):
            cb.worst_off_call(-5.0, 10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "make, params",
        [
            pytest.param(make, params, id=make.__name__)
            for make, params in [
                (cb.basket, {"alpha": 1.0, "beta": 1.0, "strike": 0.0}),
                (cb.spread, {"strike": 0.0}),
                *[(m, {"strike": 100.0})
                  for m in (cb.call_on_min, cb.put_on_min, cb.call_on_max, cb.put_on_max)],
                *[(m, {"k1": 90.0, "k2": 110.0}) for m in (
                    cb.worst_off_call, cb.worst_off_put, cb.best_off_call, cb.best_off_put)],
            ]
        ],
    )
    def test_non_finite_parameters_rejected(self, make, params, bad):
        # the two-strike constructors' k1 and k2 are the spec's strike1 and strike2
        fields = {"k1": "strike1", "k2": "strike2"}
        for name in params:
            with pytest.raises(ValueError, match=f"{fields.get(name, name)} must be finite"):
                make(**{**params, name: bad})

    @pytest.mark.parametrize("params, fragment", [
        # priced as the zero-strike call, 103.988 under M instead of 113.988
        (dict(kind="call-on-max", strike=-10.0, strike1=-10.0, strike2=-10.0),
         "strikes must be nonnegative"),
        # a ZeroDivisionError when priced
        (dict(kind="basket", alpha=0.0, beta=1.0, strike=5.0), "weights must be nonzero"),
        # a QuadratureError when priced
        (dict(kind="basket", alpha=1.0, beta=-1.0, strike=np.nan), "strike must be finite"),
    ], ids=["negative-strike", "zero-weight", "nan-strike"])
    def test_directly_built_spec_checked(self, params, fragment):
        with pytest.raises(ValueError, match=fragment):
            pricing.PayoffSpec(**params)

    @pytest.mark.parametrize("params", [
        # priced as the zero-strike call: 103.988 under M, not call_on_max(100)'s 11.953
        dict(kind="call-on-max", strike=100.0),
        dict(kind="put-on-min", strike=5.0, strike1=5.0, strike2=6.0),
        dict(kind="call-on-min", strike1=5.0, strike2=5.0),
        dict(kind="put-on-max", strike=5.0, strike1=4.0, strike2=5.0),
    ], ids=["strike-only", "strike2-differs", "strike-zero", "strike1-differs"])
    def test_one_strike_kind_needs_equal_strikes(self, params):
        with pytest.raises(ValueError, match="needs strike == strike1 == strike2"):
            pricing.PayoffSpec(**params)

    @pytest.mark.parametrize("kind", ["worst-off-call", "worst-off-put",
                                      "best-off-call", "best-off-put"])
    def test_two_strike_kind_rejects_a_strike(self, kind):
        # strike is never read by these kinds: a nonzero one was ignored
        with pytest.raises(ValueError, match="strike must be 0, got 3.0"):
            pricing.PayoffSpec(kind, strike=3.0, strike1=1.0, strike2=2.0)
        assert pricing.PayoffSpec(kind, strike1=1.0, strike2=2.0).strike == 0.0

    def test_directly_built_spec_stores_floats(self):
        spec = pricing.PayoffSpec("basket", alpha=1, beta=-1, strike=np.float32(5))
        assert spec == cb.spread(5.0)
        assert all(type(getattr(spec, f)) is float
                   for f in ("alpha", "beta", "strike", "strike1", "strike2"))


class TestSurvivalWeight:
    # the joint survival weight P(X > T, Y > T) = 1 - F_X(T) - F_Y(T) + C(F_X(T), F_Y(T))
    # is one minus the first-to-default digital price
    def test_comonotone(self, lognormal_marginals):
        mx, _ = lognormal_marginals
        first, _ = cb.digital_default_prices(cb.FRECHET_UPPER, mx, mx, float(mx.quantile(0.3)))
        assert 1.0 - first == pytest.approx(0.7, abs=1e-12)

    def test_countermonotone_boundary(self, lognormal_marginals):
        # on or above the antidiagonal F_X + F_Y >= 1, W leaves no joint survival
        mx, my = lognormal_marginals
        T = float(mx.quantile(0.6))
        assert float(mx.cdf(T)) + float(my.cdf(T)) >= 1.0
        first, _ = cb.digital_default_prices(cb.FRECHET_LOWER, mx, my, T)
        assert 1.0 - first == pytest.approx(0.0, abs=1e-12)

    def test_independence(self, lognormal_marginals):
        mx, my = lognormal_marginals
        T = float(mx.quantile(0.3))
        first, _ = cb.digital_default_prices(cb.PRODUCT, mx, my, T)
        expected = (1.0 - float(mx.cdf(T))) * (1.0 - float(my.cdf(T)))
        assert 1.0 - first == pytest.approx(expected, abs=1e-12)


class TestPrice:
    def test_basket_zero_strike_is_sum_of_means(self, lognormal_marginals):
        mx, my = lognormal_marginals
        p = cb.basket(1.0, 1.0, 0.0)
        for surf in (
            cb.FRECHET_LOWER,
            cb.PRODUCT,
            cb.FRECHET_UPPER,
            cb.gaussian_copula(0.5),
            cb.gaussian_copula(-0.5),
        ):
            assert cb.price(p, surf, mx, my) == pytest.approx(200.0, abs=1e-6)

    def test_comonotone_identical_spread_is_zero(self):
        m = cb.LognormalMartingale(0.2, 100.0, 1.0)
        got = cb.price(cb.spread(0.0), cb.FRECHET_UPPER, m, m)
        assert got == pytest.approx(0.0, abs=1e-8)

    def test_spread_matches_margrabe(self, lognormal_marginals):
        mx, my = lognormal_marginals
        for rho in (0.0, -0.7, 0.5):
            got = cb.price(cb.spread(0.0), cb.gaussian_copula(rho), mx, my)
            assert got == pytest.approx(
                margrabe_price(100.0, 100.0, 0.2, 0.3, rho, 1.0), abs=1e-6
            )

    def test_monte_carlo_representation_equivalence(self, lognormal_marginals):
        mx, my = lognormal_marginals
        rho = 0.3
        x, y = sample_gaussian_lognormals(rho, 0.2, 0.3, 100.0, 1.0, 1_000_000, seed=5)
        surf = cb.gaussian_copula(rho)
        for p in (
            cb.basket(1.0, 1.0, 190.0),
            cb.spread(0.0),
            cb.call_on_min(100.0),
            cb.worst_off_call(90.0, 110.0),
        ):
            samples = cb.payoff_value(p, x, y)
            mc = float(samples.mean())
            se = float(samples.std(ddof=1) / np.sqrt(samples.size))
            got = cb.price(p, surf, mx, my)
            assert abs(got - mc) <= 3.0 * se

    def test_negative_strike_spread_decomposition(self, lognormal_marginals):
        # (x - y - K)^+ = x - y - K + (y - x + K)^+ in expectation
        mx, my = lognormal_marginals
        surf = cb.gaussian_copula(0.4)
        K = -20.0
        direct = cb.price(cb.spread(K), surf, mx, my)
        flipped = cb.price(cb.basket(-1.0, 1.0, -K), surf, mx, my)
        assert direct == pytest.approx(100.0 - 100.0 - K + flipped, abs=1e-6)

    @pytest.mark.parametrize("kind", ["log-product", "product-xy"])
    def test_log_product_kind_unknown(self, lognormal_marginals, kind):
        mx, my = lognormal_marginals
        with pytest.raises(ValueError, match=f"unknown payoff kind '{kind}'"):
            cb.price(pricing.PayoffSpec(kind), cb.PRODUCT, mx, my)

    @pytest.mark.parametrize("K", [80.0, 120.0])
    @pytest.mark.parametrize("kind", ["call_on_min", "call_on_max"])
    def test_independent_min_and_max_calls_factorize(self, lognormal_marginals, kind, K):
        # under the product copula P(min > t) = S_x(t) S_y(t) and
        # P(max > t) = 1 - F_x(t) F_y(t); a call is the integral of its tail
        mx, my = lognormal_marginals
        if kind == "call_on_min":
            tail = lambda t: (1.0 - float(mx.cdf(t))) * (1.0 - float(my.cdf(t)))
        else:
            tail = lambda t: 1.0 - float(mx.cdf(t)) * float(my.cdf(t))
        ref, err = quad(tail, K, np.inf, epsabs=1e-11, epsrel=1e-11, limit=200)
        assert err < 1e-9
        got = cb.price(getattr(cb, kind)(K), cb.PRODUCT, mx, my)
        assert got == pytest.approx(ref, abs=1e-8)  # measured 1.1e-9 at most

    def test_accepts_quasi_copula_surfaces(self, lognormal_marginals):
        mx, my = lognormal_marginals
        A = cb.upper_bound([(1 / 3, 1 / 3, 0.0), (2 / 3, 2 / 3, 1 / 3)])
        assert not A.is_copula
        val = cb.price(cb.call_on_min(100.0), A, mx, my)
        assert np.isfinite(val)


class TestDiagonalPrices:
    @pytest.mark.parametrize("payoff", ALL_TABLE_KINDS, ids=lambda p: p.kind + str(p.strike))
    def test_eq9_matches_diagonal_under_m_and_w(self, payoff, lognormal_marginals):
        mx, my = lognormal_marginals
        assert cb.price(payoff, cb.FRECHET_UPPER, mx, my) == pytest.approx(
            coupling_price(payoff, mx, my, "co"), abs=1e-6
        )
        assert cb.price(payoff, cb.FRECHET_LOWER, mx, my) == pytest.approx(
            coupling_price(payoff, mx, my, "counter"), abs=1e-6
        )

    def test_put_on_max_zero_strike_worthless(self, lognormal_marginals):
        mx, my = lognormal_marginals
        p = cb.put_on_max(0.0)
        assert coupling_price(p, mx, my, "co") == 0.0
        assert coupling_price(p, mx, my, "counter") == 0.0

    def test_spread_maximal_under_w(self, lognormal_marginals):
        mx, my = lognormal_marginals
        p = cb.spread(0.0)
        w_price = coupling_price(p, mx, my, "counter")
        assert w_price > cb.price(p, cb.gaussian_copula(-0.7), mx, my)

    def test_log_product_comonotone_closed_form(self):
        # self-check of the coupling oracle on a callable integrand; identical
        # marginals: E[(log X)^2] = Var(log X) + (E log X)^2
        m = cb.LognormalMartingale(0.2, 100.0, 1.0)
        got = coupling_expectation(lambda x, y: np.log(x) * np.log(y), m, m)
        assert got == pytest.approx(m.log_var + m.log_mean**2, abs=1e-8)

    def test_oracle_comonotone_identical_spread_vanishes(self, exp_marginals):
        mx, _ = exp_marginals
        got = coupling_expectation(lambda x, y: np.maximum(x - y, 0.0), mx, mx)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_oracle_bad_direction(self, exp_marginals):
        mx, my = exp_marginals
        with pytest.raises(ValueError):
            coupling_expectation(lambda x, y: x, mx, my, direction="sideways")


class TestOneStrikeIdentities:
    @pytest.mark.parametrize("surface", [cb.FRECHET_LOWER, cb.PRODUCT, cb.gaussian_copula(-0.7),
                                         cb.FRECHET_UPPER], ids=["W", "Pi", "gauss-0.7", "M"])
    @pytest.mark.parametrize("K", [100.0, 1e5])
    def test_two_strike_kinds_at_equal_strikes_price_as_one_strike_kinds(
        self, lognormal_marginals, surface, K
    ):
        # the same payoffs, so the same prices; far out of the money the put
        # paths must stop at the marginals' cutoffs like the one-strike ones
        pairs = [
            (cb.worst_off_put(K, K), cb.put_on_max(K)),
            (cb.best_off_put(K, K), cb.put_on_min(K)),
            (cb.worst_off_call(K, K), cb.call_on_min(K)),
            (cb.best_off_call(K, K), cb.call_on_max(K)),
        ]
        for two, one in pairs:
            want = cb.price(one, surface, *lognormal_marginals)
            got = cb.price(two, surface, *lognormal_marginals)
            assert got == pytest.approx(want, rel=0.0, abs=1e-9 * max(1.0, abs(want))), two.kind


class TestConcordanceMonotonicity:
    @pytest.mark.parametrize("payoff", ALL_TABLE_KINDS, ids=lambda p: p.kind + str(p.strike))
    def test_price_monotone_in_dependence(self, payoff, lognormal_marginals):
        mx, my = lognormal_marginals
        lo = cb.price(payoff, cb.gaussian_copula(-0.5), mx, my, panels=801)
        hi = cb.price(payoff, cb.gaussian_copula(0.5), mx, my, panels=801)
        if cb.payoff_sign(payoff) > 0:
            assert lo <= hi + 1e-6
        else:
            assert hi <= lo + 1e-6


class TestPriceInterval:
    def test_unconstrained_equals_diagonal_prices(self, lognormal_marginals):
        mx, my = lognormal_marginals
        for payoff in (cb.call_on_min(100.0), cb.spread(0.0)):
            iv = cb.price_interval(payoff, cb.FRECHET_LOWER, cb.FRECHET_UPPER, mx, my)
            lo = coupling_price(payoff, mx, my, "counter")
            hi = coupling_price(payoff, mx, my, "co")
            if cb.payoff_sign(payoff) < 0:
                lo, hi = hi, lo
            assert iv.lower == pytest.approx(lo, abs=1e-6)
            assert iv.upper == pytest.approx(hi, abs=1e-6)

    def test_sign_swaps_surfaces(self, lognormal_marginals):
        mx, my = lognormal_marginals
        iv = cb.price_interval(cb.spread(0.0), cb.FRECHET_LOWER, cb.FRECHET_UPPER, mx, my)
        assert iv.lower_surface is cb.FRECHET_UPPER
        assert iv.upper_surface is cb.FRECHET_LOWER
        assert iv.sharp_lower and iv.sharp_upper

    def test_degenerate_interval(self, lognormal_marginals):
        mx, my = lognormal_marginals
        C = cb.gaussian_copula(0.2)
        iv = cb.price_interval(cb.call_on_min(100.0), C, C, mx, my)
        assert iv.width == pytest.approx(0.0, abs=1e-12)

    def test_constrained_interval_contains_reference(self, exp_marginals):
        mx, my = exp_marginals
        ref = cb.gaussian_copula(0.0)
        quotes = [(T, float(ref(float(mx.cdf(T)), float(my.cdf(T))))) for T in (2.0, 3.0)]
        low, up = cb.bounds_from_second_to_default(quotes, mx, my)
        payoff = cb.call_on_min(3.0)
        improved = cb.price_interval(payoff, low, up, mx, my, panels=801)
        frechet = cb.price_interval(
            payoff, cb.FRECHET_LOWER, cb.FRECHET_UPPER, mx, my, panels=801
        )
        p_ref = cb.price(payoff, ref, mx, my, panels=801)
        assert improved.lower - 1e-9 <= p_ref <= improved.upper + 1e-9
        assert improved.lower >= frechet.lower - 1e-9
        assert improved.upper <= frechet.upper + 1e-9
        assert improved.sharp_lower  # increasing constraints make the lower bound a copula

    def test_crossed_interval_reported(self, lognormal_marginals):
        mx, my = lognormal_marginals
        # deliberately swapped surfaces cross once the band is wide enough
        with pytest.raises(InconsistentIntervalError):
            cb.price_interval(
                cb.call_on_min(100.0), cb.FRECHET_UPPER, cb.FRECHET_LOWER, mx, my
            )


class TestPriceBatch:
    SURFACES = (cb.FRECHET_LOWER, cb.PRODUCT, cb.gaussian_copula(0.4), cb.FRECHET_UPPER)

    def assert_matches_price(self, payoffs, mx, my):
        got = cb.price_batch(payoffs, self.SURFACES, mx, my)
        assert got.shape == (len(payoffs), len(self.SURFACES))
        for i, p in enumerate(payoffs):
            for j, surf in enumerate(self.SURFACES):
                assert got[i, j] == pytest.approx(cb.price(p, surf, mx, my), abs=1e-8)

    def test_every_catalog_kind_matches_price(self, lognormal_marginals):
        self.assert_matches_price(ALL_TABLE_KINDS, *lognormal_marginals)

    def test_mixed_one_strike_batch_matches_price(self, lognormal_marginals):
        # one shared diagonal rule; a strike off its panel edge shows as ~1e-2
        payoffs = [
            make(K)
            for make in (cb.call_on_min, cb.put_on_min, cb.call_on_max, cb.put_on_max)
            for K in (0.0, 80.0, 100.0, 125.0)
        ]
        self.assert_matches_price(payoffs, *lognormal_marginals)

    # Two lines: y = x - 10 (the spread at 10 and the three two-strike
    # kinds at strikes 110 and 100) and the diagonal (the zero-strike spread
    # and the call on the maximum).
    MIXED = (cb.spread(10.0), cb.worst_off_call(110.0, 100.0), cb.worst_off_put(110.0, 100.0),
             cb.best_off_put(110.0, 100.0), cb.spread(0.0), cb.call_on_max(100.0))

    def test_payoffs_sharing_a_line_match_price(self, lognormal_marginals):
        self.assert_matches_price(list(self.MIXED), *lognormal_marginals)

    def test_one_rule_per_line(self, lognormal_marginals, monkeypatch):
        lines = []
        rule = quadrature.interval_rule
        monkeypatch.setattr(
            pricing, "interval_rule", lambda *a, **k: lines.append(a[:2]) or rule(*a, **k)
        )
        mx, my = lognormal_marginals
        cb.price_batch(list(self.MIXED), self.SURFACES, mx, my)
        assert len(lines) == 2
        lines.clear()
        prices = cb.price_batch([cb.spread(0.0)] * 3, self.SURFACES, mx, my)
        assert len(lines) == 1
        assert np.all(prices == prices[0])

    def test_equal_payoffs_are_priced_once(self, lognormal_marginals, monkeypatch):
        # the default log-correlation sweep passes 21 equal spreads
        mx, my = lognormal_marginals
        surfaces = [cb.FRECHET_LOWER, cb.FRECHET_UPPER]
        one = cb.price_batch([cb.spread(0.0)], surfaces, mx, my)
        calls = {"integrate_checked": 0, "upper_cutoff": 0}
        for owner, name in ((quadrature.Rule, "integrate_checked"),
                            (mx, "upper_cutoff"), (my, "upper_cutoff")):
            method = getattr(owner, name)

            def counted(*a, method=method, name=name, **k):
                calls[name] += 1
                return method(*a, **k)

            monkeypatch.setattr(owner, name, counted)
        many = cb.price_batch([cb.spread(0.0)] * 21, surfaces, mx, my)
        assert calls == {"integrate_checked": 2, "upper_cutoff": 2}
        np.testing.assert_array_equal(many, np.repeat(one, 21, axis=0))

    def test_a_surface_listed_twice_is_priced_once(self, lognormal_marginals):
        # a scenario lists each row's five surfaces, so a band shared by the
        # rows of a sweep is listed once per row
        mx, my = lognormal_marginals
        ref, calls = cb.gaussian_copula(0.4), []
        counted = cb.CopulaSurface(lambda u, v: calls.append(np.shape(u)) or ref.fn(u, v))
        payoffs = [cb.spread(0.0), cb.spread(10.0)]  # two lines, so two path rules
        once = cb.price_batch(payoffs, [counted, cb.PRODUCT], mx, my)
        calls.clear()
        twice = cb.price_batch(payoffs, [counted, cb.PRODUCT, counted], mx, my)
        assert len(calls) == 2
        np.testing.assert_array_equal(twice[:, 0], twice[:, 2])
        np.testing.assert_array_equal(twice, once[:, [0, 1, 0]])

    @pytest.mark.parametrize("panels", [0, -3, 40.5])
    @pytest.mark.parametrize("call", ["price", "price_batch", "price_interval"])
    def test_panels_must_be_a_positive_integer(self, lognormal_marginals, call, panels):
        # a path rule needs at least one panel, and a fraction is not truncated
        mx, my = lognormal_marginals
        payoff, surface = cb.spread(0.0), cb.PRODUCT
        args = {"price": (payoff, surface), "price_batch": ([payoff], [surface]),
                "price_interval": (payoff, surface, surface)}[call]
        with pytest.raises(ValueError, match="panels must be an integer >= 1"):
            getattr(cb, call)(*args, mx, my, panels=panels)

    @pytest.mark.parametrize("n", [1, 3])
    def test_an_empty_batch_builds_no_rule(self, lognormal_marginals, monkeypatch, n):
        # with no payoff there is no path and no edge term to integrate: the
        # batch returns before any kink search, rule or surface call, but
        # still checks its panels
        def unused(*a, **k):
            raise AssertionError("an empty batch did some work")

        for name in ("_path_breaks", "_path_terms", "_edge_terms", "evaluate_surfaces"):
            monkeypatch.setattr(pricing, name, unused)
        mx, my = lognormal_marginals
        surfaces = [cb.FRECHET_LOWER, cb.PRODUCT, cb.FRECHET_UPPER][:n]
        assert cb.price_batch([], surfaces, mx, my).shape == (0, n)
        with pytest.raises(ValueError, match="panels must be an integer >= 1"):
            cb.price_batch([], surfaces, mx, my, panels=0)

    def test_log_product_still_raises(self, lognormal_marginals):
        mx, my = lognormal_marginals
        with pytest.raises(ValueError, match="unknown payoff kind"):
            payoffs = [cb.spread(0.0), pricing.PayoffSpec("log-product")]
            cb.price_batch(payoffs, [cb.PRODUCT], mx, my)

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12))
    @settings(max_examples=8, deadline=None)
    def test_point_set_envelopes_give_ordered_rows(self, lognormal_marginals, seed, size):
        mx, my = lognormal_marginals
        pts = random_point_set(np.random.default_rng(seed), size, "none")
        surfaces = (cb.FRECHET_LOWER, cb.lower_bound(pts), cb.upper_bound(pts), cb.FRECHET_UPPER)
        payoffs = ALL_TABLE_KINDS + [cb.call_on_max(80.0), cb.put_on_min(120.0)]
        prices = cb.price_batch(payoffs, surfaces, mx, my, panels=200)
        signs = np.array([cb.payoff_sign(p) for p in payoffs], dtype=float)
        assert np.all(np.diff(signs[:, None] * prices, axis=1) >= -1e-9)

    @given(strikes=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=12),
           rhos=st.lists(st.floats(-0.99, 0.99), min_size=2, max_size=2, unique=True))
    @settings(max_examples=40, deadline=None)
    @example(strikes=[41.0], rhos=[0.0, 0.984375])
    def test_spread_sweep_prices_ordered_in_rho(self, lognormal_marginals, strikes, rhos):
        # W <= Gauss(rho1) <= Gauss(rho2) <= M pointwise, so the spread prices,
        # which fall with dependence, come out in the reverse order exactly.
        # The kernel resolves the copula to about 5e-16, so rho a few doubles
        # apart can price up to 3e-14 out of order; 1e-6 apart they differ by
        # far more than that.
        r1, r2 = sorted(rhos)
        assume(r2 - r1 >= 1e-6)
        surfaces = [cb.FRECHET_LOWER, cb.gaussian_copula(r1), cb.gaussian_copula(r2),
                    cb.FRECHET_UPPER]
        payoffs = [cb.spread(k) for k in strikes]
        prices = cb.price_batch(payoffs, surfaces, *lognormal_marginals, panels=200)
        assert np.all(np.diff(prices, axis=1) <= 0.0)

    def test_keeps_no_quadrature_state(self, lognormal_marginals):
        # rules are built per call: nothing allocated by a sweep outlives it
        payoffs = [cb.spread(k) for k in np.linspace(-50.0, 50.0, 40)]
        tracemalloc.start()
        try:
            cb.price_batch(payoffs, [cb.FRECHET_LOWER, cb.FRECHET_UPPER], *lognormal_marginals)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20


def _zero_tail_marginal() -> cb.Tabulated:
    """Step CDF of an exponential of mean 12 on 800 abscissas up to 400,
    whose survival reaches 0 at 350, before its last abscissa."""
    xs = np.linspace(0.5, 400.0, 800)
    return cb.Tabulated(xs, np.where(xs >= 350.0, 1.0, -np.expm1(-xs / 12.0)))


class TestMergedTails:
    """Path rules merge their uniform panels where the path's survival bound
    s = min(1 - F_X(x), 1 - F_Y(y)) is below quadrature._TAIL_SURVIVAL."""

    SURFACES = (cb.FRECHET_LOWER, cb.PRODUCT, cb.gaussian_copula(0.4), cb.FRECHET_UPPER)
    CASES = [
        (cb.spread(10.0), False),  # s falls toward the path's upper end
        (cb.basket(1.0, 1.0, 600.0), False),  # cy < 0: s is small at both ends
        (cb.spread(0.0), True),  # s reaches 0 at x = 350, inside the path
    ]

    @pytest.mark.parametrize("payoff, zero_tail", CASES)
    def test_rule_shape(self, lognormal_marginals, monkeypatch, payoff, zero_tail):
        mx, my = lognormal_marginals
        if zero_tail:
            mx = _zero_tail_marginal()
        seen = []
        rule = quadrature.interval_rule

        def spy(lo, hi, panels, breakpoints=(), survival=None):
            seen.append((rule(lo, hi, panels, breakpoints, survival), lo, hi, list(breakpoints)))
            return seen[-1][0]

        monkeypatch.setattr(pricing, "interval_rule", spy)
        cb.price_batch([payoff], self.SURFACES, mx, my, panels=2001)
        assert len(seen) == 1
        rule, lo, hi, breakpoints = seen[0]
        cx, dx, cy, dy = pricing._mu_segment(payoff, mx, my)[2:6]
        uniform = np.linspace(lo, hi, 2002)
        s = np.minimum(1.0 - mx.cdf(np.maximum(cx * uniform + dx, 0.0)),
                       1.0 - my.cdf(np.maximum(cy * uniform + dy, 0.0)))
        tail = s < quadrature._TAIL_SURVIVAL
        edges = rule.edges
        inside = [b for b in breakpoints if lo < b < hi]
        kept = np.isin(uniform, edges)
        # the bulk keeps its uniform edges bit for bit, every breakpoint
        # stays, and nothing else is added
        assert np.all(kept[~tail])
        assert np.all(np.isin(inside, edges))
        assert np.all(np.isin(edges, np.concatenate([uniform, inside])))
        # the tail was merged, never into panels finer than uniform ones
        assert kept.sum() < uniform.size
        assert np.all(np.diff(uniform[kept]) >= (hi - lo) / 2001 * (1.0 - 1e-9))
        # beyond the path's ends, at most one edge per 1/6 decade of s on
        # each side of its largest value (s = 0 is one band)
        with np.errstate(divide="ignore"):
            band = np.floor(6.0 * np.log10(s))
        side = np.arange(s.size) > np.argmax(s)
        inner = kept & tail
        inner[[0, -1]] = False
        pairs = list(zip(band[inner].tolist(), side[inner].tolist()))
        assert len(pairs) == len(set(pairs))
        if cy < 0.0:
            assert tail[0] and tail[-1]
        if zero_tail:
            # the merged panels stop where s turns 0
            assert s[-1] == 0.0 and uniform[np.argmax(s == 0.0)] in edges

    @pytest.mark.parametrize("payoff, zero_tail", CASES)
    def test_prices_match_uniform_panels(self, lognormal_marginals, monkeypatch, payoff, zero_tail):
        mx, my = lognormal_marginals
        if zero_tail:
            mx = _zero_tail_marginal()
        graded = cb.price_batch([payoff], self.SURFACES, mx, my)
        monkeypatch.setattr(quadrature, "_TAIL_SURVIVAL", 0.0)
        uniform = cb.price_batch([payoff], self.SURFACES, mx, my)
        assert np.max(np.abs(graded - uniform)) <= 1e-9

    def test_deep_tail_point_constraints_match_uniform_panels(self, lognormal_marginals,
                                                             monkeypatch):
        # the point-set envelopes declare no kinks; 60 of these constraints
        # lie at survivals 1e-5 to 1e-10, where the panels are merged
        mx, my = lognormal_marginals
        a = np.concatenate([np.linspace(0.05, 0.95, 20), 1.0 - np.logspace(-5.0, -10.0, 60)])
        ref = cb.gaussian_copula(0.5)
        pts = cb.ConstraintSet.from_points(zip(a, a, ref(a, a)))
        surfaces = [cb.lower_bound(pts), ref, cb.upper_bound(pts)]
        payoffs = [cb.spread(k) for k in np.linspace(-50.0, 50.0, 11)]
        graded = cb.price_batch(payoffs, surfaces, mx, my)
        monkeypatch.setattr(quadrature, "_TAIL_SURVIVAL", 0.0)
        uniform = cb.price_batch(payoffs, surfaces, mx, my)
        assert np.max(np.abs(graded - uniform)) <= 1e-9


@pytest.fixture(scope="module")
def coupling_oracles(lognormal_marginals):
    """Payoffs with their prices under W and M by the coupling oracle."""
    mx, my = lognormal_marginals
    payoffs = [cb.call_on_max(100.0), cb.spread(0.0), cb.spread(20.0), cb.spread(-20.0)]
    return payoffs, np.array(
        [[coupling_price(p, mx, my, d) for d in ("counter", "co")] for p in payoffs]
    )


class TestEdgeTerms:
    """E[f(X, 0)] and E[f(0, Y)] run on the graded unit grid, whatever
    ``panels`` is."""

    @pytest.mark.parametrize("panels", [48, 100])
    def test_coarse_path_rules_match_oracles(self, lognormal_marginals, coupling_oracles, panels):
        # the edge terms do not depend on panels; the path rules converge fast
        payoffs, want = coupling_oracles
        surfaces = [cb.FRECHET_LOWER, cb.FRECHET_UPPER, cb.gaussian_copula(-0.7)]
        got = cb.price_batch(payoffs, surfaces, *lognormal_marginals, panels=panels)
        np.testing.assert_allclose(got[:, :2], want, rtol=0.0, atol=1e-8)
        margrabe = margrabe_price(100.0, 100.0, 0.2, 0.3, -0.7, 1.0)
        assert got[1, 2] == pytest.approx(margrabe, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 101])
    def test_two_unit_rules_per_batch(self, lognormal_marginals, monkeypatch, n):
        built = []
        unit_rule = quadrature.unit_rule
        monkeypatch.setattr(
            pricing, "unit_rule", lambda *a, **k: built.append(a) or unit_rule(*a, **k)
        )
        payoffs = [cb.spread(k) for k in np.linspace(-50.0, 50.0, n)]
        cb.price_batch(payoffs, [cb.PRODUCT], *lognormal_marginals, panels=48)
        assert len(built) == 2


class TestDigitalDefaults:
    def test_product_closed_form(self, exp_marginals):
        mx, my = exp_marginals
        first, second = cb.digital_default_prices(cb.PRODUCT, mx, my, 2.0)
        expected = (1 - np.exp(-0.4)) * (1 - np.exp(-0.6))
        assert second == pytest.approx(expected, abs=1e-15)

    def test_no_mass_at_time_zero(self, exp_marginals):
        mx, my = exp_marginals
        assert cb.digital_default_prices(cb.PRODUCT, mx, my, 0.0) == (0.0, 0.0)

    def test_comonotone_defaults_coincide(self, exp_marginals):
        mx, _ = exp_marginals
        first, second = cb.digital_default_prices(cb.FRECHET_UPPER, mx, mx, 2.0)
        q = float(mx.cdf(2.0))
        assert first == pytest.approx(q, abs=1e-15)
        assert second == pytest.approx(q, abs=1e-15)

    def test_parity_is_exact(self, exp_marginals, rng):
        mx, my = exp_marginals
        C = cb.gaussian_copula(0.4)
        for T in rng.uniform(0.0, 10.0, 5):
            first, second = cb.digital_default_prices(C, mx, my, float(T))
            assert first == float(mx.cdf(T)) + float(my.cdf(T)) - second

    def test_negative_horizon_rejected(self, exp_marginals):
        mx, my = exp_marginals
        with pytest.raises(ValueError):
            cb.digital_default_prices(cb.PRODUCT, mx, my, -1.0)


def _crossings_of_one_path(m_x, m_y, path, probes=257):
    """Kink crossings of one path found on its own: a scalar probe grid,
    then ``refine_roots`` on its sign changes, for each kink family."""
    if not path.hi > path.lo:
        return np.empty(0)
    grid = np.linspace(path.lo, path.hi, probes)

    def fx(z):
        return m_x.cdf(np.maximum(path.cx * z + path.dx, 0.0))

    def fy(z):
        return m_y.cdf(np.maximum(path.cy * z + path.dy, 0.0))

    roots = []
    for g in (lambda z: fx(z) - fy(z), lambda z: fx(z) + fy(z) - 1.0):
        vals = g(grid)
        sign = np.sign(vals)
        i = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        if i.size:
            roots.append(
                refine_roots(lambda x, _: g(x), grid[i], grid[i + 1], vals[i], vals[i + 1])
            )
    return np.concatenate(roots) if roots else np.empty(0)


_WEIGHTS = st.floats(0.25, 3.0).flatmap(lambda w: st.sampled_from([w, -w]))
_STRIKES = st.floats(0.0, 250.0)
_PAYOFFS = st.one_of(
    st.builds(cb.basket, _WEIGHTS, _WEIGHTS, st.floats(-250.0, 250.0)),
    st.builds(lambda k: cb.call_on_min(k), _STRIKES),
    st.builds(lambda k: cb.put_on_max(k), _STRIKES),
    st.builds(cb.worst_off_call, _STRIKES, _STRIKES),
    st.builds(cb.best_off_call, _STRIKES, _STRIKES),
    st.builds(cb.worst_off_put, _STRIKES, _STRIKES),
    st.builds(cb.best_off_put, _STRIKES, _STRIKES),
)


class TestKinkCrossings:
    @given(
        draws=st.lists(
            st.tuples(_PAYOFFS, st.one_of(st.none(), st.tuples(st.floats(0.5, 2.0),
                                                               st.floats(0.01, 0.99)))),
            min_size=1, max_size=10,
        ),
        sigmas=st.tuples(st.floats(0.05, 0.6), st.floats(0.05, 0.6)),
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_roots_equal_per_path_roots(self, draws, sigmas):
        # Paths of baskets in all four sign quadrants with negative strikes,
        # of the diagonal and of two-strike calls and puts, solved together.
        # A cut path runs from d before its first crossing r to just past r,
        # so that r lies in its last probe bracket.  With d up to past zero,
        # lo + (hi - lo) need not round to hi, so a probe grid that does not
        # hit the exact ends of a path shows.
        mx = cb.LognormalMartingale(sigmas[0], 100.0, 1.0)
        my = cb.LognormalMartingale(sigmas[1], 100.0, 1.0)
        paths = []
        for payoff, cut in draws:
            path = pricing._mu_segment(payoff, mx, my)
            roots = _crossings_of_one_path(mx, my, path)
            if cut is not None and roots.size:
                r = roots[0]
                d = cut[0] * (abs(r) + r - path.lo)
                path = path._replace(lo=r - d, hi=min(r + cut[1] * d / 255.0, path.hi))
            paths.append(path)
        batched = pricing._path_breaks([], mx, my, paths, 48)  # whatever is priced
        assert len(batched) == len(paths)
        for path, roots in zip(paths, batched):
            np.testing.assert_array_equal(roots, np.sort(_crossings_of_one_path(mx, my, path)))

    def test_default_spread_sweep_solves_two_bracket_batches(
        self, lognormal_marginals, monkeypatch
    ):
        # Count guard: one bracket solve per kink family for the whole sweep
        # (one per path and family with a sign change took 167).
        calls = []
        solve = quadrature.solve_brackets

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(quadrature, "solve_brackets", counting)
        payoffs = [cb.spread(float(k)) for k in sweep_grid(ScenarioConfig(scenario="max-known"))]
        assert len(payoffs) == 101
        cb.price_batch(payoffs, [cb.FRECHET_LOWER, cb.FRECHET_UPPER], *lognormal_marginals)
        assert 0 < len(calls) <= 2


class TestEnvelopeKinks:
    @pytest.fixture(scope="class")
    def members(self, lognormal_marginals):
        # envelopes of the log-return product at two inner levels and at the top
        f = cb.MonotoneFunctional(lambda x, y: np.log(x) * np.log(y), *lognormal_marginals)
        lo, hi = f.value_countermonotone, f.value_comonotone
        pairs = cb.bound_surfaces_for_levels(f, [lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo), hi])
        return [s for pair in pairs for s in pair]

    def test_members_price_alike_alone_beside_another_line_and_in_an_interval(
        self, lognormal_marginals, members
    ):
        # a payoff on another line adds a path, whose kinks and nodes must
        # leave the spread's row as it is; an empty batch has no path at all
        mx, my = lognormal_marginals
        low, up = members[:2]
        alone = cb.price_batch([cb.spread(0.0)], [low, up], mx, my, panels=40)
        beside = cb.price_batch(
            [cb.spread(0.0), cb.basket(1.0, 1.0, 200.0)], [low, up], mx, my, panels=40
        )
        np.testing.assert_array_equal(alone[0], beside[0])
        iv = cb.price_interval(cb.spread(0.0), low, up, mx, my, panels=40)
        assert (iv.lower, iv.upper) == (alone[0, 1], alone[0, 0])  # submodular: ends swap
        assert cb.price_batch([], [low], mx, my).shape == (0, 1)

    @pytest.mark.parametrize("real", [False, True], ids=["named", "real-structure"])
    def test_a_member_is_told_by_its_family_not_its_name(self, lognormal_marginals, members,
                                                         real):
        # a surface named like an envelope member, or even built with a real
        # member's structure, but not a member of its group, prices as the
        # plain surface it is: the structure is provenance only
        mx, my = lognormal_marginals
        structure = members[0].structure if real else ("functional-lower", 0.3)
        named = cb.CopulaSurface(lambda u, v: np.minimum(u, v), structure=structure)
        payoff = cb.spread(0.0)
        got = cb.price_batch([payoff], [named, cb.FRECHET_UPPER], mx, my, panels=40)
        assert got[0, 0] == got[0, 1] == cb.price(payoff, named, mx, my, panels=40)

    def test_paths_solved_together_equal_paths_solved_alone(self, lognormal_marginals, members):
        mx, my = lognormal_marginals
        payoffs = (cb.spread(0.0), cb.spread(20.0), cb.basket(1.0, 1.0, 200.0), cb.call_on_max(0.0))
        paths = [pricing._mu_segment(p, mx, my) for p in payoffs]
        together = pricing._path_breaks(members, mx, my, paths, 40)
        assert min(b.size for b in together) > 0
        for path, breaks in zip(paths, together):
            alone = pricing._path_breaks(members, mx, my, [path], 40)[0]
            np.testing.assert_array_equal(breaks, alone)

    def test_kinks_separate_the_fallback_from_the_inverted_side(self, lognormal_marginals,
                                                                members):
        # just before a kink the member is its Frechet fallback exactly, just
        # past it (on the side the kink reports) it inverts; inner levels,
        # since at the top the lower envelope is M up to the slack
        mx, my = lognormal_marginals
        path = pricing._mu_segment(cb.spread(0.0), mx, my)  # the diagonal x = y = z

        def at(z, _):
            return mx.cdf(z), my.cdf(z)

        probes = np.linspace(path.lo, path.hi, 41)[None, :]
        family = members[0].group[0]
        found = 0
        for s in members[:4]:
            roots, _, sides = family.kinks([s.group[1]], at, probes)
            fallback = cb.FRECHET_UPPER if s.group[1][0] == "functional-upper" else cb.FRECHET_LOWER
            for r, side in zip(roots, sides):
                u, v = at(r + side * np.array([-1e-5, 1e-5]), None)
                got, bound = s(u, v), fallback(u, v)
                assert got[0] == bound[0] and got[1] != bound[1]
                found += 1
        assert found >= 4

    def test_members_at_the_ends_price_alone_as_with_the_frechet_bounds(self,
                                                                       lognormal_marginals):
        # the lower envelope at the top follows M, the upper one at the bottom
        # follows W; priced alone, each is split at that bound's kink all the same
        mx, my = lognormal_marginals
        f = cb.MonotoneFunctional(lambda x, y: np.log(x) * np.log(y), mx, my)
        top, _ = cb.bound_surfaces_for_levels(f, [f.value_comonotone])[0]
        _, bottom = cb.bound_surfaces_for_levels(f, [f.value_countermonotone])[0]
        payoff = cb.spread(0.0)
        for member in (top, bottom):
            alone = cb.price(payoff, member, mx, my, panels=40)
            together = cb.price_batch([payoff], [cb.FRECHET_LOWER, member, cb.FRECHET_UPPER],
                                      mx, my, panels=40)
            assert alone == together[0, 1]


class _DeclaredKink:
    """A test group of plain surfaces, keyed by their functions, that declares
    one kink on every path at ``z`` and records each ``values`` call."""

    def __init__(self, z):
        self.z = z
        self.calls = []

    def values(self, u, v, keys):
        self.calls.append(list(keys))
        return [fn(u, v) for fn in keys]

    def breaks(self, keys, at, probes, width, frechet):
        rows = np.arange(probes.shape[0])
        return [(np.full(rows.size, self.z), rows)], []


class TestSurfaceGroups:
    def test_the_pricer_takes_any_group_by_its_protocol(self, lognormal_marginals, monkeypatch):
        # a group that is no functional envelope: its declared kink reaches
        # the path rule, its members are evaluated by the group alone, once
        # per rule, and they price as their plain surfaces on the same breaks
        mx, my = lognormal_marginals
        z = 123.456
        plain = [cb.FRECHET_LOWER, cb.gaussian_copula(0.5), cb.FRECHET_UPPER]
        group = _DeclaredKink(z)

        def unused(u, v):
            raise AssertionError("a member's fn was called")

        members = [cb.CopulaSurface(unused, group=(group, s.fn)) for s in plain]
        seen = []
        rule = quadrature.interval_rule

        def spy(lo, hi, panels, breakpoints=(), survival=None):
            seen.append(list(breakpoints))
            return rule(lo, hi, panels, breakpoints, survival)

        monkeypatch.setattr(pricing, "interval_rule", spy)
        payoffs = [cb.spread(0.0), cb.basket(1.0, 1.0, 200.0)]
        got = cb.price_batch(payoffs, members, mx, my, panels=40)
        assert len(seen) == 2 and all(z in b for b in seen)
        assert group.calls == [[s.fn for s in plain]] * len(seen)

        breaks = pricing._path_breaks
        monkeypatch.setattr(
            pricing, "_path_breaks", lambda *a: [np.sort(np.append(b, z)) for b in breaks(*a)]
        )
        np.testing.assert_array_equal(got, cb.price_batch(payoffs, plain, mx, my, panels=40))
