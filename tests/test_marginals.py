import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import copulabounds as cb

from _oracles import black_call


class TestCdf:
    def test_exponential_at_zero(self):
        assert cb.Exponential(0.2).cdf(0.0) == 0.0

    def test_exponential_closed_form(self):
        got = cb.Exponential(0.2).cdf(2.0)
        assert got == pytest.approx(1.0 - math.exp(-0.4), abs=1e-15)

    def test_lognormal_closed_form(self):
        m = cb.LognormalMartingale(0.2, 100.0, 1.0)
        # log(X/S0) ~ N(-sigma^2 T/2, sigma^2 T), so F(S0) = Phi(sigma/2)
        assert m.cdf(100.0) == pytest.approx(float(ndtr(0.1)), abs=1e-12)
        assert m.cdf(0.0) == 0.0

    def test_lognormal_at_subnormal_x(self):
        # x / spot underflows to 0; the cdf is 0 there, without a warning
        m = cb.LognormalMartingale(0.2, 100.0, 1.0)
        assert m.cdf(5e-324) == 0.0
        assert m.cdf(np.array([5e-324, 1e-300]))[0] == 0.0

    def test_rejects_bad_arguments(self):
        m = cb.Exponential(0.2)
        with pytest.raises(ValueError):
            m.cdf(-1.0)
        with pytest.raises(ValueError):
            m.cdf(float("nan"))
        with pytest.raises(ValueError):
            m.cdf(float("inf"))

    @pytest.mark.parametrize("family, args", [
        ("Exponential", (math.inf,)),
        ("LognormalMartingale", (math.inf, 100.0, 1.0)),
        ("LognormalMartingale", (0.2, math.inf, 1.0)),
        ("LognormalMartingale", (0.2, 100.0, math.inf)),
    ])
    def test_rejects_infinite_parameters(self, family, args):
        with pytest.raises(ValueError, match="must be finite and positive"):
            getattr(cb, family)(*args)

    @pytest.mark.parametrize("sigma, maturity", [(1e300, 1.0), (1e160, 1e10)])
    def test_rejects_overflowing_variance(self, sigma, maturity):
        # finite parameters whose sigma**2 * maturity is not
        with pytest.raises(ValueError, match=r"sigma\*\*2 \* maturity must be finite"):
            cb.LognormalMartingale(sigma, 100.0, maturity)

    @pytest.mark.parametrize("sigma, maturity", [(1e-300, 1e-300), (1e-200, 1e-250)])
    def test_rejects_underflowing_volatility(self, sigma, maturity):
        # positive parameters whose sigma * sqrt(maturity) is 0: the cdf was NaN
        with pytest.raises(ValueError, match=r"sigma \* sqrt\(maturity\) must be positive"):
            cb.LognormalMartingale(sigma, 100.0, maturity)

    def test_vectorized(self):
        m = cb.Exponential(0.5)
        x = np.array([0.0, 1.0, 2.0])
        assert np.allclose(m.cdf(x), 1.0 - np.exp(-0.5 * x))


class TestQuantile:
    def test_exponential_inverse(self):
        m = cb.Exponential(0.2)
        assert m.quantile(1.0 - math.exp(-0.4)) == pytest.approx(2.0, abs=1e-12)

    def test_small_u_hits_support_infimum(self):
        assert cb.Exponential(0.2).quantile(1e-15) == pytest.approx(0.0, abs=1e-13)
        assert cb.LognormalMartingale(0.2, 100.0, 1.0).quantile(1e-300) >= 0.0

    def test_tabulated_generalized_inverse(self):
        m = cb.Tabulated([1.0, 2.0], [0.5, 1.0])
        assert m.quantile(0.5) == 1.0
        assert m.quantile(0.500001) == 2.0
        assert m.quantile(1.0) == 2.0

    def test_tabulated_inf_above_attainable_mass(self):
        m = cb.Tabulated([1.0, 2.0], [0.4, 0.9])
        assert m.quantile(0.95) == math.inf

    def test_rejects_out_of_range(self):
        m = cb.Exponential(1.0)
        for u in (0.0, -0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                m.quantile(u)


class TestGalois:
    @given(x=st.floats(0.0, 50.0), u=st.floats(1e-9, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_exponential(self, x, u):
        m = cb.Exponential(0.3)
        assert m.quantile(float(m.cdf(x))) <= x + 1e-9 if m.cdf(x) > 0 else True
        assert m.cdf(min(float(m.quantile(u)), 1e9)) >= u - 1e-12

    def test_grid_all_kinds(self):
        marginals = [
            cb.Exponential(0.2),
            cb.LognormalMartingale(0.25, 80.0, 2.0),
            cb.Tabulated([0.5, 1.0, 2.0, 5.0], [0.1, 0.3, 0.8, 1.0]),
        ]
        us = np.linspace(0.01, 1.0, 57)
        for m in marginals:
            xs = np.linspace(0.0, 10.0, 41)
            fx = np.asarray(m.cdf(xs))
            pos = fx > 0
            q = np.asarray(m.quantile(np.clip(fx[pos], 1e-300, 1.0)))
            assert np.all(q <= xs[pos] + 1e-9)
            qu = np.asarray(m.quantile(us))
            finite = np.isfinite(qu)
            assert np.all(np.asarray(m.cdf(qu[finite])) >= us[finite] - 1e-12)


class TestFromCallPrices:
    def test_exponential_round_trip(self):
        # undiscounted call curve for an exponential has the closed form
        # E[(X-K)^+] = exp(-rate*K)/rate, an independent price generator
        rate = 0.2
        strikes = np.linspace(0.0, 40.0, 400)
        prices = np.exp(-rate * strikes) / rate
        m = cb.from_call_prices(strikes, prices, rate=0.0, maturity=1.0)
        true = 1.0 - np.exp(-rate * strikes)
        got = np.asarray(m.cdf(strikes))
        assert np.max(np.abs(got - true)) <= 1e-3

    def test_lognormal_round_trip(self):
        strikes = np.linspace(40.0, 250.0, 400)
        prices = [black_call(100.0, K, 0.2, 1.0) for K in strikes]
        m = cb.from_call_prices(strikes, prices)
        ref = cb.LognormalMartingale(0.2, 100.0, 1.0)
        err = np.abs(np.asarray(m.cdf(strikes)) - np.asarray(ref.cdf(strikes)))
        assert np.max(err) <= 1e-3

    @pytest.mark.parametrize("strikes, bound", [
        (np.sort(np.random.default_rng(7).uniform(40.0, 250.0, 80)), 1e-2),
        # market-like: 10-wide wings around a 2.5-wide core from 80 to 120
        (np.concatenate([np.arange(40.0, 80.0, 10.0), np.arange(80.0, 120.0, 2.5),
                         np.arange(120.0, 251.0, 10.0)]), 2e-2),
    ])
    def test_lognormal_round_trip_on_non_uniform_strikes(self, strikes, bound):
        # interior slopes must be second order on uneven spacing; central
        # differences over two unequal gaps were off by 4.4e-2 and 4.5e-2
        prices = [black_call(100.0, K, 0.2, 1.0) for K in strikes]
        m = cb.from_call_prices(strikes, prices)
        ref = cb.LognormalMartingale(0.2, 100.0, 1.0)
        err = np.abs(np.asarray(m.cdf(strikes)) - np.asarray(ref.cdf(strikes)))
        assert np.max(err) <= bound

    def test_constant_prices_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            cb.from_call_prices([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_increasing_prices_rejected(self):
        with pytest.raises(ValueError, match="arbitrage"):
            cb.from_call_prices([1.0, 2.0, 3.0], [5.0, 5.2, 5.1])

    def test_two_strike_line(self):
        # slope -exp(-rT)*(1-q) encodes a flat CDF segment at level q
        q, rate, mat = 0.25, 0.03, 2.0
        slope = -math.exp(-rate * mat) * (1.0 - q)
        prices = [10.0, 10.0 + slope * 5.0]
        m = cb.from_call_prices([100.0, 105.0], prices, rate=rate, maturity=mat)
        assert np.allclose(m.cdf([100.0, 105.0]), q, atol=1e-12)

    def test_mass_above_the_last_strike_reprices_the_last_quote(self):
        # Black quotes stop short of the support: F(300) = 1 - 1.1e-8
        strikes = np.linspace(20.0, 300.0, 141)
        prices = np.array([black_call(100.0, K, 0.2, 1.0) for K in strikes])
        m = cb.from_call_prices(strikes, prices)
        assert m.xs.size == strikes.size + 1 and m.fs[-1] == 1.0
        mass = np.diff(m.fs, prepend=0.0)
        tail_call = float(np.sum(mass * np.maximum(m.xs - strikes[-1], 0.0)))
        assert tail_call == pytest.approx(prices[-1], rel=0.0, abs=1e-12)
        assert np.isfinite(m.quantile(1.0))
        for surface in (cb.FRECHET_LOWER, cb.FRECHET_UPPER):
            assert np.isfinite(cb.price(cb.spread(0.0), surface, m, m))
        assert np.isfinite(cb.price(cb.call_on_max(100.0), cb.FRECHET_LOWER, m, m))

    def test_smooth_functional_bounds_price_on_call_quote_marginals(self):
        # a kink-free constraint inverts on step marginals; its envelope
        # prices lie in the Frechet band of the submodular max call
        strikes = np.linspace(20.0, 300.0, 141)
        m = cb.from_call_prices(strikes, [black_call(100.0, K, 0.2, 1.0) for K in strikes])
        F = cb.MonotoneFunctional(lambda x, y: np.log(x) * np.log(y), m, m)
        low, up = cb.bound_surfaces_for_levels(
            F, [0.5 * (F.value_comonotone + F.value_countermonotone)]
        )[0]
        payoff = cb.call_on_max(100.0)
        w, lo, hi, mm = (cb.price(payoff, s, m, m, panels=100)
                         for s in (cb.FRECHET_LOWER, low, up, cb.FRECHET_UPPER))
        assert np.isfinite([w, lo, hi, mm]).all()
        assert w + 1e-9 >= lo >= hi >= mm - 1e-9

    def test_discounted_quotes_place_the_atom_forward(self):
        # E[(X - K_max)^+] is the last quote grown at the rate
        rate, mat = 0.05, 2.0
        strikes = np.linspace(50.0, 150.0, 41)
        prices = np.exp(-rate * mat) * np.array([black_call(100.0, K, 0.3, 1.0) for K in strikes])
        m = cb.from_call_prices(strikes, prices, rate=rate, maturity=mat)
        mass = np.diff(m.fs, prepend=0.0)
        tail_call = float(np.sum(mass * np.maximum(m.xs - strikes[-1], 0.0)))
        assert tail_call == pytest.approx(math.exp(rate * mat) * prices[-1], rel=1e-12)

    def test_zero_last_quote_puts_the_mass_on_the_last_strike(self):
        # the call line of a point mass at 3: the slopes say F = 0 up to 3
        m = cb.from_call_prices([0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0])
        assert m.xs.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert m.fs.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_too_few_strikes(self):
        with pytest.raises(ValueError):
            cb.from_call_prices([1.0], [2.0])

    def test_kinked_functional_on_call_quote_marginals_fails_at_construction(self):
        # the kink curve x = y is a staircase in the quantile plane of step
        # marginals and crosses a shifted path far more than twice
        strikes = np.linspace(20.0, 300.0, 141)
        m = cb.from_call_prices(strikes, [black_call(100.0, K, 0.2, 1.0) for K in strikes])
        with pytest.raises(cb.QuadratureError, match="changes sign 25 times along a shifted path"):
            cb.MonotoneFunctional(lambda x, y: -np.maximum(x - y, 0.0), m, m,
                                  kink=lambda x, y: x - y)


@pytest.mark.parametrize("make, fragment", [
    (lambda: cb.Tabulated([1.0, 2.0], [0.5]), "equal-length"),
    (lambda: cb.Tabulated([1.0, 1.0], [0.2, 0.5]), "xs must be strictly increasing"),
    (lambda: cb.Tabulated([1.0, 2.0], [0.5, 0.2]), "fs must be nondecreasing"),
    (lambda: cb.from_call_prices([2.0, 1.0], [1.0, 2.0]), "strikes must be strictly increasing"),
    (lambda: cb.from_call_prices([1.0, 2.0], [1.0, -0.5]), "prices must be nonnegative"),
    # rate nan and inf were reported as non-finite fs and xs, and 1e3 overflowed exp
    *[(lambda r=r, t=t: cb.from_call_prices([1.0, 2.0], [2.0, 1.5], rate=r, maturity=t), m)
      for r, t, m in [
          (math.nan, 1.0, "rate must be finite"),
          (math.inf, 1.0, "rate must be finite"),
          (0.0, -1.0, "maturity must be finite and nonnegative"),
          (0.0, math.nan, "maturity must be finite and nonnegative"),
          (1e3, 1.0, r"exp\(rate \* maturity\) overflows"),
          (1e300, 1e300, r"exp\(rate \* maturity\) overflows"),
      ]],
])
def test_malformed_tables_rejected(make, fragment):
    with pytest.raises(ValueError, match=fragment):
        make()



class TestCsv:
    def test_cdf_table(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("x,F\n1.0,0.25\n2.0,0.75\n3.0,1.0\n")
        m = cb.marginal_from_csv(p)
        assert m.cdf(2.5) == 0.75

    def test_call_price_table(self, tmp_path):
        rate = 0.2
        strikes = np.linspace(0.0, 40.0, 200)
        prices = np.exp(-rate * strikes) / rate
        p = tmp_path / "q.csv"
        p.write_text(
            "strike,price\n"
            + "\n".join(f"{k},{v}" for k, v in zip(strikes, prices))
            + "\n"
        )
        m = cb.marginal_from_csv(p, rate=0.0, maturity=1.0)
        k = float(strikes[30])
        assert float(m.cdf(k)) == pytest.approx(1 - math.exp(-rate * k), abs=2e-3)

    @pytest.mark.parametrize("rate, maturity, fragment", [
        (math.nan, 1.0, "rate must be finite"),
        (0.0, -1.0, "maturity must be finite and nonnegative"),
    ])
    def test_call_price_table_checks_rate_and_maturity(self, tmp_path, rate, maturity, fragment):
        p = tmp_path / "q.csv"
        p.write_text("strike,price\n1.0,2.0\n2.0,1.5\n")
        with pytest.raises(ValueError, match=fragment):
            cb.marginal_from_csv(p, rate=rate, maturity=maturity)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            cb.marginal_from_csv(p)

    @pytest.mark.parametrize("row", ["2.0", "2.0,abc"])
    def test_bad_row_names_its_line(self, tmp_path, row):
        p = tmp_path / "m.csv"
        p.write_text(f"x,F\n1.0,0.25\n{row}\n3.0,1.0\n")
        with pytest.raises(ValueError, match=r"m\.csv:3: expected 2 numeric cells"):
            cb.marginal_from_csv(p)
