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
        assert cb.exponential(0.2).cdf(0.0) == 0.0

    def test_exponential_closed_form(self):
        got = cb.exponential(0.2).cdf(2.0)
        assert got == pytest.approx(1.0 - math.exp(-0.4), abs=1e-15)

    def test_lognormal_closed_form(self):
        m = cb.lognormal_martingale(0.2, 100.0, 1.0)
        # log(X/S0) ~ N(-sigma^2 T/2, sigma^2 T), so F(S0) = Phi(sigma/2)
        assert m.cdf(100.0) == pytest.approx(float(ndtr(0.1)), abs=1e-12)
        assert m.cdf(0.0) == 0.0

    def test_lognormal_at_subnormal_x(self):
        # x / spot underflows to 0; the cdf is 0 there, without a warning
        m = cb.lognormal_martingale(0.2, 100.0, 1.0)
        assert m.cdf(5e-324) == 0.0
        assert m.cdf(np.array([5e-324, 1e-300]))[0] == 0.0

    def test_rejects_bad_arguments(self):
        m = cb.exponential(0.2)
        with pytest.raises(ValueError):
            m.cdf(-1.0)
        with pytest.raises(ValueError):
            m.cdf(float("nan"))
        with pytest.raises(ValueError):
            m.cdf(float("inf"))

    def test_vectorized(self):
        m = cb.exponential(0.5)
        x = np.array([0.0, 1.0, 2.0])
        assert np.allclose(m.cdf(x), 1.0 - np.exp(-0.5 * x))


class TestQuantile:
    def test_exponential_inverse(self):
        m = cb.exponential(0.2)
        assert m.quantile(1.0 - math.exp(-0.4)) == pytest.approx(2.0, abs=1e-12)

    def test_small_u_hits_support_infimum(self):
        assert cb.exponential(0.2).quantile(1e-15) == pytest.approx(0.0, abs=1e-13)
        assert cb.lognormal_martingale(0.2, 100.0, 1.0).quantile(1e-300) >= 0.0

    def test_tabulated_generalized_inverse(self):
        m = cb.tabulated([1.0, 2.0], [0.5, 1.0])
        assert m.quantile(0.5) == 1.0
        assert m.quantile(0.500001) == 2.0
        assert m.quantile(1.0) == 2.0

    def test_tabulated_inf_above_attainable_mass(self):
        m = cb.tabulated([1.0, 2.0], [0.4, 0.9])
        assert m.quantile(0.95) == math.inf

    def test_rejects_out_of_range(self):
        m = cb.exponential(1.0)
        for u in (0.0, -0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                m.quantile(u)


class TestGalois:
    @given(x=st.floats(0.0, 50.0), u=st.floats(1e-9, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_exponential(self, x, u):
        m = cb.exponential(0.3)
        assert m.quantile(float(m.cdf(x))) <= x + 1e-9 if m.cdf(x) > 0 else True
        assert m.cdf(min(float(m.quantile(u)), 1e9)) >= u - 1e-12

    def test_grid_all_kinds(self):
        marginals = [
            cb.exponential(0.2),
            cb.lognormal_martingale(0.25, 80.0, 2.0),
            cb.tabulated([0.5, 1.0, 2.0, 5.0], [0.1, 0.3, 0.8, 1.0]),
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
        ref = cb.lognormal_martingale(0.2, 100.0, 1.0)
        err = np.abs(np.asarray(m.cdf(strikes)) - np.asarray(ref.cdf(strikes)))
        assert np.max(err) <= 1e-3

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

    def test_too_few_strikes(self):
        with pytest.raises(ValueError):
            cb.from_call_prices([1.0], [2.0])


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

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            cb.marginal_from_csv(p)
