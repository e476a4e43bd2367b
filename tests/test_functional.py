import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copulabounds as cb
from copulabounds.functional import LevelRangeError, _invert_batch
from copulabounds.quadrature import QuadratureError

from _oracles import TwoPointPenalty, expectation_by_disintegration, random_point_set


@pytest.fixture(scope="module")
def product_functional(lognormal_marginals):
    mx, my = lognormal_marginals
    return cb.MonotoneFunctional(lambda x, y: x * y, mx, my)


@pytest.fixture(scope="module")
def neg_spread_functional(lognormal_marginals):
    mx, my = lognormal_marginals
    return cb.MonotoneFunctional(
        lambda x, y: -np.maximum(x - y, 0.0), mx, my, kink=lambda x, y: x - y
    )


def theta_box(a, b):
    return max(0.0, a + b - 1.0), min(a, b)


class TestOnePointMaps:
    def test_theta_at_m_gives_comonotone_value(self, product_functional):
        F = product_functional
        scale = abs(F.value_comonotone - F.value_countermonotone)
        for a, b in [(0.4, 0.7), (0.8, 0.3), (0.5, 0.5)]:
            got = float(F.at_one_point_upper(a, b, min(a, b)))
            assert got == pytest.approx(F.value_comonotone, abs=1e-6 * scale)

    def test_theta_at_w_gives_countermonotone_value(self, product_functional):
        F = product_functional
        scale = abs(F.value_comonotone - F.value_countermonotone)
        for a, b in [(0.4, 0.7), (0.8, 0.3), (0.6, 0.6)]:
            got = float(F.at_one_point_lower(a, b, max(0.0, a + b - 1.0)))
            assert got == pytest.approx(F.value_countermonotone, abs=1e-6 * scale)

    def test_maps_nondecreasing_in_theta(self, product_functional, neg_spread_functional):
        for F in (product_functional, neg_spread_functional):
            for a, b in [(0.3, 0.6), (0.7, 0.7)]:
                lo, hi = theta_box(a, b)
                ths = np.linspace(lo, hi, 21)
                up = F.at_one_point_upper(np.full_like(ths, a), np.full_like(ths, b), ths)
                low = F.at_one_point_lower(np.full_like(ths, a), np.full_like(ths, b), ths)
                scale = abs(F.value_comonotone - F.value_countermonotone)
                assert np.all(np.diff(up) >= -1e-9 * scale)
                assert np.all(np.diff(low) >= -1e-9 * scale)
                assert np.all(low <= up + 1e-9 * scale)

    def test_disintegration_oracle_product_payoff(self, product_functional, rng):
        # independent oracle: conditional laws read off the surface by
        # finite differences, then a Riemann sum along the support
        F = product_functional
        for _ in range(3):
            a, b = rng.uniform(0.15, 0.85, 2)
            lo, hi = theta_box(a, b)
            theta = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
            up_surface = cb.one_point_upper(a, b, theta)
            oracle = expectation_by_disintegration(
                up_surface, F.m_x, F.m_y, F.integrand, n_u=400_000
            )
            got = float(F.at_one_point_upper(a, b, theta))
            assert got == pytest.approx(oracle, rel=1e-4)

    def test_disintegration_oracle_lower_map(self, neg_spread_functional, rng):
        F = neg_spread_functional
        a, b = 0.45, 0.65
        lo, hi = theta_box(a, b)
        theta = 0.5 * (lo + hi)
        low_surface = cb.one_point_lower(a, b, theta)
        oracle = expectation_by_disintegration(
            low_surface, F.m_x, F.m_y, F.integrand, n_u=400_000
        )
        got = float(F.at_one_point_lower(a, b, theta))
        assert got == pytest.approx(oracle, abs=1e-4 * max(1.0, abs(oracle)))

    def test_rejects_two_decreasing_integrand(self, lognormal_marginals):
        mx, my = lognormal_marginals
        with pytest.raises(ValueError, match="2-increasing"):
            cb.MonotoneFunctional(lambda x, y: np.maximum(x - y, 0.0), mx, my)

    def test_kink_with_three_roots_rejected(self, lognormal_marginals):
        # the kink changes sign at x = 90, 100 and 110 along every path that
        # spans those quantiles, and only two roots per path are split at
        mx, my = lognormal_marginals
        with pytest.raises(QuadratureError, match="changes sign 3 times"):
            cb.MonotoneFunctional(
                lambda x, y: x * y, mx, my,
                kink=lambda x, y: (x - 90.0) * (x - 100.0) * (x - 110.0),
            )

    def test_log_product_independence_factorizes(self, lognormal_marginals):
        mx, my = lognormal_marginals
        F = cb.MonotoneFunctional(lambda x, y: np.log(x) * np.log(y), mx, my)
        got = F.of(cb.PRODUCT)
        assert got == pytest.approx(mx.log_mean * my.log_mean, abs=1e-8)

    def test_of_dispatch(self, product_functional):
        F = product_functional
        assert F.of(cb.FRECHET_UPPER) == F.value_comonotone
        assert F.of(cb.FRECHET_LOWER) == F.value_countermonotone
        cu = cb.one_point_upper(0.4, 0.6, 0.3)
        assert F.of(cu) == pytest.approx(float(F.at_one_point_upper(0.4, 0.6, 0.3)))
        with pytest.raises(ValueError):
            F.of(cb.gaussian_copula(0.5))


class TestInversion:
    def test_round_trip(self, neg_spread_functional, rng):
        F = neg_spread_functional
        scale = abs(F.value_comonotone - F.value_countermonotone)
        for _ in range(20):
            a, b = rng.uniform(0.1, 0.9, 2)
            lo, hi = theta_box(a, b)
            target_theta = rng.uniform(lo, hi)
            level = float(F.at_one_point_lower(a, b, target_theta))
            theta = cb.invert_lower(F, a, b, level)
            back = float(F.at_one_point_lower(a, b, theta))
            assert abs(back - level) <= 2e-9 * max(1.0, scale)
            level_u = float(F.at_one_point_upper(a, b, target_theta))
            theta_u = cb.invert_upper(F, a, b, level_u)
            assert abs(float(F.at_one_point_upper(a, b, theta_u)) - level_u) <= 2e-9 * max(
                1.0, scale
            )

    def test_level_at_countermonotone_value(self, product_functional):
        F = product_functional
        a, b = 0.4, 0.7
        theta = cb.invert_lower(F, a, b, F.value_countermonotone)
        assert theta >= max(0.0, a + b - 1.0) - 1e-12
        assert float(F.at_one_point_lower(a, b, theta)) == pytest.approx(
            F.value_countermonotone, abs=2 * F.level_slack
        )

    def test_bracket_end_is_exact(self, product_functional):
        F = product_functional
        a, b = 0.4, 0.7
        level = float(F.at_one_point_lower(a, b, min(a, b)))
        theta = cb.invert_lower(F, a, b, level)
        assert theta == pytest.approx(min(a, b), abs=1e-10)

    def test_unattainable_level_raises(self, product_functional):
        F = product_functional
        with pytest.raises(LevelRangeError):
            cb.invert_lower(F, 0.4, 0.7, F.value_comonotone * 2.0)
        with pytest.raises(LevelRangeError):
            cb.invert_upper(F, 0.4, 0.7, F.value_countermonotone - 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, 1e-16])
    def test_unreachable_theta_tolerance_raises(self, product_functional, tol):
        F = product_functional
        level = 0.5 * (F.value_comonotone + F.value_countermonotone)
        for call in (cb.invert_lower, cb.invert_upper):
            with pytest.raises(ValueError, match="theta_tol"):
                call(F, 0.4, 0.7, level, theta_tol=tol)
        with pytest.raises(ValueError, match="theta_tol"):
            cb.bound_surfaces_for_level(F, level, theta_tol=tol)

    def test_flat_segments_resolve_to_extreme_roots(self):
        # penalty functional is exactly zero on a whole theta interval, the
        # classic flat case: the lower inverse must return the right end
        pen = TwoPointPenalty([(0.3, 0.4, 0.2), (0.7, 0.6, 0.5)])
        theta = cb.invert_lower(pen, 0.5, 0.5, 0.0)
        expected = min(
            0.5,
            0.2 + max(0.5 - 0.3, 0) + max(0.5 - 0.4, 0),
            0.5 + max(0.5 - 0.7, 0) + max(0.5 - 0.6, 0),
        )
        assert theta == pytest.approx(expected, abs=1e-9)

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 5),
        kind=st.sampled_from(["increasing", "decreasing", "none"]),
        a=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        b=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_zero_level_resolves_to_point_set_upper_bound(self, seed, size, kind, a, b):
        # the penalty is zero on the whole theta interval below the point-set
        # upper bound, so the lower inverse of level 0 must return its right end
        points = random_point_set(np.random.default_rng(seed), size, kind)
        pen = TwoPointPenalty(points)
        theta = cb.invert_lower(pen, a, b, 0.0)
        expected = float(cb.upper_bound(points)(a, b))
        assert abs(theta - expected) <= 1e-10 + 2 * pen.level_slack


class TestBoundSurfaces:
    def test_level_at_comonotone_gives_upper_frechet(self, neg_spread_functional, unit_grid_41):
        F = neg_spread_functional
        U, V = unit_grid_41
        _, upper = cb.bound_surfaces_for_level(F, F.value_comonotone)
        assert np.max(np.abs(upper(U, V) - cb.frechet_upper(U, V))) <= 1e-9

    def test_level_at_countermonotone_gives_lower_frechet(
        self, neg_spread_functional, unit_grid_41
    ):
        F = neg_spread_functional
        U, V = unit_grid_41
        lower, _ = cb.bound_surfaces_for_level(F, F.value_countermonotone)
        assert np.max(np.abs(lower(U, V) - cb.frechet_lower(U, V))) <= 1e-9

    def test_gaussian_reference_is_sandwiched(self, neg_spread_functional, lognormal_marginals):
        # the reference copula satisfies the constraint by construction, so
        # it must lie between the best-possible envelopes
        mx, my = lognormal_marginals
        F = neg_spread_functional
        ref = cb.gaussian_copula(-0.7)
        level = -cb.price(cb.spread(0.0), ref, mx, my)
        lower, upper = cb.bound_surfaces_for_level(F, level)
        g = np.linspace(0.0, 1.0, 31)
        U, V = np.meshgrid(g, g, indexing="ij")
        L, Cv, A = lower(U, V), ref(U, V), upper(U, V)
        assert np.all(cb.frechet_lower(U, V) <= L + 1e-12)
        assert np.all(L <= Cv + 1e-7)
        assert np.all(Cv <= A + 1e-7)
        assert np.all(A <= cb.frechet_upper(U, V) + 1e-12)

    def test_surfaces_validate_as_quasi_copulas(self, neg_spread_functional):
        F = neg_spread_functional
        level = 0.5 * (F.value_comonotone + F.value_countermonotone)
        lower, upper = cb.bound_surfaces_for_level(F, level)
        assert cb.validate_quasi_copula(lower, grid_n=30).passed
        assert cb.validate_quasi_copula(upper, grid_n=30).passed
        assert lower.tag == "quasi-copula" and upper.tag == "quasi-copula"

    def test_level_out_of_range_rejected(self, neg_spread_functional):
        F = neg_spread_functional
        with pytest.raises(LevelRangeError):
            cb.bound_surfaces_for_level(F, F.value_comonotone + 1.0)

    def test_zero_level_penalty_matches_point_set_envelope(self):
        # the functional counting exceedances over two point constraints has
        # zero-level upper envelope equal to the two-point upper bound
        points = [(0.3, 0.4, 0.2), (0.7, 0.6, 0.5)]
        pen = TwoPointPenalty(points)
        _, upper = cb.bound_surfaces_for_level(pen, 0.0)
        A = cb.upper_bound(points)
        g = np.linspace(0.0, 1.0, 21)
        U, V = np.meshgrid(g, g, indexing="ij")
        assert np.max(np.abs(upper(U, V) - A(U, V))) <= 1e-8

    def test_library_surface_functional_agrees(self):
        # the generic surface-functional wrapper reproduces the vectorized
        # penalty on a small grid
        points = [(0.35, 0.5, 0.3)]
        pen_fast = TwoPointPenalty(points)

        def penalty(surface):
            (a, b, t) = points[0]
            return max(float(surface(a, b)) - t, 0.0)

        pen_lib = cb.SurfaceFunctional(penalty)
        for a, b, th in [(0.5, 0.5, 0.3), (0.2, 0.8, 0.1), (0.6, 0.4, 0.35)]:
            assert float(pen_lib.at_one_point_lower(a, b, th)) == pytest.approx(
                float(pen_fast.at_one_point_lower(a, b, th)), abs=1e-14
            )
            assert float(pen_lib.at_one_point_upper(a, b, th)) == pytest.approx(
                float(pen_fast.at_one_point_upper(a, b, th)), abs=1e-14
            )
        assert pen_lib.value_countermonotone == 0.0

    def test_repeated_calls_return_identical_values(self, neg_spread_functional):
        F = neg_spread_functional
        level = 0.4 * F.value_comonotone + 0.6 * F.value_countermonotone
        _, upper = cb.bound_surfaces_for_level(F, level)
        first = upper(0.37, 0.59)
        again = upper(0.37, 0.59)
        assert first == again


class _CountingPenalty(TwoPointPenalty):
    """Penalty functional that counts the points its one-point maps see."""

    def __init__(self, points):
        super().__init__(points)
        self.map_points = 0

    def _count(self, a, b, theta):
        self.map_points += np.broadcast(np.asarray(a), np.asarray(b), np.asarray(theta)).size

    def at_one_point_lower(self, a, b, theta):
        self._count(a, b, theta)
        return super().at_one_point_lower(a, b, theta)

    def at_one_point_upper(self, a, b, theta):
        self._count(a, b, theta)
        return super().at_one_point_upper(a, b, theta)


class TestMapEvaluationCount:
    # An inversion evaluates the map once at the bracket end whose value is
    # not a Frechet-bound value; a point whose level that end value decides
    # takes no step, and every other point takes the steps of its own bracket.
    POINTS = [(0.3, 0.4, 0.2), (0.7, 0.6, 0.5)]

    def test_scalar_inversions(self):
        pen = _CountingPenalty(self.POINTS)
        # the lower map at theta = M(0.5, 0.5) = 0.5 is within level 0's slack
        cb.invert_lower(pen, 0.5, 0.5, 0.0)
        assert pen.map_points == 1
        pen.map_points = 0
        cb.invert_upper(pen, 0.5, 0.5, 0.1)
        assert pen.map_points == 7

    def test_envelope_call(self):
        pen = _CountingPenalty(self.POINTS)
        level = 0.05
        lower, upper = cb.bound_surfaces_for_level(pen, level)
        u = np.array([0.1, 0.3, 0.4, 0.5, 0.2])
        v = np.array([0.1, 0.3, 0.4, 0.5, 0.6])
        # the lower envelope inverts the upper map and vice versa
        for surface, side, own in ((lower, "upper", [1, 1, 9, 7, 9]),
                                   (upper, "lower", [1, 10, 8, 1, 1])):
            counts = []
            for a, b in zip(u, v):
                pen.map_points = 0
                _invert_batch(pen, a, b, level, side, 1e-10)
                counts.append(pen.map_points)
            assert counts == own
            pen.map_points = 0
            surface(u, v)
            # each point of the batch takes its own count, not the batch maximum
            assert pen.map_points == sum(own)


class TestInvertBatchBranches:
    def test_saturation_masks(self, product_functional):
        F = product_functional
        a = np.array([0.5, 0.5])
        b = np.array([0.5, 0.5])
        # a level above the lower map's reach at the point saturates it
        cap = float(F.at_one_point_lower(0.5, 0.5, 0.5))
        level = np.array([cap + 1.0, cap - 1e-3])
        theta, feasible, saturated = _invert_batch(F, a, b, level, "lower", 1e-10)
        assert bool(saturated[0]) and not bool(saturated[1])
        assert not bool(feasible[0]) and bool(feasible[1])
