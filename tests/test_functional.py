import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

import copulabounds as cb
from copulabounds.functional import LevelRangeError, _invert_batch
from copulabounds.quadrature import (
    DEFAULT_EPS,
    DEFAULT_ORDER,
    QuadratureError,
    gauss_legendre_01,
    mapped_nodes,
)
from copulabounds.surfaces import _validate, evaluate_surfaces, lattice

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


@pytest.fixture(scope="module")
def log_product_functional(lognormal_marginals):
    mx, my = lognormal_marginals
    return cb.MonotoneFunctional(lambda x, y: np.log(x) * np.log(y), mx, my)


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
            up_surface = cb.upper_bound([(a, b, theta)])
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
        low_surface = cb.lower_bound([(a, b, theta)])
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

    @pytest.mark.parametrize("kink, fragment", [
        (lambda x, y: x + y + 1.0, "does not change sign in the quantile square"),
        (lambda x, y: (y - 90.0) * (y - 110.0), "changes sign 2 times along a line of constant u"),
    ])
    def test_kinks_outside_the_contract_rejected(self, lognormal_marginals, kink, fragment):
        with pytest.raises(QuadratureError, match=fragment):
            cb.MonotoneFunctional(lambda x, y: x * y, *lognormal_marginals, kink=kink)

    def test_infinite_frechet_value_raises_at_construction(self, lognormal_marginals):
        mx, my = lognormal_marginals
        with pytest.raises(QuadratureError, match="comonotone copula is not finite"):
            cb.MonotoneFunctional(lambda x, y: np.where(x > 200.0, np.inf, x * y), mx, my)

    @pytest.mark.parametrize("scale", [10.0, 40.0])
    def test_divergent_frechet_value_raises_at_construction(self, lognormal_marginals, scale):
        # E[exp((X + Y) / scale)] is infinite for lognormal X and Y, though
        # the sums on the clipped unit grid are finite (1.3e39 and 689.4):
        # the running integrals pass the unit rule's tail-divergence check
        with pytest.raises(QuadratureError, match="non-integrable near an endpoint"):
            cb.MonotoneFunctional(lambda x, y: np.exp((x + y) / scale), *lognormal_marginals)

    def test_shipped_frechet_values_are_pinned(self, neg_spread_functional, log_product_functional):
        # the bits of the values at M and W of the two shipped functionals:
        # the running integrals sum the unit rule's nodes panel by panel
        for F, at_m, at_w in (
            (neg_spread_functional, "-0x1.fe6ef53baf1eep+1", "-0x1.3bdc38d4d9243p+4"),
            (log_product_functional, "0x1.4f81aa1ebd961p+4", "0x1.4d962500061eap+4"),
        ):
            assert (F.value_comonotone, F.value_countermonotone) == (
                float.fromhex(at_m), float.fromhex(at_w)
            )

    @pytest.mark.parametrize("at_m, at_w, bound", [
        (float("inf"), 0.0, "M"),
        (0.0, float("nan"), "W"),
    ])
    def test_surface_functional_non_finite_frechet_value_raises(self, at_m, at_w, bound):
        # an infinite value would make the level slack infinite and accept
        # any level; a NaN one would name a NaN attainable range
        fn = lambda surface: at_m if surface is cb.FRECHET_UPPER else at_w
        with pytest.raises(ValueError, match=f"Frechet bound {bound} is not finite"):
            cb.SurfaceFunctional(fn)


class TestRunningIntegral:
    """The unshifted paths' running integrals on the graded unit grid,
    against the same rule on a grid four times finer: within 2e-12, the
    README's figure for this grid against an 8000-panel order-8 one."""

    @staticmethod
    def finer(ri, t):
        fine = np.linspace(ri.rule.edges[:-1], ri.rule.edges[1:], 5).T.ravel()
        fine = np.unique(np.append(fine[fine < t], t))
        nodes, weights = mapped_nodes(*gauss_legendre_01(DEFAULT_ORDER), fine[:-1], fine[1:])
        return float((weights * ri.func._path_values(nodes, ri.shift, ri.anti)).sum())

    @pytest.mark.parametrize("which", ["neg_spread_functional", "log_product_functional"])
    @pytest.mark.parametrize("path", ["_diag", "_anti"])
    def test_matches_four_times_finer_grid(self, which, path, request):
        ri = getattr(request.getfixturevalue(which), path)
        for t in (0.003, 0.37, 0.9993):
            assert abs(float(ri(t)) - self.finer(ri, t)) <= 2e-12

    @pytest.mark.parametrize("which", ["neg_spread_functional", "log_product_functional"])
    @pytest.mark.parametrize("path", ["_diag", "_anti"])
    def test_ends_read_zero_and_the_total_exactly(self, which, path, request):
        # the rule stops 1e-12 short of 0 and of 1, and so does the integral
        ri = getattr(request.getfixturevalue(which), path)
        assert float(ri(0.0)) == 0.0
        assert float(ri(1.0)) == ri.total


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

    @pytest.mark.parametrize("a", [1.5, -0.1, np.nan])
    @pytest.mark.parametrize("call", [cb.invert_lower, cb.invert_upper])
    def test_point_outside_the_square_raises(self, product_functional, call, a):
        F = product_functional
        level = 0.5 * (F.value_comonotone + F.value_countermonotone)
        with pytest.raises(ValueError, match=r"\(a, b\) must lie in the unit square"):
            call(F, a, 0.5, level)
        with pytest.raises(ValueError, match=r"\(a, b\) must lie in the unit square"):
            call(F, 0.5, a, level)

    @pytest.mark.parametrize("u, v", [(np.nan, 0.5), (0.5, [0.3, np.nan])])
    def test_nan_point_on_an_envelope_member_raises(self, product_functional, u, v):
        F = product_functional
        level = 0.5 * (F.value_comonotone + F.value_countermonotone)
        [(lower, _)] = cb.bound_surfaces_for_levels(F, [level])
        with pytest.raises(ValueError, match="arguments must lie in the unit square"):
            lower(u, v)
        with pytest.raises(ValueError, match="arguments must lie in the unit square"):
            evaluate_surfaces([lower], u, v)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, 1e-16])
    def test_unreachable_theta_tolerance_raises(self, product_functional, tol):
        F = product_functional
        level = 0.5 * (F.value_comonotone + F.value_countermonotone)
        for call in (cb.invert_lower, cb.invert_upper):
            with pytest.raises(ValueError, match="theta_tol"):
                call(F, 0.4, 0.7, level, theta_tol=tol)
        with pytest.raises(ValueError, match="theta_tol"):
            cb.bound_surfaces_for_levels(F, [level], theta_tol=tol)[0]

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
        _, upper = cb.bound_surfaces_for_levels(F, [F.value_comonotone])[0]
        assert np.max(np.abs(upper(U, V) - cb.frechet_upper(U, V))) <= 1e-9

    def test_level_at_countermonotone_gives_lower_frechet(
        self, neg_spread_functional, unit_grid_41
    ):
        F = neg_spread_functional
        U, V = unit_grid_41
        lower, _ = cb.bound_surfaces_for_levels(F, [F.value_countermonotone])[0]
        assert np.max(np.abs(lower(U, V) - cb.frechet_lower(U, V))) <= 1e-9

    def test_gaussian_reference_is_sandwiched(self, neg_spread_functional, lognormal_marginals):
        # the reference copula satisfies the constraint by construction, so
        # it must lie between the best-possible envelopes
        mx, my = lognormal_marginals
        F = neg_spread_functional
        ref = cb.gaussian_copula(-0.7)
        level = -cb.price(cb.spread(0.0), ref, mx, my)
        lower, upper = cb.bound_surfaces_for_levels(F, [level])[0]
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
        lower, upper = cb.bound_surfaces_for_levels(F, [level])[0]
        assert cb.validate_quasi_copula(lower, grid_n=30).passed
        assert cb.validate_quasi_copula(upper, grid_n=30).passed
        assert lower.tag == "quasi-copula" and upper.tag == "quasi-copula"

    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8])
    def test_level_slack_errs_outward(self, neg_spread_functional, fraction, rng):
        # the envelopes invert the level moved by the slack away from the band,
        # so they contain the envelopes of the level itself
        F = neg_spread_functional
        level = F.value_countermonotone + fraction * (F.value_comonotone - F.value_countermonotone)
        exact = copy.copy(F)
        exact.level_slack = 0.0
        u, v = rng.uniform(0.0, 1.0, (2, 200))
        [(low, up)] = cb.bound_surfaces_for_levels(F, [level], theta_tol=1e-12)
        [(low0, up0)] = cb.bound_surfaces_for_levels(exact, [level], theta_tol=1e-12)
        assert np.all(low(u, v) <= low0(u, v) + 1e-12)
        assert np.all(up(u, v) >= up0(u, v) - 1e-12)
        assert np.any(low(u, v) < low0(u, v)) or np.any(up(u, v) > up0(u, v))

    def test_level_out_of_range_rejected(self, neg_spread_functional):
        F = neg_spread_functional
        with pytest.raises(LevelRangeError):
            cb.bound_surfaces_for_levels(F, [F.value_comonotone + 1.0])[0]

    @pytest.mark.parametrize("level", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_level_rejected(self, neg_spread_functional, level):
        # NaN fails every comparison, so a range check of the form
        # "level < lo or level > hi" lets it through
        with pytest.raises(LevelRangeError):
            cb.bound_surfaces_for_levels(neg_spread_functional, [level])[0]

    def test_zero_level_penalty_matches_point_set_envelope(self):
        # the functional counting exceedances over two point constraints has
        # zero-level upper envelope equal to the two-point upper bound
        points = [(0.3, 0.4, 0.2), (0.7, 0.6, 0.5)]
        pen = TwoPointPenalty(points)
        _, upper = cb.bound_surfaces_for_levels(pen, [0.0])[0]
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
        _, upper = cb.bound_surfaces_for_levels(F, [level])[0]
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
        lower, upper = cb.bound_surfaces_for_levels(pen, [level])[0]
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


class TestSaturation:
    # Where a level is out of the map's reach, the inversion's bracket lands
    # on the Frechet bound the envelope falls back to.

    def test_level_above_the_cap_falls_back_to_frechet_bound(self, product_functional):
        F = product_functional
        cap = float(F.at_one_point_lower(0.5, 0.5, 0.5))
        _, upper = cb.bound_surfaces_for_levels(F, [cap + 1.0])[0]
        assert upper(0.5, 0.5) == cb.frechet_upper(0.5, 0.5)
        with pytest.raises(LevelRangeError):
            cb.invert_lower(F, 0.5, 0.5, cap + 1.0)
        assert cb.invert_lower(F, 0.5, 0.5, cap - 1e-3) < 0.5

    @given(which=st.sampled_from(["product", "neg_spread"]), fraction=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    @example(which="neg_spread", fraction=0.9, seed=0)
    @example(which="product", fraction=0.1, seed=0)
    def test_out_of_reach_members_equal_their_frechet_bound(
        self, product_functional, neg_spread_functional, which, fraction, seed
    ):
        F = {"product": product_functional, "neg_spread": neg_spread_functional}[which]
        u, v = np.random.default_rng(seed).uniform(0.0, 1.0, (2, 40))
        level = F.value_countermonotone + fraction * (F.value_comonotone - F.value_countermonotone)
        lower, upper = cb.bound_surfaces_for_levels(F, [level])[0]
        w, m = cb.frechet_lower(u, v), cb.frechet_upper(u, v)
        # the upper envelope inverts the lower map, whose cap is its value at M
        above = level > F.at_one_point_lower(u, v, m) + F.level_slack
        below = level < F.at_one_point_upper(u, v, w) - F.level_slack
        np.testing.assert_array_equal(upper(u, v)[above], m[above])
        np.testing.assert_array_equal(lower(u, v)[below], w[below])


class _CountingMarginal(cb.Marginal):
    """Marginal that counts the points its quadrature hot path sees."""

    def __init__(self, inner):
        self.inner = inner
        self.quantile_points = 0

    def cdf(self, x):
        return self.inner.cdf(x)

    def quantile(self, u):
        return self.inner.quantile(u)

    def quantile_unchecked(self, u):
        self.quantile_points += np.size(u)
        return self.inner.quantile_unchecked(u)


class TestKinkSubsegments:
    @pytest.mark.parametrize("anti", [False, True])
    def test_only_live_subsegments_take_nodes(self, lognormal_marginals, rng, anti):
        mx = _CountingMarginal(lognormal_marginals[0])
        F = cb.MonotoneFunctional(
            lambda x, y: -np.maximum(x - y, 0.0), mx, lognormal_marginals[1],
            kink=lambda x, y: x - y,
        )
        n = 500
        lo = rng.uniform(0.0, 1.0, n)
        hi = np.minimum(lo + rng.uniform(-0.2, 0.6, n), 1.0)
        shift = rng.uniform(0.0, 2.0, n) if anti else rng.uniform(-1.0, 1.0, n)
        # the split of [lo, hi] at the kink crossings, as MonotoneFunctional._seg
        # makes it; finding them evaluates the kink at a few points
        hi_c = np.maximum(hi, lo)
        mx.quantile_points = 0
        m1, m2 = F._kink.splits(lo, hi_c, shift, anti)
        split_points = mx.quantile_points
        pieces = [(lo, m1), (m1, m2), (m2, hi_c)]
        live = sum(int(np.sum(b > a)) for a, b in pieces)
        assert 0 < live < 3 * n

        mx.quantile_points = 0
        got = F._seg(lo, hi, shift, anti)
        assert mx.quantile_points == split_points + live * F._t.size
        # every piece at the full rule, empty ones included, sums to the same
        full = np.zeros(n)
        for a, b in pieces:
            nodes, weights = mapped_nodes(F._t, F._w, a, b)
            full = full + (weights * F._path_values(nodes, shift[:, None], anti)).sum(axis=-1)
        np.testing.assert_array_equal(got, full)


class _CallCountingMarginal(_CountingMarginal):
    """Marginal that also counts the calls of its quantile hot path."""

    def __init__(self, inner):
        super().__init__(inner)
        self.quantile_calls = 0

    def quantile_unchecked(self, u):
        self.quantile_calls += 1
        return super().quantile_unchecked(u)


class TestStackedMaps:
    """A map call integrates all its segments in one stacked rule call and
    reads all its running-integral ends in one lookup; each point's value
    is the same whatever the batch around it."""

    @pytest.mark.parametrize("which", ["log_product_functional", "neg_spread_functional"])
    def test_batch_equals_one_point_at_a_time(self, which, request):
        F = request.getfixturevalue(which)
        point = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                          st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))

        @given(st.lists(point, min_size=1, max_size=12))
        @settings(max_examples=20, deadline=None)
        @example([(0.4, 0.7, 0.0), (0.4, 0.7, 1.0), (0.0, 0.3, 0.5), (1.0, 1.0, 0.5)])
        def check(points):
            a, b, frac = np.array(points).T
            lo, hi = cb.frechet_lower(a, b), cb.frechet_upper(a, b)
            # theta at W(a, b), at M(a, b) and between: empty segments occur
            theta = np.where(frac == 1.0, hi, lo + frac * (hi - lo))
            for fmap in (F.at_one_point_upper, F.at_one_point_lower):
                batch = fmap(a, b, theta)
                alone = np.array([fmap(*p) for p in zip(a, b, theta)])
                assert batch.tobytes() == alone.tobytes()

        check()

    @pytest.mark.parametrize("n", [1, 512])
    def test_unkinked_map_call_takes_two_quantile_calls_per_marginal(
        self, lognormal_marginals, rng, n
    ):
        mx, my = (_CallCountingMarginal(m) for m in lognormal_marginals)
        F = cb.MonotoneFunctional(lambda x, y: np.log(x) * np.log(y), mx, my)
        a, b = rng.uniform(0.0, 1.0, (2, n))
        theta = 0.5 * (cb.frechet_lower(a, b) + cb.frechet_upper(a, b))
        for fmap in (F.at_one_point_upper, F.at_one_point_lower):
            mx.quantile_calls = my.quantile_calls = 0
            fmap(a, b, theta)
            assert (mx.quantile_calls, my.quantile_calls) == (2, 2)


def _record_maps(monkeypatch, F):
    """Record the (a, b, theta) points of every one-point-map call of F."""
    seen = {"lower": [], "upper": []}
    for side in seen:
        fmap = getattr(F, f"at_one_point_{side}")

        def counted(a, b, theta, fmap=fmap, log=seen[side]):
            log.append(np.broadcast_arrays(*(np.ravel(x) for x in (a, b, theta))))
            return fmap(a, b, theta)

        monkeypatch.setattr(F, f"at_one_point_{side}", counted)
    return seen


def _bracket_end_points(log, side):
    """Map points evaluated at the bracket end that decides saturation:
    theta = M(a, b) for the lower map, W(a, b) for the upper map."""
    end = cb.frechet_upper if side == "lower" else cb.frechet_lower
    return sum(int(np.sum(th == end(a, b))) for a, b, th in log)


class TestEnvelopeFamily:
    FRACTIONS = np.array([0.0, 0.05, 0.3, 0.55, 0.9, 1.0])

    def _levels(self, F):
        return F.value_countermonotone + self.FRACTIONS * (
            F.value_comonotone - F.value_countermonotone
        )

    @pytest.mark.parametrize("which", ["neg_spread_functional", "product_functional"])
    def test_members_equal_one_level_envelopes(self, which, request, rng):
        F = request.getfixturevalue(which)
        u, v = rng.uniform(0.0, 1.0, (2, 150))
        u[:3], v[:3] = [0.0, 1.0, 0.4], [0.3, 0.2, 1.0]
        pairs = cb.bound_surfaces_for_levels(F, self._levels(F))
        members = [s for pair in pairs for s in pair]
        assert len({id(s.group[0]) for s in members}) == 1
        values = evaluate_surfaces(members, u, v)
        saturated = unsaturated = 0
        for level, pair, got in zip(self._levels(F), pairs, zip(values[::2], values[1::2])):
            [one_level] = cb.bound_surfaces_for_levels(F, [level])
            for one, member, together in zip(one_level, pair, got):
                want = one(u, v)
                np.testing.assert_array_equal(together, want)
                np.testing.assert_array_equal(member(u, v), want)
            fallback = np.minimum(u, v)
            saturated += int(np.sum(got[1] == fallback))
            unsaturated += int(np.sum(got[1] != fallback))
        assert saturated and unsaturated

    def test_bracket_end_evaluated_once_per_point_and_side(
        self, neg_spread_functional, monkeypatch, rng
    ):
        F = neg_spread_functional
        levels = self._levels(F)[1:-1]
        u, v = rng.uniform(0.05, 0.95, (2, 80))
        seen = _record_maps(monkeypatch, F)
        one_level = {"lower": 0, "upper": 0}
        for level in levels:
            for s in cb.bound_surfaces_for_levels(F, [level])[0]:
                s(u, v)
        for side, log in seen.items():
            assert _bracket_end_points(log, side) == levels.size * u.size
            one_level[side] = sum(a.size for a, _, _ in log)
            log.clear()

        pairs = cb.bound_surfaces_for_levels(F, levels)
        evaluate_surfaces([s for pair in pairs for s in pair], u, v)
        for side, log in seen.items():
            assert _bracket_end_points(log, side) == u.size
            # the brackets still open take the same steps as one level at a time
            assert sum(a.size for a, _, _ in log) == one_level[side] - (levels.size - 1) * u.size

    @pytest.mark.parametrize("which", ["neg_spread_functional", "product_functional"])
    def test_envelopes_monotone_in_level(self, which, request):
        F = request.getfixturevalue(which)
        span = F.value_comonotone - F.value_countermonotone
        tol = 1e-10

        @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
        @settings(max_examples=25, deadline=None)
        def check(f1, f2, seed):
            lo, hi = sorted((f1, f2))
            levels = F.value_countermonotone + span * np.array([lo, hi])
            if not levels[0] < levels[1]:
                return
            u, v = np.random.default_rng(seed).uniform(0.0, 1.0, (2, 40))
            (low1, up1), (low2, up2) = cb.bound_surfaces_for_levels(F, levels, theta_tol=tol)
            l1, u1, l2, u2 = evaluate_surfaces([low1, up1, low2, up2], u, v)
            slack = tol + 4 * np.spacing(1.0)
            assert np.all(l1 <= l2 + slack)
            assert np.all(u1 <= u2 + slack)

        check()


class TestKinkSplitAccuracy:
    """Co-path segments of the negated spread near the shift 0.12220 where
    the path touches the kink curve, against quadrature between the exact
    kink roots."""

    @staticmethod
    def oracle(F, lo, hi, shift):
        def on_path(u, f):
            x = F.m_x.quantile_unchecked(np.clip(u, DEFAULT_EPS, 1 - DEFAULT_EPS))
            y = F.m_y.quantile_unchecked(np.clip(u + shift, DEFAULT_EPS, 1 - DEFAULT_EPS))
            return f(x, y)

        kink = lambda u: on_path(u, lambda x, y: x - y)
        grid = np.linspace(lo, hi, 4001)
        d = np.sign(kink(grid))
        roots = [optimize.brentq(kink, grid[i], grid[i + 1], xtol=1e-15)
                 for i in np.flatnonzero(d[:-1] * d[1:] < 0)]
        ends = [lo, *roots, hi]
        total = sum(
            integrate.quad(lambda u: float(on_path(u, F.integrand)), p, q,
                           epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            for p, q in zip(ends[:-1], ends[1:])
        )
        return total, roots

    @pytest.mark.parametrize("shift, n_roots", [(0.12205, 2), (0.1221, 2), (-0.05, 2)])
    def test_segment_matches_quad_between_exact_roots(self, neg_spread_functional, shift, n_roots):
        F = neg_spread_functional
        lo, hi = max(0.0, -shift), min(1.0, 1.0 - shift)
        want, roots = self.oracle(F, lo, hi, shift)
        assert len(roots) == n_roots
        got = float(F._seg(lo, hi, shift, False))
        assert abs(got - want) <= 1e-8


    @pytest.mark.parametrize("shift", [-0.1, 0.05])
    def test_wider_first_marginal(self, lognormal_marginals, shift):
        # sigma 0.3 / 0.2: the kink curve leaves the square near both
        # corners; every shifted path still crosses it at most twice
        my, mx = lognormal_marginals
        F = cb.MonotoneFunctional(
            lambda x, y: -np.maximum(x - y, 0.0), mx, my, kink=lambda x, y: x - y
        )
        lo, hi = max(0.0, -shift), min(1.0, 1.0 - shift)
        want, roots = self.oracle(F, lo, hi, shift)
        assert roots
        assert abs(float(F._seg(lo, hi, shift, False)) - want) <= 1e-8


class TestEnvelopeValidation:
    @pytest.mark.parametrize("which", ["neg_spread_functional", "log_product_functional"])
    def test_envelopes_validate_as_quasi_copulas(self, which, request):
        F = request.getfixturevalue(which)

        @given(st.floats(0.0, 1.0), st.integers(2, 20))
        @settings(max_examples=15, deadline=None)
        def check(frac, grid_n):
            level = F.value_countermonotone + frac * (F.value_comonotone - F.value_countermonotone)
            pair = cb.bound_surfaces_for_levels(F, [level])[0]
            for values in evaluate_surfaces(list(pair), *lattice(grid_n)):
                report = _validate(values, "quasi-copula")
                assert report.passed, report.summary()

        check()
