import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal

import copulabounds as cb
from copulabounds.quadrature import unit_rule
from copulabounds import surfaces

from _oracles import owens_t_bivariate_normal_cdf, reflect_second, survival_value, volume

# rho on both sides of each limit where the kernel changes its rule
REGIME_EDGES = (0.2999, 0.3001, 0.7499, 0.7501, 0.9249, 0.9251)


class TestFrechet:
    def test_values(self):
        assert cb.frechet_lower(0.3, 0.4) == 0.0
        assert cb.frechet_upper(0.3, 0.4) == 0.3
        assert cb.frechet_lower(0.7, 1.0) == pytest.approx(0.7, abs=1e-15)

    def test_surfaces_tagged(self):
        assert cb.FRECHET_LOWER.is_copula and cb.FRECHET_UPPER.is_copula

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            cb.FRECHET_UPPER(1.2, 0.5)


class TestVolume:
    def test_m_central_cell(self):
        got = volume(cb.FRECHET_UPPER, 1 / 3, 2 / 3, 1 / 3, 2 / 3)
        assert got == pytest.approx(1 / 3, abs=1e-15)

    def test_unit_square_mass(self):
        for surf in (cb.PRODUCT, cb.FRECHET_LOWER, cb.gaussian_copula(0.4)):
            assert volume(surf, 0, 1, 0, 1) == pytest.approx(1.0, abs=1e-12)


class TestOnePointBounds:
    def test_theta_at_upper_frechet_forces_m(self, unit_grid_41):
        U, V = unit_grid_41
        cu = cb.upper_bound([(0.5, 0.5, 0.5)])
        assert np.max(np.abs(cu(U, V) - cb.frechet_upper(U, V))) <= 1e-15

    def test_theta_at_lower_frechet_forces_w(self, unit_grid_41):
        U, V = unit_grid_41
        cl = cb.lower_bound([(0.5, 0.5, 0.0)])
        assert np.max(np.abs(cl(U, V) - cb.frechet_lower(U, V))) <= 1e-15

    def test_both_match_theta_at_the_point(self):
        cu = cb.upper_bound([(0.5, 0.5, 0.25)])
        cl = cb.lower_bound([(0.5, 0.5, 0.25)])
        assert cu(0.5, 0.5) == 0.25
        assert cl(0.5, 0.5) == 0.25

    def test_random_bounds_are_copulas_and_ordered(self, rng, unit_grid_41):
        U, V = unit_grid_41
        for _ in range(10):
            a, b = rng.uniform(0.05, 0.95, 2)
            lo, hi = max(0.0, a + b - 1.0), min(a, b)
            theta = rng.uniform(lo, hi)
            cu = cb.upper_bound([(a, b, theta)])
            cl = cb.lower_bound([(a, b, theta)])
            assert np.all(cl(U, V) <= cu(U, V) + 1e-15)
            assert cb.validate_copula(cu, grid_n=60).passed
            assert cb.validate_copula(cl, grid_n=60).passed

    def test_invalid_theta_rejected(self):
        with pytest.raises(ValueError):
            cb.upper_bound([(0.2, 0.3, 0.25)])
        with pytest.raises(ValueError):
            cb.lower_bound([(0.8, 0.9, 0.5)])


class TestReflection:
    def test_reflect_m_is_w(self):
        r = reflect_second(cb.FRECHET_UPPER)
        assert r(0.7, 0.6) == pytest.approx(0.3, abs=1e-15)

    def test_reflect_w_is_m(self):
        r = reflect_second(cb.FRECHET_LOWER)
        assert r(0.2, 0.9) == pytest.approx(0.2, abs=1e-15)

    def test_involution_on_gaussian(self):
        C = cb.gaussian_copula(0.5)
        CC = reflect_second(reflect_second(C))
        g = np.linspace(0.0, 1.0, 101)
        U, V = np.meshgrid(g, g, indexing="ij")
        assert np.max(np.abs(CC(U, V) - C(U, V))) <= 1e-12

    @pytest.mark.parametrize("rho", REGIME_EDGES)
    def test_reflected_gaussian_negates_rho(self, rho, rng):
        # (U, 1 - V) is Gaussian with -rho, so both signs of every kernel
        # regime must agree through the reflection
        u, v = rng.uniform(0.0, 1.0, (2, 2000))
        got = reflect_second(cb.gaussian_copula(rho))(u, v)
        np.testing.assert_allclose(got, cb.gaussian_copula(-rho)(u, v), rtol=0, atol=1e-14)


class TestSurvival:
    def test_m_self_dual(self):
        assert survival_value(cb.FRECHET_UPPER, 0.4, 0.4) == pytest.approx(0.4, abs=1e-15)

    def test_product_invariant(self):
        assert survival_value(cb.PRODUCT, 0.5, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_w_on_antidiagonal(self):
        assert survival_value(cb.FRECHET_LOWER, 0.3, 0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("rho", REGIME_EDGES)
    def test_gaussian_is_radially_symmetric(self, rho, rng):
        u, v = rng.uniform(0.0, 1.0, (2, 2000))
        C = cb.gaussian_copula(rho)
        np.testing.assert_allclose(survival_value(C, u, v), C(u, v), rtol=0, atol=1e-14)


class TestGaussianCopula:
    def test_independence(self):
        C = cb.gaussian_copula(0.0)
        assert C(0.3, 0.7) == pytest.approx(0.21, abs=1e-15)

    def test_extreme_rho_are_frechet(self):
        assert cb.gaussian_copula(1.0)(0.4, 0.5) == pytest.approx(0.4, abs=1e-15)
        assert cb.gaussian_copula(-1.0)(0.4, 0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("rho", [-0.984375, -0.95, -0.7, 0.7, 0.95, 0.984375])
    def test_stays_within_frechet_bounds(self, rho, rng):
        # the kernel alone passes M (rho near 1) or W (rho near -1) by an ulp
        u, v = rng.uniform(0.0, 1.0, (2, 20000))
        got = cb.gaussian_copula(rho)(u, v)
        assert np.all(got <= cb.frechet_upper(u, v))
        assert np.all(got >= cb.frechet_lower(u, v))

    def test_median_point_arcsin_identity(self):
        got = cb.gaussian_copula(0.5)(0.5, 0.5)
        assert got == pytest.approx(0.25 + np.arcsin(0.5) / (2 * np.pi), abs=1e-12)
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_single_integral_reduction(self, rng):
        # C(u, v) = int_0^u Phi((ndtri(v) - rho*ndtri(t)) / sqrt(1-rho^2)) dt
        rho = 0.37
        C = cb.gaussian_copula(rho)
        rule = unit_rule()
        s = np.sqrt(1 - rho * rho)
        for _ in range(5):
            u, v = rng.uniform(0.05, 0.95, 2)
            zv = ndtri(v)
            nodes = rule.nodes * u
            weights = rule.weights * u
            ref = float(weights @ ndtr((zv - rho * ndtri(nodes)) / s))
            assert C(u, v) == pytest.approx(ref, abs=1e-8)

    def test_matches_scipy_bivariate_normal(self, rng):
        for rho in (-0.9, -0.3, 0.2, 0.8):
            C = cb.gaussian_copula(rho)
            mv = multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]])
            for _ in range(5):
                u, v = rng.uniform(0.01, 0.99, 2)
                ref = float(mv.cdf([ndtri(u), ndtri(v)]))
                assert C(u, v) == pytest.approx(ref, abs=1e-9)

    def test_half_line_arguments(self):
        # u = 0.5 maps to ndtri = 0, the delicate case of the T-function route
        mv = multivariate_normal(mean=[0, 0], cov=[[1, 0.6], [0.6, 1]])
        C = cb.gaussian_copula(0.6)
        for u, v in [(0.5, 0.5), (0.5, 0.2), (0.9, 0.5)]:
            assert C(u, v) == pytest.approx(float(mv.cdf([ndtri(u), ndtri(v)])), abs=1e-12)

    def test_concordance_ordering_in_rho(self):
        g = np.linspace(0.0, 1.0, 41)
        U, V = np.meshgrid(g, g, indexing="ij")
        rhos = sorted({-0.9, -0.5, 0.0, 0.5, 0.9} | {s * r for r in REGIME_EDGES for s in (-1, 1)})
        vals = [cb.gaussian_copula(r)(U, V) for r in rhos]
        for lo, hi in zip(vals, vals[1:]):
            assert np.all(hi - lo >= -1e-12)

    @pytest.mark.parametrize("rho", [s * r for r in REGIME_EDGES for s in (-1, 1)])
    def test_kernel_across_regimes(self, rho):
        # quantiles of probabilities from 1e-12 to 1 - 1e-12, all pairs
        p = np.concatenate([10.0 ** -np.arange(12.0, 1.0, -1.5), np.linspace(0.05, 0.95, 19)])
        z = ndtri(np.concatenate([p, 1.0 - p]))
        h, k = (a.ravel() for a in np.meshgrid(z, z))
        got = surfaces._bvn(h, k, rho, ndtr(h), ndtr(k))
        assert np.max(np.abs(got - owens_t_bivariate_normal_cdf(h, k, rho))) <= 1e-15
        mv = multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]])
        assert np.max(np.abs(got - mv.cdf(np.column_stack([h, k])))) <= 1e-15

    @pytest.mark.parametrize("rho", [-0.7, -0.2, 0.0, 0.5, 0.8, 0.95])
    def test_infinite_arguments_give_the_limits(self, rho):
        # the edges of the square are the infinite normal arguments: 0 when
        # either argument is 0 (-inf), the other one when one is 1 (+inf)
        u = np.array([0.0, ndtr(0.3), 0.0, 1.0, ndtr(0.3), 1.0, 1.0, 0.0])
        v = np.array([ndtr(0.3), 0.0, 1.0, 0.0, 1.0, ndtr(-0.4), 1.0, 0.0])
        want = [0.0, 0.0, 0.0, 0.0, ndtr(0.3), ndtr(-0.4), 1.0, 0.0]
        np.testing.assert_array_equal(cb.gaussian_copula(rho)(u, v), want)
        with pytest.raises(ValueError, match="arguments must lie in the unit square"):
            cb.gaussian_copula(rho)([np.nan, 0.5], [0.5, np.nan])

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            cb.gaussian_copula(1.5)


@pytest.mark.parametrize("make, fragment", [
    (lambda: cb.CopulaSurface(np.minimum, tag="copula"), "unknown provenance tag 'copula'"),
    # a one-point envelope, the one-point bound copula, raises ConstraintSet's errors
    (lambda: cb.upper_bound([(1.2, 0.5, 0.4)]), "constraint points must lie in the unit square"),
    (lambda: cb.upper_bound([(0.5, -0.1, 0.0)]), "constraint points must lie in the unit square"),
    # every comparison with NaN is false: NaN must fail the finiteness test
    (lambda: cb.upper_bound([(0.5, 0.5, np.nan)]), "constraints must be finite"),
    (lambda: cb.lower_bound([(0.5, 0.5, np.nan)]), "constraints must be finite"),
    (lambda: cb.lower_bound([(np.nan, 0.5, 0.2)]), "constraints must be finite"),
    (lambda: cb.PRODUCT(np.nan, 0.3), "arguments must lie in the unit square"),
    (lambda: cb.PRODUCT(0.3, [0.2, np.nan]), "arguments must lie in the unit square"),
    (lambda: cb.upper_bound([(0.2, 0.3, 0.1), (0.5, 0.6, 0.4)])(np.nan, 0.5),
     "arguments must lie in the unit square"),
    (lambda: cb.lower_bound([(0.2, 0.3, 0.1), (0.5, 0.6, 0.4)])([0.5, 0.7], np.nan),
     "arguments must lie in the unit square"),
    (lambda: cb.gaussian_copula(1.5), r"rho must lie in \[-1, 1\]"),
    (lambda: cb.gaussian_copula(-1.0 - 1e-12), r"rho must lie in \[-1, 1\]"),
])
def test_typed_errors(make, fragment):
    with pytest.raises(ValueError, match=fragment):
        make()


class TestValidators:
    def test_known_copulas_pass(self):
        for surf in (cb.FRECHET_UPPER, cb.FRECHET_LOWER, cb.PRODUCT, cb.gaussian_copula(0.5)):
            assert cb.validate_copula(surf, grid_n=200).passed
            assert cb.validate_quasi_copula(surf, grid_n=200).passed

    def test_quasi_copula_counterexample(self):
        # two increasing constraints whose upper envelope loses 2-increasingness
        A = cb.upper_bound([(1 / 3, 1 / 3, 0.0), (2 / 3, 2 / 3, 1 / 3)])
        assert cb.validate_quasi_copula(A, grid_n=60).passed
        rep = cb.validate_copula(A, grid_n=60)
        assert not rep.passed
        assert rep.min_cell_volume < -1e-6
        # negative mass concentrates inside the constrained square, totalling -1/3
        assert volume(A, 1 / 3, 2 / 3, 1 / 3, 2 / 3) == pytest.approx(
            -1 / 3, abs=1e-15
        )
        u1, v1, _, _ = rep.min_cell_at
        assert 1 / 3 - 0.02 <= u1 <= 2 / 3 and 1 / 3 - 0.02 <= v1 <= 2 / 3

    def test_boundary_violation_detected(self):
        broken = cb.CopulaSurface(lambda u, v: np.minimum(u, v) + 0.01)
        rep = cb.validate_quasi_copula(broken, grid_n=20)
        assert not rep.passed
        assert rep.boundary_error >= 0.01 - 1e-12

    def test_lipschitz_violation_detected(self):
        steep = cb.CopulaSurface(
            lambda u, v: np.minimum(1.0, np.maximum(2.0 * u + v - 2.0, 0.0) + np.minimum(u, v) * 0)
            + np.minimum(u, v) * 0.0
        )

        # C(u,v) = (2u + v - 2)^+ clipped: slope 2 in u near the corner
        rep = cb.validate_quasi_copula(steep, grid_n=50)
        assert rep.lipschitz_violation > 1e-6

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            cb.validate_copula(cb.PRODUCT, grid_n=1)

    def test_grid_must_be_an_integer(self):
        with pytest.raises(ValueError, match="grid_n must be an integer"):
            cb.validate_copula(cb.PRODUCT, grid_n=2.5)

    def test_report_summary_renders(self):
        rep = cb.validate_copula(cb.PRODUCT, grid_n=20)
        text = rep.summary()
        assert "pass" in text and "cell volume" in text and "non-finite" not in text

    @pytest.mark.parametrize("validate", [cb.validate_quasi_copula, cb.validate_copula])
    def test_all_nan_surface_fails(self, validate):
        # every comparison with NaN is false, so the excess checks pass it over
        nan = cb.CopulaSurface(lambda u, v: np.full(np.shape(u), np.nan))
        rep = validate(nan, grid_n=10)
        assert not rep.passed
        assert rep.nonfinite_at == (0.0, 0.0)
        assert "FAIL" in rep.summary() and "non-finite value    at (0.0, 0.0)" in rep.summary()

    @pytest.mark.parametrize("validate", [cb.validate_quasi_copula, cb.validate_copula])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_one_non_finite_node_fails_and_is_named(self, validate, bad):
        a, b = np.linspace(0.0, 1.0, 11)[[3, 7]]  # a node of the 11x11 lattice
        surface = cb.CopulaSurface(
            lambda u, v: np.where((u == a) & (v == b), bad, np.minimum(u, v))
        )
        rep = validate(surface, grid_n=10)
        assert not rep.passed
        assert rep.nonfinite_at == (a, b)
