import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import copulabounds as cb
from copulabounds import constrained
from copulabounds.constrained import ConstraintError

from _oracles import (
    chain_envelopes,
    direct_envelopes,
    mixture_values,
    random_point_set,
    reflected,
)

# a few shared values, so that drawn points tie in a, in b and on the edges
_COORD = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
# coordinates and values that are valid, out of range or not finite
_ENTRY = st.one_of(_COORD, st.sampled_from([-0.25, 1.5, np.nan, np.inf]))


def grid(n=101):
    g = np.linspace(0.0, 1.0, n)
    return np.meshgrid(g, g, indexing="ij")


class TestClassify:
    def test_increasing_pair(self):
        cs = cb.ConstraintSet.from_points([(1 / 3, 1 / 3, 0.0), (2 / 3, 2 / 3, 1 / 3)])
        assert cs.is_increasing and not cs.is_decreasing

    def test_decreasing_pair(self):
        cs = cb.ConstraintSet.from_points([(0.2, 0.8, 0.15), (0.8, 0.2, 0.15)])
        assert cs.is_decreasing and not cs.is_increasing

    def test_all_pairs_opposite_is_decreasing(self):
        # every pair here is oppositely ordered, so the set is decreasing
        cs = cb.ConstraintSet.from_points(
            [(0.2, 0.2, 0.1), (0.8, 0.1, 0.05), (0.1, 0.8, 0.05)]
        )
        assert cs.is_decreasing and not cs.is_increasing

    def test_mixed(self):
        cs = cb.ConstraintSet.from_points(
            [(0.2, 0.2, 0.0), (0.8, 0.1, 0.0), (0.9, 0.9, 0.8)]
        )
        assert not cs.is_increasing and not cs.is_decreasing

    def test_ties_count_both_ways(self):
        cs = cb.ConstraintSet.from_points([(0.5, 0.2, 0.1), (0.5, 0.8, 0.4)])
        assert cs.is_increasing and cs.is_decreasing

    def test_tiny_differences_keep_their_order(self):
        # (da)(db) underflows to -0.0 here; the order itself is unambiguous
        cs = cb.ConstraintSet.from_points([(0.0, 1e-170, 0.0), (1e-170, 0.0, 0.0)])
        assert not cs.is_increasing and cs.is_decreasing

    def test_empty_and_singleton(self):
        for points in ([], [(0.3, 0.4, 0.2)]):
            cs = cb.ConstraintSet.from_points(points)
            assert cs.is_increasing and cs.is_decreasing

    @given(ab=st.lists(st.tuples(_COORD, _COORD), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_order_predicates_match_pairwise_definition(self, ab):
        a = np.array([p[0] for p in ab])
        b = np.array([p[1] for p in ab])
        cs = cb.ConstraintSet.from_points(zip(a, b, a * b))
        order = np.sign(a[:, None] - a[None, :]) * np.sign(b[:, None] - b[None, :])
        assert cs.is_increasing == bool(np.all(order >= 0))
        assert cs.is_decreasing == bool(np.all(order <= 0))


class TestConstraintValidation:
    def test_frechet_violation_rejected(self):
        with pytest.raises(ConstraintError, match="Frechet"):
            cb.ConstraintSet.from_points([(0.2, 0.3, 0.25)])

    def test_incompatible_pair_rejected_with_indices(self):
        with pytest.raises(ConstraintError, match="0 and 1"):
            cb.ConstraintSet.from_points([(0.21, 0.21, 0.0), (0.2, 0.2, 0.2)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ConstraintError):
            cb.ConstraintSet.from_points([(0.2, float("nan"), 0.1)])

    @pytest.mark.parametrize("point", [(1.2, 0.5, 0.5), (0.5, -0.1, 0.0)])
    def test_point_outside_the_square_rejected(self, point):
        with pytest.raises(ConstraintError, match="must lie in the unit square"):
            cb.ConstraintSet.from_points([point])

    @given(points=st.lists(st.tuples(_ENTRY, _ENTRY, st.none() | _ENTRY), max_size=6))
    @example(points=[(0.5, 0.5, 0.9)])  # above M(0.5, 0.5) = 0.5
    @example(points=[(0.5, 0.5, np.nan)])
    @settings(max_examples=300, deadline=None)
    def test_direct_construction_checks_as_from_points(self, points):
        # None stands for the product copula's value a * b: such points agree
        points = [(a, b, a * b if t is None else t) for a, b, t in points]

        def outcome(build):
            try:
                cs = build()
            except ConstraintError as exc:
                return str(exc)
            return cs.a.tolist(), cs.b.tolist(), cs.theta.tolist()

        a, b, t = (np.array([p[i] for p in points], dtype=float) for i in range(3))
        direct = outcome(lambda: cb.ConstraintSet(a, b, t))
        assert direct == outcome(lambda: cb.ConstraintSet.from_points(points))

    @pytest.mark.parametrize("columns", [
        ([0.5], [0.5, 0.6], [0.25]),
        ([[0.5]], [[0.5]], [[0.25]]),
        (0.5, 0.5, 0.25),
    ])
    def test_columns_must_be_flat_and_of_one_length(self, columns):
        with pytest.raises(ConstraintError, match="1-d arrays of one length"):
            cb.ConstraintSet(*columns)

    def test_checked_data_is_read_only(self):
        a = np.array([0.2, 0.6])
        cs = cb.ConstraintSet(a, [0.3, 0.7], [0.1, 0.5])
        a[0] = 0.9  # the set keeps its own copy
        assert cs.a[0] == 0.2
        for col in (cs.a, cs.b, cs.theta):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 0.9
        assert cs != cb.ConstraintSet.from_points([(0.2, 0.3, 0.1), (0.6, 0.7, 0.5)])

    def test_blocked_check_reports_the_full_matrix_pair(self, rng, monkeypatch):
        # the worst pair, first in row-major order, whatever the block size
        monkeypatch.setattr(constrained, "_BLOCK_POINTS", 7)
        seen = 0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a = rng.choice([0.2, 0.5, 0.8], n)
            b = rng.choice([0.2, 0.5, 0.8], n)
            t = np.maximum(0.0, a + b - 1.0) + rng.choice([0.0, 0.1], n) * np.minimum(a, b)
            excess = (
                t[None, :] - t[:, None]
                - np.maximum(a[None, :] - a[:, None], 0.0)
                - np.maximum(b[None, :] - b[:, None], 0.0)
            )
            if excess.max() <= 1e-12:
                continue
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            with pytest.raises(ConstraintError, match=f"constraints {i} and {j} "):
                cb.ConstraintSet.from_points(zip(a, b, t))
            seen += 1
        assert seen > 50

    def test_mixture_sets_always_compatible(self, rng):
        for kind in ("increasing", "decreasing", "none"):
            for _ in range(10):
                pts = random_point_set(rng, rng.integers(1, 15), kind)
                cb.ConstraintSet.from_points(pts)  # must not raise


class TestEnvelopes:
    def test_empty_set_gives_frechet(self):
        U, V = grid(41)
        A = cb.upper_bound([])
        B = cb.lower_bound([])
        assert np.array_equal(A(U, V), cb.frechet_upper(U, V))
        assert np.array_equal(B(U, V), cb.frechet_lower(U, V))
        assert A.is_copula and B.is_copula

    def test_singleton_reduces_to_one_point_bounds(self, rng):
        U, V = grid(41)
        a, b = 0.35, 0.6
        theta = 0.3
        want_upper, want_lower = direct_envelopes([(a, b, theta)], U, V)
        assert np.max(np.abs(cb.upper_bound([(a, b, theta)])(U, V) - want_upper)) == 0.0
        assert np.max(np.abs(cb.lower_bound([(a, b, theta)])(U, V) - want_lower)) == 0.0

    def test_counterexample_point_values(self):
        A = cb.upper_bound([(1 / 3, 1 / 3, 0.0), (2 / 3, 2 / 3, 1 / 3)])
        assert A(1 / 3, 1 / 3) == 0.0
        for u, v in [(2 / 3, 2 / 3), (1 / 3, 2 / 3), (2 / 3, 1 / 3)]:
            assert A(u, v) == pytest.approx(1 / 3, abs=1e-15)

    def test_match_property(self, rng):
        for kind in ("increasing", "decreasing", "none"):
            pts = random_point_set(rng, 12, kind)
            cs = cb.ConstraintSet.from_points(pts)
            A = cb.upper_bound(cs)
            B = cb.lower_bound(cs)
            for a, b, t in pts:
                assert abs(float(A(a, b)) - t) <= 1e-12
                assert abs(float(B(a, b)) - t) <= 1e-12

    def test_sandwich(self, rng):
        U, V = grid(81)
        W, M = cb.frechet_lower(U, V), cb.frechet_upper(U, V)
        for _ in range(8):
            pts = random_point_set(rng, rng.integers(1, 20), "none")
            A = cb.upper_bound(pts)(U, V)
            B = cb.lower_bound(pts)(U, V)
            assert np.all(W - 1e-15 <= B) and np.all(B <= A + 1e-15) and np.all(A <= M + 1e-15)

    def test_increasing_sets_make_lower_bound_a_copula(self, rng):
        for _ in range(5):
            pts = random_point_set(rng, rng.integers(1, 12), "increasing")
            B = cb.lower_bound(pts)
            assert B.is_copula
            assert cb.validate_copula(B, grid_n=80).passed

    def test_decreasing_sets_make_upper_bound_a_copula(self, rng):
        for _ in range(5):
            pts = random_point_set(rng, rng.integers(1, 12), "decreasing")
            A = cb.upper_bound(pts)
            assert A.is_copula
            assert cb.validate_copula(A, grid_n=80).passed

    def test_both_always_quasi_copulas(self, rng):
        for _ in range(5):
            pts = random_point_set(rng, rng.integers(1, 12), "none")
            assert cb.validate_quasi_copula(cb.upper_bound(pts), grid_n=80).passed
            assert cb.validate_quasi_copula(cb.lower_bound(pts), grid_n=80).passed

    def test_reflection_identity(self, rng):
        # upper envelope of S equals u - lower envelope of the reflected set
        U, V = grid(81)
        for _ in range(5):
            cs = cb.ConstraintSet.from_points(random_point_set(rng, 8, "none"))
            A = cb.upper_bound(cs)(U, V)
            B_ref = cb.lower_bound(reflected(cs))
            assert np.max(np.abs(A - (U - B_ref(U, 1.0 - V)))) <= 1e-12

    def test_more_information_never_widens(self, rng):
        U, V = grid(61)
        pts = random_point_set(rng, 6, "increasing")
        extra = random_point_set(rng, 9, "increasing")[:7]
        # keep only additions compatible with the base set
        for cand in extra:
            try:
                cs2 = cb.ConstraintSet.from_points(pts + [cand])
            except ConstraintError:
                continue
            A1, B1 = cb.upper_bound(pts)(U, V), cb.lower_bound(pts)(U, V)
            A2, B2 = cb.upper_bound(cs2)(U, V), cb.lower_bound(cs2)(U, V)
            assert np.all(A2 <= A1 + 1e-15)
            assert np.all(B2 >= B1 - 1e-15)


@st.composite
def _chains(draw):
    """Increasing point sets with ties in a and in b, points on the edges of
    the square and copula values from a Frechet/product mixture."""
    n = draw(st.integers(1, 40))
    a = np.sort(draw(st.lists(_COORD, min_size=n, max_size=n)))
    b = np.sort(draw(st.lists(_COORD, min_size=n, max_size=n)))
    t = _mixture(draw, a, b)
    perm = draw(st.permutations(range(n)))
    return [(a[k], b[k], t[k]) for k in perm]


def _mixture(draw, a, b):
    """Copula values at (a, b) of a drawn Frechet/product mixture."""
    w = np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3))) + 1e-3
    w = w / w.sum()
    return w[0] * np.maximum(0.0, a + b - 1.0) + w[1] * a * b + w[2] * np.minimum(a, b)


@st.composite
def _off_chains(draw):
    """Decreasing point sets (reflected chains) and unordered ones (a and b
    drawn apart), with copula values from a Frechet/product mixture."""
    if draw(st.booleans()):
        return [(a, 1.0 - b, a - t) for a, b, t in draw(_chains())]
    n = draw(st.integers(2, 40))
    a = np.array(draw(st.lists(_COORD, min_size=n, max_size=n)))
    b = np.array(draw(st.lists(_COORD, min_size=n, max_size=n)))
    return list(zip(a, b, _mixture(draw, a, b)))


@st.composite
def _checked_chains(draw):
    """Increasing or decreasing chains, some with one value moved within its
    Frechet bounds, which can make a pair incompatible."""
    points = draw(_chains())
    if draw(st.booleans()):
        points = [(a, 1.0 - b, a - t) for a, b, t in points]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(points) - 1))
        a, b, t = points[k]
        t = min(max(t + draw(st.floats(-0.2, 0.2)), max(0.0, a + b - 1.0)), min(a, b))
        points[k] = (a, b, t)
    return points


@st.composite
def _chain_queries(draw, points, mode):
    """Query points (u, v) for a chain, in one of the orders that decide how
    the chain path shares its range queries: ``sorted`` along both axes, as
    on a pricing path; ``repeated`` in runs of equal points; ``interleaved``,
    each point followed by one whose (#{a_k <= u}, #{b_k <= v}) is its own
    reversed where ties allow; ``blocks``, runs as in ``repeated`` for
    blocks of 7 points, so that runs cross block edges."""
    coord = st.one_of(st.sampled_from([c for p in points for c in p[:2]]), _COORD)
    size = draw(st.integers(1, 30), label="size")
    u = np.array(draw(st.lists(coord, min_size=size, max_size=size), label="u"))
    v = np.array(draw(st.lists(coord, min_size=size, max_size=size), label="v"))
    if mode == "sorted":
        return np.sort(u), np.sort(v)
    if mode == "interleaved":
        a, b = np.sort([p[0] for p in points]), np.sort([p[1] for p in points])
        i = np.searchsorted(a, u, side="right")
        j = np.searchsorted(b, v, side="right")
        swapped_u = np.where(j > 0, a[j - 1], 0.0)
        swapped_v = np.where(i > 0, b[i - 1], 0.0)
        return np.stack((u, swapped_u), axis=1).ravel(), np.stack((v, swapped_v), axis=1).ravel()
    runs = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size), label="runs")
    return np.repeat(u, runs), np.repeat(v, runs)


class TestChainPath:
    def test_a_chain_envelope_is_a_dict_key(self):
        # surfaces compare and hash by identity, although a point-set
        # envelope's structure holds the constraint arrays
        points = [(0.2, 0.3, 0.1), (0.5, 0.6, 0.4), (0.8, 0.9, 0.7)]
        up = cb.upper_bound(points)
        assert cb.ConstraintSet.from_points(points).is_increasing
        assert {up: "upper"}[up] == "upper"
        assert len({up, up, cb.upper_bound(points)}) == 2

    @given(points=st.one_of(_checked_chains(), _off_chains()))
    @settings(max_examples=150, deadline=None)
    def test_envelope_check_matches_the_pairwise_check(self, points):
        # a set is accepted exactly when no ordered pair (i, j) has a
        # directed Lipschitz excess above the tolerance
        a, b, t = (np.array(c, dtype=float) for c in zip(*points))
        worst = np.max(
            t[None, :] - t[:, None]
            - np.maximum(a[None, :] - a[:, None], 0.0)
            - np.maximum(b[None, :] - b[:, None], 0.0)
        )
        try:
            cb.ConstraintSet.from_points(points)
            accepted = True
        except ConstraintError:
            accepted = False
        assert accepted == (worst <= constrained._TOL)

    def test_chain_check_runs_without_the_pairwise_scan(self, monkeypatch):
        # the direct envelope is O(n^2) at the data: an increasing chain is
        # checked through the chain envelope instead
        monkeypatch.setattr(constrained, "_direct_envelope", None)
        g = np.linspace(0.0, 1.0, 16000)
        cb.ConstraintSet.from_points(zip(g, g * g, g * g * g))

    @given(points=_chains(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_chain_envelopes_match_the_definition(self, points, data):
        cs = cb.ConstraintSet.from_points(points)
        assert cs.is_increasing
        # query coordinates on the constraints' own a and b values too
        coord = st.one_of(st.sampled_from([c for p in points for c in p[:2]]), _COORD)
        size = data.draw(st.integers(1, 60), label="size")
        u = np.array(data.draw(st.lists(coord, min_size=size, max_size=size), label="u"))
        v = np.array(data.draw(st.lists(coord, min_size=size, max_size=size), label="v"))
        want_upper, want_lower = direct_envelopes(points, u, v)
        assert np.max(np.abs(cb.upper_bound(cs)(u, v) - want_upper)) <= 2.3e-16
        assert np.max(np.abs(cb.lower_bound(cs)(u, v) - want_lower)) <= 2.3e-16

    @given(points=_chains(), mode=st.sampled_from(["sorted", "repeated", "interleaved", "blocks"]),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_chain_envelopes_equal_the_generic_term_bit_for_bit(self, points, mode, data):
        # the chain path reads the generic term's bits off its range tables
        # and shares them along runs of points with equal (i, j); a run of
        # (i, j) = (p, q) next to one of (q, p) has the same range, not the
        # same term
        cs = cb.ConstraintSet.from_points(points)
        u, v = data.draw(_chain_queries(points, mode), label="queries")
        want_upper, want_lower = chain_envelopes(points, u, v)
        with pytest.MonkeyPatch.context() as mp:
            if mode == "blocks":
                mp.setattr(constrained, "_BLOCK_POINTS", 7)
            assert np.array_equal(cb.upper_bound(cs)(u, v), want_upper)
            assert np.array_equal(cb.lower_bound(cs)(u, v), want_lower)

    def test_blocks_cover_every_point(self, rng, monkeypatch):
        monkeypatch.setattr(constrained, "_BLOCK_POINTS", 7)
        points = random_point_set(rng, 30, "increasing")
        cs = cb.ConstraintSet.from_points(points)
        U, V = grid(11)
        want_upper, want_lower = direct_envelopes(points, U, V)
        assert np.max(np.abs(cb.upper_bound(cs)(U, V) - want_upper)) <= 2.3e-16
        assert np.max(np.abs(cb.lower_bound(cs)(U, V) - want_lower)) <= 2.3e-16

    def test_shapes_follow_the_arguments(self):
        cs = cb.ConstraintSet.from_points([(0.2, 0.3, 0.1), (0.6, 0.7, 0.5)])
        U, V = grid(5)
        for env in (cb.upper_bound(cs), cb.lower_bound(cs)):
            assert env(U, V).shape == (5, 5)
            assert env(U[:, :1], 0.5).shape == (5, 1)
            assert isinstance(env(0.4, 0.5), float)

    def test_memory_is_bounded(self):
        # a 4000-point chain and both envelopes, under 32 MB traced
        g = np.linspace(0.0, 1.0, 4000)
        points = list(zip(g.tolist(), (g * g).tolist(), (g * (g * g)).tolist()))
        tracemalloc.start()
        try:
            cs = cb.ConstraintSet.from_points(points)
            cb.lower_bound(cs), cb.upper_bound(cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestDirectPath:
    @given(points=_off_chains(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_other_sets_equal_the_definition_bit_for_bit(self, points, data):
        # decreasing and unordered sets take the direct path on both sides;
        # the upper side runs the lower one on negated data, exactly
        cs = cb.ConstraintSet.from_points(points)
        assume(not cs.is_increasing)
        coord = st.one_of(st.sampled_from([c for p in points for c in p[:2]]), _COORD)
        size = data.draw(st.integers(1, 60), label="size")
        u = np.array(data.draw(st.lists(coord, min_size=size, max_size=size), label="u"))
        v = np.array(data.draw(st.lists(coord, min_size=size, max_size=size), label="v"))
        want_upper, want_lower = direct_envelopes(points, u, v)
        assert np.array_equal(cb.upper_bound(cs)(u, v), want_upper)
        assert np.array_equal(cb.lower_bound(cs)(u, v), want_lower)


class TestBuilders:
    def test_second_to_default_matches_quotes(self, exp_marginals):
        mx, my = exp_marginals
        ref = cb.gaussian_copula(0.0)
        quotes = [
            (T, float(ref(float(mx.cdf(T)), float(my.cdf(T))))) for T in (2.0, 3.0)
        ]
        low, up = cb.bounds_from_second_to_default(quotes, mx, my)
        assert low.is_copula  # increasing constraint set
        for T, P in quotes:
            u, v = float(mx.cdf(T)), float(my.cdf(T))
            assert float(low(u, v)) == pytest.approx(P, abs=1e-14)
            assert float(up(u, v)) == pytest.approx(P, abs=1e-14)

    def test_second_to_default_empty(self, exp_marginals):
        mx, my = exp_marginals
        low, up = cb.bounds_from_second_to_default([], mx, my)
        U, V = grid(21)
        assert np.array_equal(low(U, V), cb.frechet_lower(U, V))
        assert np.array_equal(up(U, V), cb.frechet_upper(U, V))

    def test_single_quote_at_frechet_boundary(self, exp_marginals):
        mx, my = exp_marginals
        T = 2.0
        u, v = float(mx.cdf(T)), float(my.cdf(T))
        low, up = cb.bounds_from_second_to_default([(T, min(u, v))], mx, my)
        assert float(up(u, v)) == pytest.approx(min(u, v), abs=1e-15)

    def test_inconsistent_quote_rejected(self, exp_marginals):
        mx, my = exp_marginals
        with pytest.raises(ConstraintError):
            cb.bounds_from_second_to_default([(2.0, 0.9)], mx, my)

    def test_max_options_builder(self, lognormal_marginals):
        mx, my = lognormal_marginals
        ref = cb.gaussian_copula(0.5)
        curve = lambda K: ref(mx.cdf(K), my.cdf(K))
        strikes = np.linspace(40.0, 250.0, 50)
        low, up = cb.bounds_from_max_options(curve, mx, my, strikes)
        assert low.is_copula
        for K in strikes[::7]:
            u, v = float(mx.cdf(K)), float(my.cdf(K))
            assert float(low(u, v)) == pytest.approx(curve(K), abs=1e-12)
            assert float(up(u, v)) == pytest.approx(curve(K), abs=1e-12)

    def test_max_options_curve_called_once_on_the_strikes(self, lognormal_marginals):
        mx, my = lognormal_marginals
        ref = cb.gaussian_copula(0.5)
        calls = []

        def curve(K):
            calls.append(np.array(K))
            return ref(mx.cdf(K), my.cdf(K))

        strikes = np.linspace(40.0, 250.0, 50)
        cb.bounds_from_max_options(curve, mx, my, strikes)
        assert len(calls) == 1 and np.array_equal(calls[0], strikes)

    def test_one_point_grid_reduces_to_prop1(self, lognormal_marginals):
        mx, my = lognormal_marginals
        U, V = grid(41)
        ref = cb.gaussian_copula(0.3)
        curve = lambda K: ref(mx.cdf(K), my.cdf(K))
        low, up = cb.bounds_from_max_options(curve, mx, my, [100.0])
        a, b = float(mx.cdf(100.0)), float(my.cdf(100.0))
        theta = curve(100.0)
        want_upper, want_lower = direct_envelopes([(a, b, theta)], U, V)
        assert np.max(np.abs(up(U, V) - want_upper)) == 0.0
        assert np.max(np.abs(low(U, V) - want_lower)) == 0.0


class TestCsv:
    def test_point_constraints(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,b,theta\n0.3,0.4,0.2\n0.6,0.7,0.45\n")
        cs = cb.constraints_from_csv(p)
        assert len(cs) == 2
        assert cs.is_increasing and not cs.is_decreasing

    def test_price_constraints(self, tmp_path, exp_marginals):
        mx, my = exp_marginals
        p = tmp_path / "q.csv"
        p.write_text("T,price\n2.0,0.14\n3.0,0.26\n")
        cs = cb.constraints_from_price_csv(p, mx, my)
        assert len(cs) == 2
        assert cs.a[0] == pytest.approx(float(mx.cdf(2.0)))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,z\n0.1,0.2,0.05\n")
        with pytest.raises(ValueError, match="header"):
            cb.constraints_from_csv(p)

    @pytest.mark.parametrize("row", ["0.6,0.7", "0.6,x,0.45"])
    def test_bad_point_row_names_its_line(self, tmp_path, row):
        p = tmp_path / "c.csv"
        p.write_text(f"a,b,theta\n0.3,0.4,0.2\n\n{row}\n")
        with pytest.raises(ValueError, match=r"c\.csv:4: expected 3 numeric cells"):
            cb.constraints_from_csv(p)

    def test_short_price_row_names_its_line(self, tmp_path, exp_marginals):
        p = tmp_path / "q.csv"
        p.write_text("T,price\n2.0,0.14\n3.0\n")
        with pytest.raises(ValueError, match=r"q\.csv:3: expected 2 numeric cells"):
            cb.constraints_from_price_csv(p, *exp_marginals)
