import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from copulabounds.quadrature import solve_brackets


def _ramps(data):
    """Nondecreasing piecewise-linear function on [0, 1]: a sum of ramps
    with flat stretches between them.  Summed in a fixed order, it is
    nondecreasing in floating point too, and its flat values are exact."""
    n = data.draw(st.integers(1, 5), label="ramps")
    knots = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2 * n, max_size=2 * n)))
    heights = data.draw(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), min_size=n, max_size=n)
    )
    ramps = [(s, e, h) for s, e, h in zip(knots[0::2], knots[1::2], heights) if e - s > 1e-6]

    def f(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for s, e, h in ramps:
            total = total + h * np.clip((x - s) / (e - s), 0.0, 1.0)
        return total

    flats = [float(f(s)) for s, _, _ in ramps] + [float(f(1.0))]
    return f, flats


def _reference(pred, lo, hi):
    """200 halvings of [lo, hi], decided at the ends as the solver is."""
    if pred(hi):
        return hi, hi
    if not pred(lo):
        return lo, lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@given(
    data=st.data(),
    strict=st.booleans(),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    log_tol=st.floats(-12.0, -2.0),
)
@settings(max_examples=300, deadline=None)
def test_solver_matches_reference_bisection(data, strict, ends, log_tol):
    # flat segments resolve to their right end for g <= 0 and to their left
    # end for g < 0, within tol, in at most ceil(log2(w0 / tol)) + 1 steps
    f, flats = _ramps(data)
    level = data.draw(st.one_of(st.sampled_from(flats), st.floats(-0.5, 5.0)), label="level")
    lo, hi = min(ends), max(ends)
    tol = 10.0**log_tol
    holds = (lambda y: y < 0) if strict else (lambda y: y <= 0)
    g = lambda x: f(x) - level
    points = []

    def counted(x, idx):
        points.append(x.size)
        return g(x)

    left, right = solve_brackets(counted, lo, hi, g(lo), g(hi), tol, strict=strict)
    want_left, want_right = _reference(lambda x: bool(holds(g(x))), lo, hi)
    slack = tol + 1e-15
    assert abs(float(left) - want_left) <= slack
    assert abs(float(right) - want_right) <= slack
    assert float(right) - float(left) <= slack
    if hi - lo > tol:
        assert sum(points) <= math.ceil(math.log2((hi - lo) / tol)) + 1
    else:
        assert sum(points) == 0


def test_brackets_stop_on_their_own():
    # one batch: a decided bracket takes no step, and the narrow bracket
    # stops before the wide one
    sizes = []

    def g(x, idx):
        sizes.append(idx.size)
        return x - 0.3

    lo = np.array([0.0, 0.29, 0.5])
    hi = np.array([1.0, 0.31, 0.9])
    left, right = solve_brackets(g, lo, hi, lo - 0.3, hi - 0.3, 1e-12)
    assert right[2] == left[2] == 0.5
    assert np.all(np.abs(left[:2] - 0.3) <= 1e-12)
    assert sizes[0] == 2 and sizes[-1] == 1
    assert sum(sizes) <= (math.ceil(math.log2(1e12)) + 1) + (math.ceil(math.log2(0.02e12)) + 1)
