"""``inv_decreasing`` as ``inv_increasing`` on the negated function, against
a verbatim copy of the bisection it replaced, and ``cumulative_quad`` on
powers of x."""

import math

import numpy as np
import pytest

from jumpiso.numerics import INF, cumulative_quad, inv_decreasing


def ref_inv_decreasing(fn, target, lo=1e-300, hi=1e300, rtol=1e-12, max_iter=400):
    """inf{s > 0 : fn(s) <= target} for a nonincreasing fn; inf(empty) = inf."""
    if fn(lo) <= target:
        return 0.0
    a = max(lo, 1e-300)
    b = 1.0
    if fn(b) <= target:
        a = b
        while a > lo and fn(a) <= target:
            b = a
            a = a / 16.0
        if fn(a) <= target:
            return a
    else:
        a = b
        while b < hi:
            b = b * 16.0
            if fn(b) <= target:
                break
            a = b
        else:
            return INF
    for _ in range(max_iter):
        mid = math.sqrt(a * b)
        if fn(mid) <= target:
            b = mid
        else:
            a = mid
        if b - a <= rtol * b:
            break
    return b


FUNCTIONS = {
    "power": lambda s: s ** -0.5,
    # flat on [1e-3, 1e3] and beyond 1e40: targets on a plateau
    "plateaus": lambda s: 5.0 if s < 1e-3 else (2.0 if s <= 1e3 else
                                                 (1.0 / s if s <= 1e40 else 0.0)),
    "staircase": lambda s: float(np.floor(-np.log10(s))),
    "numpy_scalar": lambda s: np.exp(-np.float64(s)),
    "bounded_below": lambda s: 2.0 + 1.0 / s,
}
TARGETS = [-INF, INF, 0.0, 1e-30, 1e-3, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 1e30]


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_inv_decreasing_equals_reference_bisection(name):
    fn = FUNCTIONS[name]
    for target in TARGETS:
        for kw in ({}, {"lo": 1e-3}, {"lo": 1e-3, "hi": 1e3}):
            got = inv_decreasing(fn, target, **kw)
            want = ref_inv_decreasing(fn, target, **kw)
            assert float(got).hex() == float(want).hex(), (target, kw)


def test_inv_decreasing_edge_cases():
    f = FUNCTIONS["plateaus"]
    assert inv_decreasing(f, 5.0, lo=1e-6) == 0.0              # met at lo
    assert inv_decreasing(f, 0.0, hi=1e3) == INF               # never met below hi
    assert 1e40 < inv_decreasing(f, 0.0) < INF
    assert inv_decreasing(f, -INF) == INF
    assert inv_decreasing(f, INF) == 0.0
    assert inv_decreasing(FUNCTIONS["bounded_below"], 1.0) == INF


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("q", [-0.9, 0.0, 0.5, 3.0])
def test_cumulative_quad_integrates_powers_to_rounding(q, descending):
    """int_{x_0}^x t^q dt = x_0^a expm1(a log(x/x_0))/a with a = q + 1.  In
    y = log x the integrand is e^{a y}, which the 4-node rule integrates to
    rounding on pieces of log width w with |a| w <= 0.2: the knots of a
    201-point grid on [1e-2, 1e2] are 0.046 apart, and for q = -0.9 the
    grid's two ends alone make one segment split into 19 pieces."""
    grid = np.geomspace(1e-2, 1e2, 201)
    a = q + 1.0
    for g in [grid] + ([grid[[0, -1]]] if abs(a) * 0.5 <= 0.2 else []):
        g = g[::-1] if descending else g
        got = cumulative_quad(lambda x: x ** q, g)
        want = g[0] ** a * np.expm1(a * np.log(g / g[0])) / a
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-14, atol=0)
