import math

import numpy as np
import pytest
from scipy import integrate

from jumpiso.numerics import loglog_slope
from jumpiso.radial import radial_l1_energy, sharpness_profile, unit_ball_volume
from jumpiso.young import builtin


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_radial_l1_energy_against_quadrature():
    def oracle(n, a1, a2, mode, s):
        if mode == "min_kernel":
            k = lambda u: 1.0 / np.maximum(u ** (n + a1 / 2), u ** (n + a2 / 2))
            hi = np.inf
        elif mode == "max_kernel":
            k = lambda u: 1.0 / np.minimum(u ** (n + a1 / 2), u ** (n + a2 / 2))
            hi = np.inf
        else:
            k = lambda u: u ** (-(n + a1 / 2)) * (u <= 1.0)
            hi = 1.0
        I, _ = integrate.quad(lambda u: min(s, u) * k(u) * u ** (n - 1), 0, hi,
                              limit=400)
        om = unit_ball_volume(n)
        return 2 * om * s ** n * n * om * I

    for (n, a1, a2, mode, s) in [(1, 0.5, 1.5, "min_kernel", 3.0),
                                 (2, 0.5, 1.5, "max_kernel", 0.3),
                                 (2, 1.0, 1.0, "truncated", 5.0),
                                 (3, 0.7, 1.2, "min_kernel", 0.1)]:
        assert radial_l1_energy(n, a1, a2, mode, s) == pytest.approx(
            oracle(n, a1, a2, mode, s), rel=1e-8)


@pytest.mark.parametrize("n", [1, 2])
def test_cone_energy_exponents(n):
    a1, a2 = 0.5, 1.5
    s_lo = np.geomspace(1e-7, 1e-5, 8)
    s_hi = np.geomspace(1e5, 1e7, 8)
    lo = loglog_slope(s_lo, [radial_l1_energy(n, a1, a2, "min_kernel", s) for s in s_lo])
    hi = loglog_slope(s_hi, [radial_l1_energy(n, a1, a2, "min_kernel", s) for s in s_hi])
    assert lo == pytest.approx(n + 1 - min(a1, a2) / 2, abs=0.05)
    assert hi == pytest.approx(n + 1 - max(a1, a2) / 2, abs=0.05)
    lo_t = loglog_slope(s_lo, [radial_l1_energy(n, a1, a2, "truncated", s) for s in s_lo])
    hi_t = loglog_slope(s_hi, [radial_l1_energy(n, a1, a2, "truncated", s) for s in s_hi])
    assert lo_t == pytest.approx(n + 1 - a1 / 2, abs=0.05)
    assert hi_t == pytest.approx(float(n), abs=0.05)


def test_monotone_in_s():
    vals = [radial_l1_energy(2, 0.5, 1.5, "min_kernel", s)
            for s in np.geomspace(0.1, 10, 12)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_sharpness_dichotomy():
    n, a1, a2 = 1, 0.5, 1.0
    s = np.geomspace(1e-3, 1e3, 49)
    crit = sharpness_profile(n, a1, a2, builtin("pow_min", n=n, alpha1=a1, alpha2=a2), s)
    assert abs(crit["slope_low"]) <= 0.01
    assert abs(crit["slope_high"]) <= 0.01
    # bump the small-exponent branch by 0.1: no longer dominated, blows up
    p1, p2 = n / (n - a1 / 2), n / (n - a2 / 2)
    from jumpiso.theorems import cor41_young
    bumped = cor41_young(1, min(p1, p2) + 0.1, max(p1, p2))
    bad = sharpness_profile(n, a1, a2, bumped, s)
    assert bad["slope_low"] <= -0.03
    # divergence magnitude consistent with the fitted trend over the grid
    assert bad["values"][0] / bad["values"][len(s) // 2] > 1.5
