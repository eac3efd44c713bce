import functools
import math

import mpmath as mp
import numpy as np
import pytest

from jumpiso.numerics import INF, gauss_rule, gauss_segments, loglog_slope
from jumpiso.perturbed import (_localization, example_threshold, log_weight, phi_l,
                               phi_l_scan, ramp_inner_sup, ramp_masses,
                               theorem_beta_curve)


# A 30-digit quadrature oracle for the weight, independent of the Beta
# functions the module uses: the radial density (1 + r^2)^{-(n+eps)/2} r^{n-1}
# integrated by mpmath, with [R, inf) mapped onto (0, 1] by r = R v^{-1/eps},
# which turns the slow r^{-1-eps} tail into a smooth integrand.

def _mp_integrals(n, eps, l):
    """(int_0^inf, int_l^{2l} g_l^2, int_l^{2l} g_l, int_l^{2l} 1 and
    int_{2l}^inf) of the radial density, at 30 digits."""
    h, e, l = mp.mpf(n + eps) / 2, mp.mpf(eps), mp.mpf(l)
    dens = lambda r: (1 + r * r) ** (-h) * r ** (n - 1)
    tail = lambda R: mp.quad(
        lambda v: dens(R * v ** (-1 / e)) * R / e * v ** (-1 / e - 1), [0, 1])
    ramp = lambda k: mp.quad(lambda r: ((r - l) / l) ** k * dens(r), [l, 2 * l])
    return mp.quad(dens, [0, 1]) + tail(mp.mpf(1)), ramp(2), ramp(1), ramp(0), tail(2 * l)


@functools.lru_cache(maxsize=None)
def _oracle_masses(n, eps, l):
    """(mass, l1mass, outside): the probability of g_l^2, g_l and |x| >= l."""
    with mp.workdps(30):
        total, sq, lin, flat, tail = _mp_integrals(n, eps, l)
        return tuple(float((part + tail) / total) for part in (sq, lin, flat))


def test_weight_normalization():
    with mp.workdps(30):
        for (alpha, eps) in [(1.0, 1.0), (0.5, 0.25), (1.5, 1.5), (1.0, 0.125)]:
            w = log_weight(2, alpha, eps)
            surf = 2 * mp.pi   # n = 2
            total = _mp_integrals(2, eps, 1.0)[0]
            mass = surf * mp.exp(-mp.mpf(float(w.W(0.0)))) * total
            assert abs(mass - 1) <= 1e-13


def test_ramp_masses_match_mpmath():
    # large l and eps resolve the slow r^{-1-eps} tail beyond 2l
    for (alpha, eps) in [(0.5, 0.125), (1.0, 0.5), (1.5, 1.5), (1.0, 3.0)]:
        w = log_weight(2, alpha, eps)
        for l in (1.0, 4.0, 16.0, 64.0, 1e3):
            mass, l1mass, _ = _oracle_masses(2, eps, l)
            assert ramp_masses(w, l) == pytest.approx((mass, l1mass), rel=1e-13, abs=0.0)


def test_phi_l_slopes():
    ls = np.geomspace(10 ** 1.5, 1e3, 10)
    for (alpha, eps) in [(1.0, 1.0), (0.5, 0.5), (1.5, 1.5), (1.0, 0.75)]:
        w = log_weight(2, alpha, eps)
        slope = loglog_slope(ls, [phi_l(w, float(l)) for l in ls])
        assert slope == pytest.approx(eps - alpha / 2.0, abs=1e-2)


def test_phi_l_flat_at_threshold():
    w = log_weight(2, 1.0, 0.5)
    ls = np.geomspace(10 ** 1.5, 1e3, 8)
    slope = loglog_slope(ls, [phi_l(w, float(l)) for l in ls])
    assert abs(slope) <= 1e-2
    scan = phi_l_scan(w, 50.0)
    assert scan["attained"]


def test_phi_l_monotone_and_decreasing_tail_flag():
    w = log_weight(2, 1.0, 1.0)
    vals = [phi_l(w, float(l)) for l in np.geomspace(2, 50, 8)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    below = log_weight(2, 1.0, 0.25)
    scan = phi_l_scan(below, 4.0)
    assert not scan["attained"]
    assert scan["note"] is not None


def test_phi_l_scan_equals_dense_grid_minimum():
    for (alpha, eps) in [(1.0, 1.0), (1.0, 0.5), (1.0, 0.25), (0.5, 1.5), (1.5, 0.76)]:
        w = log_weight(2, alpha, eps)
        for l in (1.0, 1.3, 4.0, 50.0, 1e3):
            scan = phi_l_scan(w, l)
            rs = np.geomspace(l, scan["r_max"], 10 ** 5)
            grid = float(np.min(np.exp(w.W(rs)) / rs ** (2 + alpha / 2)))
            assert grid * (1 - 1e-8) <= scan["value"] <= grid * (1 + 1e-13)


def test_gl_quantities_slopes():
    ls = np.geomspace(4.0, 64.0, 6)
    for (alpha, eps) in [(1.0, 0.5), (0.5, 0.25)]:
        sups = [ramp_inner_sup(2, alpha, float(l), 24) for l in ls]
        assert loglog_slope(ls, sups) == pytest.approx(-alpha / 2.0, abs=0.05)
        w = log_weight(2, alpha, eps)
        masses = [ramp_masses(w, float(l)) for l in ls]
        assert loglog_slope(ls, [m for m, _ in masses]) == \
            pytest.approx(-eps, abs=0.02)
        assert loglog_slope(ls, [l1 ** 2 for _, l1 in masses]) == \
            pytest.approx(-2.0 * eps, abs=0.04)


def test_ramp_support():
    w = log_weight(2, 1.0, 0.5)
    mass, l1mass = ramp_masses(w, 8.0)
    # g vanishes inside the ball: masses bounded by the outside weight
    outside = _oracle_masses(2, 0.5, 8.0)[2]
    assert 0 < mass <= l1mass <= outside + 1e-12


# The ramp quantities and the threshold loop as they were before the pair
# integral was hoisted out of the eps loop, kept verbatim as the oracle but
# for the masses, which come from the 30-digit oracle above.

def _reference_ramp_sq(rho, l):
    return np.clip((np.asarray(rho, dtype=float) - l) / l, 0.0, 1.0) ** 2


def _reference_ramp_inner_integral(weight, r, l):
    n, a = weight.n, weight.alpha
    if n != 2:
        raise ValueError("ramp quantities implemented for n = 2")
    gx = float(_reference_ramp_sq(r, l))
    s_max = 2e3 * l
    s_pts, s_wts = gauss_segments(1e-7 * l, s_max, 44, 10)
    ang_pts, ang_wts = gauss_segments(0.0, math.pi, 18, 8)
    cosang = np.cos(ang_pts)
    dist = np.sqrt(np.maximum(r * r + s_pts[:, None] ** 2
                              + 2.0 * r * s_pts[:, None] * cosang[None, :], 0.0))
    vals = np.abs(_reference_ramp_sq(dist, l) - gx)
    ang_total = vals @ ang_wts * 2.0
    main = float(np.dot(s_wts, s_pts ** (-1.0 - a / 2.0) * ang_total))
    tail = 2.0 * math.pi * max(1.0 - gx, gx) * (2.0 / a) * s_max ** (-a / 2.0)
    return main + tail


def _reference_gl_quantities(weight, l, r_points=40):
    rs = np.concatenate([np.linspace(0.0, 4.0 * l, r_points),
                         l * np.array([0.999, 1.0, 1.001, 1.9, 2.0, 2.1])])
    vals = np.array([_reference_ramp_inner_integral(weight, r, l)
                     for r in np.sort(rs)])
    inner_sup = float(vals.max())
    mass, l1mass, _ = _oracle_masses(weight.n, weight.eps, float(l))
    return {"inner_sup": inner_sup, "mass": mass, "l1mass": l1mass}


def _reference_example_threshold(n, alpha, eps_grid):
    l_grid = np.geomspace(4.0, 64.0, 6)
    phi_l_grid = np.geomspace(10.0 ** 1.5, 1e3, 12)
    tol = alpha / 16.0
    rows = []
    for eps in eps_grid:
        w = log_weight(n, alpha, eps)
        phis = np.array([phi_l(w, l) for l in phi_l_grid])
        phi_slope = loglog_slope(phi_l_grid, phis)
        bare, corrected = [], []
        for l in l_grid:
            q = _reference_gl_quantities(w, l, r_points=28)
            bare.append(q["inner_sup"] / q["mass"])
            denom = q["mass"] - q["l1mass"] ** 2
            corrected.append(q["inner_sup"] / denom if denom > 0 else INF)
        ratio_slope = loglog_slope(l_grid, np.array(bare))
        if ratio_slope < -tol:
            cls = "below"
        elif phi_slope > tol:
            cls = "above"
        else:
            cls = "at"
        rows.append({
            "eps": float(eps), "class": cls,
            "phi_slope": phi_slope, "expected_phi_slope": eps - alpha / 2.0,
            "ratio_slope": ratio_slope,
            "expected_ratio_slope": eps - alpha / 2.0,
            "corrected_ratio": [float(x) for x in corrected],
            "defective_holds": cls != "below",
            "full_holds": cls == "above",
        })
    return {"alpha": alpha, "n": n, "rows": rows}


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_example_threshold_equals_per_eps_reference(alpha):
    # inner_sup is scaled from l = 1, not integrated at each l: the ratios
    # and slopes move in the last digits only, the rest is bit-identical
    eps_grid = [alpha / 4, alpha / 2, alpha]
    got = example_threshold(2, alpha, eps_grid)
    ref = _reference_example_threshold(2, alpha, eps_grid)
    for row, want in zip(got.pop("rows"), ref.pop("rows"), strict=True):
        for key in ("phi_slope", "ratio_slope"):
            assert abs(row.pop(key) - want.pop(key)) <= 1e-12
        assert np.allclose(row.pop("corrected_ratio"), want.pop("corrected_ratio"),
                           rtol=1e-11, atol=0.0)
        assert row == want
    assert got == ref


def test_ramp_inner_sup_scales_with_l():
    # the rule is fixed relative to l, so inner_sup(l) = l^{-alpha/2} inner_sup(1)
    for alpha in (0.5, 1.0, 1.5):
        unit = ramp_inner_sup(2, alpha, 1.0, 28)
        for l in np.geomspace(4.0, 64.0, 6):
            assert ramp_inner_sup(2, alpha, l, 28) == \
                pytest.approx(unit * l ** (-alpha / 2.0), rel=1e-11, abs=0.0)


def test_ramp_quantities_equal_reference_and_inner_sup_is_eps_free():
    for l in (4.0, np.geomspace(4.0, 64.0, 6)[3], 64.0):
        sup = ramp_inner_sup(2, 1.0, l, 20)
        for eps in (0.25, 1.0):
            w = log_weight(2, 1.0, eps)
            ref = _reference_gl_quantities(w, l, r_points=20)
            assert ref["inner_sup"] == sup
            assert ramp_masses(w, l) == pytest.approx((ref["mass"], ref["l1mass"]),
                                                      rel=1e-13, abs=0.0)
    with pytest.raises(ValueError):
        ramp_inner_sup(3, 1.0, 4.0, 20)


def _sup_grad(weight, radius):
    # |W'(r)| = (n + eps) r / (1 + r^2) peaks at r = 1 inside every radius used
    return 0.5 * (weight.n + weight.eps)


def _sup_exp_half_w(weight, radius):
    # W increases
    return float(np.exp(0.5 * weight.W(radius)))


def _reference_theorem_beta(weight, r, phi_cache):
    # the scan before the r-free sups were cached per l, kept verbatim
    # but for the two sups, now in closed form
    n, alpha = weight.n, weight.alpha
    budget = 0.25 * min(r, 1.0)
    best = INF
    for l in np.geomspace(2.0, 1e10, 220):
        if l not in phi_cache:
            phi_cache[l] = phi_l(weight, max(l - 1.0, 1.0))
        phi = phi_cache[l]
        if phi <= 0 or 1.0 / phi >= budget:
            continue
        grad_cap = _sup_grad(weight, l + 2.0)
        s_hi = min(budget - 1.0 / phi, 1.0 / math.exp(2.0 * grad_cap))
        if s_hi <= 0:
            continue
        sup_w = _sup_exp_half_w(weight, l + 1.0)
        s = s_hi
        val = 2.0 * (s ** (-2.0 * n / alpha) + s ** (-n)) * sup_w
        best = min(best, val)
    return best


def test_theorem_beta_curve_equals_uncached_loop():
    r_grid = np.concatenate([np.geomspace(2e-2, 0.5, 6), [1.0, 3.0]])
    for (alpha, eps) in [(1.0, 1.0), (0.5, 0.5), (1.5, 0.375)]:
        w = log_weight(2, alpha, eps)
        cache = {}
        ref = np.array([_reference_theorem_beta(w, r, cache) for r in r_grid])
        assert np.array_equal(theorem_beta_curve(w, r_grid), ref)


def test_theorem_beta_sups_bound_a_dense_grid():
    # |W'| peaks at r = 1, which a coarse grid on [0, l + 2] misses once l
    # is large
    for (alpha, eps) in [(1.0, 1.0), (0.5, 0.125), (1.5, 3.0)]:
        w = log_weight(2, alpha, eps)
        for l in (2.0, 37.0, 1e3, 1e10):
            _, grad_cap, sup_w = _localization(w, l)
            assert grad_cap == pytest.approx(math.exp(-(2 + eps)), rel=1e-15)
            assert sup_w == pytest.approx(math.exp(0.5 * w.W(l + 1.0)), rel=1e-15)
            z = np.concatenate([np.linspace(0.0, l + 2.0, 10 ** 5),
                                np.geomspace(1e-3, l + 2.0, 10 ** 5)])
            grad = np.exp(2.0 * (2 + eps) * z / (1.0 + z * z))
            assert grad.max() <= (1.0 / grad_cap) * (1 + 1e-13)
            assert grad.max() >= (1.0 / grad_cap) * (1 - 1e-6)
            half_w = np.exp(0.5 * w.W(z[z <= l + 1.0]))
            assert half_w.max() <= sup_w * (1 + 1e-13)


def test_threshold_classification():
    rep = example_threshold(2, 1.0, [0.25, 0.5, 1.0])
    classes = {row["eps"]: row["class"] for row in rep["rows"]}
    assert classes == {0.25: "below", 0.5: "at", 1.0: "above"}
    flags = {row["eps"]: (row["defective_holds"], row["full_holds"])
             for row in rep["rows"]}
    assert flags[0.25] == (False, False)
    assert flags[0.5] == (True, False)
    assert flags[1.0] == (True, True)


def test_theorem_beta_decay_and_monotone():
    w = log_weight(2, 1.0, 1.0)
    r_grid = np.geomspace(2e-2, 0.5, 8)
    vals = theorem_beta_curve(w, r_grid)
    slope = loglog_slope(r_grid, vals)
    target = -2 * 2 / 1.0 - (2 + 1.0) / (2 * 1.0 - 1.0)
    assert slope == pytest.approx(target, rel=0.15)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    # saturation beyond r = 1
    big = theorem_beta_curve(w, [2.0, 20.0])
    assert big[0] == pytest.approx(big[1], rel=1e-9)


def _reference_gauss_segments(a, b, n_seg, nodes=16):
    """gauss_segments as it was before the rule cache: leggauss per call."""
    ratios = np.geomspace(1e-8, 1.0, n_seg + 1)
    edges = a + (b - a) * ratios
    edges[0] = a
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return pts, wts


def test_gauss_segments_cached_rule_equals_direct_construction():
    for nodes in (8, 10, 12, 16, 20):
        for _ in range(2):   # the second call reads the cache
            pts, wts = gauss_segments(1e-7, 3.5, 24, nodes)
            ref_pts, ref_wts = _reference_gauss_segments(1e-7, 3.5, 24, nodes)
            assert np.array_equal(pts, ref_pts) and np.array_equal(wts, ref_wts)
        gx, gw = gauss_rule(nodes)
        assert gauss_rule(nodes)[0] is gx
        for a in (gx, gw):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
