import numpy as np
import pytest

from jumpiso.numerics import gauss_rule, gauss_segments, loglog_slope
from jumpiso.perturbed import (example_threshold, gl_quantities, log_weight,
                               phi_l, phi_l_scan, theorem_beta_curve)


def test_weight_normalization():
    for (alpha, eps) in [(1.0, 1.0), (0.5, 0.25)]:
        w = log_weight(2, alpha, eps)
        assert w.radial_integral(lambda r: 1.0) == pytest.approx(1.0, rel=1e-9)


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


def test_gl_quantities_slopes():
    ls = np.geomspace(4.0, 64.0, 6)
    for (alpha, eps) in [(1.0, 0.5), (0.5, 0.25)]:
        w = log_weight(2, alpha, eps)
        rows = [gl_quantities(w, float(l), r_points=24) for l in ls]
        assert loglog_slope(ls, [r["inner_sup"] for r in rows]) == \
            pytest.approx(-alpha / 2.0, abs=0.05)
        assert loglog_slope(ls, [r["mass"] for r in rows]) == \
            pytest.approx(-eps, abs=0.02)
        assert loglog_slope(ls, [r["l1mass"] ** 2 for r in rows]) == \
            pytest.approx(-2.0 * eps, abs=0.04)


def test_ramp_support():
    w = log_weight(2, 1.0, 0.5)
    q = gl_quantities(w, 8.0, r_points=16)
    # g vanishes inside the ball: masses bounded by the outside weight
    outside = w.radial_integral(lambda r: 1.0, lo=8.0)
    assert 0 < q["mass"] <= q["l1mass"] <= outside + 1e-12


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
