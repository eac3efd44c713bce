import math

import numpy as np
import pytest

from jumpiso.lattice import (LatticeWindow, gradient_decay, on_diagonal_decay,
                             p1_hybrid, p1_kernel, power_law_band, srw_kernels,
                             subord_weights, torus_semigroup,
                             truncated_crossover_curve, weight_at, weight_tail)
from jumpiso.numerics import loglog_slope


def test_srw_oracles():
    q = srw_kernels(1, 2, 4)
    assert q[0].at(1) == 0.5 and q[0].at(-1) == 0.5
    assert q[1].at(0) == 0.5 and q[1].at(2) == 0.25 and q[1].at(-2) == 0.25
    for k, win in enumerate(srw_kernels(2, 4, 4), start=1):
        assert win.total() == pytest.approx(1.0, abs=1e-12)
        # parity: q_k(0, x) = 0 when |x|_1 and k differ in parity
        grids, _ = win.offsets_and_radii()
        l1 = sum(np.abs(g) for g in grids)
        assert np.all(win.values[(l1 + k) % 2 == 1] == 0.0)
    with pytest.raises(ValueError, match="at least"):
        srw_kernels(1, 5, 4)


def test_subordination_weight_oracles():
    w = subord_weights(1.0, 64)
    assert w.c[0] == pytest.approx(0.5, abs=1e-15)
    assert w.c[1] == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert np.all(w.c > 0)
    # closed-form tail telescopes the recurrence
    assert w.tail == pytest.approx(1.0 - w.c.sum(), rel=1e-10)
    for alpha in (0.5, 1.5):
        ww = subord_weights(alpha, 40)
        assert ww.c[0] == pytest.approx(alpha / 2.0, abs=1e-15)
        assert ww.tail == pytest.approx(1.0 - ww.c.sum(), rel=1e-9)


def test_weight_asymptotics():
    # c(k) k^{1+alpha/2} -> alpha / (2 Gamma(1 - alpha/2))
    for alpha in (0.5, 1.0, 1.5):
        lim = alpha / (2.0 * math.gamma(1.0 - alpha / 2.0))
        ratio = weight_at(alpha, 1e6) * (1e6) ** (1 + alpha / 2.0)
        assert ratio == pytest.approx(lim, rel=1e-2)
    # the tail of the weights decays like K^{-alpha/2}
    ks = np.geomspace(1e3, 1e6, 8)
    tails = [weight_tail(1.0, k) for k in ks]
    assert loglog_slope(ks, tails) == pytest.approx(-0.5, abs=0.05)


def test_p1_exact_equals_convolution():
    for n in (1, 2):
        conv, _ = p1_kernel(n, 1.2, 8, 8, method="conv")
        exact, _ = p1_kernel(n, 1.2, 8, 8, method="exact")
        assert np.max(np.abs(conv.values - exact.values)) <= 1e-14


def test_p1_symmetry_and_mass():
    win, per_entry = p1_kernel(1, 0.8, 64, 64)
    assert win.total() <= 1.0 + 1e-12
    assert win.total() >= 1.0 - win.leak - 1e-12
    assert np.allclose(win.values, win.values[::-1])
    assert per_entry < win.leak


def test_p1_band_small():
    win, _ = p1_kernel(1, 1.0, 4000, 32, method="exact")
    band = power_law_band(win, 2.0, 2.0, 16.0)
    assert abs(band["slope"] + 2.0) <= 0.1
    assert band["band_ratio"] <= 10.0


def test_p1_hybrid_matches_exact_in_range():
    # the closed tail restores the k > K1 mass that a truncated mixture
    # loses, so compare against a much deeper truncation
    deep, _ = p1_kernel(1, 1.0, 300000, 64, method="exact")
    hyb = p1_hybrid(1, 1.0, 64, K1=30000)
    assert np.all(hyb.values >= deep.values * (1 - 1e-3) - 1e-15)
    assert np.max(np.abs(hyb.values - deep.values) / deep.values) <= 1e-2


def test_torus_semigroup_slopes_cheap():
    ts = np.geomspace(1.0, 64.0, 7)
    rows = torus_semigroup(1, 1.0, 1024, ts, K1=4000)
    t, diag = on_diagonal_decay(rows)
    _, grad = gradient_decay(rows)
    assert abs(loglog_slope(t, diag) + 1.0) <= 0.1
    assert abs(loglog_slope(t, grad) + 1.0) <= 0.1
    for row in rows.values():
        assert abs(row.total() - 1.0) <= 1e-8


def test_truncated_crossover_slopes():
    out = truncated_crossover_curve(1.0, R=1024, ell=48)
    assert abs(out["slope_stable"] - out["target_stable"]) <= 0.15 * abs(out["target_stable"])
    assert abs(out["slope_diffusive"] - out["target_diffusive"]) <= 0.15 * 0.5
    assert out["stable_points"] >= 4 and out["diffusive_points"] >= 4


def test_window_csv():
    win, _ = p1_kernel(1, 1.0, 4, 4)
    text = win.to_csv()
    assert text.splitlines()[0] == "x0,value"
    assert len(text.splitlines()) == 10
    for line in text.splitlines()[1:]:
        assert all(math.isfinite(float(field)) for field in line.split(","))
