import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammainc, gammaln

import jumpiso.lattice as lattice
from jumpiso.lattice import (P1_CHUNK, Z_STAR, LatticeWindow, _binom_parity_blocks,
                             gradient_decay, on_diagonal_decay, p1_hybrid,
                             p1_kernel, power_law_band, subord_weights,
                             torus_semigroup,
                             truncated_crossover_curve, weight_at, weight_tail)
from jumpiso.numerics import loglog_slope
from oracles import p1_convolution


def _reference_binom_table_rows(k_lo: int, k_hi: int, width: int) -> np.ndarray:
    # the full-table routine that the parity blocks replaced, kept verbatim
    ks = np.arange(k_lo, k_hi + 1, dtype=float)[:, None]
    js = np.arange(-width, width + 1, dtype=float)[None, :]
    up = (ks + js) / 2.0
    ok = (np.abs(js) <= ks) & (np.mod(ks + js, 2.0) == 0.0)
    with np.errstate(invalid="ignore"):
        logp = gammaln(ks + 1) - gammaln(up + 1) - gammaln(ks - up + 1) - ks * math.log(2.0)
    return np.where(ok, np.exp(logp), 0.0)


def _reference_p1_exact(n: int, alpha: float, K: int, R: int) -> np.ndarray:
    # the exact n = 1 and n = 2 routes on full tables, kept verbatim apart
    # from the name of the reference table routine
    w = subord_weights(alpha, K)
    if n == 1:
        acc = np.zeros(2 * R + 1)
        chunk = max(1, P1_CHUNK // (2 * R + 1))
        for lo in range(0, K, chunk):
            hi = min(K, lo + chunk)
            acc += (w.c[lo:hi, None] * _reference_binom_table_rows(lo + 1, hi, R)).sum(axis=0)
    elif n == 2:
        width = 2 * R
        M = np.zeros((2 * width + 1, 2 * width + 1))
        chunk = max(1, P1_CHUNK // (2 * width + 1))
        for lo in range(0, K, chunk):
            hi = min(K, lo + chunk)
            Tc = _reference_binom_table_rows(lo + 1, hi, width)
            M += Tc.T @ (w.c[lo:hi, None] * Tc)
        x1 = np.arange(-R, R + 1)[:, None]
        x2 = np.arange(-R, R + 1)[None, :]
        acc = M[(x1 + x2) + width, (x1 - x2) + width]
    return acc


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
        exact, _ = p1_kernel(n, 1.2, 8, 8)
        assert np.max(np.abs(p1_convolution(n, 1.2, 8, 8) - exact.values)) <= 1e-14


@pytest.mark.parametrize("width", [1, 7, 64])
def test_parity_blocks_equal_reference_table(width):
    K = 400
    logfact = np.pad(gammaln(np.arange(K + 1.0) + 1), width, constant_values=np.inf)
    # k_lo odd and even, rows with k < width, one-row chunks, the last row
    for k_lo, k_hi in [(1, 1), (1, 2), (2, 2), (1, 40), (2, 41), (3, 90),
                       (150, 151), (200, 331), (399, 400)]:
        ref = _reference_binom_table_rows(k_lo, k_hi, width)
        full = np.full_like(ref, np.nan)
        for par, k0, block in _binom_parity_blocks(logfact, k_lo, k_hi, width, -width):
            assert k0 in (k_lo, k_lo + 1) and (k0 - width - par) % 2 == 0
            full[k0 - k_lo::2, par::2] = block
            full[k0 - k_lo::2, 1 - par::2] = 0.0
        assert np.array_equal(full, ref)
        # the j >= 0 blocks are the matching columns of the same table
        half = np.full_like(ref[:, width:], np.nan)
        for par, k0, block in _binom_parity_blocks(logfact, k_lo, k_hi, width, 0):
            j0 = (width + par) % 2
            half[k0 - k_lo::2, j0::2] = block
            half[k0 - k_lo::2, 1 - j0::2] = 0.0
        assert np.array_equal(half, ref[:, width:])


@pytest.mark.parametrize("K,R", [(60000, 40), (30, 64)])
def test_p1_exact_n1_equals_reference_route(K, R):
    # K = 60000 spans three chunks of P1_CHUNK // 81 rows; K = 30 < R
    assert K < R or K > 2 * (P1_CHUNK // (2 * R + 1))
    new, _ = p1_kernel(1, 1.0, K, R)
    assert np.array_equal(new.values, _reference_p1_exact(1, 1.0, K, R))


def test_p1_hybrid_equals_reference_route(monkeypatch):
    new = p1_hybrid(1, 0.8, 200, K1=20000)

    def reference_kernel(n, alpha, K, R):
        win, per_entry = p1_kernel(n, alpha, K, R)
        win.values = _reference_p1_exact(n, alpha, K, R)
        return win, per_entry

    monkeypatch.setattr(lattice, "p1_kernel", reference_kernel)
    ref = p1_hybrid(1, 0.8, 200, K1=20000)
    assert np.array_equal(new.values, ref.values) and new.leak == ref.leak


@pytest.mark.parametrize("K,R", [(20000, 40), (12, 20), (81920, 128)])
def test_p1_exact_n2_within_tolerance_of_reference_route(K, R):
    # 2e-13 at the continuum workload's size, 1e-13 at the smaller ones
    bound = 2e-13 if (K, R) == (81920, 128) else 1e-13
    new, _ = p1_kernel(2, 1.3, K, R)
    ref = _reference_p1_exact(2, 1.3, K, R)
    nz = ref != 0.0
    assert np.all(new.values[~nz] == 0.0)
    assert np.max(np.abs(new.values[nz] - ref[nz]) / ref[nz]) <= bound


@pytest.mark.parametrize("alpha,K,R", [(1.3, 20000, 40), (0.5, 12, 20), (1.0, 7, 7),
                                       (1.5, 5000, 1), (0.8, 81920, 128)])
def test_p1_exact_n2_dihedral_symmetric(alpha, K, R):
    # K = 20000 and 81920 span several chunks; K = 12 sits below R, K = 7 at R
    v = p1_kernel(2, alpha, K, R)[0].values
    assert np.array_equal(v, v.T) and np.array_equal(v, v[::-1])
    assert np.array_equal(v, v[:, ::-1])


def test_p1_exact_n2_against_mpmath_sum():
    # p1(x) = sum_k c(k) q_k(x1 + x2) q_k(x1 - x2) with exact weights and
    # binomials at 30 digits, at the origin, on an axis, a diagonal, a corner
    alpha, K, R = 0.5, 3000, 12
    new = p1_kernel(2, alpha, K, R)[0]
    ref = _reference_p1_exact(2, alpha, K, R)
    with mpmath.workdps(30):
        for x1, x2 in [(0, 0), (7, 0), (5, 5), (12, -12)]:
            u, v = abs(x1 + x2), abs(x1 - x2)
            c, total = mpmath.mpf(alpha) / 2, mpmath.mpf(0)
            for k in range(1, K + 1):
                if k >= max(u, v) and (k - u) % 2 == 0:
                    total += (c * mpmath.binomial(k, (k + u) // 2)
                              * mpmath.binomial(k, (k + v) // 2) / mpmath.mpf(4) ** k)
                c *= (k - mpmath.mpf(alpha) / 2) / (k + 1)
            for got in (new.at((x1, x2)), ref[x1 + R, x2 + R]):
                assert abs(got - total) <= 5e-12 * total


def test_p1_symmetry_and_mass():
    win, per_entry = p1_kernel(1, 0.8, 64, 64)
    assert win.values.sum() <= 1.0 + 1e-12
    assert win.values.sum() >= 1.0 - win.leak - 1e-12
    assert np.allclose(win.values, win.values[::-1])
    assert per_entry < win.leak


def test_p1_band_small():
    win, _ = p1_kernel(1, 1.0, 4000, 32)
    band = power_law_band(win, 2.0, 2.0, 16.0)
    assert abs(band["slope"] + 2.0) <= 0.1
    assert band["band_ratio"] <= 10.0


def test_p1_hybrid_matches_exact_in_range():
    # the closed tail restores the k > K1 mass that a truncated mixture
    # loses, so compare against a much deeper truncation
    deep, _ = p1_kernel(1, 1.0, 300000, 64)
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
        assert abs(row.values.sum() - 1.0) <= 1e-8


def test_truncated_crossover_slopes():
    out = truncated_crossover_curve(1.0, R=1024, ell=48)
    assert abs(out["slope_stable"] - out["target_stable"]) <= 0.15 * abs(out["target_stable"])
    assert abs(out["slope_diffusive"] - out["target_diffusive"]) <= 0.15 * 0.5
    assert out["stable_points"] >= 4 and out["diffusive_points"] >= 4


def _reference_to_csv(win):
    # the per-entry writer before rows were written at once, kept verbatim
    grids, _ = win.offsets_and_radii()
    cols = [g.ravel() for g in grids]
    lines = [",".join([f"x{i}" for i in range(win.n)] + ["value"])]
    for idx in range(cols[0].size):
        coords = ",".join(str(int(c[idx])) for c in cols)
        lines.append(f"{coords},{float(win.values.ravel()[idx])!r}")
    return "\n".join(lines) + "\n"


def test_window_csv_equals_per_entry_reference():
    rng = np.random.default_rng(7)
    for n, R in [(1, 0), (1, 5), (2, 0), (2, 4), (3, 2)]:
        shape = (2 * R + 1,) * n
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        win = LatticeWindow(n, R, values)
        assert win.to_csv() == _reference_to_csv(win)
    for n in (1, 2):
        win, _ = p1_kernel(n, 1.0, 40, 6)
        assert win.to_csv() == _reference_to_csv(win)
    # values whose bit patterns differ but whose floats compare equal (0.0,
    # -0.0) or unordered (NaN payloads), infinities, subnormals, repeats
    other_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
    special = np.array([0.0, -0.0, np.nan, -np.nan, other_nan, np.inf, -np.inf,
                        5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
                        0.1, 0.1, -0.1, 1.0])
    win = LatticeWindow(1, 7, special)
    assert win.to_csv() == _reference_to_csv(win)
    values = rng.standard_normal((257, 257)) * 10.0 ** rng.integers(-300, 300, (257, 257))
    values[:, 129:] = values[:, 127::-1]                 # symmetric rows
    values[3] = rng.choice(special, 257)
    values[::17, ::5] = -0.0
    win = LatticeWindow(2, 128, values)
    assert win.to_csv() == _reference_to_csv(win)


def test_gammainc_is_one_beyond_z_star():
    # _tail_formula uses the exact 1.0 for gammainc(s, z) at z >= Z_STAR, at
    # every s = (n + alpha)/2 in (1/2, 2)
    s = np.linspace(0.5, 2.0, 153)[1:-1, None]
    z = np.concatenate([np.linspace(Z_STAR, 200.0, 15001),
                        np.geomspace(200.0, 1e12, 2001)])
    assert np.all(gammainc(s, z) == 1.0)


def test_window_csv():
    win, _ = p1_kernel(1, 1.0, 4, 4)
    text = win.to_csv()
    assert text.splitlines()[0] == "x0,value"
    assert len(text.splitlines()) == 10
    for line in text.splitlines()[1:]:
        assert all(math.isfinite(float(field)) for field in line.split(","))
