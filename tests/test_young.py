import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpiso.core import FiniteMeasureSpace
from jumpiso.instances import random_functions, random_instance
from jumpiso.numerics import INF
from jumpiso.young import (builtin, c_N, domination, indicator_norm,
                           invert_phi, log_profile, orlicz_norm,
                           orlicz_norm_batch, phi_h, phi_h_grid,
                           piecewise_linear_young, power_pair_profile,
                           power_profile, scale_young, scaling_bound_check,
                           tabulated_young, young_from_csv, young_is_valid,
                           young_to_csv)

ALL_BUILTINS = [
    builtin("power", p=1.2), builtin("power", p=2), builtin("power", p=3),
    builtin("pow_min", n=1, alpha1=0.5, alpha2=1.5),
    builtin("pow_max", n=2, alpha1=0.7, alpha2=1.3),
    builtin("tilde", n=2, alpha=1.0),
    builtin("log_plus", n=1, alpha=1.0, q=1.0),
    builtin("log_plus", n=1, alpha=1.0, q=-0.5),
    builtin("log_minus", n=2, alpha=0.5, q=1.5),
    builtin("log_minus", n=1, alpha=1.0, q=0.0),
]


@pytest.mark.parametrize("N", ALL_BUILTINS, ids=lambda N: f"{N.family}{N.params}")
def test_builtin_young_invariants(N):
    ok, msg = young_is_valid(N)
    assert ok, msg
    assert float(N(0.0)) == 0.0
    # generalized-inverse consistency on a grid
    for r in np.geomspace(1e-6, 1e6, 25):
        s = N.inv(r)
        assert float(N(s)) <= r * (1 + 1e-9) + 1e-12
        assert float(N(s * (1 + 1e-6))) >= r * (1 - 1e-6)


def test_log_q_zero_collapses_to_power():
    N = builtin("log_plus", n=1, alpha=1.0, q=0.0)
    p = 1.0 / (1.0 - 0.5)
    s = np.geomspace(1e-4, 1e4, 30)
    assert np.allclose(N(s), s ** p, rtol=1e-12)


def test_pow_min_collapse_and_value():
    N = builtin("pow_min", n=1, alpha1=1.0, alpha2=1.0)
    assert float(N(1.0)) == 1.0
    p = 1.0 / (1.0 - 0.5)
    assert float(N(2.0)) == pytest.approx(2.0 ** p)


def test_phi_h_power_oracle():
    # h(r) = r^{1/2}, n = 1, alpha = 1: inner integral 2 t^{-1/2}, outer 4 sqrt(s)
    prof = power_profile(0.5, 1.0, 1)
    for s in (1e-4, 0.3, 2.3, 50.0):
        assert phi_h(prof, s) == pytest.approx(4.0 * math.sqrt(s), rel=1e-12)
    assert phi_h(prof, 0.0) == 0.0


def test_phi_h_pair_matches_quadrature():
    from scipy import integrate
    prof = power_pair_profile(0.75, 0.25, True, 1.0, 2)

    def inner(t):
        T = t ** -0.5
        val, _ = integrate.quad(
            lambda r: 1.0 / min(r ** 0.75, r ** 0.25), 0, T, limit=200)
        return val
    for s in (0.2, 1.0, 4.0):
        ref, _ = integrate.quad(inner, 0, s, limit=200)
        assert phi_h(prof, s) == pytest.approx(ref, rel=1e-7)


def test_phi_h_divergent_profile_reported():
    bad = power_profile(1.5, 1.0, 1)  # kappa >= alpha: inner diverges
    with pytest.raises(ArithmeticError, match="diverge"):
        phi_h(bad, 1.0)


def test_invert_phi_round_trip():
    prof = power_profile(0.5, 1.0, 1)
    N = invert_phi(prof)
    assert float(N(3.0)) == pytest.approx(9.0 / 16.0, rel=1e-9)
    for u in np.geomspace(1e-3, 1e3, 17):
        assert phi_h(prof, float(N(u))) == pytest.approx(u, rel=1e-7)
    ok, msg = young_is_valid(N, lo=1e-4, hi=1e4)
    assert ok, msg


def test_invert_phi_log_profile_round_trip():
    prof = log_profile(1.0, 1, q=1.0, lam=2.0, inverse_arg=True)
    N = invert_phi(prof, s_min=1e-6, s_max=1e6)
    # round trip at the cached evaluation grid (the stated contract)
    knots = np.geomspace(1e-6, 1e6, 400)
    vals = phi_h_grid(prof, knots)
    for k in range(10, 400, 45):
        assert float(N(vals[k])) == pytest.approx(knots[k], rel=1e-7)
    # the two profile evaluators and off-grid inversion agree to quadrature
    for k in range(50, 350, 60):
        assert phi_h(prof, float(knots[k])) == pytest.approx(float(vals[k]), rel=1e-4)
    for u in np.geomspace(1e-2, 1e2, 9):
        assert phi_h(prof, float(N(u))) == pytest.approx(u, rel=1e-4)


def test_orlicz_norm_is_l2_for_square():
    N = builtin("power", p=2)
    rng = np.random.default_rng(0)
    for seed in range(10):
        space, *_ = random_instance(seed, (2, 8))
        f = rng.standard_normal(space.m)
        l2 = math.sqrt(float(np.sum(f * f * space.mu)))
        assert orlicz_norm(space, N, f) == pytest.approx(l2, rel=1e-9)


def test_orlicz_indicator_closed_form():
    rng = np.random.default_rng(1)
    for seed in range(6):
        space, *_ = random_instance(seed, (2, 8))
        m = space.m
        for N in (builtin("power", p=1.7), builtin("pow_min", n=1, alpha1=0.5, alpha2=1.5)):
            for _ in range(10):
                sel = rng.random(m) < 0.5
                if not sel.any():
                    continue
                f = sel.astype(float)
                mass = float(space.mu[sel].sum())
                assert orlicz_norm(space, N, f) == pytest.approx(
                    indicator_norm(N, mass), rel=1e-9)


def _reference_orlicz_norm(model, N, f, rtol=1e-10):
    """The scalar gauge as it was before the batched kernel, kept verbatim."""
    if isinstance(model, FiniteMeasureSpace):
        fv = np.abs(np.asarray(f, dtype=float))
        if fv.max(initial=0.0) == 0.0:
            return 0.0

        def G(r):
            vals = np.asarray(N(fv / r), dtype=float)
            with np.errstate(over="ignore"):
                return float(np.sum(vals * model.mu))
    else:
        def G(r):
            return model.integrate(lambda x: np.asarray(N(np.abs(f(x)) / r), dtype=float))

    hi = 1.0
    for _ in range(2400):
        if G(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        return INF
    lo = hi
    for _ in range(2400):
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
        if G(lo) > 1.0:
            break
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if G(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rtol * hi:
            break
    return hi


def _reference_shared_stop_batch(space, N, F, rtol=1e-10):
    """The earlier batch, kept verbatim: one stopping rule shared by all
    rows (at most 80 bisection steps) and halving that stops for every row
    once any row reaches 1e-300."""
    F = np.abs(np.asarray(F, dtype=float))
    K = F.shape[0]
    mu = space.mu[None, :]

    def G(r):
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(N(F / r[:, None]), dtype=float)
        return np.sum(np.where(F > 0, vals * mu, 0.0), axis=1)

    alive = F.max(axis=1) > 0
    hi = np.ones(K)
    for _ in range(2400):
        bad = alive & (G(hi) > 1.0)
        if not bad.any():
            break
        hi[bad] *= 2.0
    lo = hi / 2.0
    for _ in range(2400):
        ok = alive & (G(lo) <= 1.0)
        if not ok.any():
            break
        lo[ok] /= 2.0
        if lo.min() < 1e-300:
            break
    for _ in range(80):
        mid = np.sqrt(lo * hi)
        below = G(mid) <= 1.0
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
        if np.all(hi - lo <= rtol * hi):
            break
    return np.where(alive, hi, 0.0)


_TAB = np.geomspace(1e-3, 1e3, 60)
GAUGE_YOUNGS = [
    builtin("power", p=1.7),
    builtin("pow_min", n=1, alpha1=0.5, alpha2=1.5),
    builtin("log_plus", n=1, alpha=1.0, q=1.0),
    tabulated_young(_TAB, _TAB ** 1.8 + _TAB ** 1.2),
    piecewise_linear_young([0.0, 1.0, 2.0], [0.0, 0.5, 2.0], cap=3.0),
    scale_young(builtin("power", p=2), 7.0),
]


def _gauge_rows(rng, m):
    """Zero, constant, indicator, mixed-sign, huge, tiny and infinite rows."""
    rows = [np.zeros(m), np.ones(m), np.eye(m)[0], (rng.random(m) < 0.5) * 1.0,
            rng.standard_normal(m), 1e6 * rng.standard_normal(m),
            1e-6 * rng.standard_normal(m), np.full(m, 1e-301), np.zeros(m)]
    rows[-1][-1] = INF
    return np.array(rows)


class _UnitInterval:
    """[0, 1] under Lebesgue measure, by 24-node Gauss-Legendre."""

    x, w = np.polynomial.legendre.leggauss(24)

    def integrate(self, fn):
        return float(np.dot(self.w / 2.0, fn((self.x + 1.0) / 2.0)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("m", [1, 2, 5, 13])
def test_gauge_kernel_equals_reference_scalar(m):
    """Per-row stopping: the batch, the scalar and a one-row batch equal the
    earlier scalar bit for bit, on every row and Young function."""
    rng = np.random.default_rng(m)
    space = FiniteMeasureSpace(np.exp(rng.uniform(-1.0, 1.0, m)))
    F = _gauge_rows(rng, m)
    for N in GAUGE_YOUNGS:
        ref = [_reference_orlicz_norm(space, N, f) for f in F]
        assert orlicz_norm_batch(space, N, F).tolist() == ref, N.family
        assert [orlicz_norm(space, N, f) for f in F] == ref, N.family
        assert orlicz_norm_batch(space, N, F[4:5]).tolist() == ref[4:5]
    assert ref[0] == 0.0 and ref[-2] == 0.0 and ref[-1] == INF
    assert orlicz_norm_batch(space, N, np.zeros((0, m))).shape == (0,)


def test_continuum_gauge_equals_reference_scalar():
    model = _UnitInterval()
    for N in GAUGE_YOUNGS:
        for f in (lambda x: x - 0.3, lambda x: 1e4 * np.sin(7 * x), lambda x: 0.0 * x):
            assert orlicz_norm(model, N, f) == _reference_orlicz_norm(model, N, f)


def test_indicator_rows_match_closed_form():
    for seed in range(4):
        space, *_ = random_instance(seed, (2, 9))
        m = space.m
        masks = ((np.arange(1, 1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
        masses = masks @ space.mu
        for N in GAUGE_YOUNGS:
            got = orlicz_norm_batch(space, N, masks)
            want = [indicator_norm(N, float(mass)) for mass in masses]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def test_gauge_kernel_within_thm20_tolerance_of_shared_stop_batch():
    """thm20's gauges (s^2, grounded random families, as the CLI builds them)
    move by at most 1e-9 relative from the earlier shared-stop batch."""
    rng = np.random.default_rng(20)
    N = builtin("power", p=2)
    for seed in range(8):
        space, *_ = random_instance(seed, (3, 13))
        F = np.array(random_functions(rng, space.m, 40, grounded=True))
        np.testing.assert_allclose(orlicz_norm_batch(space, N, F),
                                   _reference_shared_stop_batch(space, N, F),
                                   rtol=1e-9, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_gauge_homogeneity(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    space = FiniteMeasureSpace(np.exp(rng.uniform(-1, 1, m)))
    N = builtin("power", p=float(rng.uniform(1.1, 3.0)))
    f = rng.standard_normal(m)
    c = float(rng.uniform(0.1, 10.0))
    assert orlicz_norm(space, N, c * f) == pytest.approx(
        c * orlicz_norm(space, N, f), rel=1e-8)


def test_gauge_triangle_inequality():
    rng = np.random.default_rng(2)
    N = builtin("log_plus", n=1, alpha=1.0, q=1.0)
    for seed in range(10):
        space, *_ = random_instance(seed, (2, 8))
        for _ in range(10):
            f = rng.standard_normal(space.m)
            g = rng.standard_normal(space.m)
            assert orlicz_norm(space, N, f + g) <= \
                orlicz_norm(space, N, f) + orlicz_norm(space, N, g) + 1e-8


def test_c_N_values():
    for p in (1.2, 1.5, 2.0, 3.0):
        assert c_N(builtin("power", p=p)) == pytest.approx(1.0 / p, abs=1e-9)
    assert c_N(builtin("power", p=1.0)) == pytest.approx(1.0, abs=1e-9)
    N = builtin("pow_min", n=1, alpha1=0.5, alpha2=1.5)
    p_hi = max(N.params["p1"], N.params["p2"])
    assert c_N(N) == pytest.approx(1.0 / p_hi, rel=1e-6)


def test_scaling_bounds():
    rng = np.random.default_rng(3)
    space, *_ = random_instance(0, (4, 8))
    fam = [rng.standard_normal(space.m) for _ in range(20)]
    for N in (builtin("power", p=2), builtin("log_minus", n=1, alpha=1.0, q=1.0)):
        rep = scaling_bound_check(space, N, 4.0 / (1.0 - math.exp(-1.0)), fam)
        assert rep["pass"], rep
        rep1 = scaling_bound_check(space, N, 1.0, fam)
        assert abs(rep1["worst_lower_slack"]) <= 1e-7
        assert abs(rep1["worst_upper_slack"]) <= 1e-7


def test_scaled_indicator_closed_form():
    N = builtin("power", p=2)
    cN = scale_young(N, 3.0)
    # for an indicator the scaled gauge keeps the closed inverse form
    assert indicator_norm(cN, 2.0) == pytest.approx(1.0 / cN.inv(0.5), rel=1e-12)


def test_domination_cases():
    N2, N3 = builtin("power", p=2), builtin("power", p=3)
    assert domination(N2, N2)["verdict"] == "dominated"
    assert domination(N2, N2)["sup_ratio"] == pytest.approx(1.0)
    rep = domination(N3, N2)
    assert rep["verdict"] == "not_dominated"
    assert rep["witness"] == "s->inf"
    # N1 = s^2, N2 = s^2 v s^3: ratio <= 1
    from jumpiso.theorems import cor41_young
    big = cor41_young(2, 2.0, 3.0)
    rep2 = domination(N2, big)
    assert rep2["verdict"] == "dominated"
    rep3 = domination(builtin("power", p=1.2), N2)
    assert rep3["verdict"] == "not_dominated"
    assert rep3["witness"] == "s->0"


def test_csv_round_trip():
    N = builtin("power", p=2)
    grid = np.geomspace(1e-3, 1e3, 40)
    text = young_to_csv(N, grid)
    N2 = young_from_csv(text)
    s = np.geomspace(1e-2, 1e2, 17)
    assert np.allclose(N2(s), N(s), rtol=1e-9)
