import math

import mpmath
import numpy as np
import pytest

from jumpiso import theorems
from jumpiso.core import (FiniteMeasureSpace, JumpKernel, KillingPotential,
                          Semigroup, WeightFunction)
from jumpiso.instances import random_functions, random_instance
from jumpiso.isoperimetry import enumerate_profile
from jumpiso.numerics import INF, inv_decreasing, safe_pow
from jumpiso.superpoincare import (RateFunction, certified_rate, rate_power_log,
                                   rate_power_pair, rate_tabulated)
from jumpiso.theorems import (C_KILLED, C_STAR, _check_s_over_N_increasing,
                              cor41, cor41_round_trip, cor41_young,
                              lemma1_core, lemma1_poincare, lemma1_sobolev,
                              rate_from_gauge, thm21_verify, thm21_young,
                              thm41, thm42, thm43)
from jumpiso.young import YoungFunction, builtin, tabulated_young
from oracles import rate_power

SQ = lambda s: np.asarray(s, dtype=float) ** 2


def test_lemma1_core_indicator_single_level():
    space, kernel, gamma, _ = random_instance(0, (3, 6), with_gamma=True)
    f = np.zeros(space.m)
    f[0] = 1.0
    out = lemma1_core(space, kernel, gamma, SQ, f, G_inv=math.sqrt)
    assert out["pass"]
    # normalization: mu(G(c f)) = c^2 mu_0 = 1
    assert out["scale"] == pytest.approx(1.0 / math.sqrt(space.mu[0]), rel=1e-9)


def test_lemma1_core_zero_rejected():
    space, kernel, gamma, _ = random_instance(1, (3, 5), with_gamma=True)
    with pytest.raises(ValueError, match="normalization"):
        lemma1_core(space, kernel, gamma, SQ, np.zeros(space.m))


def test_lemma1_core_random_zero_violations():
    rng = np.random.default_rng(2)
    for seed in range(10):
        space, kernel, gamma, _ = random_instance(seed, (3, 10), with_gamma=(seed % 2 == 0))
        prof = enumerate_profile(space, kernel, gamma)
        for f in random_functions(rng, space.m, 10, grounded=True):
            if not np.any(f):
                continue
            out = lemma1_core(space, kernel, gamma, SQ, f, G_inv=math.sqrt,
                              profile=prof)
            assert out["pass"], (seed, out)


def test_lemma1_poincare():
    rng = np.random.default_rng(3)
    for seed in range(8):
        space, kernel, gamma, _ = random_instance(seed, (3, 9), with_gamma=True)
        prof = enumerate_profile(space, kernel, gamma)
        fam = random_functions(rng, space.m, 30, grounded=True)
        M = space.total_mass
        for s in np.geomspace(space.mu.min() * 0.5, 0.95 * M, 5):
            rep = lemma1_poincare(space, kernel, gamma, float(s), fam, profile=prof)
            assert rep["worst_slack"] >= -1e-9, (seed, s, rep)
    # constant functions hold up to s = 2 M by plain arithmetic
    space = FiniteMeasureSpace([1.0, 2.0])
    kernel = JumpKernel(space, [[0.0, 1.0], [1.0, 0.0]])
    const = [np.ones(2)]
    for s in (1.0, 4.0, 5.9):
        rep = lemma1_poincare(space, kernel, WeightFunction.ones(2), s, const)
        assert rep["worst_slack"] >= -1e-9


def test_lemma1_sobolev_two_point_closed_form():
    space = FiniteMeasureSpace([1.0, 1.0])
    kernel = JumpKernel(space, [[0.0, 3.0], [3.0, 0.0]])
    ones = WeightFunction.ones(2)
    N, rep = lemma1_sobolev(space, kernel, ones, f_family=[np.array([1.0, 0.0])])
    assert rep["worst_slack"] >= -1e-9
    # kappa = 3 on (1, 2]: the primitive is r/3 up to r = 1, then flat
    assert float(N(0.2)) == pytest.approx(0.6, rel=1e-12)
    assert math.isinf(float(N(0.5)))
    assert N.inv(0.9) == pytest.approx(0.3, rel=1e-12)


def test_lemma1_sobolev_random():
    rng = np.random.default_rng(4)
    for seed in range(8):
        space, kernel, gamma, _ = random_instance(seed, (3, 9), with_gamma=(seed % 2 == 0))
        fam = random_functions(rng, space.m, 25, grounded=True)
        N, rep = lemma1_sobolev(space, kernel, gamma, f_family=fam)
        assert rep["worst_slack"] >= -1e-9, (seed, rep)


def test_thm21_traced_constant():
    assert C_STAR == pytest.approx(2.0 / (1.0 - math.exp(-1.0)))
    assert C_KILLED == pytest.approx(2.0 * C_STAR)


# 20,001 log-spaced points on [1e-8, 1e8]: linear interpolation of a power
# law between them errs by at most about 4.2e-7 relative in beta^{-1}
LAW_GRID = np.geomspace(1e-8, 1e8, 20001)


def _law_table(c, a):
    """rate_tabulated table of beta(r) = c r^{-a}."""
    return rate_tabulated(LAW_GRID, c * LAW_GRID ** -a)


def test_thm21_two_point_closed_form_profile():
    # beta(r) = c/r on the symmetric two-point space: Phi has a closed form
    space = FiniteMeasureSpace([1.0, 1.0])
    kernel = JumpKernel(space, [[0.0, 3.0], [3.0, 0.0]])
    sg = Semigroup(space, kernel)
    theta_int, _ = sg.theta_curve(WeightFunction.ones(2))
    c, j, r_floor = 2.0, 3.0, 1e-3
    built = thm21_young(_law_table(c, 1.0), theta_int, s_max=5.0,
                        r_floor=r_floor, points=220)
    assert built["ok"]
    from scipy.integrate import quad
    theta_closed = lambda t: (1 - math.exp(-2 * j * t)) / j
    # hand-computable closed form, matched at construction grid points:
    # the constant theta_closed(c / r_floor) below r_floor, then the law
    for k in (60, 140, 219):
        s = float(built["grid"][k])
        head = min(s, r_floor) * theta_closed(c / r_floor)
        ramp = 0.0
        if s > r_floor:
            ramp, _ = quad(lambda r: theta_closed(c / r), r_floor, s,
                           epsrel=1e-11, epsabs=1e-300)
        assert built["values"][k] == pytest.approx(head + ramp, rel=1e-6)
    assert built["grid"][140] > r_floor > built["grid"][60]
    assert built["Phi"](0.0) == 0.0


def test_thm21_young_monotone_in_beta():
    space, kernel, gamma, _ = random_instance(5, (3, 6))
    sg = Semigroup(space, kernel)
    theta_int, _ = sg.theta_curve(gamma)
    base = _law_table(1.0, 1.2)
    bigger = _law_table(2.0, 1.2)
    a = thm21_young(base, theta_int, s_max=10.0, r_floor=1e-3, points=120)
    b = thm21_young(bigger, theta_int, s_max=10.0, r_floor=1e-3, points=120)
    # pointwise larger rate -> larger profile -> smaller Young function
    assert np.all(np.asarray(b["values"]) >= np.asarray(a["values"]) - 1e-12)
    for u in np.geomspace(1e-3, 1.0, 8):
        assert float(b["N"](u)) <= float(a["N"](u)) * (1 + 1e-9)


def test_thm21_degenerate_rate_reports_hypothesis():
    space, kernel, gamma, _ = random_instance(6, (3, 6))
    sg = Semigroup(space, kernel)
    theta_int, _ = sg.theta_curve(gamma)
    floor = rate_tabulated(LAW_GRID, np.ones_like(LAW_GRID))  # constant rate
    # the inverse degenerates at once below the rate's floor
    built = thm21_young(floor, theta_int, s_max=10.0, r_floor=0.5)
    assert not built["ok"]
    assert "infinite" in built["note"]


def test_thm21_verify_adversarial_and_random():
    space = FiniteMeasureSpace([10.0, 0.1])
    kernel = JumpKernel(space, [[0.0, 1.0], [1.0, 0.0]])
    rep = thm21_verify(space, kernel, WeightFunction.ones(2), seed=0)
    assert rep.passed
    assert rep.derived["empirical_constant"] <= C_STAR
    for seed in range(4):
        space, kernel, gamma, _ = random_instance(seed, (3, 7), with_gamma=(seed % 2 == 0))
        rep = thm21_verify(space, kernel, gamma, seed=seed)
        assert rep.passed, rep.to_dict()
        assert rep.derived["empirical_constant"] <= C_STAR + 1e-9


def test_thm41_closed_form_two_point():
    space = FiniteMeasureSpace([1.0, 1.0])
    kernel = JumpKernel(space, [[0.0, 3.0], [3.0, 0.0]])
    ones = WeightFunction.ones(2)
    N = builtin("power", p=2)
    fam = [np.array([1.0, 0.0]), np.array([0.0, -2.0])]
    r_grid = [0.05, 0.2, 1.0]
    rep = thm41(N, space, kernel, ones, fam, r_grid)
    assert rep.passed
    # indicator constant: ||1_A||_N / l1 = 1 / (2 * 3) with N^{-1}(1) = 1
    assert rep.derived["C_indicator"] == pytest.approx(1.0 / 6.0, rel=1e-9)
    # c_gamma = max_i sum_k j mu = 3
    assert rep.derived["c_gamma"] == pytest.approx(3.0)
    # a supplied C above the indicator constant is the one used, and holds
    rep = thm41(N, space, kernel, ones, fam, r_grid, C=0.5)
    assert rep.passed and rep.derived["C_used"] == 0.5


def test_thm41_thm42_chain_random():
    rng = np.random.default_rng(7)
    for seed in range(4):
        space, kernel, gamma, _ = random_instance(seed, (3, 7), with_gamma=(seed % 2 == 0))
        M = space.total_mass
        fam = random_functions(rng, space.m, 25, grounded=True)
        r_grid = np.geomspace(1e-3 / M, 1e2 / M, 8)
        N = builtin("power", p=2) if seed % 2 else cor41_young(1, 1.8, 2.5)
        rep1 = thm41(N, space, kernel, gamma, fam, r_grid)
        assert rep1.passed, rep1.to_dict()
        beta1 = rate_from_gauge(N, rep1.derived["C_used"], lead=2.0)
        rep2 = thm42(beta1, space, kernel, gamma, fam, r_grid)
        assert rep2.passed, rep2.to_dict()


def _thm42_profile(monkeypatch, beta1, seed=3):
    """thm42's report on a random instance and the (knots, Phi) table that
    it tabulates N = Phi^{-1} from."""
    space, kernel, gamma, _ = random_instance(seed, (3, 6), with_gamma=True)
    fam = random_functions(np.random.default_rng(seed), space.m, 10, grounded=True)
    r_grid = np.geomspace(1e-3 / space.total_mass, 1e2 / space.total_mass, 8)
    table, build = [], theorems.tabulated_young
    monkeypatch.setattr(theorems, "tabulated_young",
                        lambda vals, knots, **kw: table.append((knots, vals))
                        or build(vals, knots, **kw))
    return thm42(beta1, space, kernel, gamma, fam, r_grid), table


# relative tolerance of thm42's Phi against the 30-digit reference, fixed
# before the comparison was first run
THM42_PHI_REL = 1e-13


@pytest.mark.parametrize("name", ["gauge_root_p1.5", "gauge_root_p2", "power_a40"])
def test_thm42_primitive_matches_mpmath(monkeypatch, name):
    """Phi(t) = 4 int_0^t beta1^{-1}(r/2) dr at every knot of thm42's table,
    against mpmath at 30 digits.  The gauge root of N = s^p has the inverse
    beta1^{-1}(u) = C (u/2)^{1/p - 1}; rate_power(1, 40) has (1/u)^{1/40}."""
    if name == "power_a40":
        beta1 = rate_power(1.0, 40.0)
        inv = lambda u: (1 / u) ** (mpmath.mpf(1) / 40)
    else:
        p, C = float(name.rsplit("p", 1)[1]), 0.7
        beta1 = rate_from_gauge(builtin("power", p=p), C, lead=2.0)
        inv = lambda u: C * (u / 2) ** (1 / mpmath.mpf(p) - 1)
    _, table = _thm42_profile(monkeypatch, beta1)
    (knots, vals), = table
    with mpmath.workdps(30):
        for t, got in zip(knots, vals):
            want = mpmath.quad(lambda r: 4 * inv(r / 2), [0, mpmath.mpf(float(t))])
            assert abs(got - want) <= THM42_PHI_REL * want, (name, t, got, float(want))


@pytest.mark.parametrize("a", [1.0, 2.0 / 3.0])
def test_thm42_divergent_profile_fails(monkeypatch, a):
    """beta1^{-1}(u) = u^{-1/a}, 1/u and u^{-1.5}: 4 int_0^t beta1^{-1}(r/2) dr
    diverges at 0, so the gauge side is not built and "profile finite" fails."""
    rep, table = _thm42_profile(monkeypatch, rate_power(1.0, a))
    rows = {row["claim"]: row for row in rep.checks}
    assert not rep.passed and table == []
    assert rows["profile finite"]["slack"] == -INF
    assert "gauge bound at constant 1/2" not in rows
    assert "profile divergent at 0 or on the grid" in rep.notes


def test_thm41_requires_superlinear():
    space, kernel, gamma, _ = random_instance(8, (3, 5))
    sub = builtin("power", p=1.0)  # N(s)/s constant, boundary case passes
    rep = thm41(sub, space, kernel, gamma, [], [1.0])
    assert rep.passed


def test_cor41_case1_collapse():
    out = cor41(1, "to_rate", {"p1": 2.0, "p2": 2.0})
    beta1 = out["rate"]
    # classical pair: beta1 = 2 (C/r)^{p/(p-1)} with C = 1, p = 2
    for r in (0.1, 1.0, 10.0):
        assert beta1(r) == pytest.approx(2.0 * r ** -2.0, rel=1e-9)
    assert out["c_band"][1] / out["c_band"][0] < 1.001


def test_cor41_case3_q0_reduces_to_power():
    out = cor41(3, "to_rate", {"p1": 2.0, "q": 0.0})
    ref = cor41(1, "to_rate", {"p1": 2.0, "p2": 2.0})
    for r in (0.1, 1.0, 10.0):
        assert out["rate"](r) == pytest.approx(ref["rate"](r), rel=1e-9)


ROUND_TRIP_CASES = [
    (1, {"p1": 1.6, "p2": 2.4}), (2, {"p1": 1.6, "p2": 2.4}),
    (3, {"p1": 2.0, "q": 1.0}), (4, {"p1": 2.0, "q": 1.0})]


@pytest.mark.parametrize("case,params", ROUND_TRIP_CASES)
def test_cor41_round_trip_slope_fidelity(case, params):
    out = cor41_round_trip(case, params)
    assert out["pass"], out
    assert abs(out["slope_gap_low"]) <= 1e-3
    assert abs(out["slope_gap_high"]) <= 1e-3


# ---------------------------------------------------------------------------
# the gauge-root rate against the bisection constructions it replaced

REF_REL = 1e-9


def close_to_reference(new, old):
    return new == old or abs(new - old) <= REF_REL * abs(old)


def nested_gauge_root(N, C, lead):
    """The former rate_from_gauge: (rate, inverse), the inverse bisecting
    the bisected rate."""
    def ev(r):
        root = inv_decreasing(lambda s: C * N.inv(s) / s, r)
        return lead * root if not math.isinf(root) else INF
    return ev, lambda u: inv_decreasing(ev, u)


def old_beta_full(N, scale):
    """The former full rate of thm41 (and, with c_bar, of thm43)."""
    def beta_full(r):
        root = inv_decreasing(lambda s: N.inv(s) / s, math.sqrt(r) / scale)
        return 4.0 * root if not math.isinf(root) else INF
    return beta_full


def old_target_shape(case, p1, p2=None, q=0.0):
    """The former unit-constant target rate shapes of cor41."""
    a1, a2 = p1 / (p1 - 1.0), p2 / (p2 - 1.0)
    qq = q / (p1 - 1.0)
    if case == 1:
        return lambda r: max(safe_pow(r, -a1), safe_pow(r, -a2))
    if case == 2:
        return lambda r: min(safe_pow(r, -a1), safe_pow(r, -a2))
    if case == 3:
        return lambda r: safe_pow(r, -a1) * safe_pow(math.log(2.0 + r), -qq)
    return lambda r: safe_pow(r, -a1) * safe_pow(math.log(2.0 + 1.0 / r), -qq)


def _sobolev_young():
    space, kernel, gamma, _ = random_instance(3, (5, 7), with_gamma=True)
    return lemma1_sobolev(space, kernel, gamma)[0]


def _tabulated():
    s = np.geomspace(1e-6, 1e6, 61)
    return tabulated_young(s, s ** 2 + s ** 3)


# (Young function, number of u values on [1e-8, 1e8]): families whose N^{-1}
# is itself a bisection get few points, the nested reference is slow there
GAUGE_FAMILIES = {
    "power": (lambda: builtin("power", p=2), 17),
    "pow_min": (lambda: builtin("pow_min", n=1, alpha1=0.5, alpha2=1.5), 17),
    "pow_max": (lambda: builtin("pow_max", n=1, alpha1=0.5, alpha2=1.5), 17),
    "tilde": (lambda: builtin("tilde", n=2, alpha=1.0), 17),
    "log_plus": (lambda: builtin("log_plus", n=1, alpha=1.0, q=1.0), 5),
    "log_minus": (lambda: builtin("log_minus", n=1, alpha=1.0, q=1.0), 5),
    "cor41_case3": (lambda: cor41_young(3, 2.0, q=1.0), 5),
    "cor41_case4": (lambda: cor41_young(4, 2.0, q=1.0), 5),
    "lemma1_sobolev": (_sobolev_young, 17),
    "tabulated": (_tabulated, 17),
}


@pytest.mark.parametrize("name", sorted(GAUGE_FAMILIES))
def test_gauge_root_matches_nested_bisection(name):
    make, points = GAUGE_FAMILIES[name]
    N = make()
    assert _check_s_over_N_increasing(N)
    C, scale = 0.37, 1.3
    ev, iv = nested_gauge_root(N, C, 2.0)
    beta1 = rate_from_gauge(N, C, lead=2.0)
    for u in np.geomspace(1e-8, 1e8, points):
        assert close_to_reference(beta1.inv(u), iv(u)), (name, u)
    assert beta1.inv(INF) == 0.0 and beta1.inv(0.0) == INF
    full, ref = rate_from_gauge(N, scale, lead=4.0), old_beta_full(N, scale)
    for r in np.geomspace(1e-8, 1e8, 9):
        assert close_to_reference(beta1(r), ev(r)), (name, r)
        assert close_to_reference(full(math.sqrt(r)), ref(r)), (name, r)


@pytest.mark.parametrize("case,params", ROUND_TRIP_CASES)
def test_cor41_target_families_match_reference(case, params):
    p1, p2, q = params["p1"], params.get("p2", params["p1"]), params.get("q", 0.0)
    shape = old_target_shape(case, p1, p2, q)
    a = p1 / (p1 - 1.0)
    C = 0.37
    if case in (1, 2):
        target = rate_power_pair(C, a, p2 / (p2 - 1.0), use_max=case == 1)
    else:
        target = rate_power_log(C, a, q / (p1 - 1.0), inverse_arg=case == 4)
    for x in np.geomspace(1e-8, 1e8, 17):
        assert close_to_reference(target(x), C * shape(x)), x
        ref_inv = inv_decreasing(lambda r: C * shape(r), x)
        assert close_to_reference(target.inv(x), ref_inv), x
    # the fitted constant of the forward direction is unchanged
    r_grid = np.geomspace(1e-8, 1e8, 9)
    out = cor41(case, "to_rate", params, r_grid=r_grid)
    ratios = np.array([out["rate"](r) / shape(r) for r in r_grid])
    assert out["fitted_c"] == float(np.exp(np.mean(np.log(ratios))))


def test_cor41_inverts_each_monotone_function_once_per_point(monkeypatch):
    """beta1 of cor41's log cases searches the explicit N(tau)/tau, so no
    N^{-1} is evaluated; to_young inverts its target once per knot of its
    1,100-point t grid, and never inside the quadrature's integrand."""
    young_inv, rate_inv, quad = YoungFunction.inv, RateFunction.inv, theorems.cumulative_quad
    n_young, in_quad, rate_calls = [], [], []

    def integrate(fn, grid):
        in_quad.append(True)
        try:
            return quad(fn, grid)
        finally:
            in_quad.pop()

    monkeypatch.setattr(YoungFunction, "inv",
                        lambda self, r: n_young.append(r) or young_inv(self, r))
    monkeypatch.setattr(RateFunction, "inv",
                        lambda self, u: rate_calls.append(bool(in_quad)) or rate_inv(self, u))
    monkeypatch.setattr(theorems, "cumulative_quad", integrate)
    for case, params in ROUND_TRIP_CASES[2:]:
        cor41(case, "to_rate", params)
        assert n_young == [], case
    for case, params in ROUND_TRIP_CASES:
        rate_calls.clear()
        cor41(case, "to_young", params, C=0.37)
        assert len(rate_calls) == 1100 and not any(rate_calls), case


# relative tolerance of to_young's Phi against the 30-digit reference, fixed
# before the comparison was first run
PHI_REL = 1e-9


@pytest.mark.parametrize("case,params", ROUND_TRIP_CASES + [(1, {"p1": 5.0, "p2": 6.0})])
def test_cor41_to_young_primitive_matches_mpmath(case, params):
    """Phi(t) = 4 int_0^t beta1^{-1}(r/2) dr at to_young's first three knots
    (t = 1e-100 ...) and at sampled knots t in [1e-45, 1e100], against mpmath
    at 30 digits: rho = beta1^{-1}(t/2) by a root in y = log rho, then
    Phi = 4 t rho + 8 int_rho^inf beta1.  The pair (5, 6) has the slow tail
    sigma beta1 ~ sigma^{-0.2}, which a tail cut 80 log units up misses by
    about 1e-7."""
    mp = mpmath.mp
    C = 0.37
    p1, p2, q = params["p1"], params.get("p2", params["p1"]), params.get("q", 0.0)
    a1, a2, qq = mp.mpf(p1) / (p1 - 1), mp.mpf(p2) / (p2 - 1), mp.mpf(q) / (p1 - 1)

    def beta(rho):
        if case == 1:
            return C * max(rho ** -a1, rho ** -a2)
        if case == 2:
            return C * min(rho ** -a1, rho ** -a2)
        return C * rho ** -a1 * mp.log(2 + (rho if case == 3 else 1 / rho)) ** -qq

    out = cor41(case, "to_young", params, C=C)
    grid = np.geomspace(1e-100, 1e100, 1100)
    knots = np.flatnonzero(grid >= 1e-45)
    for i in np.concatenate([[0, 1, 2], knots[::40], [knots[-1]]]):
        with mpmath.workdps(30):
            t = mp.mpf(float(grid[i]))
            y = mp.findroot(lambda y: mp.log(beta(mp.exp(y))) - mp.log(t / 2),
                            math.log(out["rate"].inv(grid[i] / 2.0)))
            # the tail in w = log(sigma/rho), over order-one values: mp.quad's
            # error estimate is absolute; cases 1 and 2 split at the kink sigma = 1
            ends = [0] + ([-y] if case in (1, 2) and y < 0 else []) + [40, mp.inf]
            h = beta(mp.exp(y)) * mp.exp(y)
            tail = mp.quad(lambda w: beta(mp.exp(y + w)) * mp.exp(y + w) / h, ends)
            want = 4 * t * mp.exp(y) + 8 * h * tail
        got = out["young"].inv(grid[i])
        assert abs(got - want) <= PHI_REL * want, (case, float(t), got, float(want))


def test_thm43_killed_instances():
    for seed in range(3):
        space, kernel, gamma, pot = random_instance(seed, (3, 6), with_gamma=(seed % 2 == 0),
                                                    with_potential=True)
        rep = thm43(space, kernel, pot, gamma, seed=seed)
        assert rep.passed, rep.to_dict()
        assert rep.derived["empirical_forward_constant"] <= C_KILLED


def test_thm43_no_killing_reduces():
    space, kernel, gamma, _ = random_instance(9, (3, 5))
    pot = KillingPotential(np.zeros(space.m), np.ones(space.m))
    rep = thm43(space, kernel, pot, gamma, seed=0)
    assert rep.passed
    assert any("reduces" in note for note in rep.notes)


def test_thm43_zero_xi_reported():
    space, kernel, gamma, _ = random_instance(10, (3, 5))
    v = np.zeros(space.m)
    v[0] = 1.0
    pot = KillingPotential(v, np.zeros(space.m))
    rep = thm43(space, kernel, pot, gamma, seed=0)
    assert not rep.passed
    assert any("xi vanishes" in note for note in rep.notes)
