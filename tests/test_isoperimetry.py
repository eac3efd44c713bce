from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jumpiso.isoperimetry as isoperimetry
from jumpiso.core import FiniteMeasureSpace, JumpKernel, WeightFunction, l1_form
from jumpiso.instances import random_functions, random_instance
from jumpiso.isoperimetry import (coarea_check, enumerate_profile,
                                  indicator_constant, indicator_front,
                                  kappa_orlicz, pareto_front, thm20_backward,
                                  thm20_forward, thm20_poincare)
from jumpiso.numerics import INF, ext_ratio
from jumpiso.reports import TheoremReport
from jumpiso.young import builtin, indicator_norm
from oracles import layer_cake_l1


def brute_profile(space, kernel, gamma=None):
    m = space.m
    g = gamma.gamma if gamma is not None else np.ones((m, m))
    w = g * kernel.j * space.mu[:, None] * space.mu[None, :]
    out = {}
    for mask in range(1, (1 << m) - 1):
        sel = np.array([(mask >> i) & 1 for i in range(m)], bool)
        out[mask] = (float(space.mu[sel].sum()), float(w[np.ix_(sel, ~sel)].sum()))
    return out


def test_two_point_profile():
    space = FiniteMeasureSpace([1.0, 1.0])
    kernel = JumpKernel(space, [[0, 3.0], [3.0, 0]])
    prof = enumerate_profile(space, kernel)
    assert prof.kappa(0.5) == np.inf
    assert prof.kappa(1.0) == np.inf      # strict mass inequality
    assert prof.kappa(1.5) == 3.0
    assert prof.min_witness(1.5) == 1     # lexicographically smallest mask


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_enumeration_matches_brute_force(seed):
    space, kernel, gamma, _ = random_instance(seed % 1000, (2, 7), with_gamma=True)
    prof = enumerate_profile(space, kernel, gamma)
    ref = brute_profile(space, kernel, gamma)
    for mask, mass, flow in zip(prof.sorted_masks, prof.sorted_masses, prof.sorted_flows):
        em, ef = ref[int(mask)]
        assert mass == pytest.approx(em, abs=1e-12)
        assert flow == pytest.approx(ef, rel=1e-10, abs=1e-12)


def test_complement_symmetry_and_monotone_curve():
    space, kernel, gamma, _ = random_instance(3, (5, 8), with_gamma=True)
    prof = enumerate_profile(space, kernel, gamma)
    full = (1 << space.m) - 1
    lookup = {int(k): v for k, v in zip(prof.sorted_masks, prof.sorted_flows)}
    for mask in list(lookup)[:200]:
        assert lookup[mask] == pytest.approx(lookup[full ^ mask], rel=1e-10)
    s_grid = np.geomspace(prof.sorted_masses[0] * 0.9, prof.sorted_masses[-1] * 1.1, 40)
    values = [prof.kappa(float(s)) for s in s_grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_gamma_scaling_linearity():
    space, kernel, gamma, _ = random_instance(5, (3, 7), with_gamma=True)
    prof1 = enumerate_profile(space, kernel, gamma)
    prof2 = enumerate_profile(space, kernel, WeightFunction(3.0 * gamma.gamma))
    assert np.allclose(prof2.sorted_flows, 3.0 * prof1.sorted_flows, rtol=1e-12)


def test_kappa_orlicz_brute_force():
    for seed in range(15):
        space, kernel, _, _ = random_instance(seed, (3, 7))
        N = [builtin("power", p=1.5), builtin("power", p=2),
             builtin("pow_min", n=1, alpha1=0.5, alpha2=1.5)][seed % 3]
        ref = min(N.inv(1.0 / mass) * flow
                  for mass, flow in brute_profile(space, kernel).values())
        assert kappa_orlicz(space, kernel, N) == pytest.approx(ref, rel=1e-12)


def test_kappa_orlicz_two_point_and_scaling():
    space = FiniteMeasureSpace([1.0, 1.0])
    kernel = JumpKernel(space, [[0, 3.0], [3.0, 0]])
    N = builtin("power", p=2)
    assert kappa_orlicz(space, kernel, N) == pytest.approx(3.0)
    scaled = JumpKernel(space, 5.0 * np.asarray(kernel.j))
    assert kappa_orlicz(space, scaled, N) == pytest.approx(15.0)
    # disconnected support graph: zero
    disc = JumpKernel(FiniteMeasureSpace([1.0, 1.0, 1.0]),
                      [[0, 1.0, 0], [1.0, 0, 0], [0, 0, 0]])
    assert kappa_orlicz(disc.space, disc, N) == 0.0


@pytest.mark.parametrize("masses,brackets,front", [
    ([], [], ([], [])),
    ([2.0], [3.0], ([2.0], [3.0])),
    # equal masses: the least bracket stands for the level
    ([1.0, 1.0, 1.0], [4.0, 2.0, 3.0], ([1.0], [2.0])),
    # equal brackets across masses: only the largest mass stays
    ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0], ([3.0], [5.0])),
    # a chain, every subset on the front, given out of order
    ([3.0, 1.0, 2.0], [3.0, 1.0, 2.0], ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])),
    # a dominated level between two front levels
    ([1.0, 2.0, 3.0, 2.0], [1.0, 4.0, 3.0, 6.0], ([1.0, 3.0], [1.0, 3.0])),
])
def test_pareto_front(masses, brackets, front):
    got = pareto_front(masses, brackets)
    assert [a.tolist() for a in got] == list(front)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("young", ["power", "log_minus"])
def test_front_scan_equals_all_subsets_scan(seed, young):
    """On the front, the indicator constant sup ||1_A||_N / B(A) and the
    worst slack min C B(A) - ||1_A||_N equal the scan over every subset bit
    for bit; ties in mass and in bracket, and zero brackets, included."""
    N = builtin("power", p=2) if young == "power" else \
        builtin("log_minus", n=1, alpha=1.0, q=1.0)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 300))
    levels = np.exp(rng.uniform(np.log(0.05), np.log(40.0), int(rng.integers(1, 60))))
    masses = rng.choice(levels, size)
    brackets = np.round(np.exp(rng.uniform(-3.0, 3.0, size)), int(rng.integers(0, 4)))
    norms, B = indicator_front(N, masses, brackets)
    best, worst = 0.0, INF
    for mass, bracket in zip(masses, brackets):
        norm = indicator_norm(N, mass)
        best = max(best, ext_ratio(norm, bracket))
        worst = min(worst, 1.7 * bracket - norm)
    assert indicator_constant(norms, B).hex() == float(best).hex()
    assert float(np.min(1.7 * B - norms)).hex() == float(worst).hex()


def test_layer_cake_identity():
    rng = np.random.default_rng(0)
    for seed in range(10):
        space, kernel, gamma, _ = random_instance(seed, (3, 10), with_gamma=True)
        for _ in range(20):
            f = np.abs(rng.standard_normal(space.m)) * (rng.random(space.m) < 0.8)
            direct = l1_form(space, kernel, gamma, f)
            cake = layer_cake_l1(space, kernel, gamma, f)
            assert cake == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_coarea_report():
    rng = np.random.default_rng(1)
    for seed in range(6):
        space, kernel, gamma, _ = random_instance(seed, (3, 10), with_gamma=True)
        fam = [np.abs(f) for f in random_functions(rng, space.m, 30, grounded=True)]
        rep = coarea_check(space, kernel, fam, gamma if seed % 2 else None)
        assert rep["worst_slack"] >= -1e-9, rep


def test_coarea_check_reads_tol():
    # a floor lifted past the worst ratio leaves a slack of -5e-4: the
    # coarea row that verify writes fails at tol = 1e-9 and passes at 1e-3
    rng = np.random.default_rng(1)
    space, kernel, gamma, _ = random_instance(1, (3, 10), with_gamma=True)
    fam = [np.abs(f) for f in random_functions(rng, space.m, 30, grounded=True)]
    prof = enumerate_profile(space, kernel, gamma)
    slack = coarea_check(space, kernel, fam, gamma, prof)["worst_slack"]
    lifted = SimpleNamespace(
        global_min_ratio=lambda: prof.global_min_ratio() + (slack + 5e-4) / 2.0)
    worst = coarea_check(space, kernel, fam, gamma, lifted)["worst_slack"]
    assert -1e-3 < worst < -1e-9
    for tol, passed in ((1e-3, True), (1e-9, False)):
        rep = TheoremReport("coarea", tol=tol)
        rep.add("l1(f)/mu(f) >= 2 inf flow/mass", worst)
        assert rep.passed is passed


def test_thm20_forward_indicator_extremality(monkeypatch):
    # with indicators alone the forward bound is tight: kappa = 1/(2C)
    space, kernel, _, _ = random_instance(2, (3, 6))
    N = builtin("power", p=2)
    calls = []
    real = isoperimetry.enumerate_profile
    monkeypatch.setattr(isoperimetry, "enumerate_profile",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    rep = thm20_forward(space, kernel, N, [])
    assert len(calls) == 1     # both constants share one enumeration
    assert rep["slack"] >= -1e-9
    assert rep["lhs"] == pytest.approx(rep["rhs"], rel=1e-9)


def test_thm20_backward_zero_violations():
    rng = np.random.default_rng(3)
    for seed in range(10):
        space, kernel, _, _ = random_instance(seed, (3, 8))
        fam = random_functions(rng, space.m, 50, grounded=True)
        for N in (builtin("power", p=1.5), builtin("log_minus", n=1, alpha=1.0, q=1.0)):
            rep = thm20_backward(space, kernel, N, fam)
            assert rep["worst_slack"] >= -1e-9, (seed, rep)


def test_thm20_backward_kernel_scaling():
    space, kernel, _, _ = random_instance(4, (3, 6))
    N = builtin("power", p=2)
    rng = np.random.default_rng(4)
    fam = random_functions(rng, space.m, 20, grounded=True)
    a = thm20_backward(space, kernel, N, fam)
    scaled = JumpKernel(space, 2.0 * np.asarray(kernel.j))
    b = thm20_backward(space, scaled, N, fam)
    assert b["kappa"] == pytest.approx(2.0 * a["kappa"], rel=1e-10)
    assert b["C"] == pytest.approx(a["C"] / 2.0, rel=1e-10)


def test_thm20_poincare_modes():
    rng = np.random.default_rng(5)
    for seed in range(6):
        space, kernel, _, _ = random_instance(seed, (3, 8))
        prof = enumerate_profile(space, kernel)
        C2t = 1.0 / space.mu.min()
        slack = prof.sorted_masses - C2t * prof.sorted_masses ** 2
        C1 = max(1e-9, float(np.max(slack / (2.0 * prof.sorted_flows))))
        pc = thm20_poincare(space, kernel, C1, C2t,
                            f_family=random_functions(rng, space.m, 30, grounded=True))
        assert pc["subset"]["worst_slack"] >= -1e-9, pc
        assert pc["functional"]["worst_slack"] >= -1e-9, pc
    # the subset premise fails: no functional result
    assert thm20_poincare(space, kernel, 1e-9, 1e-9, f_family=[])["functional"] is None


def test_thm20_poincare_premise_gate_reads_tol():
    """A subset worst slack in (-tol, -1e-9) passes the premise at tol, so
    the functional form is checked; at the default 1e-9 it is not."""
    space, kernel, _, _ = random_instance(2, (4, 7))
    prof = enumerate_profile(space, kernel)
    C2t = 1.0 / space.mu.min()
    slack = prof.sorted_masses - C2t * prof.sorted_masses ** 2
    k = int(np.argmax(slack / (2.0 * prof.sorted_flows)))
    C1 = (slack[k] - 1e-6) / (2.0 * prof.sorted_flows[k])
    fam = random_functions(np.random.default_rng(2), space.m, 10, grounded=True)
    pc = thm20_poincare(space, kernel, C1, C2t, 1e-3, f_family=fam)
    assert -1e-3 < pc["subset"]["worst_slack"] < -1e-9
    assert pc["functional"] is not None
    assert thm20_poincare(space, kernel, C1, C2t, f_family=fam)["functional"] is None
