"""The one family x rate-grid slack evaluator against the per-pair loops it
replaced.

The reference functions below are verbatim copies of the seven (f, r) loops
that ``sp_verify``, ``lemma1_poincare``, ``thm20_poincare`` (backward),
``thm41`` (twice), ``thm42`` and ``thm43`` ran before ``core.rate_slacks``;
every slack, worst slack, witness and report row must equal theirs bit for
bit.  The loops keep their arithmetic; the tolerance counts and verdicts
they also returned are gone, since only report rows judge a slack.
"""

import math
import warnings

import numpy as np
import pytest

from jumpiso.core import (dirichlet_energy, l1_form, rate_slacks,
                          schrodinger_energy)
from jumpiso.instances import random_functions, random_instance
from jumpiso.isoperimetry import enumerate_profile, thm20_poincare
from jumpiso.numerics import INF
from jumpiso.superpoincare import RateFunction, certified_rate, sp_verify
from jumpiso.theorems import (cor41_young, lemma1_poincare, rate_from_gauge,
                              thm41, thm42, thm43)
from jumpiso.young import builtin, stack_family
from oracles import rate_power


def ref_sp_verify(space, kernel, beta, f_family, r_grid, potential=None):
    worst, witness = INF, None
    for fi, f in enumerate(f_family):
        f = np.asarray(f, dtype=float)
        l2 = float(np.sum(f * f * space.mu))
        l1sq = float(np.sum(np.abs(f) * space.mu)) ** 2
        en = schrodinger_energy(space, kernel, potential, f)
        for r in r_grid:
            with np.errstate(invalid="ignore"):   # r = +inf on a zero row: NaN
                slack = r * en + beta(r) * l1sq - l2
            if slack < worst:
                worst, witness = slack, (fi, float(r))
    return {"worst_slack": worst, "witness": witness}


def ref_lemma1_poincare(space, kernel, gamma, s, f_family, profile=None):
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    kap = prof.kappa(s)
    if kap == 0.0:
        return {"s": s, "kappa": 0.0, "worst_slack": INF, "vacuous": True,
                "note": "kappa(s) = 0: inequality vacuous"}
    coeff = 0.0 if math.isinf(kap) else 1.0 / (2.0 * kap)
    rows, worst = [], INF
    for idx, f in enumerate(f_family):
        f = np.asarray(f, dtype=float)
        lhs = float(np.sum(f * f * space.mu))
        l1sq = float(np.sum(np.abs(f) * space.mu)) ** 2
        rhs = coeff * l1_form(space, kernel, gamma, f * f) + 2.0 / s * l1sq
        slack = rhs - lhs
        fmin = float(np.min(np.abs(f)))
        guaranteed = s <= space.total_mass or fmin == 0.0
        rows.append({"f": idx, "slack": slack, "guaranteed": guaranteed})
        worst = min(worst, slack)
    return {"s": s, "kappa": kap, "worst_slack": worst, "rows": rows}


def ref_thm20_poincare_backward(space, kernel, C1, C2_tilde, f_family, gamma):
    worst, witness = INF, None
    for idx, f in enumerate(f_family or []):
        f = np.asarray(f, dtype=float)
        lhs = float(np.sum(f * f * space.mu))
        rhs = (C1 * l1_form(space, kernel, gamma, f * f)
               + 2.0 * C2_tilde * float(np.sum(np.abs(f) * space.mu)) ** 2)
        slack = rhs - lhs
        if slack < worst:
            worst, witness = slack, idx
    return {"worst_slack": worst, "witness": witness}


def _finite_rates(r_grid, rate) -> list:
    pairs = [(r, rate(r)) for r in r_grid]
    return [(r, b) for r, b in pairs if not math.isinf(b)]


def ref_thm41_defective(space, kernel, gamma, f_family, r_grid, beta1):
    rates = _finite_rates(r_grid, beta1)
    worst2 = INF
    for f in f_family:
        f = np.asarray(f, dtype=float)
        l2 = float(np.sum(f * f * space.mu))
        l1sq = float(np.sum(np.abs(f) * space.mu)) ** 2
        sq = l1_form(space, kernel, gamma, f * f)
        for r, b in rates:
            worst2 = min(worst2, r * sq + b * l1sq - l2)
    return worst2


def ref_thm41_full(space, kernel, f_family, r_grid, beta):
    rates = _finite_rates(r_grid, lambda r: beta(math.sqrt(r)))
    worst3 = INF
    for f in f_family:
        f = np.asarray(f, dtype=float)
        l2 = float(np.sum(f * f * space.mu))
        l1sq = float(np.sum(np.abs(f) * space.mu)) ** 2
        en = dirichlet_energy(space, kernel, f)
        for r, b in rates:
            worst3 = min(worst3, r * en + b * l1sq - l2)
    return worst3


def ref_thm42_full(space, kernel, fam, r_grid, beta1, c_gamma):
    rates = _finite_rates(
        r_grid, lambda r: 2.0 * beta1(math.sqrt(r) / (2.0 * math.sqrt(2.0 * c_gamma))))
    worst3 = INF
    for f in fam:
        l2 = float(np.sum(f * f * space.mu))
        l1sq = float(np.sum(np.abs(f) * space.mu)) ** 2
        en = dirichlet_energy(space, kernel, f)
        for r, b in rates:
            worst3 = min(worst3, r * en + b * l1sq - l2)
    return worst3


def ref_thm43_converse(space, kernel, potential, f_family, r_grid, conv_rate):
    worst_conv = INF
    for f in f_family:
        f = np.asarray(f, dtype=float)
        l2 = float(np.sum(f * f * space.mu))
        l1sq = float(np.sum(np.abs(f) * space.mu)) ** 2
        en = schrodinger_energy(space, kernel, potential, f)
        for r in r_grid:
            b = conv_rate(math.sqrt(r))
            if math.isinf(b):
                continue
            worst_conv = min(worst_conv, r * en + b * l1sq - l2)
    return worst_conv


def bits(x):
    """x with every float replaced by its exact hex form, for bitwise ==."""
    if isinstance(x, float):
        return float(x).hex()
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(bits(v) for v in x)
    return x


def report_slacks(rep):
    return {row["claim"]: float(row["slack"]).hex() for row in rep.checks}


def _instance(seed, killed):
    return random_instance(seed, (3, 8), with_gamma=True, with_potential=killed)


def _family(seed, m, grounded):
    """A mixed family plus an all-zero row."""
    rng = np.random.default_rng(100 + seed)
    return random_functions(rng, m, 30, grounded=grounded) + [np.zeros(m)]


def _grid(space):
    """The CLI's rate grid, led by points where a gauge-root rate is +inf."""
    M = space.total_mass
    return np.concatenate([[5e-324, 1e-300], np.geomspace(1e-3 / M, 1e2 / M, 10)])


def _partly_infinite(r_cut):
    return RateFunction("test", {}, lambda r: INF if r < r_cut else 1.0 / r,
                        lambda u: INF)


CASES = [(seed, killed, grounded) for seed in range(4)
         for killed in (False, True) for grounded in (False, True)]


@pytest.mark.parametrize("seed,killed,grounded", CASES)
def test_rate_slacks_matrix_equals_scalar_expression(seed, killed, grounded):
    space, kernel, gamma, pot = _instance(seed, killed)
    fam = stack_family(space, _family(seed, space.m, grounded))
    r_grid = np.append(_grid(space), INF)   # inf * 0 on the zero row is NaN
    rate = _partly_infinite(float(r_grid[4]))
    sl = rate_slacks(space, fam, lambda f: schrodinger_energy(space, kernel, pot, f),
                     r_grid, rate)
    kept = [r for r in r_grid if not math.isinf(rate(r))]
    assert sl["r"].tolist() == [float(r) for r in kept]
    assert sl["slacks"].shape == (len(fam), len(kept))
    for i, f in enumerate(fam):
        l2 = float(np.sum(f * f * space.mu))
        l1sq = float(np.sum(np.abs(f) * space.mu)) ** 2
        en = schrodinger_energy(space, kernel, pot, f)
        for k, r in enumerate(kept):
            with np.errstate(invalid="ignore"):   # r = +inf on the zero row: NaN
                ref = float(r * en + rate(r) * l1sq - l2)
            assert float(sl["slacks"][i, k]).hex() == ref.hex()


def test_rate_slacks_infinite_r_on_zero_row_is_silent():
    """r = +inf on a zero-energy row gives the documented NaN slack, read as
    +inf by the worst slack, with no RuntimeWarning."""
    space, kernel, _, _ = random_instance(0, (4, 4))
    fam = np.array([np.zeros(space.m), np.ones(space.m)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sl = rate_slacks(space, fam, lambda f: dirichlet_energy(space, kernel, f),
                         [1.0, INF], lambda r: 1.0)
    assert math.isnan(sl["slacks"][0, 1]) and not math.isinf(sl["worst_slack"])


def test_rate_slacks_square_is_libm_pow():
    """Many gaussian rows with the rate term dominant, so that x*x in place
    of the Python float square shows in some slack."""
    space, kernel, _, _ = random_instance(3, (6, 6))
    rng = np.random.default_rng(7)
    fam = rng.standard_normal((20000, space.m)) * rng.choice([1e-3, 1.0, 1e3], (20000, 1))
    r_grid = [1e-9, 1e-3]
    beta = rate_power(1.0, 1.0)
    sl = rate_slacks(space, fam, lambda f: dirichlet_energy(space, kernel, f),
                     r_grid, beta)
    ref = [[r * dirichlet_energy(space, kernel, f)
            + beta(r) * float(np.sum(np.abs(f) * space.mu)) ** 2
            - float(np.sum(f * f * space.mu)) for r in r_grid] for f in fam]
    assert np.array_equal(sl["slacks"], np.array(ref))


@pytest.mark.parametrize("seed,killed,grounded", CASES)
def test_sp_verify_equals_reference_loop(seed, killed, grounded):
    space, kernel, _, pot = _instance(seed, killed)
    fam = _family(seed, space.m, grounded)
    r_grid = np.append(_grid(space), INF)
    cert = certified_rate(space, kernel, r_grid[2:-1], potential=pot)
    for beta in (cert, _partly_infinite(float(r_grid[5])), _partly_infinite(INF)):
        for family in (fam, fam[:1], [np.zeros(space.m)], []):
            got = sp_verify(space, kernel, beta, family, r_grid, potential=pot)
            ref = ref_sp_verify(space, kernel, beta, family, r_grid, potential=pot)
            assert bits(got) == bits(ref)


@pytest.mark.parametrize("seed,grounded", [(s, g) for s in range(4) for g in (False, True)])
def test_lemma1_poincare_equals_reference_loop(seed, grounded):
    space, kernel, gamma, _ = _instance(seed, False)
    fam = _family(seed, space.m, grounded)
    prof = enumerate_profile(space, kernel, gamma)
    for s in (float(space.mu.min()) * 0.5, float(space.mu.min()) * 1.5,
              0.5 * space.total_mass, 2.0 * space.total_mass):
        for family in (fam, []):
            got = lemma1_poincare(space, kernel, gamma, s, family, profile=prof)
            ref = ref_lemma1_poincare(space, kernel, gamma, s, family, profile=prof)
            assert bits(got) == bits(ref)


@pytest.mark.parametrize("seed,grounded", [(s, g) for s in range(4) for g in (False, True)])
def test_thm20_poincare_backward_equals_reference_loop(seed, grounded):
    space, kernel, gamma, _ = _instance(seed, False)
    fam = _family(seed, space.m, grounded)
    C2t = 1.0 / space.mu.min()
    for C1 in (0.0, 1e-3, 0.7):
        for family in (fam, [np.zeros(space.m)], [], None):
            got = thm20_poincare(space, kernel, C1, C2t, f_family=family,
                                 gamma=gamma)["functional"]
            ref = ref_thm20_poincare_backward(space, kernel, C1, C2t, family, gamma)
            assert bits(got) == bits(ref)


@pytest.mark.parametrize("seed,grounded", [(s, g) for s in range(4) for g in (False, True)])
def test_thm41_equals_reference_loops(seed, grounded):
    space, kernel, gamma, _ = _instance(seed, False)
    N = builtin("power", p=2)
    r_grid = _grid(space)
    for family in (_family(seed, space.m, grounded), []):
        rep = thm41(N, space, kernel, gamma, family, r_grid)
        C_used, c_gamma = rep.derived["C_used"], rep.derived["c_gamma"]
        beta1 = rate_from_gauge(N, C_used, lead=2.0)
        beta = rate_from_gauge(N, 2.0 * C_used * math.sqrt(2.0 * c_gamma), lead=4.0)
        assert math.isinf(beta1(r_grid[0])) and math.isinf(beta(math.sqrt(r_grid[0])))
        slacks = report_slacks(rep)
        assert slacks["defective rate from the gauge root"] == float(
            ref_thm41_defective(space, kernel, gamma, family, r_grid, beta1)).hex()
        assert slacks["full rate under the kernel square bound"] == float(
            ref_thm41_full(space, kernel, family, r_grid, beta)).hex()


def test_gauge_roots_at_tiny_r_overflow_without_warning():
    """At r = 1e-300 the tau search of a power-pair N brackets up to s^p past
    the float range, and thm41's full rate on instance 2 is finite but its
    slack is not: both are +inf on purpose, with no overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isinf(rate_from_gauge(cor41_young(1, 2.0, 2.0), 1.0)(1e-300))
        space, kernel, gamma, _ = _instance(2, False)
        for N in (builtin("power", p=2), cor41_young(1, 2.0, 2.0)):
            thm41(N, space, kernel, gamma, _family(2, space.m, True), _grid(space)[1:])


@pytest.mark.parametrize("seed,grounded", [(s, g) for s in range(4) for g in (False, True)])
def test_thm42_equals_reference_loop(seed, grounded):
    space, kernel, gamma, _ = _instance(seed, False)
    N = builtin("power", p=2)
    r_grid = _grid(space)[2:]
    # one beta1 finite on the grid, one that overflows to +inf at small r
    for beta1 in (rate_from_gauge(N, 1.0, lead=2.0), rate_power(1.0, 40.0)):
        for family in (_family(seed, space.m, grounded), []):
            rep = thm42(beta1, space, kernel, gamma, family, r_grid)
            c_gamma = rep.derived["c_gamma"]
            ref = ref_thm42_full(space, kernel, stack_family(space, family), r_grid,
                                 beta1, c_gamma)
            assert report_slacks(rep)["full rate 2 beta1(sqrt(r)/(2 sqrt(2 c_gamma)))"] \
                == float(ref).hex()


@pytest.mark.parametrize("seed", range(3))
def test_thm43_equals_reference_loops(seed):
    space, kernel, gamma, pot = _instance(seed, True)
    r_grid = np.concatenate([[5e-324], _grid(space)[2:]])
    beta = certified_rate(space, kernel, r_grid[1:], potential=pot)
    for grounded in (False, True):
        family = _family(seed, space.m, grounded)
        rep = thm43(space, kernel, pot, gamma, beta=beta, f_family=family,
                    r_grid=r_grid, seed=seed)
        slacks = report_slacks(rep)
        assert slacks["killed-form rate inequality on the family"] == float(
            ref_sp_verify(space, kernel, beta, family, r_grid, potential=pot)
            ["worst_slack"]).hex()
        c = 2.0 * rep.derived["converse_C"] * math.sqrt(2.0 * rep.derived["c_bar"])
        conv_rate = rate_from_gauge(cor41_young(1, 2.0, 2.0), c, lead=4.0)
        assert math.isinf(conv_rate(math.sqrt(r_grid[0])))
        assert slacks["converse killed rate"] == float(
            ref_thm43_converse(space, kernel, pot, family, r_grid, conv_rate)).hex()
