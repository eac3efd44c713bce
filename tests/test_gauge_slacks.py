"""The one gauge-bound evaluator and the one indicator scan against the loops
they replaced.

The reference functions below are verbatim copies of the six ||f||_N loops
that ``lemma1_sobolev``, ``thm21_verify``, ``thm42``, the forward check of
``thm43``, ``thm20_backward`` and the empirical constant of
``thm20_forward`` (once ``empirical_l1_constant``) ran before
``young.gauge_slacks``, and of the three subset scans sup ||1_A||_N / B(A)
(``indicator_gauge_constant``, the loop inside ``empirical_l1_constant`` and
the converse loop of ``thm43``) that ``isoperimetry.indicator_constant``
replaced.  Every slack, worst slack, witness, empirical constant and
report row must equal theirs bit for bit; the tolerance counts and
verdicts they also returned are gone, since only report rows judge a
slack.  Two differences are intended.  A row with B(f) = 0 < ||f||_N has the empirical constant
+inf in every engine (the empirical constant already said so).  And
``thm21_verify`` without a family no longer pushes the subset indicators
below its cap through the gauge bisection: it reads them from the profile
through the indicator scan, so its report is checked against that old
route within the bisection's relative width 1e-10.
"""

import numpy as np
import pytest

from jumpiso import theorems
from jumpiso.core import (FiniteMeasureSpace, JumpKernel, WeightFunction,
                          l1_form)
from jumpiso.instances import random_functions, random_instance
from jumpiso.isoperimetry import (enumerate_profile, indicator_gauge_constant,
                                  kappa_orlicz, thm20_backward, thm20_forward,
                                  thm20_poincare, _doubling_enumeration,
                                  _subset_sums)
from jumpiso.numerics import INF, ext_ratio
from jumpiso.superpoincare import certified_rate, rate_tabulated, sp_verify
from jumpiso.theorems import (C_KILLED, C_STAR, cor41_young, lemma1_poincare,
                              lemma1_sobolev, rate_from_gauge, thm21_verify,
                              thm41, thm42, thm43)
from jumpiso.young import (builtin, c_N, gauge_slacks, indicator_norm,
                           orlicz_norm, orlicz_norm_batch, stack_family)
from oracles import indicators_below, rate_power


# ---------------------------------------------------------------------------
# verbatim copies of the replaced loops and scans

def ref_lemma1_sobolev_loop(space, kernel, gamma, N, f_family):
    fam = stack_family(space, f_family)
    rows, worst = [], INF
    for idx, (f, lhs) in enumerate(zip(fam, orlicz_norm_batch(space, N, fam).tolist())):
        rhs = 0.5 * l1_form(space, kernel, gamma, f)
        slack = rhs - lhs
        rows.append({"f": idx, "slack": slack,
                     "grounded": bool(np.min(np.abs(f)) == 0.0)})
        worst = min(worst, slack)
    return {"worst_slack": worst, "rows": rows}


def ref_thm21_loop(space, kernel, gamma, N, kept):
    emp = 0.0
    worst = INF
    for f, lhs in zip(kept, orlicz_norm_batch(space, N, kept).tolist()):
        denom = l1_form(space, kernel, gamma, f)
        rhs = C_STAR * denom
        worst = min(worst, rhs - lhs)
        if denom > 0:
            emp = max(emp, lhs / denom)
    return worst, emp


def ref_thm42_loop(space, kernel, gamma, N, fam):
    worst2 = INF
    for f, lhs in zip(fam, orlicz_norm_batch(space, N, fam).tolist()):
        worst2 = min(worst2, 0.5 * l1_form(space, kernel, gamma, f) - lhs)
    return worst2


def ref_thm43_forward_loop(space, kernel, potential, gamma, xi, N_bar, kept):
    worst, emp = INF, 0.0
    for f, lhs in zip(kept, orlicz_norm_batch(space, N_bar, kept).tolist()):
        bracket = (l1_form(space, kernel, gamma, f)
                   + float(np.sum(np.abs(f) * xi * potential.v * space.mu)))
        worst = min(worst, C_KILLED * bracket - lhs)
        if bracket > 0:
            emp = max(emp, lhs / bracket)
    return worst, emp


def ref_thm20_backward(space, kernel, N, f_family, gamma=None) -> dict:
    gamma = gamma if gamma is not None else WeightFunction.ones(space.m)
    cN = c_N(N)
    kap = kappa_orlicz(space, kernel, N, gamma)
    if cN <= 0 or kap <= 0:
        raise ValueError("backward direction needs c_N > 0 and kappa > 0")
    C = 1.0 / (2.0 * cN * kap)
    fam = stack_family(space, f_family)
    lhs = orlicz_norm_batch(space, N, fam)
    rhs = C * np.array([l1_form(space, kernel, gamma, f) for f in fam])
    slack = rhs - lhs
    witness = int(np.argmin(slack))
    worst = float(slack[witness])
    return {"C": C, "c_N": cN, "kappa": kap, "worst_slack": worst, "witness": witness}


def ref_empirical_l1_constant(space, kernel, N, f_family, gamma=None) -> float:
    gamma = gamma if gamma is not None else WeightFunction.ones(space.m)
    best = 0.0
    prof = enumerate_profile(space, kernel, gamma)
    for mass, flow in zip(prof.sorted_masses, prof.sorted_flows):
        best = max(best, ext_ratio(indicator_norm(N, mass), 2.0 * flow))
    fam = stack_family(space, f_family)
    nums = orlicz_norm_batch(space, N, fam)
    denoms = [l1_form(space, kernel, gamma, f) for f in fam]
    for num, denom in zip(nums, denoms):
        if denom > 0:
            best = max(best, float(num) / float(denom))
        elif num > 0:
            best = INF
    return best


def ref_indicator_gauge_constant(space, kernel, gamma, N, profile=None) -> float:
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    best = 0.0
    for mass, flow in zip(prof.sorted_masses, prof.sorted_flows):
        best = max(best, ext_ratio(indicator_norm(N, mass), 2.0 * flow))
    return best


def ref_thm43_converse_constant(space, kernel, potential, gamma, xi, N_conv):
    m = space.m
    wE = gamma.gamma * kernel.j * space.mu[:, None] * space.mu[None, :]
    masses, flowsE = _doubling_enumeration(space.mu, wE)
    kill = _subset_sums(xi * potential.v * space.mu)
    C_conv = 0.0
    for mask in range(1, 1 << m):
        bracket = 2.0 * flowsE[mask] + kill[mask]
        C_conv = max(C_conv, ext_ratio(indicator_norm(N_conv, float(masses[mask])),
                                       bracket))
    return C_conv


# ---------------------------------------------------------------------------
# helpers

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


def _family(seed, m, grounded):
    """A mixed family plus an all-zero row."""
    rng = np.random.default_rng(200 + seed)
    return random_functions(rng, m, 30, grounded=grounded) + [np.zeros(m)]


@pytest.fixture
def captured(monkeypatch):
    """(N, F) of every ``gauge_slacks`` call the theorem engines make."""
    calls = []

    def spy(space, N, F, bracket, C):
        calls.append((N, F))
        return gauge_slacks(space, N, F, bracket, C)

    monkeypatch.setattr(theorems, "gauge_slacks", spy)
    return calls


def _young_cases(space, kernel, gamma):
    """power, a log family (bisection inverse) and lemma1_sobolev's capped
    piecewise-linear N, which is +inf beyond its cap."""
    N_pl, _ = lemma1_sobolev(space, kernel, gamma)
    return [builtin("power", p=2), builtin("log_minus", n=1, alpha=1.0, q=1.0), N_pl]


SEEDS_GAMMA = [(s, g) for s in range(4) for g in (False, True)]


# ---------------------------------------------------------------------------
# the evaluator itself

@pytest.mark.parametrize("seed,with_gamma", SEEDS_GAMMA)
def test_gauge_slacks_equal_scalar_expression(seed, with_gamma):
    space, kernel, gamma, _ = random_instance(seed, (3, 8), with_gamma=with_gamma)
    bracket = lambda f: l1_form(space, kernel, gamma, f)
    const_row = np.full(space.m, 0.7)        # B = 0 < ||f||_N
    for N in _young_cases(space, kernel, gamma):
        for grounded in (False, True):
            fam = _family(seed, space.m, grounded)
            for F, C in ((fam, 0.5), (fam, 1e-3), (fam + [const_row], 0.5), (fam[-1:], 0.5)):
                got = gauge_slacks(space, N, stack_family(space, F), bracket, C)
                worst, witness, const = INF, None, 0.0
                for i, f in enumerate(F):
                    num, den = orlicz_norm(space, N, f), bracket(f)
                    slack = C * den - num
                    assert float(got["slacks"][i]).hex() == slack.hex()
                    if slack < worst:
                        worst, witness = slack, i
                    if den > 0:
                        const = max(const, num / den)
                    elif num > 0:
                        const = INF
                assert bits([got["worst_slack"], got["witness"], got["constant"]]) \
                    == bits([worst, witness, const])


def test_gauge_slacks_constant_row_gives_infinite_constant():
    space, kernel, gamma, _ = random_instance(1, (4, 6), with_gamma=True)
    bracket = lambda f: l1_form(space, kernel, gamma, f)
    N = builtin("power", p=2)
    fam = random_functions(np.random.default_rng(1), space.m, 8, grounded=True)
    finite = gauge_slacks(space, N, stack_family(space, fam + [np.zeros(space.m)]),
                          bracket, 1.0)["constant"]
    assert 0.0 < finite < INF
    got = gauge_slacks(space, N, stack_family(space, fam + [np.ones(space.m)]),
                       bracket, 1.0)
    assert got["constant"] == INF
    empty = gauge_slacks(space, N, np.zeros((0, space.m)), bracket, 1.0)
    assert (empty["worst_slack"], empty["witness"], empty["constant"],
            empty["slacks"].shape) == (INF, None, 0.0, (0,))


# ---------------------------------------------------------------------------
# the six engines

@pytest.mark.parametrize("seed,with_gamma", SEEDS_GAMMA)
def test_lemma1_sobolev_equals_reference_loop(seed, with_gamma):
    space, kernel, gamma, _ = random_instance(seed, (3, 8), with_gamma=with_gamma)
    for grounded in (False, True):
        for family in (_family(seed, space.m, grounded), []):
            N, rep = lemma1_sobolev(space, kernel, gamma, f_family=family)
            ref = ref_lemma1_sobolev_loop(space, kernel, gamma, N, family)
            ref = {**ref, "phi_cap": rep["phi_cap"]}
            assert bits(rep) == bits(ref)


@pytest.mark.parametrize("seed,with_gamma", SEEDS_GAMMA)
def test_thm20_backward_and_empirical_constant_equal_reference(seed, with_gamma):
    space, kernel, gamma, _ = random_instance(seed, (3, 8), with_gamma=with_gamma)
    for N in (builtin("power", p=2), builtin("log_minus", n=1, alpha=1.0, q=1.0)):
        for grounded in (False, True):
            family = _family(seed, space.m, grounded)
            for fam in (family, family[:1]):
                assert bits(thm20_backward(space, kernel, N, fam, gamma)) \
                    == bits(ref_thm20_backward(space, kernel, N, fam, gamma))
            if with_gamma:   # thm20_forward's constant is on the unweighted form
                continue
            for fam in (family, [], family + [np.ones(space.m)]):
                got = thm20_forward(space, kernel, N, fam)["C_emp"]
                assert got.hex() == ref_empirical_l1_constant(space, kernel, N, fam).hex()
            assert got == INF     # the nonzero constant row: B = 0 < ||f||_N


@pytest.mark.parametrize("seed,with_gamma", SEEDS_GAMMA)
def test_indicator_scan_equals_reference(seed, with_gamma):
    space, kernel, gamma, _ = random_instance(seed, (3, 8), with_gamma=with_gamma)
    prof = enumerate_profile(space, kernel, gamma)
    for N in _young_cases(space, kernel, gamma):
        want = ref_indicator_gauge_constant(space, kernel, gamma, N, prof).hex()
        assert indicator_gauge_constant(space, kernel, gamma, N, prof).hex() == want
        assert indicator_gauge_constant(space, kernel, gamma, N).hex() == want
    N = builtin("power", p=2)
    rep = thm41(N, space, kernel, gamma, _family(seed, space.m, True),
                np.geomspace(1e-2, 1e2, 5))
    assert rep.derived["C_indicator"].hex() == \
        ref_indicator_gauge_constant(space, kernel, gamma, N, prof).hex()


def assert_thm21_matches_indicator_route(rep, space, kernel, gamma, N, kept):
    """thm21 without a family against its old route: every subset indicator
    below the cap as a vector through ``orlicz_norm_batch``, beside the kept
    functions.  The bisection returns the upper end of a bracket of relative
    width 1e-10 and the scan the closed form, so the empirical constant
    agrees to relative 1e-10 and each slack to 1e-10 of the largest norm;
    the family size is equal."""
    fam = stack_family(space, indicators_below(space, rep.derived["support_cap_mass"])
                       + list(kept))
    worst, emp = ref_thm21_loop(space, kernel, gamma, N, fam)
    slacks = {claim: float.fromhex(h) for claim, h in report_slacks(rep).items()}
    norm_bound = 1e-10 * float(np.max(orlicz_norm_batch(space, N, fam)))
    assert abs(slacks["gauge bound at the traced constant"] - worst) <= norm_bound
    assert rep.derived["empirical_constant"] == pytest.approx(emp, rel=1e-10, abs=0)
    assert rep.derived["family_size"] == len(fam)


@pytest.mark.parametrize("seed,with_gamma", [(s, g) for s in range(3) for g in (False, True)])
def test_thm21_verify_equals_reference_loop(captured, seed, with_gamma):
    space, kernel, gamma, _ = random_instance(seed, (3, 7), with_gamma=with_gamma)
    M = space.total_mass
    beta = certified_rate(space, kernel, np.geomspace(1e-3 / M, 1e3 / M, 25))
    for family in (_family(seed, space.m, True), _family(seed, space.m, False)):
        captured.clear()
        rep = thm21_verify(space, kernel, gamma, beta=beta, f_family=family, seed=seed)
        (N, kept), = captured
        worst, emp = ref_thm21_loop(space, kernel, gamma, N, kept)
        slacks = report_slacks(rep)
        assert list(slacks) == ["rate inequality holds on the family",
                                "gauge bound at the traced constant"]
        assert slacks["gauge bound at the traced constant"] == worst.hex()
        assert rep.derived["empirical_constant"].hex() == emp.hex()
        assert rep.derived["family_size"] == len(kept)
    captured.clear()
    rep = thm21_verify(space, kernel, gamma, beta=beta, seed=seed)
    (N, kept), = captured
    assert_thm21_matches_indicator_route(rep, space, kernel, gamma, N, kept)


def test_thm21_verify_checks_subsets_at_m15(captured):
    """At m = 15 the old route dropped the indicators; now every subset
    below the cap counts.  A tabulated rate keeps the certified one out."""
    space, kernel, gamma, _ = random_instance(4, (15, 15), with_gamma=True)
    rep = thm21_verify(space, kernel, gamma, beta=rate_tabulated(LAW_R, 1.0 / LAW_R),
                       seed=4)
    (N, kept), = captured
    assert rep.derived["family_size"] > len(kept) + 1000
    assert_thm21_matches_indicator_route(rep, space, kernel, gamma, N, kept)


@pytest.mark.parametrize("seed,with_gamma", SEEDS_GAMMA)
def test_thm42_equals_reference_loop(captured, seed, with_gamma):
    space, kernel, gamma, _ = random_instance(seed, (3, 8), with_gamma=with_gamma)
    M = space.total_mass
    r_grid = np.geomspace(1e-3 / M, 1e2 / M, 10)
    beta1 = rate_from_gauge(builtin("power", p=2), 1.0, lead=2.0)
    for grounded in (False, True):
        for family in (_family(seed, space.m, grounded), []):
            captured.clear()
            rep = thm42(beta1, space, kernel, gamma, family, r_grid)
            (N, fam), = captured
            assert report_slacks(rep)["gauge bound at constant 1/2"] == \
                float(ref_thm42_loop(space, kernel, gamma, N, fam)).hex()


@pytest.mark.parametrize("seed", range(3))
def test_thm43_equals_reference_loops(captured, seed):
    space, kernel, gamma, pot = random_instance(seed, (3, 7), with_gamma=True,
                                                with_potential=True)
    M = space.total_mass
    r_grid = np.geomspace(1e-3 / (M + 1.0), 1e3 / (M + 1.0), 12)
    beta = certified_rate(space, kernel, r_grid, potential=pot)
    xi = pot.xi if pot.xi is not None else np.ones(space.m)
    for family in (None, _family(seed, space.m, True), _family(seed, space.m, False)):
        captured.clear()
        rep = thm43(space, kernel, pot, gamma, beta=beta, f_family=family,
                    r_grid=r_grid, seed=seed)
        (N_bar, kept), = captured
        worst, emp = ref_thm43_forward_loop(space, kernel, pot, gamma, xi, N_bar, kept)
        assert report_slacks(rep)["killed gauge bound at the traced constant"] == worst.hex()
        assert rep.derived["empirical_forward_constant"].hex() == emp.hex()
        assert rep.derived["forward_family_size"] == len(kept)
        for N_conv in (None, builtin("power", p=1.5)):
            got = thm43(space, kernel, pot, gamma, beta=beta, f_family=family,
                        r_grid=r_grid, N_converse=N_conv, seed=seed)
            N_ref = N_conv if N_conv is not None else cor41_young(1, 2.0, 2.0)
            assert got.derived["converse_C"].hex() == float(ref_thm43_converse_constant(
                space, kernel, pot, gamma, xi, N_ref)).hex()


# ---------------------------------------------------------------------------
# family forms: empty families and one numpy matrix

def _empty_reports(space, kernel, gamma):
    M = space.total_mass
    r_grid = np.geomspace(1e-3 / M, 1e2 / M, 5)
    prof = enumerate_profile(space, kernel, gamma)
    C2t = 1.0 / space.mu.min()
    slack = prof.sorted_masses - C2t * prof.sorted_masses ** 2
    C1 = max(1e-9, float(np.max(slack / (2.0 * prof.sorted_flows))))
    return {
        "sp_verify": lambda: sp_verify(space, kernel, rate_power(1.0, 1.0), [], r_grid),
        "lemma1_poincare": lambda: lemma1_poincare(space, kernel, gamma,
                                                   0.5 * M, [], profile=prof),
        "lemma1_sobolev": lambda: lemma1_sobolev(space, kernel, gamma, prof, [])[1],
        "thm20_poincare": lambda: thm20_poincare(space, kernel, C1, C2t, f_family=[],
                                                 gamma=gamma)["functional"],
        "thm20_backward": lambda: thm20_backward(space, kernel, builtin("power", p=2),
                                                 [], gamma),
    }


@pytest.mark.parametrize("engine", ["sp_verify", "lemma1_poincare", "lemma1_sobolev",
                                    "thm20_poincare", "thm20_backward"])
def test_empty_family_reports_no_violation(engine):
    space, kernel, gamma, _ = random_instance(3, (3, 6), with_gamma=True)
    rep = _empty_reports(space, kernel, gamma)[engine]()
    assert rep["worst_slack"] == INF and rep.get("witness") is None


def test_matrix_family_gives_list_family_report():
    space, kernel, gamma, _ = random_instance(2, (4, 6), with_gamma=True)
    fam = random_functions(np.random.default_rng(2), space.m, 12, grounded=True)
    prof = enumerate_profile(space, kernel, gamma)
    C2t = 1.0 / space.mu.min()
    slack = prof.sorted_masses - C2t * prof.sorted_masses ** 2
    C1 = max(1e-9, float(np.max(slack / (2.0 * prof.sorted_flows))))
    assert bits(thm20_poincare(space, kernel, C1, C2t, f_family=np.array(fam),
                               gamma=gamma)) == \
        bits(thm20_poincare(space, kernel, C1, C2t, f_family=fam, gamma=gamma))
    a = thm21_verify(space, kernel, gamma, f_family=np.array(fam))
    b = thm21_verify(space, kernel, gamma, f_family=fam)
    assert a.to_dict() == b.to_dict()
    assert bits(thm20_backward(space, kernel, builtin("power", p=2), np.array(fam), gamma)) \
        == bits(thm20_backward(space, kernel, builtin("power", p=2), fam, gamma))


LAW_R = np.geomspace(1e-8, 1e8, 161)   # a table of beta(r) = 1/r


def test_thm21_zero_bracket_row_gives_infinite_empirical_constant():
    """A kept row with B = 0 < ||f||_N (an isolated point): its gauge row
    fails, and its empirical constant is +inf (the replaced loop skipped
    the row and reported 0)."""
    space = FiniteMeasureSpace([1.0, 1.0, 1.0])
    j = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    rep = thm21_verify(space, JumpKernel(space, j), WeightFunction.ones(3),
                       beta=rate_tabulated(LAW_R, 1.0 / LAW_R),
                       f_family=[np.array([0.0, 0.0, 1.0])],
                       support_fraction=0.5)
    slacks = report_slacks(rep)
    assert rep.derived["empirical_constant"] == INF
    assert float.fromhex(slacks["gauge bound at the traced constant"]) < 0
