"""The two profile-side evaluators against the scans they replaced.

``isoperimetry.curve_slacks`` checks kappa(s) >= bound(s) on an s grid, and
``isoperimetry.subset_rate_slacks`` checks mu(A) <= 2 r flow(A) +
beta(r) mu(A)^2 over every subset.  The reference functions below are
verbatim copies of the six scans that ``thm41``, ``thm42`` (curve and
premise), ``lemma2_bound``, ``theorems.subset_rate_check`` and
``thm20_poincare`` (forward and backward premise) ran before; every worst
slack, skip count, report row, used rate argument and premise outcome must
equal theirs bit for bit; the tolerance counts and verdicts they also
returned are gone, since only report rows judge a slack.  The one
deliberate difference is tested on its own: ``lemma2_bound`` now reports a
-inf slack (finite kappa under an infinite bound) as its worst slack, where
the old scan left it out of the worst slack.
"""

import math

import numpy as np
import pytest

from jumpiso import theorems
from jumpiso.core import FiniteMeasureSpace, JumpKernel, Semigroup, WeightFunction
from jumpiso.instances import random_functions, random_instance
from jumpiso.isoperimetry import (curve_slacks, enumerate_profile,
                                  subset_rate_slacks, thm20_poincare)
from jumpiso.numerics import INF, ext_ratio
from jumpiso.superpoincare import (RateFunction, certified_rate, lemma2_bound,
                                   rate_tabulated)
from jumpiso.theorems import rate_from_gauge, thm41, thm42
from jumpiso.young import builtin
from oracles import rate_power


def ref_kappa(prof, s):
    idx = int(np.searchsorted(prof.sorted_masses, s, side="left"))
    if idx == 0:
        return INF
    return float(prof.runmin_ratio[idx - 1])


def ref_thm41_curve(prof, N, C_used):
    masses = prof.sorted_masses
    s_grid = np.unique(np.concatenate([masses * 1.0001, masses * 0.9999,
                                       np.geomspace(masses[0] * 0.5,
                                                    masses[-1] * 2.0, 16)]))
    worst1 = INF
    for s in s_grid:
        bound = ext_ratio(1.0, 2.0 * C_used * s * N.inv(1.0 / s))
        kap = ref_kappa(prof, float(s))
        if math.isinf(kap):
            continue
        worst1 = min(worst1, kap - bound)
    return worst1


def ref_subset_rate_check(prof, beta1, r_values) -> float:
    worst = INF
    for r in r_values:
        if math.isinf(r):
            continue
        b = beta1(r)
        if math.isinf(b):
            continue
        slack = (2.0 * r * prof.sorted_flows + b * prof.sorted_masses ** 2
                 - prof.sorted_masses)
        worst = min(worst, float(slack.min()))
    return worst


def ref_thm42_curve(prof, beta1):
    masses = prof.sorted_masses
    s_grid = np.unique(np.concatenate([masses * 1.0001,
                                       np.geomspace(masses[0] * 0.5,
                                                    masses[-1] * 2.0, 12)]))
    r_stars = []
    worst1, skipped = INF, 0
    for s in s_grid:
        r_star = beta1.inv(1.0 / (2.0 * float(s)))
        if math.isinf(r_star):
            skipped += 1
            continue
        r_stars.append(r_star)
        kap = ref_kappa(prof, float(s))
        bound = ext_ratio(1.0, 4.0 * r_star)
        if math.isinf(kap):
            continue
        worst1 = min(worst1, kap - bound)
    premise = ref_subset_rate_check(prof, beta1, r_stars)
    return {"premise": premise, "worst": worst1, "skipped": skipped, "r_stars": r_stars}


def ref_lemma2_bound(space, kernel, gamma, beta, s_grid, potential=None,
                     profile=None):
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    theta_int, _ = Semigroup(space, kernel, potential).theta_curve(gamma)
    rows, skipped = [], 0
    worst = INF
    for s in s_grid:
        b = beta.inv(1.0 / (2.0 * s))
        if math.isinf(b):
            skipped += 1
            rows.append({"s": float(s), "skipped": True,
                         "note": "beta inverse infinite at 1/(2s)"})
            continue
        theta_val = theta_int(b)
        bound = (1.0 - math.exp(-1.0)) / (2.0 * theta_val) if theta_val > 0 else INF
        kap = ref_kappa(prof, s)
        slack = INF if math.isinf(kap) else kap - bound
        if not math.isinf(slack):
            worst = min(worst, slack)
        rows.append({"s": float(s), "kappa": kap, "bound": bound, "slack": slack,
                     "skipped": False})
    return {"rows": rows, "worst_slack": worst, "skipped": skipped}


def ref_thm20_forward(prof, C1, C2_tilde):
    lhs = prof.sorted_masses
    rhs = 2.0 * C1 * prof.sorted_flows + C2_tilde * prof.sorted_masses ** 2
    slack = rhs - lhs
    k = int(np.argmin(slack))
    return {"worst_slack": float(slack[k]), "witness": int(prof.sorted_masks[k])}


def ref_thm20_backward_premise_fails(prof, C1, C2_tilde, TOL=1e-9) -> bool:
    premise = prof.sorted_masses - 2.0 * C1 * prof.sorted_flows - C2_tilde * prof.sorted_masses ** 2
    return bool(np.any(premise > TOL))


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


CASES = [(seed, gamma, killed) for seed in range(4)
         for gamma in (False, True) for killed in (False, True)]


def _instance(seed, gamma, killed):
    return random_instance(seed, (3, 8), with_gamma=gamma, with_potential=killed)


def _s_grid(space):
    """Points at and below the smallest mass (kappa = +inf; at a quarter of
    it a certified rate's inverse is 0 and the bound +inf), the CLI's grid,
    and points so large that the rate's inverse is +inf."""
    mu_min, M = float(space.mu.min()), space.total_mass
    return np.concatenate([[0.25 * mu_min, mu_min],
                           np.geomspace(mu_min * 1.05, 0.45 * M, 12),
                           [M, 1e3 * M]])


def _inverse_cut(u_cut):
    """A rate 1/r whose inverse is +inf below u_cut."""
    return RateFunction("test", {}, lambda r: 1.0 / r,
                        lambda u: INF if u < u_cut else 1.0 / u)


def test_kappa_takes_arrays():
    for seed in range(6):
        space, kernel, gamma, _ = random_instance(seed, (2, 8), with_gamma=seed % 2 == 1)
        prof = enumerate_profile(space, kernel, gamma)
        s = np.concatenate([[0.0, -1.0, INF], prof.sorted_masses,
                            np.nextafter(prof.sorted_masses, INF),
                            np.geomspace(1e-3, 10.0 * space.total_mass, 50)])
        got = prof.kappa(s)
        assert isinstance(got, np.ndarray) and got.shape == s.shape
        for x, k in zip(s, got):
            assert float(k).hex() == ref_kappa(prof, float(x)).hex()
            one = prof.kappa(float(x))
            assert type(one) is float and one.hex() == float(k).hex()
        assert prof.kappa(np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("seed,gamma", [(s, g) for s in range(4) for g in (False, True)])
def test_thm41_curve_equals_reference_loop(seed, gamma):
    space, kernel, gamma_fn, _ = _instance(seed, gamma, False)
    prof = enumerate_profile(space, kernel, gamma_fn)
    fam = random_functions(np.random.default_rng(seed), space.m, 4, grounded=True)
    for N in (builtin("power", p=2), builtin("pow_max", n=1, alpha1=0.5, alpha2=1.5)):
        for C in (None, 50.0):
            rep = thm41(N, space, kernel, gamma_fn, fam, [1.0], C=C)
            assert report_slacks(rep)["curve lower bound 1/(2 C s N^{-1}(1/s))"] == \
                float(ref_thm41_curve(prof, N, rep.derived["C_used"])).hex()


@pytest.mark.parametrize("seed,gamma", [(s, g) for s in range(4) for g in (False, True)])
def test_thm42_curve_and_premise_equal_reference_loop(seed, gamma, monkeypatch):
    space, kernel, gamma_fn, _ = _instance(seed, gamma, False)
    prof = enumerate_profile(space, kernel, gamma_fn)
    r_grid = np.geomspace(1e-3 / space.total_mass, 1e2 / space.total_mass, 6)
    fam = random_functions(np.random.default_rng(seed), space.m, 4, grounded=True)
    used = []

    def recording(profile, r_values, rate):
        used.append(list(r_values))
        return subset_rate_slacks(profile, r_values, rate)

    monkeypatch.setattr(theorems, "subset_rate_slacks", recording)
    mu_min = float(space.mu.min())
    betas = [rate_from_gauge(builtin("power", p=2), 1.0, lead=2.0),
             rate_power(1.0, 40.0),
             _inverse_cut(1.0 / (2.0 * 0.6 * space.total_mass)),   # some s skipped
             _inverse_cut(INF),                                      # every s skipped
             # beta(r) = +inf at every used argument: the premise skips them all
             RateFunction("test", {}, lambda r: INF, lambda u: 1.0 / u),
             # a premise that fails
             RateFunction("test", {}, lambda r: 1e-3 / mu_min, lambda u: 1e-9 / u)]
    for beta1 in betas:
        used.clear()
        rep = thm42(beta1, space, kernel, gamma_fn, fam, r_grid)
        ref = ref_thm42_curve(prof, beta1)
        slacks = report_slacks(rep)
        assert slacks["subset defective rate at the used arguments"] == float(ref["premise"]).hex()
        assert slacks["curve lower bound 1/(4 beta1^{-1}(1/(2s)))"] == float(ref["worst"]).hex()
        assert bits(used) == bits([ref["r_stars"]])
        note = f"skipped {ref['skipped']} grid points with degenerate rate inverse"
        assert (note in rep.notes) == (ref["skipped"] > 0)
        assert not any(n.startswith("skipped") and n != note for n in rep.notes)


@pytest.mark.parametrize("seed,gamma,killed", CASES)
def test_lemma2_bound_equals_reference_loop(seed, gamma, killed):
    space, kernel, gamma_fn, pot = _instance(seed, gamma, killed)
    prof = enumerate_profile(space, kernel, gamma_fn)
    M = space.total_mass
    r_grid = np.geomspace(1e-3 / M, 1e2 / M, 10)
    beta = certified_rate(space, kernel, r_grid, potential=pot)
    s_grid = _s_grid(space)
    for grid in (s_grid, list(map(float, s_grid)), [], s_grid[:2]):
        got = lemma2_bound(space, kernel, gamma_fn, beta, grid, potential=pot, profile=prof)
        ref = ref_lemma2_bound(space, kernel, gamma_fn, beta, grid, potential=pot,
                               profile=prof)
        assert bits(got) == bits(ref)
    rows = lemma2_bound(space, kernel, gamma_fn, beta, s_grid, potential=pot,
                        profile=prof)["rows"]
    assert math.isinf(rows[0]["bound"]) and rows[0]["slack"] == INF   # kappa and bound +inf
    assert rows[1]["slack"] == INF                                     # s at the smallest mass
    # beta^{-1} = +inf; a killed rate can fall below 0 and has no such point
    assert rows[-1]["skipped"] or killed


def test_lemma2_reports_an_infinite_bound_as_worst():
    """Finite kappa under an infinite bound is a failing point.  The old
    scan left it out of the worst slack, so a report built from the worst
    slack passed."""
    space, kernel, gamma, _ = random_instance(2, (4, 6))
    prof = enumerate_profile(space, kernel, gamma)
    # beta = 1/M everywhere, so beta^{-1}(1/(2s)) = 0 for every s <= M/2
    beta = rate_tabulated([1.0, 2.0], [1.0 / space.total_mass] * 2)
    s_grid = [space.mu.min() * 0.5, 0.5 * space.total_mass]
    ref = ref_lemma2_bound(space, kernel, gamma, beta, s_grid, profile=prof)
    got = lemma2_bound(space, kernel, gamma, beta, s_grid, profile=prof)
    assert ref["worst_slack"] == INF and got["worst_slack"] == -INF
    assert bits(got["rows"]) == bits(ref["rows"])


@pytest.mark.parametrize("seed,gamma", [(s, g) for s in range(4) for g in (False, True)])
def test_subset_rate_slacks_equals_reference_loop(seed, gamma):
    space, kernel, gamma_fn, _ = _instance(seed, gamma, False)
    prof = enumerate_profile(space, kernel, gamma_fn)
    M = space.total_mass
    r_values = [INF, 5e-3 / M, 0.1 / M, 1.0 / M, 30.0 / M]
    cut = RateFunction("test", {}, lambda r: INF if r < 0.5 / M else 1.0 / (r * M * M),
                       lambda u: INF)
    for beta1 in (rate_power(1.0 / M, 0.5), cut, rate_power(1e-4 / M, 1.0)):
        for rs in (r_values, r_values[:2], [], [INF]):
            got = subset_rate_slacks(prof, rs, beta1)
            assert float(got["worst_slack"]).hex() == \
                float(ref_subset_rate_check(prof, beta1, rs)).hex()
            # the witness, pair by pair in scan order
            worst, witness = INF, None
            for r in rs:
                if math.isinf(r) or math.isinf(beta1(r)):
                    continue
                for k, (mass, flow, sq) in enumerate(zip(
                        prof.sorted_masses, prof.sorted_flows, prof.sorted_masses ** 2)):
                    slack = 2.0 * r * flow + beta1(r) * sq - mass
                    if slack < worst:
                        worst, witness = slack, (int(prof.sorted_masks[k]), float(r))
            assert got["witness"] == witness


@pytest.mark.parametrize("seed,gamma", [(s, g) for s in range(4) for g in (False, True)])
def test_thm20_poincare_subset_forms_equal_reference(seed, gamma):
    space, kernel, gamma_fn, _ = _instance(seed, gamma, False)
    prof = enumerate_profile(space, kernel, gamma_fn)
    fam = random_functions(np.random.default_rng(seed), space.m, 6, grounded=True)
    outcomes = set()
    for C1 in (0.0, 1e-3, 0.7, 1.0 / (2.0 * prof.global_min_ratio())):
        for C2t in (0.0, 0.3 / space.total_mass, 1.0 / space.mu.min()):
            got = thm20_poincare(space, kernel, C1, C2t, f_family=fam, gamma=gamma_fn)
            assert bits(got["subset"]) == bits(ref_thm20_forward(prof, C1, C2t))
            fails = ref_thm20_backward_premise_fails(prof, C1, C2t)
            outcomes.add(fails)
            assert (got["functional"] is None) == fails
    assert outcomes == {True, False}


def test_curve_slacks_witness_is_first_minimum():
    space, kernel, gamma, _ = random_instance(5, (4, 7))
    prof = enumerate_profile(space, kernel, gamma)
    levels, kappas = prof.kappa_steps()
    # a zero bound makes the slack the step curve itself: every s on the
    # lowest step ties, and the witness is the first of them
    s = np.concatenate([[levels[0] * 0.5], np.linspace(levels[0], 2.0 * levels[-1], 200)])
    curve = curve_slacks(prof, s, lambda x: 0.0)
    ties = np.flatnonzero(curve["slacks"] == curve["worst_slack"])
    assert len(ties) > 1 and curve["witness"] == float(s[ties[0]])
    assert curve["worst_slack"] == float(kappas.min())
    # NaN bounds are skipped; +inf kappa never wins, not even over -inf bounds
    nan_first = curve_slacks(prof, s, lambda x: math.nan if x < levels[-1] else 0.0)
    assert nan_first["skipped"] == int(np.sum(s < levels[-1]))
    assert nan_first["witness"] == float(s[s > levels[-1]][0])
    only_inf = curve_slacks(prof, s[:2], lambda x: INF)
    assert only_inf["worst_slack"] == INF and only_inf["witness"] is None
    empty = curve_slacks(prof, [], lambda x: 0.0)
    assert (empty["worst_slack"], empty["witness"], empty["skipped"]) == (INF, None, 0)


def test_subset_rate_slacks_witness_is_first_minimum():
    # the two singletons of a symmetric two-point space tie exactly
    space = FiniteMeasureSpace([1.0, 1.0])
    kernel = JumpKernel(space, [[0.0, 3.0], [3.0, 0.0]])
    prof = enumerate_profile(space, kernel, WeightFunction.ones(2))
    got = subset_rate_slacks(prof, [0.01, 0.01], lambda r: 0.0)
    assert got["witness"] == (1, 0.01)
    assert got["worst_slack"] == 2.0 * 0.01 * 3.0 - 1.0
    assert subset_rate_slacks(prof, [], lambda r: 0.0) == {"worst_slack": INF, "witness": None}
