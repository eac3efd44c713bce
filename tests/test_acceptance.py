"""Acceptance suite: every stated criterion at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
-s to see them live).  Shared per-instance artifacts (profiles, certified
rates) are cached in a module fixture so the stated runtime budgets hold.
"""

import math
import time

import numpy as np
import pytest

from jumpiso.core import (bar_extension, dirichlet_energy, extend_by_zero,
                          schrodinger_energy)
from jumpiso.instances import random_functions, random_instance
from jumpiso.isoperimetry import (enumerate_profile, thm20_backward,
                                  thm20_forward)
from jumpiso.lattice import (gradient_decay, on_diagonal_decay, p1_kernel,
                             power_law_band, subord_weights, torus_semigroup,
                             truncated_crossover_curve, weight_at, weight_tail)
from jumpiso.numerics import loglog_slope
from jumpiso.perturbed import (example_threshold, log_weight, phi_l,
                               ramp_inner_sup, ramp_masses, theorem_beta_curve)
from jumpiso.radial import radial_l1_energy, sharpness_profile
from jumpiso.superpoincare import certified_rate, lemma2_bound
from jumpiso.theorems import (C_STAR, cor41_round_trip, cor41_young,
                              lemma1_core, lemma1_poincare, lemma1_sobolev,
                              rate_from_gauge, thm21_verify, thm41, thm42,
                              thm43)
from jumpiso.young import builtin

N_INSTANCES = 50
SEED0 = 20260810


def announce(num, label, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


@pytest.fixture(scope="module")
def instances():
    """The shared seeded instance set with cached profiles and rates."""
    out = []
    for i in range(N_INSTANCES):
        space, kernel, gamma, _ = random_instance(SEED0 + i, (3, 10),
                                                  with_gamma=(i % 3 == 0))
        prof = enumerate_profile(space, kernel, gamma)
        out.append({"space": space, "kernel": kernel, "gamma": gamma,
                    "profile": prof, "seed": SEED0 + i})
    return out


@pytest.fixture(scope="module")
def rates(instances):
    """Certified inflated rates per instance (reused by criteria 3 and 4).

    Construction time is recorded so criterion 3 can charge it against its
    stated budget (the estimate itself is that criterion's dominant cost).
    """
    t0 = time.time()
    out = []
    for inst in instances:
        space, kernel = inst["space"], inst["kernel"]
        M = space.total_mass
        r_grid = np.geomspace(1e-3 / M, 1e3 / M, 22)
        out.append(certified_rate(space, kernel, r_grid))
    return {"rates": out, "build_seconds": time.time() - t0}


YOUNG_SET = [
    builtin("power", p=1.5),
    builtin("power", p=2.0),
    builtin("pow_min", n=1, alpha1=0.5, alpha2=1.5),
    builtin("pow_max", n=1, alpha1=0.5, alpha2=1.5),
    builtin("log_plus", n=1, alpha=1.0, q=1.0),
    builtin("log_minus", n=1, alpha=1.0, q=1.0),
]


def test_criterion_1_gauge_isoperimetric_equivalence(instances):
    t0 = time.time()
    worst_fw, worst_bw, nbad = math.inf, math.inf, 0
    for inst in instances:
        space, kernel = inst["space"], inst["kernel"]
        rng = np.random.default_rng(inst["seed"] + 10 ** 6)
        fam = random_functions(rng, space.m, 500, grounded=True)
        for N in YOUNG_SET:
            fw = thm20_forward(space, kernel, N, fam[:60])
            worst_fw = min(worst_fw, fw["slack"])
            bw = thm20_backward(space, kernel, N, fam)
            worst_bw = min(worst_bw, bw["worst_slack"])
            nbad += (fw["slack"] < -1e-9) + (bw["worst_slack"] < -1e-9)
    elapsed = time.time() - t0
    ok = nbad == 0 and elapsed < 120.0
    announce(1, "two-way gauge/subset equivalence",
             ok, f"(checks failed={nbad}, worst forward slack={worst_fw:.2e}, "
                 f"worst backward slack={worst_bw:.2e}, {elapsed:.0f}s)")


def test_criterion_2_layer_cake_suite(instances):
    G = lambda s: np.asarray(s, dtype=float) ** 2
    nbad = 0
    worst = math.inf
    for inst in instances:
        space, kernel, gamma, prof = (inst["space"], inst["kernel"],
                                      inst["gamma"], inst["profile"])
        rng = np.random.default_rng(inst["seed"] + 2 * 10 ** 6)
        fam = random_functions(rng, space.m, 30, grounded=True)
        for f in fam[:12]:
            if not np.any(f):
                continue
            out = lemma1_core(space, kernel, gamma, G, f, G_inv=math.sqrt,
                              profile=prof, tol=1e-9)
            worst = min(worst, out["slack"])
            nbad += 0 if out["pass"] else 1
        M = space.total_mass
        for s in np.geomspace(space.mu.min() * 0.7, 0.9 * M, 5):
            rep = lemma1_poincare(space, kernel, gamma, float(s), fam, profile=prof)
            nbad += rep["worst_slack"] < -1e-9
        _, rep = lemma1_sobolev(space, kernel, gamma, profile=prof, f_family=fam)
        nbad += rep["worst_slack"] < -1e-9
    announce(2, "layer-cake core, defective and gauge bounds",
             nbad == 0, f"(checks failed={nbad}, worst core slack={worst:.2e})")


def test_criterion_3_rate_to_curve_bound(instances, rates):
    t0 = time.time()
    nbad, nskipped, worst = 0, 0, math.inf
    for inst, beta in zip(instances, rates["rates"]):
        space, kernel, gamma = inst["space"], inst["kernel"], inst["gamma"]
        M = space.total_mass
        s_grid = np.geomspace(space.mu.min() * 1.05, 0.45 * M, 20)
        rep = lemma2_bound(space, kernel, gamma, beta, s_grid,
                           profile=inst["profile"])
        nbad += rep["worst_slack"] < -1e-9
        nskipped += rep["skipped"]
        if not math.isinf(rep["worst_slack"]):
            worst = min(worst, rep["worst_slack"])
    elapsed = time.time() - t0 + rates["build_seconds"]
    ok = nbad == 0 and elapsed < 300.0
    announce(3, "certified-rate lower bound on the curve",
             ok, f"(checks failed={nbad}, skipped={nskipped}, "
                 f"worst slack={worst:.2e}, {elapsed:.0f}s incl. rate estimation)")


def test_criterion_4_regularization_route(instances, rates):
    t0 = time.time()
    worst, emp_max, failures = math.inf, 0.0, 0
    for inst, beta in zip(instances, rates["rates"]):
        rep = thm21_verify(inst["space"], inst["kernel"], inst["gamma"],
                           beta=beta, seed=inst["seed"])
        if not rep.passed:
            failures += 1
        worst = min(worst, rep.worst_slack)
        emp_max = max(emp_max, rep.derived.get("empirical_constant", 0.0))
    elapsed = time.time() - t0
    ok = failures == 0 and emp_max <= C_STAR + 1e-9
    announce(4, "gauge bound at the traced constant",
             ok, f"(failures={failures}, max empirical={emp_max:.3f} "
                 f"vs {C_STAR:.3f}, worst slack={worst:.2e}, {elapsed:.0f}s)")


def test_criterion_5_gauge_rate_correspondence(instances):
    failures = 0
    for inst in instances:
        space, kernel, gamma = inst["space"], inst["kernel"], inst["gamma"]
        rng = np.random.default_rng(inst["seed"] + 3 * 10 ** 6)
        fam = random_functions(rng, space.m, 25, grounded=True)
        M = space.total_mass
        r_grid = np.geomspace(1e-3 / M, 1e2 / M, 8)
        N = YOUNG_SET[inst["seed"] % 2]
        rep1 = thm41(N, space, kernel, gamma, fam, r_grid)
        beta1 = rate_from_gauge(N, rep1.derived["C_used"], lead=2.0)
        rep2 = thm42(beta1, space, kernel, gamma, fam, r_grid)
        failures += (0 if rep1.passed else 1) + (0 if rep2.passed else 1)
    trips = [cor41_round_trip(1, {"p1": 1.6, "p2": 2.4}),
             cor41_round_trip(2, {"p1": 1.6, "p2": 2.4}),
             cor41_round_trip(3, {"p1": 2.0, "q": 1.0}),
             cor41_round_trip(4, {"p1": 2.0, "q": 1.0})]
    gaps = [max(abs(t["slope_gap_low"]), abs(t["slope_gap_high"])) for t in trips]
    ok = failures == 0 and all(t["pass"] for t in trips)
    announce(5, "gauge<->rate correspondences and round trips",
             ok, f"(failures={failures}, max round-trip slope gap={max(gaps):.2e})")


def test_criterion_6_killed_forms():
    rng = np.random.default_rng(SEED0 + 4 * 10 ** 6)
    worst_ident = 0.0
    for i in range(100):
        space, kernel, gamma, pot = random_instance(SEED0 + i, (2, 8),
                                                    with_gamma=True,
                                                    with_potential=True)
        s2, k2, _ = bar_extension(space, kernel, pot, gamma, pot.xi)
        f = rng.standard_normal(space.m)
        a = schrodinger_energy(space, kernel, pot, f)
        b = dirichlet_energy(s2, k2, extend_by_zero(f))
        worst_ident = max(worst_ident, abs(a - b) / max(abs(a), 1e-6))
    failures = 0
    for i in range(12):
        space, kernel, gamma, pot = random_instance(SEED0 + 500 + i, (3, 6),
                                                    with_gamma=(i % 2 == 0),
                                                    with_potential=True)
        rep = thm43(space, kernel, pot, gamma, seed=SEED0 + i)
        failures += 0 if rep.passed else 1
    ok = worst_ident <= 1e-12 and failures == 0
    announce(6, "cemetery-extension identity and killed gauge/rate",
             ok, f"(identity err={worst_ident:.2e}, engine failures={failures})")


def test_criterion_7_subordination():
    t0 = time.time()
    ok = True
    details = []
    for alpha in (0.5, 1.0, 1.5):
        w = subord_weights(alpha, 64)
        ok &= abs(w.c[0] - alpha / 2.0) <= 1e-12
        # partial sums at K = 10^ceil(6/alpha): explicit arrays stop at 1e6,
        # beyond that the telescoped closed form evaluates the same sum
        K_target = 10.0 ** math.ceil(6.0 / alpha)
        explicit = subord_weights(alpha, int(min(K_target, 10 ** 6)))
        assert abs((1.0 - explicit.c.sum()) - explicit.tail) <= 1e-9
        partial = 1.0 - weight_tail(alpha, K_target)
        ok &= partial >= 1.0 - 1e-3
        lim = alpha / (2.0 * math.gamma(1.0 - alpha / 2.0))
        ratio = weight_at(alpha, 1e6) * 1e6 ** (1 + alpha / 2.0)
        ok &= abs(ratio / lim - 1.0) <= 0.01
        details.append(f"a={alpha}: sum(10^{math.ceil(6/alpha)})={partial:.6f}")
    R = 128
    for n in (1, 2):
        K = 10 * n * (R // 2) ** 2
        for alpha in (0.5, 1.0, 1.5):
            win, _ = p1_kernel(n, alpha, K, R)
            band = power_law_band(win, n + alpha, 2.0, R / 2.0)
            ok &= abs(band["slope"] + (n + alpha)) <= 0.1
            ok &= band["band_ratio"] <= 10.0
            details.append(f"(n={n},a={alpha}): slope={band['slope']:.3f} "
                           f"band={band['band_ratio']:.2f}")
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    announce(7, "subordination weights and single-step kernel",
             ok, f"({'; '.join(details)}; {elapsed:.0f}s)")


DECAY_CASES = [(1, 0.5, 16384), (1, 1.0, 2048), (1, 1.5, 1024),
               (2, 1.0, 512), (2, 1.5, 384)]


def test_criterion_8_decay_exponents():
    ok = True
    details = []
    ts = np.geomspace(1.0, 64.0, 9)
    for n, alpha, R in DECAY_CASES:
        rows = torus_semigroup(n, alpha, R, ts, K1=8000)
        t, diag = on_diagonal_decay(rows)
        _, grad = gradient_decay(rows)
        sd, sg_ = loglog_slope(t, diag), loglog_slope(t, grad)
        ok &= abs(sd + n / alpha) <= 0.10 * (n / alpha)
        ok &= abs(sg_ + 1.0 / alpha) <= 0.10 / alpha
        details.append(f"(n={n},a={alpha}): diag {sd:+.3f}/{-n/alpha:+.2f} "
                       f"grad {sg_:+.3f}/{-1/alpha:+.2f}")
    for alpha in (1.0, 1.25, 1.5):
        out = truncated_crossover_curve(alpha, R=1536, ell=48)
        ok &= abs(out["slope_stable"] - out["target_stable"]) \
            <= 0.15 * abs(out["target_stable"])
        ok &= abs(out["slope_diffusive"] - out["target_diffusive"]) \
            <= 0.15 * abs(out["target_diffusive"])
        details.append(f"trunc a={alpha}: {out['slope_stable']:+.3f}/"
                       f"{out['target_stable']:+.2f} "
                       f"{out['slope_diffusive']:+.3f}/-0.50")
    announce(8, "semigroup decay and truncated crossover",
             ok, "(" + "; ".join(details) + ")")


def test_criterion_9_sharpness_scalings():
    ok = True
    details = []
    s_lo = np.geomspace(1e-7, 1e-5, 8)
    s_hi = np.geomspace(1e5, 1e7, 8)
    for n, a1, a2 in [(1, 0.5, 1.5), (2, 0.5, 1.5)]:
        lo = loglog_slope(s_lo, [radial_l1_energy(n, a1, a2, "min_kernel", s)
                                 for s in s_lo])
        hi = loglog_slope(s_hi, [radial_l1_energy(n, a1, a2, "min_kernel", s)
                                 for s in s_hi])
        ok &= abs(lo - (n + 1 - min(a1, a2) / 2)) <= 0.05
        ok &= abs(hi - (n + 1 - max(a1, a2) / 2)) <= 0.05
        lo2 = loglog_slope(s_lo, [radial_l1_energy(n, a1, a2, "max_kernel", s)
                                  for s in s_lo])
        hi2 = loglog_slope(s_hi, [radial_l1_energy(n, a1, a2, "max_kernel", s)
                                  for s in s_hi])
        ok &= abs(lo2 - (n + 1 - max(a1, a2) / 2)) <= 0.05
        ok &= abs(hi2 - (n + 1 - min(a1, a2) / 2)) <= 0.05
        details.append(f"(n={n}): {lo:.3f}/{hi:.3f} and {lo2:.3f}/{hi2:.3f}")
    # dichotomy on s in [1e-3, 1e3]
    n, a1, a2 = 1, 0.5, 1.0
    s = np.geomspace(1e-3, 1e3, 49)
    crit = sharpness_profile(n, a1, a2,
                             builtin("pow_min", n=n, alpha1=a1, alpha2=a2), s)
    p1, p2 = n / (n - a1 / 2), n / (n - a2 / 2)
    bumped = cor41_young(1, min(p1, p2) + 0.1, max(p1, p2))
    bad = sharpness_profile(n, a1, a2, bumped, s)
    ok &= abs(crit["slope_low"]) <= 0.01 and abs(crit["slope_high"]) <= 0.01
    ok &= bad["slope_low"] <= -0.03
    details.append(f"dichotomy: critical {crit['slope_low']:+.4f}, "
                   f"bumped {bad['slope_low']:+.4f}")
    announce(9, "cone scalings and divergence dichotomy",
             ok, "(" + "; ".join(details) + ")")


def test_criterion_10_perturbed_example():
    ok = True
    details = []
    ls = np.geomspace(10 ** 1.5, 1e3, 10)
    for alpha in (0.5, 1.0, 1.5):
        for eps in (alpha / 2, 0.75 * alpha, alpha):
            w = log_weight(2, alpha, eps)
            slope = loglog_slope(ls, [phi_l(w, float(l)) for l in ls])
            ok &= abs(slope - (eps - alpha / 2)) <= 1e-2
    details.append("phi slopes ok")
    lgrid = np.geomspace(4.0, 64.0, 6)
    for alpha in (0.5, 1.0, 1.5):
        # the ramp pair integral does not involve eps: one sup per (alpha, l)
        sups = [ramp_inner_sup(2, alpha, float(l), 24) for l in lgrid]
        ok &= abs(loglog_slope(lgrid, sups) + alpha / 2) <= 0.05
        for eps in (alpha / 4, alpha / 2, alpha):
            w = log_weight(2, alpha, eps)
            masses = [ramp_masses(w, float(l)) for l in lgrid]
            ok &= abs(loglog_slope(lgrid, [m for m, _ in masses]) + eps) <= 0.02
            ok &= abs(loglog_slope(lgrid, [l1 ** 2 for _, l1 in masses])
                      + 2 * eps) <= 0.04
        rep = example_threshold(2, alpha, [alpha / 4, alpha / 2, alpha])
        classes = [row["class"] for row in rep["rows"]]
        ok &= classes == ["below", "at", "above"]
        details.append(f"a={alpha}: classes {classes}")
        w = log_weight(2, alpha, alpha)
        r_grid = np.geomspace(2e-2, 0.5, 8)
        slope = loglog_slope(r_grid, theorem_beta_curve(w, r_grid))
        target = -4.0 / alpha - (2 + alpha) / alpha
        ok &= abs(slope - target) <= 0.15 * abs(target)
        details.append(f"beta slope {slope:.2f}/{target:.2f}")
    announce(10, "weighted-model threshold and rate decay",
             ok, "(" + "; ".join(details) + ")")
