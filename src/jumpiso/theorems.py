"""Executable theorem engines tying energies, profiles, rates and gauges.

Each engine turns one implication of the inequality calculus into a
verification harness: derived objects (Young functions, rate functions,
constants) are built along the proof route with explicit traced constants,
then the claimed inequality is checked on a supplied function family, and
all slacks land in a TheoremReport.  Empirical best constants are reported
alongside but never used for pass/fail.

Finite-model conventions, used consistently below:

- Isoperimetric curves run over proper nonempty subsets.
- Test families for the L1 gauge inequalities consist of functions that
  vanish somewhere ("grounded"), the finite analog of compact support;
  the regularization route additionally restricts support masses to a
  fixed fraction of the total mass and floors the rate argument
  accordingly.  Reports record those domains.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (KillingPotential, Semigroup, ThetaIntegral, ValidationError,
                   bar_extension, dirichlet_energy, l1_form, rate_slacks,
                   schrodinger_energy)
from .isoperimetry import (_doubling_enumeration, _pair_weights, _subset_sums,
                           curve_slacks, enumerate_profile, indicator_constant,
                           indicator_front, indicator_gauge_constant,
                           subset_rate_slacks)
from .numerics import (INF, cumulative_quad, end_slope, ext_ratio, inv_increasing,
                       safe_pow)
from .reports import TheoremReport
from .superpoincare import (CERTIFIED, RateFunction, certified_rate, rate_power_log,
                            rate_power_pair, require_size, sp_verify)
from .young import (YoungFunction, _log_family, _power_pair, gauge_slacks,
                    piecewise_linear_young, stack_family, tabulated_young)

C_STAR = 2.0 / (1.0 - math.exp(-1.0))      # traced constant for the
# regularization route: the gauge comparison costs a dilation by
# 4/(1-1/e) of the argument and the layer-cake bound carries 1/2.
C_KILLED = 2.0 * C_STAR                    # killed route: the extended
# L1 form double-counts the killing term relative to the target bracket.
SUPPORT_FRACTION = 0.45                    # regularization-route test
# functions live on subsets of at most this share of the total mass.


def rate_grid(total: float) -> np.ndarray:
    """thm21's r grid (thm43's at the extension's total mass + 1)."""
    return np.geomspace(1e-3 / total, 1e3 / total, 25)


def _within_cap(space, fam: np.ndarray, cap: float) -> np.ndarray:
    """The rows of fam whose support mass is at most cap."""
    return fam[np.array([float(space.mu[np.abs(f) > 0].sum()) <= cap + 1e-12
                         for f in fam], dtype=bool)]


# ---------------------------------------------------------------------------
# layer-cake core inequality

def lemma1_core(space, kernel, gamma, G, f, G_inv=None, profile=None,
                tol=1e-9) -> dict:
    """Layer-cake bound: mean of the kappa-primitive of |f| against the
    halved L1 form, after rescaling f so that mu(G(|f|)) = 1.

    G must be continuous and strictly increasing with G(0) = 0.  The left
    side integrates the step function kappa(1/G(s)) exactly between the
    breakpoints G^{-1}(1/mass); the reported scale is the normalizing c.
    """
    f = np.abs(np.asarray(f, dtype=float))
    if not np.any(f > 0):
        raise ValueError("normalization impossible: f vanishes identically")

    def mean_G(c):
        return float(np.sum(np.asarray(G(c * f), dtype=float) * space.mu))

    scale = inv_increasing(mean_G, 1.0)
    if not (0 < scale < INF):
        raise ValueError("normalization impossible for this f and G")
    fs = scale * f

    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    levels, kappas = prof.kappa_steps()
    if G_inv is None:
        G_inv = lambda r: inv_increasing(lambda s: float(G(s)), r)
    # s-breakpoints, descending with mass level
    t = np.array([G_inv(1.0 / lv) for lv in levels])

    def primitive(F):
        if F <= 0:
            return 0.0
        if F > t[0] * (1 + 1e-9) + 1e-300:
            return INF
        total = kappas[-1] * min(F, t[-1])
        for i in range(len(levels) - 1):
            lo, hi = t[i + 1], t[i]
            total += kappas[i] * max(0.0, min(F, hi) - lo)
        return total

    lhs = float(np.sum(space.mu * np.array([primitive(v) for v in fs])))
    rhs = 0.5 * l1_form(space, kernel, gamma, fs)
    return {"lhs": lhs, "rhs": rhs, "scale": scale, "slack": rhs - lhs,
            "pass": lhs <= rhs + tol * max(1.0, abs(rhs))}


def lemma1_poincare(space, kernel, gamma, s, f_family, profile=None) -> dict:
    """Defective L2 bound from kappa(s): for each f,
    ||f||_2^2 <= l1(f^2)/(2 kappa(s)) + (2/s) ||f||_1^2.

    Guaranteed for s below the total mass, and for any s when f vanishes
    somewhere; each row records whether it sits in the guaranteed domain.
    The worst slack is +inf where kappa(s) = 0 makes the bound vacuous.
    """
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    kap = prof.kappa(s)
    if kap == 0.0:
        return {"s": s, "kappa": 0.0, "worst_slack": INF, "vacuous": True,
                "note": "kappa(s) = 0: inequality vacuous"}
    coeff = 0.0 if math.isinf(kap) else 1.0 / (2.0 * kap)
    fam = stack_family(space, f_family)
    sl = rate_slacks(space, fam, lambda f: l1_form(space, kernel, gamma, f * f),
                     [coeff], lambda r: 2.0 / s)
    rows = [{"f": idx, "slack": slack,
             "guaranteed": s <= space.total_mass or float(np.min(np.abs(f))) == 0.0}
            for idx, (f, slack) in enumerate(zip(fam, sl["slacks"][:, 0].tolist()))]
    return {"s": s, "kappa": kap, "worst_slack": sl["worst_slack"], "rows": rows}


def lemma1_sobolev(space, kernel, gamma, profile=None, f_family=()):
    """Gauge inequality from the exact step curve.

    The primitive Phi(t) = integral of 1/kappa(1/r) is piecewise linear, so
    its inverse is an exact piecewise-linear Young function N with
    ||f||_N <= (1/2) l1(f) for every f vanishing somewhere.  Returns
    (N, report).
    """
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    levels, kappas = prof.kappa_steps()
    if kappas[-1] <= 0.0:
        raise ValueError("kappa hits 0 (disconnected support): profile primitive diverges")
    # ascending r-breakpoints 1/levels reversed; slope 1/kappa on each piece
    r_knots = np.concatenate([[0.0], 1.0 / levels[::-1]])
    phi_knots = np.cumsum(np.concatenate([[0.0], (1.0 / kappas[::-1]) * np.diff(r_knots)]))
    N = piecewise_linear_young(phi_knots, r_knots, cap=phi_knots[-1])

    fam = stack_family(space, f_family)
    sl = gauge_slacks(space, N, fam, lambda f: l1_form(space, kernel, gamma, f), 0.5)
    rows = [{"f": idx, "slack": slack, "grounded": bool(np.min(np.abs(f)) == 0.0)}
            for idx, (f, slack) in enumerate(zip(fam, sl["slacks"].tolist()))]
    return N, {"worst_slack": sl["worst_slack"], "rows": rows, "phi_cap": phi_knots[-1]}


# ---------------------------------------------------------------------------
# rate -> gauge (regularization route)

def thm21_young(beta: RateFunction, theta: ThetaIntegral, s_max: float,
                r_floor: float, points: int = 160) -> dict:
    """Young function from the regularization profile of a tabulated rate.

    Phi(s) = integral_0^s Theta_int(beta^{-1}(max(u, r_floor))) du, with
    Theta_int(t) = integral_0^t Theta, inverted on a log grid over
    [1e-10 s_max, s_max].  Phi is summed in closed form piece by piece over
    the grid, the table values above r_floor and r_floor itself.  Below
    r_floor the integrand is the constant Theta_int(beta^{-1}(r_floor)); from
    the largest table value on it is 0; between two consecutive table values
    t = beta^{-1}(u) is linear in u, so the piece is (du/dt) [F(t_1) - F(t_2)]
    with F(t) = t Theta_int(t) - integral_0^t tau Theta(tau) d tau, read off
    ``theta.moments``.  Each piece takes its slope from its own table segment,
    so flat (repaired) stretches, where beta^{-1} jumps, need no care.  A rate
    that never descends to r_floor leaves the inner time horizon infinite:
    the profile is reported as infinite (hypothesis failure), not an error;
    one whose profile keeps fewer than two positive knots, as degenerate.
    """
    if beta.knots is None:
        raise ValidationError(f"the regularization profile needs a tabulated rate, "
                              f"got family {beta.family!r}")
    if not r_floor > 0:
        raise ValueError("r_floor must be positive")
    horizon = beta.inv(r_floor)
    if math.isinf(horizon):
        return {"ok": False, "N": None, "Phi": None,
                "note": f"profile infinite: rate inverse diverges at r={r_floor!r}"}
    theta_at_floor = theta(horizon)
    if math.isinf(theta_at_floor):
        return {"ok": False, "N": None, "Phi": None,
                "note": "profile infinite: Theta diverges on the needed horizon"}

    r, v = beta.knots
    grid = np.concatenate([[0.0], np.geomspace(s_max * 1e-10, s_max, points)])
    edges = np.union1d(grid, np.append(v[v > r_floor], r_floor))
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    pieces = np.where(hi <= r_floor, (hi - lo) * theta_at_floor, 0.0)
    ramp = np.flatnonzero((lo >= r_floor) & (mid < v[0]))
    # table segment (i - 1, i) holding each piece: v[i] < mid < v[i - 1]
    i = np.searchsorted(-v, -mid[ramp])
    r0, r1, v0, v1 = r[i - 1], r[i], v[i - 1], v[i]
    t_lo = r0 + (r1 - r0) * (v0 - lo[ramp]) / (v0 - v1)
    t_hi = r0 + (r1 - r0) * (v0 - hi[ramp]) / (v0 - v1)
    ts = np.concatenate([t_lo, t_hi])
    cum, cum_m = theta.moments(ts)
    F = ts * cum - cum_m
    pieces[ramp] = (F[:len(ramp)] - F[len(ramp):]) * (v0 - v1) / (r1 - r0)
    vals = np.concatenate([[0.0], np.cumsum(pieces)])[np.searchsorted(edges, grid)]
    # trim the flat tail (where the rate inverse has collapsed to zero) so
    # the log-log tabulation keeps strictly increasing knots
    inc = np.flatnonzero(np.diff(vals) > 1e-14 * max(vals[-1], 1e-300))
    last = inc[-1] + 1 if inc.size else len(vals) - 1
    knots = vals[1:last + 1]
    usable = int(np.count_nonzero((knots > 0) & np.isfinite(knots)))
    if usable < 2:
        return {"ok": False, "N": None, "Phi": None,
                "note": f"profile degenerate: {usable} positive finite knots, "
                        f"the tabulation needs two"}
    N = tabulated_young(knots, grid[1:last + 1], family="rate_profile_inverse")
    phi = lambda s: float(np.interp(s, grid, vals)) if s <= s_max else INF
    return {"ok": True, "N": N, "Phi": phi, "grid": grid[1:], "values": vals[1:]}


def _regularization_young(rep, beta, theta_int, fraction, total, s_max, row, tol):
    """``thm21_young`` at the rate floor r_floor = 1/(2 s_cap) of the support
    cap s_cap = (fraction + 0.01) total: (N, r_floor), or None after a note
    and a failed ``row`` where the profile is infinite or degenerate."""
    r_floor = 1.0 / (2.0 * ((fraction + 0.01) * total))
    built = thm21_young(beta, theta_int, s_max=s_max, r_floor=r_floor)
    if not built["ok"]:
        rep.note(built["note"])
        rep.add(row, -INF, tol)
        return None
    return built["N"], r_floor


def thm21_verify(space, kernel, gamma, beta=None, f_family=None,
                 support_fraction: float = SUPPORT_FRACTION, seed: int = 0,
                 theta=None, profile=None, tol=1e-9) -> TheoremReport:
    """Rate-to-gauge inequality at the traced constant.

    Builds the regularization Young function from a certified rate and
    checks ||f||_N <= C* l1_gamma(f) with C* = 2/(1 - 1/e) over functions
    supported on subsets of at most ``support_fraction`` of the total mass
    (the finite-model stand-in for compact support; see the report notes for
    the matching rate-argument floor).  Without a family, these are 40
    random functions and every subset indicator below the cap, read off the
    profile.  The rate is checked on 25 log-spaced r in [1e-3, 1e3] / total
    mass.  The empirical best constant is recorded; the gauge bound row
    fails where it exceeds C*.
    ``theta`` is ``Semigroup(space, kernel).theta_curve(gamma)``, built when
    None, as is the profile.
    """
    rep = TheoremReport("thm21")
    m = space.m
    total = space.total_mass
    rng = np.random.default_rng(seed)
    r_grid = rate_grid(total)
    if beta is None:
        beta = certified_rate(space, kernel, r_grid)
    if beta.params.get("note") == CERTIFIED:
        rep.note("rate: inflated certified estimate on the r grid")
    fam = None if f_family is None else stack_family(space, f_family)
    sp = sp_verify(space, kernel, beta,
                   fam if fam is not None and len(fam) else
                   [rng.standard_normal(m) for _ in range(20)], r_grid)
    rep.add("rate inequality holds on the family", sp["worst_slack"], tol)

    cap = support_fraction * total
    theta_int, theta_total = theta or Semigroup(space, kernel).theta_curve(gamma)
    built = _regularization_young(rep, beta, theta_int, support_fraction, total,
                                  100.0 / float(space.mu.min()), "profile finite", tol)
    if built is None:
        return rep
    N, r_floor = built
    rep.derived["constant"] = C_STAR
    rep.derived["r_floor"] = r_floor
    rep.derived["support_cap_mass"] = cap
    rep.derived["theta_total"] = theta_total

    below, norms, B = 0, np.zeros(0), np.zeros(0)   # no subsets with a given family
    if fam is None:
        from .instances import small_support_functions
        fam = stack_family(space, small_support_functions(rng, space, cap, 40))
        prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
        below = int(np.searchsorted(prof.sorted_masses, cap + 1e-12, side="right"))
        norms, B = indicator_front(N, prof.sorted_masses[:below],
                                   2.0 * prof.sorted_flows[:below])
    kept = _within_cap(space, fam, cap)
    if len(kept) < len(fam):
        rep.note(f"skipped {len(fam) - len(kept)} family members with support mass above the cap")

    sl = gauge_slacks(space, N, kept, lambda f: l1_form(space, kernel, gamma, f), C_STAR)
    rep.add("gauge bound at the traced constant",
            min(sl["worst_slack"], float(np.min(C_STAR * B - norms, initial=INF))), tol)
    rep.derived["empirical_constant"] = max(sl["constant"], indicator_constant(norms, B))
    rep.derived["family_size"] = len(kept) + below
    return rep


# ---------------------------------------------------------------------------
# gauge -> rate (and back): the monotone-root constructions

def _check_s_over_N_increasing(N: YoungFunction):
    s = np.geomspace(1e-8, 1e8, 300)
    vals = np.asarray(N(s), dtype=float) / s
    finite = np.isfinite(vals)
    v = vals[finite]
    return not np.any(np.diff(v) < -1e-10 * np.abs(v[:-1]))


def rate_from_gauge(N: YoungFunction, C: float, lead: float = 2.0) -> RateFunction:
    """beta(r) = lead * inf{s : g(s) <= r} with g(s) = C N^{-1}(s)/s.

    g is continuous and nonincreasing when s -> N(s)/s is increasing, so
    beta is a monotone root, and inf{s : g(s) <= r} <= t holds exactly when
    g(t) <= r: the generalized inverse of beta is g(u/lead) in closed form.
    The root is C tau/r with tau = inf{tau : N(tau)/tau >= C/r}, one search on
    the explicit N (N(tau) at a continuous crossing, still right where N jumps
    to +inf at a cap), and lead (C/r)^{p/(p-1)} for N = s^p.  At sqrt(r), with
    lead 4 and the Cauchy-Schwarz constant, it is the square-root full rate.
    """
    def g(s):
        return C * N.inv(s) / s

    def ev(r):
        if N.family == "power" and N.params["p"] > 1.0:
            return lead * safe_pow(ext_ratio(C, r), _exponent(N.params["p"]))
        tau = inv_increasing(lambda t: float(N(t)) / t, ext_ratio(C, r))
        return lead * ext_ratio(C * tau, r)

    def iv(u):
        if u <= 0:
            return INF
        return 0.0 if math.isinf(u) else g(u / lead)

    return RateFunction("gauge_root", {"C": C, "lead": lead}, ev, iv)


def thm41(N: YoungFunction, space, kernel, gamma, f_family, r_grid,
          C: float | None = None, profile=None, tol=1e-9) -> TheoremReport:
    """From the L1 gauge inequality at constant C to: (1) a pointwise lower
    bound on the isoperimetric curve, (2) a defective L2 rate, and (3) a
    full rate under the square-integrability bound on the weighted kernel.

    C is raised to the exact indicator supremum when not supplied, which is
    what conclusions (1)-(3) consume.
    """
    rep = TheoremReport("thm41")
    if not _check_s_over_N_increasing(N):
        raise ValueError("s -> N(s)/s must be increasing for this route")
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    C_ind = indicator_gauge_constant(space, kernel, gamma, N, prof)
    C_used = max(C or 0.0, C_ind)
    rep.derived["C_used"] = C_used
    rep.derived["C_indicator"] = C_ind

    masses = prof.sorted_masses
    s_grid = np.unique(np.concatenate([masses * 1.0001, masses * 0.9999,
                                       np.geomspace(masses[0] * 0.5,
                                                    masses[-1] * 2.0, 16)]))
    curve = curve_slacks(prof, s_grid,
                         lambda s: ext_ratio(1.0, 2.0 * C_used * s * N.inv(1.0 / s)))
    rep.add("curve lower bound 1/(2 C s N^{-1}(1/s))", curve["worst_slack"], tol)

    fam = stack_family(space, f_family)
    sl = rate_slacks(space, fam, lambda f: l1_form(space, kernel, gamma, f * f),
                     r_grid, rate_from_gauge(N, C_used, lead=2.0))
    rep.add("defective rate from the gauge root", sl["worst_slack"], tol)

    c_gamma = _c_gamma(space, kernel, gamma)
    rep.derived["c_gamma"] = c_gamma
    beta = rate_from_gauge(N, 2.0 * C_used * math.sqrt(2.0 * c_gamma), lead=4.0)
    sl = rate_slacks(space, fam, lambda f: dirichlet_energy(space, kernel, f),
                     r_grid, lambda r: beta(math.sqrt(r)))
    rep.add("full rate under the kernel square bound", sl["worst_slack"], tol)
    rep.derived["beta1"] = "2 inf{s : C N^{-1}(s)/s <= r}"
    rep.derived["beta"] = "4 inf{s : N^{-1}(s)/s <= sqrt(r)/(2 C sqrt(2 c_gamma))}"
    return rep


def _c_gamma(space, kernel, gamma, extra=0.0) -> float:
    """max_x of sum_y gamma(x, y)^2 j(x, y) mu(y) + extra(x)."""
    return float(np.max(np.sum(gamma.gamma ** 2 * kernel.j * space.mu[None, :], axis=1)
                        + extra))


def thm42(beta1: RateFunction, space, kernel, gamma, f_family, r_grid,
          profile=None, tol=1e-9) -> TheoremReport:
    """From a defective L2 rate to: (1) an isoperimetric lower bound,
    (2) a gauge inequality with N = Phi^{-1}, Phi(t) = 4 int_0^t
    beta1^{-1}(r/2) dr, at constant 1/2, and (3) a full rate.

    The subset form of the defective rate is pre-checked at every inverse
    argument the route uses; grid points where beta1^{-1} degenerates are
    skipped with a note.
    """
    rep = TheoremReport("thm42")
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    masses = prof.sorted_masses
    s_grid = np.unique(np.concatenate([masses * 1.0001,
                                       np.geomspace(masses[0] * 0.5,
                                                    masses[-1] * 2.0, 12)]))
    r_stars = []

    def bound(s):
        r_star = beta1.inv(1.0 / (2.0 * float(s)))
        if math.isinf(r_star):
            return math.nan
        r_stars.append(r_star)   # the premise is checked at each used argument
        return ext_ratio(1.0, 4.0 * r_star)

    curve = curve_slacks(prof, s_grid, bound)
    premise = subset_rate_slacks(prof, r_stars, beta1)
    rep.add("subset defective rate at the used arguments", premise["worst_slack"], tol)
    rep.add("curve lower bound 1/(4 beta1^{-1}(1/(2s)))", curve["worst_slack"], tol)
    if curve["skipped"]:
        rep.note(f"skipped {curve['skipped']} grid points with degenerate rate inverse")

    # gauge side: Phi(t) = 4 int_0^t beta1^{-1}(r/2) dr
    horizon = beta1.inv(max(r_grid[0], 1e-300) / 2.0)
    if math.isinf(horizon):
        rep.note("profile divergent: rate inverse infinite near 0")
        rep.add("profile finite", -INF, tol)
        return rep
    # Phi on log knots, from an edge down their log step where x fn(x) (the
    # mass below x for a power fn) is 1e-17 of knots[0] fn(knots[0]) <= Phi(knots[0]);
    # no such edge in 2000 steps (about 400 log units) means Phi diverges at 0
    t_max = 10.0 / float(space.mu.min())
    knots = np.geomspace(t_max * 1e-12, t_max, 140)
    fn = lambda r: 4.0 * beta1.inv(r / 2.0)
    floor, edges = 1e-17 * knots[0] * fn(knots[0]), [knots[0]]
    while edges[-1] * fn(edges[-1]) > floor and len(edges) <= 2000:
        edges.append(edges[-1] * knots[0] / knots[1])
    vals = cumulative_quad(fn, np.append(edges[:0:-1], knots))[len(edges) - 1:]
    if len(edges) > 2000 or not np.all(np.isfinite(vals)):
        rep.note("profile divergent at 0 or on the grid")
        rep.add("profile finite", -INF, tol)
        return rep
    N = tabulated_young(vals, knots, family="defective_rate_inverse")
    fam = stack_family(space, f_family)
    sl = gauge_slacks(space, N, fam, lambda f: l1_form(space, kernel, gamma, f), 0.5)
    rep.add("gauge bound at constant 1/2", sl["worst_slack"], tol)

    c_gamma = _c_gamma(space, kernel, gamma)
    rep.derived["c_gamma"] = c_gamma
    sl = rate_slacks(
        space, fam, lambda f: dirichlet_energy(space, kernel, f), r_grid,
        lambda r: 2.0 * beta1(math.sqrt(r) / (2.0 * math.sqrt(2.0 * c_gamma))))
    rep.add("full rate 2 beta1(sqrt(r)/(2 sqrt(2 c_gamma)))", sl["worst_slack"], tol)
    rep.derived["N"] = "Phi^{-1}, Phi(t) = 4 int_0^t beta1^{-1}(r/2) dr"
    return rep


# ---------------------------------------------------------------------------
# the four closed-form correspondences

def _exponent(p: float) -> float:
    return p / (p - 1.0)


def cor41_young(case: int, p1: float, p2: float = None, q: float = 0.0,
                lam: float = 2.0) -> YoungFunction:
    if case in (1, 2):
        return _power_pair(p1, p2, case == 1, f"cor_case{case}", {"p1": p1, "p2": p2})
    if case in (3, 4):
        # s^p log(lam + 1/s)^q (case 3) or s^p log(lam + s)^q (case 4) is the
        # log family (s L^{q/p})^p at the caller's lam, which is not doubled
        return _log_family(p1, q / p1, case == 4, lam, f"cor_case{case}",
                           {"p": p1, "q": q, "lambda": lam})
    raise ValueError("case must be 1..4")


def cor41(case: int, direction: str, params: dict, C: float = 1.0,
          r_grid=None) -> dict:
    """Convert between a gauge Young function and its defective-rate family.

    The target rates, with a = p/(p-1): max(r^{-a1}, r^{-a2}) (case 1),
    min(r^{-a1}, r^{-a2}) (case 2), r^{-a} log(2 + r)^{-q/(p-1)} (case 3)
    and the same with 1/r inside the log (case 4).
    direction "to_rate": N with constant C -> beta1 via the monotone root of
    the defective construction; the constant of the target family is fitted
    on a log grid and its spread reported.
    direction "to_young": beta1 (target family at constant ``C``) -> N via
    the primitive of the rate inverse at constant 1/2.
    """
    p1 = params["p1"]
    p2 = params.get("p2", p1)
    q = params.get("q", 0.0)
    lam = params.get("lam", 2.0)
    c = 1.0 if direction == "to_rate" else C
    if case in (1, 2):
        target = rate_power_pair(c, _exponent(p1), _exponent(p2), use_max=case == 1)
    elif case in (3, 4):
        target = rate_power_log(c, _exponent(p1), q / (p1 - 1.0), inverse_arg=case == 4)
    else:
        raise ValueError("case must be 1..4")
    if r_grid is None:
        r_grid = np.geomspace(1e-8, 1e8, 81)
    if direction == "to_rate":
        N = cor41_young(case, p1, p2, q, lam)
        beta1 = rate_from_gauge(N, C, lead=2.0)
        vals = np.array([beta1(r) for r in r_grid])
        ratios = vals / np.array([target(r) for r in r_grid])
        return {"rate": beta1, "young": N,
                "fitted_c": float(np.exp(np.mean(np.log(ratios)))),
                "c_band": [float(ratios.min()), float(ratios.max())]}
    if direction == "to_young":
        # the grid must reach far enough that the primitive's values cover
        # the slope-measurement windows without extrapolation
        grid = np.geomspace(1e-100, 1e100, 1100)
        # layer cake in rho = beta1^{-1}(t/2): Phi = 4 t rho + 8 int_rho^inf beta1,
        # the tail from where sigma beta1 ~ sigma^{1-a} (a the slowest exponent)
        # fell by e^-40 down to each rho, with an edge at the pairs' kink sigma = 1
        rho = np.array([target.inv(t / 2.0) for t in grid])
        reach = min(40.0 / (min(_exponent(p1), _exponent(p2)) - 1.0), 400.0)
        k = int(np.sum(rho > 1.0))
        sigma = np.concatenate([[rho[0] * math.exp(reach)], rho[:k], [1.0], rho[k:]])
        tail = -np.delete(cumulative_quad(target, sigma), [0, k + 1])
        N = tabulated_young(4.0 * grid * rho + 8.0 * tail, grid, family="cor_young")
        return {"rate": target, "young": N, "constant": 0.5}
    raise ValueError("direction must be to_rate or to_young")


def cor41_round_trip(case: int, params: dict) -> dict:
    """N -> beta1 -> N' and compare fitted end slopes of N'/N.

    The windows sit deep in both tails (around 1e-40 and 1e40) so the
    slowly-varying second-order corrections of the log-modified families are
    below the slope tolerance 1e-3.
    """
    fwd = cor41(case, "to_rate", params)
    back = cor41(case, "to_young", params, C=fwd["fitted_c"] / 2.0)
    N, N2 = fwd["young"], back["young"]
    out = {"case": case, "params": params}
    for endname, (lo, hi) in (("low", (1e-42, 1e-38)), ("high", (1e38, 1e42))):
        s = np.geomspace(lo, hi, 40)
        ratio = np.asarray(N2(s), dtype=float) / np.asarray(N(s), dtype=float)
        slope = end_slope(s, ratio, "high" if endname == "high" else "low", window=1.0)
        out[f"slope_gap_{endname}"] = slope
        out[f"constant_band_{endname}"] = [float(ratio.min()), float(ratio.max())]
    out["pass"] = (abs(out["slope_gap_low"]) <= 1e-3
                   and abs(out["slope_gap_high"]) <= 1e-3)
    return out


# ---------------------------------------------------------------------------
# killed forms via the cemetery extension

def thm43(space, kernel, potential: KillingPotential, gamma, beta=None,
          f_family=None, r_grid=None, N_converse: YoungFunction | None = None,
          seed: int = 0, tol=1e-9) -> TheoremReport:
    """Killed-form gauge inequality and its converse rate.

    Forward: extend the state space by a cemetery atom, build the
    regularization Young function on the extension from a rate certified
    there, and verify

        ||f||_N <= C (l1_gamma(f) + sum |f| xi v mu),   C = 4/(1 - 1/e).

    The extension is used because a rate for the killed form does not
    transfer verbatim to the extended form.  Converse: from the same
    inequality at the exact indicator constant, derive the killed-form rate
    beta(r) = 4 inf{s : N^{-1}(s)/s <= sqrt(r)/(2 C sqrt(2 c))} with
    c = sup_x (sum gamma^2 j mu + xi^2 v) and verify it; both traced
    constants are sufficient, not claimed minimal.
    """
    rep = TheoremReport("thm43")
    xi = potential.xi if potential.xi is not None else np.ones(space.m)
    if np.any((xi == 0) & (potential.v > 0)):
        rep.note("xi vanishes where the killing is positive: extension profile infinite")
        rep.add("extension profile finite", -INF, tol)
        return rep
    if not np.any(potential.v > 0):
        rep.note("no killing: reduces to the plain regularization route")
        inner = thm21_verify(space, kernel, gamma, beta=beta, f_family=f_family,
                             seed=seed, tol=tol)
        rep.checks = inner.checks
        rep.derived = inner.derived
        rep.notes += inner.notes
        return rep
    require_size(space.m + 1)   # the extension's rate: refuse before any work

    total = space.total_mass
    if r_grid is None:
        r_grid = rate_grid(total + 1.0)
    if f_family is None:
        from .instances import small_support_functions
        f_family = small_support_functions(np.random.default_rng(seed), space,
                                           SUPPORT_FRACTION * (total + 1.0), 40)

    # hypothesis check: the supplied (or estimated) rate for the killed form
    if beta is None:
        beta = certified_rate(space, kernel, r_grid, potential=potential)
    if beta.params.get("note") == CERTIFIED:
        rep.note("killed-form rate: inflated certified estimate")
    spv = sp_verify(space, kernel, beta, f_family, r_grid, potential=potential)
    rep.add("killed-form rate inequality on the family", spv["worst_slack"], tol)

    # forward: regularization route on the extension
    space2, kernel2, gamma2 = bar_extension(space, kernel, potential, gamma, xi)
    bar_beta = certified_rate(space2, kernel2, r_grid)
    sg2 = Semigroup(space2, kernel2)
    theta_int, theta_total = sg2.theta_curve(gamma2)
    built = _regularization_young(rep, bar_beta, theta_int, SUPPORT_FRACTION,
                                  space2.total_mass, 100.0 / float(space.mu.min()),
                                  "extension profile finite", tol)
    if built is None:
        return rep
    N_bar = built[0]
    rep.derived["forward_constant"] = C_KILLED
    rep.derived["theta_total_extension"] = theta_total

    fam = stack_family(space, f_family)
    kept = _within_cap(space, fam, SUPPORT_FRACTION * space2.total_mass)
    sl = gauge_slacks(space, N_bar, kept,
                      lambda f: (l1_form(space, kernel, gamma, f)
                                 + float(np.sum(np.abs(f) * xi * potential.v * space.mu))),
                      C_KILLED)
    rep.add("killed gauge bound at the traced constant", sl["worst_slack"], tol)
    rep.derived["empirical_forward_constant"] = sl["constant"]
    rep.derived["forward_family_size"] = len(kept)

    # converse: exact indicator constant over cemetery-free subsets,
    # including the full base space (proper on the extension)
    N_conv = N_converse if N_converse is not None else cor41_young(1, 2.0, 2.0)
    if not _check_s_over_N_increasing(N_conv):
        raise ValueError("converse Young function must have N(s)/s increasing")
    masses, flowsE = _doubling_enumeration(space.mu, _pair_weights(space, kernel, gamma))
    kill = _subset_sums(xi * potential.v * space.mu)
    C_conv = indicator_constant(*indicator_front(N_conv, masses[1:],
                                                 2.0 * flowsE[1:] + kill[1:]))
    rep.derived["converse_C"] = C_conv
    c_bar = _c_gamma(space, kernel, gamma, xi ** 2 * potential.v)
    rep.derived["c_bar"] = c_bar
    if math.isinf(C_conv):
        rep.note("converse constant infinite (zero bracket subset): rate vacuous")
        return rep
    conv_rate = rate_from_gauge(N_conv, 2.0 * C_conv * math.sqrt(2.0 * c_bar), lead=4.0)
    sl = rate_slacks(space, fam,
                     lambda f: schrodinger_energy(space, kernel, potential, f),
                     r_grid, lambda r: conv_rate(math.sqrt(r)))
    rep.add("converse killed rate", sl["worst_slack"], tol)
    rep.derived["converse_beta"] = \
        "4 inf{s : N^{-1}(s)/s <= sqrt(r)/(2 C sqrt(2 c_bar))}"
    return rep
