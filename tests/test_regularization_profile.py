"""The closed-form regularization profile against the QUADPACK route it
replaced.

The reference functions below are verbatim copies of ``Semigroup.theta_curve``
(as a function of the semigroup) and of ``theorems.thm21_young`` as they were
before Phi was summed piece by piece over the rate's knots: the integral of
Theta with a memoized scalar evaluator, and Phi by adaptive quadrature of
Theta_int(beta^{-1}(max(r, r_floor))) on each grid segment, with a power-law
fit on the first one (``oracles.cumulative_quad``).  The scalar Theta_int
must equal the old one bit for bit; Phi must stay within relative 1e-7 of
the old route, fixed in advance (the old route itself integrates to
relative 1e-9 per segment and carries the error of the 8-node Theta rule
at Theta's kinks).
"""

import functools
import math

import numpy as np
import pytest

from jumpiso.core import Semigroup, ValidationError, bar_extension
from jumpiso.instances import random_instance
from jumpiso.numerics import INF
from jumpiso.superpoincare import certified_rate, rate_tabulated
from jumpiso.theorems import SUPPORT_FRACTION, thm21_young
from jumpiso.young import tabulated_young
from oracles import cumulative_quad, rate_power

PHI_RTOL = 1e-7


# ---------------------------------------------------------------------------
# verbatim copies of the replaced code

def ref_theta_curve(self, gamma):
    """Cumulative Theta on a log time grid plus an exact-rate tail bound.

    Returns (ThetaFn, theta_infinity).  The grid has 240 points up to
    t_max = 50/gap (1e6 when the gap is 0).  Beyond it the tail is
    integrated analytically from theta(t) <= theta(t_max) e^{-gap (t-t_max)}
    (the spectral gap controls the decay); on disconnected spaces with
    gap 0 the tail is infinite.
    """
    g = self.gap
    t_max = 50.0 / g if g > 0 else 1e6
    ts = np.geomspace(max(t_max * 1e-8, 1e-12), t_max, 240)
    thetas = self.theta(ts, gamma)
    gx, gw = np.polynomial.legendre.leggauss(8)

    def segments(a, b):
        """8-point Gauss rule on each [a_i, b_i], nodes summed in order."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = gw * self.theta(mid[:, None] + half[:, None] * gx, gamma)
        acc = vals[:, 0]
        for k in range(1, len(gw)):
            acc = acc + vals[:, k]
        return half * acc

    def segment(a, b):
        return segments(np.array([a]), np.array([b]))[0]

    cum = np.cumsum(segments(np.concatenate([[0.0], ts[:-1]]), ts))
    tail = thetas[-1] / g if g > 0 else (INF if thetas[-1] > 0 else 0.0)
    total = cum[-1] + tail

    @functools.lru_cache(maxsize=None)
    def theta_int(t: float) -> float:
        if t <= 0:
            return 0.0
        if t <= ts[0]:
            return segment(0.0, t)
        if t >= ts[-1]:
            if math.isinf(t):
                return total
            return cum[-1] + (thetas[-1] / g * (1 - math.exp(-g * (t - ts[-1])))
                              if g > 0 else (INF if thetas[-1] > 0 else 0.0))
        k = int(np.searchsorted(ts, t))
        return float(cum[k - 1] + segment(ts[k - 1], t))

    return theta_int, total


def ref_thm21_young(beta, theta_integral_fn, s_max: float,
                    r_floor: float = 0.0, points: int = 160) -> dict:
    """Young function from the regularization profile of a valid rate.

    Phi(s) = integral_0^s Theta(beta^{-1}(max(r, r_floor))) dr, inverted on
    a log grid over [1e-10 s_max, s_max].  With r_floor = 0 and a rate that
    never descends below some positive floor, the inner time horizon is
    infinite from the start: the profile is reported as infinite (hypothesis
    failure), not an error.
    """
    probe_r = r_floor if r_floor > 0 else max(s_max * 1e-12, 1e-300)
    horizon = beta.inv(probe_r)
    if math.isinf(horizon):
        return {"ok": False, "N": None, "Phi": None,
                "note": f"profile infinite: rate inverse diverges at r={probe_r!r}"}
    theta_at_floor = theta_integral_fn(horizon)
    if math.isinf(theta_at_floor):
        return {"ok": False, "N": None, "Phi": None,
                "note": "profile infinite: Theta diverges on the needed horizon"}

    def integrand(r):
        return theta_integral_fn(beta.inv(max(r, r_floor)))

    grid = np.concatenate([[0.0], np.geomspace(s_max * 1e-10, s_max, points)])
    vals = cumulative_quad(integrand, grid, rtol=1e-9)
    # trim the flat tail (where the rate inverse has collapsed to zero) so
    # the log-log tabulation keeps strictly increasing knots
    inc = np.flatnonzero(np.diff(vals) > 1e-14 * max(vals[-1], 1e-300))
    last = inc[-1] + 1 if inc.size else len(vals) - 1
    N = tabulated_young(vals[1:last + 1], grid[1:last + 1],
                        family="rate_profile_inverse")
    phi = lambda s: float(np.interp(s, grid, vals)) if s <= s_max else INF
    return {"ok": True, "N": N, "Phi": phi, "grid": grid[1:], "values": vals[1:]}


# ---------------------------------------------------------------------------
# cases: (semigroup, gamma, certified rate, r_floor, s_max) as thm21_verify
# and thm43 build them

def _case(seed, with_gamma, cemetery):
    space, kernel, gamma, pot = random_instance(seed, (3, 8), with_gamma=with_gamma,
                                                with_potential=cemetery)
    s_max = 100.0 / float(space.mu.min())
    if cemetery:
        xi = pot.xi if pot.xi is not None else np.ones(space.m)
        space, kernel, gamma = bar_extension(space, kernel, pot, gamma, xi)
    M = space.total_mass
    beta = certified_rate(space, kernel, np.geomspace(1e-3 / M, 1e3 / M, 25))
    r_floor = 1.0 / (2.0 * (SUPPORT_FRACTION + 0.01) * M)
    return Semigroup(space, kernel), gamma, beta, r_floor, s_max


CASES = [(seed, with_gamma, cemetery) for seed, with_gamma, cemetery in
         [(0, False, False), (1, True, False), (2, False, True), (3, True, True),
          (4, True, False), (9, False, True)]]


def _assert_same_profile(new, old):
    assert new["ok"] and old["ok"]
    assert new["grid"].tolist() == old["grid"].tolist()
    got, ref = np.asarray(new["values"]), np.asarray(old["values"])
    assert np.all(np.abs(got - ref) <= PHI_RTOL * np.abs(ref)), \
        float(np.max(np.abs(got - ref) / np.abs(ref)))
    for s in np.geomspace(new["grid"][0], new["grid"][-1], 17):
        assert new["Phi"](s) == pytest.approx(old["Phi"](s), rel=PHI_RTOL)


@pytest.mark.parametrize("seed,with_gamma,cemetery", CASES)
def test_scalar_theta_integral_is_bit_identical(seed, with_gamma, cemetery):
    sg, gamma, *_ = _case(seed, with_gamma, cemetery)
    theta_int, total = sg.theta_curve(gamma)
    ref_int, ref_total = ref_theta_curve(sg, gamma)
    ts = theta_int.ts
    probes = np.concatenate([[0.0, -1.0, ts[0], ts[-1]], ts[::7],
                             np.geomspace(ts[0] * 1e-3, ts[-1] * 1e3, 150)])
    for t in probes.tolist() + [INF]:
        assert theta_int(t).hex() == ref_int(t).hex(), t
    assert total.hex() == ref_total.hex()
    # the array path gives the scalar values, bit for bit
    cum, _ = theta_int.moments(probes)
    assert cum.tolist() == [theta_int(t) for t in probes.tolist()]


@pytest.mark.parametrize("seed,with_gamma,cemetery", CASES)
def test_phi_matches_quadpack_route(seed, with_gamma, cemetery):
    sg, gamma, beta, r_floor, s_max = _case(seed, with_gamma, cemetery)
    new = thm21_young(beta, sg.theta_curve(gamma)[0], s_max, r_floor)
    old = ref_thm21_young(beta, ref_theta_curve(sg, gamma)[0], s_max, r_floor=r_floor)
    _assert_same_profile(new, old)


@pytest.mark.parametrize("where", ["on", "between"])
def test_phi_matches_with_r_floor_on_and_between_knots(where):
    sg, gamma, beta, _, s_max = _case(5, True, False)
    _, v = beta.knots
    k = int(np.flatnonzero(v < 0.5 * v[0])[0])   # a knot well inside the ramp
    r_floor = float(v[k]) if where == "on" else math.sqrt(v[k] * v[k + 1])
    new = thm21_young(beta, sg.theta_curve(gamma)[0], s_max, r_floor)
    old = ref_thm21_young(beta, ref_theta_curve(sg, gamma)[0], s_max, r_floor=r_floor)
    _assert_same_profile(new, old)


def test_r_floor_below_the_knots_reports_infinite_profile():
    sg, gamma, beta, _, s_max = _case(6, False, False)
    r_floor = 0.5 * float(beta.knots[1][-1])
    new = thm21_young(beta, sg.theta_curve(gamma)[0], s_max, r_floor)
    old = ref_thm21_young(beta, ref_theta_curve(sg, gamma)[0], s_max, r_floor=r_floor)
    assert not new["ok"] and not old["ok"]
    assert new["note"] == old["note"]


@pytest.mark.parametrize("seed", [7, 8])
def test_phi_matches_on_repaired_flat_stretches(seed):
    """Bumps in the table values are repaired into flat stretches, where
    beta^{-1} jumps; one stretch sits at r_floor itself."""
    sg, gamma, beta, r_floor, s_max = _case(seed, seed % 2 == 0, False)
    r, v = beta.knots
    ramp = np.flatnonzero((v > r_floor) & (v < v[0]))
    bumped = v.copy()
    for k in ramp[1::3]:
        bumped[k] = 1.5 * v[k - 1]
    k = int(np.flatnonzero(v <= r_floor)[0])   # the first knot below r_floor
    bumped[k], bumped[k + 1] = r_floor, 1.2 * r_floor
    flat = rate_tabulated(r, bumped)
    assert flat.params["repaired"]
    fv = flat.knots[1]
    assert fv[k] == fv[k + 1] == r_floor
    assert np.sum(fv[1:] == fv[:-1]) >= 3
    assert flat.inv(r_floor) == pytest.approx(r[k], rel=1e-12)
    new = thm21_young(flat, sg.theta_curve(gamma)[0], s_max, r_floor)
    old = ref_thm21_young(flat, ref_theta_curve(sg, gamma)[0], s_max, r_floor=r_floor)
    _assert_same_profile(new, old)


def test_rate_without_knots_is_refused():
    sg, gamma, _, r_floor, s_max = _case(0, False, False)
    theta_int, _ = sg.theta_curve(gamma)
    with pytest.raises(ValidationError, match="'power'"):
        thm21_young(rate_power(1.0, 1.0), theta_int, s_max, r_floor)


def test_r_floor_must_be_positive():
    sg, gamma, beta, _, s_max = _case(0, False, False)
    theta_int, _ = sg.theta_curve(gamma)
    for r_floor in (0.0, -1.0):
        with pytest.raises(ValueError, match="r_floor"):
            thm21_young(beta, theta_int, s_max, r_floor)
