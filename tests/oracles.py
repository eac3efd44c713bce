"""Reference code that the unit tests check the package against.

Nothing in the package calls these.  They are independent routes to the
quantities that the package computes in closed or batched form:

- Young functions: the profile integrals Phi_h and N_h = Phi_h^{-1}, of
  which each built-in family is the closed form up to constants, the
  domination test between two Young functions, and the gauge scaling
  bounds of cN against N;
- rates: the pure power rate c r^{-a} and a rate scaled by a constant;
- gauges: every subset indicator below a mass cap as a vector, the family
  that ``theorems.thm21_verify`` pushed through the gauge bisection before
  it read its subsets from the profile;
- flows: the L1 form of a nonnegative function as the integral of the
  boundary flows of its level sets (the layer cake), which checks
  ``core.l1_form``;
- lattice: the single-step kernel p1 by iterated nearest-neighbor
  convolution, exact for K <= R, which checks the binomial route of
  ``lattice.p1_kernel``;
- quadrature: the adaptive QUADPACK route with a power-law first segment
  that ``numerics.cumulative_quad`` was before it became a fixed Gauss rule,
  the reference of the regularization-profile tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from jumpiso.core import FiniteMeasureSpace
from jumpiso.isoperimetry import _pair_weights
from jumpiso.lattice import _shift, subord_weights
from jumpiso.numerics import INF, end_slope, ext_ratio, gauss_segments, safe_pow
from jumpiso.superpoincare import RateFunction
from jumpiso.young import (YoungFunction, orlicz_norm_batch, stack_family,
                           tabulated_young)


# ---------------------------------------------------------------------------
# Young functions: scaling, domination

def scale_young(N: YoungFunction, c: float) -> YoungFunction:
    """(cN)(s) = c * N(s)."""
    return YoungFunction(
        f"scaled[{N.family}]", dict(N.params, scale=c),
        lambda s: c * N._eval(np.asarray(s, dtype=float)),
        lambda r: N._inv(r / c),
        lambda s: c * N._deriv(np.asarray(s, dtype=float)),
    )


def scaling_bound_check(space: FiniteMeasureSpace, N: YoungFunction, c: float,
                        f_family) -> dict:
    """Verify c^{-1} ||f||_{cN} <= ||f||_N <= ||f||_{cN} over a family."""
    if c < 1:
        raise ValueError("c must be >= 1")
    fam = stack_family(space, f_family)
    base = orlicz_norm_batch(space, N, fam)
    scaled = orlicz_norm_batch(space, scale_young(N, c), fam)
    kept = ~(np.isinf(base) & np.isinf(scaled))
    worst_lo = float(np.min(base[kept] - scaled[kept] / c, initial=INF))
    worst_hi = float(np.min(scaled[kept] - base[kept], initial=INF))
    ok = worst_lo >= -1e-8 and worst_hi >= -1e-8
    return {"claim": "gauge scaling bounds", "c": c, "pass": ok,
            "worst_lower_slack": worst_lo, "worst_upper_slack": worst_hi}


def domination(N1: YoungFunction, N2: YoungFunction) -> dict:
    """Decide whether sup N1/N2 looks finite on a 241-point log grid over
    [1e-8, 1e8].

    The grid sup is reported together with fitted log-log trends of the
    ratio at both ends; a growing trend at either end flags divergence with
    that end as witness.  An infinite or NaN ratio is not dominated; the
    witness is the first NaN grid point, or else the first infinite one.
    """
    lo, hi = 1e-8, 1e8
    s = np.geomspace(lo, hi, 241)
    v1 = np.asarray(N1(s), dtype=float)
    v2 = np.asarray(N2(s), dtype=float)
    ratio = np.array([ext_ratio(a, b) for a, b in zip(v1, v2)])
    sup = float(np.max(ratio))
    witness = float(s[int(np.argmax(ratio))])
    verdict, wit_end = "dominated", None
    if not sup < INF:
        verdict, wit_end = "not_dominated", witness
    else:
        try:
            hi_trend = end_slope(s, ratio, "high")
        except ValueError:
            hi_trend = 0.0
        try:
            lo_trend = end_slope(s, ratio, "low")
        except ValueError:
            lo_trend = 0.0
        if hi_trend > 0.02:
            verdict, wit_end = "not_dominated", "s->inf"
        elif lo_trend < -0.02:
            verdict, wit_end = "not_dominated", "s->0"
    return {"verdict": verdict, "sup_ratio": sup, "witness": wit_end or witness,
            "grid": [lo, hi]}


# ---------------------------------------------------------------------------
# profiles h and the induced Young functions N_h

@dataclass(frozen=True)
class ProfileH:
    """Kernel modulation profile of regularity class alpha.

    Requirements: h and s/h(s) both increasing, and the nested profile
    integral below finite.  ``family`` selects the closed form of Phi_h for
    pure and two-branch powers.
    """

    h: object
    alpha: float
    n: int
    family: str = "generic"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 < self.alpha < 2):
            raise ValueError("alpha must lie in (0, 2)")


def power_profile(kappa: float, alpha: float, n: int) -> ProfileH:
    return ProfileH(lambda r: np.asarray(r, dtype=float) ** kappa, alpha, n,
                    "power", {"kappa": kappa})


def power_pair_profile(k1: float, k2: float, use_min: bool, alpha: float, n: int) -> ProfileH:
    if use_min:
        h = lambda r: np.minimum(np.asarray(r, float) ** k1, np.asarray(r, float) ** k2)
    else:
        h = lambda r: np.maximum(np.asarray(r, float) ** k1, np.asarray(r, float) ** k2)
    return ProfileH(h, alpha, n, "power_pair", {"k1": k1, "k2": k2, "min": use_min})


def log_profile(alpha: float, n: int, q: float, lam: float, inverse_arg: bool) -> ProfileH:
    if inverse_arg:
        h = lambda r: np.asarray(r, float) ** (alpha / 2.0) * np.log(lam + 1.0 / np.asarray(r, float)) ** q
    else:
        h = lambda r: np.asarray(r, float) ** (alpha / 2.0) * np.log(lam + np.asarray(r, float)) ** q
    return ProfileH(h, alpha, n, "log", {"q": q, "lam": lam, "inverse_arg": inverse_arg})


def _inner_integral(profile: ProfileH, T: float) -> float:
    """integral_0^T r^{alpha-1} / h(r) dr, by quadrature (power profiles
    never get here: ``phi_h`` takes their closed form)."""
    a = profile.alpha
    if T <= 0:
        return 0.0
    pts, wts = gauss_segments(0.0, T, n_seg=40, nodes=16)
    vals = pts ** (a - 1.0) / np.asarray(profile.h(pts), dtype=float)
    out = float(np.dot(wts, vals))
    if not math.isfinite(out):
        raise ArithmeticError("inner profile integral diverges: profile outside the class")
    return out


def _outer_power(e: float, a: float, b: float) -> float:
    """Integral of t^{-e} over [a, b]: +inf when e >= 1 at a = 0."""
    if e >= 1.0 and a == 0.0:
        return INF
    if e == 1.0:
        return math.log(b / a)
    return (b ** (1.0 - e) - a ** (1.0 - e)) / (1.0 - e)


def _phi_power_closed(profile: ProfileH, s: float) -> float:
    """Exact nested integral for pure and two-branch power profiles.

    With T = t^{-1/n}, the inner integral is T^{a-k}/(a-k) below the branch
    crossover at r = 1 plus an explicit correction above it; both outer
    pieces are power integrals.  A divergent (non-finite) value raises.
    """
    out = _phi_power_value(profile, s)
    if not math.isfinite(out):
        raise ArithmeticError("divergent profile integral: profile outside the class")
    return out


def _phi_power_value(profile: ProfileH, s: float) -> float:
    a, n = profile.alpha, profile.n
    if profile.family == "power":
        kappa = profile.params["kappa"]
        if a - kappa <= 0:
            raise ArithmeticError("divergent inner integral: profile outside the class")
        e = (a - kappa) / n
        return _outer_power(e, 0.0, s) / (a - kappa)

    k1, k2 = profile.params["k1"], profile.params["k2"]
    if profile.params["min"]:
        lo_k, hi_k = max(k1, k2), min(k1, k2)   # branch exponents below / above r = 1
    else:
        lo_k, hi_k = min(k1, k2), max(k1, k2)
    if a - lo_k <= 0:
        raise ArithmeticError("divergent inner integral: profile outside the class")
    e_lo = (a - lo_k) / n

    def outer_below_one(u: float) -> float:
        # integral over t in [0, u], u <= 1, of the full inner value
        base = u / (a - lo_k)
        if a == hi_k:
            return base + (u - u * math.log(u) if u > 0 else 0.0) / n - 0.0
        e_hi = (a - hi_k) / n
        return base + (_outer_power(e_hi, 0.0, u) - u) / (a - hi_k)

    if s <= 1.0:
        return outer_below_one(s)
    return outer_below_one(1.0) + _outer_power(e_lo, 1.0, s) / (a - lo_k)


def phi_h(profile: ProfileH, s: float) -> float:
    """Nested profile integral Phi_h(s); continuous, increasing, concave.

    Closed form for pure and two-branch power profiles; otherwise the inner
    integral runs to t^{-1/n} numerically and the outer integral handles the
    algebraic blow-up at t = 0 with geometrically refined Gauss segments.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0.0:
        return 0.0
    if profile.family in ("power", "power_pair"):
        return _phi_power_closed(profile, s)
    n = profile.n
    inner = lambda t: _inner_integral(profile, t ** (-1.0 / n))
    probe = inner(min(s, 1.0) * 1e-6)
    if not math.isfinite(probe):
        raise ArithmeticError("divergent inner integral: profile violates the finiteness condition")
    pts, wts = gauss_segments(0.0, s, n_seg=60, nodes=20)
    vals = np.array([inner(t) for t in pts])
    out = float(np.dot(wts, vals))
    if not math.isfinite(out):
        raise ArithmeticError("divergent profile integral")
    return out


def phi_h_grid(profile: ProfileH, s_grid) -> np.ndarray:
    """Phi_h on an increasing grid, sharing one cumulative outer pass.

    Closed-form profiles evaluate directly; otherwise the outer integral is
    accumulated segment by segment (geometric head toward the t = 0 blow-up)
    so the inner integral at each node is computed exactly once.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if profile.family in ("power", "power_pair"):
        return np.array([_phi_power_closed(profile, s) for s in s_grid])
    n = profile.n
    inner = lambda t: _inner_integral(profile, t ** (-1.0 / n))
    head_pts, head_wts = gauss_segments(0.0, s_grid[0], 36, 12)
    total = float(np.dot(head_wts, [inner(t) for t in head_pts]))
    out = np.empty(len(s_grid))
    out[0] = total
    gx, gw = np.polynomial.legendre.leggauss(12)
    for i in range(1, len(s_grid)):
        a, b = s_grid[i - 1], s_grid[i]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += float(sum(w * inner(mid + half * x) for x, w in zip(gx, gw))) * half
        out[i] = total
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("divergent profile integral")
    return out


def invert_phi(profile: ProfileH, s_min=1e-10, s_max=1e10) -> YoungFunction:
    """N_h = Phi_h^{-1} as a tabulated Young function on a 400-point log grid."""
    s = np.geomspace(s_min, s_max, 400)
    vals = phi_h_grid(profile, s)
    return tabulated_young(vals, s, family="inverted_profile",
                           params={"alpha": profile.alpha, "n": profile.n,
                                   "profile": profile.family})


# ---------------------------------------------------------------------------
# rates

def rate_power(c: float, a: float) -> RateFunction:
    """beta(r) = c r^{-a}; a = 0 degenerates to the constant rate."""
    if a == 0.0:
        return RateFunction("power", {"c": c, "a": 0.0}, lambda r: c,
                            lambda u: 0.0 if u >= c else INF)
    return RateFunction("power", {"c": c, "a": a},
                        lambda r: c * safe_pow(r, -a),
                        lambda u: safe_pow(c / u, 1.0 / a) if u > 0 else INF)


def scaled_rate(beta: RateFunction, factor: float) -> RateFunction:
    """r -> factor * beta(r), with its inverse."""
    return RateFunction(
        f"scaled[{beta.family}]", dict(beta.params, scale=factor),
        lambda r: factor * beta(r),
        lambda u: beta.inv(u / factor),
    )


# ---------------------------------------------------------------------------
# gauges and flows: subset indicators as vectors, the layer cake

def indicators_below(space: FiniteMeasureSpace, cap_mass: float):
    """All subset indicators with mass <= cap_mass (m small)."""
    m = space.m
    out = []
    for mask in range(1, (1 << m) - 1):
        sel = np.array([(mask >> i) & 1 for i in range(m)], dtype=bool)
        if float(space.mu[sel].sum()) <= cap_mass:
            out.append(sel.astype(float))
    return out


def layer_cake_l1(space, kernel, gamma, f) -> float:
    """2 * integral over levels r of flow({f > r}), computed exactly: the
    level-set (layer-cake) route to the L1 form of a nonnegative f."""
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ValueError("layer cake check expects nonnegative f")
    w = _pair_weights(space, kernel, gamma)
    levels = np.unique(np.concatenate([[0.0], f]))
    total = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        sel = f > lo
        if sel.any() and not sel.all():
            total += (hi - lo) * float(w[np.ix_(sel, ~sel)].sum())
    return 2.0 * total


# ---------------------------------------------------------------------------
# lattice: p1 by iterated convolution

def srw_step(a: np.ndarray, n: int) -> np.ndarray:
    """One nearest-neighbor step: average of the 2n unit shifts."""
    out = np.zeros_like(a)
    for axis in range(n):
        out += _shift(a, axis, 1) + _shift(a, axis, -1)
    return out / (2.0 * n)


def p1_convolution(n: int, alpha: float, K: int, R: int) -> np.ndarray:
    """sum_k c(k) q_k on [-R, R]^n by K nearest-neighbor steps; exact while
    the walk stays inside the window, i.e. for R >= K."""
    if R < K:
        raise ValueError("the convolution route needs R >= K")
    w = subord_weights(alpha, K)
    shape = (2 * R + 1,) * n
    a = np.zeros(shape)
    a[(R,) * n] = 1.0
    acc = np.zeros(shape)
    for k in range(K):
        a = srw_step(a, n)
        acc += w.c[k] * a
    return acc


# ---------------------------------------------------------------------------
# quadrature: the adaptive route that numerics.cumulative_quad replaced

def cumulative_quad(fn, grid, rtol=1e-8):
    """Integral of fn from grid[0] to each grid point, by adaptive
    Gauss-Kronrod quadrature (QUADPACK) on each segment, to relative
    ``rtol`` or absolute 1e-14.

    When grid[0] == 0, the first segment is integrated by a local power-law
    fit of fn instead of quadrature: adaptive rules lose digits at algebraic
    endpoint singularities, while integrands here are asymptotically pure
    powers below the first positive grid point.
    """
    grid = np.asarray(grid, dtype=float)
    out = np.empty_like(grid)
    out[0] = 0.0
    start = 1
    if grid[0] == 0.0 and len(grid) > 1:
        t0 = grid[1]
        f0, fh = fn(t0), fn(t0 / 2.0)
        if f0 > 0 and fh > 0:
            # signed local exponent q of fn ~ A t^q near 0
            q = math.log(f0 / fh) / math.log(2.0)
            if q > -1.0:
                out[1] = f0 * t0 / (1.0 + q)
                start = 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for i in range(start, len(grid)):
            val, _ = integrate.quad(fn, grid[i - 1], grid[i], epsrel=rtol,
                                    epsabs=1e-14, limit=60)
            out[i] = out[i - 1] + val
    return out
