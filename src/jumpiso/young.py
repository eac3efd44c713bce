"""Young-function calculus: built-in families, gauges, inverses, domination.

A Young function here is convex, increasing, N(0) = 0, possibly taking the
value +inf.  Each instance carries vectorized evaluation, the generalized
inverse  N^{-1}(r) = inf{s : N(s) >= r},  and the left derivative; built-in
families keep closed forms wherever they exist and fall back to monotone
bisection otherwise.

The induced gauge norm is ||f||_N = inf{r > 0 : integral N(|f|/r) dmu <= 1},
with inf(empty) = inf.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .core import FiniteMeasureSpace
from .numerics import (INF, ext_ratio, end_slope, gauss_segments,
                       inv_increasing)


@dataclass(frozen=True)
class YoungFunction:
    family: str
    params: dict
    _eval: object = field(repr=False)
    _inv: object = field(repr=False)
    _deriv: object = field(repr=False)

    def __call__(self, s):
        return self._eval(np.asarray(s, dtype=float))

    def inv(self, r):
        """Generalized inverse inf{s : N(s) >= r}."""
        return self._inv(r)

    def left_deriv(self, s):
        return self._deriv(np.asarray(s, dtype=float))


def _power(p: float) -> YoungFunction:
    if p < 1:
        raise ValueError("power family needs p >= 1 for convexity")
    return YoungFunction(
        "power", {"p": p},
        lambda s: s ** p,
        lambda r: r ** (1.0 / p),
        lambda s: p * s ** (p - 1.0),
    )


def _power_pair(p1: float, p2: float, use_min: bool, family: str, params: dict) -> YoungFunction:
    if min(p1, p2) < 1:
        raise ValueError("exponents must be >= 1")
    lo, hi = min(p1, p2), max(p1, p2)

    if use_min:
        # s^hi below the crossover at 1, s^lo above; concave corner at 1
        params = dict(params, kink=1.0)
        ev = lambda s: np.minimum(s ** p1, s ** p2)
        iv = lambda r: max(r ** (1.0 / p1), r ** (1.0 / p2))
        dv = lambda s: np.where(s <= 1.0, hi * s ** (hi - 1.0), lo * s ** (lo - 1.0))
    else:
        ev = lambda s: np.maximum(s ** p1, s ** p2)
        iv = lambda r: min(r ** (1.0 / p1), r ** (1.0 / p2))
        dv = lambda s: np.where(s <= 1.0, lo * s ** (lo - 1.0), hi * s ** (hi - 1.0))
    return YoungFunction(family, params, ev, iv, dv)


def _alpha_exponent(n: int, alpha: float) -> float:
    if not (0 < alpha < 2):
        raise ValueError("alpha must lie in (0, 2)")
    return n / (n - alpha / 2.0)


def _log_family(n: int, alpha: float, q: float, plus: bool, lam: float) -> YoungFunction:
    P = _alpha_exponent(n, alpha)

    if plus:
        def g(s):
            return s * np.log(lam + s) ** q

        def gprime(s):
            L = np.log(lam + s)
            return L ** q + q * s * L ** (q - 1.0) / (lam + s)
    else:
        def g(s):
            with np.errstate(divide="ignore"):
                L = np.log(lam + np.where(s > 0, 1.0 / s, INF))
            return np.where(s > 0, s * L ** q, 0.0)

        def gprime(s):
            L = np.log(lam + 1.0 / s)
            return L ** q - q * L ** (q - 1.0) / (s * lam + 1.0)

    def ev(s):
        s = np.asarray(s, dtype=float)
        out = np.where(s > 0, g(np.maximum(s, 1e-300)) ** P, 0.0)
        return out

    def dv(s):
        s = np.asarray(s, dtype=float)
        s = np.maximum(s, 1e-300)
        return P * g(s) ** (P - 1.0) * gprime(s)

    def iv(r):
        if r <= 0:
            return 0.0
        if math.isinf(r):
            return INF
        return inv_increasing(lambda s: float(ev(s)), r)

    fam = "log_plus" if plus else "log_minus"
    return YoungFunction(fam, {"n": n, "alpha": alpha, "q": q, "lambda": lam}, ev, iv, dv)


def young_is_valid(N: YoungFunction, lo=1e-8, hi=1e8, points=400, tol=1e-9):
    """Grid check: N(0)=0, increasing, midpoint-convex on a log grid.

    Min-type branch families carry a declared crossover in params["kink"];
    the single interval containing it is exempt from the midpoint test,
    since the pointwise minimum of two powers has a concave corner there
    (it is a Young function up to the usual convexification, and every
    quantity computed from it — gauge, inverse, left derivative, the
    derivative-ratio constant — is well-defined for the literal minimum).
    """
    if float(N(0.0)) != 0.0:
        return False, "N(0) != 0"
    s = np.geomspace(lo, hi, points)
    v = np.asarray(N(s), dtype=float)
    finite = np.isfinite(v)
    if np.any(np.diff(v[finite]) < -tol * np.maximum(1.0, np.abs(v[finite][:-1]))):
        return False, "not increasing on the grid"
    mids = 0.5 * (s[:-1] + s[1:])
    vm = np.asarray(N(mids), dtype=float)
    avg = 0.5 * (v[:-1] + v[1:])
    ok = np.isfinite(avg)
    kink = N.params.get("kink")
    if kink is not None:
        ok &= ~((s[:-1] <= kink) & (kink <= s[1:]))
    bad = vm[ok] > avg[ok] + tol * np.maximum(1.0, np.abs(avg[ok]))
    if np.any(bad):
        k = int(np.argmax(bad))
        return False, f"midpoint convexity fails near s={mids[ok][k]:.3g}"
    return True, "ok"


def builtin(name: str, **params) -> YoungFunction:
    """Family registry.

    power(p); pow_min / pow_max(n, alpha1, alpha2); tilde(n, alpha);
    log_plus(n, alpha, q[, lam]); log_minus(n, alpha, q[, lam]).
    For the log families lambda starts at 2 and doubles until the grid
    convexity check passes; the chosen value is recorded in the tag.
    """
    if name == "power":
        return _power(params["p"])
    if name in ("pow_min", "pow_max"):
        n, a1, a2 = params["n"], params["alpha1"], params["alpha2"]
        p1, p2 = _alpha_exponent(n, a1), _alpha_exponent(n, a2)
        return _power_pair(p1, p2, name == "pow_min", name, dict(params, p1=p1, p2=p2))
    if name == "tilde":
        n, a = params["n"], params["alpha"]
        if n < 2:
            raise ValueError("tilde family needs n >= 2")
        p1, p2 = _alpha_exponent(n, a), n / (n - 1.0)
        return _power_pair(p1, p2, True, name, dict(params, p1=p1, p2=p2))
    if name in ("log_plus", "log_minus"):
        n, a, q = params["n"], params["alpha"], params["q"]
        lam = float(params.get("lam", 2.0))
        while True:
            N = _log_family(n, a, q, name == "log_plus", lam)
            ok, _ = young_is_valid(N)
            if ok:
                return N
            lam *= 2.0
            if lam > 2.0 ** 60:
                raise ValueError("no lambda makes this log family a Young function")
    raise KeyError(f"unknown Young family {name!r}")


def scale_young(N: YoungFunction, c: float) -> YoungFunction:
    """(cN)(s) = c * N(s)."""
    return YoungFunction(
        f"scaled[{N.family}]", dict(N.params, scale=c),
        lambda s: c * N._eval(np.asarray(s, dtype=float)),
        lambda r: N._inv(r / c),
        lambda s: c * N._deriv(np.asarray(s, dtype=float)),
    )


def tabulated_young(s_vals, n_vals, family="tabulated", params=None) -> YoungFunction:
    """Monotone log-log interpolation with end-slope extrapolation.

    Suited to numerically inverted profiles: concavity of the profile makes
    both ends nearly power-like, which log-log linear interpolation
    preserves along with positivity and monotonicity.
    """
    s = np.asarray(s_vals, dtype=float)
    v = np.asarray(n_vals, dtype=float)
    keep = (s > 0) & (v > 0) & np.isfinite(v)
    ls, lv = np.log(s[keep]), np.log(v[keep])
    lo_slope = (lv[1] - lv[0]) / (ls[1] - ls[0])
    hi_slope = (lv[-1] - lv[-2]) / (ls[-1] - ls[-2])

    def ev(x):
        x = np.asarray(x, dtype=float)
        lx = np.log(np.maximum(x, 1e-300))
        out = np.interp(lx, ls, lv)
        out = np.where(lx < ls[0], lv[0] + lo_slope * (lx - ls[0]), out)
        out = np.where(lx > ls[-1], lv[-1] + hi_slope * (lx - ls[-1]), out)
        with np.errstate(over="ignore"):
            return np.where(x > 0, np.exp(out), 0.0)

    def iv(r):
        if r <= 0:
            return 0.0
        if math.isinf(r):
            return INF
        lr = math.log(r)
        if lr < lv[0]:
            return math.exp(ls[0] + (lr - lv[0]) / lo_slope)
        if lr > lv[-1]:
            return math.exp(ls[-1] + (lr - lv[-1]) / hi_slope)
        return math.exp(np.interp(lr, lv, ls))

    def dv(x):
        x = np.asarray(x, dtype=float)
        lx = np.log(np.maximum(x, 1e-300))
        slopes = np.gradient(lv, ls)
        sl = np.interp(lx, ls, slopes)
        sl = np.where(lx < ls[0], lo_slope, sl)
        sl = np.where(lx > ls[-1], hi_slope, sl)
        return ev(x) * sl / np.maximum(x, 1e-300)

    return YoungFunction(family, params or {}, ev, iv, dv)


def piecewise_linear_young(knots_s, knots_v, cap=INF) -> YoungFunction:
    """Exact piecewise-linear Young function, +inf beyond ``cap``.

    knots must start at (0, 0); the last segment extrapolates linearly up to
    s = cap.  Left derivatives are the segment slopes, exactly.
    """
    ks = np.asarray(knots_s, dtype=float)
    kv = np.asarray(knots_v, dtype=float)
    slopes = np.diff(kv) / np.diff(ks)

    def ev(s):
        s = np.asarray(s, dtype=float)
        out = np.interp(s, ks, kv)
        beyond = s > ks[-1]
        out = np.where(beyond, kv[-1] + slopes[-1] * (s - ks[-1]), out)
        return np.where(s > cap, INF, out)

    def iv(r):
        if r <= 0:
            return 0.0
        if r <= kv[-1]:
            return float(np.interp(r, kv, ks))
        if slopes[-1] > 0:
            s = ks[-1] + (r - kv[-1]) / slopes[-1]
            return s if s <= cap else cap
        return cap

    def dv(s):
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(ks, s, side="left") - 1, 0, len(slopes) - 1)
        out = slopes[idx]
        return np.where(s > cap, INF, out)

    return YoungFunction("piecewise_linear", {"cap": cap}, ev, iv, dv)


# ---------------------------------------------------------------------------
# Orlicz gauge norm

def _gauge_search(G, rows, K: int, rtol: float) -> np.ndarray:
    """Per-row solution hi of G(r) = 1 for a nonincreasing mean G.

    G(idx, r) evaluates the rows ``idx`` at the radii ``r``.  Every row
    follows the same rules on its own: hi doubles from 1 until G(hi) <= 1
    (+inf when 2400 doublings do not bracket), lo halves from hi until
    G(lo) > 1 (0 once lo < 1e-300), then at most 200 geometric bisection
    steps until hi - lo <= rtol hi.  A row leaves ``idx`` when it stops, so
    each step evaluates G once on the rows still searching.  Rows outside
    ``rows`` are 0.
    """
    out = np.zeros(K)
    hi = np.ones(K)
    idx, bracketed = rows, [rows[:0]]
    for _ in range(2400):
        if not idx.size:
            break
        ok = G(idx, hi[idx]) <= 1.0
        bracketed.append(idx[ok])
        idx = idx[~ok]
        hi[idx] *= 2.0
    out[idx] = INF
    lo = hi.copy()
    idx, found = np.concatenate(bracketed), []
    for _ in range(2400):
        lo[idx] /= 2.0
        idx = idx[~(lo[idx] < 1e-300)]
        if not idx.size:
            break
        up = G(idx, lo[idx]) > 1.0
        found.append(idx[up])
        idx = idx[~up]
    idx = searching = np.concatenate(found + [idx])
    for _ in range(200):
        if not idx.size:
            break
        mid = np.sqrt(lo[idx] * hi[idx])
        below = G(idx, mid) <= 1.0
        hi[idx[below]] = mid[below]
        lo[idx[~below]] = mid[~below]
        idx = idx[~(hi[idx] - lo[idx] <= rtol * hi[idx])]
    out[searching] = hi[searching]
    return out


def orlicz_norm(model, N: YoungFunction, f, rtol=1e-10):
    """||f||_N over a finite space or any model exposing .integrate(fn).

    The mean G(r) = integral N(|f|/r) dmu is nonincreasing in r; the norm is
    located by geometric bracketing plus log bisection of G(r) = 1.  Returns
    +inf when no finite r works and 0 for f = 0.  On a finite space this is
    the one-row case of ``orlicz_norm_batch``.
    """
    if isinstance(model, FiniteMeasureSpace):
        return float(orlicz_norm_batch(model, N, np.asarray(f, dtype=float)[None], rtol)[0])

    def G(idx, r):
        return np.array([model.integrate(
            lambda x: np.asarray(N(np.abs(f(x)) / r[0]), dtype=float))])

    return float(_gauge_search(G, np.arange(1), 1, rtol)[0])


def orlicz_norm_batch(space: FiniteMeasureSpace, N: YoungFunction, F,
                      rtol=1e-10) -> np.ndarray:
    """Gauge norms of the rows of F: equal, bit for bit, to mapping
    ``orlicz_norm`` over the rows.

    Each row keeps its own bracket and stopping rule; each search step is one
    array evaluation of N on the rows still searching, which is what
    verification over large function families needs.
    """
    F = np.abs(np.asarray(F, dtype=float))
    mu = space.mu

    def G(idx, r):
        with np.errstate(over="ignore"):
            return np.sum(np.asarray(N(F[idx] / r[:, None]), dtype=float) * mu, axis=1)

    return _gauge_search(G, np.flatnonzero(F.max(axis=1, initial=0.0) != 0.0),
                         F.shape[0], rtol)


def stack_family(space: FiniteMeasureSpace, f_family) -> np.ndarray:
    """A function family as the rows of one float matrix (possibly empty)."""
    fam = np.array([np.asarray(f, dtype=float) for f in f_family])
    return fam if fam.size else np.zeros((0, space.m))


def l1_form_batch(space, kernel, gamma, F) -> np.ndarray:
    """l1_form of each row of F, sharing the pair-weight matrix."""
    g = gamma.gamma if hasattr(gamma, "gamma") else np.asarray(gamma, dtype=float)
    w = g * kernel.j * space.mu[:, None] * space.mu[None, :]
    F = np.asarray(F, dtype=float)
    return np.einsum("kij,ij->k", np.abs(F[:, :, None] - F[:, None, :]), w)


def indicator_norm(N: YoungFunction, mass: float) -> float:
    """Closed form ||1_A||_N = 1 / N^{-1}(1/mu(A))."""
    return ext_ratio(1.0, N.inv(1.0 / mass))


def c_N(N: YoungFunction, lo=1e-8, hi=1e8, points=400, refine=4) -> float:
    """inf over s of N(s) / (s N'_-(s)), by log grid with local refinement."""
    a, b, n = lo, hi, points
    best = INF
    for _ in range(refine + 1):
        s = np.geomspace(a, b, n)
        num = np.asarray(N(s), dtype=float)
        den = s * np.asarray(N.left_deriv(s), dtype=float)
        if np.any(den <= 0):
            raise ValueError("left derivative vanishes on (0, inf)")
        ratio = np.where(np.isfinite(num), num / den, INF)
        k = int(np.argmin(ratio))
        best = min(best, float(ratio[k]))
        a, b = s[max(k - 1, 0)], s[min(k + 1, n - 1)]
        n = 80
    return best


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


def domination(N1: YoungFunction, N2: YoungFunction, lo=1e-8, hi=1e8, points=241) -> dict:
    """Decide whether sup N1/N2 looks finite on a wide log grid.

    The grid sup is reported together with fitted log-log trends of the
    ratio at both ends; a growing trend at either end flags divergence with
    that end as witness.
    """
    s = np.geomspace(lo, hi, points)
    v1 = np.asarray(N1(s), dtype=float)
    v2 = np.asarray(N2(s), dtype=float)
    ratio = np.array([ext_ratio(a, b) for a, b in zip(v1, v2)])
    sup = float(np.max(ratio))
    witness = float(s[int(np.argmax(ratio))])
    verdict, wit_end = "dominated", None
    if math.isinf(sup):
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

    Requirements: h and s/h(s) both increasing (checked on a log grid), and
    the nested profile integral below finite.  ``family`` enables closed
    inner integrals for pure and two-branch powers.
    """

    h: object
    alpha: float
    n: int
    family: str = "generic"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 < self.alpha < 2):
            raise ValueError("alpha must lie in (0, 2)")

    def check(self, lo=1e-6, hi=1e6, points=200):
        s = np.geomspace(lo, hi, points)
        hv = np.asarray(self.h(s), dtype=float)
        if np.any(np.diff(hv) < -1e-12 * hv[:-1]):
            return False, "h not increasing"
        ratio = s / hv
        if np.any(np.diff(ratio) < -1e-12 * ratio[:-1]):
            return False, "s/h(s) not increasing"
        return True, "ok"


def power_profile(kappa: float, alpha: float, n: int, coeff: float = 1.0) -> ProfileH:
    return ProfileH(lambda r: coeff * np.asarray(r, dtype=float) ** kappa, alpha, n,
                    "power", {"kappa": kappa, "coeff": coeff})


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


def _power_piece(alpha, kappa, coeff, a, b):
    """Integral of r^{alpha-1} / (coeff r^kappa) over [a, b], closed form."""
    e = alpha - kappa
    if e <= 0:
        if a == 0.0:
            return INF
        if e == 0:
            return math.log(b / a) / coeff
        return (b ** e - a ** e) / (e * coeff)
    return (b ** e - a ** e) / (e * coeff)


def _inner_integral(profile: ProfileH, T: float) -> float:
    """integral_0^T r^{alpha-1} / h(r) dr."""
    a = profile.alpha
    if T <= 0:
        return 0.0
    if profile.family == "power":
        return _power_piece(a, profile.params["kappa"], profile.params["coeff"], 0.0, T)
    if profile.family == "power_pair":
        k1, k2 = profile.params["k1"], profile.params["k2"]
        lo_k, hi_k = (max(k1, k2), min(k1, k2)) if profile.params["min"] else (min(k1, k2), max(k1, k2))
        # branch below the crossover at 1 has exponent lo_k, above has hi_k
        if T <= 1.0:
            return _power_piece(a, lo_k, 1.0, 0.0, T)
        return _power_piece(a, lo_k, 1.0, 0.0, 1.0) + _power_piece(a, hi_k, 1.0, 1.0, T)
    pts, wts = gauss_segments(0.0, T, n_seg=40, nodes=16, geometric_to="left")
    vals = pts ** (a - 1.0) / np.asarray(profile.h(pts), dtype=float)
    out = float(np.dot(wts, vals))
    if not math.isfinite(out):
        raise ArithmeticError("inner profile integral diverges: profile outside the class")
    return out


def _outer_power(e: float, a: float, b: float) -> float:
    """Integral of t^{-e} over [a, b], requiring e < 1 at a = 0."""
    if e >= 1.0 and a == 0.0:
        return INF
    return (b ** (1.0 - e) - a ** (1.0 - e)) / (1.0 - e)


def _phi_power_closed(profile: ProfileH, s: float) -> float:
    """Exact nested integral for pure and two-branch power profiles.

    With T = t^{-1/n}, the inner integral is T^{a-k}/(a-k) below the branch
    crossover at r = 1 plus an explicit correction above it; both outer
    pieces are power integrals.
    """
    a, n = profile.alpha, profile.n
    if profile.family == "power":
        kappa, coeff = profile.params["kappa"], profile.params["coeff"]
        if a - kappa <= 0:
            raise ArithmeticError("divergent inner integral: profile outside the class")
        e = (a - kappa) / n
        return _outer_power(e, 0.0, s) / (coeff * (a - kappa))

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
    pts, wts = gauss_segments(0.0, s, n_seg=60, nodes=20, geometric_to="left")
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
    head_pts, head_wts = gauss_segments(0.0, s_grid[0], 36, 12, geometric_to="left")
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


def invert_phi(profile: ProfileH, s_min=1e-10, s_max=1e10, points=400) -> YoungFunction:
    """N_h = Phi_h^{-1} as a tabulated Young function on a cached log grid."""
    s = np.geomspace(s_min, s_max, points)
    vals = phi_h_grid(profile, s)
    return tabulated_young(vals, s, family="inverted_profile",
                           params={"alpha": profile.alpha, "n": profile.n,
                                   "profile": profile.family})


# ---------------------------------------------------------------------------
# CSV round trip for tabulated functions

def young_to_csv(N: YoungFunction, s_grid) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["s", "N"])
    for s in s_grid:
        w.writerow([repr(float(s)), repr(float(N(s)))])
    return buf.getvalue()


def young_from_csv(text: str) -> YoungFunction:
    rows = list(csv.reader(io.StringIO(text)))
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return tabulated_young(data[:, 0], data[:, 1])
