"""Young-function calculus: built-in families, gauges and inverses.

A Young function here is convex, increasing, N(0) = 0, possibly taking the
value +inf.  Each instance carries vectorized evaluation, the generalized
inverse  N^{-1}(r) = inf{s : N(s) >= r},  and the left derivative; built-in
families keep closed forms wherever they exist and fall back to monotone
bisection otherwise.

The induced gauge norm is ||f||_N = inf{r > 0 : integral N(|f|/r) dmu <= 1},
with inf(empty) = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FiniteMeasureSpace
from .numerics import INF, ext_ratio, inv_increasing


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
    pick = np.minimum if use_min else np.maximum
    # s^p past the float range is +inf, N's value there: root searches on N reach it
    ev = np.errstate(over="ignore")(lambda s: pick(s ** p1, s ** p2))
    if use_min:
        # s^hi below the crossover at 1, s^lo above; concave corner at 1
        params = dict(params, kink=1.0)
        iv = lambda r: max(r ** (1.0 / p1), r ** (1.0 / p2))
        dv = lambda s: np.where(s <= 1.0, hi * s ** (hi - 1.0), lo * s ** (lo - 1.0))
    else:
        iv = lambda r: min(r ** (1.0 / p1), r ** (1.0 / p2))
        dv = lambda s: np.where(s <= 1.0, lo * s ** (lo - 1.0), hi * s ** (hi - 1.0))
    return YoungFunction(family, params, ev, iv, dv)


def _alpha_exponent(n: int, alpha: float) -> float:
    if not (0 < alpha < 2):
        raise ValueError("alpha must lie in (0, 2)")
    return n / (n - alpha / 2.0)


def _log_family(P: float, q: float, plus: bool, lam: float, family: str,
                params: dict) -> YoungFunction:
    """(s L(s)^q)^P with L(s) = log(lam + s) (plus) or log(lam + 1/s)."""
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

    return YoungFunction(family, params, ev, iv, dv)


def young_is_valid(N: YoungFunction, lo=1e-8, hi=1e8):
    """Grid check: N(0)=0, increasing, midpoint-convex on a 400-point log
    grid, each up to 1e-9 max(1, |N|).

    Min-type branch families carry a declared crossover in params["kink"];
    the single interval containing it is exempt from the midpoint test,
    since the pointwise minimum of two powers has a concave corner there
    (it is a Young function up to the usual convexification, and every
    quantity computed from it — gauge, inverse, left derivative, the
    derivative-ratio constant — is well-defined for the literal minimum).
    """
    if float(N(0.0)) != 0.0:
        return False, "N(0) != 0"
    tol = 1e-9
    s = np.geomspace(lo, hi, 400)
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

    Each family except tilde is, up to constants, N_h = Phi_h^{-1} of a
    kernel profile; the tests check domination both ways against
    ``invert_phi`` of ``tests/oracles.py``: power with p = n/(n - alpha/2)
    of power_profile(0, alpha/2, n); pow_min / pow_max of
    power_pair_profile(1 - alpha1/2, 1 - alpha2/2, use_min, 1, n) with
    use_min True / False; log_plus / log_minus of
    log_profile(alpha, n, q, 2, inverse_arg) with inverse_arg True / False.
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
        P = _alpha_exponent(n, a)
        while True:
            N = _log_family(P, q, name == "log_plus", lam, name,
                            {"n": n, "alpha": a, "q": q, "lambda": lam})
            ok, _ = young_is_valid(N)
            if ok:
                return N
            lam *= 2.0
            if lam > 2.0 ** 60:
                raise ValueError("no lambda makes this log family a Young function")
    raise KeyError(f"unknown Young family {name!r}")


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

def _gauge_search(G, rows, K: int) -> np.ndarray:
    """Per-row solution hi of G(r) = 1 for a nonincreasing mean G.

    G(idx, r) evaluates the rows ``idx`` at the radii ``r``.  Every row
    follows the same rules on its own: hi doubles from 1 until G(hi) <= 1
    (+inf when 2400 doublings do not bracket), lo halves from hi until
    G(lo) > 1 (0 once lo < 1e-300), then at most 200 geometric bisection
    steps until hi - lo <= 1e-10 hi.  A row leaves ``idx`` when it stops, so
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
        idx = idx[~(hi[idx] - lo[idx] <= 1e-10 * hi[idx])]
    out[searching] = hi[searching]
    return out


def orlicz_norm(space: FiniteMeasureSpace, N: YoungFunction, f):
    """||f||_N over a finite space: the one-row case of ``orlicz_norm_batch``.

    The mean G(r) = integral N(|f|/r) dmu is nonincreasing in r; the norm is
    located by geometric bracketing plus log bisection of G(r) = 1 to
    relative 1e-10.  Returns +inf when no finite r works and 0 for f = 0.
    """
    return float(orlicz_norm_batch(space, N, np.asarray(f, dtype=float)[None])[0])


def orlicz_norm_batch(space: FiniteMeasureSpace, N: YoungFunction, F) -> np.ndarray:
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
                         F.shape[0])


def gauge_slacks(space: FiniteMeasureSpace, N: YoungFunction, F, bracket,
                 C: float) -> dict:
    """Slacks C B(f) - ||f||_N of a gauge inequality over the rows f of F.

    The norms come from one ``orlicz_norm_batch`` call; ``bracket`` maps one
    row to its right-hand bracket B(f) (an L1 form, possibly plus a killing
    term) and runs once per row.  Returns the slack vector, the worst slack
    and its witness row (the first minimum, or +inf and None for no rows),
    and the empirical constant sup ||f||_N / B(f): +inf when some row has
    B = 0 < ||f||_N, rows with B = ||f||_N = 0 are skipped, and 0 when no
    row counts.
    """
    norms = orlicz_norm_batch(space, N, F)
    B = np.array([bracket(f) for f in F], dtype=float)
    S = C * B - norms
    worst, witness = INF, None
    if S.size:
        witness = int(np.argmin(S))
        worst = float(S[witness])
    pos = B > 0
    const = INF if np.any(~pos & (norms > 0)) else \
        float(np.max(norms[pos] / B[pos], initial=0.0))
    return {"slacks": S, "worst_slack": worst, "witness": witness, "constant": const}


def stack_family(space: FiniteMeasureSpace, f_family) -> np.ndarray:
    """A function family as the rows of one float matrix (possibly empty)."""
    fam = np.array([np.asarray(f, dtype=float) for f in f_family])
    return fam if fam.size else np.zeros((0, space.m))


def indicator_norm(N: YoungFunction, mass: float) -> float:
    """Closed form ||1_A||_N = 1 / N^{-1}(1/mu(A))."""
    return ext_ratio(1.0, N.inv(1.0 / mass))


def c_N(N: YoungFunction) -> float:
    """inf over s of N(s) / (s N'_-(s)), by a 400-point log grid on
    [1e-8, 1e8] and four 80-point refinements around the grid minimum."""
    a, b, n = 1e-8, 1e8, 400
    best = INF
    for _ in range(5):
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
