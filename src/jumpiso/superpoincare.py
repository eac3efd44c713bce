"""Super-Poincare rate functions: families, verification, certified estimation,
the exponential-decay equivalence, and the isoperimetric lower bound they buy.

A rate function is a decreasing beta: (0,inf) -> (0,inf); the inequality

    ||f||_2^2 <= r E(f,f) + beta(r) ||f||_1^2         for all r > 0

is what downstream theorem engines consume.  ``sp_estimate`` returns the
optimal rate at each r of an array, exact up to rounding, on spaces of at
most ``SIZE_LIMIT`` points (larger spaces are refused): one batched ``eigh``
per support size, then O(k^2) per support of k points and per r.  Validated
rates are always inflated optima, never raw ones; ``certified_rates`` builds
every table of one form from one factorization, held for that call only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .core import (KillingPotential, Semigroup, ValidationError, generator,
                   rate_slacks, schrodinger_energy)
from .isoperimetry import curve_slacks, enumerate_profile
from .numerics import INF, first_min, inv_decreasing, safe_pow
from .young import stack_family


@dataclass(frozen=True)
class RateFunction:
    """A rate beta with its generalized inverse; ``knots`` is the read-only
    (r, beta(r)) table of a tabulated rate and None for the other families."""

    family: str
    params: dict
    _eval: object = field(repr=False)
    _inv: object = field(repr=False)
    knots: tuple | None = field(default=None, repr=False, compare=False)

    def __call__(self, r: float) -> float:
        return self._eval(float(r))

    def inv(self, u: float) -> float:
        """Generalized inverse inf{s : beta(s) <= u}; inf(empty) = inf."""
        return self._inv(float(u))


def rate_power_pair(c: float, a: float, b: float, use_max: bool) -> RateFunction:
    if use_max:
        ev = lambda r: c * max(safe_pow(r, -a), safe_pow(r, -b))
        iv = lambda u: max(safe_pow(c / u, 1.0 / a), safe_pow(c / u, 1.0 / b)) if u > 0 else INF
        fam = "power_max"
    else:
        ev = lambda r: c * min(safe_pow(r, -a), safe_pow(r, -b))
        iv = lambda u: min(safe_pow(c / u, 1.0 / a), safe_pow(c / u, 1.0 / b)) if u > 0 else INF
        fam = "power_min"
    return RateFunction(fam, {"c": c, "a": a, "b": b}, ev, iv)


def rate_power_log(c: float, a: float, q: float, inverse_arg: bool) -> RateFunction:
    """beta(r) = c r^{-a} log(2 + r)^{-q}, or with r^{-1} inside the log."""
    if inverse_arg:
        ev = lambda r: c * safe_pow(r, -a) * safe_pow(math.log(2.0 + 1.0 / r), -q)
    else:
        ev = lambda r: c * safe_pow(r, -a) * safe_pow(math.log(2.0 + r), -q)
    fam = "power_log_inv" if inverse_arg else "power_log"
    return RateFunction(fam, {"c": c, "a": a, "q": q},
                        ev, lambda u: inv_decreasing(ev, u))


def rate_tabulated(r_grid, values, note: str | None = None) -> RateFunction:
    """Monotone table with constant extension on both sides.

    Values are repaired to be nonincreasing by a running minimum (recorded in
    the params when a repair actually changed something); the inverse follows
    the left-continuous convention inf{s : beta(s) <= u}.  The sorted,
    repaired table is the rate's ``knots``.
    """
    r = np.asarray(r_grid, dtype=float)
    v = np.asarray(values, dtype=float)
    order = np.argsort(r)
    r, v = r[order], v[order]
    repaired = np.minimum.accumulate(v)
    did_repair = bool(np.any(repaired < v))
    v = repaired
    r.setflags(write=False)
    v.setflags(write=False)

    def ev(x: float) -> float:
        if x <= r[0]:
            return float(v[0])
        if x >= r[-1]:
            return float(v[-1])
        return float(np.interp(x, r, v))

    def iv(u: float) -> float:
        if u >= v[0]:
            return 0.0
        if u < v[-1]:
            return INF
        # beta is nonincreasing piecewise linear; find the crossing
        idx = int(np.searchsorted(-v, -u, side="left"))
        idx = min(max(idx, 1), len(r) - 1)
        lo, hi, blo, bhi = r[idx - 1], r[idx], v[idx - 1], v[idx]
        if blo == bhi:
            return float(lo)
        return float(lo + (hi - lo) * (blo - u) / (blo - bhi))

    params = {"r_min": float(r[0]), "r_max": float(r[-1]), "repaired": did_repair}
    if note:
        params["note"] = note
    return RateFunction("tabulated", params, ev, iv, knots=(r, v))


# ---------------------------------------------------------------------------
# verification

def sp_verify(space, kernel, beta: RateFunction, f_family, r_grid,
              potential: KillingPotential | None = None) -> dict:
    """The rate inequality over every (f, r) pair: its worst slack and
    witness (row, r)."""
    sl = rate_slacks(space, stack_family(space, f_family),
                     lambda f: schrodinger_energy(space, kernel, potential, f),
                     r_grid, beta)
    return {"worst_slack": sl["worst_slack"], "witness": sl["witness"]}


# ---------------------------------------------------------------------------
# certified estimation of the optimal rate

SIZE_LIMIT = 16   # 2^m - 1 supports are factored; larger spaces are refused
INFLATE = 1.01    # margin of a certified rate over its estimates
CERTIFIED = f"inflated x{INFLATE} estimate"   # the note of a certified rate


def require_size(m: int) -> None:
    """Refuse an optimal rate on more than ``SIZE_LIMIT`` points."""
    if m > SIZE_LIMIT:
        raise ValidationError(f"optimal rate needs m <= {SIZE_LIMIT} points, got m={m}")


def _quadratic_matrix(space, kernel, r: float, potential=None) -> np.ndarray:
    D = np.diag(space.mu)
    M = D - r * (D @ generator(space, kernel, potential))
    return 0.5 * (M + M.T)


def _factors(space, kernel, potential):
    """Per support size, the supports S (rows) and lam, W of one batched
    ``eigh`` D_S^{-1/2} (DL)_SS D_S^{-1/2} = W diag(lam) W^T."""
    require_size(m := space.m)
    sq = np.sqrt(space.mu)
    DL = space.mu[:, None] * generator(space, kernel, potential)
    B = 0.5 * (DL + DL.T) / sq[:, None] / sq[None, :]
    for k in range(1, m + 1):
        S = np.fromiter(chain.from_iterable(combinations(range(m), k)), np.intp).reshape(-1, k)
        yield S, *np.linalg.eigh(B[S[:, :, None], S[:, None, :]])


def _optimum(space, kernel, potential, factors, rs):
    """The r-kernel: the best candidate of the supports in ``factors`` at
    each r of the 1-D array rs."""
    m, mu, sq = space.m, space.mu, np.sqrt(space.mu)
    Ms = [_quadratic_matrix(space, kernel, x, potential) for x in rs]
    best = np.full(len(rs), -INF)
    for S, lam, W in factors:
        c = np.einsum("sji,sj->si", W, sq[S])
        flat = S + m * np.arange(len(S))[:, None]   # where S sits in a (len(S), m) array
        for i, (x, M) in enumerate(zip(rs, Ms)):
            d = 1.0 - x * lam
            q = c / d if d.all() else np.where(   # M_SS(r) singular: x runs off along W
                (pole := (d == 0) & (c != 0)).any(1)[:, None], pole * c, c / np.where(d, d, 1.0))
            Y = np.einsum("sij,sj->si", W, q)
            keep = np.all(Y >= 0, axis=1) | np.all(Y <= 0, axis=1)
            F = np.zeros((len(S), m))
            F.ravel()[flat] = Y / sq[S]
            F = F[keep] / (F[keep] @ mu)[:, None]
            vals = np.einsum("ki,ki->k", F @ M, F)
            best[i] = max(best[i], np.max(vals, where=np.isfinite(vals), initial=-INF))
        del lam, W   # streamed factors: free them before the next eigh
    return best


def sp_estimate(space, kernel, r, potential=None):
    """The optimal rate at r (a float, or an array: one value per entry),
    max f^T M f = ||f||_2^2 - r (E(f,f) + killing) over sum mu |f| = 1.

    Off the diagonal M = D - r DL is >= 0, so the maximum is taken on the
    simplex {f >= 0, sum mu f = 1}, where a maximizer in the relative
    interior of the face over a support S solves M_SS f = lambda mu_S, with
    value lambda.  So the x of M_SS x = mu_S of one sign (negative when
    lambda < 0), normalized and scored exactly with M(r), are exhaustive
    candidates.  One batched ``eigh`` per support size, D_S^{-1/2} (DL)_SS
    D_S^{-1/2} = W diag(lam) W^T, gives every r at O(k^2) per support:
    sqrt(mu_S) x = W (W^T sqrt(mu_S) / (1 - r lam)); where 1 - r lam = 0
    the candidate is that column of W (lambda = 0), unless W^T sqrt(mu_S)
    is 0 there too and the term drops, as in a pseudo-inverse.  One size's
    factors are held at a time."""
    rs = np.asarray(r, dtype=float)
    if np.any(rs < 0):
        raise ValueError("r must be nonnegative")
    return _optimum(space, kernel, potential, _factors(space, kernel, potential),
                    rs.ravel()).reshape(rs.shape)[()]


def certified_rates(space, kernel, grids, potential=None) -> list:
    """The certified rate of one form on each r grid: the optimal rate raised
    by ``INFLATE`` (divided by it where negative), tabulated and extended
    constantly on both sides.  beta*(r) = sup_f (||f||_2^2 - r E(f,f)) /
    ||f||_1^2 is convex (a supremum of affine functions of r), so each chord
    lies above it.  The optimum at r = 0+ is appended on the left, and on the
    right, where the grid's end has not flattened onto the large-r floor,
    decades up to 12, kept up to the first where it flattens or is
    nonpositive (beta* is nonincreasing, on a killed form too).  The supports
    are factored once for every grid and decade, held for this call only."""
    factors = list(_factors(space, kernel, potential))
    stop = lambda e: e[-1] <= 0 or e[-2] - e[-1] <= 1e-6 * e[-1]
    rates = []
    for grid in grids:
        rs = np.array([float(grid[0]) * 1e-9] + [float(r) for r in grid])
        est = _optimum(space, kernel, potential, factors, rs)
        if not stop(est):
            decades = np.multiply.accumulate(np.append(rs[-1], np.full(12, 10.0)))[1:]
            rs = np.append(rs, decades)
            est = np.append(est, _optimum(space, kernel, potential, factors, decades))
            n = next((j for j in range(len(rs) - 11, len(rs)) if stop(est[:j])), len(rs))
            rs, est = rs[:n], est[:n]
        rates.append(rate_tabulated(rs, np.maximum(INFLATE * est, est / INFLATE),
                                    note=CERTIFIED))
    return rates


def certified_rate(space, kernel, r_grid, potential=None) -> RateFunction:
    """``certified_rates`` on one grid: its stretch reads the same factors."""
    return certified_rates(space, kernel, [r_grid], potential)[0]


# ---------------------------------------------------------------------------
# decay equivalence and the isoperimetric lower bound

def _decay_slabs(sg, F, mu, t_grid, rs, bpos):
    """Slacks ||f||_2^2 e^{-2t/r} + beta+(r) ||f||_1^2 (1 - e^{-2t/r}) - ||P_t f||_2^2
    of the rows f of F, one (r, rows) slab per t in turn, with beta+ =
    max(beta, 0) given per r.  The norms are taken once and P_t runs once
    per t, on the columns F^T; the rows run along the last axis, where
    numpy's loops are long."""
    X = np.ascontiguousarray(F.T)
    l2, l1sq = mu @ (X * X), (mu @ np.abs(X)) ** 2
    for t in t_grid:
        PX = sg.matrix(t) @ X
        decay = np.array([[math.exp(-2.0 * t / r)] for r in rs])
        yield (l2 * decay + bpos[:, None] * l1sq * (1.0 - decay)
               - np.einsum("im,i->m", PX * PX, mu))


def sp_decay_check(space, kernel, beta: RateFunction, f_family, t_grid, r_grid,
                   potential=None) -> dict:
    """The rate inequality in exponential-decay form.

    Checks ||P_t f||_2^2 <= ||f||_2^2 e^{-2t/r} + beta(r) ||f||_1^2 (1 - e^{-2t/r})
    for all (f, t, r), and on spaces of at most ``SIZE_LIMIT`` points at
    f = 1_A and time t/2 for every proper subset A (||1_A||_2^2 = mu(A) =
    ||1_A||_1, e^{-2 (t/2)/r} = e^{-t/r}), one t at a time, in O(2^m |r|)
    memory.  A negative rate value (killed forms can have one) enters as 0,
    still a valid rate: the decay form needs beta >= 0, as its right side
    tends to beta ||f||_1^2.  Returns the worst slack and its witness, the
    first minimum in (f, t, r) order, then over the subsets t by t and r by
    r, with the t of the grid.
    """
    sg = Semigroup(space, kernel, potential)
    rs = [float(r) for r in r_grid]
    bpos = np.array([max(beta(r), 0.0) for r in rs])
    F = stack_family(space, f_family)
    S = np.reshape(list(_decay_slabs(sg, F, space.mu, t_grid, rs, bpos)),
                   (len(t_grid), len(rs), len(F)))
    worst, at = first_min(S.transpose(2, 0, 1))
    witness = None if at is None else ("f", int(at[0]), float(t_grid[at[1]]), rs[at[2]])
    if (m := space.m) <= SIZE_LIMIT:
        masks = np.arange(1, (1 << m) - 1)
        ind = ((masks[:, None] >> np.arange(m)) & 1).astype(float)
        halves = _decay_slabs(sg, ind, space.mu, [t / 2.0 for t in t_grid], rs, bpos)
        for t, S in zip(t_grid, halves):
            slack, at = first_min(S)   # r by r, then over the subsets
            if slack < worst:
                worst, witness = slack, ("subset", int(masks[at[1]]), float(t), rs[at[0]])
    return {"worst_slack": worst, "witness": witness}


def lemma2_bound(space, kernel, gamma, beta: RateFunction, s_grid,
                 potential=None, profile=None, theta=None) -> dict:
    """Buser-type lower bound on the isoperimetric curve from a valid rate.

    For each s with finite beta^{-1}(1/(2s)) the exact enumerated kappa(s) is
    compared against (1 - e^{-1}) / (2 Theta(beta^{-1}(1/(2s)))); the other
    grid points are skipped with a note, since the bound degenerates there.
    ``theta`` is the form's ``Semigroup.theta_curve(gamma)``, built when None.
    """
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    theta_int, _ = theta or Semigroup(space, kernel, potential).theta_curve(gamma)
    s_grid = np.asarray(s_grid, dtype=float)
    b = np.array([beta.inv(1.0 / (2.0 * s)) for s in s_grid])
    live = ~np.isinf(b)
    theta_val = np.full(len(b), math.nan)
    theta_val[live] = theta_int.moments(b[live])[0]   # one stacked Theta call
    bounds = np.divide(1.0 - math.exp(-1.0), 2.0 * theta_val,
                       out=np.where(live, INF, math.nan), where=theta_val > 0)
    curve = curve_slacks(prof, s_grid, dict(zip(s_grid, bounds)).__getitem__)
    rows = [{"s": float(s), "skipped": True, "note": "beta inverse infinite at 1/(2s)"}
            if math.isnan(b) else {"s": float(s), "kappa": float(k), "bound": float(b),
                                   "slack": float(sl), "skipped": False}
            for s, k, b, sl in zip(curve["s"], curve["kappa"], curve["bound"], curve["slacks"])]
    return {"rows": rows, "worst_slack": curve["worst_slack"], "skipped": curve["skipped"]}
