"""Super-Poincare rate functions: families, verification, certified estimation,
the exponential-decay equivalence, and the isoperimetric lower bound they buy.

A rate function is a decreasing beta: (0,inf) -> (0,inf); the inequality

    ||f||_2^2 <= r E(f,f) + beta(r) ||f||_1^2         for all r > 0

is what downstream theorem engines consume.  ``sp_estimate`` returns the
optimal rate at a given r, exact up to rounding, on spaces of at most
``SIZE_LIMIT`` points; larger spaces are refused.  Validated rates are always
inflated optima, never raw ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (KillingPotential, Semigroup, ValidationError, generator,
                   schrodinger_energy)
from .isoperimetry import enumerate_profile
from .numerics import INF, inv_decreasing, safe_pow


@dataclass(frozen=True)
class RateFunction:
    family: str
    params: dict
    _eval: object = field(repr=False)
    _inv: object = field(repr=False)

    def __call__(self, r: float) -> float:
        return self._eval(float(r))

    def inv(self, u: float) -> float:
        """Generalized inverse inf{s : beta(s) <= u}; inf(empty) = inf."""
        return self._inv(float(u))

    def scaled(self, factor: float) -> "RateFunction":
        return RateFunction(
            f"scaled[{self.family}]", dict(self.params, scale=factor),
            lambda r: factor * self._eval(r),
            lambda u: self._inv(u / factor),
        )


def rate_power(c: float, a: float) -> RateFunction:
    """beta(r) = c r^{-a}; a = 0 degenerates to the constant rate."""
    if a == 0.0:
        return RateFunction("power", {"c": c, "a": 0.0}, lambda r: c,
                            lambda u: 0.0 if u >= c else INF)
    return RateFunction("power", {"c": c, "a": a},
                        lambda r: c * safe_pow(r, -a),
                        lambda u: safe_pow(c / u, 1.0 / a) if u > 0 else INF)


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
    the left-continuous convention inf{s : beta(s) <= u}.
    """
    r = np.asarray(r_grid, dtype=float)
    v = np.asarray(values, dtype=float)
    order = np.argsort(r)
    r, v = r[order], v[order]
    repaired = np.minimum.accumulate(v)
    did_repair = bool(np.any(repaired < v))
    v = repaired

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
    return RateFunction("tabulated", params, ev, iv)


# ---------------------------------------------------------------------------
# verification

def sp_verify(space, kernel, beta: RateFunction, f_family, r_grid,
              potential: KillingPotential | None = None, tol=1e-9) -> dict:
    """Check the rate inequality for every (f, r) pair; report worst slack."""
    worst, witness, nviol = INF, None, 0
    for fi, f in enumerate(f_family):
        f = np.asarray(f, dtype=float)
        l2 = float(np.sum(f * f * space.mu))
        l1sq = float(np.sum(np.abs(f) * space.mu)) ** 2
        en = schrodinger_energy(space, kernel, potential, f)
        for r in r_grid:
            slack = r * en + beta(r) * l1sq - l2
            if slack < worst:
                worst, witness = slack, (fi, float(r))
            if slack < -tol:
                nviol += 1
    return {"claim": "super-Poincare inequality", "worst_slack": worst,
            "witness": witness, "violations": nviol, "pass": nviol == 0}


# ---------------------------------------------------------------------------
# certified estimation of the optimal rate

SIZE_LIMIT = 16   # 2^m - 1 supports are solved; larger spaces are refused
INFLATE = 1.01    # margin of a certified rate over its estimates


def require_size(m: int) -> None:
    """Refuse an optimal rate on more than ``SIZE_LIMIT`` points."""
    if m > SIZE_LIMIT:
        raise ValidationError(f"optimal rate needs m <= {SIZE_LIMIT} points, got m={m}")


def _quadratic_matrix(space, kernel, r: float, potential=None) -> np.ndarray:
    L = generator(space, kernel, potential)
    D = np.diag(space.mu)
    M = D - r * (D @ L)
    return 0.5 * (M + M.T)


def _solve_each(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solutions of A[i] x = B[i]; least squares on every system of a batch
    in which some block is singular."""
    try:
        return np.linalg.solve(A, B[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.stack([np.linalg.lstsq(a, b, rcond=None)[0]
                         for a, b in zip(A, B)])


def sp_estimate(space, kernel, r: float, potential=None) -> float:
    """The optimal rate at r: max of f^T M f over sum mu |f| = 1, where
    f^T M f = ||f||_2^2 - r (E(f,f) + killing), exact up to rounding.

    Off the diagonal M = D - r D L has entries r mu(x) j(x,y) mu(y) >= 0, so
    |f| scores at least as well as f and the maximum is taken on the simplex
    {f >= 0, sum mu f = 1}.  A maximizer in the relative interior of the face
    over a support S is stationary there: M_SS f = lambda mu_S, with value
    lambda.  So one solve of M_SS x = mu_S per support (batched by support
    size) is exhaustive; solutions of one sign are the candidates (lambda < 0
    under strong killing gives an all-negative x), each normalized and scored
    exactly.  Spaces above ``SIZE_LIMIT`` points are refused.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    m = space.m
    require_size(m)
    mu = space.mu
    M = _quadratic_matrix(space, kernel, r, potential)
    members = (np.arange(1, 1 << m)[:, None] >> np.arange(m)) & 1
    sizes = members.sum(axis=1)
    best = -INF
    for k in range(1, m + 1):
        S = np.nonzero(members[sizes == k])[1].reshape(-1, k)
        sub = M[S[:, :, None], S[:, None, :]]
        X = _solve_each(sub, mu[S])
        keep = np.all(X >= 0, axis=1) | np.all(X <= 0, axis=1)
        X = X[keep] / np.einsum("ki,ki->k", X[keep], mu[S[keep]])[:, None]
        vals = np.einsum("ki,kij,kj->k", X, sub[keep], X)
        vals = vals[np.isfinite(vals)]
        if vals.size:
            best = max(best, float(vals.max()))
    return best


def certified_rate(space, kernel, r_grid, potential=None) -> RateFunction:
    """The optimal rate on the grid inflated by ``INFLATE``, tabulated and
    extended constantly on both sides.

    The table stays valid between grid points: the optimal rate
    beta*(r) = sup_f (||f||_2^2 - r E(f,f)) / ||f||_1^2 is a supremum of
    affine functions of r, hence convex, so each chord of the table lies
    above it.  The constant extensions stay valid because the optimum at
    r = 0+ (the inverse smallest mass) is appended on the left and the grid
    is stretched right by decades until the estimate flattens onto its
    large-r floor.  Spaces above ``SIZE_LIMIT`` points are refused.
    """
    rs = [float(r_grid[0]) * 1e-9] + [float(r) for r in r_grid]
    est = [sp_estimate(space, kernel, r, potential) for r in rs]
    for _ in range(12):
        if est[-2] - est[-1] <= 1e-6 * est[-1]:
            break
        rs.append(rs[-1] * 10.0)
        est.append(sp_estimate(space, kernel, rs[-1], potential))
    return rate_tabulated(rs, [INFLATE * v for v in est],
                          note=f"inflated x{INFLATE} estimate")


# ---------------------------------------------------------------------------
# decay equivalence and the isoperimetric lower bound

def sp_decay_check(space, kernel, beta: RateFunction, f_family, t_grid, r_grid,
                   potential=None, tol=1e-9) -> dict:
    """The rate inequality in exponential-decay form.

    Checks ||P_t f||_2^2 <= ||f||_2^2 e^{-2t/r} + beta(r) ||f||_1^2 (1 - e^{-2t/r})
    for all (f, t, r), plus the same specialization for indicator functions of
    every proper subset (at half time) on spaces of at most ``SIZE_LIMIT`` points.
    """
    sg = Semigroup(space, kernel, potential)
    worst, witness, nviol = INF, None, 0
    for fi, f in enumerate(f_family):
        f = np.asarray(f, dtype=float)
        l2 = float(np.sum(f * f * space.mu))
        l1sq = float(np.sum(np.abs(f) * space.mu)) ** 2
        for t in t_grid:
            pf = sg.apply(t, f)
            lhs = float(np.sum(pf * pf * space.mu))
            for r in r_grid:
                decay = math.exp(-2.0 * t / r)
                slack = l2 * decay + beta(r) * l1sq * (1.0 - decay) - lhs
                if slack < worst:
                    worst, witness = slack, ("f", fi, float(t), float(r))
                if slack < -tol:
                    nviol += 1
    m = space.m
    if m <= SIZE_LIMIT:
        masks = np.arange(1, (1 << m) - 1)
        ind = ((masks[None, :] >> np.arange(m)[:, None]) & 1).astype(float)
        masses = space.mu @ ind
        for t in t_grid:
            P = sg.matrix(t / 2.0)
            half = P @ ind
            lhs = np.einsum("im,i->m", half * half, space.mu)
            for r in r_grid:
                decay = math.exp(-t / r)
                rhs = masses * decay + beta(r) * masses ** 2 * (1.0 - decay)
                slack = rhs - lhs
                k = int(np.argmin(slack))
                if slack[k] < worst:
                    worst, witness = float(slack[k]), ("subset", int(masks[k]), float(t), float(r))
                nviol += int(np.sum(slack < -tol))
    return {"claim": "decay form of the rate inequality", "worst_slack": worst,
            "witness": witness, "violations": nviol, "pass": nviol == 0}


def lemma2_bound(space, kernel, gamma, beta: RateFunction, s_grid,
                 potential=None, profile=None, theta_provider=None,
                 tol=1e-9) -> dict:
    """Buser-type lower bound on the isoperimetric curve from a valid rate.

    For each s with finite beta^{-1}(1/(2s)) the exact enumerated kappa(s) is
    compared against (1 - e^{-1}) / (2 Theta(beta^{-1}(1/(2s)))); the other
    grid points are skipped with a note, since the bound degenerates there.
    """
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    if theta_provider is None:
        sg = Semigroup(space, kernel, potential)
        theta_int, _ = sg.theta_curve(gamma)
    else:
        theta_int = theta_provider
    rows, skipped, nviol = [], 0, 0
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
        kap = prof.kappa(s)
        slack = INF if math.isinf(kap) else kap - bound
        if not math.isinf(slack):
            worst = min(worst, slack)
        if slack < -tol:
            nviol += 1
        rows.append({"s": float(s), "kappa": kap, "bound": bound, "slack": slack,
                     "skipped": False})
    return {"claim": "rate-to-isoperimetry lower bound", "rows": rows,
            "worst_slack": worst, "skipped": skipped, "violations": nviol,
            "pass": nviol == 0}
