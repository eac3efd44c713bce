"""Exact isoperimetric profiles by subset enumeration, plus the L1-form
equivalence verifiers.

The profile enumerates every nonempty proper subset A of a finite space and
records its mass and its weighted boundary flow

    flow(A) = sum_{x in A, y not in A} gamma(x,y) j(x,y) mu(x) mu(y).

The isoperimetric curve is kappa(s) = inf{flow(A)/mu(A) : mu(A) in (0, s)}
with a strict mass inequality and inf(empty) = inf.  Enumeration uses an
incremental doubling recursion (adding one point doubles the mask set and
updates all flows in one vectorized pass, the new point's weights to the
placed points summed over every subset by doubling too): O(2^m) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (FiniteMeasureSpace, JumpKernel, ValidationError,
                   WeightFunction, l1_form, rate_slacks)
from .numerics import INF, ext_ratio, first_min
from .young import (YoungFunction, c_N, gauge_slacks, indicator_norm,
                    stack_family)

ENUM_LIMIT = 24


def _pair_weights(space, kernel, gamma) -> np.ndarray:
    g = gamma.gamma if isinstance(gamma, WeightFunction) else np.asarray(gamma, dtype=float)
    return g * kernel.j * space.mu[:, None] * space.mu[None, :]


@dataclass
class IsoperimetricProfile:
    """All (mass, flow) pairs of proper subsets plus derived step curves."""

    space: FiniteMeasureSpace
    masses: np.ndarray          # per enumerated subset
    flows: np.ndarray
    masks: np.ndarray           # bitmasks, aligned with masses/flows
    # sorted views
    sorted_masses: np.ndarray = field(init=False)
    sorted_flows: np.ndarray = field(init=False)
    sorted_masks: np.ndarray = field(init=False)
    runmin_ratio: np.ndarray = field(init=False)

    def __post_init__(self):
        order = np.lexsort((self.masks, self.masses))
        self.sorted_masses = self.masses[order]
        self.sorted_flows = self.flows[order]
        self.sorted_masks = self.masks[order]
        self.runmin_ratio = np.minimum.accumulate(self.sorted_flows / self.sorted_masses)

    def kappa(self, s):
        """inf{flow/mass : mass < s} at each s; +inf where no subset
        qualifies.  A float gives a float, an array an array."""
        idx = np.searchsorted(self.sorted_masses, s, side="left")
        kap = np.concatenate(([INF], self.runmin_ratio))[idx]
        return float(kap) if np.ndim(kap) == 0 else kap

    def kappa_steps(self):
        """Distinct masses M_j and kappa values on (M_j, M_{j+1}].

        Returns (levels, kappas) where kappa(u) = kappas[j] for
        u in (levels[j], levels[j+1]] and +inf for u <= levels[0].
        """
        levels = np.unique(self.sorted_masses)
        # running min over all entries with mass <= level
        idx = np.searchsorted(self.sorted_masses, levels, side="right") - 1
        return levels, self.runmin_ratio[idx]

    def global_min_ratio(self) -> float:
        return float(self.runmin_ratio[-1])

    def min_witness(self, s: float = INF):
        """Lexicographically smallest mask attaining kappa(s)."""
        idx = int(np.searchsorted(self.sorted_masses, s, side="left"))
        if idx == 0:
            return None
        ratios = self.sorted_flows[:idx] / self.sorted_masses[:idx]
        best = ratios.min()
        tie = np.flatnonzero(ratios == best)
        return int(self.sorted_masks[tie[np.argmin(self.sorted_masks[tie])]])

    def to_csv(self) -> str:
        lines = ["mass,flow,mask_hex"]
        for mass, flow, mask in zip(self.sorted_masses, self.sorted_flows, self.sorted_masks):
            lines.append(f"{float(mass)!r},{float(flow)!r},{int(mask):x}")
        return "\n".join(lines) + "\n"


def _subset_sums(values):
    """Sum of ``values`` over every subset, indexed by bitmask, by doubling."""
    out = np.zeros(1 << len(values))
    for i, v in enumerate(values):
        size = 1 << i
        out[size:2 * size] = out[:size] + v
    return out


def _doubling_enumeration(mu, w):
    """Masses and boundary flows of all 2^m subsets, by point-at-a-time
    doubling: adding point t contributes w[t, k] for every already-placed k
    on the other side of the cut."""
    flows = np.zeros(1)
    for t in range(len(mu)):
        inside = _subset_sums(w[t, :t])
        total = float(w[t, :t].sum())
        flows = np.concatenate([flows + inside, flows + (total - inside)])
    return _subset_sums(mu), flows


def enumerate_profile(space: FiniteMeasureSpace, kernel: JumpKernel,
                      gamma=None) -> IsoperimetricProfile:
    """Visit all 2^m - 2 nonempty proper subsets exactly."""
    m = space.m
    if m > ENUM_LIMIT:
        raise ValidationError(f"exact enumeration needs m <= {ENUM_LIMIT} points "
                              f"(ENUM_LIMIT), got m={m}")
    gamma = gamma if gamma is not None else WeightFunction.ones(m)
    w = _pair_weights(space, kernel, gamma)
    masses, flows = _doubling_enumeration(space.mu, w)
    masks = np.arange(1 << m, dtype=np.int64)
    keep = slice(1, (1 << m) - 1)
    return IsoperimetricProfile(space, masses[keep], np.maximum(flows[keep], 0.0),
                                masks[keep])


def pareto_front(masses, brackets):
    """The (mass up, bracket down) Pareto front of a subset scan: per
    distinct mass the least bracket, kept where every larger mass has a
    strictly larger least bracket.  Returns the front's masses (ascending)
    and brackets."""
    levels, level = np.unique(masses, return_inverse=True)
    least = np.full(len(levels), INF)
    np.minimum.at(least, level, brackets)
    keep = least < np.minimum.accumulate(np.append(least, INF)[::-1])[::-1][1:]
    return levels[keep], least[keep]


def curve_slacks(profile: IsoperimetricProfile, s, bound) -> dict:
    """Slacks kappa(s) - bound(s) of a lower bound on the isoperimetric curve.

    ``bound`` runs once per grid point s, in order; a NaN bound marks a
    skipped point.  The slack is +inf there and wherever kappa(s) = +inf.
    Returns s with its kappa, bounds and slacks, the worst slack and its
    witness s (the first minimum; +inf and None when no slack is below
    +inf) and the skipped count.
    """
    s = np.asarray(s, dtype=float)
    b = np.array([bound(x) for x in s], dtype=float)
    kap = profile.kappa(s)
    skip = np.isnan(b)
    S = np.subtract(kap, b, out=np.full_like(kap, INF), where=~(skip | np.isinf(kap)))
    worst, at = first_min(S)
    return {"s": s, "kappa": kap, "bound": b, "slacks": S, "worst_slack": worst,
            "witness": None if at is None else float(s[at[0]]), "skipped": int(np.sum(skip))}


def subset_rate_slacks(profile: IsoperimetricProfile, r_values, rate) -> dict:
    """Slacks 2 r flow(A) + beta(r) mu(A)^2 - mu(A) of a subset-form rate
    (or Poincare) inequality over every subset A and every r with r and
    beta(r) finite.  ``rate`` runs once per such r, in order, and each r
    scans one vector over the subsets, so memory stays O(2^m).  Returns the
    worst slack and its witness (mask, r) (the first minimum, r by r, then
    in sorted subset order; +inf and None when no r counts).
    """
    masses, flows = profile.sorted_masses, profile.sorted_flows
    sq = masses ** 2
    worst, witness = INF, None
    for r in r_values:
        if math.isinf(r):
            continue
        b = rate(r)
        if math.isinf(b):
            continue
        slack = 2.0 * r * flows + b * sq - masses
        k = int(np.argmin(slack))
        if slack[k] < worst:
            worst, witness = float(slack[k]), (int(profile.sorted_masks[k]), float(r))
    return {"worst_slack": worst, "witness": witness}


# ---------------------------------------------------------------------------
# two-way verifiers for the L1 Orlicz-Sobolev / isoperimetric equivalence

def indicator_front(N: YoungFunction, masses, brackets):
    """The one subset scan of indicator gauges: ||1_A||_N (closed form of
    ``indicator_norm``) and B(A) on the Pareto front of the subsets' masses
    and brackets B.  ||1_A||_N does not decrease in mu(A), so a subset off
    the front can neither raise sup ||1_A||_N / B(A) nor lower
    min C B(A) - ||1_A||_N; rounding keeps both orders."""
    levels, least = pareto_front(masses, brackets)
    return np.array([indicator_norm(N, mass) for mass in levels], dtype=float), least


def indicator_constant(norms, brackets) -> float:
    """sup ||1_A||_N / B(A) over the subsets of ``indicator_front``; 0 for
    no subset."""
    return float(max([0.0] + [ext_ratio(a, b) for a, b in zip(norms, brackets)]))


def indicator_gauge_constant(space, kernel, gamma, N,
                             profile=None) -> float:
    """sup over proper subsets of ||1_A||_N / l1(1_A), l1(1_A) = 2 flow(A)."""
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    return indicator_constant(*indicator_front(N, prof.sorted_masses,
                                               2.0 * prof.sorted_flows))


def kappa_orlicz(space, kernel, N: YoungFunction, gamma=None,
                 profile: IsoperimetricProfile | None = None) -> float:
    """Exact inf over proper subsets of N^{-1}(1/mu(A)) * flow(A), which is
    1/(2C) at the indicator gauge constant C: ||1_A||_N = 1/N^{-1}(1/mu(A))."""
    return ext_ratio(1.0, 2.0 * indicator_gauge_constant(space, kernel, gamma, N, profile))


def thm20_forward(space, kernel, N, f_family) -> dict:
    """L1 Orlicz-Sobolev at empirical C forces the subset constant >= 1/(2C).
    C runs over the family and every indicator, and the indicators alone give
    the subset constant (``kappa_orlicz``), so the slack is never negative."""
    ones = WeightFunction.ones(space.m)
    C_ind = indicator_gauge_constant(space, kernel, ones, N)
    sl = gauge_slacks(space, N, stack_family(space, f_family),   # constant ignores C
                      lambda f: l1_form(space, kernel, ones, f), 1.0)
    C = max(C_ind, sl["constant"])
    if C == 0.0:
        raise ValueError("degenerate family: empirical constant is zero")
    kap, bound = ext_ratio(1.0, 2.0 * C_ind), ext_ratio(1.0, 2.0 * C)
    return {"lhs": kap, "rhs": bound, "slack": kap - bound, "C_emp": C}


def thm20_backward(space, kernel, N, f_family, gamma=None, profile=None) -> dict:
    """Subset constant kappa gives the L1 inequality at C = 1/(2 c_N kappa).

    On finite total mass the layer-cake route only controls functions whose
    level sets are proper subsets, i.e. functions vanishing somewhere (the
    finite-model analog of compact support); supply such families.
    """
    gamma = gamma if gamma is not None else WeightFunction.ones(space.m)
    cN = c_N(N)
    kap = kappa_orlicz(space, kernel, N, gamma, profile)
    if cN <= 0 or kap <= 0:
        raise ValueError("backward direction needs c_N > 0 and kappa > 0")
    C = 1.0 / (2.0 * cN * kap)
    sl = gauge_slacks(space, N, stack_family(space, f_family),
                      lambda f: l1_form(space, kernel, gamma, f), C)
    return {"C": C, "c_N": cN, "kappa": kap,
            "worst_slack": sl["worst_slack"], "witness": sl["witness"]}


def thm20_poincare(space, kernel, C1, C2_tilde, tol=1e-9, f_family=None,
                   gamma=None, profile=None) -> dict:
    """Two-way link between the L1 Poincare form and its subset version.

    "subset": mu(A) <= 2 C1 flow-sum(A) + C2_tilde mu(A)^2 on every proper
    subset (the subset version inherits C2_tilde = C2).  "functional": where
    that premise holds (worst slack not below -tol), the functional form
    with C2 = 2 C2_tilde over f_family; None where it fails.  Each gives its
    worst slack and witness (a mask, a family row).
    """
    gamma = gamma if gamma is not None else WeightFunction.ones(space.m)
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    sub = subset_rate_slacks(prof, [C1], lambda r: C2_tilde)
    out = {"subset": {"worst_slack": sub["worst_slack"],
                      "witness": None if sub["witness"] is None else sub["witness"][0]},
           "functional": None}
    if sub["worst_slack"] < -tol:
        return out
    sl = rate_slacks(space, stack_family(space, [] if f_family is None else f_family),
                     lambda f: l1_form(space, kernel, gamma, f * f),
                     [C1], lambda r: 2.0 * C2_tilde)
    out["functional"] = {"worst_slack": sl["worst_slack"],
                         "witness": None if sl["witness"] is None else sl["witness"][0]}
    return out


def coarea_check(space, kernel, f_family, gamma=None, profile=None) -> dict:
    """The subset infimum bound l1(f)/mu(f) >= 2 inf flow/mass of the
    level-set (coarea) decomposition of the L1 form, on |f| for each family
    member f: the worst slack l1(f)/mu(f) - 2 inf flow/mass.  The bound
    needs proper level sets, so it holds for f that vanish somewhere; the
    others are skipped and counted."""
    gamma = gamma if gamma is not None else WeightFunction.ones(space.m)
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    fam = np.abs(stack_family(space, f_family))
    grounded = fam[fam.min(axis=1) == 0.0]
    mass = np.sum(grounded * space.mu, axis=1)
    ratio = np.array([l1_form(space, kernel, gamma, f) for f in grounded[mass > 0]],
                     dtype=float) / mass[mass > 0]
    floor = 2.0 * prof.global_min_ratio()
    return {"worst_slack": float(np.min(ratio - floor, initial=INF)),
            "skipped_unsupported": len(fam) - len(grounded)}
