"""Exact isoperimetric profiles by subset enumeration, plus the L1-form
equivalence verifiers.

The profile enumerates every nonempty proper subset A of a finite space and
records its mass and its weighted boundary flow

    flow(A) = sum_{x in A, y not in A} gamma(x,y) j(x,y) mu(x) mu(y).

The isoperimetric curve is kappa(s) = inf{flow(A)/mu(A) : mu(A) in (0, s)}
with a strict mass inequality and inf(empty) = inf.  Enumeration uses an
incremental doubling recursion (adding one point doubles the mask set and
updates all flows in one vectorized pass), which is the vectorized
equivalent of Gray-code single-bit updates: O(m 2^m) work overall.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FiniteMeasureSpace, JumpKernel, WeightFunction, l1_form
from .numerics import INF, ext_ratio
from .young import (YoungFunction, c_N, indicator_norm, l1_form_batch,
                    orlicz_norm_batch, stack_family)

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
    exact: bool = True
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

    def kappa(self, s: float) -> float:
        """inf{flow/mass : mass < s}; +inf when no subset qualifies."""
        idx = int(np.searchsorted(self.sorted_masses, s, side="left"))
        if idx == 0:
            return INF
        return float(self.runmin_ratio[idx - 1])

    def kappa_steps(self):
        """Distinct masses M_j and kappa values on (M_j, M_{j+1}].

        Returns (levels, kappas) where kappa(u) = kappas[j] for
        u in (levels[j], levels[j+1]] and +inf for u <= levels[0].
        """
        levels, last = np.unique(self.sorted_masses, return_index=True)
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
        size = 1 << t
        masks = np.arange(size, dtype=np.int64)
        inside = np.zeros(size)
        for k in range(t):
            bit = (masks >> k) & 1
            inside += w[t, k] * bit
        total = float(w[t, :t].sum())
        flows = np.concatenate([flows + inside, flows + (total - inside)])
    return _subset_sums(mu), flows


def enumerate_profile(space: FiniteMeasureSpace, kernel: JumpKernel,
                      gamma=None) -> IsoperimetricProfile:
    """Visit all 2^m - 2 nonempty proper subsets exactly."""
    m = space.m
    if m > ENUM_LIMIT:
        raise ValueError(f"m={m} exceeds the exact enumeration limit {ENUM_LIMIT}; "
                         "use sampled_profile")
    gamma = gamma if gamma is not None else WeightFunction.ones(m)
    w = _pair_weights(space, kernel, gamma)
    masses, flows = _doubling_enumeration(space.mu, w)
    masks = np.arange(1 << m, dtype=np.int64)
    keep = slice(1, (1 << m) - 1)
    return IsoperimetricProfile(space, masses[keep], np.maximum(flows[keep], 0.0),
                                masks[keep], exact=True)


def sampled_profile(space, kernel, gamma=None, budget: int = 512,
                    seed: int = 0) -> IsoperimetricProfile:
    """Heuristic upper envelope of the profile for spaces too large to enumerate.

    Seeds with singletons and random subsets, then greedily toggles single
    points while the flow/mass ratio improves.  Every visited subset is
    recorded, so the resulting curve is a valid upper bound on kappa;
    deterministic for a fixed seed.
    """
    m = space.m
    gamma = gamma if gamma is not None else WeightFunction.ones(m)
    w = _pair_weights(space, kernel, gamma)
    rng = np.random.default_rng(seed)

    seen = {}

    def record(sel):
        key = sel.tobytes()
        if key in seen:
            return seen[key]
        mass = float(space.mu[sel].sum())
        flow = float(w[np.ix_(sel, ~sel)].sum())
        bit = 0
        for i in np.flatnonzero(sel):
            bit |= 1 << int(i)
        seen[key] = (mass, flow, bit)
        return seen[key]

    def local_search(sel):
        sel = sel.copy()
        mass, flow, _ = record(sel)
        improved = True
        while improved and 0 < sel.sum() < m:
            improved = False
            ratio = flow / mass
            for i in range(m):
                cand = sel.copy()
                cand[i] = ~cand[i]
                if not 0 < cand.sum() < m:
                    continue
                cm, cf, _ = record(cand)
                if cf / cm < ratio - 1e-15:
                    sel, mass, flow, ratio = cand, cm, cf, cf / cm
                    improved = True
                    break
        return sel

    for i in range(m):
        sel = np.zeros(m, dtype=bool)
        sel[i] = True
        local_search(sel)
    for _ in range(max(budget, 0)):
        sel = rng.random(m) < rng.uniform(0.1, 0.9)
        if not 0 < sel.sum() < m:
            continue
        local_search(sel)

    rows = np.array([[mass, flow, bit] for mass, flow, bit in seen.values()])
    return IsoperimetricProfile(space, rows[:, 0], rows[:, 1],
                                rows[:, 2].astype(np.int64), exact=False)


def kappa_orlicz(space, kernel, N: YoungFunction, gamma=None,
                 profile: IsoperimetricProfile | None = None) -> float:
    """Exact inf over proper subsets of N^{-1}(1/mu(A)) * flow(A).

    Only Pareto-minimal (mass up, flow down) subsets can attain the infimum
    because N^{-1}(1/mass) decreases in mass, so the staircase of running
    flow minima is scanned at its right endpoints.
    """
    prof = profile if profile is not None else enumerate_profile(space, kernel, gamma)
    masses, flows = prof.sorted_masses, prof.sorted_flows
    # per-distinct-mass minimal flows
    levels, start = np.unique(masses, return_index=True)
    group_min = np.minimum.reduceat(flows, start)
    # drop entries dominated by a larger mass with no larger flow
    suffix = np.minimum.accumulate(group_min[::-1])[::-1]
    keep = np.ones(len(levels), dtype=bool)
    keep[:-1] = group_min[:-1] < suffix[1:]
    best = INF
    for mass, flow in zip(levels[keep], group_min[keep]):
        val = float(flow) * N.inv(1.0 / float(mass))
        if val < best:
            best = val
        if best == 0.0:
            break
    return best


# ---------------------------------------------------------------------------
# two-way verifiers for the L1 Orlicz-Sobolev / isoperimetric equivalence

def empirical_l1_constant(space, kernel, N, f_family, gamma=None) -> float:
    """Best constant sup ||f||_N / l1_form(f) over family plus all indicators."""
    gamma = gamma if gamma is not None else WeightFunction.ones(space.m)
    best = 0.0
    prof = enumerate_profile(space, kernel, gamma)
    for mass, flow in zip(prof.sorted_masses, prof.sorted_flows):
        best = max(best, ext_ratio(indicator_norm(N, mass), 2.0 * flow))
    fam = stack_family(space, f_family)
    nums = orlicz_norm_batch(space, N, fam)
    denoms = l1_form_batch(space, kernel, gamma, fam)
    for num, denom in zip(nums, denoms):
        if denom > 0:
            best = max(best, float(num) / float(denom))
        elif num > 0:
            best = INF
    return best


def thm20_forward(space, kernel, N, f_family, gamma=None, tol=1e-9) -> dict:
    """L1 Orlicz-Sobolev at empirical C forces the subset constant >= 1/(2C)."""
    C = empirical_l1_constant(space, kernel, N, f_family, gamma)
    if C == 0.0:
        raise ValueError("degenerate family: empirical constant is zero")
    kap = kappa_orlicz(space, kernel, N, gamma)
    bound = ext_ratio(1.0, 2.0 * C)
    return {"claim": "subset constant >= 1/(2C)", "lhs": kap, "rhs": bound,
            "slack": kap - bound, "C_emp": C, "pass": kap >= bound - tol}


def thm20_backward(space, kernel, N, f_family, gamma=None, tol=1e-9) -> dict:
    """Subset constant kappa gives the L1 inequality at C = 1/(2 c_N kappa).

    On finite total mass the layer-cake route only controls functions whose
    level sets are proper subsets, i.e. functions vanishing somewhere (the
    finite-model analog of compact support); supply such families.
    """
    gamma = gamma if gamma is not None else WeightFunction.ones(space.m)
    cN = c_N(N)
    kap = kappa_orlicz(space, kernel, N, gamma)
    if cN <= 0 or kap <= 0:
        raise ValueError("backward direction needs c_N > 0 and kappa > 0")
    C = 1.0 / (2.0 * cN * kap)
    fam = stack_family(space, f_family)
    lhs = orlicz_norm_batch(space, N, fam)
    rhs = C * l1_form_batch(space, kernel, gamma, fam)
    slack = rhs - lhs
    witness = int(np.argmin(slack))
    worst = float(slack[witness])
    nviol = int(np.sum(slack < -tol))
    return {"claim": "||f||_N <= l1/(2 c_N kappa)", "C": C, "c_N": cN, "kappa": kap,
            "worst_slack": worst, "witness": witness, "violations": nviol,
            "pass": nviol == 0}


def thm20_poincare(space, kernel, C1, C2_tilde, mode: str, f_family=None,
                   gamma=None, tol=1e-9) -> dict:
    """Two-way link between the L1 Poincare form and its subset version.

    forward:  check mu(A) <= 2 C1 flow-sum(A) + C2_tilde mu(A)^2 on every
              proper subset (the subset version inherits C2_tilde = C2).
    backward: given subset constants, check the functional form with
              C2 = 2 C2_tilde over f_family.
    """
    gamma = gamma if gamma is not None else WeightFunction.ones(space.m)
    prof = enumerate_profile(space, kernel, gamma)
    if mode == "forward":
        lhs = prof.sorted_masses
        rhs = 2.0 * C1 * prof.sorted_flows + C2_tilde * prof.sorted_masses ** 2
        slack = rhs - lhs
        k = int(np.argmin(slack))
        return {"claim": "subset Poincare with C2_tilde = C2",
                "worst_slack": float(slack[k]),
                "witness": int(prof.sorted_masks[k]),
                "pass": bool(slack[k] >= -tol)}
    if mode != "backward":
        raise ValueError("mode must be forward or backward")
    # premise: subset inequality at (C1, C2_tilde); conclusion at C2 = 2 C2_tilde
    premise = prof.sorted_masses - 2.0 * C1 * prof.sorted_flows - C2_tilde * prof.sorted_masses ** 2
    if np.any(premise > tol):
        raise ValueError("subset inequality does not hold at the given constants")
    worst, witness, nviol = INF, None, 0
    for idx, f in enumerate(f_family or []):
        f = np.asarray(f, dtype=float)
        lhs = float(np.sum(f * f * space.mu))
        rhs = (C1 * l1_form(space, kernel, gamma, f * f)
               + 2.0 * C2_tilde * float(np.sum(np.abs(f) * space.mu)) ** 2)
        slack = rhs - lhs
        if slack < worst:
            worst, witness = slack, idx
        if slack < -tol:
            nviol += 1
    return {"claim": "functional Poincare with C2 = 2 C2_tilde",
            "worst_slack": worst, "witness": witness, "violations": nviol,
            "pass": nviol == 0}


def layer_cake_l1(space, kernel, gamma, f) -> float:
    """2 * integral over levels r of flow({f > r}), computed exactly."""
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


def coarea_check(space, kernel, f_family, gamma=None, tol=1e-9) -> dict:
    """Level-set decomposition of the L1 form and the subset infimum bound.

    The layer-cake identity is checked for every nonnegative f; the bound
    l1(f)/mu(f) >= 2 inf flow/mass only controls functions whose level sets
    are proper, i.e. f vanishing somewhere (the function form of the subset
    infimum quantifies over f supported inside a proper domain), so other
    family members are skipped for that part and counted.
    """
    gamma = gamma if gamma is not None else WeightFunction.ones(space.m)
    prof = enumerate_profile(space, kernel, gamma)
    floor = 2.0 * prof.global_min_ratio()
    worst_id, worst_ratio, nviol, unsupported = 0.0, INF, 0, 0
    for f in f_family:
        f = np.abs(np.asarray(f, dtype=float))
        direct = l1_form(space, kernel, gamma, f)
        cake = layer_cake_l1(space, kernel, gamma, f)
        err = abs(direct - cake) / max(1.0, abs(direct))
        worst_id = max(worst_id, err)
        if err > tol:
            nviol += 1
        if f.min() > 0.0:
            unsupported += 1
            continue
        mass = float(np.sum(f * space.mu))
        if mass > 0:
            worst_ratio = min(worst_ratio, direct / mass - floor)
            if direct / mass < floor - tol:
                nviol += 1
    # the minimizing indicator achieves the subset infimum
    witness = prof.min_witness()
    sel = np.array([(witness >> i) & 1 for i in range(space.m)], dtype=bool)
    ind = sel.astype(float)
    ind_gap = abs(l1_form(space, kernel, gamma, ind)
                  / float(np.sum(ind * space.mu)) - floor)
    return {"claim": "layer cake identity and subset infimum",
            "worst_identity_error": worst_id, "worst_ratio_slack": worst_ratio,
            "indicator_gap": ind_gap, "violations": nviol,
            "skipped_unsupported": unsupported,
            "pass": nviol == 0 and ind_gap <= tol}
