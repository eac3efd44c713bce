"""Seeded random instances and test-function families.

Connectivity of generated support graphs is guaranteed by seeding a random
spanning tree before sprinkling extra edges; masses and rates are
log-uniform.  All generation is deterministic in the seed.
"""

from __future__ import annotations

import numpy as np

from .core import (FiniteMeasureSpace, JumpKernel, KillingPotential,
                   WeightFunction)


def random_space(rng, m: int) -> FiniteMeasureSpace:
    """Masses log-uniform on [0.1, 10]."""
    lo, hi = np.log(0.1), np.log(10.0)
    return FiniteMeasureSpace(np.exp(rng.uniform(lo, hi, size=m)))


def random_kernel(rng, space: FiniteMeasureSpace) -> JumpKernel:
    """Connected sparse symmetric kernel: spanning tree plus about half an
    extra edge per point, rates log-uniform on [0.1, 10]."""
    m = space.m
    j = np.zeros((m, m))
    lo, hi = np.log(0.1), np.log(10.0)
    order = rng.permutation(m)
    for k in range(1, m):
        a, b = order[k], order[rng.integers(0, k)]
        j[a, b] = j[b, a] = np.exp(rng.uniform(lo, hi))
    for a in range(m):
        for b in range(a + 1, m):
            if j[a, b] == 0 and rng.random() < 0.5 / max(m - 1, 1):
                j[a, b] = j[b, a] = np.exp(rng.uniform(lo, hi))
    return JumpKernel(space, j)


def random_gamma(rng, m: int) -> WeightFunction:
    """Symmetric weights, geometric means of log-uniform draws on [0.5, 2]."""
    lo, hi = np.log(0.5), np.log(2.0)
    g = np.exp(rng.uniform(lo, hi, size=(m, m)))
    g = np.sqrt(g * g.T)
    np.fill_diagonal(g, 1.0)
    return WeightFunction(g)


def random_potential(rng, m: int) -> KillingPotential:
    """Killing rates log-uniform on [0.1, 5] at about half the points (one
    at least), xi log-uniform on [0.5, 2]."""
    v_range = (0.1, 5.0)
    v = np.exp(rng.uniform(np.log(v_range[0]), np.log(v_range[1]), size=m))
    v *= rng.random(m) < 0.5
    if not np.any(v > 0):
        v[rng.integers(0, m)] = np.exp(rng.uniform(*np.log(v_range)))
    xi = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=m))
    return KillingPotential(v, xi)


def random_instance(seed: int, m_range=(3, 10), with_gamma: bool = False,
                    with_potential: bool = False):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    space = random_space(rng, m)
    kernel = random_kernel(rng, space)
    gamma = random_gamma(rng, m) if with_gamma else WeightFunction.ones(m)
    potential = random_potential(rng, m) if with_potential else None
    return space, kernel, gamma, potential


def random_functions(rng, m: int, count: int, grounded: bool = False):
    """Mixed family: gaussians, sparse vectors, indicator combinations.

    With ``grounded`` every function vanishes at one point at least, the
    finite-space analog of compact support.
    """
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            f = rng.standard_normal(m)
        elif kind == 1:
            f = rng.standard_normal(m) * (rng.random(m) < 0.5)
        elif kind == 2:
            f = (rng.random(m) < 0.5).astype(float)
        else:
            f = (rng.random(m) < 0.4).astype(float) - (rng.random(m) < 0.4)
        if not np.any(f):
            f = np.eye(m)[int(rng.integers(0, m))] * rng.standard_normal()
            if not np.any(f):
                f = np.eye(m)[0]
        if grounded and np.all(f != 0):
            f = f.copy()
            f[int(rng.integers(0, m))] = 0.0
            if not np.any(f):
                f = np.eye(m)[int(rng.integers(0, m))]
        out.append(f)
    return out


def small_support_functions(rng, space: FiniteMeasureSpace, cap_mass: float,
                            count: int):
    """Functions supported on random subsets of mass at most cap_mass."""
    m = space.m
    out = []
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        order = rng.permutation(m)
        sel = np.zeros(m, dtype=bool)
        total = 0.0
        for i in order:
            if total + space.mu[i] <= cap_mass:
                sel[i] = True
                total += space.mu[i]
            if rng.random() < 0.3:
                break
        if not sel.any():
            continue
        f = np.zeros(m)
        if rng.random() < 0.4:
            f[sel] = 1.0
        else:
            f[sel] = rng.standard_normal(int(sel.sum()))
        if np.any(f):
            out.append(f)
    return out

