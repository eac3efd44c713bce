import math

import numpy as np
import pytest

from jumpiso.core import FiniteMeasureSpace, JumpKernel, WeightFunction
from jumpiso.instances import random_functions, random_instance
from jumpiso.isoperimetry import _doubling_enumeration
from jumpiso.superpoincare import (_indicator_potential, _quadratic_matrix,
                                   certified_rate, lemma2_bound, rate_power,
                                   rate_power_pair, rate_tabulated,
                                   sp_decay_check, sp_estimate, sp_verify)


@pytest.fixture
def two_point():
    space = FiniteMeasureSpace([1.0, 1.0])
    kernel = JumpKernel(space, [[0.0, 3.0], [3.0, 0.0]])
    return space, kernel


def sweep_two_point(space, kernel, r):
    j = float(kernel.j[0, 1])
    ts = np.linspace(0.0, 1.0, 200001)
    best = -np.inf
    for sgn in (1.0, -1.0):
        a, b = ts, sgn * (1 - ts)
        q = a * a + b * b - r * j * (a - b) ** 2
        best = max(best, float(q.max()))
    return best


def sweep_three_point(space, kernel, r, n=600):
    """max of ||f||_2^2 - r E(f,f) over a barycentric grid of every signed
    face of the weighted L1 sphere (the sign of the last point fixed)."""
    mu, j = space.mu, kernel.j
    i, k = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = i + k <= n
    bary = np.stack([i[keep], k[keep], n - i[keep] - k[keep]], axis=1) / n
    best = -np.inf
    for s0 in (1.0, -1.0):
        for s1 in (1.0, -1.0):
            f = bary * np.array([s0, s1, 1.0]) / mu
            l2 = (f * f) @ mu
            diff = f[:, :, None] - f[:, None, :]
            energy = 0.5 * np.einsum("kxy,xy->k", diff ** 2,
                                     j * mu[:, None] * mu[None, :])
            best = max(best, float((l2 - r * energy).max()))
    return best


def test_estimate_matches_dense_sweep(two_point):
    space, kernel = two_point
    for r in (0.01, 0.05, 0.2, 1.0, 5.0):
        est = sp_estimate(space, kernel, r, seed=1)
        ref = sweep_two_point(space, kernel, r)
        assert est >= ref - 1e-9
        assert est == pytest.approx(ref, abs=1e-6)
    space = FiniteMeasureSpace([0.5, 1.0, 2.0])
    kernel = JumpKernel(space, [[0.0, 2.0, 0.3], [2.0, 0.0, 0.8],
                                [0.3, 0.8, 0.0]])
    for r in (0.01, 0.1, 0.3, 1.0, 10.0):
        est = sp_estimate(space, kernel, r, seed=1)
        ref = sweep_three_point(space, kernel, r)
        assert est >= ref - 1e-9
        assert est == pytest.approx(ref, rel=1e-3)


def reference_estimate(space, kernel, r, potential=None, seed=0):
    """The per-candidate loop estimator with projected gradient ascent on
    every space, kept as an independent reference for ``sp_estimate``."""
    m, mu = space.m, space.mu
    M = _quadratic_matrix(space, kernel, r, potential)
    cands = [np.eye(m)[i] for i in range(m)]
    best_ind = -np.inf
    if m <= 16:
        w = kernel.j * mu[:, None] * mu[None, :]
        masses, flows = _doubling_enumeration(mu, w)
        masks = np.arange(1 << m)
        keep = (masks > 0) & (masks < (1 << m) - 1)
        vals = np.zeros(1 << m)
        en = flows + (0.0 if potential is None else _indicator_potential(mu, potential, m))
        vals[keep] = (masses[keep] - r * en[keep]) / masses[keep] ** 2
        for mask in np.argsort(vals)[-8:]:
            sel = np.array([(int(mask) >> i) & 1 for i in range(m)], dtype=float)
            if 0 < sel.sum() < m:
                cands.append(sel)
        best_ind = float(vals[keep].max()) if keep.any() else -np.inf
    _, vecs = np.linalg.eigh(M)
    cands.extend(vecs[:, i] for i in range(m))

    def facet_points(support):
        k = len(support)
        signs = np.array([[1.0 if (p >> i) & 1 else -1.0 for i in range(k)]
                          for p in range(1 << (k - 1))])
        signs[:, -1] = 1.0
        B = (mu[support][None, :] * signs).T
        sub = M[np.ix_(support, support)]
        try:
            X = np.linalg.solve(sub, B)
        except np.linalg.LinAlgError:
            X, *_ = np.linalg.lstsq(sub, B, rcond=None)
        for col in range(X.shape[1]):
            f = np.zeros(m)
            f[support] = X[:, col]
            cands.append(f)

    if m <= 10:
        for mask in range(1, 1 << m):
            facet_points([i for i in range(m) if (mask >> i) & 1])
    elif m <= 16:
        facet_points(list(range(m)))

    best = best_ind
    for f in cands:
        nrm = float(np.sum(np.abs(f) * mu))
        if nrm > 0 and np.all(np.isfinite(f)):
            g = f / nrm
            best = max(best, float(g @ M @ g))

    rng = np.random.default_rng(seed)
    starts = [c for c in cands[:32] if np.any(c)]
    while len(starts) < 64:
        starts.append(rng.standard_normal(m))
    for f0 in starts:
        f = f0 / max(float(np.sum(np.abs(f0) * mu)), 1e-300)
        val = float(f @ M @ f)
        step = 0.1
        for _ in range(150):
            cand = f + step * 2.0 * (M @ f)
            nrm = float(np.sum(np.abs(cand) * mu))
            if nrm <= 0:
                break
            cand /= nrm
            cval = float(cand @ M @ cand)
            if cval > val:
                f, val = cand, cval
                step *= 1.3
            else:
                step *= 0.5
                if step < 1e-14:
                    break
        best = max(best, val)
    return best


@pytest.mark.parametrize("with_potential", [False, True])
def test_estimate_matches_reference(with_potential):
    for m in range(3, 13):
        seed = 100 + m
        space, kernel, _, pot = random_instance(seed, (m, m),
                                                with_potential=with_potential)
        for rm in np.geomspace(1e-12, 1e5, 6):
            r = rm / space.total_mass
            new = sp_estimate(space, kernel, r, pot, seed=seed)
            ref = reference_estimate(space, kernel, r, pot, seed=seed)
            M = _quadratic_matrix(space, kernel, r, pot)
            tol = 1e-14 * m * float(np.abs(M).max())
            assert abs(new - ref) <= tol, (m, rm, new, ref)
            if m <= 10:
                assert new >= ref - tol, (m, rm, new, ref)


def test_estimate_limits(two_point):
    space, kernel = two_point
    # r = 0: the point-mass extremizer gives 1/min mass
    assert sp_estimate(space, kernel, 0.0, seed=0) == pytest.approx(1.0, rel=1e-12)
    # very large r: constants survive, value approaches 1/total mass
    assert sp_estimate(space, kernel, 1e6, seed=0) == pytest.approx(0.5, rel=1e-9)


def test_estimate_monotone_in_r():
    space, kernel, _, _ = random_instance(0, (3, 8))
    vals = [sp_estimate(space, kernel, r, seed=0)
            for r in np.geomspace(1e-3, 1e3, 12)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_certified_rate_passes_fresh_family():
    rng = np.random.default_rng(10)
    for seed in range(6):
        space, kernel, _, pot = random_instance(seed, (3, 9),
                                                with_potential=(seed % 2 == 0))
        M = space.total_mass
        r_grid = np.geomspace(1e-3 / M, 1e3 / M, 18)
        beta = certified_rate(space, kernel, r_grid, potential=pot, seed=seed)
        fam = random_functions(rng, space.m, 500)
        rep = sp_verify(space, kernel, beta.scaled(1.0 + 1e-6), fam, r_grid,
                        potential=pot)
        assert rep["pass"], (seed, rep)


def test_sp_verify_constant_floor(two_point):
    space, kernel = two_point
    # beta below the 1/total-mass floor must be caught by a constant f
    bad = rate_power(0.25, 1e-6)
    fam = [np.ones(2)]
    rep = sp_verify(space, kernel, bad, fam, [1.0, 10.0])
    assert not rep["pass"]


def test_rate_tabulated_repair_and_inverse():
    r = [1.0, 2.0, 4.0, 8.0]
    beta = rate_tabulated(r, [4.0, 5.0, 2.0, 1.0])  # needs a repair at r=2
    assert beta.params["repaired"]
    assert beta(2.0) == 4.0
    assert beta(100.0) == 1.0
    assert beta.inv(10.0) == 0.0
    assert math.isinf(beta.inv(0.5))
    # left-continuous crossing inside a strictly decreasing segment
    val = beta.inv(3.0)
    assert beta(val) == pytest.approx(3.0, rel=1e-12)


def test_rate_family_inverses():
    beta = rate_power(2.0, 1.5)
    for u in (0.1, 1.0, 7.0):
        assert beta(beta.inv(u)) == pytest.approx(u, rel=1e-12)
    pair = rate_power_pair(3.0, 2.0, 0.5, use_max=True)
    for u in (0.2, 3.0, 40.0):
        assert pair(pair.inv(u)) == pytest.approx(u, rel=1e-9)


def test_decay_check_random_instances():
    rng = np.random.default_rng(11)
    for seed in range(4):
        space, kernel, _, _ = random_instance(seed, (3, 8))
        M = space.total_mass
        r_grid = np.geomspace(1e-2 / M, 1e2 / M, 6)
        beta = certified_rate(space, kernel, r_grid, seed=seed)
        fam = random_functions(rng, space.m, 30)
        rep = sp_decay_check(space, kernel, beta, fam,
                             t_grid=np.geomspace(1e-2, 20.0, 6), r_grid=r_grid)
        assert rep["pass"], (seed, rep)
        # t = 0 must be tight for the worst f
        rep0 = sp_decay_check(space, kernel, beta, fam[:5], [0.0], r_grid[:1],
                              subset_limit=0)
        assert rep0["worst_slack"] >= -1e-12


def test_lemma2_two_point_closed_form(two_point):
    space, kernel = two_point
    ones = WeightFunction.ones(2)
    j = 3.0
    # optimal rate: max(1 - rj, 1/2); certified table inflates by 1.01.
    # put the kink r = 1/(2j) on the grid so the table is exact everywhere
    r_grid = np.sort(np.append(np.geomspace(1e-4, 1e3, 40), 1.0 / (2.0 * j)))
    beta = certified_rate(space, kernel, r_grid, seed=0)
    for r in (0.01, 0.05, 0.1):
        assert beta(r) == pytest.approx(1.01 * max(1 - r * j, 0.5), rel=1e-6)
    rep = lemma2_bound(space, kernel, ones, beta, s_grid=[0.5, 0.8, 1.5, 1.9])
    assert rep["pass"]
    rows = {row["s"]: row for row in rep["rows"]}
    # at s = 0.8 the bound is computable in closed form and kappa is inf
    u = 1.0 / 1.6
    r_star = (1.01 - u) / (1.01 * j)
    theta_int = (1 - math.exp(-2 * j * r_star)) / j
    expected = (1 - math.exp(-1.0)) / (2 * theta_int)
    assert rows[0.8]["bound"] == pytest.approx(expected, rel=1e-3)
    assert math.isinf(rows[0.8]["kappa"])
    # beyond the covered zone the inverse degenerates and the point is skipped
    assert rows[1.9]["skipped"]


def test_lemma2_random_instances():
    for seed in range(6):
        space, kernel, gamma, _ = random_instance(seed, (3, 10), with_gamma=(seed % 2 == 0))
        M = space.total_mass
        r_grid = np.geomspace(1e-3 / M, 1e3 / M, 20)
        beta = certified_rate(space, kernel, r_grid, seed=seed)
        s_grid = np.geomspace(space.mu.min() * 1.05, 0.45 * M, 20)
        rep = lemma2_bound(space, kernel, gamma, beta, s_grid)
        assert rep["pass"], (seed, rep)
        assert rep["violations"] == 0


def test_lemma2_gamma_scaling_invariance():
    space, kernel, gamma, _ = random_instance(7, (4, 7), with_gamma=True)
    M = space.total_mass
    r_grid = np.geomspace(1e-3 / M, 1e3 / M, 16)
    beta = certified_rate(space, kernel, r_grid, seed=7)
    s_grid = np.geomspace(space.mu.min() * 1.1, 0.4 * M, 8)
    a = lemma2_bound(space, kernel, gamma, beta, s_grid)
    scaled = WeightFunction(5.0 * gamma.gamma)
    b = lemma2_bound(space, kernel, scaled, beta, s_grid)
    for ra, rb in zip(a["rows"], b["rows"]):
        if not ra["skipped"] and not math.isinf(ra["slack"]):
            assert rb["slack"] == pytest.approx(5.0 * ra["slack"], rel=1e-6)
