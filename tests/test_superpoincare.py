import itertools
import math

import numpy as np
import pytest

from jumpiso.core import (FiniteMeasureSpace, JumpKernel, Semigroup,
                          ValidationError, WeightFunction, generator)
from jumpiso.instances import random_functions, random_instance
from jumpiso.isoperimetry import _doubling_enumeration, _subset_sums
from jumpiso.numerics import INF
from jumpiso.reports import TheoremReport
from jumpiso.superpoincare import (INFLATE, SIZE_LIMIT, RateFunction,
                                   _quadratic_matrix, certified_rate, certified_rates, lemma2_bound,
                                   rate_power_pair, rate_tabulated,
                                   sp_decay_check, sp_estimate, sp_verify)
from oracles import rate_power, scaled_rate


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
        est = sp_estimate(space, kernel, r)
        ref = sweep_two_point(space, kernel, r)
        assert est >= ref - 1e-9
        assert est == pytest.approx(ref, abs=1e-6)
    space = FiniteMeasureSpace([0.5, 1.0, 2.0])
    kernel = JumpKernel(space, [[0.0, 2.0, 0.3], [2.0, 0.0, 0.8],
                                [0.3, 0.8, 0.0]])
    for r in (0.01, 0.1, 0.3, 1.0, 10.0):
        est = sp_estimate(space, kernel, r)
        ref = sweep_three_point(space, kernel, r)
        assert est >= ref - 1e-9
        assert est == pytest.approx(ref, rel=1e-3)


def reference_estimate(space, kernel, r, potential=None, seed=0):
    """The per-candidate loop estimator with projected gradient ascent on
    every space, kept as an independent reference for ``sp_estimate``: exact
    for m <= 10, a lower bound above."""
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
        en = flows + (0.0 if potential is None else _subset_sums(potential.v * mu))
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
    """One array call per instance, each entry against the reference."""
    for m in range(3, 13):
        seed = 100 + m
        space, kernel, _, pot = random_instance(seed, (m, m),
                                                with_potential=with_potential)
        rms = np.geomspace(1e-12, 1e5, 6)
        news = sp_estimate(space, kernel, rms / space.total_mass, pot)
        assert news.shape == rms.shape
        for rm, new in zip(rms, news):
            r = rm / space.total_mass
            ref = reference_estimate(space, kernel, r, pot, seed=seed)
            M = _quadratic_matrix(space, kernel, r, pot)
            tol = 1e-14 * m * float(np.abs(M).max())
            assert new >= ref - tol, (m, rm, new, ref)
            if m <= 10:
                assert abs(new - ref) <= tol, (m, rm, new, ref)


def signed_facet_optimum(space, kernel, r, potential=None):
    """Max of f^T M f over the weighted L1 sphere and a maximizer, from the
    stationary points of every signed facet: every support, every sign
    pattern (the last sign fixed by f -> -f), each scored exactly.  Solves
    are batched over the supports of one size, about 2^20 numbers at once."""
    m, mu = space.m, space.mu
    M = _quadratic_matrix(space, kernel, r, potential)
    best, arg = -np.inf, None
    for k in range(1, m + 1):
        signs = np.where((np.arange(1 << (k - 1))[:, None] >> np.arange(k)) & 1,
                         1.0, -1.0)
        signs[:, -1] = 1.0
        supports = np.array(list(itertools.combinations(range(m), k)))
        step = max(1, (1 << 20) // signs.size)
        for S in np.array_split(supports, -(-len(supports) // step)):
            sub = M[S[:, :, None], S[:, None, :]]
            B = mu[S][:, :, None] * signs.T[None]
            try:
                X = np.linalg.inv(sub) @ B
            except np.linalg.LinAlgError:
                X = np.stack([np.linalg.lstsq(a, b, rcond=None)[0]
                              for a, b in zip(sub, B)])
            X = X / np.einsum("nk,nkp->np", mu[S], np.abs(X))[:, None, :]
            vals = np.einsum("nkp,nkp->np", X, sub @ X)
            n, p = np.unravel_index(int(np.argmax(vals)), vals.shape)
            if vals[n, p] > best:
                best, arg = float(vals[n, p]), np.zeros(m)
                arg[S[n]] = X[n, :, p]
    return best, arg


@pytest.mark.parametrize("with_potential", [False, True])
def test_estimate_equals_signed_facet_enumeration(with_potential):
    negative = False
    for m in range(3, 15):
        space, kernel, _, pot = random_instance(200 + m, (m, m),
                                                with_potential=with_potential)
        for rm in np.geomspace(1e-3, 1e3, 4):
            r = rm / space.total_mass
            new = sp_estimate(space, kernel, r, pot)
            ref, _ = signed_facet_optimum(space, kernel, r, pot)
            assert new == pytest.approx(ref, rel=1e-12, abs=0.0), (m, rm)
            negative |= ref < 0
    # under killing, large r pushes the optimum below zero: the all-negative
    # solutions of the support solve carry it
    assert negative == with_potential


@pytest.mark.parametrize("m", range(11, 15))
def test_certified_rate_dominates_exact_argmax(m):
    """On the grid of thm21_verify and at the geometric midpoints: the
    optimal rate is convex in r, so the table's chords stay above it."""
    space, kernel, _, _ = random_instance(1000 + m, (m, m))
    M = space.total_mass
    r_grid = np.geomspace(1e-3 / M, 1e3 / M, 25)
    beta = certified_rate(space, kernel, r_grid)
    mids = np.sqrt(r_grid[1:] * r_grid[:-1])
    for r in np.concatenate([r_grid, mids]):
        _, f = signed_facet_optimum(space, kernel, r)
        rep = sp_verify(space, kernel, beta, [f], [r])
        assert rep["worst_slack"] >= 0.0, (m, r, rep)


def reference_table(space, kernel, r_grid, potential=None):
    """certified_rate's table as one sp_estimate call per r built it: the
    grid, then one decade at a time up to 12 until the stop rule holds."""
    rs = [float(r_grid[0]) * 1e-9] + [float(r) for r in r_grid]
    est = [sp_estimate(space, kernel, r, potential) for r in rs]
    for _ in range(12):
        if est[-1] <= 0 or est[-2] - est[-1] <= 1e-6 * est[-1]:
            break
        rs.append(rs[-1] * 10.0)
        est.append(sp_estimate(space, kernel, rs[-1], potential))
    return rate_tabulated(rs, [max(INFLATE * v, v / INFLATE) for v in est]).knots


@pytest.mark.parametrize("with_potential", [False, True])
def test_stretched_table_equals_one_r_at_a_time(with_potential):
    """The grid call plus the 12-decade call, cut at the first decade where
    the stop rule holds, give the r and the values of the per-r loop."""
    lengths = set()
    for seed in range(8):
        space, kernel, _, pot = random_instance(seed, (3, 9), with_potential=with_potential)
        M = space.total_mass
        r_grid = np.geomspace(1e-3 / M, 1e2 / M, 10)
        got = certified_rate(space, kernel, r_grid, potential=pot).knots
        ref = reference_table(space, kernel, r_grid, potential=pot)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1]), seed
        lengths.add(len(got[0]) - 11)
    # the stretch ran on some instances and stopped before its 12 decades
    assert any(0 < n < 12 for n in lengths), lengths


@pytest.mark.parametrize("with_potential", [False, True])
def test_certified_rates_equal_one_table_per_grid(with_potential):
    """One certified_rates call on three grids of a form gives each grid the
    r and the values of its per-r loop, bit for bit: the first grid ends
    early and stretches, the third reaches the large-r floor and does not."""
    for seed in range(6):
        space, kernel, _, pot = random_instance(seed, (3, 9), with_potential=with_potential)
        M = space.total_mass
        grids = [np.geomspace(1e-3 / M, 1e-1 / M, 6), np.geomspace(1e-3 / M, 1e2 / M, 10),
                 np.geomspace(1e-3 / M, 1e6 / M, 25)]
        stretched = []
        for grid, got in zip(grids, certified_rates(space, kernel, grids, potential=pot)):
            ref = reference_table(space, kernel, grid, potential=pot)
            assert np.array_equal(got.knots[0], ref[0]) and \
                np.array_equal(got.knots[1], ref[1]), (seed, len(grid))
            stretched.append(len(ref[0]) > len(grid) + 1)
        assert stretched[0] and not stretched[2], (seed, stretched)


@pytest.mark.parametrize("with_potential", [False, True])
def test_estimate_at_a_singular_r(with_potential):
    """At r = 1/lam for an eigenvalue lam of some support's
    D_S^{-1/2} (DL)_SS D_S^{-1/2}, M_SS(r) is singular and 1 - r lam is 0
    exactly; the estimate stays finite and on or above the reference."""
    hit = 0
    for m, k in [(4, 2), (6, 3), (7, 7), (9, 5)]:
        space, kernel, _, pot = random_instance(400 + m, (m, m),
                                                with_potential=with_potential)
        mu, sq = space.mu, np.sqrt(space.mu)
        DL = mu[:, None] * generator(space, kernel, pot)
        B = 0.5 * (DL + DL.T) / sq[:, None] / sq[None, :]
        S = np.array(list(itertools.combinations(range(m), k)))
        lam = np.linalg.eigh(B[S[:, :, None], S[:, None, :]])[0]
        exact = lam[(lam > 0) & (1.0 - (1.0 / lam) * lam == 0.0)]
        for r in 1.0 / np.sort(exact)[[0, -1]]:
            assert np.any(1.0 - r * lam == 0.0)
            new = sp_estimate(space, kernel, r, pot)
            ref = reference_estimate(space, kernel, r, pot, seed=m)
            tol = 1e-14 * m * float(np.abs(_quadratic_matrix(space, kernel, r, pot)).max())
            assert np.isfinite(new) and new >= ref - tol, (m, k, r, new, ref)
            near = sp_estimate(space, kernel, r * np.array([1 - 1e-9, 1 + 1e-9]), pot)
            # beta* is convex, hence continuous: the singular r is no outlier
            assert np.allclose(near, new, rtol=1e-6, atol=1e-6 / space.total_mass), \
                (m, k, r, new, near)
            hit += 1
    assert hit == 8


def test_estimate_refuses_large_spaces():
    space, kernel, _, _ = random_instance(0, (SIZE_LIMIT + 1, SIZE_LIMIT + 1))
    with pytest.raises(ValidationError, match="m <= 16"):
        sp_estimate(space, kernel, 1.0)


def test_estimate_limits(two_point):
    space, kernel = two_point
    # r = 0: the point-mass extremizer gives 1/min mass
    assert sp_estimate(space, kernel, 0.0) == pytest.approx(1.0, rel=1e-12)
    # very large r: constants survive, value approaches 1/total mass
    assert sp_estimate(space, kernel, 1e6) == pytest.approx(0.5, rel=1e-9)


def test_estimate_monotone_in_r():
    space, kernel, _, _ = random_instance(0, (3, 8))
    vals = [sp_estimate(space, kernel, r)
            for r in np.geomspace(1e-3, 1e3, 12)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_certified_rate_passes_fresh_family():
    rng = np.random.default_rng(10)
    for seed in range(6):
        space, kernel, _, pot = random_instance(seed, (3, 9),
                                                with_potential=(seed % 2 == 0))
        M = space.total_mass
        r_grid = np.geomspace(1e-3 / M, 1e3 / M, 18)
        beta = certified_rate(space, kernel, r_grid, potential=pot)
        fam = random_functions(rng, space.m, 500)
        rep = sp_verify(space, kernel, scaled_rate(beta, 1.0 + 1e-6), fam, r_grid,
                        potential=pot)
        assert rep["worst_slack"] >= -1e-9, (seed, rep)


def test_sp_verify_constant_floor(two_point):
    space, kernel = two_point
    # beta below the 1/total-mass floor must be caught by a constant f
    bad = rate_power(0.25, 1e-6)
    fam = [np.ones(2)]
    rep = sp_verify(space, kernel, bad, fam, [1.0, 10.0])
    assert rep["worst_slack"] < -1e-9


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
        beta = certified_rate(space, kernel, r_grid)
        fam = random_functions(rng, space.m, 30)
        rep = sp_decay_check(space, kernel, beta, fam,
                             t_grid=np.geomspace(1e-2, 20.0, 6), r_grid=r_grid)
        assert rep["worst_slack"] >= -1e-9, (seed, rep)
        # t = 0 must be tight for the worst f
        rep0 = sp_decay_check(space, kernel, beta, fam[:5], [0.0], r_grid[:1])
        assert rep0["worst_slack"] >= -1e-12


def test_decay_check_reads_tol(two_point):
    # a constant rate bisected to a worst slack of -5e-4: the sp_decay row
    # that verify writes fails at tol = 1e-9 and passes at 1e-3
    space, kernel = two_point
    fam, ts, rs = [[1.0, -0.5]], [0.3], [0.1]

    def worst(b):
        const = RateFunction("constant", {"c": b}, lambda r: b, lambda u: 0.0)
        return sp_decay_check(space, kernel, const, fam, ts, rs)["worst_slack"]

    lo, hi = 0.0, 1.0   # every slack is negative at 0 and nonnegative at 1
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if worst(mid) < -5e-4 else (lo, mid)
    slack = worst(lo)
    assert -1e-3 < slack < -1e-9
    for tol, passed in ((1e-3, True), (1e-9, False)):
        rep = TheoremReport("sp_decay")
        rep.add("decay form of the rate inequality", slack, tol)
        assert rep.passed is passed


def test_decay_check_killed():
    rng = np.random.default_rng(12)
    for seed in range(4):
        space, kernel, _, pot = random_instance(seed, (3, 8), with_potential=True)
        M = space.total_mass
        r_grid = np.geomspace(1e-2 / M, 1e2 / M, 6)
        beta = certified_rate(space, kernel, r_grid, potential=pot)
        fam = random_functions(rng, space.m, 30)
        t_grid = np.geomspace(1e-2, 20.0, 6)
        rep = sp_decay_check(space, kernel, beta, fam, t_grid, r_grid, potential=pot)
        assert rep["worst_slack"] >= -1e-9, (seed, rep)


def _reference_sp_decay_check(space, kernel, beta, f_family, t_grid, r_grid,
                              potential=None) -> dict:
    # the (f, t, r) loop that one P_t F^T product per t replaced, kept
    # verbatim apart from sg.apply(t, f), which was sg.matrix(t) @ f, and
    # from the tolerance count and verdict it also returned
    sg = Semigroup(space, kernel, potential)
    worst, witness = INF, None
    for fi, f in enumerate(f_family):
        f = np.asarray(f, dtype=float)
        l2 = float(np.sum(f * f * space.mu))
        l1sq = float(np.sum(np.abs(f) * space.mu)) ** 2
        for t in t_grid:
            pf = sg.matrix(t) @ np.asarray(f, dtype=float)
            lhs = float(np.sum(pf * pf * space.mu))
            for r in r_grid:
                decay = math.exp(-2.0 * t / r)
                slack = l2 * decay + max(beta(r), 0.0) * l1sq * (1.0 - decay) - lhs
                if slack < worst:
                    worst, witness = slack, ("f", fi, float(t), float(r))
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
                rhs = masses * decay + max(beta(r), 0.0) * masses ** 2 * (1.0 - decay)
                slack = rhs - lhs
                k = int(np.argmin(slack))
                if slack[k] < worst:
                    worst, witness = float(slack[k]), ("subset", int(masks[k]), float(t), float(r))
    return {"worst_slack": worst, "witness": witness}


@pytest.mark.parametrize("killed", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_decay_check_equals_reference_loop(seed, killed):
    """Same witness as the (f, t, r) loop, and the same worst slack to relative 1e-12: P_t F^T is one matrix product where the
    loop made one matrix-vector product per f, and the subsets are rows of
    one such product, which may round differently.  The halved rate fails
    on the subsets of every instance; its witness is a subset on six of the
    ten instances, and the family fails too on six.  Seed 0 adds an instance
    of 12 points."""
    rng = np.random.default_rng(12 if killed else 11)
    sizes = [(3, 8)] + [(12, 12)] * (seed == 0)
    for m_range in sizes:
        space, kernel, _, pot = random_instance(seed, m_range, with_potential=killed)
        M = space.total_mass
        r_grid = np.geomspace(1e-2 / M, 1e2 / M, 6)
        beta = certified_rate(space, kernel, r_grid, potential=pot)
        r, v = beta.knots
        halved = rate_tabulated(r, 0.5 * v)
        fam = random_functions(rng, space.m, 30)
        t_grid = np.geomspace(1e-2, 20.0, 6)
        cases = [(beta, fam, t_grid, r_grid), (beta, fam[:5], [0.0], r_grid[:1]),
                 (beta, [], [0.5], r_grid), (halved, fam, t_grid, r_grid)]
        for rate, f_family, ts, rs in cases:
            got = sp_decay_check(space, kernel, rate, f_family, ts, rs, potential=pot)
            ref = _reference_sp_decay_check(space, kernel, rate, f_family, ts, rs,
                                            potential=pot)
            assert got["witness"] == ref["witness"]
            assert got["worst_slack"] == pytest.approx(ref["worst_slack"], rel=1e-12, abs=0.0)
        subsets = _reference_sp_decay_check(space, kernel, halved, [], t_grid, r_grid,
                                            potential=pot)
        assert subsets["worst_slack"] < -1e-9


def test_certified_killed_rate_dominates_estimate():
    """A killed form's optimal rate can be negative at large r; the
    certified table must still lie on or above it at every table point."""
    negative = 0
    for seed in range(4):
        space, kernel, _, pot = random_instance(seed, (3, 8), with_potential=True)
        M = space.total_mass
        r_grid = np.geomspace(1e-2 / M, 1e2 / M, 6)
        beta = certified_rate(space, kernel, r_grid, potential=pot)
        table = [beta.params["r_min"]] + list(r_grid)
        while table[-1] < beta.params["r_max"]:
            table.append(table[-1] * 10.0)
        for r in table:
            est = sp_estimate(space, kernel, r, pot)
            negative += est < 0
            assert beta(r) >= est, (seed, r, beta(r), est)
    assert negative > 0


def test_killed_table_stops_at_first_nonpositive_estimate():
    """The stretch past the grid ends at the first nonpositive estimate, so
    a killed table has at most one nonpositive entry past the grid, and the
    table still lies on or above the optimum at each of its points."""
    stopped = 0
    for seed in range(6):
        space, kernel, _, pot = random_instance(seed, (3, 8), with_potential=True)
        M = space.total_mass
        r_grid = np.geomspace(1e-3 / M, 1e2 / M, 10)
        beta = certified_rate(space, kernel, r_grid, potential=pot)
        past = [float(r_grid[-1])]
        while past[-1] < beta.params["r_max"]:
            past.append(past[-1] * 10.0)
        past = past[1:]
        assert len(past) <= 12
        nonpositive = [r for r in past if beta(r) <= 0]
        assert len(nonpositive) <= 1, (seed, nonpositive)
        if nonpositive:
            assert nonpositive[0] == past[-1]
            stopped += 1
        for r in [beta.params["r_min"], *r_grid, *past]:
            assert beta(r) >= sp_estimate(space, kernel, r, pot), (seed, r)
    assert stopped > 0


def test_lemma2_two_point_closed_form(two_point):
    space, kernel = two_point
    ones = WeightFunction.ones(2)
    j = 3.0
    # optimal rate: max(1 - rj, 1/2); certified table inflates by 1.01.
    # put the kink r = 1/(2j) on the grid so the table is exact everywhere
    r_grid = np.sort(np.append(np.geomspace(1e-4, 1e3, 40), 1.0 / (2.0 * j)))
    beta = certified_rate(space, kernel, r_grid)
    for r in (0.01, 0.05, 0.1):
        assert beta(r) == pytest.approx(1.01 * max(1 - r * j, 0.5), rel=1e-6)
    rep = lemma2_bound(space, kernel, ones, beta, s_grid=[0.5, 0.8, 1.5, 1.9])
    assert rep["worst_slack"] >= -1e-9
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
        beta = certified_rate(space, kernel, r_grid)
        s_grid = np.geomspace(space.mu.min() * 1.05, 0.45 * M, 20)
        rep = lemma2_bound(space, kernel, gamma, beta, s_grid)
        assert rep["worst_slack"] >= -1e-9, (seed, rep)


def test_lemma2_gamma_scaling_invariance():
    space, kernel, gamma, _ = random_instance(7, (4, 7), with_gamma=True)
    M = space.total_mass
    r_grid = np.geomspace(1e-3 / M, 1e3 / M, 16)
    beta = certified_rate(space, kernel, r_grid)
    s_grid = np.geomspace(space.mu.min() * 1.1, 0.4 * M, 8)
    a = lemma2_bound(space, kernel, gamma, beta, s_grid)
    scaled = WeightFunction(5.0 * gamma.gamma)
    b = lemma2_bound(space, kernel, scaled, beta, s_grid)
    for ra, rb in zip(a["rows"], b["rows"]):
        if not ra["skipped"] and not math.isinf(ra["slack"]):
            assert rb["slack"] == pytest.approx(5.0 * ra["slack"], rel=1e-6)
