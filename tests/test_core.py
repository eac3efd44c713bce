import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpiso.core import (INSTANCE_KEYS, THETA_CHUNK, FiniteMeasureSpace,
                          JumpKernel, KillingPotential, Semigroup,
                          ValidationError, WeightFunction, bar_extension,
                          dirichlet_energy, extend_by_zero,
                          generator, instance_from_json, instance_to_json,
                          l1_form, schrodinger_energy)
from jumpiso.instances import random_instance
from jumpiso.numerics import INF


@pytest.fixture
def two_point():
    space = FiniteMeasureSpace([1.0, 1.0])
    kernel = JumpKernel(space, [[0.0, 3.0], [3.0, 0.0]])
    return space, kernel


def test_dirichlet_two_point_oracles(two_point):
    space, kernel = two_point
    # hand expansion: (1/2)(1*3*1*1 + 1*3*1*1)
    assert dirichlet_energy(space, kernel, [1, 0]) == pytest.approx(3.0, abs=1e-14)
    assert dirichlet_energy(space, kernel, [1, 0], [0, 1]) == pytest.approx(-3.0, abs=1e-14)
    assert dirichlet_energy(space, kernel, [5, 5]) == 0.0


def test_l1_form_oracles(two_point):
    space, kernel = two_point
    ones = WeightFunction.ones(2)
    assert l1_form(space, kernel, ones, [5, 1]) == pytest.approx(24.0)
    assert l1_form(space, kernel, ones, [2, 2]) == 0.0
    # indicator: full double sum equals twice the cut flow
    assert l1_form(space, kernel, ones, [1, 0]) == pytest.approx(2.0 * 3.0)


def test_generator_oracles(two_point):
    space, kernel = two_point
    L = generator(space, kernel)
    assert np.allclose(L, [[3.0, -3.0], [-3.0, 3.0]])
    zero = JumpKernel(space, np.zeros((2, 2)))
    assert np.allclose(generator(space, zero), 0.0)
    pot = KillingPotential([2.0, 5.0])
    assert np.allclose(generator(space, zero, pot), np.diag([2.0, 5.0]))


def test_generator_matches_energy():
    rng = np.random.default_rng(0)
    for seed in range(20):
        space, kernel, _, pot = random_instance(seed, (2, 8), with_potential=(seed % 2 == 0))
        L = generator(space, kernel, pot)
        f = rng.standard_normal(space.m)
        g = rng.standard_normal(space.m)
        lhs = float(np.sum(f * (L @ g) * space.mu))
        rhs = schrodinger_energy(space, kernel, pot, f, g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_semigroup_two_point_closed_form(two_point):
    space, kernel = two_point
    sg = Semigroup(space, kernel)
    for t in (0.0, 0.1, 1.7):
        P = sg.matrix(t)
        g = np.array([0.4, -1.3])
        diff = (P @ g)[0] - (P @ g)[1]
        assert diff == pytest.approx(math.exp(-6.0 * t) * (g[0] - g[1]), rel=1e-12)
    assert np.allclose(sg.matrix(0.0), np.eye(2))
    # long-time limit: rows approach the mass-average projector
    P = sg.matrix(200.0)
    assert np.allclose(P, 0.5, atol=1e-12)


def test_semigroup_kernel_properties():
    for seed in range(8):
        space, kernel, _, pot = random_instance(seed, (2, 9), with_potential=(seed % 3 == 0))
        sg = Semigroup(space, kernel, pot)
        for t in (0.3, 1.1):
            # the density p_t(x, y) = P_t(x, y) / mu(y) is symmetric
            p = sg.matrix(t) / space.mu[None, :]
            assert np.max(np.abs(p - p.T)) <= 1e-10
            rows = sg.matrix(t).sum(axis=1)
            assert np.all(rows <= 1.0 + 1e-9)
            if pot is None:
                assert np.allclose(rows, 1.0, atol=1e-9)
        # Chapman-Kolmogorov: P_0.4 composed with P_0.9 is P_1.3
        combined = sg.matrix(0.4) @ sg.matrix(0.9)
        assert np.max(np.abs(combined - sg.matrix(1.3))) <= 1e-9


def test_theta_two_point_and_duality(two_point):
    space, kernel = two_point
    ones = WeightFunction.ones(2)
    sg = Semigroup(space, kernel)
    t = 0.37
    assert sg.theta(t, ones) == pytest.approx(2.0 * math.exp(-6.0 * t), rel=1e-12)
    # homogeneity in the weight
    half = WeightFunction(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert sg.theta(t, half) == pytest.approx(sg.theta(t, ones) / 2.0, rel=1e-12)
    # small times approach the disjoint-atom value 2
    assert sg.theta(1e-9, ones) == pytest.approx(2.0, rel=1e-6)


def test_theta_duality_sampling():
    rng = np.random.default_rng(1)
    for seed in range(5):
        space, kernel, gamma, _ = random_instance(seed, (2, 8), with_gamma=True)
        sg = Semigroup(space, kernel)
        t = 0.5
        theta = sg.theta(t, gamma)
        P = sg.matrix(t)
        m = space.m
        for _ in range(200):
            g = rng.uniform(-1.0, 1.0, m)
            pg = P @ g
            for i in range(m):
                for k in range(i + 1, m):
                    assert abs(pg[i] - pg[k]) / gamma.gamma[i, k] <= theta + 1e-9


def test_theta_integral_two_point(two_point):
    space, kernel = two_point
    ones = WeightFunction.ones(2)
    theta_int, _ = Semigroup(space, kernel).theta_curve(ones)
    t = 0.8
    assert theta_int(t) == pytest.approx((1 - math.exp(-6.0 * t)) / 3.0, rel=1e-12)
    assert theta_int(0.0) == 0.0
    ts = np.geomspace(1e-6, 50.0, 200)
    assert np.all(np.diff([theta_int(t) for t in ts]) >= 0.0)


def test_theta_curve_matches_quadrature(two_point):
    space, kernel = two_point
    ones = WeightFunction.ones(2)
    sg = Semigroup(space, kernel)
    theta_int, total = sg.theta_curve(ones)
    for t in (0.05, 0.3, 2.0, 30.0):
        assert theta_int(t) == pytest.approx((1 - math.exp(-6.0 * t)) / 3.0, rel=1e-12)
    assert total == pytest.approx(1.0 / 3.0, rel=1e-12)


def _theta_reference(sg, t, gamma):
    """The scalar Theta before stacked times: full m x m x m row distances."""
    core = (sg._vecs * np.exp(-t * sg.eigenvalues)) @ sg._vecs.T
    P = core * (sg._sq[None, :] / sg._sq[:, None])
    dist = np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)
    m = sg.space.m
    if m == 1:
        return 0.0
    off = ~np.eye(m, dtype=bool)
    return float(np.max(dist[off] / gamma.gamma[off]))


def _theta_curve_reference(sg, gamma, n=240):
    """theta_curve before stacked times: one Theta call per Gauss node.

    The nodes are summed left to right, as the builtin ``sum`` did on
    Python 3.11 and earlier (3.12 made ``sum`` of floats compensated).
    """
    g = sg.gap
    t_max = 50.0 / g if g > 0 else 1e6
    ts = np.geomspace(max(t_max * 1e-8, 1e-12), t_max, n)
    thetas = np.array([_theta_reference(sg, t, gamma) for t in ts])
    gx, gw = np.polynomial.legendre.leggauss(8)

    def segment(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        acc = 0.0
        for x, w in zip(gx, gw):
            acc = acc + w * _theta_reference(sg, mid + half * x, gamma)
        return half * acc

    cum = np.empty(n)
    cum[0] = segment(0.0, ts[0])
    for i in range(1, n):
        cum[i] = cum[i - 1] + segment(ts[i - 1], ts[i])
    tail = thetas[-1] / g if g > 0 else (INF if thetas[-1] > 0 else 0.0)
    total = cum[-1] + tail

    def theta_int(t):
        if t <= 0:
            return 0.0
        if t <= ts[0]:
            return segment(0.0, t)
        if t >= ts[-1]:
            if math.isinf(t):
                return total
            return cum[-1] + (thetas[-1] / g * (1 - math.exp(-g * (t - ts[-1])))
                              if g > 0 else (INF if thetas[-1] > 0 else 0.0))
        k = int(np.searchsorted(ts, t))
        return float(cum[k - 1] + segment(ts[k - 1], t))

    return ts, thetas, theta_int


def _semigroup_case(m, weighted_killed, seed):
    space, kernel, gamma, pot = random_instance(
        seed, (m, m), with_gamma=weighted_killed, with_potential=weighted_killed)
    return Semigroup(space, kernel, pot), gamma


@pytest.mark.parametrize("weighted_killed", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 8, 13])
def test_theta_batch_matches_scalar_calls(m, weighted_killed):
    sg, gamma = _semigroup_case(m, weighted_killed, seed=100 + m)
    # more than two chunks of stacked times, the last one partial
    pairs = m * (m - 1) // 2
    step = max(1, THETA_CHUNK // (pairs * m)) if pairs else 8
    ts = np.exp(np.random.default_rng(m).uniform(-14.0, 7.0, 2 * step + 7))
    batch = sg.theta(ts, gamma)
    assert batch.shape == ts.shape
    scalar = [sg.theta(float(t), gamma) for t in ts]
    assert all(isinstance(v, float) for v in scalar)
    assert batch.tolist() == scalar
    assert scalar == [_theta_reference(sg, float(t), gamma) for t in ts]
    assert sg.theta(ts.reshape(-1, 1), gamma).ravel().tolist() == scalar
    with pytest.raises(ValueError):
        sg.theta(np.array([1.0, 0.0]), gamma)


@pytest.mark.parametrize("weighted_killed", [False, True])
@pytest.mark.parametrize("m", [2, 5, 8])
def test_theta_curve_matches_reference_loop(m, weighted_killed):
    sg, gamma = _semigroup_case(m, weighted_killed, seed=200 + m)
    theta_int, total = sg.theta_curve(gamma)
    ts, thetas, ref_int = _theta_curve_reference(sg, gamma)
    assert sg.theta(ts, gamma).tolist() == thetas.tolist()
    # the grid knots read cum back exactly: theta_int(ts[k]) = cum[k]
    probes = np.concatenate([ts[::6], np.geomspace(ts[0] * 1e-3, ts[-1] * 10.0, 160)])
    assert len(probes) == 200
    assert [theta_int(t) for t in probes] == [ref_int(t) for t in probes]
    assert total == ref_int(math.inf) == theta_int(math.inf)


def test_bar_extension_identities():
    rng = np.random.default_rng(2)
    for seed in range(100):
        space, kernel, gamma, pot = random_instance(seed, (2, 8), with_gamma=True,
                                                    with_potential=True)
        s2, k2, g2 = bar_extension(space, kernel, pot, gamma, pot.xi)
        f = rng.standard_normal(space.m)
        a = schrodinger_energy(space, kernel, pot, f)
        b = dirichlet_energy(s2, k2, extend_by_zero(f))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
        x = int(rng.integers(0, space.m))
        lhs = float(np.sum(g2.gamma[x] ** 2 * k2.j[x] * s2.mu))
        rhs = float(np.sum(gamma.gamma[x] ** 2 * kernel.j[x] * space.mu)) \
            + pot.xi[x] ** 2 * pot.v[x]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_bar_extension_no_killing(two_point):
    space, kernel = two_point
    pot = KillingPotential([0.0, 0.0], [1.0, 1.0])
    s2, k2, _ = bar_extension(space, kernel, pot, WeightFunction.ones(2))
    f = np.array([0.3, -2.0])
    assert dirichlet_energy(s2, k2, extend_by_zero(f)) == pytest.approx(
        dirichlet_energy(space, kernel, f), rel=1e-14)


def test_json_round_trip_and_rejection():
    space, kernel, gamma, pot = random_instance(4, (3, 6), with_gamma=True,
                                                with_potential=True)
    text = instance_to_json(space, kernel, pot, gamma)
    s2, k2, p2, g2 = instance_from_json(text)
    assert np.allclose(s2.mu, space.mu)
    assert np.allclose(k2.j, kernel.j)
    assert np.allclose(p2.v, pot.v)
    assert np.allclose(g2.gamma, gamma.gamma)
    with pytest.raises(ValidationError, match=r"pair \(0, 1\)"):
        instance_from_json('{"mu": [1, 1], "j": [[0, 2], [1, 0]]}')
    with pytest.raises(ValidationError):
        instance_from_json('{"mu": [1, -1], "j": [[0, 1], [1, 0]]}')
    with pytest.raises(ValidationError):
        instance_from_json('{"mu": [1, 1], "j": [[0.5, 1], [1, 0]]}')


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_energy_psd_and_symmetric(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    space = FiniteMeasureSpace(np.exp(rng.uniform(-1, 1, m)))
    j = rng.random((m, m)) * (rng.random((m, m)) < 0.7)
    j = j + j.T
    np.fill_diagonal(j, 0.0)
    kernel = JumpKernel(space, j)
    f = rng.standard_normal(m)
    g = rng.standard_normal(m)
    assert dirichlet_energy(space, kernel, f) >= 0.0
    assert dirichlet_energy(space, kernel, f, g) == pytest.approx(
        dirichlet_energy(space, kernel, g, f), rel=1e-12, abs=1e-12)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10 ** 300, 10 ** 400)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4),
                                                                  inner, max_size=3),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(INSTANCE_KEYS + ("gama", "V", "")) | st.text(max_size=6),
                       _JSON, max_size=6))
def test_loader_fuzz_rejects_by_name(doc):
    """Arbitrary documents load or raise ValidationError, nothing else;
    unknown keys and an xi without v are rejected by name."""
    unknown = [k for k in doc if k not in INSTANCE_KEYS]
    try:
        space, kernel, pot, gamma = instance_from_json(json.dumps(doc))
    except ValidationError as exc:
        if unknown:
            assert f"field {unknown[0]!r}" in str(exc)
        elif "xi" in doc and "v" not in doc:
            assert "field 'xi'" in str(exc)
        return
    assert not unknown and ("v" in doc or "xi" not in doc)
    assert (pot is None) == ("v" not in doc) and (gamma is None) == ("gamma" not in doc)
    assert instance_from_json(instance_to_json(space, kernel, pot, gamma))[0].m == space.m


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans(), st.booleans(),
       st.text(min_size=1, max_size=6).filter(lambda k: k not in INSTANCE_KEYS))
def test_loader_fuzz_valid_instances(seed, weighted, killed, extra):
    space, kernel, gamma, pot = random_instance(seed, (1, 6), with_gamma=weighted,
                                                with_potential=killed)
    doc = json.loads(instance_to_json(space, kernel, pot, gamma if weighted else None))
    s2, k2, p2, g2 = instance_from_json(json.dumps(doc))
    assert s2.mu.tolist() == space.mu.tolist() and k2.j.tolist() == kernel.j.tolist()
    assert (p2 is None) != killed and (g2 is None) != weighted
    with pytest.raises(ValidationError, match=re.escape(f"field {extra!r}")):
        instance_from_json(json.dumps(dict(doc, **{extra: doc["mu"]})))
    if killed:
        doc.pop("v")
        with pytest.raises(ValidationError, match="field 'xi'"):
            instance_from_json(json.dumps(doc))


def test_theta_past_t_max_is_rounding_level():
    """Computed Theta past t_max = 50/gap sits at its rounding floor, not on
    the e^{-gap t} decay; both it and the tail theta_end/gap stay below
    1e-12 of the peak of Theta and of the total."""
    for seed in range(1000, 1020):
        space, kernel, gamma, _ = random_instance(seed, (3, 9), with_gamma=seed % 2 == 0)
        sg = Semigroup(space, kernel)
        curve, total = sg.theta_curve(gamma)
        t_max = curve.ts[-1]
        peak = float(np.max(sg.theta(curve.ts[curve.ts <= 1.0 / curve.gap], gamma)))
        far = sg.theta(t_max * np.array([1.0, 1.5, 2.0, 4.0, 10.0]), gamma)
        assert np.all(far <= 1e-12 * peak), seed
        assert curve.theta_end / curve.gap <= 1e-12 * total, seed
