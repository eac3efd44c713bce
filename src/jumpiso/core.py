"""Finite measure spaces, jump kernels, Dirichlet energies and semigroups.

The discrete model: a finite set of atoms with positive masses ``mu`` and a
symmetric jump density ``j`` (zero on the diagonal, so nothing depends on a
diagonal convention).  The quadratic form is

    E(f, g) = (1/2) sum_{x,y} (f(x)-f(y)) (g(x)-g(y)) j(x,y) mu(x) mu(y),

its generator acts as (L f)(x) = sum_y (f(x)-f(y)) j(x,y) mu(y) + v(x) f(x)
for an optional nonnegative killing potential v, and the (sub-)Markov
semigroup is exp(-tL), computed once and for all by a symmetric
eigendecomposition of D^{1/2} L D^{-1/2}.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import INF, quad


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class ValidationError(ValueError):
    """Raised when a space/kernel/weight violates its structural contract."""


def _first_asymmetric_pair(mat: np.ndarray):
    diff = mat != mat.T
    if diff.any():
        i, k = np.argwhere(diff)[0]
        return int(i), int(k)
    return None


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """m atoms with positive masses; points are indexed 0..m-1."""

    mu: np.ndarray

    def __post_init__(self):
        mu = _frozen(self.mu)
        if mu.ndim != 1 or mu.size < 1:
            raise ValidationError("mu must be a nonempty vector")
        if not np.all(mu > 0) or not np.all(np.isfinite(mu)):
            raise ValidationError("all masses must be positive and finite")
        object.__setattr__(self, "mu", mu)

    @property
    def m(self) -> int:
        return self.mu.size

    @property
    def total_mass(self) -> float:
        return float(self.mu.sum())


@dataclass(frozen=True)
class JumpKernel:
    """Symmetric nonnegative jump density with zero diagonal."""

    space: FiniteMeasureSpace
    j: np.ndarray

    def __post_init__(self):
        j = _frozen(self.j)
        m = self.space.m
        if j.shape != (m, m):
            raise ValidationError(f"kernel shape {j.shape} does not match m={m}")
        pair = _first_asymmetric_pair(j)
        if pair is not None:
            raise ValidationError(f"kernel asymmetric at pair {pair}: "
                                  f"j[{pair[0]}][{pair[1]}]={float(j[pair[0], pair[1]])!r} != "
                                  f"j[{pair[1]}][{pair[0]}]={float(j[pair[1], pair[0]])!r}")
        if np.any(j < 0):
            raise ValidationError("kernel entries must be nonnegative")
        if np.any(np.diag(j) != 0):
            raise ValidationError("kernel diagonal must be identically zero")
        object.__setattr__(self, "j", j)


@dataclass(frozen=True)
class WeightFunction:
    """Symmetric pair weight, strictly positive off the diagonal."""

    gamma: np.ndarray

    def __post_init__(self):
        g = _frozen(self.gamma)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValidationError("gamma must be square")
        pair = _first_asymmetric_pair(g)
        if pair is not None:
            raise ValidationError(f"gamma asymmetric at pair {pair}")
        off = ~np.eye(g.shape[0], dtype=bool)
        if not np.all(g[off] > 0):
            raise ValidationError("gamma must be strictly positive off the diagonal")
        object.__setattr__(self, "gamma", g)

    @staticmethod
    def ones(m: int) -> "WeightFunction":
        return WeightFunction(np.ones((m, m)))


@dataclass(frozen=True)
class KillingPotential:
    """Nonnegative killing rates v plus the pair-weight extension xi."""

    v: np.ndarray
    xi: np.ndarray | None = None

    def __post_init__(self):
        v = _frozen(self.v)
        if np.any(v < 0):
            raise ValidationError("killing potential must be nonnegative")
        object.__setattr__(self, "v", v)
        if self.xi is not None:
            xi = _frozen(self.xi)
            if xi.shape != v.shape or np.any(xi < 0):
                raise ValidationError("xi must be nonnegative and match v")
            object.__setattr__(self, "xi", xi)


@dataclass(frozen=True)
class SemigroupKernel:
    """Transition densities p_t(x, y) with respect to mu at a fixed time."""

    space: FiniteMeasureSpace
    t: float
    p: np.ndarray

    def row_integrals(self) -> np.ndarray:
        return self.p @ self.space.mu

    def apply(self, f) -> np.ndarray:
        return self.p @ (np.asarray(f, dtype=float) * self.space.mu)


def dirichlet_energy(space: FiniteMeasureSpace, kernel: JumpKernel, f, g=None) -> float:
    """E(f, g); symmetric in (f, g) and nonnegative on the diagonal."""
    f = np.asarray(f, dtype=float)
    g = f if g is None else np.asarray(g, dtype=float)
    if f.shape != (space.m,) or g.shape != (space.m,):
        raise ValidationError("state function length does not match the space")
    df = f[:, None] - f[None, :]
    dg = g[:, None] - g[None, :]
    w = kernel.j * space.mu[:, None] * space.mu[None, :]
    return 0.5 * float(np.sum(df * dg * w))


def schrodinger_energy(space, kernel, potential: KillingPotential | None, f, g=None) -> float:
    """E_V(f, g) = E(f, g) + sum f g v mu (the killed form)."""
    f = np.asarray(f, dtype=float)
    g = f if g is None else np.asarray(g, dtype=float)
    e = dirichlet_energy(space, kernel, f, g)
    if potential is not None:
        e += float(np.sum(f * g * potential.v * space.mu))
    return e


def l1_form(space: FiniteMeasureSpace, kernel: JumpKernel, gamma, f) -> float:
    """Full double sum of |f(x)-f(y)| gamma(x,y) j(x,y) mu(x) mu(y)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (space.m,):
        raise ValidationError("state function length does not match the space")
    g = gamma.gamma if isinstance(gamma, WeightFunction) else np.asarray(gamma, dtype=float)
    w = g * kernel.j * space.mu[:, None] * space.mu[None, :]
    return float(np.sum(np.abs(f[:, None] - f[None, :]) * w))


def generator(space: FiniteMeasureSpace, kernel: JumpKernel,
              potential: KillingPotential | None = None) -> np.ndarray:
    """Matrix of L with (Lf)_x = sum_y (f_x - f_y) j(x,y) mu(y) + v_x f_x."""
    w = kernel.j * space.mu[None, :]
    L = -w
    np.fill_diagonal(L, w.sum(axis=1))
    if potential is not None:
        L = L + np.diag(potential.v)
    return L


class Semigroup:
    """exp(-tL) via one symmetric eigendecomposition, reusable for all t.

    The symmetrization D^{1/2} L D^{-1/2} is symmetric positive semidefinite,
    so the spectral route is exact for every t and costs O(m^3) once.
    """

    def __init__(self, space: FiniteMeasureSpace, kernel: JumpKernel,
                 potential: KillingPotential | None = None):
        self.space = space
        self.kernel = kernel
        self.potential = potential
        L = generator(space, kernel, potential)
        sq = np.sqrt(space.mu)
        sym = L * (sq[:, None] / sq[None, :])
        sym = 0.5 * (sym + sym.T)
        vals, vecs = np.linalg.eigh(sym)
        if not np.all(np.isfinite(vals)):
            raise ArithmeticError("eigendecomposition produced non-finite values")
        self.eigenvalues = np.clip(vals, 0.0, None)
        self._vecs = vecs
        self._sq = sq
        nz = self.eigenvalues[self.eigenvalues > 1e-13 * max(1.0, self.eigenvalues.max())]
        self.gap = float(nz.min()) if nz.size else 0.0

    def matrix(self, t: float) -> np.ndarray:
        """exp(-tL); row sums are <= 1, with equality absent killing."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        core = (self._vecs * np.exp(-t * self.eigenvalues)) @ self._vecs.T
        return core * (self._sq[None, :] / self._sq[:, None])

    def kernel_at(self, t: float) -> SemigroupKernel:
        p = self.matrix(t) / self.space.mu[None, :]
        p = np.where(np.abs(p) < 1e-300, 0.0, p)
        return SemigroupKernel(self.space, t, _frozen(0.5 * (p + p.T)))

    def apply(self, t: float, f) -> np.ndarray:
        return self.matrix(t) @ np.asarray(f, dtype=float)

    def theta(self, t: float, gamma: WeightFunction) -> float:
        """Worst pair ratio of the L1 row distance of exp(-tL) to gamma.

        Equals sup over |g| <= 1 of |P_t g(x) - P_t g(y)| / gamma(x,y); the
        extremizer is the sign pattern of the row difference, so the row
        L1 distance is exact, not a sample bound.
        """
        if t <= 0:
            raise ValueError("theta requires t > 0")
        P = self.matrix(t)
        dist = np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)
        m = self.space.m
        if m == 1:
            return 0.0
        off = ~np.eye(m, dtype=bool)
        return float(np.max(dist[off] / gamma.gamma[off]))

    def theta_integral(self, t: float, gamma: WeightFunction) -> float:
        """Integral of theta over [0, t] by adaptive quadrature."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        if t == 0:
            return 0.0
        return quad(lambda s: self.theta(s, gamma) if s > 0 else self._theta0(gamma), 0.0, t)

    def _theta0(self, gamma: WeightFunction) -> float:
        m = self.space.m
        if m == 1:
            return 0.0
        off = ~np.eye(m, dtype=bool)
        return float(np.max(2.0 / gamma.gamma[off]))

    def theta_curve(self, gamma: WeightFunction, t_max: float | None = None, n: int = 240):
        """Cumulative Theta on a log time grid plus an exact-rate tail bound.

        Returns (ThetaFn, theta_infinity).  Beyond the grid the tail is
        integrated analytically from theta(t) <= theta(t_max) e^{-gap (t-t_max)}
        (the spectral gap controls the decay); on disconnected spaces with
        gap 0 the tail is infinite.
        """
        g = self.gap
        if t_max is None:
            t_max = 50.0 / g if g > 0 else 1e6
        ts = np.geomspace(max(t_max * 1e-8, 1e-12), t_max, n)
        thetas = np.array([self.theta(t, gamma) for t in ts])
        gx, gw = np.polynomial.legendre.leggauss(8)

        def segment(a, b):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            return half * sum(w * self.theta(mid + half * x, gamma)
                              for x, w in zip(gx, gw))

        cum = np.empty(n)
        cum[0] = segment(0.0, ts[0])
        for i in range(1, n):
            cum[i] = cum[i - 1] + segment(ts[i - 1], ts[i])
        tail = thetas[-1] / g if g > 0 else (INF if thetas[-1] > 0 else 0.0)
        total = cum[-1] + tail

        def theta_int(t: float) -> float:
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

        return theta_int, total


def semigroup(space, kernel, potential=None, t: float = 0.0) -> SemigroupKernel:
    """One-shot transition kernel at time t (builds the spectral cache)."""
    return Semigroup(space, kernel, potential).kernel_at(t)


def theta_integral(space, kernel, gamma: WeightFunction, t: float, potential=None) -> float:
    return Semigroup(space, kernel, potential).theta_integral(t, gamma)


def compose_kernels(a: SemigroupKernel, b: SemigroupKernel) -> SemigroupKernel:
    """Chapman-Kolmogorov composition of two transition kernels."""
    mu = a.space.mu
    p = (a.p * mu[None, :]) @ b.p
    return SemigroupKernel(a.space, a.t + b.t, _frozen(p))


def bar_extension(space: FiniteMeasureSpace, kernel: JumpKernel,
                  potential: KillingPotential, gamma: WeightFunction,
                  xi=None):
    """Absorb the killing into one extra cemetery atom of mass 1.

    The extended kernel jumps from x to the cemetery at rate v(x); extending
    any f by 0 at the cemetery turns the killed form E_V into the plain
    Dirichlet energy of the extension, exactly.
    """
    xi = np.asarray(potential.xi if xi is None else xi, dtype=float)
    if xi.shape != (space.m,) or np.any(xi < 0):
        raise ValidationError("xi must be a nonnegative vector on the space")
    m = space.m
    mu2 = np.append(space.mu, 1.0)
    j2 = np.zeros((m + 1, m + 1))
    j2[:m, :m] = kernel.j
    j2[:m, m] = potential.v
    j2[m, :m] = potential.v
    g2 = np.ones((m + 1, m + 1))
    g2[:m, :m] = gamma.gamma
    g2[:m, m] = xi
    g2[m, :m] = xi
    space2 = FiniteMeasureSpace(mu2)
    return space2, JumpKernel(space2, j2), WeightFunction(g2)


def extend_by_zero(f) -> np.ndarray:
    return np.append(np.asarray(f, dtype=float), 0.0)


# ---------------------------------------------------------------------------
# serialization: {"mu": [...], "j": [[...]], "v": [...], "gamma": [[...]],
#                 "xi": [...]} with both symmetric halves present.

def instance_to_json(space, kernel, potential=None, gamma=None) -> str:
    doc = {"mu": space.mu.tolist(), "j": kernel.j.tolist()}
    if potential is not None:
        doc["v"] = potential.v.tolist()
        if potential.xi is not None:
            doc["xi"] = potential.xi.tolist()
    if gamma is not None:
        doc["gamma"] = gamma.gamma.tolist()
    return json.dumps(doc, sort_keys=True)


def instance_from_json(text: str):
    """Parse and validate an instance document.

    Returns (space, kernel, potential_or_None, gamma_or_None).  Asymmetric
    matrices are rejected with the first offending pair named.
    """
    doc = json.loads(text)
    space = FiniteMeasureSpace(np.asarray(doc["mu"], dtype=float))
    kernel = JumpKernel(space, np.asarray(doc["j"], dtype=float))
    potential = None
    if "v" in doc:
        xi = np.asarray(doc["xi"], dtype=float) if "xi" in doc else None
        potential = KillingPotential(np.asarray(doc["v"], dtype=float), xi)
    gamma = None
    if "gamma" in doc:
        gamma = WeightFunction(np.asarray(doc["gamma"], dtype=float))
    return space, kernel, potential, gamma
