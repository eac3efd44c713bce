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
from dataclasses import dataclass

import numpy as np

from .numerics import INF, first_min, gauss_rule

# elements of the pair-distance temporary per chunk of stacked theta times
THETA_CHUNK = 2 ** 15


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


def rate_slacks(space: FiniteMeasureSpace, F, energy, r_grid, rate) -> dict:
    """Slacks r E(f) + beta(r) ||f||_1^2 - ||f||_2^2 of a rate inequality
    over the rows f of F and the grid points r with beta(r) finite.

    ``energy`` maps one row to its energy (E, E_V or l1(f^2)) and runs once
    per row; ``rate`` runs once per grid point.  An infinite rate gives
    +inf (NaN on a zero row), never the worst slack, so its column is
    dropped.  Every entry equals the per-(f, r) scalar expression bit for
    bit: ||f||_1^2 uses libm pow (``float_power``), as the Python float
    square does, not x*x.  Returns the slack matrix (rows x kept columns),
    the kept ``r``, the worst slack and its witness (row, r) (the first
    strict minimum in row-major order, or None).
    """
    pairs = [(float(r), float(b)) for r, b in ((r, rate(r)) for r in r_grid)
             if not math.isinf(b)]
    rs = np.array([r for r, _ in pairs])
    bs = np.array([b for _, b in pairs])
    l2 = np.sum(F * F * space.mu, axis=1)
    l1sq = np.float_power(np.sum(np.abs(F) * space.mu, axis=1), 2)
    en = np.array([energy(f) for f in F], dtype=float)
    # a rate near the float range: a +inf slack, never the worst; r = +inf
    # on a zero-energy row: inf * 0 = NaN, read as +inf by first_min
    with np.errstate(over="ignore", invalid="ignore"):
        S = rs * en[:, None] + bs * l1sq[:, None] - l2[:, None]
    worst, at = first_min(S)
    witness = None if at is None else (int(at[0]), float(rs[at[1]]))
    return {"slacks": S, "r": rs, "worst_slack": worst, "witness": witness}


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
        self._scale = sq[None, :] / sq[:, None]
        self._pairs = np.triu_indices(space.m, k=1)
        nz = self.eigenvalues[self.eigenvalues > 1e-13 * max(1.0, self.eigenvalues.max())]
        self.gap = float(nz.min()) if nz.size else 0.0

    def matrix(self, t: float) -> np.ndarray:
        """exp(-tL); row sums are <= 1, with equality absent killing."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        core = (self._vecs * np.exp(-t * self.eigenvalues)) @ self._vecs.T
        return core * self._scale

    def theta(self, t, gamma: WeightFunction):
        """Worst pair ratio of the L1 row distance of exp(-tL) to gamma.

        Equals sup over |g| <= 1 of |P_t g(x) - P_t g(y)| / gamma(x,y); the
        extremizer is the sign pattern of the row difference, so the row
        L1 distance is exact, not a sample bound.  A float t gives a float;
        an array of times gives the array of values, computed on stacked
        P_t in chunks of about THETA_CHUNK elements of the pair distances.
        Row distances are symmetric and gamma is exactly symmetric, so only
        the pairs x < y are formed.
        """
        ts = np.asarray(t, dtype=float)
        if np.any(ts <= 0):
            raise ValueError("theta requires t > 0")
        flat = ts.reshape(-1)
        out = np.zeros(flat.size)
        rows, cols = self._pairs
        if rows.size:
            weight = gamma.gamma[rows, cols]
            step = max(1, THETA_CHUNK // (rows.size * self.space.m))
            for lo in range(0, flat.size, step):
                decay = np.exp(-flat[lo:lo + step, None] * self.eigenvalues)
                P = ((self._vecs * decay[:, None, :]) @ self._vecs.T) * self._scale
                dist = np.abs(P[:, rows, :] - P[:, cols, :]).sum(axis=2)
                out[lo:lo + step] = np.max(dist / weight, axis=1)
        return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)

    def theta_curve(self, gamma: WeightFunction):
        """Cumulative Theta on a log time grid plus an exact-rate tail bound.

        Returns (ThetaIntegral, theta_infinity).  The grid has 240 points up
        to t_max = 50/gap (1e6 when the gap is 0).  Beyond it the tail is
        integrated analytically from theta(t) <= theta(t_max) e^{-gap (t-t_max)}
        (the spectral gap controls the decay); on disconnected spaces with
        gap 0 the tail is infinite.
        """
        curve = ThetaIntegral(self, gamma)
        return curve, curve.total


class ThetaIntegral:
    """t -> int_0^t Theta(tau) d tau, tabulated by ``Semigroup.theta_curve``.

    Alongside cum[k] = int_0^{ts[k]} Theta it keeps the first moment
    cum_m[k] = int_0^{ts[k]} tau Theta(tau) d tau, from the same Theta node
    values, so the primitive of the integral, t int_0^t Theta - (first
    moment), is known in closed form (``moments``).  Between grid points
    both are the table value plus one 8-node Gauss segment; calling the
    object at a float t gives the integral alone.
    """

    def __init__(self, sg: Semigroup, gamma: WeightFunction):
        self._theta = lambda t: sg.theta(t, gamma)
        g = self.gap = sg.gap
        t_max = 50.0 / g if g > 0 else 1e6
        ts = self.ts = np.geomspace(max(t_max * 1e-8, 1e-12), t_max, 240)
        self.theta_end = self._theta(ts[-1])
        seg, seg_m = self._segments(np.concatenate([[0.0], ts[:-1]]), ts)
        cum, cum_m = np.cumsum(seg), np.cumsum(seg_m)
        # left end and table value of the partial segment ending at t
        self._lower = np.concatenate([[0.0], ts])
        self._cum = np.concatenate([[0.0], cum])
        self._cum_m = np.concatenate([[0.0], cum_m])
        tail = self.theta_end / g if g > 0 else (INF if self.theta_end > 0 else 0.0)
        self.total = cum[-1] + tail

    def _segments(self, a, b):
        """8-point Gauss rules on each [a_i, b_i] for Theta and tau Theta,
        nodes summed in order.  A node of a subnormal segment [0, b] that
        rounds to 0 is read at the least positive float instead."""
        gx, gw = gauss_rule(8)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = np.maximum(mid[:, None] + half[:, None] * gx, math.ulp(0.0))
        vals = gw * self._theta(x)
        acc, acc_m = vals[:, 0], x[:, 0] * vals[:, 0]
        for k in range(1, len(gw)):
            acc = acc + vals[:, k]
            acc_m = acc_m + x[:, k] * vals[:, k]
        return half * acc, half * acc_m

    def moments(self, t):
        """(int_0^t Theta, int_0^t tau Theta(tau) d tau) on an array of
        finite times, one stacked Theta call for the partial segments."""
        t = np.asarray(t, dtype=float)
        ts, g, th = self.ts, self.gap, self.theta_end
        out, out_m = np.zeros(t.shape), np.zeros(t.shape)
        inner = (t > 0) & (t < ts[-1])
        k = np.searchsorted(ts, t[inner])
        seg, seg_m = self._segments(self._lower[k], t[inner])
        out[inner] = self._cum[k] + seg
        out_m[inner] = self._cum_m[k] + seg_m
        far = t >= ts[-1]
        if g > 0:
            d = t[far] - ts[-1]
            decay = np.array([math.exp(-g * x) for x in d])
            out[far] = self._cum[-1] + th / g * (1 - decay)
            out_m[far] = self._cum_m[-1] + th / g * (
                ts[-1] * (1 - decay) + (1 - decay) / g - d * decay)
        else:
            out[far] = self._cum[-1] + (INF if th > 0 else 0.0)
            out_m[far] = self._cum_m[-1] + (INF if th > 0 else 0.0)
        return out, out_m

    def __call__(self, t: float) -> float:
        if t == INF:
            return self.total
        return float(self.moments(np.array([t]))[0][0])


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


INSTANCE_KEYS = ("mu", "j", "v", "xi", "gamma")


def _field(doc: dict, name: str, shape=None) -> np.ndarray:
    """doc[name] as a finite float array, of ``shape`` when one is given."""
    if name not in doc:
        raise ValidationError(f"field {name!r} is missing")
    try:
        a = np.asarray(doc[name], dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"field {name!r} is not a numeric array") from None
    if shape is not None and a.shape != shape:
        raise ValidationError(f"field {name!r} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"field {name!r} has a non-finite entry")
    return a


def instance_from_json(text: str):
    """Parse and validate an instance document.

    Returns (space, kernel, potential_or_None, gamma_or_None).  A missing,
    non-numeric, non-finite or wrongly shaped field is rejected by name, as
    are an unknown key and an ``xi`` without ``v``; asymmetric matrices are
    rejected with the first offending pair named.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"instance is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("instance must be a JSON object")
    for key in doc:
        if key not in INSTANCE_KEYS:
            raise ValidationError(f"field {key!r} is not one of {INSTANCE_KEYS}")
    if "xi" in doc and "v" not in doc:
        raise ValidationError("field 'xi' needs the killing potential 'v'")
    space = FiniteMeasureSpace(_field(doc, "mu"))
    m = space.m
    kernel = JumpKernel(space, _field(doc, "j", (m, m)))
    potential = None
    if "v" in doc:
        xi = _field(doc, "xi", (m,)) if "xi" in doc else None
        potential = KillingPotential(_field(doc, "v", (m,)), xi)
    gamma = None
    if "gamma" in doc:
        gamma = WeightFunction(_field(doc, "gamma", (m, m)))
    return space, kernel, potential, gamma
