"""Discrete subordination on integer lattices and Poissonized semigroups.

The chain: the simple-walk kernels q_k, the k-step laws of the
nearest-neighbor walk, have a binomial closed form; the heavy-tailed
mixture weights c(k) (one-step subordination of exponent alpha/2) combine
them into a single-step kernel p1 with a power-law tail of order
n + alpha; Poissonization in continuous time gives the semigroup whose
on-diagonal and gradient decay rates are the targets of the exponent-fit
checks.

Every windowed object carries an explicit leak/tail bound, and assertions
downstream compare against [value - leak, value + leak].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy.special import gammainc, gammaln

from .numerics import loglog_slope


@dataclass
class LatticeWindow:
    """Values indexed by lattice offsets in the cube [-R, R]^n."""

    n: int
    R: int
    values: np.ndarray
    leak: float = 0.0
    note: str = ""

    def __post_init__(self):
        expect = (2 * self.R + 1,) * self.n
        if self.values.shape != expect:
            raise ValueError(f"window shape {self.values.shape} != {expect}")

    def at(self, offset) -> float:
        idx = tuple(int(o) + self.R for o in np.atleast_1d(offset))
        return float(self.values[idx])

    def offsets_and_radii(self):
        axes = [np.arange(-self.R, self.R + 1)] * self.n
        grids = np.meshgrid(*axes, indexing="ij")
        rad = np.sqrt(sum(g.astype(float) ** 2 for g in grids))
        return grids, rad

    def to_csv(self) -> str:
        axis = range(-self.R, self.R + 1)
        rows = np.asarray(self.values, dtype=float).reshape(-1, len(axis))
        lines = [",".join([f"x{i}" for i in range(self.n)] + ["value"])]
        for prefix, row in zip(itertools.product(axis, repeat=self.n - 1), rows):
            head = "".join(f"{c}," for c in prefix)
            # one repr per distinct bit pattern (rows are symmetric, so about
            # half repeat); unique on the floats would merge 0.0 with -0.0
            # and the NaNs.  Row by row: a whole-window table costs megabytes
            bits, which = np.unique(row.view(np.int64), return_inverse=True)
            texts = [repr(v) for v in bits.view(float).tolist()]
            lines.append("\n".join(f"{head}{x},{texts[i]}"
                                   for x, i in zip(axis, which.tolist())))
        return "\n".join(lines) + "\n"


def _shift(a: np.ndarray, axis: int, step: int) -> np.ndarray:
    out = np.zeros_like(a)
    src = [slice(None)] * a.ndim
    dst = [slice(None)] * a.ndim
    if step > 0:
        dst[axis], src[axis] = slice(step, None), slice(None, -step)
    else:
        dst[axis], src[axis] = slice(None, step), slice(-step, None)
    out[tuple(dst)] = a[tuple(src)]
    return out


@dataclass(frozen=True)
class SubordinationWeights:
    """One-step mixture weights of the alpha/2 subordination."""

    alpha: float
    K: int
    c: np.ndarray
    tail: float

    def __post_init__(self):
        if np.any(self.c <= 0):
            raise ValueError("weights must be positive")


def weight_tail(alpha: float, K: float) -> float:
    """Exact mass beyond K: Gamma(K+1-alpha/2) / (Gamma(1-alpha/2) Gamma(K+1)).

    Telescoping of the weight recurrence; works for K far beyond anything an
    explicit array could hold.
    """
    a2 = alpha / 2.0
    return float(math.exp(gammaln(K + 1 - a2) - gammaln(1 - a2) - gammaln(K + 1)))


def weight_at(alpha: float, k: float) -> float:
    """c(k) = (alpha/2) Gamma(k - alpha/2) / (Gamma(1 - alpha/2) Gamma(k+1))."""
    a2 = alpha / 2.0
    return float(a2 * math.exp(gammaln(k - a2) - gammaln(1 - a2) - gammaln(k + 1)))


def subord_weights(alpha: float, K: int) -> SubordinationWeights:
    """Weights by the ratio recurrence c(k+1) = c(k) (k - alpha/2)/(k + 1),
    seeded at c(1) = alpha/2; the truncation tail uses the exact closed form.
    """
    if not (0 < alpha < 2) or K < 1:
        raise ValueError("need alpha in (0,2) and K >= 1")
    ks = np.arange(1, K, dtype=float)
    factors = (ks - alpha / 2.0) / (ks + 1.0)
    c = np.empty(K)
    c[0] = alpha / 2.0
    if K > 1:
        c[1:] = c[0] * np.cumprod(factors)
    return SubordinationWeights(alpha, K, c, weight_tail(alpha, K))


# rows per chunk of the exact p1 routes: those of a full P1_CHUNK-element
# binomial table, of which the two parity blocks store about half
P1_CHUNK = 2_000_000


def p1_kernel(n: int, alpha: float, K: int, R: int):
    """Single-step subordinated kernel p1 = sum_k c(k) q_k on the window.

    q_k is evaluated pointwise from the binomial law (n = 1, and n = 2 via
    the rotation to two independent diagonal walks), which permits K far
    beyond R, as the far-field power-law checks need.  Every binomial comes
    from one log-factorial vector, a chunk of rows at a time as two parity
    blocks, so memory does not grow with K.
    For n = 2, p1(x) = Q(|x1 + x2|, |x1 - x2|) with Q(u, v) = sum_k c(k) q_k(u) q_k(v)
    symmetric, as q_k(-j) = q_k(j): the table keeps the columns j >= 0, the
    product fills the strip u <= R of the quadrant, and Q is read at (min, max),
    so p1 is exactly invariant under the eight symmetries of the square.
    Returns (window, per_entry_tail_bound).
    """
    if n not in (1, 2):
        raise ValueError("p1 is implemented for n in {1, 2}")
    w = subord_weights(alpha, K)
    width = R if n == 1 else 2 * R
    logfact = np.pad(gammaln(np.arange(K + 1.0) + 1), width, constant_values=np.inf)
    M = np.zeros(2 * width + 1 if n == 1 else (R + 1, width + 1))
    chunk = max(1, P1_CHUNK // (2 * width + 1))
    for lo in range(0, K, chunk):
        hi = min(K, lo + chunk)
        for par, k0, T in _binom_parity_blocks(logfact, lo + 1, hi, width,
                                               -width if n == 1 else 0):
            cT = w.c[k0 - 1:hi:2, None] * T
            if n == 1:
                # row by row, not by BLAS: threaded gemv splits the k axis,
                # so its rounding would depend on the thread count
                M[par::2] += cT.sum(axis=0)
            else:
                M[par::2, par::2] += T[:, :(R - par) // 2 + 1].T @ cT
    a = np.abs(np.arange(-R, R + 1))
    acc = M if n == 1 else M[np.abs(np.subtract.outer(a, a)), np.add.outer(a, a)]
    # beyond-K mass can sit anywhere with q_k <= sup_k>K q_k(0,0)
    per_entry = w.tail * min(1.0, (n / (2 * math.pi * (K + 1))) ** (n / 2.0) * 2.0 ** n)
    return LatticeWindow(n, R, acc, leak=w.tail,
                         note=f"weights truncated at K={K}"), per_entry


def _binom_parity_blocks(logfact: np.ndarray, k_lo: int, k_hi: int, width: int, j_lo: int):
    """Yield (par, k0, block): the walk table q_k(j), j_lo <= j <= width, on rows
    k0, k0 + 2, ... <= k_hi and columns j = width + par (mod 2), where their
    nonzero entries lie. Row k reads log(u!) from a strided window S of
    ``logfact`` (log(i!), +inf padded) and log((k - u)!) from its reverse, both
    sliced from j_lo on; exp(-inf) = 0 masks |j| > k.
    """
    for par in (0, 1):
        k0 = k_lo + (width + par - k_lo) % 2
        ks = np.arange(k0, k_hi + 1, 2, dtype=float)[:, None]
        S = np.lib.stride_tricks.sliding_window_view(logfact, width + 1 - par)
        S = S[(k0 + width + par) // 2:][:ks.shape[0]]
        first = (j_lo + width - par + 1) // 2
        logk = logfact[width + k0:width + k_hi + 1:2, None]
        # in place, in the order logk - S - S_reversed - k log 2
        T = logk - S[:, first:]
        T -= S[:, ::-1][:, first:]
        T -= ks * math.log(2.0)
        yield par, k0, np.exp(T, out=T)


# gammainc(s, z) is exactly 1.0 for z >= Z_STAR at every s in (1/2, 2), the
# range of s = (n + alpha)/2 for n in {1, 2}; the last value below 1.0 lies
# near z = 41.2.  tests/test_lattice.py pins this.
Z_STAR = 50.0


def _tail_formula(n: int, alpha: float, K1: int, radii_sq: np.ndarray) -> np.ndarray:
    """Closed form of sum_{k > K1} c(k) q_k(0, x) in the local-CLT regime.

    With c(k) ~ A k^{-1-alpha/2} and q_k(0,x) ~ (n/(2 pi k))^{n/2}
    e^{-n |x|^2 / (2k)} (the parity factor cancels against the parity
    density of admissible k), the k-sum is an incomplete-gamma integral:

        A (n/(2 pi))^{n/2} b^{-s} gamma_low(s, b/K1),   b = n |x|^2 / 2,

    with s = (n + alpha)/2.  Relative error is O(1/K1) plus the uniformly
    integrable local-CLT correction.
    """
    A = alpha / (2.0 * math.gamma(1.0 - alpha / 2.0))
    s = 0.5 * (n + alpha)
    b = 0.5 * n * np.asarray(radii_sq, dtype=float)
    pref = A * (n / (2.0 * math.pi)) ** (n / 2.0) * math.gamma(s)
    small = b < 1e-12
    z = b / K1
    lower = np.ones_like(z)
    near = z < Z_STAR
    lower[near] = gammainc(s, z[near])
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = pref * b ** (-s) * lower
    # b -> 0 limit: gamma_low(s, z) ~ z^s / s
    vals = np.where(small, pref / math.gamma(s) * K1 ** (-s) / s, vals)
    return vals


def p1_hybrid(n: int, alpha: float, R: int, K1: int = 20000) -> LatticeWindow:
    """p1 on a wide window: exact mixture up to K1 steps plus the closed
    incomplete-gamma tail for all later steps.

    The exact part is only materialized inside the radius
    min(R, max(32, 3 sqrt(K1/n))) (beyond it the k <= K1 walk mass at such
    distances is double-exponentially small), which keeps the binomial
    tables affordable on windows far wider than any feasible convolution
    depth.
    """
    exact_radius = min(R, max(32, int(math.sqrt(K1 / max(n, 1)) * 3)))
    inner, _ = p1_kernel(n, alpha, K1, exact_radius)
    _, rad = LatticeWindow(n, R, np.zeros((2 * R + 1,) * n)).offsets_and_radii()
    vals = _tail_formula(n, alpha, K1, rad ** 2)
    core = tuple(slice(R - exact_radius, R + exact_radius + 1) for _ in range(n))
    vals[core] += inner.values
    return LatticeWindow(n, R, vals, leak=max(0.0, 1.0 - float(vals.sum())),
                         note=f"hybrid exact<=K1={K1} + gamma tail")


def torus_semigroup(n: int, alpha: float, R: int, t_grid, K1: int = 20000):
    """Poissonized semigroup rows on the torus of side L = 2R + 1, exactly.

    The single-step kernel is periodized (power-law images up to two periods
    away per axis, in closed form), renormalized to a probability, and
    exponentiated in Fourier space: p_t = IFFT exp(-t (1 - FFT p1)).  One
    transform per time value; no truncation of the Poisson series at all.
    Wrap-around images bias entries by O(t / L^{n + alpha}), reported as
    ``leak``.
    """
    win = p1_hybrid(n, alpha, R, K1)
    vals = win.values.copy()
    L = 2 * R + 1
    grids, _ = win.offsets_and_radii()
    images = 2
    for shift in np.ndindex(*(2 * images + 1,) * n):
        off = np.array(shift) - images
        if not off.any():
            continue
        r2 = sum((g + o * L).astype(float) ** 2 for g, o in zip(grids, off))
        vals += _tail_formula(n, alpha, K1, r2)
    adjust = float(vals.sum())
    vals /= adjust
    khat = sfft.rfftn(np.fft.ifftshift(vals))
    out = {}
    bias = max(abs(1.0 - adjust), 1e-16)
    for t in t_grid:
        pt = sfft.irfftn(np.exp(-float(t) * (1.0 - khat)), s=vals.shape)
        pt = np.fft.fftshift(pt)
        out[float(t)] = LatticeWindow(n, R, pt, leak=float(t) * bias,
                                      note="torus exponential")
    return out


def power_law_band(window: LatticeWindow, exponent_target: float,
                   r_lo: float, r_hi: float):
    """Log-log slope and band of value * |x|^{target} over a radius range."""
    _, rad = window.offsets_and_radii()
    sel = (rad >= r_lo) & (rad <= r_hi) & (window.values > 0)
    r = rad[sel].ravel()
    v = window.values[sel].ravel()
    slope = loglog_slope(r, v)
    scaled = v * r ** exponent_target
    return {"slope": slope, "band_ratio": float(scaled.max() / scaled.min()),
            "points": int(r.size)}


def on_diagonal_decay(semigroup_rows: dict):
    ts = sorted(semigroup_rows)
    vals = [semigroup_rows[t].at((0,) * semigroup_rows[t].n) for t in ts]
    return np.array(ts), np.array(vals)


def gradient_decay(semigroup_rows: dict):
    """g(t) = max over unit directions of the L1 distance of neighbor rows."""
    ts = sorted(semigroup_rows)
    out = []
    for t in ts:
        win = semigroup_rows[t]
        worst = 0.0
        for axis in range(win.n):
            diff = np.abs(win.values - _shift(win.values, axis, 1)).sum()
            worst = max(worst, float(diff))
        out.append(worst)
    return np.array(ts), np.array(out)


# ---------------------------------------------------------------------------
# truncated kernels

def _bump_candidates(mm: int, widths) -> list:
    """Triangular and raised-cosine bumps centered in a 1-D window."""
    xs = np.arange(mm, dtype=float) - (mm - 1) / 2.0
    out = []
    for w in widths:
        tri = np.clip(1.0 - np.abs(xs) / w, 0.0, None)
        cosb = np.where(np.abs(xs) <= w, 0.5 * (1 + np.cos(math.pi * xs / w)), 0.0)
        out += [tri, cosb]
    return out


def truncated_crossover_curve(alpha: float, R: int = 1536, ell: int = 48):
    """Empirical rate curve of the 1-D range-ell truncated stable kernel.

    The kernel keeps lattice jumps up to range ell, so scales below ell
    behave stably (rate exponent -1/alpha in one dimension) and scales above
    diffusively (exponent -1/2).  Bump candidates of log-spaced widths drive
    the estimator (their squared mass and energy are r-independent, so the
    envelope over candidates is evaluated on the whole r grid at once); each
    branch is fitted only over the r range whose optimal width lies strictly
    inside its scale window, which is what the two regimes mean.  Every
    value is a certified lower bound of the optimal rate.
    """
    n = 1
    mm = 2 * R + 1
    d = np.arange(1, ell + 1, dtype=float)
    jd = d ** (-(n + alpha))
    sigma2 = float(np.sum(2.0 * d ** 2 * jd))

    def energy(f):
        total = 0.0
        for dist, rate in zip(d.astype(int), jd):
            diff = f[dist:] - f[:-dist]
            total += rate * float(np.dot(diff, diff))
        return total

    widths = np.geomspace(3.0, R / 3.0, 48)
    cands = _bump_candidates(mm, widths)
    xs = np.arange(mm, dtype=float) - R
    cand_widths = np.repeat(widths, 2).tolist()
    for w in widths:
        cands.append((np.abs(xs) <= w).astype(float))
        cand_widths.append(w)
    s2 = np.empty(len(cands))
    en = np.empty(len(cands))
    for i, f in enumerate(cands):
        g = np.asarray(f, float) / float(np.abs(f).sum())
        s2[i] = float(np.dot(g, g))
        en[i] = energy(g)
    r_lo = 0.25 * 3.0 ** alpha / float(2.0 * jd.sum())
    r_hi = 4.0 * (R / 3.0) ** 2 / sigma2
    r_grid = np.geomspace(r_lo, r_hi, 80)
    vals = s2[None, :] - r_grid[:, None] * en[None, :]
    beta = vals.max(axis=1)
    arg_w = np.array([cand_widths[k] for k in vals.argmax(axis=1)])
    keep = beta > 0
    stable_sel = keep & (arg_w > 4.0) & (arg_w < 0.5 * ell)
    diff_sel = keep & (arg_w > 3.0 * ell) & (arg_w < R / 4.0)
    return {
        "r": r_grid, "beta": beta, "opt_width": arg_w,
        "slope_stable": loglog_slope(r_grid[stable_sel], beta[stable_sel]),
        "slope_diffusive": loglog_slope(r_grid[diff_sel], beta[diff_sel]),
        "target_stable": -n / alpha, "target_diffusive": -n / 2.0,
        "stable_points": int(stable_sel.sum()),
        "diffusive_points": int(diff_sel.sum()),
        "ell": ell, "R": R,
    }
