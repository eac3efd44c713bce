"""Shared numerical utilities: generalized inverses, quadrature, slope fits.

Conventions used throughout the package:

- The extended real line is modelled by IEEE floats; ``math.inf`` is a
  legitimate value for constants that degenerate (empty infima, disconnected
  supports), never a sentinel integer.
- Generalized inverses follow the one-sided conventions
  ``inv_increasing(f, r) = inf{s > 0 : f(s) >= r}`` and
  ``inv_decreasing(f, r) = inf{s > 0 : f(s) <= r}`` with ``inf(empty) = inf``.
- Quadrature is a fixed Gauss-Legendre rule (``gauss_rule``), never adaptive.
"""

from __future__ import annotations

import functools
import math

import numpy as np

INF = math.inf


def first_min(S):
    """The first minimum of the array S in C order and its index, NaN read
    as +inf (as under a strict <); (+inf, None) when no entry is below +inf."""
    scan = np.where(np.isnan(S), INF, S)
    at = np.unravel_index(int(np.argmin(scan)), S.shape) if S.size else None
    return (INF, None) if at is None or scan[at] == INF else (float(S[at]), at)


def safe_pow(x: float, e: float) -> float:
    """x ** e for x > 0 saturating to inf/0 instead of raising on overflow."""
    try:
        return x ** e
    except OverflowError:
        return INF if (math.log(x) * e) > 0 else 0.0


def ext_ratio(a: float, b: float) -> float:
    """Ratio a/b on [0, inf] with 0/0 = 1, inf/inf = 1, r/0 = inf, r/inf = 0."""
    if a == 0.0 and b == 0.0:
        return 1.0
    if math.isinf(a) and math.isinf(b):
        return 1.0
    if b == 0.0:
        return INF
    if math.isinf(b):
        return 0.0
    return a / b


def inv_increasing(fn, target, lo=1e-300, hi=1e300):
    """inf{s > 0 : fn(s) >= target} for a nondecreasing fn, by log bisection.

    Returns 0.0 when already satisfied arbitrarily close to 0, and inf when
    the target is never reached below ``hi``.  Bisection stops once the
    bracket is within relative 1e-12, or after 400 steps.
    """
    if target <= fn(lo):
        return 0.0
    # geometric expansion for a bracket
    a = max(lo, 1e-300)
    b = 1.0
    if fn(b) >= target:
        # shrink toward 0 to find the crossing's lower side
        a = b
        while a > lo and fn(a) >= target:
            b = a
            a = a / 16.0
        if fn(a) >= target:
            return a
    else:
        a = b
        while b < hi:
            b = b * 16.0
            if fn(b) >= target:
                break
            a = b
        else:
            return INF
    for _ in range(400):
        mid = math.sqrt(a * b)
        if fn(mid) >= target:
            b = mid
        else:
            a = mid
        if b - a <= 1e-12 * b:
            break
    return b


def inv_decreasing(fn, target, lo=1e-300, hi=1e300):
    """inf{s > 0 : fn(s) <= target} for a nonincreasing fn; inf(empty) = inf.

    Negation is exact and flips every comparison, so this is
    ``inv_increasing`` on -fn, step for step.
    """
    return inv_increasing(lambda s: -fn(s), -target, lo, hi)


def cumulative_quad(fn, grid):
    """Integral of fn (called on scalars) from grid[0] to each point of a
    monotone positive grid: the 4-node Gauss-Legendre rule in y = log x on
    each segment, split into equal pieces of log width w <= 0.5.  In y, x^q
    is e^{(q+1) y}, integrated to relative 2e-12 (|q+1| w / 0.5)^8 (below
    2e-15 for |q+1| w <= 0.2).  Nodes are grid points times e^{offset}, so
    no digits go to log x far from x = 1.
    """
    grid = np.asarray(grid, dtype=float)
    w = np.log(grid[1:] / grid[:-1])
    n = np.maximum(np.ceil(np.abs(w) / 0.5), 1).astype(int)
    seg = np.repeat(np.arange(len(n)), n)
    h = (w / n)[seg]
    k = np.arange(len(seg)) - (np.cumsum(n) - n)[seg]     # piece in its segment
    gx, gw = gauss_rule(4)
    x = grid[seg, None] * np.exp(h[:, None] * (k[:, None] + 0.5 + 0.5 * gx))
    fx = np.array([fn(v) for v in x.ravel()], dtype=float).reshape(x.shape)
    pieces = 0.5 * h * ((fx * x) @ gw)
    return np.concatenate([[0.0], np.cumsum(np.bincount(seg, pieces, len(n)))])


def loglog_slope(x, y):
    """OLS slope of log y against log x. Requires positive, finite data."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
    lx, ly = np.log(x[keep]), np.log(y[keep])
    if len(lx) < 2:
        raise ValueError("need at least two positive points for a slope fit")
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def end_slope(x, y, end, window=0.25):
    """Local log-log slope over the outer ``window`` fraction of a log range.

    end is "low" or "high".  Used to detect growth trends at grid ends.
    """
    x = np.asarray(x, dtype=float)
    order = np.argsort(x)
    x, y = x[order], np.asarray(y, dtype=float)[order]
    lx = np.log(x)
    span = lx[-1] - lx[0]
    if end == "low":
        keep = lx <= lx[0] + window * span
    else:
        keep = lx >= lx[-1] - window * span
    return loglog_slope(x[keep], y[keep])


@functools.lru_cache(maxsize=None)
def gauss_rule(nodes: int):
    """Gauss-Legendre (nodes, weights) on [-1, 1], built once per node count;
    the arrays are read-only because every caller shares them."""
    rule = np.polynomial.legendre.leggauss(nodes)
    for a in rule:
        a.setflags(write=False)
    return rule


def gauss_segments(a, b, n_seg, nodes):
    """Gauss-Legendre nodes/weights on [a, b] split into n_seg segments whose
    endpoints accumulate geometrically toward a (for an integrable endpoint
    singularity there).  Returns flat (points, weights) arrays.
    """
    edges = a + (b - a) * np.geomspace(1e-8, 1.0, n_seg + 1)
    edges[0] = a
    gx, gw = gauss_rule(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return pts, wts
