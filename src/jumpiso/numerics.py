"""Shared numerical utilities: generalized inverses, quadrature, slope fits.

Conventions used throughout the package:

- The extended real line is modelled by IEEE floats; ``math.inf`` is a
  legitimate value for constants that degenerate (empty infima, disconnected
  supports), never a sentinel integer.
- Generalized inverses follow the one-sided conventions
  ``inv_increasing(f, r) = inf{s > 0 : f(s) >= r}`` and
  ``inv_decreasing(f, r) = inf{s > 0 : f(s) <= r}`` with ``inf(empty) = inf``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate

INF = math.inf

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


def inv_increasing(fn, target, lo=1e-300, hi=1e300, rtol=1e-12, max_iter=400):
    """inf{s > 0 : fn(s) >= target} for a nondecreasing fn, by log bisection.

    Returns 0.0 when already satisfied arbitrarily close to 0, and inf when
    the target is never reached below ``hi``.
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
    for _ in range(max_iter):
        mid = math.sqrt(a * b)
        if fn(mid) >= target:
            b = mid
        else:
            a = mid
        if b - a <= rtol * b:
            break
    return b


def inv_decreasing(fn, target, lo=1e-300, hi=1e300, rtol=1e-12, max_iter=400):
    """inf{s > 0 : fn(s) <= target} for a nonincreasing fn; inf(empty) = inf."""
    if fn(lo) <= target:
        return 0.0
    a = max(lo, 1e-300)
    b = 1.0
    if fn(b) <= target:
        a = b
        while a > lo and fn(a) <= target:
            b = a
            a = a / 16.0
        if fn(a) <= target:
            return a
    else:
        a = b
        while b < hi:
            b = b * 16.0
            if fn(b) <= target:
                break
            a = b
        else:
            return INF
    for _ in range(max_iter):
        mid = math.sqrt(a * b)
        if fn(mid) <= target:
            b = mid
        else:
            a = mid
        if b - a <= rtol * b:
            break
    return b


def quad(fn, a, b, rtol=1e-8, atol=1e-14, limit=200):
    """Adaptive Gauss-Kronrod quadrature (QUADPACK) with package defaults."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(fn, a, b, epsrel=rtol, epsabs=atol, limit=limit)
    return val


def cumulative_quad(fn, grid, rtol=1e-8, atol=1e-14, power_head=False):
    """Integral of fn from grid[0] to each grid point, by segment quadrature.

    With ``power_head`` and grid[0] == 0, the first segment is integrated by
    a local power-law fit of fn instead of quadrature: adaptive rules lose
    digits at algebraic endpoint singularities, while integrands here are
    asymptotically pure powers below the first positive grid point.
    """
    grid = np.asarray(grid, dtype=float)
    out = np.empty_like(grid)
    out[0] = 0.0
    start = 1
    if power_head and grid[0] == 0.0 and len(grid) > 1:
        t0 = grid[1]
        f0, fh = fn(t0), fn(t0 / 2.0)
        if f0 > 0 and fh > 0:
            # signed local exponent q of fn ~ A t^q near 0
            q = math.log(f0 / fh) / math.log(2.0)
            if q > -1.0:
                out[1] = f0 * t0 / (1.0 + q)
                start = 2
    for i in range(start, len(grid)):
        out[i] = out[i - 1] + quad(fn, grid[i - 1], grid[i], rtol=rtol, atol=atol, limit=60)
    return out


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


def gauss_segments(a, b, n_seg, nodes=16, geometric_to=None):
    """Gauss-Legendre nodes/weights on [a, b] split into n_seg segments.

    With ``geometric_to`` set to "left" or "right", segment endpoints
    accumulate geometrically toward that end (for integrable endpoint
    singularities).  Returns flat (points, weights) arrays.
    """
    if geometric_to is None:
        edges = np.linspace(a, b, n_seg + 1)
    else:
        ratios = np.geomspace(1e-8, 1.0, n_seg + 1)
        if geometric_to == "left":
            edges = a + (b - a) * ratios
            edges[0] = a
        else:
            edges = b - (b - a) * ratios[::-1]
            edges[-1] = b
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return pts, wts
