"""Radially symmetric continuum integrals: the L1 energy of cone test
functions under piecewise power kernels, and the boundedness/divergence
dichotomy for gauge sharpness.

Everything reduces to one-dimensional integrals in the radius via the exact
surface factor n omega_n rho^{n-1}; the kernels used here are piecewise pure
powers, so their moment integrals are closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import INF, end_slope
from .young import YoungFunction

# the radial kernel profiles k(u) of a sharpness scan
MODES = ("min_kernel", "max_kernel", "truncated")


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _power_int(e: float, a: float, b: float) -> float:
    """Integral of u^e over [a, b] with the log case."""
    if b <= a:
        return 0.0
    if e == -1.0:
        return math.log(b / a)
    return (b ** (e + 1) - a ** (e + 1)) / (e + 1)


def _kernel_pieces(n: int, mode: str, alpha1: float, alpha2: float):
    """(exponent below 1, exponent above 1, upper support bound) of the
    radial kernel profile k(u)."""
    if mode == "min_kernel":
        # 1 / (u^{n+a1/2} v u^{n+a2/2})
        return (-(n + min(alpha1, alpha2) / 2.0),
                -(n + max(alpha1, alpha2) / 2.0), INF)
    if mode == "max_kernel":
        return (-(n + max(alpha1, alpha2) / 2.0),
                -(n + min(alpha1, alpha2) / 2.0), INF)
    if mode == "truncated":
        return (-(n + alpha1 / 2.0), 0.0, 1.0)
    raise ValueError(f"mode must be one of {MODES}")


def _power_int_to_inf(e: float, a: float) -> float:
    if e >= -1.0:
        return INF
    return -a ** (e + 1) / (e + 1)


def radial_l1_energy(n: int, alpha1: float, alpha2: float, mode: str,
                     s: float) -> float:
    """The closed-form bounding integral for the cone functions:

        2 int_{|x| < s} dx int (s ^ |x-y|) k(|x-y|) dy
        = 2 omega_n s^n * n omega_n * int_0^inf (s ^ u) k(u) u^{n-1} du,

    since the inner integral does not depend on the base point.  The kernel
    profile is piecewise a pure power (breaks at u = 1 and at the truncation
    bound), so every piece has an explicit antiderivative.
    """
    e_lo, e_hi, support = _kernel_pieces(n, mode, alpha1, alpha2)
    if e_lo + n <= -1.0:
        raise ValueError("kernel not integrable near zero")

    def moment(e: float, a: float, b: float) -> float:
        # integral of (s ^ u) u^{n-1+e} over [a, b]
        if math.isinf(b):
            mid = max(s, a)
            head = _power_int(n + e, a, mid) if s > a else 0.0
            return head + s * _power_int_to_inf(n - 1 + e, mid)
        mid = min(max(s, a), b)
        return _power_int(n + e, a, mid) + s * _power_int(n - 1 + e, mid, b)

    total = moment(e_lo, 0.0, min(1.0, support))
    if support > 1.0 or math.isinf(support):
        total += moment(e_hi, 1.0, support)
    omega = unit_ball_volume(n)
    return 2.0 * omega * s ** n * n * omega * total


def sharpness_profile(n: int, alpha1: float, alpha2: float, N: YoungFunction,
                      s_grid):
    """The normalized gauge obstruction s^n N(s^{a1/2-n} v s^{a2/2-n}),
    at the comparison constant c9 = 1.

    Bounded over all scales exactly for the critical Young function; any
    function not dominated by it blows up along one end.  Returns the grid
    values with fitted end trends.
    """
    s = np.asarray(s_grid, dtype=float)
    arg = np.maximum(s ** (alpha1 / 2.0 - n), s ** (alpha2 / 2.0 - n))
    vals = s ** n * np.asarray(N(arg), dtype=float)
    return {
        "s": s, "values": vals,
        "slope_low": end_slope(s, vals, "low"),
        "slope_high": end_slope(s, vals, "high"),
        "max_over_mid": float(vals.max() / vals[len(vals) // 2]),
    }
