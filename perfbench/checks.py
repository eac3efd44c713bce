"""Checks of the CLI's outputs against computations made apart from it.

Each ``check_*`` function returns a list of problems (empty when the output
is correct).  Oracles are brute force or closed forms from the paper; none
compares against a stored copy of earlier output, and none trusts the CLI's
exit code or ``worst_slack``.  Only numpy is imported, so the checks can be
tested without the program.
"""

from __future__ import annotations

import hashlib
import io
import json
import math

import numpy as np

REL = 1e-12                      # profile, C_indicator and c_gamma agreement
C_STAR = 2.0 / (1.0 - math.exp(-1.0))   # traced constant of Thm 2.1
CLASSES = ["below", "at", "above"]


def _f(x) -> float:
    """A report number; the CLI writes infinities and NaN as strings."""
    return float(x)


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def csv_table(text: str, dtype=float):
    """Rows of a CSV written by the CLI, header skipped.  Under numpy 2 the
    CLI writes numpy scalars as ``np.float64(x)``; the wrapper is dropped so
    that the numbers themselves are checked."""
    text = text.replace("np.float64(", "").replace(")", "")
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1,
                      dtype=dtype, ndmin=2)


def ols_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    lx = lx - lx.mean()
    return float(lx @ (ly - ly.mean()) / (lx @ lx))


# ---------------------------------------------------------------------------
# finite instances

def subset_table(inst: dict):
    """Masks, masses and gamma-weighted flows of every nonempty proper subset,
    by direct summation over each subset's boundary pairs."""
    mu = np.asarray(inst["mu"], float)
    j = np.asarray(inst["j"], float)
    g = np.asarray(inst.get("gamma", np.ones_like(j)), float)
    m = mu.size
    masks = np.arange(1, (1 << m) - 1, dtype=np.int64)
    inside = ((masks[:, None] >> np.arange(m)) & 1).astype(float)
    w = g * j * mu[:, None] * mu[None, :]
    flows = np.einsum("ki,ij,kj->k", inside, w, 1.0 - inside)
    return masks, inside @ mu, flows


def c_gamma(inst: dict) -> float:
    """max_x sum_y gamma(x, y)^2 j(x, y) mu(y)."""
    mu = np.asarray(inst["mu"], float)
    j = np.asarray(inst["j"], float)
    g = np.asarray(inst.get("gamma", np.ones_like(j)), float)
    return float(np.max((g ** 2 * j * mu[None, :]).sum(axis=1)))


def check_rows(report: dict) -> list:
    """Every check row clears its own tolerance."""
    bad = []
    for row in report.get("checks", []):
        s = _f(row["slack"])
        if not s >= -_f(row["tol"]):          # NaN fails too
            bad.append(f"{report.get('theorem')}: row {row['claim']!r} slack {s!r}")
    if not report.get("checks"):
        bad.append(f"{report.get('theorem')}: no check rows")
    return bad


def check_thm41(report: dict, inst: dict) -> list:
    """C_indicator = max over proper A of sqrt(mu(A)) / (2 flow_gamma(A)) for
    N(s) = s^2, and c_gamma as defined."""
    _, masses, flows = subset_table(inst)
    want = float(np.max(np.sqrt(masses) / (2.0 * flows)))
    got = _f(report["derived"]["C_indicator"])
    bad = [] if _close(got, want) else [f"thm41: C_indicator {got!r} != {want!r}"]
    got_c, want_c = _f(report["derived"]["c_gamma"]), c_gamma(inst)
    if not _close(got_c, want_c):
        bad.append(f"thm41: c_gamma {got_c!r} != {want_c!r}")
    return bad


def check_thm21(report: dict) -> list:
    emp = report.get("derived", {}).get("empirical_constant")
    if emp is None or not 0.0 < _f(emp) <= C_STAR:
        return [f"thm21: empirical_constant {emp!r} outside (0, {C_STAR!r}]"]
    return []


def instance_digest(text: str) -> str:
    """The CLI's inputs_digest of an instance file."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_verify(doc: dict, instance_texts: list, theorems: list) -> list:
    """Per (instance, theorem) report: a list of problem lists, in the order
    the reports are expected."""
    reports = doc.get("reports", [])
    expected = [(i, t) for i in range(len(instance_texts)) for t in theorems]
    out = []
    for k, (i, thm) in enumerate(expected):
        if k >= len(reports):
            out.append([f"report {k} ({thm} on instance {i}) missing"])
            continue
        rep, bad = reports[k], []
        if rep.get("theorem") != thm:
            bad.append(f"report {k}: theorem {rep.get('theorem')!r} != {thm!r}")
        if rep.get("inputs_digest") != instance_digest(instance_texts[i]):
            bad.append(f"report {k}: inputs digest does not match instance {i}")
        bad += check_rows(rep)
        if not bad:
            inst = json.loads(instance_texts[i])
            if thm == "thm41":
                bad += check_thm41(rep, inst)
            elif thm == "thm21":
                bad += check_thm21(rep)
        out.append(bad)
    if len(reports) != len(expected):
        out[-1] = out[-1] + [f"{len(reports)} reports, expected {len(expected)}"]
    return out


def check_profile(csv_text: str, report: dict, inst: dict) -> list:
    """profile.csv lists every proper subset once, with the brute-force mass
    and flow; global_min_ratio is the minimum of flow/mass."""
    masks, masses, flows = subset_table(inst)
    rows = csv_table(csv_text, dtype=str)
    got_masks = np.array([int(h, 16) for h in rows[:, 2]], dtype=np.int64)
    if not np.array_equal(np.sort(got_masks), masks):
        return ["profile.csv does not list each proper subset exactly once"]
    idx = got_masks - 1                       # masks[k] == k + 1
    got_mass, got_flow = rows[:, 0].astype(float), rows[:, 1].astype(float)
    bad = []
    for label, got, want in (("mass", got_mass, masses[idx]),
                             ("flow", got_flow, flows[idx])):
        err = np.abs(got - want) / np.abs(want)
        if not np.all(err <= REL):
            k = int(np.argmax(err))
            bad.append(f"profile.csv: {label} of mask {got_masks[k]:x} is "
                       f"{got[k]!r}, brute force {want[k]!r}")
    want_min = float(np.min(flows / masses))
    if not _close(_f(report["global_min_ratio"]), want_min):
        bad.append(f"global_min_ratio {report['global_min_ratio']!r} != {want_min!r}")
    if report.get("subsets") != masks.size:
        bad.append(f"subsets {report.get('subsets')!r} != {masks.size}")
    return bad


def check_rate_from_gauge(rate_from_gauge, N, C: float) -> list:
    """rate_from_gauge(N, C, lead=2) for N(s) = s^2 has the closed forms
    beta1(r) = 2 (C/r)^2 and beta1^{-1}(u) = C sqrt(2/u)."""
    beta = rate_from_gauge(N, C, lead=2.0)
    bad = []
    for r in np.geomspace(1e-2, 1e2, 9) * C:
        want = 2.0 * (C / r) ** 2
        if not _close(beta(r), want, 1e-9):
            bad.append(f"beta1({r!r}) = {beta(r)!r}, closed form {want!r}")
        if not _close(beta.inv(want), r, 1e-9):
            bad.append(f"beta1^-1({want!r}) = {beta.inv(want)!r}, closed form {r!r}")
    return bad


# ---------------------------------------------------------------------------
# continuum

def check_p1(csv_text: str, report: dict, n: int, alpha: float, R: int) -> list:
    """The single-step kernel decays like |x|^{-(n+alpha)} over 2 <= |x| <=
    R/2 (slope within 0.1, band ratio <= 10), refit from p1.csv; the first
    subordination weight is alpha/2."""
    bad = []
    if abs(_f(report["first_weight"]) - alpha / 2.0) > 1e-12:
        bad.append(f"first weight {report['first_weight']!r} != {alpha / 2!r}")
    table = csv_table(csv_text)
    if table.shape != ((2 * R + 1) ** n, n + 1):
        return bad + [f"p1.csv has shape {table.shape}"]
    rad = np.sqrt((table[:, :n] ** 2).sum(axis=1))
    v = table[:, n]
    sel = (rad >= 2.0) & (rad <= R / 2.0) & (v > 0)
    slope = ols_slope(rad[sel], v[sel])
    if abs(slope + n + alpha) > 0.1:
        bad.append(f"p1 slope {slope!r}, target {-(n + alpha)!r}")
    scaled = v[sel] * rad[sel] ** (n + alpha)
    if scaled.max() / scaled.min() > 10.0:
        bad.append(f"p1 band ratio {scaled.max() / scaled.min()!r} > 10")
    return bad


def check_torus(report: dict, n: int, alpha: float) -> list:
    """Diagonal decay t^{-n/alpha} and gradient decay t^{-1/alpha}, to 10%."""
    bad = []
    for key, target in (("diag_slope", -n / alpha), ("grad_slope", -1.0 / alpha)):
        got = _f(report[key])
        if abs(got - target) > 0.10 * abs(target):
            bad.append(f"{key} {got!r}, target {target!r}")
    return bad


def check_sharpness(csv_text: str, report: dict, n: int, a1: float, a2: float,
                    mode: str) -> list:
    """Cone energies scale as s^{n+1-a/2} with a = min(alpha) at one end and
    max(alpha) at the other (which end depends on the kernel mode), to 0.05,
    refit from cone_energy.csv; the critical Young profile is flat."""
    table = csv_table(csv_text)
    s, v = table[:, 0], table[:, 1]
    lo_a, hi_a = (min(a1, a2), max(a1, a2))
    if mode == "max_kernel":
        lo_a, hi_a = hi_a, lo_a
    bad = []
    for end, sel, a in (("low", s < 1.0, lo_a), ("high", s > 1.0, hi_a)):
        slope, target = ols_slope(s[sel], v[sel]), n + 1 - a / 2.0
        if abs(slope - target) > 0.05:
            bad.append(f"cone energy {end} slope {slope!r}, target {target!r}")
    for slope in report["profile_slopes"]:
        if abs(_f(slope)) > 0.01:
            bad.append(f"critical profile slope {slope!r} not flat")
    return bad


def check_perturbed(report: dict, n: int, alpha: float, eps: list) -> list:
    """eps = alpha/4, alpha/2, alpha classify below/at/above the threshold
    alpha/2, and the beta curve at eps = alpha decays with slope
    -2n/alpha - (n+eps)/(2 eps - alpha), to 15%."""
    bad = []
    rows = report["rows"]
    classes = [row["class"] for row in rows]
    if [row["eps"] for row in rows] != eps or classes != CLASSES:
        bad.append(f"classes {classes} for eps {[row['eps'] for row in rows]}")
    e = eps[-1]
    target = -2.0 * n / alpha - (n + e) / (2.0 * e - alpha)
    got = _f(report["beta_slope"])
    if abs(got - target) > 0.15 * abs(target):
        bad.append(f"beta slope {got!r}, target {target!r}")
    return bad
