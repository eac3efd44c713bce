"""Manifest-driven experiment runner.

Subcommands: verify, enumerate, subordinate, sharpness, perturbed, generate.
Every experiment reads a JSON manifest (kind, seed, parameters), writes one
report JSON plus CSV summaries into the output directory, and exits 0 only
if every contained check passed (2 on validation errors).  Identical
manifests and seeds produce byte-identical outputs: no timestamps, sorted
keys, shortest-roundtrip float formatting.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .core import (Semigroup, ValidationError, instance_from_json,
                   instance_to_json)
from .instances import random_functions, random_instance
from .isoperimetry import (coarea_check, enumerate_profile,
                           indicator_gauge_constant, thm20_backward,
                           thm20_poincare)
from .lattice import (p1_kernel, power_law_band, subord_weights,
                      torus_semigroup, on_diagonal_decay, gradient_decay,
                      weight_tail)
from .numerics import loglog_slope
from .perturbed import example_threshold, log_weight, theorem_beta_curve
from .radial import MODES, radial_l1_energy, sharpness_profile
from .reports import TheoremReport, digest, summary_csv, _jsonable
from .superpoincare import certified_rates, lemma2_bound, sp_decay_check
from .theorems import rate_from_gauge, rate_grid, thm21_verify, thm41, thm42, thm43
from .young import builtin

# the r_grid point at which thm20_poincare takes C1 = r and C2~ = beta(r)
POINCARE_INDEX = 5


class ManifestError(ValueError):
    pass


def load_manifest(path: str, kinds) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read the manifest {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    kind = doc.get("kind")
    if kind not in kinds:
        raise ManifestError(f"field 'kind': got {kind!r}, expected one of {kinds}")
    if "seed" not in doc or not isinstance(doc["seed"], int):
        raise ManifestError("field 'seed': a plain integer seed is required")
    tolerances = _object(doc, "tolerances", {})
    for key in tolerances:
        if key != "slack":
            raise ManifestError(f"field {key!r}: unknown tolerance, expected 'slack'")
        _tolerance(tolerances, key)
    return doc


def _checked(doc: dict, name: str, default, allowed, expect: str):
    """doc[name], or ``default`` when it is absent (None: the field is
    required); a value that ``allowed`` refuses is a ManifestError that
    names the field."""
    val = doc.get(name, default)
    if val is None:
        raise ManifestError(f"field {name!r} is required")
    if isinstance(val, bool) or not allowed(val):
        raise ManifestError(f"field {name!r}: got {val!r}, expected {expect}")
    return val


def _alpha(doc: dict, name: str, default):
    """A stable index in (0, 2)."""
    return _checked(doc, name, default,
                    lambda a: isinstance(a, (int, float)) and 0 < a < 2,
                    "a number in (0, 2)")


def _count(doc: dict, name: str, default):
    """A positive integer."""
    return _checked(doc, name, default, lambda v: isinstance(v, int) and v > 0,
                    "a positive integer")


def _object(doc: dict, name: str, default):
    """A JSON object."""
    return _checked(doc, name, default, lambda v: isinstance(v, dict), "an object")


def _tolerance(doc: dict, name: str):
    """A slack tolerance: a positive finite number."""
    return _checked(doc, name, None, lambda v: _positives([v], 1),
                    "a positive finite number")


def _positives(v, least: int) -> bool:
    """Whether v is a list of positive finite numbers, at least ``least`` of
    them distinct."""
    return (isinstance(v, list) and all(type(x) in (int, float) and 0 < x < math.inf
                                        for x in v) and len(set(v)) >= least)


def _fit_grid(v) -> bool:
    """Whether v is a sharpness grid: positive numbers, two or more distinct
    in each range that a slope is fitted on (s <= 0.1, s >= 10 and the
    outer quarters of the log range, as in ``numerics.end_slope``)."""
    if not _positives(v, 2):
        return False
    s = np.unique(np.asarray(v, dtype=float))
    lx, quarter = np.log(s), 0.25 * (np.log(s[-1]) - np.log(s[0]))
    return all(np.sum(k) > 1 for k in (s <= 0.1, s >= 10.0, lx <= lx[0] + quarter,
                                       lx >= lx[-1] - quarter))


def _names(doc: dict, name: str, default):
    """A nonempty list of strings."""
    return _checked(doc, name, default, lambda v: isinstance(v, list) and len(v) > 0
                    and all(isinstance(x, str) for x in v), "a nonempty list of names")


def _m_range(doc: dict):
    """The size range (low, high) of random instances: two positive integers,
    low <= high (equal ends give one size)."""
    return tuple(_checked(doc, "m_range", [3, 10], lambda v: isinstance(v, list)
                          and len(v) == 2 and all(type(x) is int and x > 0 for x in v)
                          and v[0] <= v[1], "two positive integers [low, high], low <= high"))


def _dim(doc: dict, dims: tuple):
    """The lattice dimension n, one of ``dims``; the first is the default."""
    return _checked(doc, "n", dims[0], lambda n: isinstance(n, int) and n in dims,
                    f"one of {dims}")


def _write(out_dir: Path, name: str, text: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _dump(doc) -> str:
    return json.dumps(_jsonable(doc), sort_keys=True, indent=1)


def _theorem_instance(spec, seed):
    if "path" in spec:
        path = _checked(spec, "path", None, lambda v: isinstance(v, str), "a file name")
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ManifestError(f"field 'path': cannot read {path!r}: {exc}") from exc
        return instance_from_json(text), text
    if "inline" in spec:
        text = json.dumps(spec["inline"], sort_keys=True)
        return instance_from_json(text), text
    space, kernel, gamma, pot = random_instance(
        seed, _m_range(spec),
        with_gamma=spec.get("gamma", False),
        with_potential=spec.get("potential", False))
    text = instance_to_json(space, kernel, pot, gamma)
    return (space, kernel, pot, gamma), text


def _run_theorems_on(args):
    idx, spec, theorems, seed, tol = args
    (space, kernel, pot, gamma), text = _theorem_instance(spec, seed + idx)
    if gamma is None:
        from .core import WeightFunction
        gamma = WeightFunction.ones(space.m)
    rng = np.random.default_rng(seed + 1000 + idx)
    m = space.m
    M = space.total_mass
    fam = random_functions(rng, m, 40, grounded=True)
    r_grid = np.geomspace(1e-3 / M, 1e2 / M, 10)
    killed = pot is not None
    # (killed form?, grid) of the certified rate each theorem reads; thm43
    # reads one where it kills, else it runs thm21 on a rate of its own
    reads = {"lemma2": (killed, "r"), "sp_decay": (killed, "r"), "thm20_poincare": (False, "r"),
             "thm21": (False, "thm21"),
             "thm43": (True, "thm43") if killed and np.any(pot.v > 0) else None}
    grids = {"r": r_grid, "thm21": rate_grid(M), "thm43": rate_grid(M + 1.0)}

    @functools.cache
    def rates(with_potential: bool) -> dict:
        """The certified rates of one form on every grid read from it, from one call."""
        names = sorted({g for w, g in filter(None, map(reads.get, theorems))
                        if w == with_potential})
        return dict(zip(names, certified_rates(space, kernel, [grids[g] for g in names],
                                               potential=pot if with_potential else None)))

    @functools.cache
    def theta(with_potential: bool):
        """The regularization table Semigroup.theta_curve(gamma) of the
        killed or the unkilled form, built once per instance."""
        return Semigroup(space, kernel, pot if with_potential else None).theta_curve(gamma)

    @functools.cache
    def profile():
        """enumerate_profile(space, kernel, gamma), built once per instance."""
        return enumerate_profile(space, kernel, gamma)

    N = builtin("power", p=2)   # the Young function of thm20, thm41 and thm42
    out = []
    for name in theorems:
        if name == "thm20":
            rep = TheoremReport("thm20")
            bw = thm20_backward(space, kernel, N, fam, gamma, profile())
            rep.add("backward gauge bound", bw["worst_slack"], tol)
        elif name == "lemma2":
            s_grid = np.geomspace(space.mu.min() * 1.05, 0.45 * M, 12)
            l2 = lemma2_bound(space, kernel, gamma, rates(killed)["r"], s_grid,
                              potential=pot, profile=profile(), theta=theta(killed))
            rep = TheoremReport("lemma2")
            rep.add("rate-to-curve bound", l2["worst_slack"], tol)
        elif name == "thm20_poincare":
            # the rate inequality at 1_A reads mu(A) <= r flow(A) + beta(r) mu(A)^2
            # on the unweighted form, where E(1_A) = flow(A): the subset premise
            r = float(r_grid[POINCARE_INDEX])
            b = rates(False)["r"](r)
            rep = TheoremReport("thm20_poincare", derived={"C1": r, "C2_tilde": b})
            prof = profile() if np.all(gamma.gamma == 1.0) else enumerate_profile(space, kernel)
            pc = thm20_poincare(space, kernel, r, b, tol, f_family=fam, profile=prof)
            rep.add("subset Poincare at C1 = r, C2~ = beta(r)", pc["subset"]["worst_slack"], tol)
            if fn := pc["functional"]:   # None where the subset premise fails
                rep.add("functional Poincare with C2 = 2 C2~", fn["worst_slack"], tol)
            else:
                rep.note("subset inequality fails: functional form not checked")
        elif name == "sp_decay":
            dc = sp_decay_check(space, kernel, rates(killed)["r"], fam, r_grid, r_grid,
                                potential=pot)
            rep = TheoremReport("sp_decay")
            rep.add("decay form of the rate inequality", dc["worst_slack"], tol)
        elif name == "coarea":
            co = coarea_check(space, kernel, fam, gamma, profile())
            rep = TheoremReport("coarea")
            rep.add("l1(f)/mu(f) >= 2 inf flow/mass", co["worst_slack"], tol)
        elif name == "thm21":
            rep = thm21_verify(space, kernel, gamma, rates(False)["thm21"], seed=seed + idx,
                               theta=theta(False), profile=profile(), tol=tol)
        elif name == "thm41":
            rep = thm41(N, space, kernel, gamma, fam, r_grid, profile=profile(), tol=tol)
        elif name == "thm42":
            C = indicator_gauge_constant(space, kernel, gamma, N, profile())
            beta1 = rate_from_gauge(N, C, lead=2.0)
            rep = thm42(beta1, space, kernel, gamma, fam, r_grid, profile=profile(), tol=tol)
        elif name == "thm43":
            if pot is None:
                continue
            beta = rates(True)["thm43"] if reads["thm43"] else None
            rep = thm43(space, kernel, pot, gamma, beta, seed=seed + idx, tol=tol)
        else:
            raise ManifestError(f"unknown theorem {name!r}")
        rep.inputs_digest = digest(text)
        out.append((idx, rep))
    return out


def run_verify(doc: dict, out_dir: Path) -> int:
    seed = doc["seed"]
    tol = doc.get("tolerances", {}).get("slack", 1e-9)
    if doc["kind"] == "finite-verify":
        specs = [_object(doc, "instance", None)]
        theorems = _names(doc, "checks", ["thm20"])
    else:
        gen = _object(doc, "generate", {"count": 5})
        specs = _checked(doc, "instances", [], lambda v: isinstance(v, list) and all(
            isinstance(x, dict) for x in v), "a list of objects") or \
            [dict(gen) for _ in range(_count(gen, "count", 5))]
        theorems = _names(doc, "theorems", ["thm20", "lemma2", "thm21"])
    jobs = _count(doc, "jobs", 1)
    tasks = [(i, spec, theorems, seed, tol) for i, spec in enumerate(specs)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            grouped = list(pool.map(_run_theorems_on, tasks))
    else:
        grouped = [_run_theorems_on(t) for t in tasks]
    rows, reports = [], []
    for group in grouped:
        for idx, rep in group:
            rows.append((idx, rep.theorem, rep.passed, rep.worst_slack))
            reports.append(rep.to_dict())
    _write(out_dir, "report.json", _dump({"kind": doc["kind"], "seed": seed,
                                          "version": __version__,
                                          "reports": reports}))
    _write(out_dir, "summary.csv", summary_csv(rows))
    return 0 if all(r[2] for r in rows) else 1


def run_enumerate(doc: dict, out_dir: Path) -> int:
    (space, kernel, pot, gamma), text = _theorem_instance(_object(doc, "instance", None),
                                                          doc["seed"])
    prof = enumerate_profile(space, kernel, gamma)
    _write(out_dir, "profile.csv", prof.to_csv())
    _write(out_dir, "report.json", _dump({
        "kind": "enumerate", "inputs_digest": digest(text),
        "subsets": len(prof.sorted_masses),
        "global_min_ratio": prof.global_min_ratio(),
        "min_witness_mask": prof.min_witness(),
        "mass_strictness": "strict",
    }))
    return 0


def run_subordinate(doc: dict, out_dir: Path) -> int:
    n = _dim(doc, (1, 2))
    alpha = _alpha(doc, "alpha", None)
    R = _count(doc, "R", 128)
    K = _count(doc, "K", 10 * n * (R // 2) ** 2)
    semigroup_R, K1 = _count(doc, "semigroup_R", R), _count(doc, "K1", 8000)
    ts = _checked(doc, "t_grid", [], lambda v: v == [] or _positives(v, 2),
                  "a list of two or more distinct positive numbers")
    w = subord_weights(alpha, min(K, 10 ** 6))
    win, per_entry = p1_kernel(n, alpha, K, R)
    band = power_law_band(win, n + alpha, 2.0, R / 2.0)
    report = {
        "kind": "lattice-subordination", "n": n, "alpha": alpha, "R": R, "K": K,
        "first_weight": float(w.c[0]), "weight_tail_at_K": weight_tail(alpha, K),
        "per_entry_tail_bound": per_entry,
        "band": band, "target_slope": -(n + alpha),
    }
    if ts:
        rows = torus_semigroup(n, alpha, semigroup_R, ts, K1=K1)
        t_arr, diag = on_diagonal_decay(rows)
        _, grad = gradient_decay(rows)
        report["diag_slope"] = loglog_slope(t_arr, diag)
        report["grad_slope"] = loglog_slope(t_arr, grad)
        report["diag_target"] = -n / alpha
        report["grad_target"] = -1.0 / alpha
    _write(out_dir, "p1.csv", win.to_csv() if win.values.size <= 70000 else
           "suppressed: window too large\n")
    _write(out_dir, "report.json", _dump(report))
    ok = abs(band["slope"] + n + alpha) <= 0.1 and band["band_ratio"] <= 10.0
    return 0 if ok else 1


def run_sharpness(doc: dict, out_dir: Path) -> int:
    n = _count(doc, "n", 1)
    a1, a2 = _alpha(doc, "alpha1", None), _alpha(doc, "alpha2", None)
    mode = _checked(doc, "mode", "min_kernel", lambda v: v in MODES, f"one of {MODES}")
    s_grid = np.asarray(_checked(doc, "s_grid", np.geomspace(1e-3, 1e3, 41).tolist(), _fit_grid,
                                 "positive numbers, two or more in each fit range"),
                        dtype=float)
    vals = [radial_l1_energy(n, a1, a2, mode, s) for s in s_grid]
    lo = loglog_slope(s_grid[s_grid <= 0.1], np.asarray(vals)[s_grid <= 0.1])
    hi = loglog_slope(s_grid[s_grid >= 10.], np.asarray(vals)[s_grid >= 10.])
    N = builtin("pow_min", n=n, alpha1=a1, alpha2=a2)
    prof = sharpness_profile(n, a1, a2, N, s_grid)
    report = {
        "kind": "sharpness-scan", "n": n, "alpha1": a1, "alpha2": a2,
        "mode": mode,
        "cone_energy_slope_low": lo, "cone_energy_slope_high": hi,
        "profile_slopes": [prof["slope_low"], prof["slope_high"]],
        "profile_max_over_mid": prof["max_over_mid"],
    }
    _write(out_dir, "report.json", _dump(report))
    lines = ["s,value"] + [f"{float(s)!r},{float(v)!r}" for s, v in zip(s_grid, vals)]
    _write(out_dir, "cone_energy.csv", "\n".join(lines) + "\n")
    # cone energy ~ s^{n+1-alpha/2}: the smaller alpha governs small s under
    # the min kernel and large s under the max kernel
    a_lo, a_hi = sorted((a1, a2), reverse=(mode == "max_kernel"))
    ok = (abs(lo - (n + 1 - a_lo / 2)) <= 0.05 and abs(hi - (n + 1 - a_hi / 2)) <= 0.05
          and all(abs(slope) <= 0.01 for slope in report["profile_slopes"]))
    return 0 if ok else 1


def run_perturbed(doc: dict, out_dir: Path) -> int:
    n = _dim(doc, (2,))
    alpha = _alpha(doc, "alpha", None)
    eps_grid = _checked(doc, "eps_grid", [alpha / 4, alpha / 2, alpha],
                        lambda v: _positives(v, 1), "a nonempty list of positive numbers")
    rep = example_threshold(n, alpha, eps_grid)
    if doc.get("beta_scan", False):
        w = log_weight(n, alpha, float(eps_grid[-1]))
        r_grid = np.geomspace(2e-2, 0.5, 10)
        bs = theorem_beta_curve(w, r_grid)
        rep["beta_slope"] = loglog_slope(r_grid, bs)
        eps = float(eps_grid[-1])
        rep["beta_target"] = -2 * n / alpha - (n + eps) / (2 * eps - alpha)
    _write(out_dir, "report.json", _dump(rep))
    lines = ["eps,class,phi_slope,ratio_slope"]
    for row in rep["rows"]:
        lines.append(f"{float(row['eps'])!r},{row['class']},"
                     f"{float(row['phi_slope'])!r},{float(row['ratio_slope'])!r}")
    _write(out_dir, "classes.csv", "\n".join(lines) + "\n")
    half = alpha / 2.0
    ok = all(row["class"] == ("below" if row["eps"] < half else
                              "at" if row["eps"] == half else "above")
             for row in rep["rows"])
    if "beta_slope" in rep:
        ok &= abs(rep["beta_slope"] - rep["beta_target"]) <= 0.15 * abs(rep["beta_target"])
    return 0 if ok else 1


def run_generate(doc: dict, out_dir: Path) -> int:
    kind = doc.get("generate_kind", "finite-space")
    seed = doc["seed"]
    if kind == "finite-space":
        for i in range(_count(doc, "count", 1)):
            space, kernel, gamma, pot = random_instance(
                seed + i, _m_range(doc),
                with_gamma=doc.get("gamma", False),
                with_potential=doc.get("potential", False))
            _write(out_dir, f"instance_{i:04d}.json",
                   instance_to_json(space, kernel, pot, gamma))
        return 0
    if kind == "lattice-window":
        n, alpha = _dim(doc, (1, 2)), _alpha(doc, "alpha", 1.0)
        win, _ = p1_kernel(n, alpha, _count(doc, "K", 64), _count(doc, "R", 64))
        _write(out_dir, "window.csv", win.to_csv())
        return 0
    raise ManifestError(f"unknown generate kind {kind!r}")


RUNNERS = {
    "verify": (run_verify, ("finite-verify", "theorem-batch")),
    "enumerate": (run_enumerate, ("finite-verify",)),
    "subordinate": (run_subordinate, ("lattice-subordination",)),
    "sharpness": (run_sharpness, ("sharpness-scan",)),
    "perturbed": (run_perturbed, ("perturbed-threshold",)),
    "generate": (run_generate, ("generate",)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jumpiso",
        description="isoperimetric / rate-function verification experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--manifest", required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="override the manifest seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--jobs", type=int, default=1)
        if name == "verify":   # the one runner that reads a slack tolerance
            p.add_argument("--tol", type=float, default=None,
                           help="override the slack tolerance")
    args = parser.parse_args(argv)
    runner, kinds = RUNNERS[args.command]
    try:
        doc = load_manifest(args.manifest, kinds)
        if getattr(args, "tol", None) is not None:
            doc.setdefault("tolerances", {})["slack"] = _tolerance({"tol": args.tol}, "tol")
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.jobs != 1:
        doc["jobs"] = args.jobs
    out_dir = Path(args.out or doc.get("out", "out"))
    try:
        return runner(doc, out_dir)
    except (ValidationError, ManifestError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
