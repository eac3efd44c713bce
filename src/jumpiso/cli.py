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
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .core import ValidationError, instance_from_json, instance_to_json
from .instances import random_functions, random_instance
from .isoperimetry import enumerate_profile, thm20_backward, thm20_forward
from .lattice import (p1_kernel, power_law_band, subord_weights,
                      truncated_crossover_curve, torus_semigroup,
                      on_diagonal_decay, gradient_decay, weight_tail)
from .numerics import loglog_slope
from .perturbed import example_threshold, log_weight, phi_l, theorem_beta_curve
from .radial import radial_l1_energy, sharpness_profile
from .reports import TheoremReport, digest, summary_csv, _jsonable
from .superpoincare import certified_rate, lemma2_bound, sp_verify
from .theorems import (cor41_round_trip, rate_from_gauge, thm21_verify, thm41,
                       thm42, thm43)
from .young import builtin

KINDS = ("finite-verify", "theorem-batch", "lattice-subordination",
         "sharpness-scan", "perturbed-threshold")


class ManifestError(ValueError):
    pass


def load_manifest(path: str, kinds) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    kind = doc.get("kind")
    if kind not in kinds:
        raise ManifestError(f"field 'kind': got {kind!r}, expected one of {kinds}")
    if "seed" not in doc or not isinstance(doc["seed"], int):
        raise ManifestError("field 'seed': a plain integer seed is required")
    for key, val in doc.get("tolerances", {}).items():
        if not (isinstance(val, (int, float)) and val > 0):
            raise ManifestError(f"tolerance {key!r} must be positive")
    return doc


def _write(out_dir: Path, name: str, text: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _dump(doc) -> str:
    return json.dumps(_jsonable(doc), sort_keys=True, indent=1)


def _theorem_instance(spec, seed):
    if "path" in spec:
        text = Path(spec["path"]).read_text()
        return instance_from_json(text), text
    if "inline" in spec:
        text = json.dumps(spec["inline"], sort_keys=True)
        return instance_from_json(text), text
    space, kernel, gamma, pot = random_instance(
        seed, tuple(spec.get("m_range", (3, 10))),
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
    out = []
    for name in theorems:
        if name == "thm20":
            rep = TheoremReport("thm20", digest(text))
            fw = thm20_forward(space, kernel, builtin("power", p=2), fam, gamma, tol)
            bw = thm20_backward(space, kernel, builtin("power", p=2), fam, gamma, tol)
            rep.add("forward subset constant", fw["slack"], tol)
            rep.add("backward gauge bound", bw["worst_slack"], tol)
        elif name == "lemma2":
            beta = certified_rate(space, kernel, r_grid, potential=pot, seed=seed + idx)
            s_grid = np.geomspace(space.mu.min() * 1.05, 0.45 * M, 12)
            l2 = lemma2_bound(space, kernel, gamma, beta, s_grid, potential=pot)
            rep = TheoremReport("lemma2", digest(text))
            rep.add("rate-to-curve bound", l2["worst_slack"], tol)
        elif name == "thm21":
            rep = thm21_verify(space, kernel, gamma, seed=seed + idx, tol=tol)
            rep.inputs_digest = digest(text)
        elif name == "thm41":
            rep = thm41(builtin("power", p=2), space, kernel, gamma, fam, r_grid, tol=tol)
            rep.inputs_digest = digest(text)
        elif name == "thm42":
            N = builtin("power", p=2)
            pre = thm41(N, space, kernel, gamma, fam, r_grid, tol=tol)
            beta1 = rate_from_gauge(N, pre.derived["C_used"], lead=2.0)
            rep = thm42(beta1, space, kernel, gamma, fam, r_grid, tol=tol)
            rep.inputs_digest = digest(text)
        elif name == "thm43":
            if pot is None:
                continue
            rep = thm43(space, kernel, pot, gamma, seed=seed + idx, tol=tol)
            rep.inputs_digest = digest(text)
        else:
            raise ManifestError(f"unknown theorem {name!r}")
        out.append((idx, rep))
    return out


def run_verify(doc: dict, out_dir: Path) -> int:
    seed = doc["seed"]
    tol = doc.get("tolerances", {}).get("slack", 1e-9)
    if doc["kind"] == "finite-verify":
        specs = [doc["instance"]]
        theorems = doc.get("checks", ["thm20"])
    else:
        gen = doc.get("generate", {"count": 5})
        specs = doc.get("instances") or [dict(gen) for _ in range(gen.get("count", 5))]
        theorems = doc.get("theorems", ["thm20", "lemma2", "thm21"])
    jobs = doc.get("jobs", 1)
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
    (space, kernel, pot, gamma), text = _theorem_instance(doc["instance"], doc["seed"])
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
    n = doc.get("n", 1)
    alpha = doc["alpha"]
    R = doc.get("R", 128)
    K = doc.get("K", 10 * n * (R // 2) ** 2)
    w = subord_weights(alpha, min(K, 10 ** 6))
    win, per_entry = p1_kernel(n, alpha, K, R, method=doc.get("method", "exact"))
    band = power_law_band(win, n + alpha, 2.0, R / 2.0)
    report = {
        "kind": "lattice-subordination", "n": n, "alpha": alpha, "R": R, "K": K,
        "first_weight": float(w.c[0]), "weight_tail_at_K": weight_tail(alpha, K),
        "per_entry_tail_bound": per_entry,
        "band": band, "target_slope": -(n + alpha),
    }
    ts = doc.get("t_grid")
    if ts:
        rows = torus_semigroup(n, alpha, doc.get("semigroup_R", R), ts,
                               K1=doc.get("K1", 8000))
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
    n = doc.get("n", 1)
    a1, a2 = doc["alpha1"], doc["alpha2"]
    mode = doc.get("mode", "min_kernel")
    s_grid = np.asarray(doc.get("s_grid") or np.geomspace(1e-3, 1e3, 41))
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
    return 0


def run_perturbed(doc: dict, out_dir: Path) -> int:
    n = doc.get("n", 2)
    alpha = doc["alpha"]
    eps_grid = doc.get("eps_grid") or [alpha / 4, alpha / 2, alpha]
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
    return 0


def run_generate(doc: dict, out_dir: Path) -> int:
    kind = doc.get("generate_kind", "finite-space")
    seed = doc["seed"]
    count = doc.get("count", 1)
    if kind == "finite-space":
        for i in range(count):
            space, kernel, gamma, pot = random_instance(
                seed + i, tuple(doc.get("m_range", (3, 10))),
                with_gamma=doc.get("gamma", False),
                with_potential=doc.get("potential", False))
            _write(out_dir, f"instance_{i:04d}.json",
                   instance_to_json(space, kernel, pot, gamma))
        return 0
    if kind == "lattice-window":
        n, alpha = doc.get("n", 1), doc.get("alpha", 1.0)
        win, _ = p1_kernel(n, alpha, doc.get("K", 64), doc.get("R", 64))
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
        p.add_argument("--tol", type=float, default=None,
                       help="override the slack tolerance")
        p.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    runner, kinds = RUNNERS[args.command]
    try:
        doc = load_manifest(args.manifest, kinds)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.tol is not None:
        doc.setdefault("tolerances", {})["slack"] = args.tol
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
