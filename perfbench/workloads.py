"""Seeded inputs and the CLI calls of each benchmark workload.

A workload is a fixed list of CLI calls (one round).  ``prepare`` writes the
instance files and manifests a round reads; the program receives only those
files.  Finite instances come from the benchmark's own generator, so a change
to ``jumpiso.instances`` cannot change what is measured; the continuum
manifests are fixed parameter lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATE_THEOREMS = ("thm20", "lemma2", "thm21", "thm41")
GAUGE_THEOREMS = ("thm41", "thm42")

# (m values of the instances of one round, theorems, enumerate each instance)
FINITE = {
    "rate_small": ((3, 5, 6, 8), RATE_THEOREMS, True),
    "rate_large": ((11, 13), RATE_THEOREMS, True),
    "gauge_route": ((4, 6, 8), GAUGE_THEOREMS, False),
}

# criterion 7: n in {1, 2}, alpha in {0.5, 1, 1.5}, R = 128
SUBORDINATE = [(n, a, 128) for n in (1, 2) for a in (0.5, 1.0, 1.5)]
# criterion 8: one torus-semigroup decay scan, (n, alpha, R, torus R)
TORUS = (1, 1.0, 64, 2048)
TORUS_T = [1, 2, 4, 8, 16, 32, 64]
# criterion 9: cone energies far below and far above the unit scale
SHARPNESS = [(n, mode) for n in (1, 2) for mode in ("min_kernel", "max_kernel")]
SHARP_ALPHAS = (0.5, 1.5)
SHARP_S = [float(s) for s in np.concatenate([np.geomspace(1e-7, 1e-5, 8),
                                              np.geomspace(1e5, 1e7, 8)])]
# criterion 10: eps below, at and above the threshold alpha/2, with beta scan
PERTURBED_ALPHAS = (0.5, 1.0, 1.5)

WORKLOADS = tuple(FINITE) + ("continuum",)


@dataclass
class Call:
    """One CLI call of a round: its name, subcommand and manifest."""

    name: str
    command: str
    manifest: dict

    @property
    def ops(self) -> int:
        """Operations the call attempts: one per theorem report or manifest."""
        if self.command == "verify":
            return len(self.manifest["instances"]) * len(self.manifest["theorems"])
        return 1

    def argv(self, work: Path) -> list:
        return [self.command, "--manifest", str(work / "manifests" / f"{self.name}.json"),
                "--out", str(self.out_dir(work)), "--jobs", "1"]

    def out_dir(self, work: Path) -> Path:
        return work / "out" / self.name


def finite_instance(rng, m: int) -> dict:
    """Masses in [0.5, 2]; a jump density on a random spanning path plus
    extra edges with probability 1/(m - 1); a symmetric gamma in [0.5, 2].

    The path keeps the space connected (positive spectral gap); the narrow
    ranges keep the count of subsets under a mass cap, and with it the work
    per instance, close to its mean for every seed.
    """
    mu = np.exp(rng.uniform(np.log(0.5), np.log(2.0), m))
    rates = np.exp(rng.uniform(np.log(0.5), np.log(2.0), (m, m)))
    extra = rng.random((m, m)) < 1.0 / (m - 1)
    order = rng.permutation(m)
    edges = np.zeros((m, m), dtype=bool)
    edges[order[:-1], order[1:]] = True
    edges |= np.triu(extra, 1)
    edges = np.triu(edges | edges.T, 1)
    j = np.where(edges, rates, 0.0)
    j = j + j.T
    g = np.exp(rng.uniform(np.log(0.5), np.log(2.0), (m, m)))
    g = np.sqrt(g * g.T)
    np.fill_diagonal(g, 1.0)
    return {"mu": mu.tolist(), "j": j.tolist(), "gamma": g.tolist()}


def _finite_calls(name: str, seed: int, work: Path) -> list:
    ms, theorems, enum = FINITE[name]
    paths = []
    for k, m in enumerate(ms):
        rng = np.random.default_rng([seed, WORKLOADS.index(name), k])
        path = work / "inputs" / f"instance_{k:02d}.json"
        path.write_text(json.dumps(finite_instance(rng, m)))
        paths.append(path)
    calls = [Call("verify", "verify",
                  {"kind": "theorem-batch", "seed": seed,
                   "instances": [{"path": str(p)} for p in paths],
                   "theorems": list(theorems)})]
    if enum:
        for k, p in enumerate(paths):
            calls.append(Call(f"enumerate_{k:02d}", "enumerate",
                              {"kind": "finite-verify", "seed": seed,
                               "instance": {"path": str(p)}}))
    return calls


def _continuum_calls(seed: int) -> list:
    calls = []
    for n, alpha, R in SUBORDINATE:
        calls.append(Call(f"subordinate_n{n}_a{alpha}", "subordinate",
                          {"kind": "lattice-subordination", "seed": seed,
                           "n": n, "alpha": alpha, "R": R}))
    n, alpha, R, torus_R = TORUS
    calls.append(Call(f"torus_n{n}_a{alpha}", "subordinate",
                      {"kind": "lattice-subordination", "seed": seed,
                       "n": n, "alpha": alpha, "R": R, "t_grid": TORUS_T,
                       "semigroup_R": torus_R}))
    a1, a2 = SHARP_ALPHAS
    for n, mode in SHARPNESS:
        calls.append(Call(f"sharpness_n{n}_{mode}", "sharpness",
                          {"kind": "sharpness-scan", "seed": seed, "n": n,
                           "alpha1": a1, "alpha2": a2, "mode": mode,
                           "s_grid": SHARP_S}))
    for alpha in PERTURBED_ALPHAS:
        eps = [alpha / 4, alpha / 2, alpha]
        calls.append(Call(f"perturbed_a{alpha}", "perturbed",
                          {"kind": "perturbed-threshold", "seed": seed, "n": 2,
                           "alpha": alpha, "eps_grid": eps, "beta_scan": True}))
    return calls


def prepare(name: str, seed: int, work: Path) -> list:
    """Write the inputs of one workload under ``work``; return its calls."""
    for sub in ("inputs", "manifests"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    calls = _finite_calls(name, seed, work) if name in FINITE else _continuum_calls(seed)
    for call in calls:
        (work / "manifests" / f"{call.name}.json").write_text(
            json.dumps(call.manifest, sort_keys=True, indent=1))
    return calls


def verify_instances(calls) -> int:
    """Instances passed to ``verify`` in one round."""
    return sum(len(c.manifest["instances"]) for c in calls if c.command == "verify")
