"""Every check row that ``verify`` prints can fail.

A row that no wrong input can fail certifies nothing: it compares two
computations of one number, and its slack is rounding noise.  This harness
runs ``verify`` on the four golden verify manifests, once as they are and
once under each injected fault, and asserts that every (theorem, claim)
printed by the clean runs fails under at least one fault: a slack below its
tolerance, or NaN.  The faults go in at the four slack evaluators
(``rate_slacks``, ``gauge_slacks``, ``curve_slacks``,
``subset_rate_slacks``) or at their inputs (the certified rates and the
isoperimetric profile).  The claims are read from the clean reports, so a
new row that no fault can fail makes this test fail.
"""

import json
import math
from pathlib import Path

from jumpiso import cli, core, isoperimetry, superpoincare, theorems, young
from jumpiso.isoperimetry import IsoperimetricProfile
from jumpiso.superpoincare import rate_tabulated

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
VERIFY = ["finite_verify.json", "theorem_batch.json", "paper_checks.json",
          "killed_batch.json"]
# every package module that holds an evaluator or an input by name
MODULES = [cli, core, isoperimetry, superpoincare, theorems, young]


def _rate_dropped(real):
    """rate_slacks with the rate term beta(r) ||f||_1^2 dropped."""
    return lambda space, F, energy, r_grid, rate: \
        real(space, F, energy, r_grid, lambda r: 0.0)


def _subset_rate_dropped(real):
    """subset_rate_slacks with the rate term beta(r) mu(A)^2 dropped."""
    return lambda profile, r_values, rate: \
        real(profile, r_values, lambda r: 0.0)


def _bracket_cut(real):
    """gauge_slacks with the bracket B(f) cut to 1%: nearly every jump weight
    removed from the L1 form."""
    return lambda space, N, F, bracket, C: \
        real(space, N, F, lambda f: 0.01 * bracket(f), C)


def _curve_bound_raised(real):
    """curve_slacks with the claimed lower bound on kappa(s) raised 10x."""
    return lambda profile, s, bound: \
        real(profile, s, lambda x: 10.0 * bound(x))


def _rate_scaled(factor):
    """certified_rates with every tabulated rate scaled by factor."""
    def fault(real):
        def scaled(beta):
            r, v = beta.knots
            return rate_tabulated(r, factor * v, note=beta.params.get("note"))
        return lambda *args, **kwargs: [scaled(beta) for beta in real(*args, **kwargs)]
    return fault


def _kappa_doubled(real):
    """enumerate_profile with every boundary flow, hence kappa, doubled."""
    def profile(space, kernel, gamma=None):
        p = real(space, kernel, gamma)
        return IsoperimetricProfile(p.space, p.masses, 2.0 * p.flows, p.masks)
    return profile


FAULTS = {
    "rate term dropped": ("rate_slacks", _rate_dropped),
    "subset rate term dropped": ("subset_rate_slacks", _subset_rate_dropped),
    "bracket cut to 1%": ("gauge_slacks", _bracket_cut),
    "curve bound raised 10x": ("curve_slacks", _curve_bound_raised),
    "certified rate halved": ("certified_rates", _rate_scaled(0.5)),
    "kappa doubled": ("enumerate_profile", _kappa_doubled),
}


def _rows(tmp_path):
    """(theorem, claim, failed) of every check row that verify writes on
    the four manifests."""
    rows = []
    for name in VERIFY:
        out = tmp_path / name
        cli.main(["verify", "--manifest", str(MANIFESTS / name), "--out", str(out)])
        for rep in json.loads((out / "report.json").read_text())["reports"]:
            for row in rep["checks"]:
                slack = float(row["slack"])    # "inf", "-inf" and "nan" too
                rows.append((rep["theorem"], row["claim"],
                             math.isnan(slack) or slack < -row["tol"]))
    return rows


def test_every_verify_row_fails_under_some_fault(tmp_path, monkeypatch):
    clean = _rows(tmp_path / "clean")
    assert clean and not any(failed for _, _, failed in clean)
    claims = {(thm, claim) for thm, claim, _ in clean}
    caught = {}
    for label, (target, fault) in FAULTS.items():
        with monkeypatch.context() as mp:
            wrapped = fault(getattr(next(m for m in MODULES if hasattr(m, target)), target))
            for module in MODULES:
                if hasattr(module, target):
                    mp.setattr(module, target, wrapped)
            rows = _rows(tmp_path / label.replace(" ", "_"))
        caught[label] = sorted({(thm, claim) for thm, claim, failed in rows if failed})
    unfailable = claims - {c for found in caught.values() for c in found}
    assert not unfailable, f"rows that no fault fails: {sorted(unfailable)}; {caught}"


def test_degenerate_profile_is_a_failed_row_not_a_traceback(tmp_path, monkeypatch):
    # rates cut 100x leave thm21's regularization profile with no positive
    # knot on four of the five instances: a failed "profile finite" row with
    # a note, exit 1
    monkeypatch.setattr(cli, "certified_rates", _rate_scaled(0.01)(cli.certified_rates))
    out = tmp_path / "out"
    assert cli.main(["verify", "--manifest", str(MANIFESTS / "theorem_batch.json"),
                     "--out", str(out)]) == 1
    degenerate = [rep for rep in json.loads((out / "report.json").read_text())["reports"]
                  if any(note.startswith("profile degenerate") for note in rep["notes"])]
    assert {rep["theorem"] for rep in degenerate} == {"thm21"}
    for rep in degenerate:
        row = rep["checks"][-1]
        assert row["claim"] == "profile finite" and float(row["slack"]) < 0
