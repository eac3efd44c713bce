import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jumpiso
from jumpiso import cli, superpoincare
from jumpiso.cli import main
from jumpiso.core import ValidationError, instance_from_json


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_verify_deterministic(tmp_path):
    manifest = write(tmp_path, "m.json", {
        "kind": "finite-verify", "seed": 3,
        "instance": {"inline": {"mu": [1.0, 2.0, 0.5],
                                "j": [[0.0, 1.0, 0.2], [1.0, 0.0, 0.7],
                                      [0.2, 0.7, 0.0]]}},
        "checks": ["thm20"]})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["verify", "--manifest", manifest, "--out", str(out1)]) == 0
    assert main(["verify", "--manifest", manifest, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    rows = (out1 / "summary.csv").read_text().splitlines()
    assert rows[0] == "instance,theorem,pass,worst_slack"
    assert all(line.split(",")[2] == "1" for line in rows[1:])


def test_verify_batch_generated(tmp_path):
    manifest = write(tmp_path, "m.json", {
        "kind": "theorem-batch", "seed": 5,
        "generate": {"count": 2, "m_range": [3, 5]},
        "theorems": ["thm20", "thm41", "thm42"]})
    out = tmp_path / "o"
    assert main(["verify", "--manifest", manifest, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["reports"]) == 6
    assert all(r["pass"] for r in report["reports"])


def test_asymmetric_kernel_exit_2(tmp_path, capsys):
    manifest = write(tmp_path, "bad.json", {
        "kind": "finite-verify", "seed": 1,
        "instance": {"inline": {"mu": [1.0, 1.0],
                                "j": [[0.0, 2.0], [1.0, 0.0]]}},
        "checks": ["thm20"]})
    assert main(["verify", "--manifest", manifest, "--out", str(tmp_path / "o")]) == 2
    assert "pair (0, 1)" in capsys.readouterr().err


TWO_POINT = {"mu": [1.0, 2.0], "j": [[0.0, 1.0], [1.0, 0.0]]}


@pytest.mark.parametrize("field,doc", [
    ("j", dict(TWO_POINT, j=[[0.0, math.inf], [math.inf, 0.0]])),
    ("v", dict(TWO_POINT, v=[0.1, 0.2, 0.3])),
    ("gamma", dict(TWO_POINT, gamma=[[1.0] * 3] * 3)),
    ("mu", {"j": TWO_POINT["j"]}),
    ("mu", dict(TWO_POINT, mu=[1.0, "heavy"])),
    ("mu", dict(TWO_POINT, mu=[10 ** 400, 1.0])),
    ("gama", dict(TWO_POINT, gama=[[1.0, 1.0], [1.0, 1.0]])),
    ("xi", dict(TWO_POINT, xi=[1.0, 1.0])),
])
def test_malformed_instance_exit_2(tmp_path, capsys, field, doc):
    with pytest.raises(ValidationError, match=f"field '{field}'"):
        instance_from_json(json.dumps(doc))
    manifest = write(tmp_path, "m.json", {
        "kind": "finite-verify", "seed": 1, "instance": {"inline": doc},
        "checks": ["thm20"]})
    assert main(["verify", "--manifest", manifest, "--out", str(tmp_path / "o")]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[1.0, 2.0]"])
def test_instance_file_not_an_object_exit_2(tmp_path, capsys, text):
    inst = tmp_path / "inst.json"
    inst.write_text(text)
    manifest = write(tmp_path, "m.json", {
        "kind": "finite-verify", "seed": 1, "instance": {"path": str(inst)},
        "checks": ["thm20"]})
    assert main(["verify", "--manifest", manifest, "--out", str(tmp_path / "o")]) == 2
    assert "instance" in capsys.readouterr().err


def test_bad_manifest_exit_2(tmp_path, capsys):
    missing_seed = write(tmp_path, "m1.json", {"kind": "finite-verify"})
    assert main(["verify", "--manifest", missing_seed, "--out", "x"]) == 2
    assert "seed" in capsys.readouterr().err
    wrong_kind = write(tmp_path, "m2.json", {"kind": "nope", "seed": 1})
    assert main(["verify", "--manifest", wrong_kind, "--out", "x"]) == 2
    broken = tmp_path / "m3.json"
    broken.write_text("{not json")
    assert main(["verify", "--manifest", str(broken), "--out", "x"]) == 2
    absent = tmp_path / "m4.json"
    assert main(["verify", "--manifest", str(absent), "--out", "x"]) == 2
    assert "cannot read the manifest" in capsys.readouterr().err


@pytest.mark.parametrize("theorem,m,potential", [("thm21", 17, False),
                                                 ("thm43", 16, True)])
def test_rate_on_too_large_space_exit_2(tmp_path, capsys, theorem, m, potential):
    """The optimal rate is refused above 16 points; thm43's cemetery
    extension adds one point to the killed space."""
    manifest = write(tmp_path, "m.json", {
        "kind": "theorem-batch", "seed": 1,
        "generate": {"count": 1, "m_range": [m, m], "potential": potential},
        "theorems": [theorem]})
    assert main(["verify", "--manifest", manifest, "--out", str(tmp_path / "o")]) == 2
    assert "m <= 16 points, got m=17" in capsys.readouterr().err


def test_enumerate_profile_export(tmp_path):
    manifest = write(tmp_path, "m.json", {
        "kind": "finite-verify", "seed": 1,
        "instance": {"inline": {"mu": [1.0, 1.0],
                                "j": [[0.0, 3.0], [3.0, 0.0]]}}})
    out = tmp_path / "o"
    assert main(["enumerate", "--manifest", manifest, "--out", str(out)]) == 0
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "mass,flow,mask_hex"
    assert len(lines) == 3
    for line in lines[1:]:
        mass, flow, _ = line.split(",")
        assert float(mass) > 0 and float(flow) >= 0
    report = json.loads((out / "report.json").read_text())
    assert report["global_min_ratio"] == 3.0
    assert report["mass_strictness"] == "strict"


def test_generate_instances(tmp_path):
    manifest = write(tmp_path, "m.json", {
        "kind": "generate", "seed": 11, "generate_kind": "finite-space",
        "count": 2, "m_range": [3, 6], "gamma": True})
    out = tmp_path / "g"
    assert main(["generate", "--manifest", manifest, "--out", str(out)]) == 0
    docs = sorted(out.glob("instance_*.json"))
    assert len(docs) == 2
    from jumpiso.core import instance_from_json
    space, kernel, _, gamma = instance_from_json(docs[0].read_text())
    assert gamma is not None
    # connectivity by construction: positive global minimum ratio
    from jumpiso.isoperimetry import enumerate_profile
    assert enumerate_profile(space, kernel).global_min_ratio() > 0


def test_generate_connectivity_mass_bounds():
    from jumpiso.instances import random_instance
    from jumpiso.isoperimetry import enumerate_profile
    for seed in range(50):
        space, kernel, _, _ = random_instance(seed, (3, 8))
        assert enumerate_profile(space, kernel).global_min_ratio() > 0
        assert space.mu.min() >= 0.1 - 1e-12
        assert space.mu.max() <= 10.0 + 1e-12


def test_sharpness_and_perturbed_runners(tmp_path):
    m1 = write(tmp_path, "s.json", {
        "kind": "sharpness-scan", "seed": 1, "n": 1,
        "alpha1": 0.5, "alpha2": 1.5, "mode": "min_kernel"})
    out = tmp_path / "s"
    assert main(["sharpness", "--manifest", m1, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert abs(rep["profile_slopes"][0]) < 0.02
    m2 = write(tmp_path, "p.json", {
        "kind": "perturbed-threshold", "seed": 1, "n": 2, "alpha": 1.0,
        "eps_grid": [0.25, 1.0]})
    out2 = tmp_path / "p"
    assert main(["perturbed", "--manifest", m2, "--out", str(out2)]) == 0
    rep2 = json.loads((out2 / "report.json").read_text())
    assert [row["class"] for row in rep2["rows"]] == ["below", "above"]


def test_sharpness_and_perturbed_off_target_exit_1(tmp_path, monkeypatch):
    m1 = write(tmp_path, "s.json", {
        "kind": "sharpness-scan", "seed": 1, "n": 1,
        "alpha1": 0.5, "alpha2": 1.5, "mode": "min_kernel"})
    # a cone energy growing like s^2 misses both targets 1.75 and 1.25
    monkeypatch.setattr(cli, "radial_l1_energy", lambda n, a1, a2, mode, s: s * s)
    assert main(["sharpness", "--manifest", m1, "--out", str(tmp_path / "s")]) == 1
    m2 = write(tmp_path, "p.json", {
        "kind": "perturbed-threshold", "seed": 1, "n": 2, "alpha": 1.0,
        "eps_grid": [0.25, 1.0]})
    real = cli.example_threshold

    def swapped(n, alpha, eps_grid):
        rep = real(n, alpha, eps_grid)
        rep["rows"][0]["class"] = "above"
        return rep
    monkeypatch.setattr(cli, "example_threshold", swapped)
    assert main(["perturbed", "--manifest", m2, "--out", str(tmp_path / "p")]) == 1
    monkeypatch.setattr(cli, "example_threshold", real)
    m3 = write(tmp_path, "b.json", {
        "kind": "perturbed-threshold", "seed": 1, "n": 2, "alpha": 1.0,
        "eps_grid": [1.0], "beta_scan": True})
    # a flat beta curve: slope 0 against the target -7
    monkeypatch.setattr(cli, "theorem_beta_curve", lambda w, r: np.ones(len(r)))
    assert main(["perturbed", "--manifest", m3, "--out", str(tmp_path / "b")]) == 1


SUBORDINATE = {"kind": "lattice-subordination", "seed": 1, "n": 1, "alpha": 1.0,
               "R": 16, "K": 200}
SHARPNESS = {"kind": "sharpness-scan", "seed": 1, "n": 1, "alpha1": 0.5, "alpha2": 1.5}
PERTURBED = {"kind": "perturbed-threshold", "seed": 1, "n": 2, "alpha": 1.0,
             "eps_grid": [0.25]}
WINDOW = {"kind": "generate", "seed": 1, "generate_kind": "lattice-window",
          "n": 1, "alpha": 1.0, "K": 8, "R": 8}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def test_subordinate_off_target_decay_exit_1(tmp_path, monkeypatch):
    # an on-diagonal curve decaying like t^0 against the target -n/alpha = -1
    # fails its row alone; the gradient slope and the p1 rows still pass
    m = write(tmp_path, "t.json", dict(_without(SUBORDINATE, "K"), R=32, t_grid=[1, 2, 4, 8],
                                       semigroup_R=256))
    assert main(["subordinate", "--manifest", m, "--out", str(tmp_path / "clean")]) == 0
    real = cli.on_diagonal_decay
    monkeypatch.setattr(cli, "on_diagonal_decay",
                        lambda rows: (real(rows)[0], np.ones(len(rows))))
    out = tmp_path / "flat"
    assert main(["subordinate", "--manifest", m, "--out", str(out)]) == 1
    rep = json.loads((out / "report.json").read_text())
    failed = [row["claim"] for row in rep["checks"] if float(row["slack"]) < -row["tol"]]
    assert failed == ["torus on-diagonal decay slope within 10% of diag_target"]
    assert rep["diag_slope"] == 0.0


@pytest.mark.parametrize("command,doc,field", [
    ("subordinate", dict(SUBORDINATE, alpha=2.5), "alpha"),
    ("subordinate", dict(SUBORDINATE, alpha=0), "alpha"),
    ("subordinate", _without(SUBORDINATE, "alpha"), "alpha"),
    ("subordinate", dict(SUBORDINATE, n=3), "n"),
    ("subordinate", dict(SUBORDINATE, n=1.5), "n"),
    ("sharpness", dict(SHARPNESS, alpha1=2.5), "alpha1"),
    ("sharpness", dict(SHARPNESS, alpha2="1.0"), "alpha2"),
    ("sharpness", _without(SHARPNESS, "alpha2"), "alpha2"),
    ("perturbed", dict(PERTURBED, alpha=3.0), "alpha"),
    ("perturbed", dict(PERTURBED, alpha=True), "alpha"),
    ("perturbed", dict(PERTURBED, n=1), "n"),
    ("generate", dict(WINDOW, alpha=-1.0), "alpha"),
    ("generate", dict(WINDOW, n=3), "n"),
])
def test_malformed_continuum_manifest_exit_2(tmp_path, capsys, command, doc, field):
    assert_refused(tmp_path, capsys, command, doc, field)


def assert_refused(tmp_path, capsys, command, doc, field):
    """The run exits 2, names the field and writes nothing."""
    manifest = write(tmp_path, "m.json", doc)
    assert main([command, "--manifest", manifest, "--out", str(tmp_path / "o")]) == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


BATCH = {"kind": "theorem-batch", "seed": 1,
         "generate": {"count": 1, "m_range": [3, 4]}, "theorems": ["thm20"]}
FINITE = {"kind": "finite-verify", "seed": 1, "instance": {"inline": TWO_POINT},
          "checks": ["thm20"]}


@pytest.mark.parametrize("command,doc,field", [
    ("subordinate", dict(SUBORDINATE, R=-4), "R"),
    ("subordinate", dict(SUBORDINATE, R=16.5), "R"),
    ("subordinate", dict(SUBORDINATE, K=0), "K"),
    ("subordinate", dict(SUBORDINATE, t_grid=[1, 2], semigroup_R=-3), "semigroup_R"),
    ("subordinate", dict(SUBORDINATE, t_grid=[1, 2], K1=0), "K1"),
    ("generate", dict(WINDOW, K=0), "K"),
    ("generate", dict(WINDOW, R=-2), "R"),
    ("generate", {"kind": "generate", "seed": 1, "count": 0}, "count"),
    ("verify", dict(BATCH, generate={"count": "3"}), "count"),
    ("verify", dict(BATCH, generate={"count": 0}), "count"),
    ("verify", dict(BATCH, jobs="2"), "jobs"),
    ("verify", dict(BATCH, jobs=0), "jobs"),
    ("verify", dict(BATCH, theorems="thm20"), "theorems"),
    ("verify", dict(BATCH, theorems=[]), "theorems"),
    ("verify", dict(FINITE, checks=["thm20", 21]), "checks"),
])
def test_malformed_integer_and_list_fields_exit_2(tmp_path, capsys, command, doc, field):
    assert_refused(tmp_path, capsys, command, doc, field)


@pytest.mark.parametrize("command,doc,field", [
    ("sharpness", dict(SHARPNESS, mode="middle"), "mode"),
    ("verify", dict(BATCH, generate={"count": 1, "m_range": [5, 3]}), "m_range"),
    ("perturbed", dict(PERTURBED, eps_grid=[-0.5]), "eps_grid"),
])
def test_malformed_mode_range_and_grid_exit_2(tmp_path, capsys, command, doc, field):
    assert_refused(tmp_path, capsys, command, doc, field)


@pytest.mark.parametrize("command,doc,field", [
    ("sharpness", dict(SHARPNESS, n=0), "n"),
    ("sharpness", dict(SHARPNESS, n="2"), "n"),
    ("sharpness", dict(SHARPNESS, s_grid=[-1, 2, 3]), "s_grid"),
    ("sharpness", dict(SHARPNESS, s_grid=["a"]), "s_grid"),
    # one point at s >= 10, then one at s <= 0.1
    ("sharpness", dict(SHARPNESS, s_grid=[1e-3, 1e-2, 20.0]), "s_grid"),
    ("sharpness", dict(SHARPNESS, s_grid=[1e-3, 20.0, 30.0]), "s_grid"),
    # two points in each fixed range, one in the top quarter of the log range
    ("sharpness", dict(SHARPNESS, s_grid=[1e-3, 1e-2, 10.0, 20.0, 1e10]), "s_grid"),
    ("subordinate", dict(SUBORDINATE, t_grid=[-1, 2]), "t_grid"),
    ("subordinate", dict(SUBORDINATE, t_grid="abc"), "t_grid"),
    ("subordinate", dict(SUBORDINATE, t_grid=[2, 2.0]), "t_grid"),
    ("verify", dict(BATCH, generate=[3]), "generate"),
    ("verify", dict(BATCH, instances=[5]), "instances"),
    ("verify", dict(BATCH, instances=[{"inline": TWO_POINT}, "x.json"]), "instances"),
    ("verify", _without(FINITE, "instance"), "instance"),
    ("verify", dict(FINITE, instance={"path": 7}), "path"),
    ("enumerate", dict(FINITE, instance=["x.json"]), "instance"),
    ("verify", dict(FINITE, tolerances={"slack": math.nan}), "slack"),
    ("verify", dict(FINITE, tolerances={"slack": math.inf}), "slack"),
    ("verify", dict(FINITE, tolerances=[1e-9]), "tolerances"),
    ("verify", dict(FINITE, tolerances={"slak": 1e-3}), "slak"),
    # only verify reads a tolerance: another runner's manifest refuses one
    ("subordinate", dict(SUBORDINATE, tolerances={"slack": 0.5}), "tolerances"),
    ("sharpness", dict(SHARPNESS, tolerances={"slack": 0.5}), "tolerances"),
    ("perturbed", dict(PERTURBED, tolerances={"slack": 0.5}), "tolerances"),
    ("generate", dict(WINDOW, tolerances={"slack": 0.5}), "tolerances"),
])
def test_malformed_manifest_fields_exit_2(tmp_path, capsys, command, doc, field):
    assert_refused(tmp_path, capsys, command, doc, field)


@pytest.mark.parametrize("missing", [True, False])
def test_unreadable_instance_path_exit_2(tmp_path, capsys, missing):
    """A missing file and a directory both exit 2 naming ``path``."""
    path = tmp_path / "absent.json" if missing else tmp_path
    assert_refused(tmp_path, capsys, "verify",
                   dict(FINITE, instance={"path": str(path)}), "path")


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_tol_override_is_checked_like_the_manifest(tmp_path, capsys, tol):
    """``--tol`` obeys the rule of the manifest's ``tolerances``: a NaN
    tolerance would otherwise pass every check, since s < -nan is false."""
    manifest = write(tmp_path, "m.json", FINITE)
    assert main(["verify", "--manifest", manifest, "--out", str(tmp_path / "o"),
                 f"--tol={tol}"]) == 2
    assert "field 'tol'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,doc", [
    ("verify", BATCH), ("enumerate", FINITE), ("subordinate", SUBORDINATE),
    ("sharpness", SHARPNESS), ("perturbed", PERTURBED), ("generate", WINDOW),
    ("generate", {"kind": "generate", "seed": 1, "count": 1}),
])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_1_exit_2_on_every_subcommand(tmp_path, capsys, command, doc, jobs):
    """Every subcommand takes ``--jobs`` and refuses a value below 1, though
    only ``verify`` runs a pool."""
    manifest = write(tmp_path, "m.json", doc)
    assert main([command, "--manifest", manifest, "--out", str(tmp_path / "o"),
                 f"--jobs={jobs}"]) == 2
    assert "field '--jobs'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_tol_reaches_every_verify_row(tmp_path, monkeypatch):
    """``--tol`` is the tolerance of every row that ``verify`` writes, and
    the rows are where a slack is judged: an evaluator worst slack of -5e-4
    fails the run at the default 1e-9 and passes it at 1e-3."""
    manifest = str(Path(__file__).resolve().parents[1] / "manifests" / "paper_checks.json")
    out = tmp_path / "loose"
    assert main(["verify", "--manifest", manifest, "--out", str(out), "--tol", "1e-3"]) == 0
    reports = json.loads((out / "report.json").read_text())["reports"]
    assert {row["tol"] for r in reports for row in r["checks"]} == {1e-3}
    monkeypatch.setattr(cli, "coarea_check", lambda *args: {"worst_slack": -5e-4})
    assert main(["verify", "--manifest", manifest, "--out", str(tmp_path / "d")]) == 1
    assert main(["verify", "--manifest", manifest, "--out", str(tmp_path / "t"),
                 "--tol", "1e-3"]) == 0


@pytest.mark.parametrize("command", ["enumerate", "subordinate", "sharpness",
                                     "perturbed", "generate"])
def test_tol_is_a_verify_flag_only(capsys, command):
    """Only ``verify`` reads a slack tolerance, so the other runners refuse
    ``--tol`` as an unknown argument instead of ignoring it."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--manifest", "m.json", "--tol", "0.5"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_enumeration_above_its_limit_exit_2(tmp_path, capsys):
    """Exact subset enumeration is refused above ENUM_LIMIT = 24 points with
    exit 2 and the limit named, not a traceback."""
    manifest = write(tmp_path, "m.json", dict(
        BATCH, generate={"count": 1, "m_range": [25, 25]}, theorems=["thm20"]))
    assert main(["verify", "--manifest", manifest, "--out", str(tmp_path / "o")]) == 2
    assert "m <= 24 points (ENUM_LIMIT), got m=25" in capsys.readouterr().err


def test_verify_jobs_2_writes_the_jobs_1_bytes(tmp_path):
    """The process pool gives the bytes of the serial run."""
    manifest = str(Path(__file__).resolve().parents[1] / "manifests" / "theorem_batch.json")
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(["verify", "--manifest", manifest, "--out", str(out),
                     "--jobs", jobs]) == 0
        outs.append([(out / name).read_bytes() for name in ("report.json", "summary.csv")])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("potential,builds", [(False, 1), (True, 2)])
def test_paper_checks_share_one_certified_rate(tmp_path, monkeypatch, potential, builds):
    """lemma2, thm20_poincare, sp_decay and thm21 read the certified rates of
    one ``certified_rates`` call per form and instance; thm20_poincare and
    thm21 need the unkilled form, so a killed instance builds two, the
    second one with thm43's killed-form table.  Each form is factored once:
    one batched (3-D) ``eigh`` per support size k = 1..m.  thm43's cemetery
    extension is another form, of m + 1 points, with its own call."""
    calls, sizes = [], []
    real, real_eigh = superpoincare.certified_rates, np.linalg.eigh

    def spy(space, kernel, grids, potential=None):
        calls.append((space.m, potential is not None, len(grids)))
        return real(space, kernel, grids, potential)

    def eigh(a, *args, **kwargs):
        if np.ndim(a) == 3:
            sizes.append(np.shape(a)[-1])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(cli, "certified_rates", spy)
    monkeypatch.setattr(superpoincare, "certified_rates", spy)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    theorems = ["lemma2", "thm20_poincare", "sp_decay", "coarea", "thm21"] + \
        ["thm43"] * potential
    manifest = write(tmp_path, "m.json", {
        "kind": "theorem-batch", "seed": 2,
        "generate": {"count": 1, "m_range": [4, 6], "potential": potential},
        "theorems": theorems})
    assert main(["verify", "--manifest", manifest, "--out", str(tmp_path / "o")]) == 0
    m = calls[0][0]
    forms = [(m, True, 2)] * potential + [(m, False, 2)] + [(m + 1, False, 1)] * potential
    assert calls == forms and sum(c[0] == m for c in calls) == builds
    assert sorted(sizes) == sorted(k for n, _, _ in forms for k in range(1, n + 1))
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert [r["theorem"] for r in report["reports"]] == theorems
    assert [len(r["checks"]) for r in report["reports"]][:4] == [1, 2, 1, 1]


def test_paper_checks_scan_each_thm20_premise_once(tmp_path, monkeypatch):
    """thm20_poincare's subset row and the premise of its functional row
    are one ``subset_rate_slacks`` scan: paper_checks.json (5 instances)
    makes 5 calls.  thm20_poincare reads the scan by module name, so a
    fault patched into ``isoperimetry`` reaches it."""
    from jumpiso import isoperimetry
    calls, real = [], isoperimetry.subset_rate_slacks

    def spy(profile, r_values, rate):
        calls.append(len(profile.sorted_masses))
        return real(profile, r_values, rate)

    monkeypatch.setattr(isoperimetry, "subset_rate_slacks", spy)
    manifest = Path(__file__).resolve().parents[1] / "manifests" / "paper_checks.json"
    assert main(["verify", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 5


def test_paper_checks_enumerate_one_profile_per_instance(tmp_path, monkeypatch):
    """thm20_poincare reads the unweighted profile the CLI holds, which is the
    instance's own profile when gamma is absent: paper_checks.json (5
    instances, no gamma) enumerates 5 profiles, and its report keeps its
    golden bytes."""
    from test_golden import GOLDEN

    from jumpiso import isoperimetry
    calls, real = [], isoperimetry.enumerate_profile

    def spy(space, kernel, gamma=None):
        calls.append(space.m)
        return real(space, kernel, gamma)

    monkeypatch.setattr(cli, "enumerate_profile", spy)
    monkeypatch.setattr(isoperimetry, "enumerate_profile", spy)
    manifest = Path(__file__).resolve().parents[1] / "manifests" / "paper_checks.json"
    out = tmp_path / "o"
    assert main(["verify", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert len(calls) == 5
    digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    assert digest == GOLDEN[("paper_checks.json", "verify")]["report.json"]


def test_cli_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    """A fresh process that imports the CLI loads no scipy.integrate,
    scipy.optimize or scipy.sparse.  The finite subcommands run on numpy
    alone: after ``verify`` and ``enumerate`` no scipy module and no
    multiprocessing is loaded (a process pool starts only at --jobs > 1).
    The continuum code imports scipy.special where it computes with it, so
    ``subordinate`` loads that and still no scipy.fft."""
    src = str(Path(jumpiso.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    manifests = Path(__file__).resolve().parents[1] / "manifests"
    runs = [["verify", "paper_checks.json"], ["enumerate", "finite_verify.json"],
            ["subordinate", "subordination.json"]]
    code = f"""
import json, sys
from jumpiso.cli import main
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing"))
stages, codes = [loaded()], []
for command, name in {runs!r}:
    codes.append(main([command, "--manifest", {str(manifests)!r} + "/" + name,
                       "--out", {str(tmp_path)!r} + "/" + command]))
    stages.append(loaded())
print(json.dumps([codes, stages]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path))
    codes, (at_import, _, finite, continuum) = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert not {"scipy.integrate", "scipy.optimize", "scipy.sparse"} & set(at_import)
    assert finite == []
    assert "scipy.special" in continuum and "scipy.fft" not in continuum
