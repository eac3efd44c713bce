import json
from pathlib import Path

import pytest

from jumpiso.cli import main


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
        "theorems": ["thm20", "thm41"]})
    out = tmp_path / "o"
    assert main(["verify", "--manifest", manifest, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["reports"]) == 4
    assert all(r["pass"] for r in report["reports"])


def test_asymmetric_kernel_exit_2(tmp_path, capsys):
    manifest = write(tmp_path, "bad.json", {
        "kind": "finite-verify", "seed": 1,
        "instance": {"inline": {"mu": [1.0, 1.0],
                                "j": [[0.0, 2.0], [1.0, 0.0]]}},
        "checks": ["thm20"]})
    assert main(["verify", "--manifest", manifest, "--out", str(tmp_path / "o")]) == 2
    assert "pair (0, 1)" in capsys.readouterr().err


def test_bad_manifest_exit_2(tmp_path, capsys):
    missing_seed = write(tmp_path, "m1.json", {"kind": "finite-verify"})
    assert main(["verify", "--manifest", missing_seed, "--out", "x"]) == 2
    assert "seed" in capsys.readouterr().err
    wrong_kind = write(tmp_path, "m2.json", {"kind": "nope", "seed": 1})
    assert main(["verify", "--manifest", wrong_kind, "--out", "x"]) == 2
    broken = tmp_path / "m3.json"
    broken.write_text("{not json")
    assert main(["verify", "--manifest", str(broken), "--out", "x"]) == 2


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
