"""Golden sha256 digests of the example manifests' outputs.

README promises byte-identical reports: each manifest under ``manifests/``
run through the CLI must write exactly these bytes.  A change that moves a
digest on purpose updates it here and says which one in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from jumpiso.cli import main

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

# manifest -> (subcommand, {output file: sha256})
GOLDEN = {
    "finite_verify.json": ("verify", {
        "report.json":
            "62a803296a8ea0413b302717af054ac6df40a71f2e58fd6658ec8e8dcd53cb7c",
    }),
    "generate.json": ("generate", {
        "instance_0000.json":
            "ff780d3059283b3fa950c275b386d6cc5d05d99f45c6718382e658535f6f8aee",
        "instance_0001.json":
            "7d891e99f9164b09db01740ad3cb57fa065d4c38c9c6c243ff0b40742fb61e4a",
        "instance_0002.json":
            "9f608fb3c774d94ffd26a4a60faa98cb9d6d545fe8903169e8c8026e629e72a5",
    }),
    "perturbed.json": ("perturbed", {
        "report.json":
            "1f8dce211e48a3961816da151f890d15a618ff45cb9eff7ddb33ee5e495fccec",
    }),
    "sharpness.json": ("sharpness", {
        "report.json":
            "d49442da47adf3b5c975aa5cf5e3ab2bbb376bd5b22ff71e2485b7990d3c3cdc",
    }),
    "subordination.json": ("subordinate", {
        "report.json":
            "50a880ee7d88f6a63f141c9ce320443be6c416b676e7182d124a979a36753673",
    }),
    "theorem_batch.json": ("verify", {
        "report.json":
            "3571bf45315f224f3fe2ac227a17c84e463d612bd178ebdfef64b88ef30579e9",
    }),
}


def test_every_manifest_is_pinned():
    assert sorted(p.name for p in MANIFESTS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("manifest", sorted(GOLDEN))
def test_manifest_outputs_match_golden_digests(tmp_path, manifest):
    command, digests = GOLDEN[manifest]
    assert main([command, "--manifest", str(MANIFESTS / manifest),
                 "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
