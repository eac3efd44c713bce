"""Golden sha256 digests of the example manifests' outputs.

README promises byte-identical reports: each manifest under ``manifests/``
run through the CLI must write exactly these bytes.  A manifest may carry
more than one pinned run, one per subcommand.  A change that moves a digest
on purpose updates it here and says which one in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from jumpiso.cli import main

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

# (manifest, subcommand) -> {output file: sha256}
GOLDEN = {
    ("finite_verify.json", "verify"): {
        "report.json":
            "69dd75a71bcb0620d0370ec8e925a23c191da16a5d3037c0b2154b56b65cb3d5",
    },
    ("finite_verify.json", "enumerate"): {
        "profile.csv":
            "10b26b8bfb549e0f00615fc305dbadc7c719c3f78b81de1062ff005caf6a0602",
        "report.json":
            "0a5a867f958bb5918ae68b344467d827c84ac1d5367aae3d99fa660a71a6f19c",
    },
    ("generate.json", "generate"): {
        "instance_0000.json":
            "ff780d3059283b3fa950c275b386d6cc5d05d99f45c6718382e658535f6f8aee",
        "instance_0001.json":
            "7d891e99f9164b09db01740ad3cb57fa065d4c38c9c6c243ff0b40742fb61e4a",
        "instance_0002.json":
            "9f608fb3c774d94ffd26a4a60faa98cb9d6d545fe8903169e8c8026e629e72a5",
    },
    ("killed_batch.json", "verify"): {
        "report.json":
            "1b040497521313bbe667c3f09f7c4221d109874f0a01c857c87fb1b53140d79c",
    },
    ("paper_checks.json", "verify"): {
        "report.json":
            "00fb84d149a84140dd7b10238aca6e628f2a2d6a602c6140899d6d8bcb8650e7",
    },
    ("perturbed.json", "perturbed"): {
        "report.json":
            "6d8e50246448ac5a14b6be46e542585ba4f4b5df830fefa2c20230c932eda9e5",
    },
    ("sharpness.json", "sharpness"): {
        "report.json":
            "d49442da47adf3b5c975aa5cf5e3ab2bbb376bd5b22ff71e2485b7990d3c3cdc",
    },
    ("subordination.json", "subordinate"): {
        "p1.csv":
            "f81d37cf845ed42ee1ca826da513a17eafd982c5e68d71f6c17540b4ff8ed7bb",
        "report.json":
            "50a880ee7d88f6a63f141c9ce320443be6c416b676e7182d124a979a36753673",
    },
    ("theorem_batch.json", "verify"): {
        "report.json":
            "4baacecfc2a85e5678e7397cd543c1809f797dc4d1ea88b047039a81318e24e5",
    },
}
PINNED = sorted({manifest for manifest, _ in GOLDEN})


def test_every_manifest_is_pinned():
    assert sorted(p.name for p in MANIFESTS.glob("*.json")) == PINNED


@pytest.mark.parametrize("manifest", PINNED)
def test_manifest_outputs_match_golden_digests(tmp_path, manifest):
    for (name, command), digests in GOLDEN.items():
        if name != manifest:
            continue
        out = tmp_path / command
        assert main([command, "--manifest", str(MANIFESTS / manifest),
                     "--out", str(out)]) == 0
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
        assert got == digests, command
