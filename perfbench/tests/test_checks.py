"""Each benchmark check accepts the CLI's real output and rejects a tampered
copy; the brute-force subset oracle matches a two-point closed form.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from workloads import finite_instance  # noqa: E402

from jumpiso.cli import main  # noqa: E402
from jumpiso.theorems import rate_from_gauge  # noqa: E402
from jumpiso.young import builtin  # noqa: E402


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    d = tmp_path_factory.mktemp("inst")
    path = d / "instance.json"
    path.write_text(json.dumps(finite_instance(np.random.default_rng(5), 5)))
    return path


def _cli(tmp, command, manifest):
    (tmp / "manifest.json").write_text(json.dumps(manifest))
    assert main([command, "--manifest", str(tmp / "manifest.json"),
                 "--out", str(tmp / "out")]) == 0
    return tmp / "out"


@pytest.fixture(scope="module")
def enumerated(instance, tmp_path_factory):
    out = _cli(tmp_path_factory.mktemp("enum"), "enumerate",
               {"kind": "finite-verify", "seed": 1, "instance": {"path": str(instance)}})
    return ((out / "profile.csv").read_text(),
            json.loads((out / "report.json").read_text()))


@pytest.fixture(scope="module")
def thm41_doc(instance, tmp_path_factory):
    out = _cli(tmp_path_factory.mktemp("thm41"), "verify",
               {"kind": "theorem-batch", "seed": 1, "theorems": ["thm41"],
                "instances": [{"path": str(instance)}]})
    return json.loads((out / "report.json").read_text())


def test_oracle_matches_two_point_closed_form():
    a, b, c, g = 0.7, 1.9, 1.3, 0.6
    inst = {"mu": [a, b], "j": [[0, c], [c, 0]], "gamma": [[1, g], [g, 1]]}
    masks, masses, flows = checks.subset_table(inst)
    assert masks.tolist() == [1, 2]
    assert masses.tolist() == [a, b]
    assert np.allclose(flows, [g * c * a * b] * 2, rtol=1e-15)
    assert checks.c_gamma(inst) == pytest.approx(g * g * c * max(a, b), rel=1e-15)


def test_profile_accepts_cli_output_and_rejects_changed_flow(instance, enumerated):
    csv_text, report = enumerated
    inst = json.loads(instance.read_text())
    assert checks.check_profile(csv_text, report, inst) == []
    lines = csv_text.splitlines()
    mass, flow, mask = lines[5].split(",")
    lines[5] = ",".join([mass, repr(float(flow.strip("np.float64()")) * (1 + 1e-9)), mask])
    assert checks.check_profile("\n".join(lines) + "\n", report, inst)


def test_profile_rejects_wrong_min_ratio_and_missing_subset(instance, enumerated):
    csv_text, report = enumerated
    inst = json.loads(instance.read_text())
    bad = dict(report, global_min_ratio=report["global_min_ratio"] * (1 + 1e-9))
    assert checks.check_profile(csv_text, bad, inst)
    dropped = "\n".join(csv_text.splitlines()[:-1]) + "\n"
    assert checks.check_profile(dropped, report, inst)


def test_thm41_rejects_c_indicator_off_by_1e6(instance, thm41_doc):
    text = instance.read_text()
    assert checks.check_verify(thm41_doc, [text], ["thm41"]) == [[]]
    rep = json.loads(json.dumps(thm41_doc["reports"][0]))
    rep["derived"]["C_indicator"] *= 1 + 1e-6
    assert checks.check_thm41(rep, json.loads(text))
    rep = json.loads(json.dumps(thm41_doc["reports"][0]))
    rep["derived"]["c_gamma"] *= 1 + 1e-6
    assert checks.check_thm41(rep, json.loads(text))


def test_rows_reject_negative_infinite_slack(instance, thm41_doc):
    rep = json.loads(json.dumps(thm41_doc["reports"][0]))
    rep["checks"].append({"claim": "profile finite", "slack": "-inf", "tol": 1e-9})
    assert checks.check_rows(rep)
    rep["checks"][-1]["slack"] = "nan"
    assert checks.check_rows(rep)
    doc = dict(thm41_doc, reports=[rep])
    assert checks.check_verify(doc, [instance.read_text()], ["thm41"]) != [[]]


def test_thm21_constant_range():
    assert checks.check_thm21({"derived": {"empirical_constant": 1.5}}) == []
    assert checks.check_thm21({"derived": {"empirical_constant": checks.C_STAR * 1.001}})
    assert checks.check_thm21({"derived": {"empirical_constant": 0.0}})
    assert checks.check_thm21({"derived": {}})


def test_rate_from_gauge_closed_form():
    N = builtin("power", p=2)
    assert checks.check_rate_from_gauge(rate_from_gauge, N, 0.37) == []

    def off(N, C, lead):
        return rate_from_gauge(N, C * (1 + 1e-6), lead)
    assert checks.check_rate_from_gauge(off, N, 0.37)


def _p1_csv(n, R, exponent):
    axes = np.meshgrid(*[np.arange(-R, R + 1)] * n, indexing="ij")
    rad = np.sqrt(sum(a.astype(float) ** 2 for a in axes)).ravel()
    vals = np.where(rad > 0, np.maximum(rad, 1.0) ** -exponent, 0.5)
    cols = [a.ravel() for a in axes]
    lines = [",".join([f"x{i}" for i in range(n)] + ["value"])]
    lines += [",".join([str(c[k]) for c in cols] + [f"np.float64({vals[k]!r})"])
              for k in range(rad.size)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 2])
def test_p1_slope_out_of_band(n):
    R, alpha = 32, 1.0
    rep = {"first_weight": alpha / 2}
    assert checks.check_p1(_p1_csv(n, R, n + alpha), rep, n, alpha, R) == []
    assert checks.check_p1(_p1_csv(n, R, n + alpha + 0.2), rep, n, alpha, R)
    assert checks.check_p1(_p1_csv(n, R, n + alpha), {"first_weight": 0.51}, n, alpha, R)


def test_torus_slopes():
    assert checks.check_torus({"diag_slope": -2.05, "grad_slope": -1.02}, 2, 1.0) == []
    assert checks.check_torus({"diag_slope": -2.3, "grad_slope": -1.0}, 2, 1.0)
    assert checks.check_torus({"diag_slope": -2.0, "grad_slope": -0.85}, 2, 1.0)


@pytest.mark.parametrize("mode", ["min_kernel", "max_kernel"])
def test_sharpness_slopes(mode):
    n, a1, a2 = 2, 0.5, 1.5
    lo, hi = n + 1 - a1 / 2, n + 1 - a2 / 2
    if mode == "max_kernel":
        lo, hi = hi, lo

    def csv(shift):
        s = np.concatenate([np.geomspace(1e-7, 1e-5, 8), np.geomspace(1e5, 1e7, 8)])
        v = np.where(s < 1, s ** (lo + shift), s ** hi)
        return "s,value\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(s, v))
    rep = {"profile_slopes": [1e-16, -1e-16]}
    assert checks.check_sharpness(csv(0.0), rep, n, a1, a2, mode) == []
    assert checks.check_sharpness(csv(0.1), rep, n, a1, a2, mode)
    assert checks.check_sharpness(csv(0.0), {"profile_slopes": [0.02, 0.0]},
                                  n, a1, a2, mode)


def test_perturbed_rejects_swapped_class_and_slope():
    alpha, n = 1.0, 2
    eps = [alpha / 4, alpha / 2, alpha]
    target = -2 * n / alpha - (n + alpha) / alpha
    rows = [{"eps": e, "class": c} for e, c in zip(eps, checks.CLASSES)]
    good = {"rows": rows, "beta_slope": target * 1.1}
    assert checks.check_perturbed(good, n, alpha, eps) == []
    swapped = [dict(rows[0]), dict(rows[2], eps=eps[1]), dict(rows[1], eps=eps[2])]
    assert checks.check_perturbed(dict(good, rows=swapped), n, alpha, eps)
    assert checks.check_perturbed(dict(good, beta_slope=target * 1.2), n, alpha, eps)


def test_benchmark_json_names_what_run_reports():
    import run
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert tuple(w["name"] for w in doc["workloads"]) == run.workloads.WORKLOADS
