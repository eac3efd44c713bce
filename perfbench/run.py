#!/usr/bin/env python3
"""Benchmark of the jumpiso CLI: one workload per process.

    python3 perfbench/run.py --workload rate_small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

A run writes its inputs, then repeats rounds of the workload's CLI calls
(``jumpiso.cli.main`` in this process) until the next round would end after
``--seconds``; at least one round runs.  Round times are scaled to a
reference machine speed sampled during the round (probe.py).  With
``--trace 1`` each round is followed by a traced copy of it.  Outputs are
checked after the last round (checks.py); every round's output files must be
byte-identical to the last round's.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the n = 2 kernel, the largest BLAS user here, runs no
# faster with two, and a second thread only adds noise on a shared host.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")]

RATIOS = [
    "superpoincare.sp_estimate_per_rate",
    "superpoincare.certified_rate_per_instance",
    "young.inv_per_rate_eval",
    "core.theta_per_curve",
]
PER_LAYER = ([(f"{fn}.{f}", "count" if f == "calls" else "s")
              for _, _, fn, fields in TARGETS for f in fields]
             + [(r, "ratio") for r in RATIOS] + [("trace.overhead_s", "s")])


def since_process_start() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_START


def import_program():
    """Import jumpiso from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import jumpiso.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import jumpiso from {ROOT / 'src'}: {exc}")
    src = (ROOT / "src").resolve()
    if src not in Path(jumpiso.cli.__file__).resolve().parents:
        raise SystemExit(f"jumpiso was imported from {jumpiso.cli.__file__}, not {src}")
    return sys.modules["jumpiso.cli"]


def file_digests(folder: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(folder.iterdir())} if folder.is_dir() else {}


def run_round(cli, calls, work: Path, probe: SpeedProbe):
    """One round of CLI calls: (seconds at the reference speed, speed scale,
    exit codes, output digests)."""
    shutil.rmtree(work / "out", ignore_errors=True)

    def in_order():
        codes = []
        for call in calls:
            try:
                codes.append(cli.main(call.argv(work)))
            except Exception:                  # a crash fails the call only
                traceback.print_exc()
                codes.append(None)
        return codes
    codes, seconds, scale = probe.timed(in_order)
    return seconds, scale, codes, [file_digests(call.out_dir(work)) for call in calls]


def check_outputs(calls, work: Path) -> list:
    """Problems per operation of the last round, call by call."""
    out = []
    for call in calls:
        d = call.out_dir(work)
        try:
            report = json.loads((d / "report.json").read_text())
            out.append(check_call(call, d, report))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            out.append([[f"{call.name}: unreadable output: {exc!r}"]] * call.ops)
    return out


def check_call(call, d: Path, report: dict) -> list:
    m = call.manifest
    if call.command == "verify":
        texts = [Path(spec["path"]).read_text() for spec in m["instances"]]
        per_op = checks.check_verify(report, texts, m["theorems"])
        if "thm42" in m["theorems"]:
            per_op = check_gauge_rates(report, m["theorems"], per_op)
        return per_op
    if call.command == "enumerate":
        inst = json.loads(Path(m["instance"]["path"]).read_text())
        return [checks.check_profile((d / "profile.csv").read_text(), report, inst)]
    if call.command == "subordinate":
        bad = checks.check_p1((d / "p1.csv").read_text(), report,
                              m["n"], m["alpha"], m["R"])
        if "t_grid" in m:
            bad += checks.check_torus(report, m["n"], m["alpha"])
        return [bad]
    if call.command == "sharpness":
        return [checks.check_sharpness((d / "cone_energy.csv").read_text(), report,
                                       m["n"], m["alpha1"], m["alpha2"], m["mode"])]
    return [checks.check_perturbed(report, m["n"], m["alpha"], m["eps_grid"])]


def check_gauge_rates(report: dict, theorems: list, per_op: list) -> list:
    """The rate thm42 consumes, rate_from_gauge(N, C_used), against its closed
    form; a mismatch fails that instance's thm42 operation."""
    from jumpiso.theorems import rate_from_gauge
    from jumpiso.young import builtin
    k41, k42 = theorems.index("thm41"), theorems.index("thm42")
    for i in range(len(per_op) // len(theorems)):
        rep = report["reports"][i * len(theorems) + k41]
        bad = checks.check_rate_from_gauge(rate_from_gauge, builtin("power", p=2),
                                           float(rep["derived"]["C_used"]))
        per_op[i * len(theorems) + k42] = per_op[i * len(theorems) + k42] + bad
    return per_op


def inputs_digest(work: Path) -> str:
    """The program's source and this run's inputs and manifests."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        p for sub in ("inputs", "manifests") for p in (work / sub).iterdir())
    for p in files:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def same_as_earlier_runs(name: str, work: Path, digests: list, calls) -> list:
    """report.json digests must match every earlier run of the same source
    and inputs (the byte-identity promise across processes); the first such
    run records them."""
    store = OUT / "digests" / f"{name}-{inputs_digest(work)}.json"
    mine = {c.name: d.get("report.json") for c, d in zip(calls, digests)}
    if store.exists():
        earlier = json.loads(store.read_text())
        return [f"{k}: report.json sha256 {mine.get(k)} != earlier run's {v}"
                for k, v in earlier.items() if mine.get(k) != v]
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(mine, sort_keys=True, indent=1))
    tmp.replace(store)
    return []


def layer_metrics(totals: dict, instances: int) -> dict:
    def calls(fn):
        return totals.get(fn, (0, 0.0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for _, _, fn, fields in TARGETS:
        calls_n, self_s = totals.get(fn, (0, 0.0))
        for f in fields:
            out[f"{fn}.{f}"] = calls_n if f == "calls" else self_s
    out["superpoincare.sp_estimate_per_rate"] = ratio(
        calls("superpoincare.sp_estimate"), calls("superpoincare.certified_rate"))
    out["superpoincare.certified_rate_per_instance"] = ratio(
        calls("superpoincare.certified_rate"), instances)
    out["young.inv_per_rate_eval"] = ratio(
        calls("young.YoungFunction.inv"),
        calls("superpoincare.RateFunction.call") + calls("superpoincare.RateFunction.inv"))
    out["core.theta_per_curve"] = ratio(
        calls("core.Semigroup.theta"), calls("core.Semigroup.theta_curve"))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    cli = import_program()
    calls = workloads.prepare(name, seed, work)
    setup_s = since_process_start()

    probe = SpeedProbe()
    tracer = Tracer(clock=probe.clock) if trace else None
    plain, traced, layers, rounds = [], [], [], []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(cli, calls, work, probe))
        plain.append(rounds[-1][0])
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                rounds.append(run_round(cli, calls, work, probe))
            finally:
                tracer.uninstall()
            traced.append(rounds[-1][0])
            layers.append(layer_metrics(tracer.totals(),
                                        workloads.verify_instances(calls)))
        elapsed = time.perf_counter() - t0
        if elapsed * (1 + 1 / len(plain)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for seconds_ref, scale, *_ in rounds:
        print(f"{name}: round {seconds_ref / scale:.4f} s unscaled, scale {scale:.4f}",
              file=sys.stderr)

    problems = check_outputs(calls, work)
    *_, last_codes, last_digests = rounds[-1]
    attempted = failed = 0
    mismatch = []
    for *_, codes, digests in rounds:
        for call, code, dig, last, per_op in zip(calls, codes, digests,
                                                 last_digests, problems):
            attempted += call.ops
            if code != 0 or dig != last:
                failed += call.ops
                if dig != last:
                    mismatch.append(f"{call.name}: output bytes differ between rounds")
            else:
                failed += sum(1 for p in per_op if p)
    mismatch += same_as_earlier_runs(name, work, last_digests, calls)
    for call, code, per_op in zip(calls, last_codes, problems):
        if code != 0:
            print(f"{call.name}: exit code {code}", file=sys.stderr)
        for p in per_op:
            for line in p:
                print(f"{call.name}: {line}", file=sys.stderr)
    for line in mismatch:
        print(line, file=sys.stderr)

    if trace:
        tracer.write(work / "trace_spans.csv")
        med = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        med["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {k: {"value": med[k], "unit": u} for k, u in PER_LAYER}
    else:
        values = {"setup_s": setup_s, "run_s": statistics.median(plain),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return {"correct": failed == 0 and not mismatch, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in a fresh process; metrics keyed workload.metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
        print("\n".join(lines[:-1]), flush=True)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(f"{args.workload} seed={args.seed}: attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']}")
        for k, v in result["metrics"].items():
            print(f"  {args.workload} {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
