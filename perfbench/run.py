"""Benchmark runner for lattice-forge.

    python3 perfbench/run.py --workload {construct,estimate,sweep,all}
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each timed pass replays one seeded request
list (see inputs.py) in a fresh process (worker.py); passes repeat until
``--seconds`` have elapsed, at least three of them, and every metric is the
median over passes. A human-readable report goes to stderr; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).

With ``--trace 1`` every pass runs twice on the same inputs, untraced and
then traced; the per-layer numbers come from the traced runs and
``trace.overhead_s`` is the median difference of their wall times.
Spans of the traced passes are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from tracer import LAYERS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "req_p50_s": "s",
    "req_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
# Functions whose self time and call count the trace reports, per layer.
TRACED_FUNCTIONS = (
    "numtheory.factorize", "numtheory.primitive_root", "numtheory.is_prime",
    "lattice.korobov_search", "lattice.subgroup_generating_vector", "lattice.find_admissible_n",
    "metrics.lattice_min_distance",
    "sphere.sphere_frame", "sphere.mutual_coherence",
    "pointset.generate", "pointset.shift_by", "pointset.mc_points",
    "integration.boltzmann_energy", "integration.mc_partition", "integration.mc_marginal",
    "integration.test_integrand",
    "kernels.exact_gram", "kernels.feature_map", "kernels.approx_gram", "kernels.gram_errors",
    "cli.main", "cli.build_parser",
)
PER_LAYER = {
    **{f"{layer}.{stat}": unit for layer in LAYERS
       for stat, unit in (("self_s", "s"), ("calls", "count"), ("raised", "count"))},
    **{f"{fn}.{stat}": unit for fn in TRACED_FUNCTIONS for stat, unit in (("self_s", "s"), ("calls", "count"))},
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_s": "s",
}
MIN_PASSES = 3
PASS_TIMEOUT_S = 120
# Passes stop starting once a run could no longer end within this budget.
RUN_BUDGET_S = 150


# One BLAS thread: on a shared 2-core VM, two threads made the wall time of
# a repeated pass vary about 8% against 3% with one. It never exceeds nproc.
BLAS_THREADS = 1


def run_pass(workload: str, seed: int, index: int, trace: int, scratch: str) -> dict:
    """One pass in a fresh worker process; returns its record."""
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        out = os.path.join(tmp, "record.json")
        threads = str(BLAS_THREADS)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
               "--pass", str(index), "--trace", str(trace), "--tmp", tmp, "--out", out,
               "--spans", os.path.join(scratch, f"spans-{workload}-{seed}-{index}.json")]
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def pass_metrics(rec: dict) -> dict:
    lat = sorted(rec["latency"])
    return {
        "wall_s": rec["wall_s"],
        "req_p50_s": statistics.median(lat),
        # nearest rank: with >= 100 requests at least ten lie beyond it
        "req_p90_s": lat[math.ceil(0.9 * len(lat)) - 1],
        "setup_s": rec["setup_s"],
        "peak_rss_mb": rec["rss_mb"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, scratch: str) -> dict:
    t0 = time.monotonic()
    plain, traced = [], []
    index = 0
    while index < MIN_PASSES or time.monotonic() - t0 < seconds:
        elapsed = time.monotonic() - t0
        if index >= MIN_PASSES and elapsed + 1.5 * elapsed / index > RUN_BUDGET_S:
            break
        plain.append(run_pass(workload, seed, index, 0, scratch))
        if trace:
            traced.append(run_pass(workload, seed, index, 1, scratch))
        index += 1
    return {"workload": workload, "seed": seed, "plain": plain, "traced": traced}


def _median_of(records: list[dict], key) -> float:
    return statistics.median(key(r) for r in records)


def summarize(result: dict) -> dict:
    plain, traced = result["plain"], result["traced"]
    records = plain + traced
    attempted = sum(len(r["latency"]) for r in records)
    failures = [f for r in records for f in r["failures"]]
    unexpected = [f for f in failures if f["entry"] not in inputs.KNOWN_DEFECTS]
    per_pass = [pass_metrics(r) for r in plain]
    e2e = {m: statistics.median(p[m] for p in per_pass) for m in END_TO_END if m != "ok_ratio"}
    e2e["ok_ratio"] = 1.0 - len(failures) / attempted
    layer = {}
    if traced:
        for name in PER_LAYER:
            layer[name] = _median_of(traced, lambda r: r["trace"].get(name, 0))
        layer["setup.import_s"] = _median_of(plain, lambda r: r["import_s"])
        layer["setup.inputs_s"] = _median_of(plain, lambda r: r["inputs_s"])
        layer["trace.overhead_s"] = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    return {"attempted": attempted, "failures": failures, "unexpected": unexpected,
            "end_to_end": e2e, "per_layer": layer, "per_pass": per_pass}


def input_properties(records: list[dict]) -> dict:
    """What the report says about the inputs a workload sent."""
    props: dict = {}
    mix = collections.Counter(c for r in records for c in r["classes"])
    props["requests_per_pass"] = len(records[0]["classes"])
    props["class_mix"] = {c: n // len(records) for c, n in sorted(mix.items())}
    shares = []
    for r in records:
        keys = [(i.get("d", i.get("m")), i["n"]) for i in r["info"] if "n" in i]
        shares.append(1 - len(set(keys)) / len(keys) if keys else 0.0)
    props["dn_repeat_share"] = statistics.median(shares)
    mods = [i for r in records for i in r["info"] if "p2" in i]
    if mods:
        p2 = [math.log2(i["p2"]) for i in mods]
        props["modulus_bits"] = [min(i["bits"] for i in mods), max(i["bits"] for i in mods)]
        props["log2_second_largest_factor_quartiles"] = [round(q, 2) for q in statistics.quantiles(p2, n=4)]
    sizes = [i["array_bytes"] for r in records for i in r["info"] if "array_bytes" in i]
    if sizes:
        props["largest_array_mib"] = round(max(sizes) / 2**20, 1)
    return props


def report(result: dict, summary: dict, out=sys.stderr) -> None:
    records = result["plain"] + result["traced"]
    print(f"workload {result['workload']}  seed {result['seed']}  passes {len(result['plain'])}"
          f"{' (+' + str(len(result['traced'])) + ' traced)' if result['traced'] else ''}"
          f"  blas_threads {BLAS_THREADS}  nproc {len(os.sched_getaffinity(0))}", file=out)
    for name, unit in END_TO_END.items():
        vals = [p[name] for p in summary["per_pass"]] if name != "ok_ratio" else []
        spread = f"  (passes {min(vals):.4g} .. {max(vals):.4g})" if vals else ""
        print(f"  {name:<14} {summary['end_to_end'][name]:.6g} {unit}{spread}", file=out)
    print(f"  requests       {summary['attempted']} attempted, {len(summary['failures'])} failed", file=out)
    by_entry = collections.defaultdict(list)
    for f in summary["failures"]:
        by_entry[f["entry"] or f["cls"]].append(f)
    for entry, fs in sorted(by_entry.items()):
        tag = "known defect" if entry in inputs.KNOWN_DEFECTS else "UNEXPECTED"
        print(f"  failed {entry} x{len(fs)} ({tag}): {fs[0]['reason']}  argv {' '.join(map(str, fs[0]['argv']))}",
              file=out)
    print(f"  inputs         {json.dumps(input_properties(records))}", file=out)
    if summary["per_layer"]:
        print("  per-layer (median over traced passes):", file=out)
        for name, value in summary["per_layer"].items():
            if value:
                print(f"    {name:<40} {value:.6g} {PER_LAYER[name]}", file=out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lattice_forge", "__init__.py")):
        print(f"error: no lattice_forge sources under {ROOT}/src", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace, scratch)
        summary = summarize(result)
        report(result, summary)
        correct &= not summary["unexpected"]
        attempted += summary["attempted"]
        failed += len(summary["failures"])
        values, units = (summary["per_layer"], PER_LAYER) if args.trace else (summary["end_to_end"], END_TO_END)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
