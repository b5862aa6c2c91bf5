"""One timed pass of a workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed S --pass I --trace 0|1
        --spawned T --tmp DIR --out FILE [--spans FILE]

Run from the repository root; ``run.py`` starts it. The pass imports
``lattice_forge`` from ``src/``, builds its request list, sends the
requests one at a time (a closed loop with one client), then runs the
output checks outside the timed region and writes a JSON record to FILE.
``--spawned`` is the CLOCK_MONOTONIC reading taken just before the process
was started, so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import inputs


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _send(lf, req: dict, path: str) -> dict:
    """Run one request; only the entry-point call is timed."""
    outcome = {"code": None, "exc": None, "value": None, "path": path}
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            if "call" in req:
                name, args = req["call"]
                outcome["value"] = getattr(lf, name)(*args)
            else:
                outcome["code"] = lf.cli.main(req["argv"] + ["--deterministic", "-o", path])
        except Exception as exc:  # a request that raises counts as failed
            outcome["exc"] = type(exc).__name__
        outcome["latency"] = time.perf_counter() - t0
    return outcome


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import lattice_forge as lf
    import lattice_forge.cli  # noqa: F401  (binds lf.cli)

    t_import = _now()
    reqs = inputs.requests(args.workload, args.seed, args.pass_index)
    t_ready = _now()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outcomes = []
    t0 = time.perf_counter()
    for i, req in enumerate(reqs):
        if tracer:
            tracer.request_id = i
        outcomes.append(_send(lf, req, os.path.join(args.tmp, f"{i}.out")))
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    failures = []
    for req, out in zip(reqs, outcomes):
        reason = checks.check(req, out)
        if reason is not None:
            failures.append({"cls": req["cls"], "entry": req["info"].get("entry"),
                             "argv": req.get("argv") or req["call"], "reason": reason})
        if out["code"] is not None and os.path.exists(out["path"]):
            os.remove(out["path"])

    record = {
        "wall_s": wall,
        "setup_s": t_ready - args.spawned,
        "import_s": t_import - args.spawned,
        "inputs_s": t_ready - t_import,
        "rss_mb": rss_mb,
        "latency": [o["latency"] for o in outcomes],
        "classes": [r["cls"] for r in reqs],
        "info": [r["info"] for r in reqs],
        "failures": failures,
    }
    if tracer:
        record["trace"] = tracer.summary()
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans(), fh)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
