"""Tests of the benchmark itself: its output checks and its trace accounting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

import lattice_forge as lf  # noqa: E402
import lattice_forge.cli  # noqa: E402,F401


def _send(req, tmp_path, i=0):
    return worker._send(lf, req, str(tmp_path / f"{i}.out"))


def _rewrite(path, column, value, row=0):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    cells[header.index(column)] = value
    lines[2 + row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_every_class_passes_on_the_library(tmp_path):
    for workload in inputs.WORKLOADS:
        reqs = inputs.requests(workload, 5, 0)
        picked = {}
        for req in reqs:
            picked.setdefault((req["cls"], req["argv"][0] if "argv" in req else "call"), req)
        for i, req in enumerate(picked.values()):
            if req["expect"] == "reject" and req["info"]["entry"] in inputs.KNOWN_DEFECTS:
                continue
            assert checks.check(req, _send(req, tmp_path, i)) is None, req


def test_closed_form_check_catches_a_wrong_vector():
    d, n = 5, 31
    info = {"d": d, "n": n}
    good = types.SimpleNamespace(z=tuple(inputs.subgroup_vector(d, n)), n=n)
    assert checks._closed_form_vector(info, good) is None
    outside = types.SimpleNamespace(z=good.z[:-1] + (good.z[-1] + 1,), n=n)
    assert "subgroup" in checks._closed_form_vector(info, outside)
    # z_j = -z_i stays in the subgroup but breaks the 2d distinct residues
    paired = types.SimpleNamespace(z=good.z[:-1] + (n - good.z[0],), n=n)
    assert "distinct" in checks._closed_form_vector(info, paired)


def test_search_check_catches_a_worse_multiplier(tmp_path):
    d, n = 4, 89
    req = inputs._cli("search", ["construct", "--method", "korobov", "--d", d, "--n", n, "--norm", "l1"],
                      d=d, n=n, norm="l1")
    out = _send(req, tmp_path)
    assert checks.check(req, out) is None
    # the Korobov vector of a = 1 is all ones: a valid vector, but worse than
    # the subgroup one, so only the oracle comparison can reject it
    _rewrite(out["path"], "multiplier", "1")
    _rewrite(out["path"], "z", " ".join(["1"] * d))
    key = checks.min_key([1] * d, n, "l1")
    _rewrite(out["path"], "min_distance", repr(key / n))
    assert "below subgroup key" in checks.check(req, out)


def test_certify_and_estimator_checks_catch_wrong_rows(tmp_path):
    d, n = 6, 37
    req = inputs._cli("certify", ["construct", "--d", d, "--n", n], d=d, n=n)
    out = _send(req, tmp_path, 0)
    assert checks.check(req, out) is None
    _rewrite(out["path"], "bound_holds", "false", row=1)
    assert "bound" in checks.check(req, out)

    req = inputs._cli("integrate", ["integrate", "--d", d, "--n", n, "--runs", 3, "--seed", 1],
                      d=d, n=n, b=2.0, c=1.0)
    out = _send(req, tmp_path, 1)
    assert checks.check(req, out) is None
    _rewrite(out["path"], "estimate", "2.0", row=2)
    assert checks.check(req, out) is not None


def test_malformed_entries_must_be_rejected(tmp_path):
    reqs = inputs.malformed(inputs.random.Random(3))
    for i, req in enumerate(reqs):
        if req["info"]["entry"] not in inputs.KNOWN_DEFECTS:
            assert checks.check(req, _send(req, tmp_path, i)) is None, req
    accepted = {"exc": None, "code": 0, "value": None, "path": None}
    assert "expected 2, 3 or 4" in checks.check(reqs[0], accepted)


def test_unexpected_failure_makes_a_run_incorrect():
    record = {"wall_s": 1.0, "setup_s": 0.1, "rss_mb": 1.0, "latency": [0.01] * 10,
              "failures": [{"cls": "malformed", "entry": "runs-zero", "reason": "x", "argv": []}]}
    assert not run.summarize({"plain": [record], "traced": []})["unexpected"]
    record["failures"].append({"cls": "certify", "entry": None, "reason": "x", "argv": []})
    assert run.summarize({"plain": [record], "traced": []})["unexpected"]


def test_self_times_and_remainder_add_up_to_wall(tmp_path):
    tracer = Tracer()
    tracer.install()
    reqs = [r for r in inputs.requests("construct", 9, 0) if r["cls"] in ("malformed", "sphere", "closed-form")][:12]
    t0 = time.perf_counter()
    for i, req in enumerate(reqs):
        tracer.request_id = i
        _send(req, tmp_path, i)
    wall = time.perf_counter() - t0
    summary = tracer.summary()
    layer_self = sum(summary.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    remainder = wall - summary["covered_s"]
    assert 0.0 <= remainder < wall
    assert layer_self + remainder == pytest.approx(wall, rel=1e-9)
    assert all(summary[k] >= 0 for k in summary if k.endswith("self_s"))
    spans = tracer.spans()
    assert {s["request"] for s in spans} == set(range(len(reqs)))
    assert all(s["parent"] < i for i, s in enumerate(spans))
    assert summary["numtheory.factorize.calls"] >= 1 and summary["cli.main.calls"] >= 1


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
