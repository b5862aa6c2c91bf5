"""CLI contract tests: exit codes, schema headers, determinism, formats."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_forge import cli, exceptions
from lattice_forge.cli import main
from lattice_forge.metrics import lattice_min_distance
from lattice_forge.lattice import subgroup_generating_vector
from lattice_forge.numtheory import is_prime
from lattice_forge.sphere import mutual_coherence, sphere_frame


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_zero_on_success(capsys):
    code, out, _ = _run(capsys, "construct", "--d", "2", "--n", "5", "--deterministic")
    assert code == 0
    assert out.startswith("# lattice-forge v1\n")


# The exit-code contract, one row per argv: (argv, exit code, stderr line).
# A successful row (line None) prints the schema comment first and nothing
# on stderr. An error row prints nothing on stdout and exactly one stderr
# line, with no traceback; argparse's usage errors print their usage lines
# before it. A line ending in "..." is a prefix, for text that numpy or the
# Python version words; "{mem}" is this machine's memory as the size
# guards print it, and "{tmp}" the row's empty directory.
_MORE = ", more than the {mem} GiB of physical memory"
_PHYSICAL = exceptions._physical_memory()
_MEM = f"{(_PHYSICAL or 0) / 2**30:.1f}"
_ROWS = [
    # usage errors; numpy seeding refuses negative ints, so the parser
    # turns them away
    pytest.param("nonsense", 2, "lattice-forge: error: argument COMMAND: invalid choice: 'nonsense'...",
                 id="usage-command"),
    pytest.param("construct --d 2", 2,
                 "lattice-forge construct: error: the following arguments are required: --n",
                 id="usage-no-n"),
    pytest.param("construct --d 2 --n 5 --format xml", 2,
                 "lattice-forge construct: error: argument --format: invalid choice: 'xml'...",
                 id="usage-format"),
    pytest.param("integrate --d 2 --n 5 --runs 1 --seed -1", 2,
                 "lattice-forge integrate: error: argument --seed: must be >= 0, got -1",
                 id="seed-integrate"),
    pytest.param("boltzmann --d 2 --n 5 --runs 1 --gt-samples 10 --seed -3", 2,
                 "lattice-forge boltzmann: error: argument --seed: must be >= 0, got -3",
                 id="seed-boltzmann"),
    pytest.param("kernel --samples 5 --data-dim 2 --n 7 --runs 1 --seed -1", 2,
                 "lattice-forge kernel: error: argument --seed: must be >= 0, got -1", id="seed-kernel"),
    # admissibility
    pytest.param("construct --d 3 --n 12", 3, "error: 2d does not divide n-1 (d=3, n=12)", id="construct-2d"),
    pytest.param("construct --d 2 --n 7", 3, "error: 2d does not divide n-1 (d=2, n=7)",
                 id="construct-2d-prime"),
    pytest.param("sphere --d 7 --n 29", 3, "error: ambient dimension must be even, got 7", id="sphere-odd"),
    # n < 2 is rejected as not prime before the divisibility check, and an
    # explicit kernel --n 0 is used, not replaced by the default prime
    pytest.param("construct --d 2 --n 9", 4, "error: n must be prime, got 9", id="prime-9"),
    pytest.param("kernel --samples 20 --data-dim 2 --n 0 --runs 1", 4, "error: n must be prime, got 0",
                 id="prime-kernel-0"),
    pytest.param("construct --d 2 --n 0", 4, "error: n must be prime, got 0", id="prime-0"),
    pytest.param("construct --d 2 --n -7", 4, "error: n must be prime, got -7", id="prime-neg"),
    pytest.param("construct --d 2 --n -7 --method korobov", 4, "error: n must be prime, got -7",
                 id="prime-korobov-neg"),
    pytest.param("construct --d 2 --n 1 --method korobov", 4, "error: n must be prime, got 1",
                 id="prime-korobov-1"),
    pytest.param("sphere --d 4 --n 0", 4, "error: n must be prime, got 0", id="prime-sphere-0"),
    pytest.param("construct --d 1 --n 18446744073709551629", 4,
                 "error: is_prime expects 0 <= n < 2**64, got 18446744073709551629", id="prime-range"),
    pytest.param("kernel --samples 20 --data-dim 2 --n 13 --runs 1 --sigma inf", 4,
                 "error: sigma must be positive and finite, got inf", id="sigma-inf"),
    pytest.param("integrate --d 2 --n 13 --runs 1 --c nan", 4,
                 "error: b and c must be finite, got b=2.0, c=nan", id="c-nan"),
    pytest.param("integrate --d 2 --n 13 --runs 1 --b inf", 4,
                 "error: b and c must be finite, got b=inf, c=1.0", id="b-inf"),
    # 2 sigma**2 overflows or underflows to 0; the reference overflows
    pytest.param("kernel --samples 20 --data-dim 2 --n 13 --runs 1 --sigma 1e300", 4,
                 "error: 2 sigma**2 must be a positive finite float, got sigma=1e+300", id="sigma-overflow"),
    pytest.param("kernel --samples 20 --data-dim 2 --n 13 --runs 1 --sigma 1e-300", 4,
                 "error: 2 sigma**2 must be a positive finite float, got sigma=1e-300", id="sigma-underflow"),
    pytest.param("integrate --d 3 --n 7 --runs 1 --c 800", 4,
                 "error: reference value must be finite and nonzero, got inf", id="reference-inf"),
    pytest.param("integrate --d 3 --n 7 --runs 1 --b=-2000", 4,
                 "error: reference value must be finite and nonzero, got nan", id="reference-nan"),
    # a finite reference, about 3.8e307, but the integrand overflows to inf
    # near the corner (1, 1); or the estimates are finite and their std row
    # overflows
    pytest.param("integrate --d 2 --n 10007 --b 0 --c 360 --runs 2 --method mc --deterministic", 4,
                 "error: estimate must be finite, got inf", id="integrand-inf-mc"),
    pytest.param("integrate --d 2 --n 10009 --b 0 --c 360 --runs 2 --method subgroup --deterministic", 4,
                 "error: estimate must be finite, got inf", id="integrand-inf-subgroup"),
    pytest.param("integrate --d 2 --n 10007 --b 0 --c 200 --runs 2 --method mc --deterministic", 4,
                 "error: mc std of estimate: ...", id="std-overflow"),
    # weights that underflow to 0 leave a valid reference
    pytest.param("integrate --d 3 --n 7 --runs 1 --b 2000 --deterministic", 0, None, id="weights-underflow"),
]

# a prime with 64 | n - 1: sphere --d 128 asks for 2.6e12 bytes, a 2 TB
# frame plus its residue matrix, and integrate --d 32 --runs 16 for the
# 119.2 GiB of 16 runs' values; one run's 7.45 GiB could fit a machine
_BIG_PRIME = "1000000321"
# MC points are streamed, never held: one run of 10**12 points needs only
# its 7450.6 GiB of values, which the values guard refuses on any machine
_BIG_MC_N = "1000000000000"
# one MC run of 469762049 points needs 3.5 GiB of values: no size guard
# refuses them on a machine with that much memory
_OOM_N = 469762049

# Rows run in a child whose address space is capped at 3 GiB, so an
# allocation that no size guard refuses fails on any machine; each row has
# a timeout (argv, exit code, line, seconds). Every guard refuses before
# the child could reach the out-of-memory backstop, and writes no file.
_CAPPED_ROWS = [
    pytest.param(f"integrate --d 1 --n {_OOM_N} --runs 1 --method mc", 4, "error: out of memory: ...", 60,
                 id="out-of-memory", marks=pytest.mark.skipif(
                     _PHYSICAL is not None and _PHYSICAL < 8 * _OOM_N,
                     reason="the values guard refuses this request on a machine this small")),
    # the exact Gram matrix of 200000 samples and a run's Gram matrix
    pytest.param("kernel --samples 200000 --data-dim 2 --n 5 --runs 1", 4,
                 "error: kernel benchmark for N=200000, n=5 needs 596.1 GiB" + _MORE, 60, id="kernel"),
    pytest.param(f"sphere --d 128 --n {_BIG_PRIME}", 4,
                 f"error: sphere frame for m=64, n={_BIG_PRIME} needs 2399.1 GiB" + _MORE, 60,
                 id="sphere-frame"),
    # a lattice is streamed, never held: 16 runs of values
    pytest.param(f"integrate --d 32 --n {_BIG_PRIME} --runs 16 --method subgroup", 4,
                 f"error: point values for d=32, n={_BIG_PRIME}, runs=16 needs 119.2 GiB" + _MORE, 60,
                 id="points-subgroup"),
    pytest.param(f"integrate --d 32 --n {_BIG_MC_N} --runs 1 --method mc", 4,
                 f"error: point values for d=32, n={_BIG_MC_N}, runs=1 needs 7450.6 GiB" + _MORE, 60,
                 id="points-mc"),
    # construct refuses the points (their floats and one residue tile)
    # before the census runs
    pytest.param(f"construct --d 32 --n {_BIG_PRIME} --points-out {{tmp}}/p.csv", 4,
                 f"error: points for d=32, n={_BIG_PRIME} needs 238.4 GiB" + _MORE, 60,
                 id="construct-points"),
    # up to (n-1)/2 = 1.5e9 distinct keys
    pytest.param("construct --d 1 --n 3037000493", 4,
                 "error: census for d=1, n=3037000493 needs 101.9 GiB" + _MORE, 60, id="construct-census"),
    # the search's tables of n residues and one key's scratch
    pytest.param("construct --method korobov --d 2 --n 1000000009", 4,
                 "error: korobov search for d=2, n=1000000009 needs 61.5 GiB" + _MORE, 60,
                 id="construct-korobov"),
    # construct --d 2*10**9 lists d powers of an order-4*10**9 subgroup's
    # generator, sphere --d 4*10**9 (m = 2*10**9) all of an order-2*10**9
    # subgroup: 2*10**9 Python ints either way, 96 GB
    pytest.param("construct --d 2000000000 --n 48000000001", 4,
                 "error: subgroup of order 4000000000 for n=48000000001 needs 89.4 GiB" + _MORE, 60,
                 id="subgroup-construct"),
    pytest.param("sphere --d 4000000000 --n 6000000001", 4,
                 "error: subgroup of order 2000000000 for n=6000000001 needs 89.4 GiB" + _MORE, 60,
                 id="subgroup-sphere"),
    # construct runs its l2 census first, so the l2 key limit refuses
    # d = 10**5 before either census starts: well under 3 s
    pytest.param("construct --d 100000 --n 1000200001", 4,
                 "error: l2 keys overflow int64 for d=100000, n=1000200001; need d*((n-1)//2)**2 < 2**63", 3,
                 id="l2-limit-first"),
    # the l2 key limit refuses before the 10**8 subgroup powers are listed,
    # once their own size guard (4.1 GiB) has passed
    pytest.param("construct --d 100000000 --n 600000001", 4,
                 "error: l2 keys overflow int64 for d=100000000, n=600000001; need d*((n-1)//2)**2 < 2**63", 3,
                 id="l2-limit-before-vector", marks=pytest.mark.skipif(
                     _PHYSICAL is not None and _PHYSICAL < 44 * 10**8,
                     reason="the subgroup guard refuses this request on a machine this small")),
    # at d = 1 every orbit ties the first one's key, so one key settles the
    # search: seconds would mean the scan no longer stops at ties
    pytest.param("construct --d 1 --n 100003 --method korobov --deterministic", 0, None, 10,
                 id="korobov-ties"),
]


def _check_row(code, out, err, expect, line):
    assert "Traceback" not in err
    assert code == expect, err
    if line is None:
        assert out.startswith("# lattice-forge v1\n") and err == ""
        return
    assert out == "" and err.endswith("\n")
    *usage, last = err.splitlines()
    if usage:  # argparse's usage lines, then its one error line
        assert code == 2 and usage[0].startswith("usage: ") and all(u[0] == " " for u in usage[1:]), err
    line = line.replace("{mem}", _MEM)
    assert last.startswith(line[:-3]) if line.endswith("...") else last == line


@pytest.mark.parametrize("argv, code, line", _ROWS)
def test_exit_code_contract(capsys, argv, code, line):
    _check_row(*_run(capsys, *argv.split()), code, line)


@pytest.mark.parametrize("argv, code, line, seconds", _CAPPED_ROWS)
def test_exit_code_contract_capped(tmp_path, argv, code, line, seconds):
    resource = pytest.importorskip("resource")
    cap = 3 * 2**30

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "lattice_forge.cli", *argv.replace("{tmp}", str(tmp_path)).split()],
        capture_output=True, text=True, timeout=seconds, preexec_fn=limit_child,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    _check_row(proc.returncode, proc.stdout, proc.stderr, code, line)
    assert not any(tmp_path.iterdir())


def test_construct_checks_the_l2_key_limit_before_any_census(no_numpy, capsys):
    # at d = 10**5 the l2 keys d*((n-1)//2)**2 pass 2**63 - 1 from n = 2d*97 + 1;
    # 21600001 is the first admissible prime above that and 17800001 the
    # last below. The l2 census runs first, so its limit refuses before
    # the l1 census reaches numpy; below the limit the census starts.
    no_numpy("lattice_forge.metrics")
    d, above, below = 100000, 21600001, 17800001
    assert [k for k in range(89, 109) if is_prime(2 * d * k + 1)] == [89, 108]
    assert d * ((below - 1) // 2) ** 2 <= 2**63 - 1 < d * ((above - 1) // 2) ** 2
    code, out, err = _run(capsys, "construct", "--d", str(d), "--n", str(above))
    assert (code, out) == (4, "")
    assert err == (f"error: l2 keys overflow int64 for d={d}, n={above}; "
                   "need d*((n-1)//2)**2 < 2**63\n")
    with pytest.raises(AssertionError, match="scan started"):
        main(["construct", "--d", str(d), "--n", str(below)])


@pytest.mark.parametrize("method, guard", [("subgroup", "subgroup of order 200000 for n=21600001"),
                                           ("korobov", "korobov search for d=100000, n=21600001")],
                         ids=["subgroup", "korobov"])
def test_construct_checks_the_census_limits_before_the_vector(monkeypatch, no_numpy, first_work, capsys, method, guard):
    # the same pair: above the l2 limit construct refuses after the method's
    # own argument checks and size guard but before its vector is listed or
    # searched for; below it the vector is built
    no_numpy("lattice_forge.lattice")
    no_numpy("lattice_forge.metrics")
    first_work(f"lattice_forge.cli.{'korobov_search' if method == 'korobov' else 'subgroup_generating_vector'}")
    d, above, below = 100000, 21600001, 17800001
    code, out, err = _run(capsys, "construct", "--d", str(d), "--n", str(above), "--method", method)
    assert (code, out) == (4, "")
    assert err == (f"error: l2 keys overflow int64 for d={d}, n={above}; "
                   "need d*((n-1)//2)**2 < 2**63\n")
    with pytest.raises(AssertionError, match="scan started"):
        main(["construct", "--d", str(d), "--n", str(below), "--method", method])
    # with no memory at all, the method's guard refuses first, as it did
    # when the vector was built before the census limits were checked
    monkeypatch.setattr(exceptions, "_physical_memory", lambda: 0)
    code, out, err = _run(capsys, "construct", "--d", str(d), "--n", str(above), "--method", method)
    assert (code, out) == (4, "")
    assert err.startswith(f"error: {guard} needs ")


@pytest.mark.parametrize("runs", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("integrate", "--d", "2", "--n", "13"),
        ("boltzmann", "--d", "2", "--n", "13", "--gt-samples", "100"),
        ("kernel", "--samples", "20", "--data-dim", "2", "--n", "13"),
    ],
)
def test_exit_four_on_nonpositive_runs(capsys, argv, runs):
    _check_row(*_run(capsys, *argv, "--runs", runs, "--deterministic"), 4,
               f"error: runs must be >= 1, got {runs}")


def test_help_exits_zero(capsys):
    assert _run(capsys, "--help")[0] == 0


_KERNEL = ("kernel", "--n", "13", "--runs", "1", "--deterministic")


@pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
def test_exit_two_on_unreadable_data(capsys, tmp_path, name):
    _check_row(*_run(capsys, *_KERNEL, "--data", str(tmp_path / name)), 2, "error: ...")


@pytest.mark.parametrize(
    "argv",
    [
        ("admissible", "--d", "2", "--count", "2", "-o"),
        ("construct", "--d", "2", "--n", "5", "--points-out"),
        ("sphere", "--d", "4", "--n", "5", "--frame-out"),
    ],
    ids=["output", "points-out", "frame-out"],
)
def test_exit_two_on_unwritable_output(capsys, tmp_path, argv):
    path = str(tmp_path / "no-such-dir" / "x.csv")
    _check_row(*_run(capsys, *argv, path, "--deterministic"), 2, "error: ...")


@pytest.mark.parametrize(
    "text",
    ["1,2\nx,4\n", "", "1,2\n3,4,5\n", "1,2\nnan,4\n", "1e200,1\n2,3\n"],
    ids=["non-numeric", "empty", "ragged", "nan", "gram-overflow"],
)
def test_exit_four_on_malformed_data(capsys, tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    _check_row(*_run(capsys, *_KERNEL, "--data", str(path)), 4, "error: ...")


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_values_match_library(capsys):
    code, out, _ = _run(capsys, "construct", "--d", "3", "--n", "13", "--deterministic")
    assert code == 0
    rows = _parse_csv(out)
    assert [r["norm"] for r in rows] == ["l1", "l2"]
    assert rows[0]["z"] == "1 4 3"
    rep = lattice_min_distance(subgroup_generating_vector(3, 13), "l1")
    assert float(rows[0]["min_distance"]) == rep.min_distance
    assert int(rows[0]["distinct_distances"]) == 2
    assert int(rows[0]["uniform_multiplicity"]) == 6
    assert rows[0]["bound_holds"] == "true"


def test_construct_korobov_reports_multiplier(capsys):
    code, out, _ = _run(
        capsys, "construct", "--d", "2", "--n", "5", "--method", "korobov", "--deterministic"
    )
    assert code == 0
    rows = _parse_csv(out)
    assert rows[0]["method"] == "korobov"
    assert rows[0]["multiplier"] == "2"
    assert float(rows[0]["min_distance"]) == pytest.approx(0.6, abs=1e-15)


def test_construct_points_out(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    code, _, _ = _run(
        capsys, "construct", "--d", "2", "--n", "5", "--points-out", str(path),
        "--deterministic",
    )
    assert code == 0
    pts = np.loadtxt(path, delimiter=",")
    assert pts.shape == (5, 2)
    np.testing.assert_allclose(pts[1], [0.2, 0.4], atol=0)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def test_deterministic_flag_suppresses_timestamp(capsys):
    _, out1, _ = _run(capsys, "admissible", "--d", "50", "--count", "3", "--deterministic")
    _, out2, _ = _run(capsys, "admissible", "--d", "50", "--count", "3", "--deterministic")
    assert out1 == out2
    assert "generated" not in out1
    _, out3, _ = _run(capsys, "admissible", "--d", "50", "--count", "3")
    assert "# generated" in out3


def test_json_mirrors_csv(capsys):
    _, out_csv, _ = _run(capsys, "admissible", "--d", "50", "--count", "3", "--deterministic")
    _, out_json, _ = _run(
        capsys, "admissible", "--d", "50", "--count", "3", "--deterministic",
        "--format", "json",
    )
    payload = json.loads(out_json)
    assert payload["schema"] == "lattice-forge v1"
    assert payload["columns"] == ["d", "index", "n"]
    assert [r["n"] for r in payload["rows"]] == [101, 401, 601]
    csv_rows = _parse_csv(out_csv)
    assert [int(r["n"]) for r in csv_rows] == [101, 401, 601]


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, out, _ = _run(
        capsys, "admissible", "--d", "3", "--count", "2", "--deterministic",
        "--output", str(path),
    )
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith("# lattice-forge v1\n")
    assert [int(r["n"]) for r in _parse_csv(text)] == [7, 13]


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------


def test_integrate_no_shift_known_value(capsys):
    code, out, _ = _run(
        capsys, "integrate", "--d", "1", "--n", "3", "--method", "subgroup",
        "--runs", "1", "--no-shift", "--deterministic",
    )
    assert code == 0
    rows = _parse_csv(out)
    # {0, 1/3, 2/3} left sum of e^x
    expect = (1 + np.exp(1 / 3) + np.exp(2 / 3)) / 3
    assert float(rows[0]["estimate"]) == pytest.approx(expect, rel=1e-15)
    assert rows[-2]["run"] == "mean"
    assert rows[-1]["run"] == "std"


def test_integrate_deterministic_output_stable(capsys):
    args = (
        "integrate", "--d", "2", "--n", "13", "--runs", "3", "--seed", "7",
        "--deterministic",
    )
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2
    rows = _parse_csv(out1)
    assert len(rows) == 3 * 2 + 4  # runs x methods + mean/std per method


def test_boltzmann_cli_small(capsys):
    code, out, _ = _run(
        capsys, "boltzmann", "--d", "3", "--n", "7", "--runs", "2",
        "--gt-samples", "5000", "--deterministic",
    )
    assert code == 0
    rows = _parse_csv(out)
    assert {r["method"] for r in rows} == {"subgroup", "mc"}
    assert all(float(r["exact"]) > 0 for r in rows)


def test_kernel_cli_small(capsys):
    code, out, _ = _run(
        capsys, "kernel", "--samples", "30", "--data-dim", "2", "--n", "13",
        "--runs", "2", "--deterministic",
    )
    assert code == 0
    rows = _parse_csv(out)
    assert set(rows[0].keys()) == {
        "method", "d", "n", "seed", "run", "rel_frobenius", "rel_max"
    }
    assert all(float(r["rel_frobenius"]) >= 0 for r in rows)


def test_sphere_cli_matches_library(capsys):
    code, out, _ = _run(capsys, "sphere", "--d", "50", "--n", "101", "--deterministic")
    assert code == 0
    row = _parse_csv(out)[0]
    rep = mutual_coherence(sphere_frame(25, 101))
    assert float(row["mu"]) == rep.mu
    assert row["bound_holds"] == "true"
    assert row["growth_bound_applicable"] == "false"
    assert int(row["n_vectors"]) == 202


def test_sphere_builds_the_frame_only_for_frame_out(capsys, tmp_path, monkeypatch):
    frames = []

    def keep(m, n):
        frames.append(sphere_frame(m, n))
        return frames[-1]

    monkeypatch.setattr(cli, "sphere_frame", keep)
    assert _run(capsys, "sphere", "--d", "8", "--n", "13", "--deterministic")[0] == 0
    assert "V" not in frames[0].__dict__
    path = tmp_path / "f.csv"
    argv = ("sphere", "--d", "8", "--n", "13", "--frame-out", str(path), "--deterministic")
    assert _run(capsys, *argv)[0] == 0
    assert "V" in frames[1].__dict__
    assert np.loadtxt(path, delimiter=",", comments="#").shape == (8, 26)


def test_bench_timing_rows(capsys):
    code, out, _ = _run(capsys, "bench-timing", "--d", "2", "--n", "13", "--deterministic")
    assert code == 0
    rows = _parse_csv(out)
    assert [r["method"] for r in rows] == ["subgroup", "korobov"]
    assert all(float(r["seconds"]) >= 0 for r in rows)
    # seconds is wall-clock time, the one column --deterministic leaves free
    _, again, _ = _run(capsys, "bench-timing", "--d", "2", "--n", "13", "--deterministic")

    def without_seconds(text):
        return [{k: v for k, v in r.items() if k != "seconds"} for r in _parse_csv(text)]

    assert without_seconds(again) == without_seconds(out)
    assert out.splitlines()[:2] == again.splitlines()[:2]  # schema comment and header


def test_parser_is_built_once_and_reuse_leaks_no_state(capsys, monkeypatch):
    # one process: construct, admissible, a usage error, the construct again;
    # each call must print what a fresh process prints for the same argv
    build, builds = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    construct = ["construct", "--d", "4", "--n", "41", "--method", "korobov", "--norm", "l2",
                 "--deterministic"]
    calls = [
        construct,
        ["admissible", "--d", "3", "--count", "4", "--format", "json", "--deterministic"],
        ["construct", "--d", "2", "--format", "xml"],
        construct,
    ]
    for argv in calls:
        got = _run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "lattice_forge.cli", *argv],
                               capture_output=True, text=True)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert len(builds) == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_forge.cli", "admissible", "--d", "2",
         "--count", "2", "--deterministic"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# lattice-forge v1\n")


# ---------------------------------------------------------------------------
# fuzz: any small, oversized or invalid input exits 0, 2, 3 or 4 without a
# traceback
# ---------------------------------------------------------------------------

# half the draws are admissible (d, n) pairs, so successful runs are covered too
_small = st.integers(-3, 30).map(str)
_dims = st.one_of(st.integers(-3, 30), st.integers(1, 3)).map(str)
_moduli = st.one_of(st.integers(-3, 30), st.sampled_from([7, 13, 37, 41])).map(str)
_bad_paths = st.sampled_from(["{dir}/missing.csv", "{dir}", "{dir}/no-such-dir/x.csv"])
# admissible (d, n) whose integrand or std row overflows float64: exit 4
_OVERFLOWING = [
    ["integrate", "--d", d, "--n", n, "--runs", "2", "--b", "0", "--c", c, "--deterministic"]
    for d, n, c in (("1", "7", "360"), ("1", "13", "360"), ("2", "13", "200"), ("2", "13", "360"))
]


@st.composite
def _fuzz_argv(draw):
    cmd = draw(st.sampled_from(
        ["construct", "admissible", "sphere", "integrate", "bench-timing", "kernel", "boltzmann"]
    ))
    if cmd == "admissible":
        argv = ["admissible", "--d", draw(_small), "--count", draw(st.integers(-1, 3).map(str)),
                "--start", draw(_small)]
    elif cmd == "kernel" and draw(st.booleans()):
        # 200000 samples: an exact Gram of 298 GiB, a counted peak of 894 GiB
        # or more, on admissible (data-dim, n) pairs
        argv = ["kernel", "--samples", "200000", "--data-dim", draw(st.sampled_from(["1", "2", "3"])),
                "--n", draw(st.sampled_from(["13", "37"])), "--runs", draw(st.sampled_from(["1", "2"])),
                "--kernel", draw(st.sampled_from(["gaussian", "arccos0", "arccos1"]))]
        return argv + ["--deterministic"]
    elif cmd == "kernel":
        argv = ["kernel", "--samples", draw(st.integers(-1, 12).map(str)), "--data-dim",
                draw(st.integers(-1, 3).map(str)), "--n", draw(_moduli),
                "--runs", draw(st.integers(-1, 2).map(str))]
        if draw(st.booleans()):
            argv += ["--data", draw(_bad_paths)]
        if draw(st.booleans()):
            argv += ["--sigma", draw(st.sampled_from(["1e300", "1e-300", "0.5", "15"]))]
    elif cmd == "boltzmann":
        argv = ["boltzmann", "--d", draw(_dims), "--n", draw(_moduli),
                "--runs", draw(st.integers(-1, 2).map(str)),
                "--gt-samples", draw(st.integers(-1, 50).map(str))]
    elif cmd == "integrate" and draw(st.booleans()):
        if draw(st.booleans()):
            return list(draw(st.sampled_from(_OVERFLOWING)))
        method = draw(st.sampled_from([[], ["--method", "subgroup"], ["--method", "mc"]]))
        # one run of MC values is 7450.6 GiB; a lattice's 16 runs are 119.2 GiB
        n, runs = (_BIG_MC_N, "1") if method == ["--method", "mc"] else (_BIG_PRIME, "16")
        argv = ["integrate", "--d", "32", "--n", n, "--runs", runs, *method]
    elif cmd == "integrate":
        argv = ["integrate", "--d", draw(_dims), "--n", draw(_moduli),
                "--runs", draw(st.integers(-1, 2).map(str))]
    elif cmd == "sphere" and draw(st.booleans()):
        argv = ["sphere", "--d", "128", "--n", _BIG_PRIME]
    elif cmd == "construct" and draw(st.booleans()):
        # a 102 GiB census and a 62 GiB Korobov search, with no --points-out:
        # the 23 GiB of d=1 points could fit a large machine
        argv = draw(st.sampled_from([
            ["construct", "--d", "1", "--n", "3037000493"],
            ["construct", "--d", "2", "--n", "1000000009", "--method", "korobov"],
        ]))
        return argv + ["--deterministic"]
    else:
        argv = [cmd, "--d", draw(_dims), "--n", draw(_moduli)]
    if cmd == "integrate":
        for flag in ("--b", "--c"):
            if draw(st.booleans()):
                pool = ["2000", "800", "-2000", "0.5"] + (["0"] if flag == "--b" else ["200", "360"])
                argv += [flag, draw(st.sampled_from(pool))]
    if cmd in ("integrate", "kernel", "boltzmann") and draw(st.booleans()):
        argv += ["--seed", draw(st.integers(-3, 3).map(str))]
    if cmd in ("construct", "bench-timing") and draw(st.booleans()):
        argv += ["--norm", draw(st.sampled_from(["l1", "l2"]))]
    if cmd == "construct" and draw(st.booleans()):
        argv += ["--method", "korobov"]
    if cmd in ("construct", "sphere") and draw(st.booleans()):
        argv += ["--points-out" if cmd == "construct" else "--frame-out", draw(_bad_paths)]
    if draw(st.booleans()):
        argv += ["-o", draw(_bad_paths)]
    return argv + ["--deterministic"]


@given(_fuzz_argv())
@settings(max_examples=150, deadline=None)
def test_fuzz_exit_codes_and_no_traceback(tmp_path_factory, argv):
    # bad paths live in an empty directory: "{dir}" itself is a directory,
    # the other paths do not exist
    empty = str(tmp_path_factory.mktemp("fuzz"))
    argv = [a.replace("{dir}", empty) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv
    if code not in (0, 2):  # argparse prints usage plus one error line
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    if argv[:3] == ["kernel", "--samples", "200000"]:
        # the whole-peak guard refuses before the exact Gram is allocated
        assert code == 4 and err.getvalue().startswith("error: kernel benchmark for N=200000, "), argv
    if argv in _OVERFLOWING:
        assert code == 4 and err.getvalue().count("error: ") == 1, argv
    for n in (_BIG_MC_N, _BIG_PRIME):
        if argv[0] == "integrate" and n in argv and code != 2:
            # the values guard refuses, unless a --b or --c reference is refused first
            assert code == 4 and err.getvalue().startswith(
                (f"error: point values for d=32, n={n}, ", "error: reference value")), argv
