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

from lattice_forge import cli
from lattice_forge.cli import main
from lattice_forge.metrics import lattice_min_distance
from lattice_forge.lattice import subgroup_generating_vector
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


def test_exit_two_on_usage_errors(capsys):
    assert _run(capsys, "nonsense")[0] == 2
    assert _run(capsys, "construct", "--d", "2")[0] == 2  # missing --n
    assert _run(capsys, "construct", "--d", "2", "--n", "5", "--format", "xml")[0] == 2
    # numpy seeding refuses negative ints, so the parser turns them away
    for argv in (
        ("integrate", "--d", "2", "--n", "5", "--runs", "1", "--seed", "-1"),
        ("boltzmann", "--d", "2", "--n", "5", "--runs", "1", "--gt-samples", "10", "--seed", "-3"),
        ("kernel", "--samples", "5", "--data-dim", "2", "--n", "7", "--runs", "1", "--seed", "-1"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.endswith(f"error: argument --seed: must be >= 0, got {argv[-1]}\n"), argv


def test_exit_three_on_admissibility(capsys):
    code, _, err = _run(capsys, "construct", "--d", "3", "--n", "12")
    assert code == 3
    assert "2d does not divide n-1" in err
    assert _run(capsys, "sphere", "--d", "7", "--n", "29")[0] == 3


def test_exit_four_on_domain_errors(capsys):
    code, _, err = _run(capsys, "construct", "--d", "2", "--n", "9")
    assert code == 4
    assert "prime" in err
    # n < 2 is rejected as not prime before the divisibility check, and an
    # explicit kernel --n 0 is used, not replaced by the default prime
    for argv, n in (
        (("kernel", "--samples", "20", "--data-dim", "2", "--n", "0", "--runs", "1"), 0),
        (("construct", "--d", "2", "--n", "0"), 0),
        (("construct", "--d", "2", "--n", "-7"), -7),
        (("construct", "--d", "2", "--n", "-7", "--method", "korobov"), -7),
        (("construct", "--d", "2", "--n", "1", "--method", "korobov"), 1),
        (("sphere", "--d", "4", "--n", "0"), 0),
    ):
        assert _run(capsys, *argv) == (4, "", f"error: n must be prime, got {n}\n"), argv
    for argv in (
        ("kernel", "--samples", "20", "--data-dim", "2", "--n", "13", "--runs", "1", "--sigma", "inf"),
        ("integrate", "--d", "2", "--n", "13", "--runs", "1", "--c", "nan"),
        ("integrate", "--d", "2", "--n", "13", "--runs", "1", "--b", "inf"),
        # 2 sigma**2 overflows or underflows to 0; the reference overflows
        ("kernel", "--samples", "20", "--data-dim", "2", "--n", "13", "--runs", "1", "--sigma", "1e300"),
        ("kernel", "--samples", "20", "--data-dim", "2", "--n", "13", "--runs", "1", "--sigma", "1e-300"),
        ("integrate", "--d", "3", "--n", "7", "--runs", "1", "--c", "800"),
        ("integrate", "--d", "3", "--n", "7", "--runs", "1", "--b=-2000"),
        # a finite reference, about 3.8e307, but the integrand overflows to
        # inf near the corner (1, 1); or the estimates are finite and their
        # std row overflows
        ("integrate", "--d", "2", "--n", "10007", "--b", "0", "--c", "360", "--runs", "2",
         "--method", "mc", "--deterministic"),
        ("integrate", "--d", "2", "--n", "10009", "--b", "0", "--c", "360", "--runs", "2",
         "--method", "subgroup", "--deterministic"),
        ("integrate", "--d", "2", "--n", "10007", "--b", "0", "--c", "200", "--runs", "2",
         "--method", "mc", "--deterministic"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (4, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


# a prime with 64 | n - 1: sphere --d 128 asks for 2.6e12 bytes, a 2 TB
# frame plus its residue matrix, and integrate --d 32 for a 238 GiB point set
_BIG_PRIME = "1000000321"


def test_exit_four_on_out_of_memory():
    # the exact Gram matrix of 200000 samples needs 298 GiB; the child's
    # address space is capped so that the allocation fails on any machine
    resource = pytest.importorskip("resource")
    cap = 3 * 2**30

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "lattice_forge.cli", "kernel", "--samples", "200000",
         "--data-dim", "2", "--n", "5", "--runs", "1"],
        capture_output=True, text=True, timeout=120, preexec_fn=limit_child,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_exit_four_on_oversized_sphere_frame():
    # the frame alone is 2 TB, so the size guard refuses it on any machine
    # before the capped child could reach the out-of-memory backstop
    resource = pytest.importorskip("resource")
    cap = 3 * 2**30

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "lattice_forge.cli", "sphere", "--d", "128", "--n", _BIG_PRIME],
        capture_output=True, text=True, timeout=120, preexec_fn=limit_child,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith(f"error: sphere frame for m=64, n={_BIG_PRIME} needs ")
    assert " GiB, more than the " in proc.stderr and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("method", ["subgroup", "mc"])
def test_exit_four_on_oversized_point_set(method):
    # 32 columns of n = 1000000321 points need 238 GiB, so the size guard
    # refuses them on any smaller machine before the capped child could
    # reach the out-of-memory backstop
    resource = pytest.importorskip("resource")
    cap = 3 * 2**30

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "lattice_forge.cli", "integrate", "--d", "32", "--n", _BIG_PRIME,
         "--runs", "1", "--method", method],
        capture_output=True, text=True, timeout=120, preexec_fn=limit_child,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith(f"error: points for d=32, n={_BIG_PRIME} needs 238.4 GiB, ")
    assert " GiB of physical memory" in proc.stderr and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, line",
    [
        # 32 columns of points need 238 GiB: refused before the census runs
        (("--d", "32", "--n", _BIG_PRIME, "--points-out", "p.csv"),
         f"points for d=32, n={_BIG_PRIME} needs 238.4 GiB, "),
        # up to (n-1)/2 = 1.5e9 distinct keys: 102 GiB
        (("--d", "1", "--n", "3037000493"), "census for d=1, n=3037000493 needs 101.9 GiB, "),
        # the search's tables of n residues: 127 GiB
        (("--method", "korobov", "--d", "2", "--n", "1000000009"),
         "korobov search for d=2, n=1000000009 needs 126.7 GiB, "),
    ],
    ids=["points", "census", "korobov"],
)
def test_exit_four_on_oversized_construct(tmp_path, argv, line):
    # each size guard refuses its request on any smaller machine, within
    # seconds, before the capped child could reach the out-of-memory backstop
    resource = pytest.importorskip("resource")
    cap = 3 * 2**30

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    argv = [str(tmp_path / a) if a == "p.csv" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_forge.cli", "construct", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_child,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith(f"error: {line}")
    assert " GiB of physical memory" in proc.stderr and proc.stderr.count("\n") == 1
    assert not (tmp_path / "p.csv").exists()


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
    code, out, err = _run(capsys, *argv, "--runs", runs, "--deterministic")
    assert (code, out) == (4, "")
    assert err == f"error: runs must be >= 1, got {runs}\n"


def test_help_exits_zero(capsys):
    assert _run(capsys, "--help")[0] == 0


def _assert_one_error_line(code, out, err, expect):
    assert (code, out) == (expect, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


_KERNEL = ("kernel", "--n", "13", "--runs", "1", "--deterministic")


@pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
def test_exit_two_on_unreadable_data(capsys, tmp_path, name):
    code, out, err = _run(capsys, *_KERNEL, "--data", str(tmp_path / name))
    _assert_one_error_line(code, out, err, 2)


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
    code, out, err = _run(capsys, *argv, str(tmp_path / "no-such-dir" / "x.csv"), "--deterministic")
    _assert_one_error_line(code, out, err, 2)


@pytest.mark.parametrize(
    "text",
    ["1,2\nx,4\n", "", "1,2\n3,4,5\n", "1,2\nnan,4\n", "1e200,1\n2,3\n"],
    ids=["non-numeric", "empty", "ragged", "nan", "gram-overflow"],
)
def test_exit_four_on_malformed_data(capsys, tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    code, out, err = _run(capsys, *_KERNEL, "--data", str(path))
    _assert_one_error_line(code, out, err, 4)


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


@st.composite
def _fuzz_argv(draw):
    cmd = draw(st.sampled_from(
        ["construct", "admissible", "sphere", "integrate", "bench-timing", "kernel", "boltzmann"]
    ))
    if cmd == "admissible":
        argv = ["admissible", "--d", draw(_small), "--count", draw(st.integers(-1, 3).map(str)),
                "--start", draw(_small)]
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
        argv = ["integrate", "--d", "32", "--n", _BIG_PRIME, "--runs", "1"]
        argv += draw(st.sampled_from([[], ["--method", "subgroup"], ["--method", "mc"]]))
    elif cmd == "integrate":
        argv = ["integrate", "--d", draw(_dims), "--n", draw(_moduli),
                "--runs", draw(st.integers(-1, 2).map(str))]
    elif cmd == "sphere" and draw(st.booleans()):
        argv = ["sphere", "--d", "128", "--n", _BIG_PRIME]
    elif cmd == "construct" and draw(st.booleans()):
        # a 102 GiB census and a 127 GiB Korobov search, with no --points-out:
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
