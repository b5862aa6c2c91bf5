"""Output checks, one per request class.

Each check holds for every correct version of the library, so none of
them compares output digests: a change that legitimately picks another
generator or reseeds a method must still pass. The oracles are the
benchmark's own code and run after the timed loop.

``check(request, outcome)`` returns ``None`` when the request passed and a
one-line reason when it failed. ``outcome`` holds ``code`` (exit code of a
CLI request), ``exc`` (exception raised out of the entry point, or
``None``), ``value`` (return value of a library request) and ``path`` (the
CLI output file).
"""

from __future__ import annotations

import csv
import math

import numpy as np

import inputs

# Relative-error ceilings per estimator class. They sit several standard
# deviations above the errors of the smallest point sets the workloads use
# (n around 400), so only a broken estimator or reference exceeds them.
TOLERANCE = {
    "integrate": 0.15,
    "boltzmann": 0.25,
    "kernel": 0.75,
}
_SUMMARY_RTOL = 1e-12


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check(req: dict, outcome: dict) -> str | None:
    if outcome["exc"] is not None:
        return f"raised {outcome['exc']}"
    if req["expect"] == "reject":
        code = outcome["code"]
        return None if code in (2, 3, 4) else f"exit code {code}, expected 2, 3 or 4"
    if "call" in req:
        return _closed_form_vector(req["info"], outcome["value"])
    if outcome["code"] != 0:
        return f"exit code {outcome['code']}"
    rows = read_rows(outcome["path"])
    command = req["argv"][0]
    try:
        return _CLI_CHECKS[command](req["info"], rows, req["argv"])
    except (KeyError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def subgroup_defect(z: list[int], d: int, n: int) -> str | None:
    """z_j^(2d) = 1 (mod n) for every j, and {+-z_j} has 2d residues."""
    if len(z) != d:
        return f"{len(z)} components, expected {d}"
    if any(pow(c, 2 * d, n) != 1 for c in z):
        return "a component is not in the order-2d subgroup"
    if len({c % n for c in z} | {(-c) % n for c in z}) != 2 * d:
        return "{+-z_j} does not have 2d distinct residues"
    return None


def _closed_form_vector(info: dict, vec) -> str | None:
    if vec.n != info["n"]:
        return f"modulus {vec.n}, expected {info['n']}"
    return subgroup_defect(list(vec.z), info["d"], info["n"])


def _admissible(info: dict, rows: list[dict], argv: list[str]) -> str | None:
    d, count = info["d"], int(argv[argv.index("--count") + 1])
    expected, n = [], info["start"]
    for _ in range(count):
        n = inputs.admissible_at_least(2 * d, n)
        expected.append(n)
        n += 1
    got = [int(r["n"]) for r in rows]
    return None if got == expected else f"moduli {got[:3]}..., expected {expected[:3]}..."


def min_key(z: list[int], n: int, norm: str) -> int:
    """Exact minimum over k = 1..n-1 of sum_j w(k z_j mod n)."""
    k = np.arange(1, n, dtype=np.int64)[:, None]
    km = k * np.asarray(z, dtype=np.int64)[None, :] % n
    m = np.minimum(km, n - km)
    return int((m if norm == "l1" else m * m).sum(axis=1).min())


def reported_key(row: dict, n: int) -> int:
    dist = float(row["min_distance"]) * n
    return round(dist if row["norm"] == "l1" else dist * dist)


def _construct(info: dict, rows: list[dict], argv: list[str]) -> str | None:
    d, n = info["d"], info["n"]
    by_norm = {r["norm"]: r for r in rows}
    if sorted(by_norm) != ["l1", "l2"]:
        return f"norm rows {sorted(by_norm)}"
    z = [int(c) for c in rows[0]["z"].split()]
    if "korobov" not in argv:
        for norm, row in by_norm.items():
            if row["bound_holds"] != "true":
                return f"{norm} distance bound does not hold"
            if int(row["distinct_distances"]) > (n - 1) // (2 * d):
                return f"{norm} census has more than (n-1)/(2d) values"
        return subgroup_defect(z, d, n)
    # search: the searched key is exact and no worse than the subgroup key,
    # because the subgroup vector is itself a Korobov vector.
    norm = info["norm"]
    a = int(rows[0]["multiplier"])
    if z != [pow(a, j, n) for j in range(d)]:
        return "z is not the Korobov vector of the reported multiplier"
    key = reported_key(by_norm[norm], n)
    if key != min_key(z, n, norm):
        return f"reported {norm} key {key} is not the key of z"
    sub = min_key(inputs.subgroup_vector(d, n), n, norm)
    return None if key >= sub else f"korobov key {key} below subgroup key {sub}"


def _bench_timing(info: dict, rows: list[dict], argv: list[str]) -> str | None:
    if sorted(r["method"] for r in rows) != ["korobov", "subgroup"]:
        return "expected one subgroup and one korobov row"
    if not all(math.isfinite(float(r["seconds"])) and float(r["seconds"]) >= 0 for r in rows):
        return "timings are not finite and non-negative"
    return None


def _sphere(info: dict, rows: list[dict], argv: list[str]) -> str | None:
    (row,) = rows
    if int(row["ambient_dim"]) != 2 * info["m"] or int(row["n_vectors"]) != 2 * info["n"]:
        return "frame shape does not match (2m, 2n)"
    if row["bound_holds"] != "true" or not float(row["mu"]) <= float(row["bound"]) + 1e-12:
        return f"coherence {row['mu']} above sqrt(n)/m = {row['bound']}"
    return None


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def integral_exact(d: int, b: float, c: float) -> float:
    return math.prod(math.expm1(c * j**-b) / (c * j**-b) for j in range(1, d + 1))


def _runs_and_summaries(rows: list[dict], cols: tuple[str, ...]) -> tuple[dict, str | None]:
    """Per-method run rows, after checking the mean/std summary rows."""
    runs: dict[str, list[dict]] = {}
    summaries: dict[tuple[str, str], dict] = {}
    for r in rows:
        if r["run"] in ("mean", "std"):
            summaries[(r["method"], r["run"])] = r
        else:
            runs.setdefault(r["method"], []).append(r)
    for method, sub in runs.items():
        for col in cols:
            vals = np.array([float(r[col]) for r in sub])
            if not np.isfinite(vals).all():
                return runs, f"{method} {col} not finite"
            for stat, want in (("mean", vals.mean()), ("std", vals.std())):
                got = float(summaries[(method, stat)][col])
                if not math.isclose(got, want, rel_tol=_SUMMARY_RTOL, abs_tol=_SUMMARY_RTOL):
                    return runs, f"{method} {stat} {col} {got} != {want}"
    if len(summaries) != 2 * len(runs):
        return runs, "summary rows do not match the methods"
    return runs, None


def _expected_methods(argv: list[str]) -> list[str]:
    return [argv[argv.index("--method") + 1]] if "--method" in argv else ["subgroup", "mc"]


def _method_runs(rows, argv, cols) -> tuple[dict, str | None]:
    runs, err = _runs_and_summaries(rows, cols)
    want_runs = int(argv[argv.index("--runs") + 1])
    if err is None and (sorted(runs) != sorted(_expected_methods(argv))
                        or any(len(v) != want_runs for v in runs.values())):
        err = f"rows cover {sorted(runs)}, expected {want_runs} runs of {_expected_methods(argv)}"
    return runs, err


def _integrate(info: dict, rows: list[dict], argv: list[str]) -> str | None:
    runs, err = _method_runs(rows, argv, ("estimate", "rel_error"))
    if err:
        return err
    exact = integral_exact(info["d"], info["b"], info["c"])
    for r in (r for sub in runs.values() for r in sub):
        if not math.isclose(float(r["exact"]), exact, rel_tol=1e-9):
            return f"reference {r['exact']}, closed form gives {exact}"
        err_rel = abs(float(r["estimate"]) - exact) / exact
        if err_rel > TOLERANCE["integrate"]:
            return f"{r['method']} relative error {err_rel:.3g} above {TOLERANCE['integrate']}"
    return None


def _boltzmann(info: dict, rows: list[dict], argv: list[str]) -> str | None:
    runs, err = _method_runs(rows, argv, ("estimate", "rel_error"))
    if err:
        return err
    flat = [r for sub in runs.values() for r in sub]
    exact = float(flat[0]["exact"])
    if not (math.isfinite(exact) and exact > 0) or any(float(r["exact"]) != exact for r in flat):
        return "ground truth is not one positive finite value"
    for r in flat:
        est = float(r["estimate"])
        err_rel = abs(est - exact) / exact
        if not est > 0 or not math.isclose(float(r["rel_error"]), err_rel, rel_tol=1e-9, abs_tol=1e-15):
            return f"{r['method']} estimate {est} or its relative error is inconsistent"
        if err_rel > TOLERANCE["boltzmann"]:
            return f"{r['method']} relative error {err_rel:.3g} above {TOLERANCE['boltzmann']}"
    return None


def _kernel(info: dict, rows: list[dict], argv: list[str]) -> str | None:
    runs, err = _method_runs(rows, argv, ("rel_frobenius", "rel_max"))
    if err:
        return err
    for r in (r for sub in runs.values() for r in sub):
        worst = max(float(r["rel_frobenius"]), float(r["rel_max"]))
        if not 0.0 <= worst <= TOLERANCE["kernel"]:
            return f"{r['method']} Gram error {worst:.3g} outside [0, {TOLERANCE['kernel']}]"
    return None


_CLI_CHECKS = {
    "admissible": _admissible,
    "construct": _construct,
    "bench-timing": _bench_timing,
    "sphere": _sphere,
    "integrate": _integrate,
    "boltzmann": _boltzmann,
    "kernel": _kernel,
}
