"""Command-line interface.

Subcommands cover construction/diagnostics (``construct``, ``admissible``,
``sphere``, ``bench-timing``) and the randomized application benchmarks
(``integrate``, ``boltzmann``, ``kernel``). Tabular results go to stdout
or ``--output`` as CSV (default) or JSON; CSV starts with the schema
comment ``# lattice-forge v1`` and, unless ``--deterministic`` is given,
a generation timestamp comment. ``--deterministic`` makes output
byte-identical across reruns with the same flags, except the ``seconds``
column of ``bench-timing``, which is measured wall-clock time. The matrix
files of ``--points-out``, ``--frame-out`` and ``--data`` use
``pointset.save_csv``.

Exit codes: 0 success; 2 usage errors (argparse, a negative ``--seed``
too) and paths that cannot be read or written (``--data``, ``--output``,
``--points-out``, ``--frame-out``); 3 admissibility violations (failed
divisibility preconditions); 4 numeric domain or size-cap errors,
including ``--runs`` < 1, a non-finite ``--b``, ``--c`` or ``--sigma``,
a 2 sigma**2 or integration reference that is not finite and nonzero, an
integrand estimate or a mean/std summary row that overflows, a ``--data``
file that is not a non-empty matrix of finite numbers or has a non-finite
exact Gram matrix, and running out of memory. Every error exit prints one
``error:`` line to stderr.

``construct --method korobov`` and ``bench-timing`` run the library's
exact Korobov search: early abort over O(n) discrete-log keys, O(n^2)
at worst.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
import warnings
from datetime import datetime, timezone

import numpy as np

from .exceptions import AdmissibilityError, DomainError, SizeLimitError
from .integration import run_boltzmann_benchmark, run_integration_benchmark
from .kernels import KernelSpec, run_kernel_benchmark, synthetic_data
from .lattice import (
    _korobov_args,
    _korobov_guard,
    _subgroup_args,
    find_admissible_n,
    korobov_search,
    subgroup_generating_vector,
)
from .metrics import _census_limits, lattice_min_distance, min_distance_bounds
from .pointset import generate, load_csv, save_csv
from .sphere import asymptotic_coherence_bound, mutual_coherence, sphere_frame

__all__ = ["main", "build_parser"]

SCHEMA = "lattice-forge v1"


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_csv(rows: list[dict], columns: list[str], deterministic: bool) -> str:
    buf = io.StringIO()
    buf.write(f"# {SCHEMA}\n")
    if not deterministic:
        buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_value(row.get(col, "")) for col in columns])
    return buf.getvalue()


def _render_json(rows: list[dict], columns: list[str], deterministic: bool) -> str:
    payload: dict = {"schema": SCHEMA}
    if not deterministic:
        payload["generated"] = datetime.now(timezone.utc).isoformat()
    payload["columns"] = columns
    payload["rows"] = [{col: row.get(col, "") for col in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _emit(rows: list[dict], args: argparse.Namespace) -> None:
    """Render the table; its columns are the keys of the first row."""
    columns = list(rows[0])
    text = (
        _render_csv(rows, columns, args.deterministic)
        if args.format == "csv"
        else _render_json(rows, columns, args.deterministic)
    )
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _estimator_table(args: argparse.Namespace, run, value_cols: tuple[str, ...]):
    """Run an estimator driver on ``--method`` (default: subgroup and mc).

    ``run(methods)`` returns the driver's rows. The table appends one mean
    and one std row (population std) of ``value_cols`` per method; a
    summary that overflows float64 is a DomainError.
    """
    methods = (args.method,) if args.method else ("subgroup", "mc")
    rows = run(methods)
    out = list(rows)
    for method in methods:
        sub = [r for r in rows if r["method"] == method]
        for stat, fn in (("mean", np.mean), ("std", np.std)):
            summary = dict(sub[0], run=stat)
            for col in value_cols:
                try:
                    with np.errstate(over="raise", invalid="raise"):
                        summary[col] = float(fn([r[col] for r in sub]))
                except FloatingPointError as exc:
                    raise DomainError(f"{method} {stat} of {col}: {exc}") from None
            out.append(summary)
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns the table rows
# ---------------------------------------------------------------------------


def _cmd_construct(args: argparse.Namespace):
    # the method's checks and size guard, the census limits (l2's covers l1's), the vector
    if args.method == "korobov":
        d, n, _ = _korobov_args(args.d, args.n, args.norm)
        _korobov_guard(d, n)
    else:
        d, n = _subgroup_args(args.d, args.n)
    _census_limits(d, n, 2)
    if args.method == "korobov":
        res = korobov_search(d, n, args.norm)
        vec, multiplier = res.vector, res.multiplier
    else:
        vec, multiplier = subgroup_generating_vector(d, n), ""
    bounds = min_distance_bounds(d, n)
    # the first read of points (8*n*d bytes and one residue tile) refuses
    # oversized points before the census runs
    points = generate(vec).points if args.points_out else None
    # l2 first, so its key limit refuses before either census runs
    reports = {norm: lattice_min_distance(vec, norm) for norm in ("l2", "l1")}
    z = " ".join(str(c) for c in vec.z)
    rows = []
    for norm in ("l1", "l2"):
        rep = reports[norm]
        lower, upper = (
            (bounds.l1_lower, bounds.l1_upper)
            if norm == "l1"
            else (bounds.l2_lower, bounds.l2_upper)
        )
        counts = rep.counts
        rows.append(
            {
                "method": vec.method,
                "d": vec.d,
                "n": vec.n,
                "norm": norm,
                "min_distance": rep.min_distance,
                "argmin_k": rep.argmin_k,
                "distinct_distances": rep.distinct_count,
                "uniform_multiplicity": int(counts[0]) if (counts == counts[0]).all() else "",
                "bound_lower": lower,
                "bound_upper": upper,
                "bound_holds": lower - 1e-12 <= rep.min_distance <= upper + 1e-12,
                "multiplier": multiplier,
                "z": z,
            }
        )
    if args.points_out:
        save_csv(points, args.points_out)
    return rows


def _cmd_admissible(args: argparse.Namespace):
    moduli = find_admissible_n(args.d, args.count, start=args.start)
    return [{"d": args.d, "index": i, "n": m} for i, m in enumerate(moduli)]


def _cmd_integrate(args: argparse.Namespace):
    return _estimator_table(
        args,
        lambda methods: run_integration_benchmark(
            args.d, args.n, b=args.b, c=args.c, runs=args.runs, seed=args.seed,
            methods=methods, shifted=not args.no_shift,
        ),
        ("estimate", "rel_error"),
    )


def _cmd_boltzmann(args: argparse.Namespace):
    return _estimator_table(
        args,
        lambda methods: run_boltzmann_benchmark(
            args.d, args.n, runs=args.runs, seed=args.seed, target=args.target,
            gt_samples=args.gt_samples, methods=methods,
        )[0],
        ("estimate", "rel_error"),
    )


def _load_data(path: str) -> np.ndarray:
    """Read ``--data``; a malformed, empty or non-finite matrix is a DomainError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns about an empty file
        try:
            data = load_csv(path)
        except ValueError as exc:
            raise DomainError(f"--data {path}: {' '.join(str(exc).split())}") from None
    if data.size == 0 or not np.isfinite(data).all():
        raise DomainError(f"--data {path} must be a non-empty matrix of finite numbers")
    return data


def _cmd_kernel(args: argparse.Namespace):
    spec = KernelSpec(family=args.kernel, sigma=args.sigma)
    if args.data:
        data = _load_data(args.data)
    else:
        data = synthetic_data(args.samples, args.data_dim, seed=args.seed)
    n = find_admissible_n(data.shape[1], 1, start=997)[0] if args.n is None else args.n
    return _estimator_table(
        args,
        lambda methods: run_kernel_benchmark(
            data, n, spec, runs=args.runs, seed=args.seed, methods=methods
        ),
        ("rel_frobenius", "rel_max"),
    )


def _cmd_sphere(args: argparse.Namespace):
    if args.d % 2 != 0:
        raise AdmissibilityError(f"ambient dimension must be even, got {args.d}")
    m = args.d // 2
    frame = sphere_frame(m, args.n)
    rep = mutual_coherence(frame, method="character_sum")
    growth = asymptotic_coherence_bound(m, args.n)
    if args.frame_out:
        save_csv(frame.V, args.frame_out)
    return [
        {
            "m": m,
            "n": args.n,
            "ambient_dim": frame.ambient_dim,
            "n_vectors": frame.n_vectors,
            "mu": rep.mu,
            "bound": rep.bound,
            "bound_holds": rep.bound_holds,
            "growth_bound": growth.value,
            "growth_bound_applicable": growth.applicable,
        }
    ]


def _cmd_bench_timing(args: argparse.Namespace):
    t0 = time.perf_counter()
    subgroup_generating_vector(args.d, args.n)
    t_subgroup = time.perf_counter() - t0
    t0 = time.perf_counter()
    korobov_search(args.d, args.n, args.norm)
    t_korobov = time.perf_counter() - t0
    return [
        {"method": "subgroup", "d": args.d, "n": args.n, "seconds": t_subgroup},
        {"method": "korobov", "d": args.d, "n": args.n, "seconds": t_korobov},
    ]


_HANDLERS = {
    "construct": _cmd_construct,
    "admissible": _cmd_admissible,
    "integrate": _cmd_integrate,
    "boltzmann": _cmd_boltzmann,
    "kernel": _cmd_kernel,
    "sphere": _cmd_sphere,
    "bench-timing": _cmd_bench_timing,
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """The ``--seed`` type: a non-negative int, as numpy seeding requires."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-forge",
        description="Closed-form rank-1 lattice construction and QMC benchmarks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", metavar="PATH", help="write results to a file instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="omit the timestamp so identical flags give byte-identical output "
        "(bench-timing's seconds column is wall-clock time and still varies)",
    )

    replicated = argparse.ArgumentParser(add_help=False)
    replicated.add_argument("--runs", type=int, default=50, help="randomized runs per method, >= 1 (default 50)")
    replicated.add_argument("--seed", type=_seed, default=0, help="master seed, >= 0 (default 0)")

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("construct", parents=[common], help="build a generating vector and report its distance diagnostics")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--n", type=int, required=True, help="number of lattice points (prime)")
    p.add_argument("--method", choices=("subgroup", "korobov"), default="subgroup")
    p.add_argument("--norm", choices=("l1", "l2"), default="l1", help="norm the Korobov search optimizes")
    p.add_argument("--points-out", metavar="PATH", help="also write the lattice points as CSV")

    p = sub.add_parser("admissible", parents=[common], help="list primes n with 2d | n-1")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--count", type=int, default=5, help="how many moduli to list (default 5)")
    p.add_argument("--start", type=int, default=2, help="smallest n to consider (default 2)")

    p = sub.add_parser("integrate", parents=[common, replicated], help="randomized integration benchmark with closed-form reference")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float, default=2.0, help="coordinate-decay exponent (default 2)")
    p.add_argument("--c", type=float, default=1.0, help="integrand scale (default 1)")
    p.add_argument("--method", choices=("subgroup", "korobov", "mc"), help="restrict to one method (default: subgroup and mc)")
    p.add_argument("--no-shift", action="store_true", help="skip the random shift (lattice methods only)")

    p = sub.add_parser("boltzmann", parents=[common, replicated], help="partition-function / marginal estimation benchmark")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", choices=("partition", "marginal"), default="partition")
    p.add_argument("--gt-samples", type=int, default=10_000_000, help="i.i.d. samples for the pseudo-ground-truth (default 1e7)")
    p.add_argument("--method", choices=("subgroup", "korobov", "mc"), help="restrict to one method")

    p = sub.add_parser("kernel", parents=[common, replicated], help="Gram-matrix approximation benchmark (lattice vs MC features)")
    p.add_argument("--kernel", choices=("gaussian", "arccos0", "arccos1"), default="gaussian")
    p.add_argument("--sigma", type=float, default=15.0, help="Gaussian bandwidth (default 15)")
    p.add_argument("--data", metavar="PATH", help="CSV data matrix, one sample per row (default: synthetic mixture)")
    p.add_argument("--samples", type=int, default=2000, help="synthetic sample count (default 2000)")
    p.add_argument("--data-dim", type=int, default=8, help="synthetic data dimension (default 8)")
    p.add_argument("--n", type=int, help="frequency count (default: first admissible prime >= 997)")
    p.add_argument("--method", choices=("subgroup", "mc"), help="restrict to one method")

    p = sub.add_parser("sphere", parents=[common], help="unit-norm frame construction and mutual coherence")
    p.add_argument("--d", type=int, required=True, help="ambient dimension (even; m = d/2)")
    p.add_argument("--n", type=int, required=True, help="prime with m | n-1; the frame has 2n vectors")
    p.add_argument("--frame-out", metavar="PATH", help="also write the frame matrix as CSV")

    p = sub.add_parser("bench-timing", parents=[common], help="wall-clock comparison: closed-form construction vs exhaustive search")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--norm", choices=("l1", "l2"), default="l1")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built once per process."""
    return build_parser()


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _emit(_HANDLERS[args.command](args), args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AdmissibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
