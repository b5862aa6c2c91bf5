"""Point materialization, random shifts, and CSV round trips."""

import inspect
import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lattice_forge import exceptions, pointset
from lattice_forge.exceptions import AdmissibilityError, DomainError, SizeLimitError
from lattice_forge.lattice import (
    GeneratingVector,
    korobov_search,
    subgroup_generating_vector,
)
from lattice_forge.metrics import brute_force_min_distance
from lattice_forge.numtheory import is_prime
from lattice_forge.pointset import (
    _BLOCK,
    LatticePointSet,
    _add_mod1,
    _block_rows,
    _replicate,
    _residue_blocks,
    _spans,
    generate,
    load_csv,
    mc_points,
    random_shift,
    save_csv,
)


def test_generate_rows_are_exact_rationals():
    vec = GeneratingVector([1, 2], 5)
    ps = generate(vec)
    assert ps.points.shape == (5, 2)
    for i in range(5):
        for j, zj in enumerate(vec.z):
            assert ps.points[i, j] == ((i * zj) % 5) / 5
    np.testing.assert_allclose(ps.points[1], [0.2, 0.4], atol=0)


def test_generate_first_row_is_origin():
    ps = generate(subgroup_generating_vector(3, 13))
    assert (ps.points[0] == 0.0).all()
    assert ps.points.min() >= 0.0
    assert ps.points.max() < 1.0


def test_generate_refuses_int64_overflow_before_allocating(no_numpy, prime_at_most, monkeypatch):
    # i * z_j wraps in int64 once (n - 1)**2 > 2**63 - 1, from n = 3037000501;
    # memory is stubbed high so the first read of the 24 GB set below
    # passes its memory guard and starts work
    no_numpy("lattice_forge.pointset")
    monkeypatch.setattr(exceptions, "_physical_memory", lambda: 2**80)
    with pytest.raises(SizeLimitError, match="i \\* z"):
        generate(GeneratingVector((1,), 3037000507))
    # the largest prime below the threshold passes the check
    ps = generate(GeneratingVector((1,), prime_at_most(3037000500)))
    with pytest.raises(AssertionError, match="scan started"):
        ps.points


# a prime with 64 | n - 1; 32 columns of it need 238.4 GiB as floats
_BIG_N, _BIG_D = 1000000321, 32
# the largest prime below 2**31 and the first above it
_INT32_N, _INT64_N = 2147483647, 2147483659


def test_generate_holds_only_its_vector(no_numpy, monkeypatch):
    # with no memory and no numpy, generate still returns the lattice: it
    # allocates nothing, and its shape does not build points
    no_numpy("lattice_forge.pointset")
    monkeypatch.setattr(exceptions, "_physical_memory", lambda: 0)
    vec = GeneratingVector(tuple(range(1, _BIG_D + 1)), _BIG_N)
    ps = generate(vec)
    assert (ps.n, ps.d) == (_BIG_N, _BIG_D)
    assert ps._vector is vec and ps._points is None


def test_generate_memory_guard_threshold(no_numpy, guard_threshold):
    # a generated lattice meets its guard at the first read of points: its
    # n x d floats and the residue writer's tiles of R + 1 rows, a tile, its
    # step and scratch, int32 below n = 2**31 and int64 from there, and the
    # first block's int64 products. R = 32768 at d = 1.
    cases = [
        (GeneratingVector((1,), _INT32_N), 8 * _INT32_N + 20 * 32769, r"^points for d=1, n=2147483647 needs 16\.0 GiB"),
        (GeneratingVector((1,), _INT64_N), 8 * _INT64_N + 32 * 32769, r"^points for d=1, n=2147483659 needs 16\.0 GiB"),
    ]
    no_numpy("lattice_forge.pointset")
    for vec, need, line in cases:
        guard_threshold(lambda: generate(vec).points, need, line)


def test_points_first_read_memory_guard_threshold(no_numpy, guard_threshold):
    # generate allocates nothing n x d, so only the first read of points
    # needs its floats and the writer's int32 tiles; R = 1024 at d = 32
    ps = generate(GeneratingVector(tuple(range(1, _BIG_D + 1)), _BIG_N))
    no_numpy("lattice_forge.pointset")
    assert (ps.n, ps.d) == (_BIG_N, _BIG_D)  # the shape does not build points
    guard_threshold(lambda: ps.points, 8 * _BIG_N * _BIG_D + 20 * 1025 * _BIG_D,
                    r"^points for d=32, n=1000000321 needs 238\.4 GiB")


def test_mc_points_memory_guard_threshold(no_numpy, guard_threshold):
    no_numpy("lattice_forge.pointset")
    guard_threshold(lambda: mc_points(_BIG_N, _BIG_D, seed=0), 8 * _BIG_N * _BIG_D,
                    r"^points for d=32, n=1000000321 needs 238\.4 GiB")


# ---------------------------------------------------------------------------
# the residue writer and generate's points against the product formula, bit for bit
# ---------------------------------------------------------------------------


def _product_formula(vec):
    """The one-shot formula: int64 products i * z_j, reduced, divided by n."""
    return _product_residues(vec) / vec.n


def _product_residues(vec):
    i = np.arange(vec.n, dtype=np.int64)[:, None]
    return i * vec.as_array()[None, :] % vec.n


def _check_generate(vec):
    """generate's points equal the product formula's, bit for bit, and are built once."""
    ps = generate(vec)
    assert (ps.n, ps.d) == (vec.n, vec.d)
    points = ps.points
    assert points.tobytes() == _product_formula(vec).tobytes()
    assert ps.points is points


def _prime_at_block_rows(blocks, offset):
    """(d, n): a prime n = blocks * R + offset, R = _block_rows(d) the rows per block."""
    for d in range(2, 200):
        n = blocks * _block_rows(d) + offset
        if n > 2 * d and is_prime(n):
            return d, n
    raise AssertionError(f"no prime at {blocks} blocks {offset:+d} rows")


def _explicit(d, n, seed):
    z = np.random.default_rng(seed).integers(1, n, size=d)
    return GeneratingVector(tuple(int(c) for c in z), n)


def _block_cases():
    cases = {}
    # R is a multiple of 64, so a prime n sits an odd number of rows off it
    for blocks, offset, name in ((1, -1, "below"), (1, 1, "above"), (1, 3, "three-above"), (2, 1, "twice-above")):
        d, n = _prime_at_block_rows(blocks, offset)
        cases[f"n-{name}-block-rows"] = _explicit(d, n, blocks + 1 + offset)
    cases["four-blocks-ragged-tail"] = subgroup_generating_vector(16, 8353)  # 8353 = 4 * 2048 + 161
    cases["d1-two-blocks"] = GeneratingVector((12345,), 40009)
    cases["n3"] = GeneratingVector((1, 2), 3)
    cases["n5"] = GeneratingVector((1, 2, 3, 4), 5)
    cases["korobov"] = GeneratingVector(tuple(pow(17, j, 10007) for j in range(8)), 10007, "korobov")
    cases["korobov-search"] = korobov_search(4, 401, "l1").vector
    cases["explicit-wide"] = _explicit(100, 1009, 7)
    return cases


_CASES = _block_cases()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_generate_matches_product_formula_bitwise(name):
    _check_generate(_CASES[name])


def test_block_cases_cover_the_block_edges():
    # each case's block sizes in rows of the stream's R; a one-row tail
    # joins the block before it
    for name, sizes in (("n-below-block-rows", lambda R: [R - 1]), ("n-above-block-rows", lambda R: [R + 1]),
                        ("n-three-above-block-rows", lambda R: [R, 3]),
                        ("n-twice-above-block-rows", lambda R: [R, R + 1]),
                        ("four-blocks-ragged-tail", lambda R: [R, R, R, R, 161]),
                        ("d1-two-blocks", lambda R: [R, 40009 - R])):
        vec = _CASES[name]
        R = _block_rows(vec.d)
        assert [s.stop - s.start for s in _spans(vec.n, R)] == sizes(R), name


@pytest.mark.parametrize("name", sorted(_CASES))
def test_residue_blocks_match_product_residues(name):
    # the writer's int32 blocks, put together, equal the product formula's
    # residues: in blocks of the stream's R rows, and of row counts that end
    # the lattice on a last block of rows + 1 after one full block (its last
    # row from %), on a short block, and in a single block
    vec = _CASES[name]
    n = vec.n
    expect = _product_residues(vec).astype(np.int32).tobytes()
    for rows in (_block_rows(vec.d), max(1, (n - 1) // 2), max(1, (n - 2) // 2), n - 1, n):
        spans, blocks = zip(*[(s, b.copy()) for s, b in _residue_blocks(vec.as_array(), n, rows)])
        assert list(spans) == list(_spans(n, rows)), rows
        assert [len(b) for b in blocks] == [s.stop - s.start for s in spans], rows
        assert blocks[0].dtype == np.int32 and np.concatenate(blocks).tobytes() == expect, rows


def test_residue_blocks_of_one_row():
    ((span, block),) = _residue_blocks(np.zeros(3, dtype=np.int64), 1, 64)
    assert span == slice(0, 1) and block.tolist() == [[0, 0, 0]]


_primes = st.sampled_from([3, 5, 7, 13, 101, 1009, 4099, 8191, 8209, 16411, 32771])


@st.composite
def _vectors(draw):
    n = draw(_primes)
    z = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=12))
    return GeneratingVector(tuple(z), n)


@given(_vectors())
def test_generate_matches_product_formula_property(vec):
    _check_generate(vec)


def test_lattice_rows_near_the_int64_limit(prime_at_most):
    # the last rows of the largest n below 2**31 (int32 residues), of the
    # first n above it (int64) and of the largest n generate accepts (int64),
    # against Python ints, with no n x d allocation: the writer starts near
    # n and ends on a full block and a last block of R + 1 rows (its last
    # row from %), or on a full block and a three-row block
    for n, dtype in ((_INT32_N, np.int32), (_INT64_N, np.int64), (prime_at_most(3037000500), np.int64)):
        z = (1, 2, n - 1, n // 3 + 12345)
        R = _block_rows(len(z))
        for lo, sizes in ((n - 2 * R - 1, [R, R + 1]), (n - R - 3, [R, 3])):
            blocks = [b.copy() for _, b in _residue_blocks(np.array(z, dtype=np.int64), n, R, lo)]
            assert [len(b) for b in blocks] == sizes, n
            out = np.concatenate(blocks)
            expect = np.array([[(i * zj) % n for zj in z] for i in range(lo, n)], dtype=dtype)
            assert out.dtype == dtype and out.tobytes() == expect.tobytes(), (n, lo)
            assert out[-1, 0] == n - 1 and out[-1, 2] == 1


def test_add_mod1_zero_is_identity():
    ps = generate(GeneratingVector([1, 3], 7))
    np.testing.assert_array_equal(_add_mod1(ps.points, np.zeros(2)), ps.points)


def test_add_mod1_wraps():
    ps = generate(GeneratingVector([1], 2))  # points {0, 0.5}
    shifted = _add_mod1(ps.points, np.array([0.75]))
    np.testing.assert_allclose(shifted.ravel(), [0.75, 0.25], atol=1e-15)


def test_random_shift_leaves_its_input_alone():
    ps = generate(subgroup_generating_vector(3, 13))
    before = ps.points.copy()
    for seed in (0, 1):
        shifted = random_shift(ps, seed)
        assert ps.points.tobytes() == before.tobytes()
        assert not np.shares_memory(shifted.points, ps.points)


_BELOW_ONE = float(np.nextafter(1.0, 0.0))
_unit = st.floats(0.0, 1.0, exclude_max=True)


@given(st.lists(st.tuples(_unit, _unit), min_size=1, max_size=40))
@example([(0.0, 0.0), (0.0, _BELOW_ONE), (_BELOW_ONE, 0.0), (_BELOW_ONE, _BELOW_ONE)])
@example([(0.3, 0.7), (0.5, 0.5), (0.25, 1.0 - 2.0**-40), (5e-324, _BELOW_ONE)])
def test_add_mod1_matches_float_mod_bitwise(pairs):
    # the fold replaces (p + delta) % 1.0; compare the bits, so -0.0 or a
    # result of 1.0 would not pass for 0.0
    p, delta = np.array(pairs, dtype=np.float64).T.copy()
    expect = ((p + delta) % 1.0).view(np.int64)
    np.testing.assert_array_equal(_add_mod1(p, delta).view(np.int64), expect)


def test_add_mod1_blocks_match_float_mod_bitwise():
    # a 2-D set over three full row blocks and a ragged tail; dyadic shifts
    # make p = 1 - delta exact, so some sums land exactly on 1.0
    d = 7
    rows = _BLOCK // d
    n = 3 * rows + 123
    rng = np.random.default_rng(3)
    p = rng.random((n, d))
    delta = np.array([0.75, 0.5, 0.25, 2.0**-40, 0.3, 0.9, 0.0])
    p[::97] = 1.0 - delta
    p[5::101] = _BELOW_ONE
    p[7::103] = 0.0
    assert ((p + delta) == 1.0).sum() >= 3 * (n // 97)
    expect = ((p + delta) % 1.0).view(np.int64)
    np.testing.assert_array_equal(_add_mod1(p, delta).view(np.int64), expect)


def test_random_shift_rejects_points_outside_unit_interval():
    # the exact fold assumes points in [0, 1), as LatticePointSet states
    for bad in (1.0, -0.25):
        with pytest.raises(DomainError, match="points must lie"):
            random_shift(LatticePointSet(np.array([[0.5, bad]])), 0)


def test_random_shift_seeded_and_in_range():
    ps = generate(subgroup_generating_vector(5, 31))
    a = random_shift(ps, 42)
    b = random_shift(ps, 42)
    c = random_shift(ps, 43)
    np.testing.assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.points.min() >= 0.0 and a.points.max() < 1.0
    # the shift is the seeded generator's first draw
    expect = (ps.points + np.random.default_rng(42).random(5)) % 1.0
    np.testing.assert_array_equal(a.points, expect)


def test_random_shift_preserves_min_distance():
    vec = subgroup_generating_vector(3, 37)
    base = generate(vec)
    for seed in (0, 1, 2):
        shifted = random_shift(base, seed)
        for norm in ("l1", "l2"):
            assert brute_force_min_distance(shifted, norm) == pytest.approx(
                brute_force_min_distance(base, norm), abs=1e-12
            )


def test_mc_points_seeded_uniform():
    ps = mc_points(100_000, 2, seed=7)
    np.testing.assert_array_equal(ps.points, np.random.default_rng(7).random((100_000, 2)))
    assert abs(ps.points.mean() - 0.5) < 0.01
    again = mc_points(100_000, 2, seed=7)
    np.testing.assert_array_equal(ps.points, again.points)


def test_mc_points_validation():
    with pytest.raises(DomainError):
        mc_points(0, 2, seed=0)
    with pytest.raises(DomainError):
        mc_points(5, 0, seed=0)


def test_csv_round_trip_is_exact():
    ps = random_shift(generate(subgroup_generating_vector(4, 17)), 9)
    buf = io.StringIO()
    save_csv(ps.points, buf)
    buf.seek(0)
    back = load_csv(buf)
    np.testing.assert_array_equal(back, ps.points)


# ---------------------------------------------------------------------------
# the streaming driver against materialized sets, bit for bit
# ---------------------------------------------------------------------------

_METHODS = ("subgroup", "korobov", "mc")


def _streamed_sets(stream_order, d, n, methods, runs, seed, shifted=True, f=lambda X: X.sum(1)):
    """Each run's set and per-point values as ``_replicate`` streams them, and its means.

    Every ``values`` call is recorded: a copy of its block, the address of
    the block's first element and the values ``f`` gives. Each run's set
    and values are put back together in the documented call order (see
    ``stream_order``). Also returns the blocks and their addresses.
    """
    blocks, addresses, outs = [], [], []

    def values(block):
        blocks.append(block.copy())
        addresses.append(block.__array_interface__["data"][0])
        outs.append(f(block))
        return outs[-1]

    means = _replicate(d, n, methods, values, runs=runs, seed_source=seed, shifted=shifted)
    assert {m: len(v) for m, v in means.items()} == {m: runs for m in methods}
    calls = stream_order([len(b) for b in blocks], d, n, methods, runs, shifted)
    sets = {m: [np.concatenate([blocks[k] for k in run]) for run in calls[m]] for m in methods}
    vals = {m: [np.concatenate([outs[k] for k in run]) for run in calls[m]] for m in methods}
    return sets, vals, means, blocks, addresses


def _stream_cases():
    """(method, d, n): n mod R in {0, 1, 2, 63, R - 1} for MC, and for each
    lattice the odd residues among them that a small enough prime n hits."""
    cases = []
    for d in (1, 7, 16, 17, 64, 100, 600):
        R = _block_rows(d)
        cases += [("mc", d, 2 * R + rem) for rem in (0, 1, 2, 63, R - 1)]
        for method in ("korobov", "subgroup"):
            for rem in sorted({1, 63, R - 1}):
                for n in range(R + rem, 400 * R, R):
                    ok = method == "korobov" or (n - 1) % (2 * d) == 0
                    if n >= 2 * d + 1 and ok and is_prime(n):
                        # the Korobov search is slow past n = 2e4, except at d = 1
                        if n * d <= 7_000_000 and (method == "subgroup" or d == 1 or n <= 20_000):
                            cases.append((method, d, n))
                        break
    return cases


_STREAM_CASES = _stream_cases()


def test_stream_cases_cover_every_residue():
    # MC hits every residue; each lattice at least the one-row remainder
    for d in (1, 7, 16, 17, 64, 100, 600):
        R = _block_rows(d)
        for method, rems in (("mc", {0, 1, 2, 63, R - 1}), ("korobov", {1}), ("subgroup", {1})):
            got = {n % R for m, dd, n in _STREAM_CASES if (m, dd) == (method, d)}
            assert rems <= got, (method, d, sorted(got))


@pytest.mark.parametrize("shifted", [True, False], ids=["shifted", "no-shift"])
@pytest.mark.parametrize(
    "method, d, n", _STREAM_CASES, ids=[f"{m}-d{d}-n{n}" for m, d, n in _STREAM_CASES]
)
def test_streamed_integrand_matches_materialized_sets_bitwise(reference_sets, stream_order, method, d, n,
                                                              shifted):
    # the integrand's values exp(X @ w), streamed block by block, equal the
    # same formula on each run's whole materialized set, and so do the
    # returned means
    runs, seed = (3 if n % 4 == 3 else 1), n
    w = 1.0 / np.arange(1, d + 1) ** 2
    sets, vals, means, _, _ = _streamed_sets(stream_order, d, n, (method,), runs, seed, shifted,
                                             lambda X: np.exp(X @ w))
    for r, points in enumerate(reference_sets(d, n, method, runs, seed, shifted)):
        expect = np.exp(points @ w)
        assert sets[method][r].tobytes() == points.tobytes(), r
        assert vals[method][r].tobytes() == expect.tobytes(), r
        assert means[method][r] == float(expect.mean()), r


@pytest.mark.parametrize("shifted", [True, False])
def test_replicate_reuses_one_buffer_with_fresh_set_values(reference_sets, stream_order, shifted):
    # every run streams the bytes of a fresh random_shift / mc_points set (the
    # base itself unshifted), shifted and MC blocks all land in one reused
    # tile, and a last block of one row joins the block before it
    d, runs = 100, 3
    R = _block_rows(d)
    n = 5 * R + 1  # 1601 is prime with 200 | n - 1
    sets, vals, means, blocks, addresses = _streamed_sets(stream_order, d, n, _METHODS, runs, 9, shifted)
    for method in _METHODS:
        for r, expect in enumerate(reference_sets(d, n, method, runs, 9, shifted)):
            assert sets[method][r].tobytes() == expect.tobytes(), (method, r)
            assert means[method][r] == float(vals[method][r].mean()), (method, r)
    assert sorted({len(b) for b in blocks}) == [R, R + 1]
    # 5 blocks per run, with the unshifted lattices' blocks shared by all runs;
    # every shifted or MC block starts at the tile's first element
    assert len(blocks) == 5 * (3 * runs if shifted else runs + 2)
    assert max(map(addresses.count, addresses)) == 5 * (3 * runs if shifted else runs)
    # the unshifted lattices' blocks all start at one reused base tile
    assert len(set(addresses)) == (1 if shifted else 2)


def _check_chunks(monkeypatch, reference_sets, stream_order, shifted, chunks):
    # 5 runs at d = 2, n = 101 in ``chunks`` chunks, in blocks of 64 and 37
    # rows, so the call lengths show the chunks: a chunk's runs pass their
    # 64-row blocks, then their 37-row blocks. Each run still streams its
    # own set's bytes, every method chunks its runs alike, and an unshifted
    # lattice is one set, passed once whatever the chunks
    monkeypatch.setattr(pointset, "_BLOCK", 128)
    d, n, runs = 2, 101, 5
    sets, vals, means, blocks, _ = _streamed_sets(stream_order, d, n, _METHODS, runs, 4, shifted)
    for method in _METHODS:
        for r, expect in enumerate(reference_sets(d, n, method, runs, 4, shifted)):
            assert sets[method][r].tobytes() == expect.tobytes(), (method, r)
            assert means[method][r] == float(vals[method][r].mean()), (method, r)
    lengths = [len(b) for b in blocks]
    assert len(lengths) == 2 * (3 * runs if shifted else runs + 2)
    assert len(list(itertools.groupby(lengths))) == 2 * (3 * chunks if shifted else chunks + 2)


@pytest.mark.parametrize("shifted", [True, False])
def test_replicate_chunks_runs_past_d(monkeypatch, reference_sets, stream_order, shifted):
    # with no value budget, 5 runs at d = 2 go in chunks of 2, 2 and 1 runs
    monkeypatch.setattr(pointset, "_CHUNK_VALUES", 0)
    _check_chunks(monkeypatch, reference_sets, stream_order, shifted, 3)


@pytest.mark.parametrize("budget, chunks", [(303, 2), (pointset._CHUNK_VALUES, 1)], ids=["chunks-of-3", "default"])
@pytest.mark.parametrize("shifted", [True, False])
def test_replicate_chunks_a_lattice_by_its_value_budget(monkeypatch, reference_sets, stream_order, shifted,
                                                        budget, chunks):
    # every method's chunk holds as many runs as the budget's values do
    # when that is more than d: 303 // 101 = 3 runs, then 2; by default all
    # 5 runs in one chunk, so each residue block is written once
    monkeypatch.setattr(pointset, "_CHUNK_VALUES", budget)
    _check_chunks(monkeypatch, reference_sets, stream_order, shifted, chunks)


def test_replicate_streams_an_unshifted_lattice_once(monkeypatch, reference_sets):
    # past the chunk of d runs, each unshifted lattice is still one set,
    # passed once block by block, and every run gets its mean; MC in the
    # same request streams each run's own sample, in chunks of d runs
    monkeypatch.setattr(pointset, "_CHUNK_VALUES", 0)
    monkeypatch.setattr(pointset, "_BLOCK", 128)  # blocks of 64 and 37 rows
    d, n, runs = 2, 101, 5
    lengths = []

    def values(X):
        lengths.append(len(X))
        return X.sum(1)

    means = _replicate(d, n, _METHODS, values, runs=runs, seed_source=4, shifted=False)
    assert lengths == [64, 37] + [64, 37] + [64, 64, 37, 37] * 2 + [64, 37]
    for method in ("subgroup", "korobov"):
        base = next(reference_sets(d, n, method, 1, 4, shifted=False))
        assert means[method] == [float(base.sum(1).mean())] * runs, method
    for r, expect in enumerate(reference_sets(d, n, "mc", runs, 4)):
        assert means["mc"][r] == float(expect.sum(1).mean()), r


def test_replicate_holds_less_than_a_float_base():
    # a subgroup lattice is streamed through tiles of R + 1 rows, its
    # residues written one tile at a time, so it holds less than the 4 n d
    # bytes of its int32 residues, let alone an n x d float base
    d, n = 64, 40961  # 40961 = 320 * 128 + 1
    w = 1.0 / np.arange(1, d + 1) ** 2
    tracemalloc.start()
    try:
        _replicate(d, n, ("subgroup",), lambda X: np.exp(X @ w), runs=2, seed_source=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * d


def test_points_first_read_holds_one_residue_tile():
    # generate and the first read of points hold the n x d floats and one
    # residue tile of R + 1 rows, not the 12 n d bytes of residues and floats
    d, n = 64, 40961
    vec = subgroup_generating_vector(d, n)
    tracemalloc.start()
    try:
        generate(vec).points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n * d < peak < 9 * n * d


@pytest.mark.parametrize("method", ["mc", "subgroup"])
@pytest.mark.parametrize(
    "d, n, runs, held",
    [(1, 65537, 40, 15), (2, 1000033, 8, 2)],
    ids=["budget", "d-runs"],
)
def test_replicate_holds_a_chunk_of_its_value_budget(method, d, n, runs, held):
    # every method holds the values of one chunk of min(runs, max(d,
    # 2**20 // n)) runs beside tiles of R + 1 rows (at most 80 bytes per tile
    # element with one block's values), not the 8 * runs * n of every run's
    # values at once: 2**20 // 65537 = 15 runs at d = 1; past n = 2**20 / d,
    # d runs
    # a process's first call imports numpy.random, which numpy loads lazily
    _replicate(d, 13, (method,), lambda X: X.sum(1), runs=1, seed_source=0)
    tracemalloc.start()
    try:
        _replicate(d, n, (method,), lambda X: X.sum(1), runs=runs, seed_source=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * held * n < peak < 8 * held * n + 80 * (_block_rows(d) + 1) * d


def test_replicate_is_a_plain_call():
    # a call that runs the whole stream, so a wrapper around _replicate (a
    # profiler's, say) times the stream; a generator's call would return
    # before its first block
    assert not inspect.isgeneratorfunction(_replicate)


def test_replicate_mc_keeps_the_size_check():
    with pytest.raises(DomainError, match="need n >= 1"):
        _replicate(2, 0, ("mc",), lambda X: X[:, 0], runs=1, seed_source=0)


def test_replicate_checks_arguments_before_its_guard(monkeypatch, first_work):
    # with no memory at all, inadmissible lattices still raise their own
    # errors, and an admissible request reaches the guard, not the search
    monkeypatch.setattr(exceptions, "_physical_memory", lambda: 0)
    first_work("lattice_forge.pointset.korobov_search")
    for method, d, n, error in (("subgroup", 3, 11, AdmissibilityError), ("korobov", 4, 7, AdmissibilityError),
                                ("korobov", 4, 9, DomainError), ("korobov", 4, 41, SizeLimitError)):
        with pytest.raises(error):
            _replicate(d, n, (method,), None, runs=1, seed_source=0)


@pytest.mark.parametrize(
    "method, n, d, runs, shifted, need",
    [
        # 3 runs of values and the MC tile of R + 1 = 1025 rows
        ("mc", 10**12, 32, 3, True, 8 * 3 * 10**12 + 8 * 1025 * 32),
        # 50 runs > d go in chunks of d: the 8 n d bytes mc_points checks
        ("mc", 10**12, 4, 50, True, 8 * 4 * 10**12 + 8 * 8193 * 4),
        # a tile of all n = 65 rows of 10**9 columns, beside one run's values
        ("mc", 65, 10**9, 1, True, 8 * 65 * 10**9 + 8 * 65),
        # a lattice's 16 runs of values, its three float tiles (fold, the
        # fold's scratch, base) of R + 1 = 2049 rows and the writer's 20 bytes
        # per tile element (int32 tile, step and scratch, int64 first block)
        ("subgroup", 6000481, 16, 16, True, 8 * 16 * 6000481 + (24 + 20) * 2049 * 16),
        # the Korobov search starts only past the same guard
        ("korobov", 6000481, 16, 16, True, 8 * 16 * 6000481 + (24 + 20) * 2049 * 16),
        # at d = 65536 (R = 64) the tiles outweigh one run's values; unshifted,
        # only the base tile and the writer's
        ("subgroup", 786433, 65536, 1, True, 8 * 786433 + (24 + 20) * 65 * 65536),
        ("subgroup", 786433, 65536, 1, False, 8 * 786433 + (8 + 20) * 65 * 65536),
        # the writer's tile, step and scratch are int64 from n = 2**31
        ("subgroup", 2147483659, 1, 1, True, 8 * 2147483659 + (24 + 32) * 32769),
        # a lattice's 40 runs past d = 1 go in chunks of the 2**20 values
        # budget: 2**20 // 65537 = 15 runs of n = 65537
        ("subgroup", 65537, 1, 40, True, 8 * 15 * 65537 + (24 + 20) * 32769),
        # an unshifted lattice is one set: one run's values whatever the runs,
        # beside the base tile and the writer's (R + 1 = 513 rows at d = 64);
        # MC runs still hold a chunk's values unshifted
        ("subgroup", 7000577, 64, 64, False, 8 * 7000577 + (8 + 20) * 513 * 64),
        ("mc", 10**12, 32, 3, False, 8 * 3 * 10**12 + 8 * 1025 * 32),
    ],
    ids=["values", "runs-past-d", "tile", "residue-tile", "korobov", "wide", "wide-no-shift", "int64-tile",
         "lattice-value-budget", "no-shift-runs", "mc-no-shift"],
)
def test_replicate_memory_guard_threshold(no_numpy, guard_threshold, first_work, method, n, d, runs, shifted, need):
    # the chunk's values plus every tile, checked before any array is
    # allocated (the seed matrix is the one use of numpy before it) and
    # before the Korobov search
    first_work("lattice_forge.pointset.korobov_search")
    no_numpy("lattice_forge.pointset", allow=("random", "int64"))
    guard_threshold(lambda: _replicate(d, n, (method,), None, runs=runs, seed_source=0, shifted=shifted), need,
                    rf"^point values for d={d}, n={n}, runs={runs} needs {need / 2**30:.1f} GiB")
