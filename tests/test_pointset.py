"""Point materialization, random shifts, and CSV round trips."""

import inspect
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lattice_forge import exceptions
from lattice_forge.exceptions import DomainError, SizeLimitError
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
    _lattice_rows,
    _replicate,
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
    # memory is stubbed high so the 24 GB set below reaches the int64 guard
    no_numpy("lattice_forge.pointset")
    monkeypatch.setattr(exceptions, "_physical_memory", lambda: 2**80)
    with pytest.raises(SizeLimitError, match="i \\* z"):
        generate(GeneratingVector((1,), 3037000507))
    # the largest prime below the threshold passes the guard and starts work
    with pytest.raises(AssertionError, match="scan started"):
        generate(GeneratingVector((1,), prime_at_most(3037000500)))


# a prime with 64 | n - 1; 32 columns of it need 238.4 GiB as floats
_BIG_N, _BIG_D = 1000000321, 32
# the largest prime below 2**31 and the first above it
_INT32_N, _INT64_N = 2147483647, 2147483659


def test_generate_memory_guard_threshold(no_numpy, guard_threshold):
    # generate holds int32 residues below n = 2**31 and int64 ones from there
    cases = [
        (GeneratingVector(tuple(range(1, _BIG_D + 1)), _BIG_N), 4 * _BIG_N * _BIG_D,
         r"^points for d=32, n=1000000321 needs 119\.2 GiB"),
        (GeneratingVector((1,), _INT32_N), 4 * _INT32_N, r"^points for d=1, n=2147483647 needs 8\.0 GiB"),
        (GeneratingVector((1,), _INT64_N), 8 * _INT64_N, r"^points for d=1, n=2147483659 needs 16\.0 GiB"),
    ]
    no_numpy("lattice_forge.pointset")
    for vec, need, line in cases:
        guard_threshold(lambda: generate(vec), need, line)


def test_points_first_read_memory_guard_threshold(no_numpy, guard_threshold):
    # the residues are a zero-stride int32 view, so nothing n x d is
    # allocated; the first read of points needs its floats and the residues
    ps = LatticePointSet._from_residues(np.broadcast_to(np.int32(0), (_BIG_N, _BIG_D)))
    no_numpy("lattice_forge.pointset")
    assert (ps.n, ps.d) == (_BIG_N, _BIG_D)  # the shape does not build points
    guard_threshold(lambda: ps.points, 12 * _BIG_N * _BIG_D,
                    r"^points for d=32, n=1000000321 needs 357\.6 GiB")


def test_mc_points_memory_guard_threshold(no_numpy, guard_threshold):
    no_numpy("lattice_forge.pointset")
    guard_threshold(lambda: mc_points(_BIG_N, _BIG_D, seed=0), 8 * _BIG_N * _BIG_D,
                    r"^points for d=32, n=1000000321 needs 238\.4 GiB")


# ---------------------------------------------------------------------------
# blocked generate against the product formula, bit for bit
# ---------------------------------------------------------------------------


def _product_formula(vec):
    """The one-shot formula: int64 products i * z_j, reduced, divided by n."""
    return _product_residues(vec) / vec.n


def _product_residues(vec):
    i = np.arange(vec.n, dtype=np.int64)[:, None]
    return i * vec.as_array()[None, :] % vec.n


def _check_generate(vec):
    """generate's int32 residues and its points equal the product formula's,
    bit for bit, and the points are built once, freeing the residues."""
    ps = generate(vec)
    assert ps._residues.dtype == np.int32
    assert ps._residues.tobytes() == _product_residues(vec).astype(np.int32).tobytes()
    points = ps.points
    assert points.tobytes() == _product_formula(vec).tobytes()
    assert ps.points is points and ps._residues is None
    assert (ps.n, ps.d) == (vec.n, vec.d)


def _prime_at_block_rows(offset):
    """(d, n): a prime n = R + offset, R = _BLOCK // d the rows per block."""
    for d in range(2, 200):
        n = _BLOCK // d + offset
        if n > 2 * d and is_prime(n):
            return d, n
    raise AssertionError(f"no prime at block rows {offset:+d}")


def _explicit(d, n, seed):
    z = np.random.default_rng(seed).integers(1, n, size=d)
    return GeneratingVector(tuple(int(c) for c in z), n)


def _block_cases():
    cases = {}
    for offset, name in ((-1, "below"), (0, "equal"), (1, "above")):
        d, n = _prime_at_block_rows(offset)
        cases[f"n-{name}-block-rows"] = _explicit(d, n, 2 + offset)
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
    for name, blocks in (("n-below-block-rows", 1), ("n-equal-block-rows", 1),
                         ("n-above-block-rows", 2), ("four-blocks-ragged-tail", 5),
                         ("d1-two-blocks", 2)):
        vec = _CASES[name]
        rows = _BLOCK // vec.d
        assert -(-vec.n // rows) == blocks, name
    assert _CASES["four-blocks-ragged-tail"].n % (_BLOCK // 16)


_primes = st.sampled_from([3, 5, 7, 13, 101, 1009, 4099, 8191, 8209, 16411, 32771])


@st.composite
def _vectors(draw):
    n = draw(_primes)
    z = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=12))
    return GeneratingVector(tuple(z), n)


@given(_vectors())
def test_generate_matches_product_formula_property(vec):
    _check_generate(vec)


def test_lattice_rows_near_the_int64_limit():
    # the last rows of the largest n below 2**31 (int32 residues), of the
    # first n above it (int64) and of the largest n generate accepts (int64),
    # against Python ints, with no n x d allocation: one full block ending
    # three rows short of n, then the ragged tail
    top = 3037000500
    while not is_prime(top):
        top -= 1
    for n, dtype in ((_INT32_N, np.int32), (_INT64_N, np.int64), (top, np.int64)):
        z = (1, 2, n - 1, n // 3 + 12345)
        rows = _BLOCK // len(z) + 3
        lo = n - rows
        out = _lattice_rows(np.array(z, dtype=np.int64), n, lo, np.empty((rows, len(z)), dtype))
        expect = np.array([[(i * zj) % n for zj in z] for i in range(lo, n)], dtype=dtype)
        assert out.tobytes() == expect.tobytes(), n
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


def _block_rows(d):
    return max(64, (_BLOCK // d) & ~63)


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


@pytest.mark.parametrize("shifted", [True, False])
def test_replicate_chunks_runs_past_d(reference_sets, stream_order, shifted):
    # 5 runs at d = 2 go in chunks of 2, 2 and 1 runs; each run still
    # streams its own set's bytes
    d, n, runs = 2, 101, 5
    sets, vals, means, blocks, _ = _streamed_sets(stream_order, d, n, _METHODS, runs, 4, shifted)
    for method in _METHODS:
        for r, expect in enumerate(reference_sets(d, n, method, runs, 4, shifted)):
            assert sets[method][r].tobytes() == expect.tobytes(), (method, r)
            assert means[method][r] == float(vals[method][r].mean()), (method, r)
    # an unshifted lattice block is computed once per chunk, not once per run
    assert len(blocks) == (3 * runs if shifted else runs + 2 * 3)


def test_replicate_holds_less_than_a_float_base():
    # a subgroup lattice is streamed from its int32 residues through tiles
    # of R + 1 rows, so no n x d float base is ever held
    d, n = 64, 40961  # 40961 = 320 * 128 + 1
    w = 1.0 / np.arange(1, d + 1) ** 2
    tracemalloc.start()
    try:
        _replicate(d, n, ("subgroup",), lambda X: np.exp(X @ w), runs=2, seed_source=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4 * n * d < peak < 8 * n * d


def test_replicate_holds_the_values_of_at_most_d_runs():
    # 50 MC runs at d = 2 go in 25 chunks of 2 runs, so their values take
    # 8 * 2 * n bytes beside tiles of R + 1 rows, not the 8 * 50 * n of
    # every run's values at once
    d, n, runs = 2, 200003, 50
    # a process's first call imports numpy.random, which numpy loads lazily
    _replicate(d, 1, ("mc",), lambda X: X.sum(1), runs=1, seed_source=0)
    tracemalloc.start()
    try:
        _replicate(d, n, ("mc",), lambda X: X.sum(1), runs=runs, seed_source=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (d + 1) * n


def test_replicate_is_a_plain_call():
    # a call that runs the whole stream, so a wrapper around _replicate (a
    # profiler's, say) times the stream; a generator's call would return
    # before its first block
    assert not inspect.isgeneratorfunction(_replicate)


def test_replicate_mc_keeps_the_size_check():
    with pytest.raises(DomainError, match="need n >= 1"):
        _replicate(2, 0, ("mc",), lambda X: X[:, 0], runs=1, seed_source=0)


@pytest.mark.parametrize(
    "method, n, d, runs, need",
    [
        # 3 runs of values, more than the two tiles of R + 1 = 1025 rows
        ("mc", 10**12, 32, 3, 8 * 3 * 10**12),
        # 50 runs > d go in chunks of d: the 8 n d bytes mc_points checks
        ("mc", 10**12, 4, 50, 8 * 4 * 10**12),
        # a tile of all n = 65 rows of 10**9 columns outweighs the values
        ("mc", 65, 10**9, 1, 8 * 65 * 10**9),
        # the lattice's int32 residues (0.36 GiB) are held through the
        # stream, beside 16 runs of values (0.72 GiB)
        ("subgroup", 6000481, 16, 16, 4 * 6000481 * 16 + 8 * 16 * 6000481),
    ],
    ids=["values", "runs-past-d", "tile", "residues"],
)
def test_replicate_memory_guard_threshold(no_numpy, guard_threshold, monkeypatch, method, n, d, runs, need):
    # checked before any array is allocated (the seed matrix is the one use
    # of numpy before it), and never above the bytes of one materialized
    # set: mc_points' 8 n d, or a lattice's residues and their floats
    assert need <= (8 if method == "mc" else 12) * n * d
    # generate's residues are a zero-stride int32 view: nothing n x d is allocated
    base = LatticePointSet._from_residues(np.broadcast_to(np.int32(0), (n, d)))
    monkeypatch.setattr("lattice_forge.pointset.generate", lambda z: base)
    no_numpy("lattice_forge.pointset", allow=("random", "int64"))
    guard_threshold(lambda: _replicate(d, n, (method,), None, runs=runs, seed_source=0), need,
                    rf"^point values for d={d}, n={n}, runs={runs} needs {need / 2**30:.1f} GiB")
