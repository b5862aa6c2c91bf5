"""Toroidal distance and census tests.

``lattice_min_distance`` is cross-checked against
``brute_force_min_distance`` (O(n^2 d) pairwise enumeration on the
materialized points), against hand-enumerated small cases, and both of
its fast paths (coset census, half scan) against the full scan of
k = 1..n-1.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_forge import exceptions, metrics
from lattice_forge.exceptions import AdmissibilityError, DomainError, SizeLimitError
from lattice_forge.lattice import (
    GeneratingVector,
    find_admissible_n,
    korobov_search,
    subgroup_generating_vector,
)
from lattice_forge.numtheory import is_prime
from lattice_forge.metrics import (
    DistanceReport,
    _is_subgroup,
    brute_force_min_distance,
    lattice_min_distance,
    min_distance_bounds,
    optimal_distances,
    toroidal_distance,
)
from lattice_forge.pointset import generate
from lattice_forge.sphere import SphericalFrame

# ---------------------------------------------------------------------------
# toroidal_distance
# ---------------------------------------------------------------------------


def test_toroidal_distance_wraps():
    assert toroidal_distance([0.1], [0.9], "l1") == pytest.approx(0.2, abs=1e-15)
    assert toroidal_distance([0.0, 0.0], [0.5, 0.5], "l1") == pytest.approx(1.0, abs=1e-15)
    assert toroidal_distance([0.0, 0.0], [0.5, 0.5], "l2") == pytest.approx(
        math.sqrt(0.5), abs=1e-15
    )


def test_toroidal_distance_identity_and_range_checks():
    assert toroidal_distance([0.3, 0.7], [0.3, 0.7], "l1") == 0.0
    with pytest.raises(DomainError):
        toroidal_distance([1.2], [0.5], "l1")
    with pytest.raises(DomainError):
        toroidal_distance([0.5], [-0.1], "l2")
    with pytest.raises(DomainError):
        toroidal_distance([0.5, 0.5], [0.5], "l1")


def test_norm_designators():
    # exactly "l1" and "l2"; no case, whitespace, integer or alias variants
    vec = GeneratingVector([1, 2], 5)
    calls = (
        lambda norm: toroidal_distance([0.1], [0.9], norm),
        lambda norm: lattice_min_distance(vec, norm),
        lambda norm: brute_force_min_distance(generate(vec), norm),
        lambda norm: korobov_search(2, 5, norm),
    )
    for call in calls:
        call("l1")
        call("l2")
        for bad in ("L1", " l2", "l1 ", "t1", "1", 1, 2, True, None, "l3"):
            with pytest.raises(DomainError, match="norm must be 'l1' or 'l2'"):
                call(bad)


@st.composite
def _paired_points(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    x = draw(st.lists(coords, min_size=d, max_size=d))
    y = draw(st.lists(coords, min_size=d, max_size=d))
    s = draw(st.lists(coords.filter(lambda v: v < 1.0), min_size=d, max_size=d))
    return np.array(x), np.array(y), np.array(s)


@given(_paired_points(), st.sampled_from(["l1", "l2"]))
@settings(max_examples=200, deadline=None)
def test_toroidal_distance_symmetry_and_shift_invariance(pts, norm):
    x, y, s = pts
    d_xy = toroidal_distance(x, y, norm)
    assert d_xy == pytest.approx(toroidal_distance(y, x, norm), abs=0)
    xs = (x + s) % 1.0
    ys = (y + s) % 1.0
    xs[xs >= 1.0] = 0.0
    ys[ys >= 1.0] = 0.0
    assert toroidal_distance(xs, ys, norm) == pytest.approx(d_xy, abs=1e-9)
    # p=1 dominates p=2 coordinate-wise sums
    assert toroidal_distance(x, y, "l1") >= toroidal_distance(x, y, "l2") - 1e-12


# ---------------------------------------------------------------------------
# lattice_min_distance
# ---------------------------------------------------------------------------


def test_census_hand_enumerated_n5():
    # z = (1, 2), n = 5: every k = 1..4 gives wrapped residues {1, 2}
    rep = lattice_min_distance(GeneratingVector([1, 2], 5), "l1")
    assert rep.census == ((0.6, 4),)
    assert rep.distinct_count == 1
    assert rep.min_key == 3
    assert rep.argmin_k == 1
    assert rep.n == 5


def test_census_collapse_d3_n13():
    rep = lattice_min_distance(subgroup_generating_vector(3, 13), "l1")
    assert rep.distinct_count == 2
    assert rep.census[0] == (pytest.approx(8 / 13, abs=1e-15), 6)
    assert rep.census[1] == (pytest.approx(1.0, abs=1e-15), 6)
    assert rep.keys.tolist() == [8, 13]
    rep2 = lattice_min_distance(subgroup_generating_vector(3, 13), "l2")
    assert rep2.distinct_count == 2
    assert sum(rep2.multiplicities()) == 12


def test_census_multiplicities_sum_to_n_minus_1():
    for d, n in [(2, 13), (5, 31), (8, 97), (10, 101)]:
        for norm in ("l1", "l2"):
            rep = lattice_min_distance(subgroup_generating_vector(d, n), norm)
            assert sum(rep.multiplicities()) == n - 1


def test_census_coset_structure_all_admissible():
    # distances are constant on cosets of the order-2d subgroup, so the
    # census can never exceed (n-1)/(2d) values and every multiplicity is a
    # whole number of cosets
    for n in (p for p in range(3, 401) if is_prime(p)):
        for d in range(1, (n - 1) // 2 + 1):
            if (n - 1) % (2 * d):
                continue
            vec = subgroup_generating_vector(d, n)
            for norm in ("l1", "l2"):
                rep = lattice_min_distance(vec, norm)
                assert rep.distinct_count <= (n - 1) // (2 * d)
                assert sum(rep.multiplicities()) == n - 1
                assert all(m % (2 * d) == 0 for m in rep.multiplicities())


def test_census_coset_ties():
    # distinct cosets can share a distance value: at (d=6, n=37) the cosets
    # of k=1 and k=4 both have l1 key 50, so the l1 census collapses to two
    # values while the l2 census keeps all three
    rep1 = lattice_min_distance(subgroup_generating_vector(6, 37), "l1")
    assert rep1.distinct_count == 2
    assert rep1.keys.tolist() == [50, 71]
    assert rep1.multiplicities() == (24, 12)
    rep2 = lattice_min_distance(subgroup_generating_vector(6, 37), "l2")
    assert rep2.distinct_count == 3
    assert rep2.keys.tolist() == [518, 592, 999]
    assert set(rep2.multiplicities()) == {12}


def test_min_distance_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.choice([13, 29, 61, 101, 127]))
        d = int(rng.integers(1, 7))
        z = rng.choice(np.arange(1, n), size=d, replace=False).tolist()
        vec = GeneratingVector(z, n)
        pts = generate(vec)
        for norm in ("l1", "l2"):
            fast = lattice_min_distance(vec, norm).min_distance
            slow = brute_force_min_distance(pts, norm)
            assert fast == pytest.approx(slow, abs=1e-12), (z, n, norm)


def test_argmin_k_is_smallest_attaining_k():
    vec = subgroup_generating_vector(3, 13)
    rep = lattice_min_distance(vec, "l1")
    z = np.asarray(vec.z)
    keys = []
    for k in range(1, 13):
        m = np.minimum((k * z) % 13, 13 - (k * z) % 13)
        keys.append(int(m.sum()))
    expect = 1 + min(range(12), key=lambda i: (keys[i], i))
    assert rep.argmin_k == expect
    assert keys[rep.argmin_k - 1] == rep.min_key


def test_blocked_census_equals_unblocked():
    # one block at the 2^21 element budget: the 6 cosets of a large-d
    # subgroup; test_census_paths_across_blocks spreads cosets over blocks
    vec = subgroup_generating_vector(250, 3001)
    rep = lattice_min_distance(vec, "l2")
    assert sum(rep.multiplicities()) == 3000
    assert rep.distinct_count == (3001 - 1) // (2 * 250)
    assert len(set(rep.multiplicities())) == 1


def _full_scan(vec, norm):
    """The census of k = 1..n-1, every k counted once, in plain Python: the oracle."""
    p = 1 if norm == "l1" else 2
    n = vec.n
    keys = [sum(min(k * c % n, n - k * c % n) ** p for c in vec.z) for k in range(1, n)]
    census = sorted(Counter(keys).items())
    return DistanceReport(
        np.array([key for key, _ in census], dtype=np.int64),
        np.array([count for _, count in census], dtype=np.int64),
        1 + keys.index(census[0][0]),
        norm=norm,
        n=n,
    )


def _fields(rep):
    """A report's minimum and census, comparable with ``==``."""
    return (rep.min_key, rep.argmin_k, rep.min_distance, rep.keys.tolist(), rep.counts.tolist())


@st.composite
def _subgroup_vectors(draw):
    """A subgroup vector with its components permuted and sign-flipped."""
    d = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 32, 64]))
    n = draw(st.sampled_from(find_admissible_n(d, 4)))
    z = draw(st.permutations(subgroup_generating_vector(d, n).z))
    flips = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    return GeneratingVector([n - c if f else c for c, f in zip(z, flips)], n)


@given(_subgroup_vectors(), st.sampled_from(["l1", "l2"]))
@settings(max_examples=60, deadline=None)
def test_coset_census_equals_full_scan(vec, norm):
    assert _is_subgroup(vec.z, vec.n)
    assert _fields(lattice_min_distance(vec, norm)) == _fields(_full_scan(vec, norm))


def test_coset_census_on_reversed_vectors():
    for d in (1, 2, 3, 5, 8, 13, 32, 64):
        for n in find_admissible_n(d, 3):
            vec = GeneratingVector(subgroup_generating_vector(d, n).z[::-1], n)
            assert _is_subgroup(vec.z, n)
            for norm in ("l1", "l2"):
                assert _fields(lattice_min_distance(vec, norm)) == _fields(_full_scan(vec, norm))


def test_non_subgroup_vectors_take_the_scan(monkeypatch):
    def no_cosets(*args):
        raise AssertionError("coset census used")

    monkeypatch.setattr("lattice_forge.metrics._coset_blocks", no_cosets)
    cases = [
        # 6 distinct +-z_j and 6 | 12, but 2**6 = 12 mod 13: not the subgroup
        GeneratingVector([1, 2, 3], 13),
        # every z_j solves x**6 = 1 mod 13, but +-1 repeats
        GeneratingVector([1, 12, 4], 13),
        # a subgroup vector with one component too few or too many
        GeneratingVector(subgroup_generating_vector(3, 13).z[:2], 13),
        GeneratingVector(subgroup_generating_vector(3, 13).z + (5,), 13),
        # 2d does not divide n - 1
        GeneratingVector([1, 2, 3, 4, 5], 13),
    ]
    for vec in cases:
        assert not _is_subgroup(vec.z, vec.n)
        for norm in ("l1", "l2"):
            assert _fields(lattice_min_distance(vec, norm)) == _fields(_full_scan(vec, norm))


def _is_subgroup_by_set(z, n):
    """The set-based definition: 2d | n-1, 2d distinct +-z_j, each z_j**(2d) = 1."""
    two_d = 2 * len(z)
    return (
        (n - 1) % two_d == 0
        and len({r for c in z for r in (c, n - c)}) == two_d
        and all(pow(c, two_d, n) == 1 for c in z)
    )


@st.composite
def _near_subgroup_vectors(draw):
    """d residues mod n drawn from the order-2d subgroup H, repeated,
    sign-flipped or replaced by arbitrary residues; n may be inadmissible."""
    d = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 13]))
    n = draw(st.sampled_from(find_admissible_n(d, 3) + [5, 7, 13, 29, 97]))
    group = SphericalFrame(2 * d, n).index_set if (n - 1) % (2 * d) == 0 else tuple(range(1, n))
    z = []
    for c in draw(st.permutations(group))[:d]:
        action = draw(st.sampled_from(["keep", "keep", "flip", "repeat", "any"]))
        if action == "flip":
            c = n - c
        elif action == "repeat" and z:
            c = draw(st.sampled_from(z))
        elif action == "any":
            c = draw(st.integers(1, n - 1))
        z.append(c)
    return tuple(z + [draw(st.sampled_from(group)) for _ in range(d - len(z))]), n


@given(_near_subgroup_vectors())
@settings(max_examples=300, deadline=None)
def test_is_subgroup_matches_the_set_definition(case):
    z, n = case
    assert _is_subgroup(z, n) == _is_subgroup_by_set(z, n)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 16])
def test_census_paths_across_blocks(monkeypatch, block):
    # a budget of 3 * ``block`` elements spreads the 16 cosets of (d=3,
    # n=97), the 3 of (d=6, n=37) and the 48 half-scan rows of (2, 25, 27)
    # over many blocks, often with a partial last block. The minimum key
    # recurs in later blocks: on two cosets of (6, 37) in l1, and at
    # k = 4, 43, 47 for (2, 25, 27); the smallest k must still win.
    vectors = (
        subgroup_generating_vector(3, 97),
        subgroup_generating_vector(6, 37),
        GeneratingVector([2, 25, 27], 97),
    )
    oracles = {(v, norm): _full_scan(v, norm) for v in vectors for norm in ("l1", "l2")}
    monkeypatch.setattr("lattice_forge.metrics._BLOCK", 3 * block)
    for (v, norm), oracle in oracles.items():
        assert _fields(lattice_min_distance(v, norm)) == _fields(oracle)


@st.composite
def _any_vectors(draw):
    n = draw(st.sampled_from([2, 3, 5, 7, 13, 29, 61, 101, 127, 211]))
    d = draw(st.integers(1, 8))
    return GeneratingVector(draw(st.lists(st.integers(1, n - 1), min_size=d, max_size=d)), n)


@given(_any_vectors(), st.sampled_from(["l1", "l2"]))
@settings(max_examples=150, deadline=None)
def test_half_scan_equals_full_scan(vec, norm):
    assert _fields(lattice_min_distance(vec, norm)) == _fields(_full_scan(vec, norm))


def test_census_refuses_int64_overflow_before_scanning(no_numpy):
    # without the guard these censuses would scan billions of points
    no_numpy("lattice_forge.metrics")
    # l2 keys: 50 * ((2**31 - 2) // 2)**2 ~ 5.8e19 > 2**63 - 1, while k * z fits
    with pytest.raises(SizeLimitError, match="l2 keys"):
        lattice_min_distance(GeneratingVector(tuple(range(1, 51)), 2**31 - 1), "l2")
    # k * z: the first prime n with (n - 1)**2 >= 2**63, even at d = 1
    n = math.isqrt(2**63 - 1) + 2
    while not is_prime(n):
        n += 1
    assert (n - 1) ** 2 > 2**63 - 1 >= (math.isqrt(2**63 - 1)) ** 2
    for norm in ("l1", "l2"):
        with pytest.raises(SizeLimitError, match="k \\* z"):
            lattice_min_distance(GeneratingVector((1,), n), norm)


def test_census_accepts_sizes_just_below_int64_limits(no_numpy, prime_at_most, monkeypatch):
    # the largest primes under each threshold pass the guard and start
    # scanning; physical memory is stubbed high so that the census's byte
    # guard, which would refuse these sizes on a smaller machine, lets them by
    no_numpy("lattice_forge.metrics")
    monkeypatch.setattr(exceptions, "_physical_memory", lambda: 2**80)
    n_l2 = prime_at_most(2 * math.isqrt((2**63 - 1) // 50) + 1)
    assert 50 * ((n_l2 - 1) // 2) ** 2 <= 2**63 - 1
    n_kz = prime_at_most(math.isqrt(2**63 - 1) + 1)
    assert (n_kz - 1) ** 2 <= 2**63 - 1
    for z, norm in (
        (GeneratingVector(tuple(range(1, 51)), n_l2), "l2"),
        (GeneratingVector((1,), n_kz), "l1"),
        (GeneratingVector((1,), n_kz), "l2"),
    ):
        with pytest.raises(AssertionError, match="scan started"):
            lattice_min_distance(z, norm)


def test_census_memory_guard_threshold(no_numpy, guard_threshold, monkeypatch):
    # 72 bytes per coset or scanned k, plus 64 MiB of block scratch; the
    # int64 guards pass at these sizes and run first. The subgroup test,
    # which sorts its d-entry residues with numpy, runs before this guard,
    # so numpy is blocked only once it has answered.
    subgroup_test = metrics._is_subgroup

    def then_block_numpy(z, n):
        monkeypatch.setattr(metrics, "np", np)
        answer = subgroup_test(z, n)
        no_numpy("lattice_forge.metrics")
        return answer

    monkeypatch.setattr(metrics, "_is_subgroup", then_block_numpy)
    n = 3037000493  # prime, below the k * z limit, with 4 | n - 1
    for vec, rows in (
        (subgroup_generating_vector(2, n), (n - 1) // 4),  # cosets
        (GeneratingVector((1,), n), (n - 1) // 2),  # cosets of {+-1}
        (GeneratingVector((2, 3, 5), n), (n - 1) // 2),  # scanned k
    ):
        for norm in ("l1", "l2"):
            guard_threshold(lambda: lattice_min_distance(vec, norm), 72 * rows + 2**26,
                            f"census for d={vec.d}, n={n} needs ")


class _Components:
    """d components; iterating them stands for the census starting work."""

    def __init__(self, d):
        self.d = d

    def __len__(self):
        return self.d

    def __iter__(self):
        raise AssertionError("the scan started")


def test_census_component_guard_threshold(no_numpy, guard_threshold):
    # 32 bytes per component: the subgroup test's int64 z_j and n - z_j,
    # then both together sorted, checked before it converts z
    n = 3037000493
    d = (n - 1) // 2  # 2d | n - 1, so the subgroup test goes on to sort
    vec = object.__new__(GeneratingVector)
    for name, value in (("z", _Components(d)), ("n", n), ("method", "explicit")):
        object.__setattr__(vec, name, value)
    no_numpy("lattice_forge.metrics")
    guard_threshold(lambda: lattice_min_distance(vec, "l1"), 32 * d,
                    f"census for d={d}, n={n} needs 45.3 GiB")


def test_census_entries_are_python_numbers():
    # census, multiplicities and the minimum print as plain ints and floats,
    # never as numpy scalars
    for vec in (subgroup_generating_vector(3, 13), GeneratingVector([2, 25, 27], 97)):
        for norm in ("l1", "l2"):
            rep = lattice_min_distance(vec, norm)
            assert all(type(dist) is float and type(c) is int for dist, c in rep.census)
            ints = (*rep.multiplicities(), rep.min_key, rep.distinct_count, rep.argmin_k)
            assert {type(x) for x in ints} == {int} and type(rep.min_distance) is float


# ---------------------------------------------------------------------------
# bounds and the equidistant optimum
# ---------------------------------------------------------------------------


def test_bounds_examples():
    b = min_distance_bounds(50, 101)
    assert b.l1_upper == pytest.approx(5100 / 404, abs=1e-15)
    assert b.l2_upper == pytest.approx(math.sqrt(5100 / 1212), abs=1e-15)
    # at n = 2d + 1 the sandwich pinches: lower == upper
    assert b.l1_lower == pytest.approx(b.l1_upper, abs=1e-12)
    assert b.l2_lower == pytest.approx(b.l2_upper, abs=1e-12)


def test_bounds_are_a_sandwich_for_subgroup_vectors():
    for d, n in [(2, 13), (3, 13), (5, 31), (8, 97), (50, 401)]:
        b = min_distance_bounds(d, n)
        r1 = lattice_min_distance(subgroup_generating_vector(d, n), "l1")
        r2 = lattice_min_distance(subgroup_generating_vector(d, n), "l2")
        assert b.l1_lower - 1e-12 <= r1.min_distance <= b.l1_upper + 1e-12
        assert b.l2_lower - 1e-12 <= r2.min_distance <= b.l2_upper + 1e-12


def test_bounds_validation():
    with pytest.raises(DomainError):
        min_distance_bounds(2, 9)
    with pytest.raises(AdmissibilityError):
        min_distance_bounds(3, 5)


def test_lower_bound_needs_sign_distinct_components():
    # Distinct components are not enough for the lower bound: z_i = n - z_j
    # collapses two coordinates onto one wrapped magnitude.  This vector
    # (pairs {1,28}, {4,25}, {7,22} mod 29) dips below d(d+1)/(2n), while
    # the upper bound still holds — exactly the regime the docstring of
    # min_distance_bounds describes.
    z = (1, 2, 4, 7, 10, 11, 22, 24, 25, 26, 28)
    d, n = len(z), 29
    assert len(set(z)) == d  # distinct, yet sign-paired
    rep = lattice_min_distance(GeneratingVector(list(z), n), "l1")
    b = min_distance_bounds(d, n)
    assert rep.min_distance < b.l1_lower
    assert rep.min_distance <= b.l1_upper + 1e-12
    # restoring sign-distinctness restores the sandwich
    sign_distinct = (1, 2, 26, 4, 24, 6, 7, 21, 9, 19, 11)
    assert len({min(c, n - c) for c in sign_distinct}) == d
    rep2 = lattice_min_distance(GeneratingVector(list(sign_distinct), n), "l1")
    assert b.l1_lower <= rep2.min_distance <= b.l1_upper + 1e-12


def test_optimal_distances_examples():
    opt = optimal_distances(2)
    assert opt.l1 == pytest.approx(0.6, abs=1e-15)
    assert opt.l2 == pytest.approx(math.sqrt(6 * 2 / 60), abs=1e-15)
    opt50 = optimal_distances(50)
    assert opt50.l1 == pytest.approx(12.624, abs=1e-3)
    assert opt50.l2 == pytest.approx(2.0513, abs=1e-4)


def test_optimal_distances_rejects_composite_2d_plus_1():
    with pytest.raises(AdmissibilityError):
        optimal_distances(4)  # 9 composite
    with pytest.raises(AdmissibilityError):
        optimal_distances(7)  # 15 composite


# ---------------------------------------------------------------------------
# brute force guard rails
# ---------------------------------------------------------------------------


def test_brute_force_duplicate_points_and_cap():
    pts = np.array([[0.25, 0.75], [0.25, 0.75], [0.5, 0.5]])
    assert brute_force_min_distance(pts, "l1") == 0.0
    with pytest.raises(SizeLimitError):
        brute_force_min_distance(np.zeros((10_001, 2)), "l1")
    with pytest.raises(DomainError):
        brute_force_min_distance(np.zeros((1, 2)), "l1")


def test_brute_force_blocking_seam():
    # point count above one block so the cross-block pair path runs
    rng = np.random.default_rng(3)
    pts = rng.random((700, 9))
    best = brute_force_min_distance(pts, "l2")
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    wrap = np.minimum(diff, 1.0 - diff)
    dist = np.sqrt((wrap**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    assert best == pytest.approx(float(dist.min()), abs=1e-14)
