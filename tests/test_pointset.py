"""Point materialization, random shifts, and CSV round trips."""

import io

import numpy as np
import pytest

from lattice_forge.exceptions import DomainError, SizeLimitError
from lattice_forge.lattice import GeneratingVector, subgroup_generating_vector
from lattice_forge.metrics import brute_force_min_distance
from lattice_forge.numtheory import is_prime
from lattice_forge.pointset import (
    generate,
    load_csv,
    mc_points,
    random_shift,
    save_csv,
    shift_by,
)


def test_generate_rows_are_exact_rationals():
    vec = GeneratingVector([1, 2], 5)
    ps = generate(vec)
    assert ps.points.shape == (5, 2)
    for i in range(5):
        for j, zj in enumerate(vec.z):
            assert ps.points[i, j] == ((i * zj) % 5) / 5
    np.testing.assert_allclose(ps.points[1], [0.2, 0.4], atol=0)
    assert ps.source is vec
    assert ps.shift is None


def test_generate_first_row_is_origin():
    ps = generate(subgroup_generating_vector(3, 13))
    assert (ps.points[0] == 0.0).all()
    assert ps.points.min() >= 0.0
    assert ps.points.max() < 1.0


def test_generate_refuses_int64_overflow_before_allocating(no_numpy):
    # i * z_j wraps in int64 once (n - 1)**2 > 2**63 - 1, from n = 3037000501
    no_numpy("lattice_forge.pointset")
    with pytest.raises(SizeLimitError, match="i \\* z"):
        generate(GeneratingVector((1,), 3037000507))
    # the largest prime below the threshold passes the guard and starts work
    n = 3037000500
    while not is_prime(n):
        n -= 1
    with pytest.raises(AssertionError, match="scan started"):
        generate(GeneratingVector((1,), n))


def test_shift_by_zero_is_identity():
    ps = generate(GeneratingVector([1, 3], 7))
    shifted = shift_by(ps, np.zeros(2))
    np.testing.assert_array_equal(shifted.points, ps.points)


def test_shift_by_wraps():
    ps = generate(GeneratingVector([1], 2))  # points {0, 0.5}
    shifted = shift_by(ps, np.array([0.75]))
    np.testing.assert_allclose(shifted.points.ravel(), [0.75, 0.25], atol=1e-15)


def test_shift_by_validation():
    ps = generate(GeneratingVector([1, 3], 7))
    with pytest.raises(DomainError):
        shift_by(ps, np.array([0.5]))  # wrong shape
    with pytest.raises(DomainError):
        shift_by(ps, np.array([0.5, 1.0]))  # 1.0 not allowed


def test_random_shift_seeded_and_in_range():
    ps = generate(subgroup_generating_vector(5, 31))
    a = random_shift(ps, 42)
    b = random_shift(ps, 42)
    c = random_shift(ps, 43)
    np.testing.assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.points.min() >= 0.0 and a.points.max() < 1.0
    assert a.seed == 42
    np.testing.assert_array_equal(a.shift, np.random.default_rng(42).random(5))


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
    assert ps.source == "monte_carlo"
    assert ps.points.shape == (100_000, 2)
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
