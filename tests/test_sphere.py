"""Spherical frame tests.

The character-sum coherence (production path) is cross-checked against
the full pairwise Gram maximum (oracle) on a range of admissible pairs,
and the frame's structural identities (unit columns, orthogonal column
pairing, subgroup closure of the index set) are asserted directly.
"""

import io
import math

import numpy as np
import pytest

from lattice_forge.exceptions import AdmissibilityError, DomainError
from lattice_forge.numtheory import is_prime
from lattice_forge.pointset import load_csv, save_csv
from lattice_forge.sphere import (
    asymptotic_coherence_bound,
    mutual_coherence,
    sphere_frame,
    sphere_index_set,
)


def _admissible_mn(n_max, m_cap=None):
    out = []
    for n in range(3, n_max + 1):
        if not is_prime(n):
            continue
        for m in range(1, n):
            if (n - 1) % m == 0 and (m_cap is None or m <= m_cap):
                out.append((m, n))
    return out


# ---------------------------------------------------------------------------
# index set
# ---------------------------------------------------------------------------


def test_index_set_examples():
    assert set(sphere_index_set(2, 5)) == {1, 4}
    assert sphere_index_set(1, 7) == (1,)
    assert set(sphere_index_set(6, 7)) == {1, 2, 3, 4, 5, 6}


def test_index_set_is_multiplicative_subgroup():
    for m, n in [(2, 5), (3, 7), (4, 13), (5, 11), (25, 101)]:
        idx = set(sphere_index_set(m, n))
        assert len(idx) == m
        for a in idx:
            for b in idx:
                assert (a * b) % n in idx


def test_index_set_validation():
    with pytest.raises(AdmissibilityError, match="does not divide"):
        sphere_index_set(3, 5)
    with pytest.raises(DomainError):
        sphere_index_set(2, 9)
    with pytest.raises(DomainError):
        sphere_index_set(0, 5)


# ---------------------------------------------------------------------------
# frame structure
# ---------------------------------------------------------------------------


def test_frame_shape_and_unit_columns():
    frame = sphere_frame(3, 7)
    assert frame.V.shape == (6, 14)
    assert frame.ambient_dim == 6
    assert frame.n_vectors == 14
    np.testing.assert_allclose(np.linalg.norm(frame.V, axis=0), 1.0, atol=1e-12)


def test_frame_paired_columns_are_orthogonal():
    frame = sphere_frame(4, 13)
    V = frame.V
    for j in range(13):
        assert abs(V[:, j] @ V[:, j + 13]) < 1e-12


def test_coherence_example_m2_n5():
    rep = mutual_coherence(sphere_frame(2, 5))
    assert rep.mu == pytest.approx(abs(math.cos(4 * math.pi / 5)), abs=1e-12)
    assert rep.bound == pytest.approx(math.sqrt(5) / 2, abs=1e-15)
    assert rep.bound_holds


def test_character_sum_matches_pairwise_oracle():
    for m, n in [(1, 5), (2, 5), (3, 7), (2, 13), (4, 13), (5, 31), (10, 41), (25, 101)]:
        frame = sphere_frame(m, n)
        fast = mutual_coherence(frame, method="character_sum").mu
        slow = mutual_coherence(frame, method="pairwise").mu
        assert fast == pytest.approx(slow, abs=1e-10), (m, n)


def test_coherence_bound_holds_on_admissible_grid():
    for m, n in _admissible_mn(101):
        rep = mutual_coherence(sphere_frame(m, n))
        assert rep.mu <= rep.bound + 1e-12, (m, n)
        assert rep.bound_holds


def test_coherence_method_validation():
    with pytest.raises(DomainError):
        mutual_coherence(sphere_frame(2, 5), method="magic")


# ---------------------------------------------------------------------------
# asymptotic bound
# ---------------------------------------------------------------------------


def test_asymptotic_bound_values():
    b = asymptotic_coherence_bound(25, 101)
    assert b.value == pytest.approx(
        25 ** (-0.5) * 101 ** (1 / 6) * math.log(25) ** (1 / 6), rel=1e-12
    )
    assert b.value == pytest.approx(0.522, abs=5e-3)
    assert not b.applicable  # 25^3 > 101^2


def test_asymptotic_bound_edge_cases():
    assert asymptotic_coherence_bound(1, 3).value == 0.0
    assert asymptotic_coherence_bound(1, 3).applicable
    assert asymptotic_coherence_bound(4, 101).applicable  # 64 <= 10201
    with pytest.raises(DomainError):
        asymptotic_coherence_bound(0, 5)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_frame_csv_round_trip():
    frame = sphere_frame(2, 13)
    buf = io.StringIO()
    save_csv(frame.V, buf)
    buf.seek(0)
    back = load_csv(buf)
    np.testing.assert_array_equal(back, frame.V)
