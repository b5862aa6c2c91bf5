"""Spherical frame tests.

The frame and the coset-walk character sums are checked bit for bit
against the direct per-entry cos/sin formula, the character-sum
coherence (production path) is cross-checked against the full pairwise
Gram maximum (oracle) on a range of admissible pairs, and the frame's
structural identities (unit columns, orthogonal column pairing, subgroup
closure of the index set) are asserted directly.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest

from lattice_forge import exceptions, sphere
from lattice_forge.exceptions import AdmissibilityError, DomainError, SizeLimitError
from lattice_forge.numtheory import is_prime
from lattice_forge.pointset import load_csv, save_csv
from lattice_forge.sphere import (
    SphericalFrame,
    asymptotic_coherence_bound,
    mutual_coherence,
    sphere_frame,
)


def _admissible_mn(n_max, m_cap=None):
    out = []
    for n in range(2, n_max + 1):
        if not is_prime(n):
            continue
        for m in range(1, n):
            if (n - 1) % m == 0 and (m_cap is None or m <= m_cap):
                out.append((m, n))
    return out


def _benchmark_size_mn():
    # 20 pairs at the sizes the construct benchmark asks for: m 16-64,
    # n 1e3-1.4e4, the first prime n = 1 (mod m) at or above each start
    out = []
    for m in (16, 24, 32, 48, 64):
        for start in (1000, 4500, 9000, 13000):
            n = start + (1 - start) % m
            while not is_prime(n):
                n += m
            out.append((m, n))
    return out


def _direct_frame(m, n):
    lam = np.asarray(SphericalFrame(m, n).index_set, dtype=np.int64)
    j = np.arange(1, n + 1, dtype=np.int64)
    ang = 2.0 * np.pi * ((lam[:, None] * j[None, :]) % n) / n
    c, s = np.cos(ang), np.sin(ang)
    return np.block([[c, -s], [s, c]]) / math.sqrt(m)


def _direct_character_sum_mu(m, n):
    lam = np.asarray(SphericalFrame(m, n).index_set, dtype=np.int64)
    t = np.arange(1, n, dtype=np.int64)
    ang = 2.0 * np.pi * ((lam[:, None] * t[None, :]) % n) / n
    s_re = np.cos(ang).sum(axis=0)
    s_im = np.sin(ang).sum(axis=0)
    return max(float(np.abs(s_re).max()), float(np.abs(s_im).max())) / m


# ---------------------------------------------------------------------------
# index set
# ---------------------------------------------------------------------------


def test_index_set_examples():
    assert set(SphericalFrame(2, 5).index_set) == {1, 4}
    assert SphericalFrame(1, 7).index_set == (1,)
    assert set(SphericalFrame(6, 7).index_set) == {1, 2, 3, 4, 5, 6}


def test_index_set_is_multiplicative_subgroup():
    for m, n in [(2, 5), (3, 7), (4, 13), (5, 11), (25, 101)]:
        idx = set(SphericalFrame(m, n).index_set)
        assert len(idx) == m
        for a in idx:
            for b in idx:
                assert (a * b) % n in idx


def test_index_set_validation():
    with pytest.raises(AdmissibilityError, match="does not divide"):
        SphericalFrame(3, 5)
    with pytest.raises(DomainError):
        SphericalFrame(2, 9)
    with pytest.raises(DomainError):
        SphericalFrame(0, 5)


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


@pytest.mark.parametrize(
    "pairs", [_admissible_mn(399), _benchmark_size_mn()], ids=["n<400", "benchmark-size"]
)
def test_table_gather_matches_direct_formula_bit_for_bit(pairs):
    for m, n in pairs:
        frame = sphere_frame(m, n)
        assert frame.V.tobytes() == _direct_frame(m, n).tobytes(), (m, n)
        assert mutual_coherence(frame).mu == _direct_character_sum_mu(m, n), (m, n)


def test_coset_walk_across_blocks_matches_direct_formula_bit_for_bit(monkeypatch):
    # a block of 16 elements holds at most 16 // m cosets (one once m > 8),
    # so every frame with e = (n-1)/m > 16 // m walks several blocks
    monkeypatch.setattr(sphere, "_BLOCK", 16)
    pairs = [(m, n) for m, n in _admissible_mn(399) if (n - 1) // m > max(1, 16 // m)]
    assert len(pairs) > 500
    for m, n in pairs:
        assert mutual_coherence(sphere_frame(m, n)).mu == _direct_character_sum_mu(m, n), (m, n)


@pytest.mark.parametrize("m, n", [(2, 50021), (8, 50033), (24, 50329)])
def test_mid_size_coherence_matches_direct_formula_bit_for_bit(m, n):
    assert mutual_coherence(sphere_frame(m, n)).mu == _direct_character_sum_mu(m, n)


def test_coherence_memory_is_one_block():
    # (n - 1)/2 cosets of two elements: a length-n cos/sin table or a list
    # of the coset representatives would take 4 n bytes or more
    n = 2000003
    frame = sphere_frame(2, n)
    bound = 10 * 8 * sphere._BLOCK
    assert bound < 4 * n
    tracemalloc.start()
    try:
        mutual_coherence(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("m, n, error, match", [
    (5, 13, AdmissibilityError, r"^m does not divide n-1 \(m=5, n=13\)$"),
    (3, 21, AdmissibilityError, "m does not divide"),  # checked before primality
    (4, 21, DomainError, "^n must be prime, got 21$"),
    (4, 3100000061, SizeLimitError, "overflows int64"),  # 3100000060 * 3100000061 > 2**63 - 1
    (np.int64(4), np.int64(3100000061), SizeLimitError, "overflows int64"),  # checked on ints
], ids=["not-divisor", "not-divisor-composite", "composite", "int64", "int64-numpy"])
def test_frame_refuses_bad_arguments_before_any_work(first_work, m, n, error, match):
    first_work("lattice_forge.numtheory.primitive_root")
    with pytest.raises(error, match=match):
        SphericalFrame(m, n)


def test_coherence_bound_holds_on_admissible_grid():
    for m, n in _admissible_mn(101):
        rep = mutual_coherence(sphere_frame(m, n))
        assert rep.mu <= rep.bound + 1e-12, (m, n)
        assert rep.bound_holds


def test_coherence_method_validation():
    with pytest.raises(DomainError):
        mutual_coherence(sphere_frame(2, 5), method="magic")


# ---------------------------------------------------------------------------
# size guards: checked on both sides without allocating
# ---------------------------------------------------------------------------


def test_frame_memory_guard_threshold(no_numpy, first_work, guard_threshold):
    # the frame lists nothing and builds V on its first read, so the
    # accepted side returns a frame without computing a primitive root
    m, n = 64, 1000000321  # 64 | n - 1
    first_work("lattice_forge.numtheory.primitive_root")
    no_numpy("lattice_forge.sphere")
    frame = guard_threshold(lambda: sphere_frame(m, n),
                            8 * 5 * m * n,  # frame and its int64 residues
                            r"sphere frame for m=64, n=1000000321 needs 2384\.2 GiB", past=None)
    assert (frame.m, frame.n) == (m, n)


def test_frame_checks_every_size_before_building(no_numpy, first_work, guard_threshold):
    # the index set's guard, the int64 bound and the frame's guard all run
    # before anything is listed or built
    first_work("lattice_forge.numtheory.primitive_root")
    no_numpy("lattice_forge.sphere")
    guard_threshold(lambda: sphere_frame(2 * 10**9, 6000000001),
                    48 * 2 * 10**9,  # the index set of m = 2*10**9
                    "subgroup of order 2000000000 for n=6000000001 needs",
                    past=(SizeLimitError, "overflows int64"))
    # an index set that fits, of a frame that does not
    m, n = 10**8, 600000001
    frame = guard_threshold(lambda: sphere_frame(m, n), 8 * 5 * m * n,
                            "sphere frame for m=100000000, n=600000001 needs", past=None)
    assert (frame.m, frame.n) == (m, n)


def test_frame_int64_guard_threshold(no_numpy, first_work, prime_at_most, monkeypatch):
    # the largest prime with (n-1)*n < 2**63 passes; the next prime does not
    limit = 2**63 - 1
    n_ok = prime_at_most(math.isqrt(limit))
    n_bad = n_ok + 1
    while not is_prime(n_bad):
        n_bad += 1
    assert (n_ok - 1) * n_ok <= limit < (n_bad - 1) ** 2
    first_work("lattice_forge.numtheory.primitive_root")
    no_numpy("lattice_forge.sphere")
    monkeypatch.setattr(exceptions, "_physical_memory", lambda: 2**80)
    with pytest.raises(SizeLimitError, match="overflows int64"):
        sphere_frame(1, n_bad)
    assert sphere_frame(1, n_ok).n == n_ok


def test_pairwise_memory_guard_threshold(no_numpy, guard_threshold):
    frame = sphere_frame(2, 5)
    no_numpy("lattice_forge.sphere")
    guard_threshold(lambda: mutual_coherence(frame, method="pairwise"),
                    2 * 8 * (2 * 5) ** 2,  # the Gram and its absolute value
                    "pairwise Gram for n=5 needs")


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
