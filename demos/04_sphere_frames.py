"""
Evenly spread points on a sphere from a lattice subgroup
========================================================

Turn a multiplicative subgroup mod n into 2n unit vectors on the sphere
S^(2m-1) and measure how evenly they spread via mutual coherence: the
largest |<v_i, v_j>| between distinct vectors, smaller is better.
"""

import numpy as np

from lattice_forge import (
    asymptotic_coherence_bound,
    mutual_coherence,
    sphere_frame,
)

# The index set is the order-m subgroup of the nonzero residues mod n
# (m must divide n - 1, n prime); the frame lists it on its first read.
lam = sphere_frame(25, 101).index_set
print(f"m=25, n=101, subgroup: {lam[:8]} ... ({len(lam)} elements)")

# Each residue contributes one frequency; stacking cosine and sine blocks
# gives a 2m x 2n frame of exactly unit-norm columns.
frame = sphere_frame(25, 101)
V = frame.V
print(f"frame: {V.shape[0]} ambient dims, {V.shape[1]} sphere points, "
      f"column norms all 1: {np.allclose(np.linalg.norm(V, axis=0), 1.0)}")

# Coherence via the character-sum shortcut (n - 1 cos/sin values and m(n - 1)
# adds, O(nm), instead of an O(n^2 m) dense Gram matrix), then the certified
# bound sqrt(n)/m.
rep = mutual_coherence(frame)
print(f"\nmu = {rep.mu:.6f}")
print(f"sqrt(n)/m bound = {rep.bound:.6f}, holds: {rep.bound_holds}")

# Reference: 2n random Gaussian directions on the same sphere are noticeably
# more clumped.
rng = np.random.default_rng(1)
G = rng.standard_normal((frame.ambient_dim, frame.n_vectors))
G /= np.linalg.norm(G, axis=0)
gram = np.abs(G.T @ G)
np.fill_diagonal(gram, 0.0)
print(f"random directions: mu = {gram.max():.6f}")

# An asymptotic growth bound m^(-1/2) n^(1/6) (ln m)^(1/6) applies once
# m^3 <= n^2; at (25, 101) it does not, and the report says so.
growth = asymptotic_coherence_bound(25, 101)
print(f"\ngrowth bound value {growth.value:.5f}, applicable: {growth.applicable}")

# Sweep a column of admissible (m, n): coherence falls roughly like the
# bound as the subgroup grows.
print(f"\n{'m':>4} {'n':>6} {'mu':>10} {'sqrt(n)/m':>10}")
for m, n in ((5, 11), (10, 31), (25, 101), (50, 101), (111, 223)):
    r = mutual_coherence(sphere_frame(m, n))
    print(f"{m:>4} {n:>6} {r.mu:>10.5f} {r.bound:>10.5f}")
