"""
Kernel approximation with lattice-driven random features
========================================================

Approximate a Gaussian Gram matrix with random Fourier features whose
frequencies come either from a shifted lattice or from i.i.d. sampling,
and measure the relative Frobenius error of the reconstruction.
"""

import numpy as np

from lattice_forge import (
    KernelSpec,
    exact_gram,
    feature_map,
    find_admissible_n,
    generate,
    gram_errors,
    mc_points,
    random_shift,
    subgroup_generating_vector,
    synthetic_data,
)

# 500 points from a seeded Gaussian mixture in 8 dimensions.
data = synthetic_data(500, 8, seed=42)
spec = KernelSpec("gaussian", sigma=15.0)
K = exact_gram(data, spec)
print(f"data {data.shape}, exact Gram {K.shape}, K[0, :4] = {K[0, :4].round(4)}")

# Frequencies are built by pushing lattice points through the inverse normal
# CDF; each lattice point becomes one cos/sin feature pair. The shift keeps
# the point set away from the origin row (u = 0 has no Gaussian preimage).
n = find_admissible_n(8, 1, start=400)[0]
pts = random_shift(generate(subgroup_generating_vector(8, n)), seed=7)
feats = feature_map(data, pts, spec)
err = gram_errors(K, feats @ feats.T)
print(f"\nlattice features: n={n}, feature dim {feats.shape[1]}, "
      f"rel Frobenius error {err.rel_frobenius:.4f}")

# Same feature count, i.i.d. frequencies.
feats_mc = feature_map(data, mc_points(n, 8, seed=7), spec)
err_mc = gram_errors(K, feats_mc @ feats_mc.T)
print(f"mc features:      n={n}, feature dim {feats_mc.shape[1]}, "
      f"rel Frobenius error {err_mc.rel_frobenius:.4f}")

# Average over several shifts/samples -- the lattice grid covers the
# frequency space more evenly, which shows up as a consistently lower error.
runs = 10
lat, rnd = [], []
rng = np.random.default_rng(0)
for _ in range(runs):
    s1, s2 = rng.integers(0, 2**63 - 1, size=2)
    p = random_shift(generate(subgroup_generating_vector(8, n)), seed=int(s1))
    f = feature_map(data, p, spec)
    lat.append(gram_errors(K, f @ f.T).rel_frobenius)
    f = feature_map(data, mc_points(n, 8, seed=int(s2)), spec)
    rnd.append(gram_errors(K, f @ f.T).rel_frobenius)

print(f"\nover {runs} runs: lattice median {np.median(lat):.4f}, "
      f"mc median {np.median(rnd):.4f}")
