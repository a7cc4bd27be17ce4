"""Ordinary kriging and conditional-free simulation on a small design.

Uses a compactly supported covariance so the sparse path has something to
exploit, checks the classical identities (exact interpolation with zero
kriging variance, unit weight sum, dense/sparse agreement), then closes the
loop: simulate replicates from an exponential model and recover its
variogram empirically.
"""

import numpy as np

import variobern as vb

rng = np.random.default_rng(314)

print("design: 25 sites in [0, 3]^2, compact-support covariance (range 1.4)")
cov = vb.wendland(1.4, 2, 2)
sites = vb.PointSet(rng.uniform(0.0, 3.0, (25, 2)),
                    rng.normal(0.0, 1.0, 25))
print(f"  support radius {cov.support_radius}  sill {cov.sill}")

gram_dense = vb.build_gamma_matrix(cov, sites, "dense")
gram_sparse = vb.build_gamma_matrix(cov, sites, "sparse")
frac = gram_sparse.nnz / sites.n ** 2
print(f"  stored entries in sparse mode: {gram_sparse.nnz} of "
      f"{sites.n ** 2} ({frac:.0%})")

print()
print("prediction at a fresh target")
target = np.array([1.5, 1.5])
dense = vb.ordinary_kriging(cov, sites, target, mode="dense")
sparse = vb.ordinary_kriging(cov, sites, target, mode="sparse")
print(f"  dense  prediction {dense.prediction:.8f}   "
      f"sum of weights {dense.weights.sum():.12f}   "
      f"variance {dense.variance:.6f}")
print(f"  sparse prediction {sparse.prediction:.8f}   "
      f"|dense - sparse| = {abs(dense.prediction - sparse.prediction):.2e}")

print()
print("exactness: predicting at a data site returns its value, variance 0")
picks = [0, 12, 24]
for j, res in zip(picks, vb.krige_many(cov, sites, sites.coords[picks])):
    print(f"  site {j:2d}: value {sites.values[j]:+.6f}   "
          f"prediction {res.prediction:+.6f}   variance {abs(res.variance):.1e}")

print()
print("variograms krige identically to their covariances")
gamma = vb.variogram_from_covariance(cov)
res_g = vb.ordinary_kriging(gamma, sites, target)
print(f"  max |weight gap| = "
      f"{np.abs(res_g.weights - dense.weights).max():.2e}")

print()
print("simulation round trip, exponential model on 5 collinear sites")
exp_cov = vb.exponential_covariance(0.3, d=1)
line = vb.PointSet(np.linspace(0.0, 6.0, 5)[:, None])
reps, info = vb.simulate_field(
    vb.SimulationSpec(exp_cov, line, seed=2026, n_replicates=20_000))
print(f"  replicates {reps.shape}  seed {info['seed']}  "
      f"diagonal shift {info['diag_shift']:.1e}")
model_gamma = vb.variogram_from_covariance(exp_cov)
# bins centered on the design's pair distances 1.5, 3.0, 4.5, 6.0
edges = np.arange(0.75, 7.0, 1.5)
print("  lag bin        pairs   empirical   model at center")
for lo, hi, count, gh in vb.empirical_variogram(reps, line, edges):
    mid = 0.5 * (lo + hi)
    want = float(model_gamma(np.array([[mid]]))[0])
    print(f"  [{lo:4.2f}, {hi:4.2f})  {count:5d}   {gh:9.4f}   {want:.4f}")
