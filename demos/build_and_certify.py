"""Build variograms from catalogued profiles and certify them numerically.

Walks the basic loop: pick a profile expression, inspect the cone tags it
carries, wrap it into a d-dimensional model, and confirm permissibility on
a seeded point set. Ends with a construction that carries no certificate
and genuinely fails, witness included.
"""

import numpy as np

import variobern as vb


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("catalogued profiles and their cone tags")
for name, params in [
    ("power", {"a": 0.5}),
    ("log1p", {}),
    ("dagum", {"rho": 0.5, "gamma": 0.5}),
    ("matern", {"alpha": 1.0, "nu": 0.5}),
    ("one_minus_cos", {}),
]:
    expr = vb.catalog(name, params)
    tags = sorted(vb.infer_class(expr)) or ["(none)"]
    print(f"  {vb.describe(expr):42s} tags: {', '.join(tags)}")

show("a certified model: gamma(xi) = (x^rho / (1 + x^rho))^g at x = |xi|^2")
v = vb.make_variogram(vb.catalog("dagum", {"rho": 0.5, "gamma": 0.5}), d=2)
print(f"  certified: {v.certified}   mode: {v.mode}   d: {v.d}")
print(f"  certificate: {v.certificate}")
pts = vb.sample_point_sets(1, 10, 2, seed=42, box=8.0)[0]
rep = vb.variogram_axioms(v, pts)
print(f"  axioms on 10 seeded points: {rep.verdict}")
for rec in rep.checks:
    print(f"    {rec.name:10s} {rec.verdict:5s} statistic {rec.statistic:.3e}")

show("anisotropy: gamma(xi) = f(|A xi|^2)")
va = vb.make_variogram(vb.catalog("power", {"a": 0.5}), d=2,
                       A=np.array([[2.0, 0.0], [0.0, 1.0]]))
lags = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
print(f"  gamma at e1, e2, e1+e2: {np.round(va(lags), 6)}")
print("  (the first axis is stretched by 2, so gamma(e1) = 2 gamma(e2))")

show("an uncertified product that really is not a variogram")
e1 = vb.catalog("exp_one_minus", {"a": 1.0})
bad = vb.make_variogram(vb.fprod(e1, e1), d=1)
print(f"  gamma(xi) = (1 - exp(-|xi|^2))^2   certified: {bad.certified}")
ps = vb.sample_point_sets(1, 12, 1, seed=0, box=10.0)[0]
rep = vb.cnd_check(bad, ps)
rec = rep.record("cnd")
print(f"  cnd on 12 seeded points: {rep.verdict} "
      f"(relative eigenvalue {rec.statistic:.3f})")
a = np.asarray(rec.witness["contrast"])
print(f"  witness contrast sums to {a.sum():.1e} and gives "
      f"a' G a = {rec.witness['quadratic_form']:.4f} > 0")

show("the same rates through the certified route")
good = vb.ma_product(1.0, 1.0, d=1)
print(f"  gamma(xi) = (1 - exp(-|xi|))^2     certified: {good.certified}")
print(f"  cnd on the same points: {vb.cnd_check(good, ps).verdict}")
