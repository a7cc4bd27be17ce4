"""From a Bernstein function's integral representation to a variogram.

A Bernstein function f(x) = drift * x + integral (1 - e^{-xt}) m(t) dt with
Levy density m(t) = mu[t, inf) induces the variogram
gamma(xi) = drift * xi^2 + integral (1 - cos(s xi)) mu(ds)
          = drift * xi^2 + xi integral sin(s xi) m(s) ds = -Re(i xi f(i xi)).
A spectral variogram's carrier is either a catalog atom, evaluated through
its complex continuation, or a LevyTriple of drift and density, evaluated by
quadrature over m. The demo compares the two routes on the same triple: the
atom, and the triple the catalog states for it.
"""

import numpy as np

import variobern as vb

print("Levy data carried by catalogued atoms")
for name, params in [("log1p", {}), ("exp_one_minus", {"a": 1.0}),
                     ("power", {"a": 1.0})]:
    expr = vb.catalog(name, params)
    triple = expr.levy
    kind = ("density" if triple.density is not None else
            "atoms" if triple.atoms else "pure drift")
    print(f"  {name:15s} drift {triple.drift:g}  const {triple.constant:g}  "
          f"measure: {kind}")

print()
print("gamma from f(x) = log(1 + x) equals xi * arctan(xi)")
sv = vb.spectral_variogram(vb.catalog("log1p"))
xs = np.array([0.25, 1.0, 2.5, 10.0])
table = np.column_stack([xs, sv(xs[:, None]), xs * np.arctan(xs)])
print("      xi   continuation    closed form")
for row in table:
    print(f"  {row[0]:6.2f}  {row[1]:12.9f}  {row[2]:12.9f}")
print(f"  gamma(1) = {float(sv(np.array([[1.0]]))[0]):.12f}  "
      f"(pi/4 = {np.pi / 4:.12f})")

print()
print("pure drift: f(x) = x gives gamma(xi) = xi^2")
drift_v = vb.spectral_variogram(vb.catalog("power", {"a": 1.0}))
print(f"  gamma at 0.5, 1, 3: {np.round(drift_v(np.array([[0.5], [1.0], [3.0]])), 12)}")

print()
print("quadrature over m against the continuation, on the same Levy triple")
for name, params in [("log1p", {}), ("frac_linear", {"lam": 2.0}),
                     ("power", {"a": 0.5})]:
    expr = vb.catalog(name, params)
    # the atom's triple as a free-standing carrier has no continuation
    quad = vb.spectral_variogram(expr.levy)
    xi = np.linspace(0.5, 8.0, 7)
    ref = vb.spectral_reference(expr, xi)
    gap = np.abs(quad(xi[:, None]) - ref).max()
    print(f"  {vb.describe(expr):25s} max |quadrature - complex| = {gap:.2e}")

print()
print("the result is a first-class model: certified and JSON round-trippable")
print(f"  certificate: {sv.certificate}")
pts = vb.sample_point_sets(1, 8, 1, seed=6, box=10.0)[0]
print(f"  cnd_check on 8 seeded points: {vb.cnd_check(sv, pts).verdict}")
payload = vb.model_to_json(sv)
back = vb.model_from_json(payload)
print(f"  round trip gamma(2.5) = {float(back(np.array([[2.5]]))[0]):.9f}")
