"""Numerical permissibility oracles on finite point sets and grids.

Every check reduces to finite linear algebra or finite differencing:

* conditional negative definiteness is tested by eigen-decomposing the
  restriction of the kernel matrix to the zero-sum contrast subspace,
  using an explicit orthonormal contrast basis so that failures come with
  a reusable witness contrast;
* complete monotonicity and the Bernstein property are tested through the
  alternating signs of Newton divided differences, never through symbolic
  derivatives, so tabulated kernels work too;
* the structural checks (shape, subadditivity, periodicity, eventual
  constancy) are grid programs over the same tolerance conventions.

All tolerances are relative to an explicit scale and echoed in the report,
so multiplying a kernel by a positive constant never flips a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ParameterError, VarioBernError
from .points import PointSet

__all__ = [
    "CheckRecord",
    "PermissibilityReport",
    "contrast_basis",
    "kernel_matrix",
    "cnd_check",
    "pd_check",
    "variogram_axioms",
    "cm_check",
    "bernstein_check",
    "polya_check",
    "profile_shape_check",
    "sqrt_subadditivity_check",
    "detect_period",
    "eventual_constancy_check",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CheckRecord:
    """One atomic verdict: a named statistic against a tolerance."""

    name: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    statistic: float
    tolerance: float
    witness: dict | None = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "witness": self.witness,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class PermissibilityReport:
    """A bundle of check records plus the configuration that produced them."""

    checks: tuple[CheckRecord, ...]
    config: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        verdicts = {c.verdict for c in self.checks}
        if "fail" in verdicts:
            return "fail"
        if "inconclusive" in verdicts:
            return "inconclusive"
        return "pass"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def record(self, name: str) -> CheckRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "config": self.config,
            "checks": [c.to_json() for c in self.checks],
        }


def _inconclusive(name: str, tol: float, exc: Exception) -> CheckRecord:
    return CheckRecord(name, "inconclusive", float("nan"), tol,
                       detail=f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# kernel-matrix machinery

def kernel_matrix(kernel, pts: PointSet) -> np.ndarray:
    """K[i, j] = kernel(x_i - x_j); kernel maps (..., d) lag arrays."""
    vals = np.asarray(kernel(pts.lags()), dtype=float)
    if vals.shape != (pts.n, pts.n):
        raise ParameterError(
            f"kernel returned shape {vals.shape}, expected {(pts.n, pts.n)}"
        )
    if not np.all(np.isfinite(vals)):
        i, j = np.argwhere(~np.isfinite(vals))[0]
        raise VarioBernError(
            f"kernel evaluation non-finite at lag {pts.coords[i] - pts.coords[j]}"
        )
    return vals


def contrast_basis(n: int) -> np.ndarray:
    """Orthonormal (n, n-1) basis of the zero-sum contrast subspace."""
    if n < 2:
        raise ParameterError("contrast subspace needs n >= 2 points")
    cols = np.zeros((n, n - 1))
    cols[:-1, :] = np.eye(n - 1)
    cols[-1, :] = -1.0
    q, _ = np.linalg.qr(cols)
    return q


def cnd_check(gamma, pts: PointSet, tol: float = 1e-8) -> PermissibilityReport:
    """Conditional negative definiteness of gamma on the given sites.

    Builds G[i,j] = gamma(x_i - x_j), restricts its symmetric part to the
    contrast subspace {sum a = 0} and passes iff the largest eigenvalue of
    the restriction is <= tol * max(1, max|G|). A failure carries the
    offending contrast a (with sum a = 0) and its quadratic form a' G a.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    config = {"check": "cnd", "tol": tol, "n": pts.n, "d": pts.d}
    try:
        g = kernel_matrix(gamma, pts)
    except VarioBernError as exc:
        return PermissibilityReport((_inconclusive("cnd", tol, exc),), config)
    return PermissibilityReport((_cnd_record(g, tol),), config)


def _cnd_record(g: np.ndarray, tol: float) -> CheckRecord:
    sym = 0.5 * (g + g.T)
    scale = max(1.0, float(np.abs(g).max()))
    b = contrast_basis(g.shape[0])
    reduced = b.T @ sym @ b
    reduced = 0.5 * (reduced + reduced.T)
    w, v = np.linalg.eigh(reduced)
    lam = float(w[-1])
    ok = lam <= tol * scale
    witness = None
    if not ok:
        a = b @ v[:, -1]
        a = a - a.mean()  # enforce the zero-sum constraint exactly
        witness = {
            "contrast": a.tolist(),
            "quadratic_form": float(a @ sym @ a),
            "eigenvalue": lam,
            "scale": scale,
        }
    return CheckRecord("cnd", "pass" if ok else "fail", lam / scale, tol, witness)


def pd_check(cov, pts: PointSet, tol: float = 1e-8) -> PermissibilityReport:
    """Positive definiteness (PSD up to tolerance) of cov on the sites."""
    if tol <= 0:
        raise ParameterError("tol must be positive")
    config = {"check": "pd", "tol": tol, "n": pts.n, "d": pts.d}
    try:
        c = kernel_matrix(cov, pts)
    except VarioBernError as exc:
        return PermissibilityReport((_inconclusive("pd", tol, exc),), config)
    sym = 0.5 * (c + c.T)
    scale = max(1.0, float(np.abs(c).max()))
    w, v = np.linalg.eigh(sym)
    lam = float(w[0])
    ok = lam >= -tol * scale
    witness = None
    if not ok:
        a = v[:, 0]
        witness = {
            "weights": a.tolist(),
            "quadratic_form": float(a @ sym @ a),
            "eigenvalue": lam,
            "scale": scale,
        }
    rec = CheckRecord("pd", "pass" if ok else "fail", lam / scale, tol, witness)
    return PermissibilityReport((rec,), config)


def variogram_axioms(gamma, pts: PointSet, tol: float = 1e-8) -> PermissibilityReport:
    """gamma(0) >= 0, evenness on the pairwise lags, and the CND check.

    The lag set is closed under negation and x_j - x_i = -(x_i - x_j)
    exactly, so gamma(-lag) is read off the transpose of the one kernel
    matrix that the CND check uses as well.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    config = {"check": "variogram_axioms", "tol": tol, "n": pts.n, "d": pts.d}
    records: list[CheckRecord] = []
    try:
        origin = float(np.asarray(gamma(np.zeros((1, pts.d))))[0])
        records.append(CheckRecord(
            "origin", "pass" if origin >= -tol else "fail", origin, tol,
            None if origin >= -tol else {"value": origin},
        ))
        g = kernel_matrix(gamma, pts)
    except VarioBernError as exc:
        records.append(_inconclusive("axioms", tol, exc))
        records.append(_inconclusive("cnd", tol, exc))
        return PermissibilityReport(tuple(records), config)
    odd = np.abs(g - g.T)
    scale = max(1.0, float(np.abs(g).max()))
    i, j = np.unravel_index(int(odd.argmax()), odd.shape)
    gap = float(odd[i, j])
    lag = pts.coords[i] - pts.coords[j]
    records.append(CheckRecord(
        "evenness", "pass" if gap <= tol * scale else "fail", gap / scale, tol,
        None if gap <= tol * scale else {"lag": lag.tolist(), "gap": gap},
    ))
    records.append(_cnd_record(g, tol))
    return PermissibilityReport(tuple(records), config)


# ----------------------------------------------------------------------
# divided-difference oracles

def _as_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):
        raise ParameterError("grid must be a strictly increasing 1-D array")
    return g


def _divided_difference_records(prefix: str, values: np.ndarray, grid: np.ndarray,
                                max_order: int, tol: float) -> list[CheckRecord]:
    """Records asserting (-1)^k * (k-th divided difference) >= 0, k <= max_order.

    Divided differences of high order are ill conditioned where the grid is
    dense, so a first-order bound on the propagated input roundoff is carried
    through the recursion and added to the allowance: a sign violation only
    counts where it exceeds what roundoff alone could produce.
    """
    records = []
    dd = values.astype(float)
    err = _EPS * np.abs(dd) + 1e-300
    for k in range(max_order + 1):
        if k > 0:
            denom = grid[k:] - grid[:-k]
            dd = (dd[1:] - dd[:-1]) / denom
            err = (err[1:] + err[:-1]) / denom
        signed = (-1.0) ** k * dd
        reliable = np.abs(dd) > 10.0 * err
        if reliable.any():
            scale = float(np.abs(dd[reliable]).max())
        else:
            scale = float(np.abs(dd).max())
        scale = max(scale, 1e-300)
        margin = signed + tol * scale + err
        i = int(np.argmin(margin))
        ok = margin[i] >= 0.0
        witness = None if ok else {
            "order": k, "x": float(grid[i]), "value": float(dd[i]),
        }
        records.append(CheckRecord(
            f"{prefix}order_{k}", "pass" if ok else "fail",
            float(signed[i] / scale), tol, witness,
        ))
    return records


def cm_check(f, grid, max_order: int = 8, tol: float = 1e-9) -> PermissibilityReport:
    """Alternating divided-difference test for complete monotonicity.

    Checks (-1)^k D^k f >= -tol * scale_k for Newton divided differences of
    orders 0..max_order on the grid, with a per-order relative scale.
    """
    g = _as_grid(grid)
    if np.any(g <= 0):
        raise ParameterError("cm_check grid must be strictly positive")
    if not 1 <= max_order < g.size:
        raise ParameterError("need 1 <= max_order < len(grid)")
    config = {"check": "cm", "tol": tol, "max_order": max_order,
              "grid": [float(g[0]), float(g[-1]), int(g.size)]}
    try:
        vals = np.asarray(f(g), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise VarioBernError("non-finite values on the grid")
    except VarioBernError as exc:
        return PermissibilityReport((_inconclusive("cm", tol, exc),), config)
    recs = _divided_difference_records("cm_", vals, g, max_order, tol)
    return PermissibilityReport(tuple(recs), config)


def bernstein_check(f, grid, max_order: int = 6, tol: float = 1e-9) -> PermissibilityReport:
    """f >= 0 plus complete monotonicity of the first difference quotients."""
    g = _as_grid(grid)
    if np.any(g <= 0):
        raise ParameterError("bernstein_check grid must be strictly positive")
    if not 1 <= max_order < g.size - 1:
        raise ParameterError("need 1 <= max_order < len(grid) - 1")
    config = {"check": "bernstein", "tol": tol, "max_order": max_order,
              "grid": [float(g[0]), float(g[-1]), int(g.size)]}
    try:
        vals = np.asarray(f(g), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise VarioBernError("non-finite values on the grid")
    except VarioBernError as exc:
        return PermissibilityReport((_inconclusive("bernstein", tol, exc),), config)
    scale0 = max(1e-300, float(np.abs(vals).max()))
    i = int(np.argmin(vals))
    ok0 = vals[i] >= -tol * scale0
    records = [CheckRecord(
        "nonnegative", "pass" if ok0 else "fail", float(vals[i] / scale0), tol,
        None if ok0 else {"x": float(g[i]), "value": float(vals[i])},
    )]
    quot = np.diff(vals) / np.diff(g)
    mid = 0.5 * (g[1:] + g[:-1])
    records.extend(_divided_difference_records(
        "derivative_cm_", quot, mid, max_order - 1, tol))
    return PermissibilityReport(tuple(records), config)


# ----------------------------------------------------------------------
# shape checks

def polya_check(phi, grid, tol: float = 1e-9) -> PermissibilityReport:
    """Evenness, nonnegativity, monotone decrease and midpoint convexity.

    A pass certifies positive definiteness on the line (even, decreasing,
    convex functions are admissible there).
    """
    g = _as_grid(grid)
    if np.any(g <= 0):
        raise ParameterError("polya_check grid must be strictly positive")
    config = {"check": "polya", "tol": tol,
              "grid": [float(g[0]), float(g[-1]), int(g.size)]}
    try:
        vp = np.asarray(phi(g), dtype=float)
        vm = np.asarray(phi(-g), dtype=float)
        if not (np.all(np.isfinite(vp)) and np.all(np.isfinite(vm))):
            raise VarioBernError("non-finite values on the grid")
    except VarioBernError as exc:
        return PermissibilityReport((_inconclusive("polya", tol, exc),), config)
    scale = max(1.0, float(np.abs(vp).max()))
    records = []

    gap = np.abs(vp - vm)
    i = int(gap.argmax())
    ok = gap[i] <= tol * scale
    records.append(CheckRecord(
        "even", "pass" if ok else "fail", float(gap[i] / scale), tol,
        None if ok else {"x": float(g[i])}))

    i = int(np.argmin(vp))
    ok = vp[i] >= -tol * scale
    records.append(CheckRecord(
        "nonnegative", "pass" if ok else "fail", float(vp[i] / scale), tol,
        None if ok else {"x": float(g[i]), "value": float(vp[i])}))

    rise = np.diff(vp)
    i = int(np.argmax(rise))
    ok = rise[i] <= tol * scale
    records.append(CheckRecord(
        "decreasing", "pass" if ok else "fail", float(rise[i] / scale), tol,
        None if ok else {"x": float(g[i]), "rise": float(rise[i])}))

    records.append(_midpoint_record("convex", phi, g, vp, tol, scale, concave=False))
    return PermissibilityReport(tuple(records), config)


def _midpoint_record(name, f, g, vals, tol, scale, concave: bool) -> CheckRecord:
    a = g[:, None]
    b = g[None, :]
    mids = 0.5 * (a + b)
    try:
        fm = np.asarray(f(mids.ravel()), dtype=float).reshape(mids.shape)
    except VarioBernError as exc:
        return _inconclusive(name, tol, exc)
    chord = 0.5 * (vals[:, None] + vals[None, :])
    # convex: f(mid) <= chord; concave: f(mid) >= chord
    gap = (chord - fm) if concave else (fm - chord)
    k = int(np.argmax(gap))
    i, j = np.unravel_index(k, gap.shape)
    worst = float(gap[i, j])
    ok = worst <= tol * scale
    witness = None if ok else {"a": float(g[i]), "b": float(g[j]), "gap": worst}
    return CheckRecord(name, "pass" if ok else "fail", worst / scale, tol, witness)


def profile_shape_check(f, grid, tol: float = 1e-9) -> PermissibilityReport:
    """Monotone increase, midpoint concavity and subadditivity on a grid.

    These are necessary properties of the squared-radius profile f of any
    rotationally symmetric variogram f(|xi|^2) beyond dimension one. Note
    the argument convention: f takes the squared radius, so gamma = |xi|^2
    has the (passing) profile f(x) = x, not x^2.
    """
    g = _as_grid(grid)
    if np.any(g < 0):
        raise ParameterError("profile_shape_check grid must be nonnegative")
    config = {"check": "profile_shape", "tol": tol,
              "grid": [float(g[0]), float(g[-1]), int(g.size)]}
    try:
        vals = np.asarray(f(g), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise VarioBernError("non-finite values on the grid")
    except VarioBernError as exc:
        return PermissibilityReport((_inconclusive("profile_shape", tol, exc),), config)
    scale = max(1.0, float(np.abs(vals).max()))
    records = []

    drop = -np.diff(vals)
    i = int(np.argmax(drop)) if drop.size else 0
    worst = float(drop[i]) if drop.size else 0.0
    ok = worst <= tol * scale
    records.append(CheckRecord(
        "increasing", "pass" if ok else "fail", worst / scale, tol,
        None if ok else {"x": float(g[i]), "drop": worst}))

    records.append(_midpoint_record("concave", f, g, vals, tol, scale, concave=True))

    sums = g[:, None] + g[None, :]
    try:
        fs = np.asarray(f(sums.ravel()), dtype=float).reshape(sums.shape)
    except VarioBernError as exc:
        records.append(_inconclusive("subadditive", tol, exc))
        return PermissibilityReport(tuple(records), config)
    excess = fs - vals[:, None] - vals[None, :]
    k = int(np.argmax(excess))
    i, j = np.unravel_index(k, excess.shape)
    worst = float(excess[i, j])
    ok = worst <= tol * scale
    records.append(CheckRecord(
        "subadditive", "pass" if ok else "fail", worst / scale, tol,
        None if ok else {"a": float(g[i]), "b": float(g[j]), "excess": worst}))
    return PermissibilityReport(tuple(records), config)


def sqrt_subadditivity_check(gamma, pts: PointSet, tol: float = 1e-8) -> PermissibilityReport:
    """sqrt(gamma(x + y)) <= sqrt(gamma(x)) + sqrt(gamma(y)) over site pairs.

    Pairs include x = y, which is where homogeneous counterexamples like
    |xi|^3 show up first.
    """
    config = {"check": "sqrt_subadditivity", "tol": tol, "n": pts.n, "d": pts.d}
    x = pts.coords
    sums = x[:, None, :] + x[None, :, :]
    try:
        g_sum = np.asarray(gamma(sums), dtype=float)
        g_site = np.asarray(gamma(x), dtype=float)
        if not (np.all(np.isfinite(g_sum)) and np.all(np.isfinite(g_site))):
            raise VarioBernError("non-finite kernel values")
    except VarioBernError as exc:
        return PermissibilityReport(
            (_inconclusive("sqrt_subadditivity", tol, exc),), config)
    r_sum = np.sqrt(np.maximum(g_sum, 0.0))
    r_site = np.sqrt(np.maximum(g_site, 0.0))
    scale = max(1.0, float(r_sum.max()), float(r_site.max()))
    excess = r_sum - r_site[:, None] - r_site[None, :]
    k = int(np.argmax(excess))
    i, j = np.unravel_index(k, excess.shape)
    worst = float(excess[i, j])
    ok = worst <= tol * scale
    witness = None if ok else {
        "x": x[i].tolist(), "y": x[j].tolist(), "excess": worst,
    }
    rec = CheckRecord("sqrt_subadditivity", "pass" if ok else "fail",
                      worst / scale, tol, witness)
    return PermissibilityReport((rec,), config)


# ----------------------------------------------------------------------
# structure probes

def detect_period(gamma, search_radius: float, tol: float = 1e-8,
                  d: int = 1, axis: int = 0, n_scan: int = 4096,
                  seed: int = 20260815) -> np.ndarray | None:
    """Search for a nonzero period vector y with gamma(. + y) = gamma(.).

    Scans |gamma(t e) - gamma(0)| for interior local minima along the given
    axis, refines each candidate, and accepts only if shift invariance
    |gamma(xi + y) - gamma(xi)| <= 10 tol scale holds on seeded probe points.
    The shift verification is what rejects spurious near-origin minima of
    smooth aperiodic kernels.
    """
    if search_radius <= 0 or tol <= 0:
        raise ParameterError("search_radius and tol must be positive")
    unit = np.zeros(d)
    unit[axis] = 1.0

    def along(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.asarray(gamma(ts[:, None] * unit[None, :]), dtype=float)

    gamma0 = float(along(0.0)[0])
    ts = np.linspace(0.0, search_radius, n_scan + 1)[1:]
    vals = along(ts)
    m = np.abs(vals - gamma0)

    rng = np.random.default_rng(seed)
    probes = rng.uniform(-search_radius, search_radius, size=(32, d))
    probe_vals = np.asarray(gamma(probes), dtype=float)
    scale = max(1.0, float(np.abs(vals).max()), float(np.abs(probe_vals).max()))

    interior = np.where((m[1:-1] <= m[:-2]) & (m[1:-1] <= m[2:]))[0] + 1
    candidates = interior[np.argsort(m[interior])]
    step = ts[1] - ts[0]
    for idx in candidates[:16]:
        if m[idx] > np.sqrt(tol) * scale:
            break  # sorted: nothing deeper remains
        res = minimize_scalar(
            lambda t: abs(float(along(t)[0]) - gamma0),
            bracket=None, bounds=(max(ts[idx] - step, 0.0), ts[idx] + step),
            method="bounded", options={"xatol": 1e-12},
        )
        t_star = float(res.x)
        if t_star <= 0:
            continue
        if abs(float(along(t_star)[0]) - gamma0) > tol * scale:
            continue
        y = t_star * unit
        shifted = np.asarray(gamma(probes + y), dtype=float)
        if np.abs(shifted - probe_vals).max() <= 10.0 * tol * scale:
            return y
    return None


def eventual_constancy_check(profile, inner: float, outer: float,
                             tol: float = 1e-8, all_d_certified: bool = False,
                             n_grid: int = 257) -> PermissibilityReport:
    """Constancy of a radial profile on [inner, outer], with the structural
    consequence for models certified in every dimension.

    A variogram permissible in all dimensions cannot be constant on an
    annulus without being constant everywhere, so a detected plateau on a
    certified-for-all-d model raises a contradiction record unless the
    profile is flat from the origin on.
    """
    if not 0 <= inner < outer:
        raise ParameterError("need 0 <= inner < outer")
    config = {"check": "eventual_constancy", "tol": tol,
              "inner": inner, "outer": outer, "all_d_certified": all_d_certified}
    rs = np.linspace(inner, outer, n_grid)
    try:
        vals = np.asarray(profile(rs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise VarioBernError("non-finite profile values")
    except VarioBernError as exc:
        return PermissibilityReport((_inconclusive("constant_on_annulus", tol, exc),),
                                    config)
    scale = max(1.0, float(np.abs(vals).max()))
    spread = float(vals.max() - vals.min())
    constant = spread <= tol * scale
    plateau = float(vals.mean())
    records = [CheckRecord(
        "constant_on_annulus", "pass" if constant else "fail",
        spread / scale, tol,
        {"plateau": plateau} if constant else {"spread": spread},
    )]
    if constant and all_d_certified:
        head = np.linspace(0.0, inner, n_grid) if inner > 0 else rs
        head_vals = np.asarray(profile(head), dtype=float)
        flat_everywhere = float(np.abs(head_vals - plateau).max()) <= tol * scale
        records.append(CheckRecord(
            "all_d_consistency", "pass" if flat_everywhere else "fail",
            float(np.abs(head_vals - plateau).max()) / scale, tol,
            None if flat_everywhere else {
                "plateau": plateau,
                "deviating_radius": float(head[int(np.abs(head_vals - plateau).argmax())]),
            },
            detail="" if flat_everywhere else
            "profile constant on an annulus but not globally: incompatible "
            "with permissibility in every dimension",
        ))
    return PermissibilityReport(tuple(records), config)
