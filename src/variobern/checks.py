"""Numerical permissibility oracles on finite point sets and grids.

Every check reduces to finite linear algebra or finite differencing:

* the kernel matrix [k(x_i - x_j)] of a radial model, even by construction,
  is evaluated once per site pair, by row blocks of the upper triangle and
  without the (n, n, d) lag tensor; dense kriging and simulation assemble
  theirs with the same function;
* conditional negative definiteness is tested on the restriction of the
  kernel matrix to the zero-sum contrast subspace: the Householder
  reflector that swaps e_n and ones/sqrt(n) is applied as a rank-two
  update in O(n^2), only the extreme eigenpair of the restriction is
  computed, and its eigenvector is mapped back through the same reflector
  into a reusable witness contrast (positive definiteness takes the
  extreme eigenpair of the kernel matrix itself);
* one BLAS runtime from kernel assembly to the eigensolver: numpy and scipy
  each bundle an OpenBLAS with its own thread pool, and numpy's workers keep
  spinning after a matrix product while scipy's LAPACK runs (on two cores
  the eigensolve then takes about twice as long), so the oracles call no
  numpy BLAS (``@``, dot, solve) on a kernel matrix, not even for a witness
  that the next oracle's eigensolver would follow: the reflector's products
  are row sums and a quadratic form is an einsum;
* a radial model's kernel matrix is filled bitwise symmetric, so it is its
  own symmetric part and its evenness gap is 0: neither is computed;
* complete monotonicity and the Bernstein property are tested through the
  alternating signs of Newton divided differences, never through symbolic
  derivatives, so tabulated kernels work too;
* the structural checks (shape, subadditivity, periodicity, eventual
  constancy) are grid programs over the same tolerance conventions;
* scipy is imported inside the function that calls it (the eigensolver,
  the period search's minimiser): importing it at module scope cost every
  command of the package close to a second of start-up.

All tolerances are relative to an explicit scale and echoed in the report,
so multiplying a kernel by a positive constant never flips a verdict. One
policy holds for every oracle: a tolerance that is not positive and finite
raises ParameterError (a NaN or infinite one would turn a verdict round);
an evaluation that raises or returns non-finite values gives an
inconclusive record; and only a failing record carries a witness (except
the annulus probe, whose pass reports the plateau it found).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, VarioBernError
from .models import StationaryCovariance, Variogram
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


# ----------------------------------------------------------------------
# the shared verdict policy

def _inconclusive(name: str, tol: float, exc: Exception) -> CheckRecord:
    return CheckRecord(name, "inconclusive", float("nan"), tol,
                       detail=f"{type(exc).__name__}: {exc}")


def _frame(check: str, tol: float, **echo) -> dict:
    """The tolerance gate of every oracle and the config its report echoes."""
    if not 0 < tol < np.inf:
        raise ParameterError("tol must be positive and finite")
    return {"check": check, "tol": tol, **echo}


def _scale(*values) -> float:
    """Scale of a relative bound: the largest magnitude, and at least 1."""
    return max(1.0, *(float(np.abs(v).max()) for v in values))


def _record(name: str, ok, statistic, tol: float, witness, detail: str = "",
            on_pass: dict | None = None) -> CheckRecord:
    """The one verdict rule; ``witness()`` runs only when the bound fails."""
    if ok:
        return CheckRecord(name, "pass", float(statistic), tol, on_pass)
    return CheckRecord(name, "fail", float(statistic), tol, witness(), detail)


def _worst(name: str, excess: np.ndarray, scale: float, tol: float, witness,
           detail: str = "") -> CheckRecord:
    """Record of max(excess) <= tol * scale; ``witness(*index, worst)``."""
    at = np.unravel_index(int(np.argmax(excess)), excess.shape)
    worst = float(excess[at])
    return _record(name, worst <= tol * scale, worst / scale, tol,
                   lambda: witness(*at, worst), detail)


def _finite(f, *xs, what: str = "values on the grid") -> list[np.ndarray]:
    """The evaluation gate: f at each of xs, all finite, as float arrays."""
    vals = [np.asarray(f(x), dtype=float) for x in xs]
    if not all(np.all(np.isfinite(v)) for v in vals):
        raise VarioBernError(f"non-finite {what}")
    return vals


def _report(config: dict, name: str, evaluate, verdicts) -> PermissibilityReport:
    """Frame of an oracle: a VarioBernError from ``evaluate()`` gives one
    inconclusive record, else ``verdicts(*values)`` gives the records."""
    try:
        values = evaluate()
    except VarioBernError as exc:
        return PermissibilityReport((_inconclusive(name, config["tol"], exc),), config)
    return PermissibilityReport(tuple(verdicts(*values)), config)


# ----------------------------------------------------------------------
# kernel-matrix machinery

# site pairs per model call when a radial matrix is filled by row blocks
_PAIR_BLOCK = 1 << 16


def _radial_matrix(model, pts: PointSet) -> np.ndarray:
    """[model(x_i - x_j)] for an even model, evaluated once per site pair.

    Consecutive rows of the upper triangle form blocks of at most
    _PAIR_BLOCK lags x_i - x_{i+1:} (or one longer row), one model call
    each; every row is written to K[i, i+1:] and mirrored to K[i+1:, i],
    and the diagonal is the value at the zero lag. Each lag goes through the
    same arithmetic as in the full lag tensor, so the matrix is bitwise the
    one model(pts.lags()) gives. That does not hold across pair blocks for
    a quadrature spectral carrier, whose value at a lag depends on the
    other lags sharing its quadrature column; the matrix stays bitwise
    symmetric, since each row is mirrored.
    """
    x, n = pts.coords, pts.n
    k = np.empty((n, n))
    k.flat[::n + 1] = np.asarray(model(np.zeros((1, pts.d))), dtype=float)[0]
    start = 0
    while start < n - 1:
        stop, pairs = start + 1, n - 1 - start
        while stop < n - 1 and pairs + n - 1 - stop <= _PAIR_BLOCK:
            pairs += n - 1 - stop
            stop += 1
        vals = np.asarray(model(np.concatenate(
            [x[i] - x[i + 1:] for i in range(start, stop)])), dtype=float)
        at = 0
        for i in range(start, stop):
            row = vals[at:at + n - 1 - i]
            k[i, i + 1:] = row
            k[i + 1:stop, i] = row[:stop - 1 - i]
            at += row.size
        # the rest of the block's columns, below its rows, in one copy
        k[stop:, start:stop] = k[start:stop, stop:].T
        start = stop
    return k


def _radial(kernel) -> bool:
    """Whether kernel is a radial model, whose kernel matrix _radial_matrix
    fills bitwise symmetric."""
    return isinstance(kernel, (Variogram, StationaryCovariance))


def kernel_matrix(kernel, pts: PointSet) -> np.ndarray:
    """K[i, j] = kernel(x_i - x_j); kernel maps (..., d) lag arrays.

    A radial model (Variogram or StationaryCovariance) is even by
    construction, so it is evaluated on the upper triangle of site pairs
    only, by row blocks, without the (n, n, d) lag tensor. Any other
    callable is evaluated on pts.lags(), both orientations of every pair.
    """
    if _radial(kernel):
        vals = _radial_matrix(kernel, pts)
    else:
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


def _reflector(n: int) -> np.ndarray:
    """Householder vector u of the reflector H = I - u u'/u[-1] that swaps
    e_n and ones/sqrt(n); the first n-1 columns of H span {sum a = 0}."""
    if n < 2:
        raise ParameterError("contrast subspace needs n >= 2 points")
    u = np.full(n, -1.0 / np.sqrt(n))
    u[-1] += 1.0
    return u


def contrast_basis(n: int) -> np.ndarray:
    """Orthonormal (n, n-1) basis of the zero-sum contrast subspace: the first
    n-1 columns of the Householder reflector that swaps e_n and ones/sqrt(n).

    The oracles never build it (they apply the reflector as a rank-two
    update); it is kept for callers that map reduced vectors themselves.
    """
    u = _reflector(n)
    return (np.eye(n) - np.outer(u, u) / u[-1])[:, :-1]


def _symmetric_part(kernel, g: np.ndarray) -> np.ndarray:
    """0.5 (g + g') for a general kernel; a radial model's g as it is."""
    return g if _radial(kernel) else 0.5 * (g + g.T)


def _quadratic_form(a: np.ndarray, m: np.ndarray) -> float:
    """a' m a by einsum's own loops, not BLAS (see the module note)."""
    return float(np.einsum("i,ij,j->", a, m, a))


def _extreme_eigenpair(m: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """The k-th smallest eigenvalue of the symmetric m and its eigenvector.

    Kernel matrices are finite by construction, so the finiteness scan is
    skipped; the MRRR driver computes the one pair without the others.
    """
    import scipy.linalg

    w, v = scipy.linalg.eigh(m, subset_by_index=[k, k], driver="evr",
                             check_finite=False)
    return float(w[0]), v[:, 0]


def cnd_check(gamma, pts: PointSet, tol: float = 1e-8) -> PermissibilityReport:
    """Conditional negative definiteness of gamma on the given sites.

    Builds G[i,j] = gamma(x_i - x_j), restricts its symmetric part to the
    contrast subspace {sum a = 0} and passes iff the largest eigenvalue of
    the restriction is <= tol * max(1, max|G|). A failure carries the
    offending contrast a (with sum a = 0) and its quadratic form a' G a.
    """
    config = _frame("cnd", tol, n=pts.n, d=pts.d)
    return _report(config, "cnd", lambda: [kernel_matrix(gamma, pts)],
                   lambda g: [_cnd_record(g, _symmetric_part(gamma, g), tol)])


def _contrast_block(sym: np.ndarray) -> np.ndarray:
    """B' S B for the symmetric S and B = contrast_basis(n) = H[:, :-1].

    B' S B is the leading block of H S H = S - p u' - u p' + c u u', with
    p = S u / u[-1] and c = u.p / u[-1]. The first n-1 entries of u all
    equal u[0], so that block is S_ij - (q_i + q_j) with q = u[0] (p - c u / 2):
    O(n^2), and exactly symmetric. For the same reason S u is
    u[0] S 1 + (u[-1] - u[0]) S e_n, a row sum and a column, and u.p
    likewise: no BLAS call runs before the eigensolver (see the module note).
    """
    u = _reflector(sym.shape[0])
    tail = u[-1] - u[0]
    p = (u[0] * sym.sum(axis=1) + tail * sym[:, -1]) / u[-1]
    up = u[0] * p.sum() + tail * p[-1]
    q = u[0] * (p - 0.5 * up / u[-1] * u)[:-1]
    block = q[:, None] + q
    return np.subtract(sym[:-1, :-1], block, out=block)


def _cnd_record(g: np.ndarray, sym: np.ndarray, tol: float) -> CheckRecord:
    # the largest eigenpair of the contrast restriction of sym, the symmetric
    # part of g; v maps back to a witness contrast through the same reflector
    scale = _scale(g)
    n = g.shape[0]
    lam, v = _extreme_eigenpair(_contrast_block(sym), n - 2)

    def witness():
        u = _reflector(n)
        a = np.append(v, 0.0) - u * (u[0] * v.sum() / u[-1])  # a = B v
        a = a - a.mean()  # enforce the zero-sum constraint exactly
        return {"contrast": a.tolist(), "quadratic_form": _quadratic_form(a, sym),
                "eigenvalue": lam, "scale": scale}

    return _record("cnd", lam <= tol * scale, lam / scale, tol, witness)


def pd_check(cov, pts: PointSet, tol: float = 1e-8) -> PermissibilityReport:
    """Positive definiteness (PSD up to tolerance) of cov on the sites."""
    config = _frame("pd", tol, n=pts.n, d=pts.d)
    return _report(config, "pd", lambda: [kernel_matrix(cov, pts)],
                   lambda c: [_pd_record(c, _symmetric_part(cov, c), tol)])


def _pd_record(c: np.ndarray, sym: np.ndarray, tol: float) -> CheckRecord:
    # the smallest eigenpair of sym, the symmetric part of c; its vector is
    # the witness
    scale = _scale(c)
    lam, a = _extreme_eigenpair(sym, 0)
    return _record("pd", lam >= -tol * scale, lam / scale, tol, lambda: {
        "weights": a.tolist(), "quadratic_form": _quadratic_form(a, sym),
        "eigenvalue": lam, "scale": scale})


def variogram_axioms(gamma, pts: PointSet, tol: float = 1e-8) -> PermissibilityReport:
    """gamma(0) >= 0, evenness on the pairwise lags, and the CND check.

    The lag set is closed under negation and x_j - x_i = -(x_i - x_j)
    exactly, so gamma(-lag) is read off the transpose of the one kernel
    matrix that the CND check uses as well. A radial model is even by
    construction and its matrix is filled bitwise symmetric, so its
    evenness record is a pass at gap 0 without a scan.
    """
    config = _frame("variogram_axioms", tol, n=pts.n, d=pts.d)
    records: list[CheckRecord] = []
    try:
        origin = float(_finite(gamma, np.zeros((1, pts.d)),
                               what="kernel value at the origin")[0][0])
        records.append(_record("origin", origin >= -tol, origin, tol,
                               lambda: {"value": origin}))
        g = kernel_matrix(gamma, pts)
    except VarioBernError as exc:
        records.append(_inconclusive("axioms", tol, exc))
        records.append(_inconclusive("cnd", tol, exc))
        return PermissibilityReport(tuple(records), config)
    if _radial(gamma):
        records.append(_record("evenness", True, 0.0, tol, None))
    else:
        records.append(_worst(
            "evenness", np.abs(g - g.T), _scale(g), tol,
            lambda i, j, gap: {"lag": (pts.coords[i] - pts.coords[j]).tolist(),
                               "gap": gap}))
    records.append(_cnd_record(g, _symmetric_part(gamma, g), tol))
    return PermissibilityReport(tuple(records), config)


# ----------------------------------------------------------------------
# divided-difference oracles

def _as_grid(grid, check: str, tol: float, nonnegative: bool = False,
             **echo) -> tuple[np.ndarray, dict]:
    """Gate of the grid oracles: a strictly increasing 1-D grid, positive (or
    nonnegative, for profiles), and the config that echoes it."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):
        raise ParameterError("grid must be a strictly increasing 1-D array")
    if g[0] < 0 or (g[0] == 0 and not nonnegative):
        raise ParameterError(f"{check}_check grid must be "
                             + ("nonnegative" if nonnegative else "strictly positive"))
    return g, _frame(check, tol, **echo,
                     grid=[float(g[0]), float(g[-1]), int(g.size)])


def _divided_difference_records(prefix: str, values: np.ndarray, grid: np.ndarray,
                                max_order: int, tol: float,
                                roundoff=None) -> list[CheckRecord]:
    """Records asserting (-1)^k * (k-th divided difference) >= 0, k <= max_order.

    Divided differences of high order are ill conditioned where the grid is
    dense, so a first-order bound on the propagated input roundoff (default
    eps * |values|) is carried through the recursion and added to the
    allowance: a sign violation only counts where it exceeds what roundoff
    alone could produce.
    """
    records = []
    dd = values.astype(float)
    err = (_EPS * np.abs(dd) if roundoff is None else roundoff) + 1e-300
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
        records.append(_record(
            f"{prefix}order_{k}", margin[i] >= 0.0, signed[i] / scale, tol,
            lambda: {"order": k, "x": float(grid[i]), "value": float(dd[i])}))
    return records


def _nonnegative(g: np.ndarray, vals: np.ndarray, scale: float,
                 tol: float) -> CheckRecord:
    i = int(np.argmin(vals))
    return _record("nonnegative", vals[i] >= -tol * scale, vals[i] / scale, tol,
                   lambda: {"x": float(g[i]), "value": float(vals[i])})


def cm_check(f, grid, max_order: int = 8, tol: float = 1e-9) -> PermissibilityReport:
    """Alternating divided-difference test for complete monotonicity.

    Checks (-1)^k D^k f >= -tol * scale_k for Newton divided differences of
    orders 0..max_order on the grid, with a per-order relative scale.
    """
    g, config = _as_grid(grid, "cm", tol, max_order=max_order)
    if not 1 <= max_order < g.size:
        raise ParameterError("need 1 <= max_order < len(grid)")
    return _report(config, "cm", lambda: _finite(f, g), lambda vals:
                   _divided_difference_records("cm_", vals, g, max_order, tol))


def bernstein_check(f, grid, max_order: int = 6, tol: float = 1e-9) -> PermissibilityReport:
    """f >= 0 plus complete monotonicity of the first difference quotients."""
    g, config = _as_grid(grid, "bernstein", tol, max_order=max_order)
    if not 1 <= max_order < g.size - 1:
        raise ParameterError("need 1 <= max_order < len(grid) - 1")

    def verdicts(vals):
        quot = np.diff(vals) / np.diff(g)
        mid = 0.5 * (g[1:] + g[:-1])
        # a quotient inherits the rounding of both values, amplified by 1/dx
        roundoff = _EPS * (np.abs(vals[1:]) + np.abs(vals[:-1])) / np.diff(g)
        return [_nonnegative(g, vals, max(1e-300, float(np.abs(vals).max())), tol),
                *_divided_difference_records("derivative_cm_", quot, mid,
                                             max_order - 1, tol, roundoff)]

    return _report(config, "bernstein", lambda: _finite(f, g), verdicts)


# ----------------------------------------------------------------------
# shape checks

def polya_check(phi, grid, tol: float = 1e-9) -> PermissibilityReport:
    """Evenness, nonnegativity, monotone decrease and midpoint convexity.

    A pass certifies positive definiteness on the line (even, decreasing,
    convex functions are admissible there).
    """
    g, config = _as_grid(grid, "polya", tol)

    def verdicts(vp, vm):
        scale = _scale(vp)
        return [_worst("even", np.abs(vp - vm), scale, tol,
                       lambda i, gap: {"x": float(g[i])}),
                _nonnegative(g, vp, scale, tol),
                _worst("decreasing", np.diff(vp), scale, tol,
                       lambda i, rise: {"x": float(g[i]), "rise": rise}),
                _pair_record("convex", phi, g, vp, tol, scale)]

    return _report(config, "polya", lambda: _finite(phi, g, -g), verdicts)


# Two-point inequalities of a profile f over grid pairs (a, b): the point at
# which f is evaluated, the excess of f there over the bound (given f(a) and
# f(b)), and the witness key that reports the excess.
_PAIR_BOUNDS = {
    "convex": (lambda a, b: 0.5 * (a + b),
               lambda fp, fa, fb: fp - 0.5 * (fa + fb), "gap"),
    "concave": (lambda a, b: 0.5 * (a + b),
                lambda fp, fa, fb: 0.5 * (fa + fb) - fp, "gap"),
    "subadditive": (lambda a, b: a + b,
                    lambda fp, fa, fb: fp - fa - fb, "excess"),
}


def _pair_record(name: str, f, g: np.ndarray, vals: np.ndarray, tol: float,
                 scale: float) -> CheckRecord:
    point, excess, key = _PAIR_BOUNDS[name]
    at = point(g[:, None], g[None, :])
    try:
        fp = _finite(f, at.ravel(), what=f"{name} pair values")[0].reshape(at.shape)
    except VarioBernError as exc:
        return _inconclusive(name, tol, exc)
    return _worst(name, excess(fp, vals[:, None], vals[None, :]), scale, tol,
                  lambda i, j, worst: {"a": float(g[i]), "b": float(g[j]), key: worst})


def profile_shape_check(f, grid, tol: float = 1e-9) -> PermissibilityReport:
    """Monotone increase, midpoint concavity and subadditivity on a grid.

    These are necessary properties of the squared-radius profile f of any
    rotationally symmetric variogram f(|xi|^2) beyond dimension one. Note
    the argument convention: f takes the squared radius, so gamma = |xi|^2
    has the (passing) profile f(x) = x, not x^2.
    """
    g, config = _as_grid(grid, "profile_shape", tol, nonnegative=True)

    def verdicts(vals):
        scale = _scale(vals)
        return [_worst("increasing", -np.diff(vals), scale, tol,
                       lambda i, drop: {"x": float(g[i]), "drop": drop}),
                _pair_record("concave", f, g, vals, tol, scale),
                _pair_record("subadditive", f, g, vals, tol, scale)]

    return _report(config, "profile_shape", lambda: _finite(f, g), verdicts)


def sqrt_subadditivity_check(gamma, pts: PointSet, tol: float = 1e-8) -> PermissibilityReport:
    """sqrt(gamma(x + y)) <= sqrt(gamma(x)) + sqrt(gamma(y)) over site pairs.

    Pairs include x = y, which is where homogeneous counterexamples like
    |xi|^3 show up first.
    """
    config = _frame("sqrt_subadditivity", tol, n=pts.n, d=pts.d)
    x = pts.coords

    def verdicts(g_sum, g_site):
        r_sum = np.sqrt(np.maximum(g_sum, 0.0))
        r_site = np.sqrt(np.maximum(g_site, 0.0))
        return [_worst("sqrt_subadditivity", r_sum - r_site[:, None] - r_site[None, :],
                       _scale(r_sum, r_site), tol,
                       lambda i, j, worst: {"x": x[i].tolist(), "y": x[j].tolist(),
                                            "excess": worst})]

    return _report(config, "sqrt_subadditivity", lambda: _finite(
        gamma, x[:, None, :] + x[None, :, :], x, what="kernel values"), verdicts)


# ----------------------------------------------------------------------
# structure probes

# detect_period's scan points and probe seed, eventual_constancy_check's grid
_PERIOD_SCAN = 4096
_PERIOD_SEED = 20260815
_CONSTANCY_GRID = 257


def detect_period(gamma, search_radius: float, tol: float = 1e-8,
                  d: int = 1, axis: int = 0) -> np.ndarray | None:
    """Search for a nonzero period vector y with gamma(. + y) = gamma(.).

    Scans |gamma(t e) - gamma(0)| for interior local minima along the given
    axis, refines each candidate, and accepts only if shift invariance
    |gamma(xi + y) - gamma(xi)| <= 10 tol scale holds on seeded probe points.
    The shift verification is what rejects spurious near-origin minima of
    smooth aperiodic kernels.
    """
    if not (0 < search_radius < np.inf and 0 < tol < np.inf):
        raise ParameterError("search_radius and tol must be positive and finite")
    if axis not in range(d):
        raise ParameterError(f"axis must be in range({d}), got {axis!r}")
    unit = np.zeros(d)
    unit[axis] = 1.0

    def along(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.asarray(gamma(ts[:, None] * unit[None, :]), dtype=float)

    gamma0 = float(along(0.0)[0])
    ts = np.linspace(0.0, search_radius, _PERIOD_SCAN + 1)[1:]
    vals = along(ts)
    m = np.abs(vals - gamma0)

    rng = np.random.default_rng(_PERIOD_SEED)
    probes = rng.uniform(-search_radius, search_radius, size=(32, d))
    probe_vals = np.asarray(gamma(probes), dtype=float)
    scale = max(1.0, float(np.abs(vals).max()), float(np.abs(probe_vals).max()))

    interior = np.where((m[1:-1] <= m[:-2]) & (m[1:-1] <= m[2:]))[0] + 1
    candidates = interior[np.argsort(m[interior])]
    step = ts[1] - ts[0]
    for idx in candidates[:16]:
        if m[idx] > np.sqrt(tol) * scale:
            break  # sorted: nothing deeper remains
        from scipy.optimize import minimize_scalar

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
                             tol: float = 1e-8,
                             all_d_certified: bool = False) -> PermissibilityReport:
    """Constancy of a radial profile on [inner, outer], with the structural
    consequence for models certified in every dimension.

    A variogram permissible in all dimensions cannot be constant on an
    annulus without being constant everywhere, so a detected plateau on a
    certified-for-all-d model raises a contradiction record unless the
    profile is flat from the origin on.
    """
    if not 0 <= inner < outer:
        raise ParameterError("need 0 <= inner < outer")
    config = _frame("eventual_constancy", tol, inner=inner, outer=outer,
                    all_d_certified=all_d_certified)
    rs = np.linspace(inner, outer, _CONSTANCY_GRID)

    def verdicts(vals):
        scale = _scale(vals)
        spread = float(vals.max() - vals.min())
        constant = spread <= tol * scale
        plateau = float(vals.mean())
        records = [_record("constant_on_annulus", constant, spread / scale, tol,
                           lambda: {"spread": spread}, on_pass={"plateau": plateau})]
        if constant and all_d_certified:
            head = np.linspace(0.0, inner, _CONSTANCY_GRID) if inner > 0 else rs
            try:
                head_vals = _finite(profile, head, what="profile values")[0]
            except VarioBernError as exc:
                records.append(_inconclusive("all_d_consistency", tol, exc))
            else:
                records.append(_worst(
                    "all_d_consistency", np.abs(head_vals - plateau), scale, tol,
                    lambda i, dev: {"plateau": plateau,
                                    "deviating_radius": float(head[i])},
                    detail="profile constant on an annulus but not globally: "
                           "incompatible with permissibility in every dimension"))
        return records

    return _report(config, "constant_on_annulus",
                   lambda: _finite(profile, rs, what="profile values"), verdicts)
