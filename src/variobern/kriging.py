"""Ordinary kriging, Gaussian field simulation, and the empirical variogram.

The kriging system is the bordered form

    [ K  1 ] [ w  ]   [ k0 ]
    [ 1' 0 ] [ mu ] = [ 1  ]

with K the variogram or covariance matrix on the data sites and k0 the
model values against the target. The system is factored once per call:
``krige_many`` assembles K once and solves every target as one column of a
matrix right-hand side. The dense path is one LU of the bordered matrix. The
sparse path (compactly supported covariances only, covariance tapering in the
sense of Furrer, Genton and Nychka, 2006) is one sparse LU of K, with the
border eliminated by a Schur complement, so sparse and dense weights agree to
solver accuracy. K is symmetric, so SuperLU factors it in symmetric mode: a
minimum-degree ordering of K + K' applied to rows and columns alike, and the
diagonal pivot kept unless it falls below _DIAG_PIVOT_THRESH of its column.
Each result carries the kriging variance (Cressie, *Statistics for Spatial
Data*, 1993, section 3.2) and the residual of its bordered system; on either
path a residual above 1e-6 * max(1, max|rhs|) raises DegenerateSystemError.

The sparse path imports scipy (neighbour search, sparse storage, SuperLU)
inside the functions that use it, and the dense path needs only numpy, so a
dense command never pays scipy's import, most of its start-up time.

Simulation factorizes the covariance Gram matrix by eigendecomposition,
repairing tolerance-level negative eigenvalues with a recorded diagonal
shift, and draws each replicate from its own seed stream derived from
(seed, replicate index) so results never depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import kernel_matrix
from .errors import DegenerateSystemError, ParameterError
from .models import StationaryCovariance, Variogram
from .points import PointSet

__all__ = [
    "KrigingResult",
    "SimulationSpec",
    "build_gamma_matrix",
    "krige_many",
    "ordinary_kriging",
    "simulate_field",
    "empirical_variogram",
]


@dataclass(frozen=True)
class KrigingResult:
    """One target's prediction, weights and Lagrange multiplier mu.

    variance is the ordinary-kriging variance: w'k0 + mu for a variogram,
    C(0) - w'k0 - mu for a covariance. residual is the largest absolute
    residual of the target's bordered system, as solved.
    """

    prediction: float
    weights: np.ndarray
    lagrange: float
    mode: str
    variance: float = math.nan
    residual: float = math.nan

    def to_json(self) -> dict:
        return {
            "prediction": self.prediction,
            "weights": self.weights.tolist(),
            "lagrange": self.lagrange,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class SimulationSpec:
    model: StationaryCovariance
    sites: PointSet
    seed: int
    n_replicates: int

    def __post_init__(self):
        if self.n_replicates < 1:
            raise ParameterError("need at least one replicate")


def _require_sparse_support(model) -> float:
    if not isinstance(model, StationaryCovariance) or not math.isfinite(
            getattr(model, "support_radius", math.inf)):
        raise ParameterError(
            "sparse mode requires a stationary covariance with a finite "
            "support radius; rebuild eventually constant variograms as "
            "sill - gamma first"
        )
    return float(model.support_radius)


def build_gamma_matrix(model, pts: PointSet, mode: str = "dense"):
    """Matrix K[i,j] = model(x_i - x_j), dense ndarray or sparse CSC.

    The dense matrix is checks.kernel_matrix, the assembly the oracles use:
    a radial model is evaluated once per site pair, any other callable on
    the full lag tensor, and a non-finite entry raises VarioBernError.
    Sparse storage keeps only nonzero covariance entries; neighbor pairs are
    found on the anisotropy-transformed coordinates, so truncation matches
    the model's own radial argument exactly.
    """
    if mode == "dense":
        return kernel_matrix(model, pts)
    if mode != "sparse":
        raise ParameterError("mode must be dense | sparse")
    from scipy.sparse import coo_matrix
    from scipy.spatial import cKDTree

    radius = _require_sparse_support(model)
    y = pts.coords @ model.anisotropy.T
    pairs = cKDTree(y).query_pairs(radius, output_type="ndarray")
    rows = [np.arange(pts.n)]
    cols = [np.arange(pts.n)]
    vals = [np.full(pts.n, model.sill)]
    if len(pairs):
        lag = pts.coords[pairs[:, 0]] - pts.coords[pairs[:, 1]]
        v = np.asarray(model(lag), dtype=float)
        keep = v != 0.0
        i, j, v = pairs[keep, 0], pairs[keep, 1], v[keep]
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([v, v])
    m = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(pts.n, pts.n),
    )
    m.sum_duplicates()
    return m.tocsc()


# a diagonal pivot at least this fraction of its column's largest entry is
# kept; K is positive definite for a valid covariance on distinct sites, and
# the residual gate of krige_many catches a pivot this lets through badly
_DIAG_PIVOT_THRESH = 0.01


# SuperLU, imported by the first sparse solve; a module name tests can replace
def splu(*args, **kw):
    from scipy.sparse.linalg import splu
    return splu(*args, **kw)


def _check_sites(pts: PointSet) -> None:
    if pts.values is None:
        raise ParameterError("kriging needs observed values at the sites")
    if len(np.unique(pts.coords, axis=0)) < pts.n:
        raise DegenerateSystemError("duplicate sites make the system singular")


def krige_many(model, pts: PointSet, targets, mode: str = "dense") -> list[KrigingResult]:
    """Ordinary kriging at every row of targets, shape (T, d), in one solve.

    The site checks, the model matrix and its factorization are done once;
    the T right-hand sides are solved together. Each target still has its
    own residual gate. Models that are not a StationaryCovariance are
    read as variograms for the kriging variance.
    """
    _check_sites(pts)
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] != pts.d:
        raise ParameterError(
            f"targets must have shape (T, {pts.d}), got {targets.shape}")
    k = build_gamma_matrix(model, pts, mode)
    k0 = np.asarray(model(targets[None, :, :] - pts.coords[:, None, :]), dtype=float)
    n, t = k0.shape
    if mode == "dense":
        bordered = np.ones((n + 1, n + 1))
        bordered[:n, :n] = k
        bordered[n, n] = 0.0
        rhs = np.vstack([k0, np.ones((1, t))])
        try:
            sol = np.linalg.solve(bordered, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(f"kriging system is singular: {exc}") from None
        resid = np.abs(bordered @ sol - rhs).max(axis=0)
        weights, mu = sol[:n], sol[n]
    else:
        try:
            lu = splu(k, permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=_DIAG_PIVOT_THRESH,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise DegenerateSystemError(f"sparse factorization failed: {exc}") from None
        xy = lu.solve(np.column_stack([k0, np.ones(n)]))
        x, y = xy[:, :t], xy[:, t]
        denom = float(np.ones(n) @ y)
        if abs(denom) < 1e-300:
            raise DegenerateSystemError("border elimination degenerate: 1' K^-1 1 = 0")
        mu = (np.ones(n) @ x - 1.0) / denom
        weights = x - np.outer(y, mu)
        resid = np.maximum(np.abs(k @ weights + mu - k0).max(axis=0),
                           np.abs(weights.sum(axis=0) - 1.0))
    gate = 1e-6 * np.maximum(1.0, np.abs(k0).max(axis=0))
    if not (np.isfinite(weights).all() and np.isfinite(mu).all()) or (resid > gate).any():
        raise DegenerateSystemError(
            f"kriging system is numerically singular (residual {resid.max():g})"
        )
    wk0 = np.einsum("it,it->t", weights, k0)
    if isinstance(model, StationaryCovariance):
        variance = model.sill - wk0 - mu
    else:
        variance = wk0 + mu
    weights = np.ascontiguousarray(weights.T)
    predictions = weights @ pts.values
    return [KrigingResult(float(p), w, float(m), mode, float(v), float(r))
            for p, w, m, v, r in zip(predictions, weights, mu, variance, resid)]


def ordinary_kriging(model, pts: PointSet, target, mode: str = "dense") -> KrigingResult:
    """Best linear unbiased prediction at the target with unit-sum weights."""
    return krige_many(model, pts, np.reshape(target, (1, pts.d)), mode)[0]


def simulate_field(spec: SimulationSpec, tol: float = 1e-8):
    """Draw Gaussian replicates with the model's Gram matrix as covariance.

    Returns (replicates, info): replicates has shape (n_replicates, n sites);
    info records the diagonal shift used to repair tolerance-level negative
    eigenvalues, the smallest eigenvalue of the Gram matrix and the
    condition number of the shifted one (inf when it is singular). A Gram
    matrix indefinite beyond tolerance is an error, not repaired silently;
    tol must be positive and finite, as in the oracles.
    """
    if not 0 < tol < math.inf:
        raise ParameterError("tol must be positive and finite")
    gram = build_gamma_matrix(spec.model, spec.sites, "dense")
    gram = 0.5 * (gram + gram.T)
    scale = max(1.0, float(np.abs(gram).max()))
    w, v = np.linalg.eigh(gram)
    lam_min = float(w[0])
    if lam_min < -tol * scale:
        raise DegenerateSystemError(
            f"covariance Gram matrix is indefinite (min eigenvalue {lam_min:g}, "
            f"tolerance {-tol * scale:g})"
        )
    shift = max(0.0, -lam_min)
    factor = v * np.sqrt(w + shift)
    n = spec.sites.n
    out = np.empty((spec.n_replicates, n))
    for i in range(spec.n_replicates):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, i)))
        out[i] = factor @ rng.standard_normal(n)
    # (w[-1] + shift) / (w[0] + shift): a shift makes the denominator 0
    cond = float(w[-1]) / lam_min if lam_min > 0.0 else math.inf
    return out, {"diag_shift": shift, "seed": spec.seed,
                 "n_replicates": spec.n_replicates, "min_eigenvalue": lam_min,
                 "cond": cond}


def empirical_variogram(replicates: np.ndarray, pts: PointSet, bins):
    """Table of (lag_lo, lag_hi, count, gamma_hat) from simulated replicates.

    gamma_hat(bin) is the mean of (Z_i - Z_j)^2 / 2 over replicates and the
    site pairs whose distance falls in the bin; empty bins carry count 0 and
    NaN. count is the number of distinct site pairs in the bin.
    """
    z = np.asarray(replicates, dtype=float)
    if z.ndim != 2 or z.shape[1] != pts.n:
        raise ParameterError(
            f"replicates must have shape (R, {pts.n}), got {z.shape}"
        )
    iu, ju = np.triu_indices(pts.n, k=1)
    d = np.sqrt(((pts.coords[iu] - pts.coords[ju]) ** 2).sum(-1))
    if np.isscalar(bins):
        edges = np.linspace(0.0, float(d.max(initial=0.0)), int(bins) + 1)
    else:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ParameterError("bin edges must be strictly increasing")
    # per-pair sums of (Z_i - Z_j)^2 / 2 over replicates, one site row at a
    # time in the pair order of triu_indices, so temporaries are O(R n); the
    # differences are taken exactly, not from Gram sums that cancel
    zt = np.ascontiguousarray(z.T)
    sums = np.empty(iu.size)
    start = 0
    for i in range(pts.n - 1):
        diff = zt[i + 1:] - zt[i]
        sums[start:start + diff.shape[0]] = 0.5 * np.einsum("jr,jr->j", diff, diff)
        start += diff.shape[0]
    rows = []
    for b in range(edges.size - 1):
        lo, hi = float(edges[b]), float(edges[b + 1])
        if b == edges.size - 2:
            mask = (d >= lo) & (d <= hi)
        else:
            mask = (d >= lo) & (d < hi)
        count = int(mask.sum())
        gamma_hat = (float(sums[mask].sum() / (z.shape[0] * count)) if count
                     else float("nan"))
        rows.append((lo, hi, count, gamma_hat))
    return rows
