"""Ordinary kriging, Gaussian field simulation, and the empirical variogram.

The kriging system is the bordered form

    [ K  1 ] [ w  ]   [ k0 ]
    [ 1' 0 ] [ mu ] = [ 1  ]

with K the variogram or covariance matrix on the data sites and k0 the
model values against the target. The sparse path factorizes the inner block
(compactly supported covariances only) and eliminates the border by a Schur
complement, so sparse and dense weights agree to solver accuracy.

Simulation factorizes the covariance Gram matrix by eigendecomposition,
repairing tolerance-level negative eigenvalues with a recorded diagonal
shift, and draws each replicate from its own seed stream derived from
(seed, replicate index) so results never depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .errors import DegenerateSystemError, ParameterError
from .models import StationaryCovariance, Variogram
from .points import PointSet

__all__ = [
    "KrigingResult",
    "SimulationSpec",
    "build_gamma_matrix",
    "ordinary_kriging",
    "simulate_field",
    "empirical_variogram",
]


@dataclass(frozen=True)
class KrigingResult:
    prediction: float
    weights: np.ndarray
    lagrange: float
    mode: str

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

    Sparse storage keeps only nonzero covariance entries; neighbor pairs are
    found on the anisotropy-transformed coordinates, so truncation matches
    the model's own radial argument exactly.
    """
    if mode == "dense":
        return np.asarray(model(pts.lags()), dtype=float)
    if mode != "sparse":
        raise ParameterError("mode must be dense | sparse")
    radius = _require_sparse_support(model)
    y = pts.coords @ model.anisotropy.T
    pairs = cKDTree(y).query_pairs(radius, output_type="ndarray")
    diag = float(model(np.zeros((1, pts.d)))[0])
    rows = [np.arange(pts.n)]
    cols = [np.arange(pts.n)]
    vals = [np.full(pts.n, diag)]
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


def _check_sites(pts: PointSet) -> None:
    if pts.values is None:
        raise ParameterError("kriging needs observed values at the sites")
    if len(np.unique(pts.coords, axis=0)) < pts.n:
        raise DegenerateSystemError("duplicate sites make the system singular")


def ordinary_kriging(model, pts: PointSet, target, mode: str = "dense") -> KrigingResult:
    """Best linear unbiased prediction at the target with unit-sum weights."""
    _check_sites(pts)
    target = np.asarray(target, dtype=float).reshape(pts.d)
    k0 = np.asarray(model(target[None, :] - pts.coords), dtype=float)
    n = pts.n
    if mode == "dense":
        k = build_gamma_matrix(model, pts, "dense")
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = k
        bordered[:n, n] = 1.0
        bordered[n, :n] = 1.0
        rhs = np.concatenate([k0, [1.0]])
        try:
            sol = np.linalg.solve(bordered, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(f"kriging system is singular: {exc}") from None
        resid = float(np.abs(bordered @ sol - rhs).max())
        if not np.isfinite(sol).all() or resid > 1e-6 * max(1.0, float(np.abs(rhs).max())):
            raise DegenerateSystemError(
                f"kriging system is numerically singular (residual {resid:g})"
            )
        weights, mu = sol[:n], float(sol[n])
    elif mode == "sparse":
        k = build_gamma_matrix(model, pts, "sparse")
        try:
            lu = splu(k)
        except RuntimeError as exc:
            raise DegenerateSystemError(f"sparse factorization failed: {exc}") from None
        x = lu.solve(k0)
        y = lu.solve(np.ones(n))
        denom = float(np.ones(n) @ y)
        if abs(denom) < 1e-300:
            raise DegenerateSystemError("border elimination degenerate: 1' K^-1 1 = 0")
        mu = float((np.ones(n) @ x - 1.0) / denom)
        weights = x - mu * y
    else:
        raise ParameterError("mode must be dense | sparse")
    prediction = float(weights @ pts.values)
    return KrigingResult(prediction, weights, mu, mode)


def simulate_field(spec: SimulationSpec, tol: float = 1e-8):
    """Draw Gaussian replicates with the model's Gram matrix as covariance.

    Returns (replicates, info): replicates has shape (n_replicates, n sites);
    info records the diagonal shift used to repair tolerance-level negative
    eigenvalues. A Gram matrix indefinite beyond tolerance is an error, not
    repaired silently.
    """
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
    return out, {"diag_shift": shift, "seed": spec.seed,
                 "n_replicates": spec.n_replicates}


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
    if np.isscalar(bins):
        diff = pts.lags()
        dmax = float(np.sqrt((diff * diff).sum(-1)).max())
        edges = np.linspace(0.0, dmax, int(bins) + 1)
    else:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ParameterError("bin edges must be strictly increasing")
    iu, ju = np.triu_indices(pts.n, k=1)
    d = np.sqrt(((pts.coords[iu] - pts.coords[ju]) ** 2).sum(-1))
    sq = 0.5 * (z[:, iu] - z[:, ju]) ** 2  # (R, n_pairs)
    rows = []
    for b in range(edges.size - 1):
        lo, hi = float(edges[b]), float(edges[b + 1])
        if b == edges.size - 2:
            mask = (d >= lo) & (d <= hi)
        else:
            mask = (d >= lo) & (d < hi)
        count = int(mask.sum())
        gamma_hat = float(sq[:, mask].mean()) if count else float("nan")
        rows.append((lo, hi, count, gamma_hat))
    return rows
