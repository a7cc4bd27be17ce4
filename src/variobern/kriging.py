"""Ordinary kriging, Gaussian field simulation, and the empirical variogram.

The kriging system is the bordered form

    [ K  1 ] [ w  ]   [ k0 ]
    [ 1' 0 ] [ mu ] = [ 1  ]

with K the variogram or covariance matrix on the data sites and k0 the
model values against the target. The system is factored once per call:
``krige_many`` assembles K once and solves every target as one column of a
matrix right-hand side. Both storage paths solve K [x | y] = [k0 | 1] with
one factor of K and then eliminate the border the same way: mu =
(1'x - 1) / 1'y and w = x - y mu (a Schur complement). Only the factor
differs. Dense K takes numpy's LU; sparse K (compactly supported covariances
only, covariance tapering in the sense of Furrer, Genton and Nychka, 2006)
takes SuperLU in symmetric mode: a minimum-degree ordering of K + K'
applied to rows and columns alike, and the diagonal pivot kept unless it
falls below _DIAG_PIVOT_THRESH of its column. So sparse and dense weights
agree to solver accuracy. Each result carries the kriging variance
(Cressie, *Statistics for Spatial Data*, 1993, section 3.2) and the
residual of its bordered system, max(|K w + mu - k0|, |1'w - 1|); a
residual above 1e-6 * max(1, max|k0|) raises DegenerateSystemError.
Duplicate sites, which make K singular, are refused before assembly: one
lexicographic sort of the sites puts equal ones side by side, and adjacent
rows are compared, so -0.0 and 0.0 are the same coordinate.

The sparse path imports scipy (neighbour search, sparse storage, SuperLU)
inside the functions that use it, and the dense path needs only numpy, so a
dense command never pays scipy's import, most of its start-up time.

Simulation factorizes the covariance Gram matrix by eigendecomposition,
repairing tolerance-level negative eigenvalues with a recorded diagonal
shift. Replicate i is drawn from its own seed stream, bit for bit the
stream of default_rng(SeedSequence((seed, i))); the streams are computed as
one hashed batch of seed words, set in turn on one reused PCG64. One matrix
product colours each fixed-size block of replicates, so a replicate never
depends on scheduling or on how many replicates are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atoms import _number
from .checks import kernel_matrix
from .errors import DegenerateSystemError, ParameterError
from .models import StationaryCovariance, Variogram, _finite_support
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
    residual of the target's bordered system, max(|K w + mu - k0|, |1'w - 1|),
    after the one factor of K and the border elimination.
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
        seed = _number(self.seed, "seed", int)
        n_replicates = _number(self.n_replicates, "replicate count", int)
        if seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {seed}")
        if n_replicates < 1:
            raise ParameterError("need at least one replicate")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "n_replicates", n_replicates)


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

    radius = _finite_support(model, "sparse mode")
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
    return coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(pts.n, pts.n),
    ).tocsc()


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
    c = pts.coords[np.lexsort(pts.coords.T)]
    if (c[1:] == c[:-1]).all(axis=1).any():
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
    rhs = np.column_stack([k0, np.ones(n)])
    if mode == "dense":
        try:
            xy = np.linalg.solve(k, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(f"kriging system is singular: {exc}") from None
    else:
        try:
            lu = splu(k, permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=_DIAG_PIVOT_THRESH,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise DegenerateSystemError(f"sparse factorization failed: {exc}") from None
        xy = lu.solve(rhs)
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


# replicates coloured per matrix product; a BLAS product's rounding depends
# on its shape, so every product has this many rows, the last zero-padded,
# and a replicate has the same bits whatever the replicate count
_COLOUR_ROWS = 64

# numpy's SeedSequence hash (O'Neill's seed_seq_fe, pool of 4 words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _seed_hash(const: int, mult: int):
    """One of SeedSequence's hash chains on uint32 arrays: each call maps
    x to ((x ^ c) * c') ^ ((x ^ c) * c' >> 16) with c' = c * mult, and
    moves the chain on to c'."""
    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hash_


def _stream_states(seed: int, r: int) -> np.ndarray:
    """(r, 4) uint64 words: row i is SeedSequence((seed, i)).generate_state(4, uint64).

    The hash runs once, on uint32 columns over i: the entropy is the 32-bit
    words of seed, least significant first, then the one word of i
    (i < 2**32), and the hash constants never depend on the data.
    """
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    entropy = [np.full(r, (seed >> k) & _MASK32, np.uint32)
               for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(r, dtype=np.uint32))
    hashmix = _seed_hash(_INIT_A, _MULT_A)

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros(r, np.uint32))
            for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out_hash = _seed_hash(_INIT_B, _MULT_B)
    words = np.stack([out_hash(pool[k % 4]) for k in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def simulate_field(spec: SimulationSpec, tol: float = 1e-8):
    """Draw Gaussian replicates with the model's Gram matrix as covariance.

    The model is radial, so checks.kernel_matrix fills its Gram matrix
    bitwise symmetric by construction, and eigh factors it as it is.
    Returns (replicates, info): replicates has shape (n_replicates, n sites),
    and row i is F g_i: F = V sqrt(diag(w) + shift) from the Gram matrix's
    eigenpairs (w, V), and g_i the standard normals of the stream
    default_rng(SeedSequence((seed, i))), bit for bit. The streams are made
    as one hashed batch of seed words (_stream_states), each set in turn on
    one reused PCG64 by its seeding rule. One matrix product colours each
    block of _COLOUR_ROWS rows.
    info records the diagonal shift used to repair tolerance-level negative
    eigenvalues, the smallest eigenvalue of the Gram matrix and the
    condition number of the shifted one (inf when it is singular). A Gram
    matrix indefinite beyond tolerance is an error, not repaired silently;
    tol must be positive and finite, as in the oracles.
    """
    if not 0 < tol < math.inf:
        raise ParameterError("tol must be positive and finite")
    gram = build_gamma_matrix(spec.model, spec.sites, "dense")
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
    r, b = spec.n_replicates, _COLOUR_ROWS
    g = np.zeros((-(-r // b) * b, spec.sites.n))
    bits = np.random.PCG64()
    rng = np.random.Generator(bits)
    for i, (s_hi, s_lo, q_hi, q_lo) in enumerate(_stream_states(spec.seed, r).tolist()):
        # PCG64 seeding: state 0, inc = 2 seq + 1, step, add the seed, step
        inc = (((q_hi << 64) | q_lo) << 1 | 1) & _MASK128
        state = ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=g[i])
    out = np.empty_like(g)
    for s in range(0, len(g), b):
        np.matmul(g[s:s + b], factor.T, out=out[s:s + b])
    out = out[:r]
    # (w[-1] + shift) / (w[0] + shift): a shift makes the denominator 0
    cond = float(w[-1]) / lam_min if lam_min > 0.0 else math.inf
    return out, {"diag_shift": shift, "seed": spec.seed,
                 "n_replicates": spec.n_replicates, "min_eigenvalue": lam_min,
                 "cond": cond}


def empirical_variogram(replicates: np.ndarray, pts: PointSet, bins):
    """Table of (lag_lo, lag_hi, count, gamma_hat) from simulated replicates.

    gamma_hat(bin) is the mean of (Z_i - Z_j)^2 / 2 over replicates and the
    site pairs whose distance falls in the bin; empty bins carry count 0 and
    NaN. count is the number of distinct site pairs in the bin. bins is a
    count >= 1 of even bins up to the largest distance, or strictly
    increasing bin edges.
    """
    z = np.asarray(replicates, dtype=float)
    if z.ndim != 2 or z.shape[1] != pts.n:
        raise ParameterError(
            f"replicates must have shape (R, {pts.n}), got {z.shape}"
        )
    iu, ju = np.triu_indices(pts.n, k=1)
    d = np.sqrt(((pts.coords[iu] - pts.coords[ju]) ** 2).sum(-1))
    if np.isscalar(bins):
        n_bins = _number(bins, "bin count", int)
        if n_bins < 1:
            raise ParameterError(f"bin count must be >= 1, got {n_bins}")
        edges = np.linspace(0.0, float(d.max(initial=0.0)), n_bins + 1)
    else:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ParameterError("bin edges must be strictly increasing")
    # per-pair sums of (Z_i - Z_j)^2 over replicates, one site row at a time
    # in the pair order of triu_indices: the differences are taken exactly,
    # not from Gram sums that cancel, into one (n - 1, R) buffer, and their
    # squares are summed straight into the pair sums
    zt = np.ascontiguousarray(z.T)
    buf = np.empty((pts.n - 1, zt.shape[1]))
    sums = np.empty(iu.size)
    start = 0
    for i in range(pts.n - 1):
        # from buf's top: stores into buf[i + 1:] would share the page offset
        # of the loads from zt[i + 1:] and stall on 4K aliasing
        diff = np.subtract(zt[i + 1:], zt[i], out=buf[:pts.n - 1 - i])
        np.einsum("jr,jr->j", diff, diff, out=sums[start:start + diff.shape[0]])
        start += diff.shape[0]
    sums *= 0.5
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
