"""Finite point sets in R^d and their CSV interchange format.

The on-disk format is a plain CSV with header ``x1,...,xd`` and an optional
trailing ``value`` column. Parsing is strict: a malformed file is reported
with the offending row number and column name.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import ParameterError

__all__ = ["PointSet", "read_points_csv", "write_points_csv", "sample_point_sets"]


@dataclass(frozen=True)
class PointSet:
    """n points in R^d, optionally with one observed value per point."""

    coords: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] < 1:
            raise ParameterError("coords must be an (n, d) array with n, d >= 1")
        if not np.all(np.isfinite(coords)):
            raise ParameterError("coords must be finite")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        if self.values is not None:
            values = np.asarray(self.values, dtype=float)
            if values.shape != (coords.shape[0],):
                raise ParameterError(
                    f"values must have shape ({coords.shape[0]},), "
                    f"got {values.shape}"
                )
            if not np.all(np.isfinite(values)):
                raise ParameterError("values must be finite")
            values = values.copy()
            values.flags.writeable = False
            object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def lags(self) -> np.ndarray:
        """All pairwise difference vectors, shape (n, n, d)."""
        return self.coords[:, None, :] - self.coords[None, :, :]

    def min_separation(self) -> float:
        diff = self.lags()
        dist = np.sqrt((diff * diff).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        return float(dist.min()) if self.n > 1 else np.inf


def _expected_header(d: int, with_values: bool) -> list[str]:
    head = [f"x{i + 1}" for i in range(d)]
    return head + ["value"] if with_values else head


def read_points_csv(path) -> PointSet:
    """Read a point set; header must be x1,...,xd with optional value column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        # each row with its line in the file, blank lines counted, for errors
        rows = [(reader.line_num, r) for r in reader if "".join(r).strip()]
    if not rows:
        raise ParameterError(f"{path}: file is empty")
    header = [c.strip() for c in rows[0][1]]
    with_values = header[-1] == "value"
    d = len(header) - 1 if with_values else len(header)
    if d < 1 or header != _expected_header(d, with_values):
        raise ParameterError(
            f"{path}: header must be x1,...,xd with an optional trailing "
            f"'value' column, got {header}"
        )
    body = rows[1:]
    try:
        # a ragged table fails in np.array, rows of one wrong length in reshape
        data = np.array([[float(c.strip()) for c in row] for _, row in body]
                        ).reshape(len(body), len(header))
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all():
        _raise_first_bad_cell(path, header, body)
    if with_values:
        return PointSet(data[:, :d], data[:, d])
    return PointSet(data)


def _raise_first_bad_cell(path, header: list[str], rows: list) -> NoReturn:
    """Raise ParameterError for the first of the (line, cells) rows of the
    wrong length, or cell that is not a finite number, in reading order."""
    for i, row in rows:
        cells = [c.strip() for c in row]
        if len(cells) != len(header):
            raise ParameterError(
                f"{path}: row {i} has {len(cells)} fields, expected {len(header)}"
            )
        for name, cell in zip(header, cells):
            try:
                v = float(cell)
            except ValueError:
                raise ParameterError(
                    f"{path}: row {i}, column '{name}': could not parse "
                    f"{cell!r} as a number"
                ) from None
            if not math.isfinite(v):
                raise ParameterError(
                    f"{path}: row {i}, column '{name}': value must be finite"
                )
    raise AssertionError("no bad cell in a table that failed to parse")


def write_points_csv(ps: PointSet, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_expected_header(ps.d, ps.values is not None))
        for i in range(ps.n):
            row = [repr(float(v)) for v in ps.coords[i]]
            if ps.values is not None:
                row.append(repr(float(ps.values[i])))
            w.writerow(row)


# consecutive rejections after which under about 0.1% of the box is free
_MAX_MISSES = 1000


def sample_point_sets(n_sets: int, n_points: int, d: int, seed: int,
                      box: float = 1.0, min_sep: float = 1e-3) -> list[PointSet]:
    """Seeded batches of uniform point sets with a minimum pair separation.

    Separation keeps the certification oracles away from duplicate-point
    degeneracies; resampling is by rejection, one point at a time. Random
    sequential placement jams below the density gate (at about 0.7476 of a
    line), so a point that misses _MAX_MISSES draws in a row raises
    ParameterError instead of looping on.
    """
    if min_sep >= box / max(2.0, n_points ** (1.0 / d)):
        raise ParameterError("min_sep too large for the requested density")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_sets):
        pts = np.empty((n_points, d))
        k = misses = 0
        while k < n_points:
            cand = rng.uniform(0.0, box, size=d)
            if k == 0 or np.sqrt(((pts[:k] - cand) ** 2).sum(axis=1)).min() >= min_sep:
                pts[k] = cand
                k += 1
                misses = 0
                continue
            misses += 1
            if misses == _MAX_MISSES:
                raise ParameterError(
                    f"min_sep too large: no room for point {k + 1} of {n_points} "
                    f"after {_MAX_MISSES} rejected draws in a row"
                )
        out.append(PointSet(pts))
    return out
