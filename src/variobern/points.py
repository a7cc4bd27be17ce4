"""Finite point sets in R^d and their CSV interchange format.

A site file is a comma-separated table read by the csv module's rules
(``"`` quotes a cell; a row ends at LF, CRLF or a lone CR). Rows whose
cells are all blank are skipped wherever they are. The first other row is
the header ``x1,...,xd``, with an optional trailing ``value`` column, its
cells stripped of whitespace. Each later row holds one number per header
column, read as ``float(cell.strip())``: surrounding whitespace, quotes and
underscores between digits (``3_0`` is 30) are accepted, and every value
must be finite. A bad file raises ParameterError for the first of these
faults: no header row; a header of another form; then, row by row in file
order, a row of the wrong length, and in that row, column by column, a cell
that is not a number or not finite (each with its line in the file, blank
lines counted, and the column name); and last, a header without data rows.
A cell longer than the csv module's field limit (131072 characters) is a
fault of its row wherever it is. Every message but the last names the file.

The common file, plain numbers one row per line, is parsed by numpy's C
reader (``np.loadtxt``), which gives the same doubles as ``float()``.
Only a file it refuses, or one with a non-finite value, is read cell by
cell with the csv module and ``float()``, which reads the other forms and
finds the first fault.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

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
    """Read a site file, in the format of the module docstring."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next((r for r in _rows(path, reader, 0) if "".join(r).strip()), None)
        header_line = reader.line_num
        body = fh.read()
    if header is None:
        raise ParameterError(f"{path}: file is empty")
    header = [c.strip() for c in header]
    with_values = header[-1] == "value"
    d = len(header) - 1 if with_values else len(header)
    if d < 1 or header != _expected_header(d, with_values):
        raise ParameterError(
            f"{path}: header must be x1,...,xd with an optional trailing "
            f"'value' column, got {header}"
        )
    data = None
    if body.strip():  # loadtxt warns on a body without rows
        try:
            # comments=None: a '#' row stays an error, as for float()
            data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        data = _parse_rows(path, header, body, header_line)
    if with_values:
        return PointSet(data[:, :d], data[:, d])
    return PointSet(data)


def _parse_rows(path, header: list[str], body: str, first_line: int) -> np.ndarray:
    """The (n, len(header)) table of body's non-blank csv rows, each cell read
    by float(). The first row of the wrong length, or cell that is not a
    finite number, in reading order raises ParameterError with its line in
    the file, where body starts after line first_line."""
    reader = csv.reader(io.StringIO(body, newline=""))
    data = []
    for row in _rows(path, reader, first_line):
        if not "".join(row).strip():
            continue
        i = first_line + reader.line_num
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
            data.append(v)
    return np.array(data, dtype=float).reshape(-1, len(header))


def _rows(path, reader, first_line: int):
    """reader's rows; a row the csv module refuses (a cell above its field
    limit) raises ParameterError with its line in the file, where reader
    starts after line first_line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParameterError(f"{path}: row {first_line + reader.line_num}: {exc}") from None


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
