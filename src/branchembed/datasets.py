"""Data generators, the bundled iris table, and CSV ingestion.

All generators take an integer seed and draw from the
:class:`~branchembed.rng.SplitMix64` stream it names (see that module for
the exact word-to-variate mapping; seeds are taken modulo 2**64), so a
given seed reproduces the same matrix everywhere.  Multi-trial
experiments seed trial t with the base seed plus t.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Union

import numpy as np

from .errors import ConstantColumn, IoError, ParseError, RaggedRow
from .rng import SplitMix64

_BLOB_SDS = (0.5, 0.8, 1.0)
_BLOB_RANGE = (-10.0, 10.0)


@dataclass(frozen=True)
class LabeledData:
    """A float data matrix with optional integer class labels per row."""

    data: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if self.labels is not None:
            labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            if labels.shape != (data.shape[0],):
                raise ValueError("labels must have one entry per data row")
            object.__setattr__(self, "labels", labels)


def _check_integer(name: str, value) -> None:
    """Reject a size or seed that is not an integer (a bool or ``5.0``
    included) with a :class:`ValueError` naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def gaussian_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """A rows x cols matrix of independent standard normal values."""
    _check_integer("rows", rows)
    _check_integer("cols", cols)
    _check_integer("seed", seed)
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    return SplitMix64(seed).normals(rows * cols).reshape(rows, cols)


def blobs(n: int, seed: int) -> LabeledData:
    """Three 2-D Gaussian clusters totalling ``n`` points.

    Cluster centers are uniform in [-10, 10]^2 (drawn first, x then y per
    cluster) and the clusters use standard deviations 0.5, 0.8 and 1.0.
    Cluster sizes are as even as possible, earlier clusters taking the
    remainder; points are emitted cluster by cluster.
    """
    _check_integer("n", n)
    _check_integer("seed", seed)
    if n < 3:
        raise ValueError("need at least 3 points for 3 clusters")
    gen = SplitMix64(seed)
    lo, hi = _BLOB_RANGE
    centers = lo + (hi - lo) * gen.uniforms(6).reshape(3, 2)
    offsets = gen.normals(2 * n).reshape(n, 2)
    base, extra = divmod(n, 3)
    sizes = [base + (1 if k < extra else 0) for k in range(3)]
    data = np.empty((n, 2))
    labels = np.empty(n, dtype=np.int64)
    at = 0
    for k, size in enumerate(sizes):
        data[at:at + size] = centers[k] + _BLOB_SDS[k] * offsets[at:at + size]
        labels[at:at + size] = k
        at += size
    return LabeledData(data, labels)


def s_curve(n: int, seed: int) -> np.ndarray:
    """``n`` points on the classic 3-D S-shaped sheet.

    With t uniform in [-3pi/2, 3pi/2) and v uniform in [0, 2) (all t drawn
    first, then all v), each point is (sin t, v, sign(t) * (cos t - 1)).
    """
    _check_integer("n", n)
    _check_integer("seed", seed)
    if n < 1:
        raise ValueError("need at least 1 point")
    gen = SplitMix64(seed)
    t = (3.0 * np.pi) * gen.uniforms(n) - 1.5 * np.pi
    v = 2.0 * gen.uniforms(n)
    return np.column_stack((np.sin(t), v, np.sign(t) * (np.cos(t) - 1.0)))


def iris() -> LabeledData:
    """The bundled four-feature iris table: 150 rows, classes 0/1/2 with
    50 rows each, in the canonical row order."""
    text = (resources.files("branchembed") / "data" / "iris.csv").read_text()
    return _parse_csv(text, "bundled iris.csv", True, 4)


def rescale_minmax(x) -> np.ndarray:
    """Rescale each column linearly onto [0, 1].  A matrix with no rows
    or holding inf or NaN raises ValueError, and a constant column,
    which has no range to map, raises :class:`ConstantColumn`.  A column
    whose span overflows is first multiplied by the exact power of two
    that brings its largest magnitude into [0.5, 1); every other column
    keeps its bits."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D data matrix, got ndim={x.ndim}")
    if not len(x):
        raise ValueError("data matrix has no rows")
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    # inf and NaN reach a column's minimum or maximum.
    if not (np.isfinite(mins).all() and np.isfinite(maxs).all()):
        raise ValueError("data matrix must be finite")
    with np.errstate(over="ignore"):
        spans = maxs - mins
    flat = np.flatnonzero(spans == 0.0)
    if flat.size:
        raise ConstantColumn(int(flat[0]))
    wide = spans == np.inf
    if wide.any():
        top = np.maximum(np.abs(mins), np.abs(maxs))
        shift = np.where(wide, -np.frexp(top)[1], 0)
        x = np.ldexp(x, shift)
        mins = np.ldexp(mins, shift)
        spans = np.ldexp(maxs, shift) - mins
    return (x - mins) / spans


def load_csv(path, has_header: bool = False,
             label_column: Union[int, str, None] = None) -> LabeledData:
    """Read a numeric CSV into a :class:`LabeledData`.

    ``label_column`` picks one column (by 0-based index, or by name when
    ``has_header``) to strip out as integer labels.  Raises
    :class:`IoError` if the file cannot be read, :class:`RaggedRow` if a
    row's width differs from the first row's, and :class:`ParseError` for
    non-numeric cells and for label cells that are not integers within
    int64, all with 1-based line numbers.
    """
    if isinstance(label_column, str) and not has_header:
        raise ValueError("a named label column requires has_header=True")
    try:
        with open(path, "r", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(path, exc.strerror or str(exc)) from None
    return _parse_csv(text, str(path), has_header, label_column)


def _parse_csv(text: str, origin: str, has_header: bool,
               label_column: Union[int, str, None]) -> LabeledData:
    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    label_idx: Optional[int] = None if isinstance(label_column, str) else label_column
    start_line = 1
    lines = list(csv.reader(text.splitlines()))
    if has_header:
        if not lines:
            raise ParseError(1, f"{origin} is empty")
        header = [cell.strip() for cell in lines[0]]
        if isinstance(label_column, str):
            try:
                label_idx = header.index(label_column)
            except ValueError:
                raise ParseError(
                    1, f"no column named {label_column!r} in {origin}"
                ) from None
        start_line = 2
        lines = lines[1:]
    for lineno, cells in enumerate(lines, start_line):
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            continue
        if width is None:
            width = len(cells)
            if label_idx is not None and not 0 <= label_idx < width:
                raise ParseError(
                    lineno, f"label column {label_idx} out of range"
                )
        elif len(cells) != width:
            raise RaggedRow(
                lineno, f"expected {width} fields, got {len(cells)}"
            )
        values = []
        for col, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    lineno, f"field {col}: not a number: {cell.strip()!r}"
                ) from None
            if col == label_idx:
                if not (value.is_integer() and -2**63 <= value < 2**63):
                    raise ParseError(
                        lineno,
                        f"field {col}: label must be an integer: "
                        f"{cell.strip()!r}",
                    )
                labels.append(int(value))
            else:
                values.append(value)
        rows.append(values)
    if not rows:
        raise ParseError(start_line, f"no data rows in {origin}")
    data = np.array(rows)
    return LabeledData(data, np.array(labels, dtype=np.int64)
                       if label_idx is not None else None)
