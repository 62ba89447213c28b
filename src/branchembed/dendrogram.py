"""Dendrogram data model, validation, and tree-derived pairwise matrices.

A dendrogram over ``n`` leaves is an ordered table of ``n - 1`` merge
records.  Leaves carry ids ``0 .. n-1``; the k-th record (0-based) merges
two existing nodes into a new internal node with id ``n + k``, so the last
record creates the root.  Each record stores the two child ids, the height
of the merge, and the leaf count of the merged cluster.

Heights must be nonnegative and, along every branch, no lower than the
heights of the children being merged (a tiny relative slack absorbs
floating-point round-off from clustering updates).  Under that monotonicity
the cophenetic matrix derived here is an ultrametric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DendrogramError,
    DuplicateChild,
    ForwardReference,
    NegativeHeight,
    NonMonotonic,
    ParseError,
    SizeMismatch,
)

# Relative slack when checking parent >= child heights; round-off in
# weighted-average cluster updates can undershoot by a few ulps.
_HEIGHT_SLACK = 1e-12


class MergeRecord(NamedTuple):
    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class CondensedMatrix:
    """Strict upper triangle of a symmetric pairwise matrix over ``n`` items.

    Values are stored row-major: (0,1), (0,2), ..., (0,n-1), (1,2), ...
    All values must be finite; the triangle is validated and frozen on
    construction.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a condensed matrix needs at least 2 items")
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        expected = self.n * (self.n - 1) // 2
        if values.shape != (expected,):
            raise ValueError(
                f"expected {expected} condensed values for n={self.n}, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("condensed values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def index(self, i: int, j: int) -> int:
        """Flat index of the unordered pair (i, j), i != j."""
        if i == j:
            raise ValueError("diagonal entries are not stored")
        lo, hi = (i, j) if i < j else (j, i)
        if lo < 0 or hi >= self.n:
            raise IndexError(f"pair ({i}, {j}) out of range for n={self.n}")
        return lo * (2 * self.n - lo - 1) // 2 + (hi - lo - 1)

    def value(self, i: int, j: int) -> float:
        return float(self.values[self.index(i, j)])

    def to_square(self) -> np.ndarray:
        """Full symmetric matrix with a zero diagonal."""
        n = self.n
        sq = np.zeros((n, n))
        pos = 0
        for i in range(n - 1):
            row = self.values[pos:pos + n - 1 - i]
            sq[i, i + 1:] = row
            sq[i + 1:, i] = row
            pos += n - 1 - i
        return sq

    @classmethod
    def from_square(cls, square: np.ndarray) -> "CondensedMatrix":
        sq = np.asarray(square, dtype=np.float64)
        if sq.ndim != 2 or sq.shape[0] != sq.shape[1]:
            raise ValueError("expected a square matrix")
        iu, ju = np.triu_indices(sq.shape[0], 1)
        return cls(sq.shape[0], sq[iu, ju])


@dataclass(frozen=True)
class Dendrogram:
    """A validated merge table in array form (construct via
    :func:`validate_dendrogram` or the clustering routines)."""

    n_leaves: int
    left: np.ndarray
    right: np.ndarray
    height: np.ndarray
    size: np.ndarray

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_leaves - 1

    @property
    def root(self) -> int:
        return self.n_nodes - 1

    def records(self) -> Iterator[MergeRecord]:
        for k in range(self.n_leaves - 1):
            yield MergeRecord(
                int(self.left[k]), int(self.right[k]),
                float(self.height[k]), int(self.size[k]),
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dendrogram):
            return NotImplemented
        return (
            self.n_leaves == other.n_leaves
            and np.array_equal(self.left, other.left)
            and np.array_equal(self.right, other.right)
            and np.array_equal(self.height, other.height)
            and np.array_equal(self.size, other.size)
        )


def validate_dendrogram(merges: Sequence, n_leaves: int) -> Dendrogram:
    """Check a merge table and return it as a :class:`Dendrogram`.

    ``merges`` is any sequence of ``(left, right, height, size)`` records,
    including an ``(n-1, 4)`` array.  Raises a :class:`DendrogramError`
    subclass naming the first offending record: :class:`ForwardReference`,
    :class:`DuplicateChild`, :class:`NegativeHeight`, :class:`SizeMismatch`
    or :class:`NonMonotonic`.
    """
    if n_leaves < 2:
        raise DendrogramError(f"need at least 2 leaves, got {n_leaves}")
    if len(merges) != n_leaves - 1:
        raise DendrogramError(
            f"expected {n_leaves - 1} merge records for {n_leaves} leaves, "
            f"got {len(merges)}"
        )
    n_nodes = 2 * n_leaves - 1
    left = np.empty(n_leaves - 1, dtype=np.int64)
    right = np.empty(n_leaves - 1, dtype=np.int64)
    height = np.empty(n_leaves - 1, dtype=np.float64)
    size = np.empty(n_leaves - 1, dtype=np.int64)
    used = bytearray(n_nodes)
    node_size = [1] * n_leaves + [0] * (n_leaves - 1)
    node_height = [0.0] * n_nodes

    for k, record in enumerate(merges):
        try:
            l_raw, r_raw, h, s_raw = record
        except (TypeError, ValueError):
            raise DendrogramError(f"record {k}: expected 4 fields", record=k)
        l, r, s = int(l_raw), int(r_raw), int(s_raw)
        h = float(h)
        if l != l_raw or r != r_raw or s != s_raw:
            raise DendrogramError(
                f"record {k}: ids and sizes must be integers", record=k
            )
        limit = n_leaves + k
        for child in (l, r):
            if child < 0 or child >= limit:
                raise ForwardReference(
                    f"record {k}: child {child} does not exist yet "
                    f"(valid ids are 0..{limit - 1})",
                    record=k,
                )
        if l == r:
            raise DuplicateChild(
                f"record {k}: children are both node {l}", record=k
            )
        for child in (l, r):
            if used[child]:
                raise DuplicateChild(
                    f"record {k}: node {child} already has a parent", record=k
                )
        if not h >= 0.0:  # also catches NaN
            raise NegativeHeight(f"record {k}: height {h!r} < 0", record=k)
        expected = node_size[l] + node_size[r]
        if s != expected:
            raise SizeMismatch(
                f"record {k}: size {s} != {node_size[l]} + {node_size[r]}",
                record=k,
            )
        for child in (l, r):
            ch = node_height[child]
            if h < ch - _HEIGHT_SLACK * max(1.0, abs(ch)):
                raise NonMonotonic(
                    f"record {k}: height {h!r} below child height {ch!r}",
                    record=k,
                )
        used[l] = used[r] = 1
        node_size[limit] = expected
        node_height[limit] = h
        left[k], right[k], height[k], size[k] = l, r, h, s

    for arr in (left, right, height, size):
        arr.setflags(write=False)
    return Dendrogram(n_leaves, left, right, height, size)


def _pair_matrices(d: Dendrogram, want_coph: bool, want_kin: bool):
    """Fill cophenetic and/or kinship condensed vectors in one traversal.

    Every leaf pair (i, j) meets at exactly one merge record (their lowest
    common ancestor), so iterating records and writing all cross pairs of
    the two child leaf sets touches each condensed slot exactly once.
    """
    n = d.n_leaves
    m = n * (n - 1) // 2
    coph = np.empty(m) if want_coph else None
    kin = np.empty(m) if want_kin else None
    depth = None
    if want_kin:
        depth = np.zeros(d.n_nodes, dtype=np.int64)
        for k in range(n - 2, -1, -1):
            parent_depth = depth[n + k] + 1
            depth[d.left[k]] = parent_depth
            depth[d.right[k]] = parent_depth

    leafsets: list = [np.array([i], dtype=np.int64) for i in range(n)]
    leafsets.extend([None] * (n - 1))
    two_n = 2 * n
    for k in range(n - 1):
        a = leafsets[d.left[k]]
        b = leafsets[d.right[k]]
        ii = a[:, None]
        jj = b[None, :]
        # idx = lo * (2n - lo - 1) // 2 + (hi - lo - 1), built in place so
        # that at most three a x b integer arrays are alive at once.
        lo = np.minimum(ii, jj)
        idx = np.maximum(ii, jj)
        idx -= lo
        idx -= 1
        lo *= two_n - 1 - lo
        lo //= 2
        idx += lo
        del lo
        if want_coph:
            coph[idx] = d.height[k]
        if want_kin:
            kin[idx] = depth[a][:, None] + depth[b][None, :] - 2 * depth[n + k]
        leafsets[n + k] = np.concatenate((a, b))
    return coph, kin


def cophenetic_matrix(d: Dendrogram) -> CondensedMatrix:
    """Pairwise merge heights: entry (i, j) is the height of the lowest
    common ancestor of leaves i and j."""
    coph, _ = _pair_matrices(d, True, False)
    return CondensedMatrix(d.n_leaves, coph)


def kinship_matrix(d: Dendrogram) -> CondensedMatrix:
    """Pairwise tree path lengths: entry (i, j) counts the edges on the
    leaf-to-leaf path through the lowest common ancestor."""
    _, kin = _pair_matrices(d, False, True)
    return CondensedMatrix(d.n_leaves, kin)


def _dfs_leaves_and_gaps(d: Dendrogram):
    """Depth-first leaf order plus, for each adjacent pair in that order,
    the height of the node separating them."""
    n = d.n_leaves
    order: list[int] = []
    gaps: list[float] = []
    # Work stack holds leaf/internal ids and (gap marker, height) entries;
    # the marker pops exactly between a node's left and right leaf blocks.
    stack: list = [d.root]
    left, right, height = d.left, d.right, d.height
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            gaps.append(item[1])
        elif item < n:
            order.append(item)
        else:
            k = item - n
            stack.append(int(right[k]))
            stack.append((None, float(height[k])))
            stack.append(int(left[k]))
    return order, gaps


def leaf_order(d: Dendrogram) -> list[int]:
    """Left-to-right leaf ids from a depth-first walk that always visits
    the ``left`` child first."""
    order, _ = _dfs_leaves_and_gaps(d)
    return order


def parse_merge_table(text: str) -> Dendrogram:
    """Parse the plain-text merge format: one ``left,right,height,size``
    record per line, k-th line creating node ``n + k``.

    Blank lines are ignored.  Raises :class:`ParseError` with the 1-based
    line number on malformed records, then validates the table.
    """
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split(",")
        if len(parts) != 4:
            raise ParseError(lineno, f"expected 4 fields, got {len(parts)}")
        try:
            record = (int(parts[0]), int(parts[1]),
                      float(parts[2]), int(parts[3]))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        records.append(record)
    if not records:
        raise ParseError(1, "no merge records found")
    return validate_dendrogram(records, len(records) + 1)


def serialize_merge_table(d: Dendrogram) -> str:
    """Canonical text form of the merge table, one record per line with
    heights at 17 significant digits (lossless for doubles)."""
    lines = [
        f"{rec.left},{rec.right},{rec.height:.17g},{rec.size}"
        for rec in d.records()
    ]
    return "\n".join(lines) + "\n"
