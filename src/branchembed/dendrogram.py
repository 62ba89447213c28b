"""Dendrogram data model, validation, and tree-derived pairwise matrices.

A dendrogram over ``n`` leaves is an ordered table of ``n - 1`` merge
records.  Leaves carry ids ``0 .. n-1``; the k-th record (0-based) merges
two existing nodes into a new internal node with id ``n + k``, so the last
record creates the root.  Each record stores the two child ids, the height
of the merge, and the leaf count of the merged cluster.

Heights must be finite and nonnegative and, along every branch, no lower
than the heights of the children being merged (a tiny relative slack
absorbs floating-point round-off from clustering updates).  Under that
monotonicity the cophenetic matrix derived here is an ultrametric.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
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
    SizeLimit,
    SizeMismatch,
)

# Relative slack when checking parent >= child heights; round-off in
# weighted-average cluster updates can undershoot by a few ulps.
_HEIGHT_SLACK = 1e-12


# Bytes of physical memory, read once (inf where the OS does not tell).
# An array larger than this could never be held, so the n x n matrices
# and the pair vectors are refused before allocation.
try:
    _MEMORY_LIMIT = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
except (AttributeError, OSError, ValueError):
    _MEMORY_LIMIT = math.inf


def _check_size(what: str, nbytes: int) -> None:
    """Raise :class:`SizeLimit` if ``what``, arrays of ``nbytes`` bytes
    in all, is larger than physical memory."""
    if nbytes > _MEMORY_LIMIT:
        raise SizeLimit(what, nbytes, _MEMORY_LIMIT)


def _copy_rows(values: np.ndarray, sq: np.ndarray) -> None:
    """Copy the condensed ``values`` of n items into both triangles of
    the n x n ``sq`` one row at a time, with no temporary; the diagonal
    is left as it is."""
    n = sq.shape[0]
    e = 0
    for r in range(n - 1):
        s, e = e, e + n - 1 - r
        sq[r, r + 1:] = sq[r + 1:, r] = values[s:e]


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
        # NaN propagates through min and max; neither makes a temporary.
        if not (math.isfinite(values.min()) and math.isfinite(values.max())):
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
        sq = np.zeros((self.n, self.n))
        _copy_rows(self.values, sq)
        return sq

    @classmethod
    def from_square(cls, square: np.ndarray) -> "CondensedMatrix":
        """The strict upper triangle of ``square``, gathered row by row."""
        sq = np.asarray(square, dtype=np.float64)
        if sq.ndim != 2 or sq.shape[0] != sq.shape[1]:
            raise ValueError("expected a square matrix")
        rows = [sq[r, r + 1:] for r in range(sq.shape[0] - 1)]
        return cls(sq.shape[0], np.concatenate(rows or [np.empty(0)]))


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
    or :class:`NonMonotonic`, or a plain :class:`DendrogramError` for an
    infinite height.
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
        try:
            l, r, s = int(l_raw), int(r_raw), int(s_raw)
            integral = l == l_raw and r == r_raw and s == s_raw
        except (OverflowError, TypeError, ValueError):  # inf, NaN, non-number
            integral = False
        h = float(h)
        if not integral:
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
        if h == math.inf:
            raise DendrogramError(f"record {k}: height is infinite", record=k)
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

    return _frozen(n_leaves, left, right, height, size)


@np.errstate(invalid="ignore")
def _valid_records(left, right, height, size, n_leaves: int) -> np.ndarray:
    """Which of B merge tables pass :func:`validate_dendrogram`, given as
    (B, n-1) arrays: int64 ``left``, ``right`` and ``size``, float64
    ``height``.  Returns a (B,) bool array.

    Record k's children must be ids below ``n + k``, no node may be a
    child twice (which also rules out a record merging a node with
    itself), heights must be finite and nonnegative, each size the sum
    of its children's and each height no lower than a child's minus the
    same :data:`_HEIGHT_SLACK` that :func:`validate_dendrogram` allows.
    A tree whose every record passes has true sizes, so no sum can wrap.
    """
    b = left.shape[0]
    n = n_leaves
    limit = np.arange(n, 2 * n - 1)
    ok = ((left >= 0) & (left < limit) & (right >= 0)
          & (right < limit)).all(axis=1)
    ok &= ((height >= 0.0) & (height < math.inf)).all(axis=1)
    # Out-of-range ids already failed; clip them so the gathers are safe.
    left = np.clip(left, 0, 2 * n - 2)
    right = np.clip(right, 0, 2 * n - 2)
    children = np.concatenate((left, right), axis=1)
    children += (2 * n - 1) * np.arange(b)[:, None]
    uses = np.bincount(children.ravel(), minlength=b * (2 * n - 1))
    ok &= (uses.reshape(b, 2 * n - 1) <= 1).all(axis=1)
    node_size = np.concatenate((np.ones((b, n), dtype=np.int64), size),
                               axis=1)
    ok &= (np.take_along_axis(node_size, left, axis=1)
           + np.take_along_axis(node_size, right, axis=1) == size).all(axis=1)
    node_height = np.concatenate((np.zeros((b, n)), height), axis=1)
    for child in (left, right):
        ch = np.take_along_axis(node_height, child, axis=1)
        ok &= (height >= ch - _HEIGHT_SLACK * np.maximum(1.0, np.abs(ch))
               ).all(axis=1)
    return ok


def _frozen(n_leaves: int, left, right, height, size) -> Dendrogram:
    """A :class:`Dendrogram` of already validated arrays, made read-only."""
    for arr in (left, right, height, size):
        arr.setflags(write=False)
    return Dendrogram(n_leaves, left, right, height, size)


# Pairs per chunk of a condensed fill; a chunk holds whole rows, so a row
# longer than this is one chunk on its own.
_PAIR_CHUNK = 8192


def _pair_chunks(n: int, pairs: int | None = None):
    """Walk the pairs i < j of n items in condensed order, a chunk of
    whole rows of at most ``pairs`` pairs (default :data:`_PAIR_CHUNK`)
    at a time.  Returns an iterable of ``(s, e, i, j)``: the chunk's
    condensed slice ``s:e`` and read-only int64 arrays of its pairs'
    item ids.  A walk that is one chunk (n <= 128 at the default) is
    made once per n and reused."""
    if pairs is None:
        pairs = _PAIR_CHUNK
    if n * (n - 1) // 2 > pairs:
        return _walk(n, pairs)
    return (_whole_walk(n),)


@functools.lru_cache(maxsize=8)
def _whole_walk(n: int) -> tuple:
    """The one chunk of :func:`_pair_chunks` over all pairs of n items."""
    chunk = next(_walk(n, n * (n - 1) // 2))
    for ids in chunk[2:]:
        ids.setflags(write=False)
    return chunk


def _walk(n: int, pairs: int):
    """The chunks of :func:`_pair_chunks`, made as they are walked."""
    row_start = [r * (2 * n - r - 1) // 2 for r in range(n)]
    starts = np.array(row_start, dtype=np.int64)
    r0 = 0
    while r0 < n - 1:
        r1 = max(r0 + 1,
                 bisect.bisect_right(row_start, row_start[r0] + pairs)
                 - 1)
        s, e = row_start[r0], row_start[r1]
        counts = np.arange(n - 1 - r0, n - 1 - r1, -1)
        i = np.repeat(np.arange(r0, r1), counts)
        # Item j of each pair: its offset in the chunk, shifted per row.
        j = np.repeat(np.arange(r0 + 1, r1 + 1) - (starts[r0:r1] - s),
                      counts)
        j += np.arange(e - s)
        yield s, e, i, j
        r0 = r1


def _layout(d: Dendrogram):
    """Depth-first leaf layout from one top-down pass over the records.

    The left child comes first.  Returns, as int64 arrays, each leaf's
    position in the leaf order, each node's depth (edges below the root)
    and, for each of the n - 1 gaps between adjacent positions, the
    record whose left and right leaf blocks meet there.  A record's
    blocks meet at exactly one gap, so every record owns exactly one.
    """
    n = d.n_leaves
    left = d.left.tolist()
    right = d.right.tolist()
    size = [1] * n + d.size.tolist()
    start = [0] * (2 * n - 1)
    depth = [0] * (2 * n - 1)
    gap_record = [0] * (n - 1)
    for k in range(n - 2, -1, -1):
        node = n + k
        a = left[k]
        b = right[k]
        mid = start[node] + size[a]
        start[a] = start[node]
        start[b] = mid
        gap_record[mid - 1] = k
        depth[a] = depth[b] = depth[node] + 1
    return (np.array(start[:n], dtype=np.int64),
            np.array(depth, dtype=np.int64),
            np.array(gap_record, dtype=np.int64))


@functools.lru_cache(maxsize=8)
def _range_offsets(n: int) -> tuple:
    """Where the sparse table of :func:`_lca_table` over the n - 1 gaps
    of n leaves keeps each range.  Level j holds the n - 2**j minima of
    2**j gaps, and the levels are stored back to back.  A range of L
    gaps starting at gap lo is covered by two level-j blocks, j =
    floor(log2 L): the one starting at lo and the one ending at
    lo + L - 1.  Returns read-only int64 arrays ``first`` and ``step``
    such that their indices in the table are lo + first[L] and
    lo + first[L] + step[L]."""
    first = np.zeros(n, dtype=np.int64)
    step = np.zeros(n, dtype=np.int64)
    base = 0
    width = 1
    while width < n:
        lengths = np.arange(width, min(2 * width, n))
        first[lengths] = base
        step[lengths] = lengths - width
        base += n - width
        width *= 2
    first.setflags(write=False)
    step.setflags(write=False)
    return first, step


def _lca_table(d: Dendrogram) -> tuple:
    """What :func:`_lca_keys` looks lowest common ancestors up in:
    each leaf's position and depth, and the sparse table of gap keys
    ``depth << s | record`` laid out as :func:`_range_offsets` says.
    ``s = (n - 1).bit_length()`` bits hold every record id, at most
    n - 2."""
    n = d.n_leaves
    pos, depth, gap_record = _layout(d)
    level = depth[n:][gap_record]
    level <<= (n - 1).bit_length()
    level |= gap_record
    levels = [level]
    width = 1
    while 2 * width <= n - 1:
        level = np.minimum(level[:-width], level[width:])
        levels.append(level)
        width *= 2
    return pos, depth[:n], np.concatenate(levels)


def _lca_keys(lca: tuple, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The key ``depth << s | record`` of the lowest common ancestor of
    each pair of distinct leaves ``i[t]``, ``j[t]`` (int64 arrays), looked
    up in the tree's :func:`_lca_table` as :func:`_pair_matrices` says."""
    pos, _, table = lca
    first, step = _range_offsets(len(pos))
    # Each array is dropped before the next is made, so at most three
    # are alive at once.
    pi = pos.take(i)
    pj = pos.take(j)
    lo = np.minimum(pi, pj)
    np.subtract(pi, pj, out=pi)
    del pj
    span = np.abs(pi, out=pi)
    at = first.take(span)
    at += lo
    del lo
    far = step.take(span)
    far += at
    del pi, span
    key = table.take(at)
    del at
    np.minimum(key, table.take(far), out=key)
    return key


def _path_lengths(key: np.ndarray, lca: tuple, i: np.ndarray,
                  j: np.ndarray) -> np.ndarray:
    """:func:`_lca_keys`' ``key`` of the pairs ``i``, ``j`` turned, in
    place, into their kinship values: the integer path lengths
    ``depth[i] + depth[j] - 2 * depth[lca]``."""
    pos, leaf_depth, _ = lca
    key >>= (len(pos) - 1).bit_length()
    key *= -2
    key += leaf_depth.take(j)
    key += leaf_depth.take(i)
    return key


def _pair_matrices(d: Dendrogram, kinship: bool,
                   lca: tuple | None = None) -> np.ndarray:
    """Fill the cophenetic condensed vector, or the kinship one if
    ``kinship``.

    The lowest common ancestor of leaves i and j is the record owning the
    shallowest gap between their leaf positions (see :func:`_layout`).
    That gap is unique: two gaps of equal depth in the range would have
    the gap of their own common ancestor between them, at a smaller
    depth.  Each gap gets the key ``depth << s | record`` (see
    :func:`_lca_table`), which decodes by a mask and a shift.  A sparse
    table holds the minimum key of every range of 2**j gaps, and each
    pair costs two table lookups (Bender & Farach-Colton, *The LCA Problem
    Revisited*, 2000), made by :func:`_lca_keys`.  The pairs are filled
    in the chunks of :func:`_pair_chunks`, each with a fixed number of
    numpy calls, so the cost is O(n^2) time with the condensed vector
    plus O(n log n) and chunk temporaries of memory.  A caller that fills
    both vectors of a tree passes its :func:`_lca_table` to both calls.
    Cophenetic values are the stored merge heights and kinship values
    the integer path lengths of :func:`_path_lengths`, exactly.  Raises
    :class:`SizeLimit` before allocating a vector larger than physical
    memory.
    """
    n = d.n_leaves
    m = n * (n - 1) // 2
    _check_size("the pair vector", 8 * m)
    out = np.empty(m)
    if lca is None:
        lca = _lca_table(d)
    mask = (1 << (n - 1).bit_length()) - 1
    # Each chunk's temporaries are dropped before the walk makes the
    # next chunk's pairs.
    for s, e, i, j in _pair_chunks(n):
        key = _lca_keys(lca, i, j)
        if kinship:
            out[s:e] = _path_lengths(key, lca, i, j)
        else:
            # Every record id is in range, so the take may use "clip",
            # which writes straight to ``out``; "raise" fills a buffer
            # first.
            np.take(d.height, key & mask, out=out[s:e], mode="clip")
        del key
    return out


def cophenetic_matrix(d: Dendrogram) -> CondensedMatrix:
    """Pairwise merge heights: entry (i, j) is the height of the lowest
    common ancestor of leaves i and j."""
    return CondensedMatrix(d.n_leaves, _pair_matrices(d, False))


def kinship_matrix(d: Dendrogram) -> CondensedMatrix:
    """Pairwise tree path lengths: entry (i, j) counts the edges on the
    leaf-to-leaf path through the lowest common ancestor."""
    return CondensedMatrix(d.n_leaves, _pair_matrices(d, True))


def leaf_order(d: Dendrogram) -> list[int]:
    """Left-to-right leaf ids from a depth-first walk that always visits
    the ``left`` child first."""
    pos, _, _ = _layout(d)
    order = np.empty(d.n_leaves, dtype=np.int64)
    order[pos] = np.arange(d.n_leaves)
    return order.tolist()


def parse_merge_table(text: str) -> Dendrogram:
    """Parse the plain-text merge format: one ``left,right,height,size``
    record per line, k-th line creating node ``n + k``.

    Everything from ``#`` to the end of a line is a comment; blank and
    comment-only lines are ignored.  Raises :class:`ParseError` with the
    1-based line number on malformed records, then validates the table.
    """
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
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
