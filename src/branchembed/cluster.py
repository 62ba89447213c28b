"""Pairwise dissimilarities and agglomerative hierarchical clustering.

The clusterer is the generic stepwise algorithm: start from singletons,
repeatedly merge the closest active pair, and update the remaining
dissimilarities with the Lance-Williams recurrence for the chosen method.
Ward runs on squared dissimilarities internally and reports square-rooted
heights, so merging two singletons at dissimilarity h records height h for
every method.  Ties on the minimum are broken toward the lexicographically
smallest (smaller id, larger id) pair of cluster ids, which makes the
output deterministic for any input.

The closest pair is found from a cached minimum per matrix row, as in the
"generic" algorithm of Muellner (arXiv:1109.2378): the global minimum is
the smallest cached value, and the tie-break reads only the ids of the
rows holding it and the one row it picks.  After a merge, a row is
rescanned only if its minimum sat in one of the two merged columns and
the merged entry is larger than it.  A step with m active clusters
therefore costs O(m) plus O(m) per rescanned row, so typical inputs take
O(n^2) time, however many pairs tie; an input that makes most rows stale
at most steps (complete or average linkage can) takes up to O(n^3).
Memory is one n x n float64 matrix.  The merge arithmetic and the
tie-break are those of the stepwise full-matrix scan, so the merge tables
are equal to its, bit for bit.

At small n a step costs numpy call overhead rather than arithmetic, so
the benchmark reclusters many problems of one n at once through
:func:`_linkage_stack`: the same steps on a (B, n, n) stack of at most
:data:`_STACK_BYTES` (1.5 MiB, 19 problems at n = 100), whose trees
equal :func:`linkage`'s.  The stacked loop keeps a merged cluster in
the slot of one of its children and marks the other slot dead with inf,
so it moves no data between slots, and it checks all B trees at once with
:func:`~branchembed.dendrogram._valid_records`.  It has no error path of
its own: a stack of one, or a stack in which any problem fails, goes to
:func:`linkage` one problem at a time, so :func:`linkage` alone decides
every failure.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

from . import dendrogram as _dendrogram
from .dendrogram import (
    CondensedMatrix,
    Dendrogram,
    _pair_chunks,
    _upper_mask,
    validate_dendrogram,
)
from .errors import (
    BranchEmbedError,
    DissimilarityOverflow,
    LinkageOverflow,
    NegativeHeight,
    ZeroVarianceRow,
)

LINKAGE_METHODS = ("single", "complete", "average", "ward")
DISSIMILARITY_KINDS = ("euclidean", "correlation")


def _check_data(x) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D data matrix, got ndim={x.ndim}")
    n, p = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows, got {n}")
    if p < 1:
        raise ValueError("need at least 1 column")
    if not np.all(np.isfinite(x)):
        raise ValueError("data matrix must be finite")
    return x


def euclidean_dissimilarity(x) -> CondensedMatrix:
    """Condensed Euclidean distances between the rows of ``x``.

    Raises :class:`DissimilarityOverflow` if the squared distance between
    two rows exceeds the float64 range.
    """
    x = _check_data(x)
    n, p = x.shape
    out = np.empty(n * (n - 1) // 2)
    # A chunk gathers two rows of p values per pair, so wide data gets
    # proportionally fewer pairs per chunk.
    pairs = _dendrogram._PAIR_CHUNK * 8 // max(p, 8)
    with np.errstate(over="ignore"):
        for s, e, i, j in _pair_chunks(n, pairs):
            diff = x.take(j, axis=0)
            diff -= x.take(i, axis=0)
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            # Finite rows give no NaN, so an overflow shows as an
            # infinite maximum, and argmax finds its first pair.
            if math.isinf(dist.max()):
                k = int(np.argmax(dist))
                raise DissimilarityOverflow(int(i[k]), int(j[k]))
            out[s:e] = dist
    return CondensedMatrix(n, out)


def correlation_dissimilarity(x) -> CondensedMatrix:
    """Condensed ``1 - r`` where r is the Pearson correlation of two rows.

    Values lie in [0, 2]: 0 for perfectly positively correlated rows, 2 for
    perfectly anticorrelated ones.  Round-off can push 1 - r a few ulps
    outside that range, so the result is clamped back onto it.  A constant
    row has no defined correlation and raises :class:`ZeroVarianceRow`.
    """
    x = _check_data(x)
    n, p = x.shape
    if p < 2:
        raise ValueError("row correlation needs at least 2 columns")
    constant = np.all(x == x[:, :1], axis=1)
    if constant.any():
        raise ZeroVarianceRow(int(np.flatnonzero(constant)[0]))
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    unit = centered / norms[:, None]
    values = (unit @ unit.T)[_upper_mask(n)]
    np.subtract(1.0, values, out=values)
    return CondensedMatrix(n, np.clip(values, 0.0, 2.0, out=values))


def dissimilarity(kind: str, x) -> CondensedMatrix:
    """Condensed ``"euclidean"`` or ``"correlation"`` dissimilarities."""
    if kind == "euclidean":
        return euclidean_dissimilarity(x)
    if kind == "correlation":
        return correlation_dissimilarity(x)
    raise ValueError(f"unknown dissimilarity {kind!r}")


def check_condition(kind: str, method: str) -> None:
    """Reject an unknown dissimilarity kind or linkage method, and ward
    on correlation dissimilarities, which it is not defined for."""
    if kind not in DISSIMILARITY_KINDS:
        raise ValueError(f"unknown dissimilarity {kind!r}")
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}")
    if kind == "correlation" and method == "ward":
        raise ValueError(
            "ward requires Euclidean dissimilarities; "
            "the (correlation, ward) condition is not supported"
        )


def _lw_combine(method: str, row_i, row_j, ni: int, nj: int,
                sizes, d_ij: float) -> np.ndarray:
    """New dissimilarity row for the cluster formed from slots i and j."""
    if method == "single":
        return np.minimum(row_i, row_j)
    if method == "complete":
        return np.maximum(row_i, row_j)
    if method == "average":
        return (ni * row_i + nj * row_j) / (ni + nj)
    # ward, on squared dissimilarities
    nk = sizes
    return ((ni + nk) * row_i + (nj + nk) * row_j - nk * d_ij) / (ni + nj + nk)


def _square_stack(ds, method: str, dm: np.ndarray) -> np.ndarray:
    """Fill ``dm``, a (B, n, n) array, with the full matrices of ``ds``
    (all over the same n items), squared for ward, with an infinite
    diagonal; returns ``dm``."""
    n = ds[0].n
    mask = _upper_mask(n)
    for sq, d in zip(dm, ds):
        sq[mask] = d.values
        sq.T[mask] = d.values
    diag = np.arange(n)
    dm[:, diag, diag] = np.inf
    if method == "ward":
        dm *= dm
    return dm


# Ward squares its inputs, and average and ward add weighted rows, so
# large finite inputs can overflow.  An overflowed entry stays inf until
# its two clusters merge, so every overflow shows as a non-finite minimum.
@np.errstate(over="ignore", invalid="ignore")
def linkage(d0: CondensedMatrix, method: str) -> Dendrogram:
    """Agglomerative clustering of ``d0`` under the given linkage method.

    Returns a validated :class:`Dendrogram` whose records list the smaller
    child id first.  Ward heights assume Euclidean input distances; the
    function sees only the matrix, not how it was made, so it does not
    reject ward on correlation dissimilarities (:func:`check_condition`
    does).  Raises :class:`LinkageOverflow` if a merged dissimilarity
    (for ward, a squared one) exceeds the float64 range, and, under every
    method, :class:`NegativeHeight` at record 0 if ``d0`` holds a negative
    value.
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}")
    if method == "ward" and d0.values.min() < 0.0:
        # Squaring would hide the sign.  The other methods' first merge
        # is at the smallest value, so they fail at record 0 as well.
        low = float(d0.values.min())
        raise NegativeHeight(f"record 0: height {low!r} < 0", record=0)
    n = d0.n
    dm = _square_stack([d0], method, np.empty((1, n, n)))[0]
    # row_min[r] is the smallest entry of row r over the active columns.
    row_min = dm.min(axis=1)

    # Active clusters live in slots 0..m-1; a merge frees one slot, which
    # is refilled by the last active slot so scans shrink as we go.
    node_of = np.arange(n, dtype=np.int64)
    sizes = np.ones(n, dtype=np.int64)
    merges = []
    m = n
    for step in range(n - 1):
        mins = row_min[:m]
        val = mins.min()
        if not math.isfinite(val):
            raise LinkageOverflow(method, step)
        # Every row whose minimum is val holds a pair at val, and (the
        # matrix being symmetric) its partner is such a row too.  So the
        # tie-break's smaller id is the smallest id among those rows, and
        # its larger id the smallest id among that row's partners.  If
        # only two rows hold val, each is the other's partner.
        rows = (mins == val).nonzero()[0]
        if rows.size == 2:
            pi, pj = int(rows[0]), int(rows[1])
            if node_of[pi] > node_of[pj]:
                pi, pj = pj, pi
        else:
            pi = int(rows[node_of[rows].argmin()])
            cols = (dm[pi, :m] == val).nonzero()[0]
            pj = int(cols[node_of[cols].argmin()])
        best = (int(node_of[pi]), int(node_of[pj]))
        if pi > pj:
            pi, pj = pj, pi

        ni = int(sizes[pi])
        nj = int(sizes[pj])
        row_i = dm[pi, :m]
        row_j = dm[pj, :m]
        new_row = _lw_combine(method, row_i, row_j, ni, nj, sizes[:m], val)
        new_row[pi] = np.inf
        # Columns pi and pj leave every row and the merged entry takes
        # their place.  A row whose minimum sat in one of them (a minimum
        # is never above an entry, so it equals the smaller of the two)
        # and whose merged entry is larger must be rescanned; for every
        # other row the new minimum is the smaller of the old one and
        # the entry.
        stale = (mins == np.minimum(row_i, row_j)) & (new_row > mins)
        np.minimum(mins, new_row, out=mins)
        dm[pi, :m] = new_row
        dm[:m, pi] = new_row

        last = m - 1
        if pj != last:
            dm[pj, :m] = dm[last, :m]
            dm[:m, pj] = dm[:m, last]
            dm[pj, pj] = np.inf
            node_of[pj] = node_of[last]
            sizes[pj] = sizes[last]
            row_min[pj] = row_min[last]
            stale[pj] = stale[last]
        m = last
        stale[pi] = True
        redo = stale[:m].nonzero()[0]
        row_min[redo] = dm[redo, :m].min(axis=1)

        h = math.sqrt(val) if method == "ward" else float(val)
        merges.append((best[0], best[1], h, ni + nj))
        node_of[pi] = n + step
        sizes[pi] = ni + nj
    return validate_dendrogram(merges, n)


# Bytes of float64 matrix one stack in _linkage_stack may hold: 19
# problems at n=100, so the 18 reclusterings that the benchmark table's
# two conditions of one linkage method make per trial fit in one stack.
_STACK_BYTES = 3 << 19


def _linkage_stack(ds, method: str) -> list:
    """:func:`linkage` of every condensed matrix in ``ds`` (all over the
    same n items), as a list holding one :class:`Dendrogram` per problem,
    or the :class:`BranchEmbedError` that problem raised.

    Problems are stacked up to :data:`_STACK_BYTES` of matrices at a
    time and clustered by one loop whose numpy calls each serve the whole
    stack, which at small n costs far less than a loop per problem.  A
    stack of one, or a stack in which any problem fails, goes to
    :func:`linkage` one problem at a time.  The trees equal
    :func:`linkage`'s, bit for bit, and so do the errors.
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}")
    if not ds:
        return []
    n = ds[0].n
    if any(d.n != n for d in ds):
        raise ValueError("stacked problems must all have the same n")
    per_stack = max(1, _STACK_BYTES // (8 * n * n))
    out = []
    for s in range(0, len(ds), per_stack):
        part = ds[s:s + per_stack]
        trees = _stacked_linkage(part, method) if len(part) > 1 else None
        if trees is not None:
            out += trees
            continue
        for d in part:
            try:
                out.append(linkage(d, method))
            except BranchEmbedError as err:
                out.append(err)
    return out


@np.errstate(over="ignore", invalid="ignore")
def _stacked_linkage(ds, method: str) -> list | None:
    """The steps of :func:`linkage` on a (B, n, n) stack of problems.

    Each step takes the same cached row minima, the same tie-break (as a
    masked ``argmin`` over node ids) and the same Lance-Williams update
    as :func:`linkage`, for every problem at once.  Slots never move: the
    merged cluster keeps slot ``pa``, the slot of the tie-break's smaller
    id, and slot ``pb`` dies, its column and its row minimum set to inf,
    so rows keep length n and a dead slot is never picked or read as a
    minimum.  No value depends on slots (the tie-break reads node ids,
    and IEEE addition, multiplication, min and max are commutative), so
    the trees equal :func:`linkage`'s.  Returns the list of trees, or
    ``None`` if any ward problem holds a negative dissimilarity, as soon
    as any problem's minimum turns non-finite, or if any tree fails
    :func:`~branchembed.dendrogram._valid_records`.
    """
    if method == "ward" and min(d.values.min() for d in ds) < 0.0:
        return None
    n = ds[0].n
    # The stack gets an anonymous map of its own, which goes back to the
    # OS as soon as the stack is freed.  A stack from malloc is mapped
    # the first time, but glibc then raises its mmap threshold to the
    # freed stack's size and serves later stacks from the heap, which may
    # keep up to twice that size free and resident.  On the benchmark's
    # `table` workload that put peak RSS at 35.8-36.0 MiB in 4 of 5 runs
    # at seed 104729, past the 5% bound on `peak_rss_mib` (35.3 MiB over
    # the 33.6 MiB of one 9-problem stack per condition); with the map
    # it measured 34.8-35.1 MiB in 19 runs at seeds 0 and 104729.
    buf = mmap.mmap(-1, 8 * len(ds) * n * n)
    dm = _square_stack(ds, method, np.frombuffer(buf).reshape(len(ds), n, n))
    row_min = dm.min(axis=2)
    node_of = np.tile(np.arange(n, dtype=np.int64), (len(ds), 1))
    sizes = np.ones((len(ds), n), dtype=np.int64)
    # records[:, :, step] holds (left, right, size) of every problem's
    # merge at that step, heights[:, step] its height (squared for ward).
    records = np.empty((len(ds), 3, n - 1), dtype=np.int64)
    heights = np.empty((len(ds), n - 1))
    at = np.arange(len(ds))
    no_id = np.int64(2 * n)   # above every node id
    for step in range(n - 1):
        val = row_min.min(axis=1)
        if not np.isfinite(val).all():
            return None
        col_val = val[:, None]
        # Slot pa holds the smallest id among the rows at val, slot pb
        # the smallest id among that row's partners at val.
        pa = np.where(row_min == col_val, node_of, no_id).argmin(axis=1)
        row_a = dm[at, pa]
        pb = np.where(row_a == col_val, node_of, no_id).argmin(axis=1)
        row_b = dm[at, pb]
        na = sizes[at, pa][:, None]
        nb = sizes[at, pb][:, None]
        records[:, 0, step] = node_of[at, pa]
        records[:, 1, step] = node_of[at, pb]

        new_row = _lw_combine(method, row_a, row_b, na, nb, sizes, col_val)
        new_row[at, pa] = np.inf
        stale = (row_min == np.minimum(row_a, row_b)) & (new_row > row_min)
        np.minimum(row_min, new_row, out=row_min)
        dm[at, pa] = new_row
        dm[at, :, pa] = new_row
        dm[at, :, pb] = np.inf
        stale[at, pa] = True
        rb, rr = stale.nonzero()
        row_min[rb, rr] = dm[rb, rr].min(axis=1)
        row_min[at, pb] = np.inf

        merged = (na + nb)[:, 0]
        records[:, 2, step] = merged
        heights[:, step] = val
        node_of[at, pa] = n + step
        sizes[at, pa] = merged

    if method == "ward":
        np.sqrt(heights, out=heights)
    left, right, size = records[:, 0], records[:, 1], records[:, 2]
    if not _dendrogram._valid_records(left, right, heights, size, n).all():
        return None
    return [_dendrogram._frozen(n, *tree)
            for tree in zip(left, right, heights, size)]
