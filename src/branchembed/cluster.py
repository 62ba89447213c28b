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
At n of a thousand or less a step costs numpy call overhead rather
than arithmetic, so :func:`_linkage_square` allocates its O(n) buffers once
and each step writes into them: the minimum is read at its ``argmin``,
:func:`_lw_combine` writes the merged row, and the stale-row mask is
built with ``out=`` arguments; single linkage builds none, as its merged
entry is the smaller of the two it replaces, so only the merged row can
go stale.  Each stale row is rescanned with its own ``argmin``, and the
slot that moves into the freed one takes its column from its row, the
matrix being symmetric.
Memory is one n x n float64 matrix, and a matrix that, with the
condensed input beside it, is larger than physical memory raises
:class:`~branchembed.errors.SizeLimit` before it is allocated.  The merge arithmetic and the tie-break are those of the
stepwise full-matrix scan, so the merge tables are equal to its, bit for
bit.

Two-column data under correlation needs no matrix at all: every value
is exactly 0 or 2, so single, complete and average linkage all give the
tree that the tie-break alone fixes, which :func:`_sides_tree` builds in
O(n), valid by construction.

:func:`_cluster_stack` is the one dispatch that the library, the CLI and
the benchmark use to cluster data.  A problem is ``(x, kind, method)``,
and its result is what ``linkage(dissimilarity(kind, x), method)``
returns or raises, bit for bit, short of the memory limit (see
:func:`_cluster_stack`); :func:`_cluster_data` is a call with one
problem, which raises the error.  Problems with a closed form take it.
At small n a step costs numpy call overhead rather than arithmetic, so
the others are ordered by method and cut into equal (B, n, n) stacks of
at most :data:`_STACK_BYTES` (1.625 MiB, 21 problems at n = 100), each
filled straight from the data, with no condensed matrix in between, and
run by one loop that writes each method's update for its own run of the
stack into that run's slice of one row buffer.  Each loop prepares the
matrix it is given, as Muellner's generic algorithm takes the
dissimilarity matrix itself: it sets the diagonal to inf and squares it
for ward before its first step.  The
stacked loop keeps a merged cluster in the slot of one of its children
and marks the other slot dead with inf, so it moves no data between
slots, and it checks all B trees at once with
:func:`~branchembed.dendrogram._valid_records`.  A stack of one, as
every one-problem call makes, is filled the same way and run by
:func:`linkage`'s own loop, so reclustering n points holds one n x n
matrix and nothing the size of the condensed vector.  The stacked loop
has no error path of its own: a stack whose fill is not finite and a
stack of several in which any problem fails go through
``linkage(dissimilarity(kind, x), method)`` one problem at a time, so
:func:`dissimilarity` and :func:`linkage` alone decide every failure.
The loop of a stack of one is :func:`linkage`'s own, on the matrix
:func:`linkage` would pass it, so its errors are :func:`linkage`'s
already.

No value passes through BLAS, so every tree is the same under any BLAS
kernel and thread count.
"""

from __future__ import annotations

import math
import mmap
from collections import deque

import numpy as np

from . import dendrogram as _dendrogram
from .dendrogram import (
    CondensedMatrix,
    Dendrogram,
    _check_size,
    _copy_rows,
    _pair_chunks,
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
    perfectly anticorrelated ones.  A constant row has no defined
    correlation and raises :class:`ZeroVarianceRow`.

    Two-column rows correlate exactly +1 or -1: a row centres to
    ``(x1 - x0) / 2 * (-1, 1)``, so ``1 - r`` is exactly 0 for two rows
    that rise (``x1 > x0``) or fall alike and exactly 2 otherwise.  Wider
    rows are first multiplied by the power of two that brings their
    largest absolute value into [0.5, 1), which is exact, so their sums
    of squares neither overflow nor underflow at any scale.  Then
    they are centred and scaled to unit length, and each pair's ``r`` is
    the dot product of its two unit rows, summed per pair in the chunks
    of :func:`~branchembed.dendrogram._pair_chunks` as in
    :func:`euclidean_dissimilarity`, never by a BLAS matrix product, so
    the values do not depend on the BLAS kernel or its thread count.
    Round-off can push ``1 - r`` a few ulps outside [0, 2], so it is
    clamped back onto it.
    """
    x = _check_data(x)
    n, p = x.shape
    if p < 2:
        raise ValueError("row correlation needs at least 2 columns")
    constant = np.all(x == x[:, :1], axis=1)
    if constant.any():
        raise ZeroVarianceRow(int(np.flatnonzero(constant)[0]))
    out = np.empty(n * (n - 1) // 2)
    if p == 2:
        rises = x[:, 1] > x[:, 0]
        for s, e, i, j in _pair_chunks(n):
            out[s:e] = rises.take(i) != rises.take(j)
        out *= 2.0
        return CondensedMatrix(n, out)
    centered = np.ldexp(x, -np.frexp(np.abs(x).max(axis=1))[1][:, None])
    centered -= centered.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    unit = centered / norms[:, None]
    pairs = _dendrogram._PAIR_CHUNK * 8 // max(p, 8)
    for s, e, i, j in _pair_chunks(n, pairs):
        out[s:e] = np.einsum("ij,ij->i", unit.take(i, axis=0),
                             unit.take(j, axis=0))
    np.subtract(1.0, out, out=out)
    return CondensedMatrix(n, np.clip(out, 0.0, 2.0, out=out))


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


def _lw_combine(method: str, row_i, row_j, ni, nj, sizes, d_ij,
                out=None, tmp=None) -> np.ndarray:
    """New dissimilarity row for the cluster formed from slots i and j,
    written into ``out`` (allocated if ``None``) and returned.  Average
    and ward use ``tmp``, a buffer of ``out``'s shape, for their second
    term; ``sizes`` is read by ward alone."""
    if out is None:
        out = np.empty_like(row_i)
    if method == "single":
        return np.minimum(row_i, row_j, out=out)
    if method == "complete":
        return np.maximum(row_i, row_j, out=out)
    if tmp is None:
        tmp = np.empty_like(out)
    if method == "average":
        # (ni * row_i + nj * row_j) / (ni + nj)
        np.multiply(row_i, ni, out=out)
        out += np.multiply(row_j, nj, out=tmp)
        out /= ni + nj
        return out
    # ward, on squared dissimilarities:
    # ((ni + nk) * row_i + (nj + nk) * row_j - nk * d_ij) / (ni + nj + nk)
    nk = sizes
    np.add(nk, ni, out=out)
    out *= row_i
    np.add(nk, nj, out=tmp)
    tmp *= row_j
    out += tmp
    out -= np.multiply(nk, d_ij, out=tmp)
    out /= np.add(nk, ni + nj, out=tmp)
    return out


def linkage(d0: CondensedMatrix, method: str) -> Dendrogram:
    """Agglomerative clustering of ``d0`` under the given linkage method.

    Returns a validated :class:`Dendrogram` whose records list the smaller
    child id first.  Ward heights assume Euclidean input distances; the
    function sees only the matrix, not how it was made, so it does not
    reject ward on correlation dissimilarities (:func:`check_condition`
    does).  Raises, under every method, :class:`NegativeHeight` at record
    0 if ``d0`` holds a negative value, :class:`SizeLimit` if its n x n
    matrix and ``d0`` together would not fit in physical memory, and
    :class:`LinkageOverflow` if a merged dissimilarity (for ward, a
    squared one) exceeds the float64 range.
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}")
    low = float(d0.values.min())
    if low < 0.0:
        # Every method's first merge is at the smallest value, so this is
        # the error validate_dendrogram gives; ward's squares would hide it.
        raise NegativeHeight(f"record 0: height {low!r} < 0", record=0)
    # The condensed input stays alive beside the matrix.
    _check_size("the n x n matrix and its condensed input",
                8 * d0.n * d0.n + d0.values.nbytes)
    merges = _linkage_square(d0.to_square(), method)
    # The matrix is freed by now, so the tree's arrays, which outlive
    # it, are not allocated beside it (see _linkage_square).
    return validate_dendrogram(merges, d0.n)


# Ward squares its inputs, and average and ward add weighted rows, so
# large finite inputs can overflow.  An overflowed entry stays inf until
# its two clusters merge, so every overflow shows as a non-finite minimum.
@np.errstate(over="ignore", invalid="ignore")
def _linkage_square(dm: np.ndarray, method: str) -> list:
    """The steps of :func:`linkage` on ``dm``, a full dissimilarity
    matrix, which they overwrite: the diagonal becomes inf, ward squares
    every entry (a square that overflows is inf), and the merges update
    it in place.  Returns the merge records, for the caller to pass to
    :func:`validate_dendrogram` once it has freed ``dm``.  The tree's
    arrays outlive ``dm``; made while ``dm`` lives, malloc can place
    them where they leave the hole ``dm`` frees too short for the next
    n x n matrix, which then extends the heap: validated here, the
    benchmark's `large` workload read 7 MiB more peak RSS in 8 of 26
    runs, and in none of 49 validated by the caller.  Raises
    :class:`LinkageOverflow` as :func:`linkage` does."""
    n = dm.shape[0]
    np.fill_diagonal(dm, np.inf)
    ward = method == "ward"
    single = method == "single"
    if ward:
        dm *= dm
    # row_min[r] is the smallest entry of row r over the active columns.
    row_min = dm.min(axis=1)

    # Active clusters live in slots 0..m-1; a merge frees one slot, which
    # is refilled by the last active slot so scans shrink as we go.
    node_of = np.arange(n, dtype=np.int64)
    # Sizes as Python floats, which numpy takes as float64 scalars, and
    # for ward also per slot as float64: sums of ones, so exact.
    sizes = [1.0] * n
    nk = np.ones(n) if ward else None
    # Every step writes into these; slices [:m] serve m active slots.
    new_row = np.empty(n)
    tmp = np.empty(n)
    low = np.empty(n)
    stale = np.zeros(n, dtype=bool)
    worse = np.empty(n, dtype=bool)
    merges = []
    m = n
    for step in range(n - 1):
        mins = row_min[:m]
        val = mins[mins.argmin()]
        if not math.isfinite(val):
            raise LinkageOverflow(method, step)
        # Every row whose minimum is val holds a pair at val, and (the
        # matrix being symmetric) its partner is such a row too.  So the
        # tie-break's smaller id is the smallest id among those rows, and
        # its larger id the smallest id among that row's partners.  If
        # only two rows hold val, each is the other's partner.
        rows = (mins == val).nonzero()[0]
        if rows.size == 2:
            pi, pj = rows.tolist()
            if node_of[pi] > node_of[pj]:
                pi, pj = pj, pi
        else:
            pi = int(rows[node_of[rows].argmin()])
            cols = (dm[pi, :m] == val).nonzero()[0]
            pj = int(cols[node_of[cols].argmin()])
        best = (int(node_of[pi]), int(node_of[pj]))
        if pi > pj:
            pi, pj = pj, pi

        ni = sizes[pi]
        nj = sizes[pj]
        row_i = dm[pi, :m]
        row_j = dm[pj, :m]
        merged = _lw_combine(method, row_i, row_j, ni, nj,
                             nk[:m] if ward else None, val,
                             new_row[:m], tmp[:m])
        # Columns pi and pj leave every row and the merged entry takes
        # their place.  A row whose minimum sat in one of them (a minimum
        # is never above an entry, so it equals the smaller of the two)
        # and whose merged entry is larger must be rescanned; for every
        # other row the new minimum is the smaller of the old one and
        # the entry.  Under single linkage the merged entry is that
        # smaller one, so only the merged row itself can go stale.
        if not single:
            np.minimum(row_i, row_j, out=low[:m])
            np.equal(mins, low[:m], out=stale[:m])
            stale[:m] &= np.greater(merged, mins, out=worse[:m])
        merged[pi] = np.inf
        np.minimum(mins, merged, out=mins)
        dm[pi, :m] = merged
        dm[:m, pi] = merged

        # The matrix is symmetric, so the last slot's row is also its
        # column; only its first `last` entries stay active.
        last = m - 1
        if pj != last:
            moved = dm[last, :last]
            dm[pj, :last] = moved
            dm[:last, pj] = moved
            dm[pj, pj] = np.inf
            node_of[pj] = node_of[last]
            sizes[pj] = sizes[last]
            if ward:
                nk[pj] = nk[last]
            row_min[pj] = row_min[last]
            stale[pj] = stale[last]
        m = last
        if single:
            redo = (pi,)
        else:
            stale[pi] = True
            redo = stale[:m].nonzero()[0].tolist()
        for r in redo:
            row = dm[r, :m]
            row_min[r] = row[row.argmin()]

        h = math.sqrt(val) if ward else float(val)
        merges.append((best[0], best[1], h, int(ni + nj)))
        node_of[pi] = n + step
        sizes[pi] = ni + nj
        if ward:
            nk[pi] = ni + nj
    return merges


def _cluster_data(x, kind: str, method: str) -> Dendrogram:
    """``linkage(dissimilarity(kind, x), method)``, bit for bit, with the
    same errors short of the memory limit: a one-problem
    :func:`_cluster_stack` call."""
    tree, = _cluster_stack([(x, kind, method)])
    if isinstance(tree, BranchEmbedError):
        raise tree
    return tree


def _sides_tree(x: np.ndarray) -> Dendrogram:
    """``linkage(correlation_dissimilarity(x), method)`` of checked
    two-column ``x`` under single, complete or average linkage, which
    give the same tree, in O(n) time and memory.  Raises
    :class:`ZeroVarianceRow` for a constant row, as
    :func:`correlation_dissimilarity` does.

    Every value of that matrix is exactly 0, for two rows on the same
    side (both rising, ``x1 > x0``, or both falling), or exactly 2, and
    all three methods keep it so: a cluster is 0 from its own side and 2
    from the other.  So each step merges, at height 0, the tie-break's
    smallest pair on one side, and when each side is down to one
    cluster, the last merge joins the two at height 2.  Each side keeps
    a queue of its cluster ids in ascending order.  Of the queues
    holding at least two ids, the step takes the one whose head is the
    smaller id: its two smallest ids are the tie-break's smallest pair
    at 0.  The new id, n + step, is larger than every id before it, so
    it joins the end of its queue and the queue stays sorted.

    The tree is valid by construction: each id is popped once and is
    below n + step, each size is the sum of its children's, and the
    heights are 0 and then 2.
    """
    n = x.shape[0]
    rises = x[:, 1] > x[:, 0]
    constant = x[:, 1] == x[:, 0]
    if constant.any():
        raise ZeroVarianceRow(int(np.flatnonzero(constant)[0]))
    up = deque(np.flatnonzero(rises).tolist())
    down = deque(np.flatnonzero(~rises).tolist())
    across = bool(up) and bool(down)
    within = n - 1 - across
    node_size = [1] * n
    left, right = [], []
    for step in range(within):
        queue = (up if len(up) > 1 and (len(down) < 2 or up[0] < down[0])
                 else down)
        a = queue.popleft()
        b = queue.popleft()
        queue.append(n + step)
        left.append(a)
        right.append(b)
        node_size.append(node_size[a] + node_size[b])
    if across:
        a, b = up[0], down[0]
        left.append(min(a, b))
        right.append(max(a, b))
        node_size.append(n)
    return _dendrogram._frozen(
        n, np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
        np.array([0.0] * within + [2.0] * across),
        np.array(node_size[n:], dtype=np.int64))


# Bytes of float64 matrix one stack in _cluster_stack may hold: 21
# problems at n=100, so the 36 Euclidean reclusterings of a
# benchmark-table trial fill two equal stacks of 18.
_STACK_BYTES = 13 << 17


def _cluster_stack(problems) -> list:
    """``linkage(dissimilarity(kind, x), method)`` of every ``(x, kind,
    method)`` problem (all ``x`` over the same n items), as a list holding
    one :class:`Dendrogram` per problem, or the :class:`BranchEmbedError`
    that problem raised.

    Two-column correlation under single, complete or average linkage
    has a closed form, :func:`_sides_tree`, which each such problem
    takes.  The others are ordered by linkage method and cut into equal
    stacks of at most :data:`_STACK_BYTES` of matrices, each filled
    straight from its problems' data by :func:`_fill_stack` and
    clustered by :func:`_stacked_linkage`, whose numpy calls serve the
    whole stack, which at small n costs far less than a loop per
    problem.  A stack of one is filled the same way, into a (1, n, n)
    array, and clustered by :func:`linkage`'s own loop, whose errors are
    then :func:`linkage`'s.  A stack whose fill is not finite, and a
    stack of several in which any tree fails, go through
    ``linkage(dissimilarity(kind, x), method)`` one problem at a time.
    The trees equal that expression bit for bit, and so do the errors,
    but for the memory limit.  A matrix or stack larger than physical
    memory raises :class:`~branchembed.errors.SizeLimit` for the whole
    call before it is allocated.  A one-problem stack holds no condensed
    matrix, so it counts only its n x n matrix, where :func:`linkage`
    also counts the condensed input beside it: a matrix that fits but
    comes within ``4 * n * (n - 1)`` bytes of the limit is clustered
    here and refused by that expression.
    """
    rank = {method: r for r, method in enumerate(LINKAGE_METHODS)}
    checked = []
    for x, kind, method in problems:
        if kind not in DISSIMILARITY_KINDS:
            raise ValueError(f"unknown dissimilarity {kind!r}")
        if method not in rank:
            raise ValueError(f"unknown linkage method {method!r}")
        checked.append((_check_data(x), kind, method))
    if not checked:
        return []
    n = checked[0][0].shape[0]
    if any(x.shape[0] != n for x, _, _ in checked):
        raise ValueError("stacked problems must all have the same n")
    out = [None] * len(checked)
    rest = []
    for b, (x, kind, method) in enumerate(checked):
        if kind == "correlation" and method != "ward" and x.shape[1] == 2:
            try:
                out[b] = _sides_tree(x)
            except ZeroVarianceRow as err:
                out[b] = err
        else:
            rest.append(b)
    if not rest:
        return out
    order = sorted(rest, key=lambda b: rank[checked[b][2]])
    per_stack = max(1, _STACK_BYTES // (8 * n * n))
    count = -(-len(order) // per_stack)
    cuts = [len(order) * k // count for k in range(count + 1)]
    # One anonymous map serves every stack of the call and goes back to
    # the OS when the call ends; a call whose stacks all hold one problem
    # maps nothing.  A stack from malloc is mapped the first time, but
    # glibc then raises its mmap threshold to the freed stack's size and
    # serves later stacks from the heap, which may keep up to twice that
    # size free and resident: on the benchmark's `table` workload that
    # put peak RSS at 35.8-36.0 MiB in 4 of 5 runs at seed 104729,
    # against 34.8-35.1 MiB in 19 runs with the map.
    largest = -(-len(order) // count)
    buf = None
    if largest > 1:
        _check_size("a stack of matrices", 8 * largest * n * n)
        buf = mmap.mmap(-1, 8 * largest * n * n)
    for lo, hi in zip(cuts, cuts[1:]):
        part = [checked[b] for b in order[lo:hi]]
        if buf is None:
            _check_size("the n x n matrix", 8 * n * n)
            dm = np.empty((1, n, n))
        else:
            dm = np.frombuffer(buf, count=len(part) * n * n)
            dm = dm.reshape(len(part), n, n)
        trees = merges = None
        if _fill_stack(dm, part):
            if len(part) > 1:
                trees = _stacked_linkage(dm, [m for _, _, m in part])
            else:
                # linkage's own steps on the square it would pass them,
                # so an error they raise is the one linkage raises.
                try:
                    merges = _linkage_square(dm[0], part[0][2])
                except BranchEmbedError as err:
                    trees = [err]
        # Free a one-problem matrix before its tree is built, as linkage
        # does, and before a rerun builds its own.
        del dm
        if merges is not None:
            try:
                trees = [validate_dendrogram(merges, n)]
            except BranchEmbedError as err:
                trees = [err]
        if trees is None:
            trees = []
            for x, kind, method in part:
                try:
                    trees.append(linkage(dissimilarity(kind, x), method))
                except BranchEmbedError as err:
                    trees.append(err)
        for b, tree in zip(order[lo:hi], trees):
            out[b] = tree
    return out


@np.errstate(over="ignore", invalid="ignore")
def _fill_stack(dm: np.ndarray, problems) -> bool:
    """Fill ``dm``, a (B, n, n) array, with the full dissimilarity
    matrices of ``problems``, ``(x, kind, method)`` triples, each with a
    zero diagonal, as :meth:`~branchembed.dendrogram.CondensedMatrix.to_square`
    gives them.  Returns whether every fill is finite: ``False`` if a
    fill is not, or raises a :class:`BranchEmbedError`, which is where
    :func:`dissimilarity` raises.

    Every value equals :func:`dissimilarity`'s for its pair: a 2-column
    Euclidean fill is ``sqrt(dx*dx + dy*dy)`` by broadcasting, which is
    what the per-pair sum of squares gives for two columns, with
    ``dy*dy`` made a block of rows at a time (about
    :data:`~branchembed.dendrogram._PAIR_CHUNK` entries), so the fill
    needs no second n x n array; wider Euclidean data and correlation
    take :func:`dissimilarity`'s condensed values, copied in row by row
    through :func:`~branchembed.dendrogram._copy_rows`.  Problems
    that share their data matrix (the same object) and kind are filled
    once, and the other slots copy that fill.
    """
    n = dm.shape[1]
    # The stack may hold an earlier stack's matrices, and a condensed
    # fill writes no diagonal.
    diag = np.arange(n)
    dm[:, diag, diag] = 0.0
    # Rows of dy*dy per block, about a pair chunk's worth of entries.
    rows = max(1, _dendrogram._PAIR_CHUNK // n)
    filled = {}
    try:
        for b, (sq, (x, kind, _)) in enumerate(zip(dm, problems)):
            first = filled.setdefault((id(x), kind), b)
            if first != b:
                sq[...] = dm[first]
            elif kind == "euclidean" and x.shape[1] == 2:
                np.subtract.outer(x[:, 0], x[:, 0], out=sq)
                sq *= sq
                for r in range(0, n, rows):
                    dy = np.subtract.outer(x[r:r + rows, 1], x[:, 1])
                    dy *= dy
                    sq[r:r + rows] += dy
                np.sqrt(sq, out=sq)
            else:
                _copy_rows(dissimilarity(kind, x).values, sq)
    except BranchEmbedError:
        return False
    return math.isfinite(dm.max())


@np.errstate(over="ignore", invalid="ignore")
def _stacked_linkage(dm: np.ndarray, methods) -> list | None:
    """The steps of :func:`linkage` on a (B, n, n) stack of full
    dissimilarity matrices, problem b under ``methods[b]``, which they
    overwrite.  Equal methods must be adjacent: the loop applies each
    method's update to its own run of the stack.  As
    :func:`_linkage_square` does, it first sets every diagonal to inf
    and squares the ward runs.

    Each step takes the same cached row minima, the same tie-break (as a
    masked ``argmin`` over node ids) and the same Lance-Williams update
    as :func:`linkage`, for every problem at once.  Slots never move: the
    merged cluster keeps slot ``pa``, the slot of the tie-break's smaller
    id, and slot ``pb`` dies, its column and its row minimum set to inf,
    so rows keep length n and a dead slot is never picked or read as a
    minimum.  No value depends on slots (the tie-break reads node ids,
    and IEEE addition, multiplication, min and max are commutative), so
    the trees equal :func:`linkage`'s.  Rows and per-slot values are
    read and written by flat index, row ``b * n + slot`` of the stack,
    and columns as ``dm[at, :, slot]``, one slot per problem ``at``.
    Returns the list of trees, or ``None`` as soon as any problem's
    minimum turns non-finite, or if any tree fails
    :func:`~branchembed.dendrogram._valid_records`: its rounded updates
    could, in principle, break monotonicity.
    """
    count, n, _ = dm.shape
    runs = []
    for b, method in enumerate(methods):
        if runs and runs[-1][0] == method:
            runs[-1][2] = b + 1
        else:
            runs.append([method, b, b + 1])
    diag = np.arange(n)
    dm[:, diag, diag] = np.inf
    for method, lo, hi in runs:
        if method == "ward":
            dm[lo:hi] *= dm[lo:hi]
    rows = dm.reshape(count * n, n)
    row_min = dm.min(axis=2)
    node_of = np.tile(np.arange(n, dtype=np.int64), (count, 1))
    sizes = np.ones((count, n), dtype=np.int64)
    # Row b * n + s of ``rows`` is slot s of problem b.
    at = np.arange(count)
    base = at * n
    # records[:, :, step] holds (left, right, size) of every problem's
    # merge at that step, heights[:, step] its height (squared for ward).
    records = np.empty((count, 3, n - 1), dtype=np.int64)
    heights = np.empty((count, n - 1))
    no_id = np.int64(2 * n)   # above every node id
    # Each method's run writes its update into its slice of new_row.
    new_row = np.empty((count, n))
    tmp = np.empty((count, n))
    for step in range(n - 1):
        val = row_min.min(axis=1)
        if not np.isfinite(val).all():
            return None
        col_val = val[:, None]
        # Slot pa holds the smallest id among the rows at val, slot pb
        # the smallest id among that row's partners at val; ra and rb
        # are their rows in the stack.
        pa = np.where(row_min == col_val, node_of, no_id).argmin(axis=1)
        ra = base + pa
        row_a = rows.take(ra, axis=0)
        pb = np.where(row_a == col_val, node_of, no_id).argmin(axis=1)
        rb = base + pb
        row_b = rows.take(rb, axis=0)
        na = sizes.take(ra)[:, None]
        nb = sizes.take(rb)[:, None]
        records[:, 0, step] = node_of.take(ra)
        records[:, 1, step] = node_of.take(rb)

        for method, lo, hi in runs:
            _lw_combine(method, row_a[lo:hi], row_b[lo:hi], na[lo:hi],
                        nb[lo:hi], sizes[lo:hi], col_val[lo:hi],
                        new_row[lo:hi], tmp[lo:hi])
        new_row.put(ra, np.inf)
        stale = (row_min == np.minimum(row_a, row_b)) & (new_row > row_min)
        np.minimum(row_min, new_row, out=row_min)
        rows[ra] = new_row
        dm[at, :, pa] = new_row
        dm[at, :, pb] = np.inf
        stale.put(ra, True)
        redo = np.flatnonzero(stale)
        row_min.put(redo, rows.take(redo, axis=0).min(axis=1))
        row_min.put(rb, np.inf)

        merged = na[:, 0] + nb[:, 0]
        records[:, 2, step] = merged
        heights[:, step] = val
        node_of.put(ra, n + step)
        sizes.put(ra, merged)

    for method, lo, hi in runs:
        if method == "ward":
            np.sqrt(heights[lo:hi], out=heights[lo:hi])
    left, right, size = records[:, 0], records[:, 1], records[:, 2]
    if not _dendrogram._valid_records(left, right, heights, size, n).all():
        return None
    return [_dendrogram._frozen(n, *tree)
            for tree in zip(left, right, heights, size)]
