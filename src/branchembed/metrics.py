"""Scoring of embeddings against the dendrogram they came from.

An embedding is judged by reclustering: compute pairwise dissimilarities
on the 2-D coordinates, cluster them the same way the original data was
clustered, and correlate the resulting cophenetic and kinship matrices
with the original dendrogram's, entry by entry over the strict upper
triangle.  The two Pearson scores are called r_c (cophenetic) and r_k
(kinship).  :func:`evaluate_embedding` and the benchmark share one
scoring function, which walks the leaf pairs once for all converted
trees of an original, in the original's leaf order, and looks each
pair's lowest common ancestor up once per tree.

Both scores are exact.  Kinship values are integer path lengths, and
cophenetic values are merge heights, which are integers times one power
of two per tree; so every Pearson sum is an integer, the same in any
summation order, and each score is rounded once, correctly.  A tree's
sums of cophenetic values and of their squares come from its records
alone, and its kinship sums from its leaf depths and, per leaf, the sum
of its lowest common ancestors' depths.  So the walk adds up only what
joins two trees: the original's heights per converted record, and the
products of the two lowest common ancestors' depths.  Scoring holds no
pair vector: chunk arrays and O(n log n) tables, not O(n^2).

Reclustering uses the dissimilarity kind that built the original tree
(Euclidean unless ``dissimilarity="correlation"``).  Row correlation of
2-vectors is degenerate, every value exactly 0 or 2, which is why
mirroring it matters when comparing against such a baseline; the
cluster-id tie-break alone then fixes the reclustered tree, which
:func:`convert_dendrogram` builds in closed form.  For
Euclidean reclustering both scores are invariant under rigid motions and
uniform scaling of the coordinates, since the distances change at most
by a common factor and Pearson correlation ignores affine changes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from .cluster import _cluster_data, check_condition
from .dendrogram import (
    Dendrogram,
    _lca_keys,
    _lca_table,
    _pair_chunks,
    _range_keys,
)
from .embed import AngleStrategy, Embedding
from .errors import ScoringOverflow, SizeMismatch, ZeroVariance


_CONSTANT = "correlation of a constant vector is undefined"


def _exact_pearson(m: int, sa: int, saa: int, sb: int, sbb: int,
                   sab: int) -> float:
    """The Pearson correlation, correctly rounded, of two integer vectors
    of length ``m`` given their sums ``sa``, ``sb``, sums of squares
    ``saa``, ``sbb`` and dot product ``sab``; NaN if either vector is
    constant.

    r = (m sab - sa sb) / sqrt((m saa - sa^2)(m sbb - sb^2)) is computed
    in Python ints: t = isqrt(floor(r^2 4^k)) = floor(|r| 2^k) with k
    chosen so that t >= 2^55, and |r| lies in (t, t + 1) 2^-k unless t
    is exact.  At that size no rounding boundary of a float falls
    strictly inside the interval, so |r| rounds as (t + 1/2) 2^-k does,
    and int division rounds that correctly."""
    va = m * saa - sa * sa
    vb = m * sbb - sb * sb
    if va == 0 or vb == 0:
        return math.nan
    num = m * sab - sa * sb
    den = va * vb
    square = num * num
    # square 4^k / den >= 2^111, as square >= 2^(bits - 1), den < 2^bits.
    k = (den.bit_length() - square.bit_length() + 111) // 2 + 1
    q, rest = divmod(square << 2 * k, den)
    t = math.isqrt(q)
    inexact = rest != 0 or t * t != q
    r = (2 * t + inexact) / (1 << (k + 1))
    return -r if num < 0 else r


def _value(sums: list, row_bits: int, col_bits: int) -> int:
    """Digit sums put back together in Python ints: the sum of
    ``sums[d][e]`` 2^(row_bits (rows - 1 - d) + col_bits (cols - 1 - e)),
    both axes top digit first."""
    return sum(v << row_bits * d + col_bits * e
               for d, row in enumerate(reversed(sums))
               for e, v in enumerate(reversed(row)))


def _digits(trees, bits: int) -> np.ndarray:
    """The ``trees``' merge heights as integers, H = h 2^-E with one E
    per tree, split into base-2^``bits`` digits: a float64 array of
    shape (T, q, n - 1), top digit first, with the digits that the
    largest H of any tree needs (a tree that needs fewer has zeros on
    top).

    2^E is the unit of the last bit of the smallest nonzero height's
    binade (at least 2^-1074), so it divides every height, and each
    digit is taken off the top by ``ldexp``, ``floor`` and a
    subtraction, all exact."""
    height = np.array([d.height for d in trees])
    exps = np.frexp(height)[1]
    top = exps.max(axis=1)
    low = np.maximum(
        np.where(height > 0, exps, top[:, None]).min(axis=1) - 53, -1074)
    count = int(((top - low - 1) // bits).max()) + 1
    digits = np.empty((len(trees), count, height.shape[1]))
    rest = height
    for k, digit in zip(range(count - 1, -1, -1), digits.swapaxes(0, 1)):
        e = (low + bits * k)[:, None]
        np.floor(np.ldexp(rest, -e), out=digit)
        rest = rest - np.ldexp(digit, e)
    return digits


def _height_sums(trees, bits: int) -> tuple:
    """The sums and the sums of squares of the ``trees``' cophenetic
    values, in the units of :func:`_digits`, as lists of Python ints,
    and the trees' base-2^``bits`` digits as int64.  The sums come from
    the records alone: record k is the lowest common ancestor of
    |left_k| |right_k| pairs."""
    digits = _digits(trees, bits).astype(np.int64)
    n = trees[0].n_leaves
    size = np.ones((len(trees), 2 * n - 1), dtype=np.int64)
    size[:, n:] = [d.size for d in trees]
    base = np.arange(0, size.size, 2 * n - 1)[:, None]
    pairs = size.take([d.left for d in trees] + base)
    pairs *= size.take([d.right for d in trees] + base)
    sums = np.einsum("tk,tdk->td", pairs, digits).tolist()
    squares = ((digits * pairs[:, None]) @ digits.swapaxes(1, 2)).tolist()
    return ([_value([row], bits, bits) for row in sums],
            [_value(square, bits, bits) for square in squares], digits)


def _pair_walk(lca: tuple, digits: np.ndarray) -> tuple:
    """One walk over the pairs of :func:`_pair_chunks`, chunks outer and
    converted trees inner, through ``lca``, the :func:`_lca_table` of
    the original tree and then the converted ones.

    The pairs are taken as positions p < q in the original's leaf order,
    as every sum the walk makes is an integer and so the same in any
    order.  So the original looks its keys up with no position gathers
    (its range starts at p and spans q - p), and each converted tree
    through the positions it gives the leaves at p and q.

    Returns ``(deep, weights)``.  ``deep[t]`` is the sum, over the
    pairs, of the depth of their lowest common ancestor in the original
    times its depth in converted tree t, as a Python int; a key carries
    that depth in its high bits.  ``weights[t, d, k]`` is the sum of the
    original's height digit ``digits[d]`` over the pairs whose lowest
    common ancestor in converted tree t is record k, as int64; the
    float64 sums it is added up in are exact as :func:`_scores` says.
    Each chunk's arrays are dropped before the next chunk's pairs are
    made."""
    pos, _, _, _, tables = lca
    n = pos.shape[1]
    shift = (n - 1).bit_length()
    mask = (1 << shift) - 1
    # The leaf at each of the original's positions, and where each
    # converted tree puts it.
    leaf_at = np.empty(n, dtype=np.int64)
    leaf_at[pos[0]] = np.arange(n)
    places = pos[1:].take(leaf_at, axis=1)
    deep = [0] * len(places)
    weights = np.zeros((len(places), len(digits), n - 1))
    for _, _, p, q in _pair_chunks(n):
        a = _range_keys(tables[0], p, q - p, n)
        ours = digits.take(a & mask, axis=1)
        a >>= shift
        for t, (place, table, tree_weights) in enumerate(
                zip(places, tables[1:], weights)):
            b = _lca_keys(place, table, p, q)
            record = b & mask
            for w, digit in zip(tree_weights, ours):
                w += np.bincount(record, digit, n - 1)
            b >>= shift
            deep[t] += int(np.dot(a, b))
            del b, record
        del a, ours
    return deep, weights.astype(np.int64)


def _wide_sums(v: np.ndarray) -> list:
    """Exact sums along the last axis of ``v``, a 3-D array of
    nonnegative int64 values below 2^63 in rows of fewer than 2^31, as
    a list of lists of Python ints.  The high and low 32 bits of the
    values are added up apart, and neither sum can reach 2^63."""
    high = (v >> 32).sum(axis=-1).tolist()
    low = (v & 0xFFFFFFFF).sum(axis=-1).tolist()
    return [[(h << 32) + lo for h, lo in zip(hs, los)]
            for hs, los in zip(high, low)]


def _kinship_sums(trees, depth: np.ndarray, r: np.ndarray,
                  deep) -> list:
    """The kinship sums that :func:`_exact_pearson` takes, ``[sa, saa,
    sb, sbb, sab]``, of ``trees[0]`` against each later tree, all over
    the same n leaves, as Python ints: O(n) expressions in each tree's
    :func:`_layout` ``depth`` and ``r`` rows and the walk's ``deep``.

    A pair's kinship value is d_i + d_j - 2 D_ij, with d the leaf
    depths and D_ij the depth of the pair's lowest common ancestor.
    Over all pairs i < j,

    * sum (d_i + d_j) = (n - 1) sum d, and sum (d_i + d_j)^2 =
      (n - 2) sum d^2 + (sum d)^2; the same with a second tree's
      depths e gives sum (d_i + d_j)(e_i + e_j) = (n - 2) sum d e +
      sum d sum e;
    * sum (d_i + d_j) D'_ij = sum_l d_l r'_l for any tree's D' and r',
      as r'_l adds D'_lj up over the other leaves j;
    * sum (D_ij + 1) = G, the sum of |u| (|u| - 1) / 2 over the internal
      nodes u, as D_ij + 1 counts the internal nodes that hold both i
      and j; and sum D_ij (D_ij + 1) / 2 = sum over u of
      |u| (|u| - 1) / 2 depth[u], as those nodes' depths are
      0, 1, ..., D_ij;
    * sum D_ij D'_ij over two trees is the walk's ``deep``.

    All trees are summed at once, one row each.  The int64 bounds are
    in :func:`_scores`."""
    n = depth.shape[1] // 2 + 1
    m = n * (n - 1) // 2
    d = depth[:, :n]
    # |u| (|u| - 1) / 2 of each internal node u: the pairs it holds.
    held = np.array([tree.size for tree in trees])
    held *= held - 1
    held >>= 1
    # Rows: d r, trees[0]'s d times r, d times trees[0]'s r, and the
    # pairs each internal node holds times its depth.
    wide = np.zeros((4, len(trees), n), dtype=np.int64)
    np.multiply(d, r, out=wide[0])
    np.multiply(d[0], r, out=wide[1])
    np.multiply(d, r[0], out=wide[2])
    np.multiply(held, depth[:, n:], out=wide[3, :, 1:])
    dr, ar, ra, held_depth = _wide_sums(wide)
    s = d.sum(axis=1).tolist()
    ss = np.einsum("ij,ij->i", d, d).tolist()
    cross = (d @ d[0]).tolist()
    # The sum of D_ij over the pairs.
    lca_depth = (held.sum(axis=1) - m).tolist()
    kin = [((n - 1) * s[t] - 2 * lca_depth[t],
            (n - 2) * ss[t] + s[t] * s[t] - 4 * dr[t]
            + 4 * (2 * held_depth[t] - lca_depth[t]))
           for t in range(len(trees))]
    return [[*kin[0], *kin[t],
             (n - 2) * cross[t] + s[0] * s[t] - 2 * ar[t] - 2 * ra[t]
             + 4 * deep[t - 1]]
            for t in range(1, len(trees))]


def _scores(original: Dendrogram, converted) -> np.ndarray:
    """r_c and r_k of each tree in ``converted`` against ``original``,
    all over the same leaves, in one walk over the pairs.

    Both scores come from integer sums through :func:`_exact_pearson`,
    so they are correctly rounded and depend on no summation order.
    A tree's cophenetic values are its merge heights, integers in units
    of 2^E (one E per tree), so their sums and sums of squares come from
    the records alone (:func:`_height_sums`).  Only the sum of products
    needs the pairs: the walk (:func:`_pair_walk`) adds the original's
    height digits up per converted record, and int64 products with the
    converted tree's digits finish it.  Kinship values are integer path
    lengths, and all their sums but one come from each tree's leaf
    depths and per-leaf sums of LCA depths (:func:`_kinship_sums`); the
    walk adds up the one left, the products of the two trees' LCA
    depths.  So scoring holds chunk arrays, the LCA tables and the digit
    sums, and no pair vector.

    No int64 value can wrap.  For n >= 1,321,124, where 4 (n - 1)^3
    reaches 2^63, :class:`ScoringOverflow` is raised before anything is
    built (``tests/test_memory.py`` checks the arithmetic), and below
    that n every int64 value stays under 4 (n - 1)^3:

    * A chunk holds at most max(_PAIR_CHUNK, n - 1) pairs and an LCA is
      at most n - 2 deep, so a chunk's sum of LCA depth products stays
      below max(_PAIR_CHUNK, n - 1) (n - 2)^2; the walk adds the chunks
      up in Python ints.
    * A leaf is at most n - 1 deep, its sum r of LCA depths is at most
      (n - 1)(n - 2), and an internal node holds at most m pairs, so
      the products d r and pairs times depth stay below (n - 1)^3.
      Their sums over the leaves do not: a caterpillar's sum of d r is
      about 5 n^4 / 24, past 2^63 from n of about 82,000.  So
      :func:`_wide_sums` adds them in 32-bit halves, each sum below
      n 2^32.  The sums taken whole, of d, d^2, the two trees' d d' and
      the pairs held, stay below n (n - 1)^2.
    * Below that n, m < 2^40.  The walk's digits have 53 - bits(m) bits,
      so each of its sums W stays below m 2^(53 - bits(m)) <= 2^53 and
      is exact in float64.  The other digits have
      L = floor((62 - bits(m)) / 2) bits, and W is split into its low L
      bits and the rest, so every int64 sum of products stays below
      m 2^(2L) <= 2^62, or below the sum of W.

    Returns a ``(len(converted), 2)`` array of ``(r_c, r_k)`` rows, NaN
    where a converted tree's vector is constant.  Raises
    :class:`ZeroVariance` if the original's cophenetic vector is
    constant (its kinship vector is constant only at n = 2, where its
    cophenetic vector is too).
    """
    n = original.n_leaves
    if 4 * (n - 1) ** 3 >= 1 << 63:
        raise ScoringOverflow(n)
    m = n * (n - 1) // 2
    bits = (62 - m.bit_length()) // 2
    trees = [original, *converted]
    sums, squares, digits = _height_sums(trees, bits)
    if m * squares[0] == sums[0] * sums[0]:
        raise ZeroVariance(_CONSTANT)
    wide = 53 - m.bit_length()
    lca = _lca_table(*trees)
    deep, weights = _pair_walk(lca, _digits([original], wide)[0])
    kin = _kinship_sums(trees, lca[1], lca[2], deep)
    theirs = digits[1:].swapaxes(1, 2)
    high = ((weights >> bits) @ theirs).tolist()
    low = ((weights & (1 << bits) - 1) @ theirs).tolist()
    out = np.empty((len(converted), 2))
    for t in range(len(converted)):
        sab = ((_value(high[t], wide, bits) << bits)
               + _value(low[t], wide, bits))
        out[t, 0] = _exact_pearson(m, sums[0], squares[0], sums[t + 1],
                                   squares[t + 1], sab)
        out[t, 1] = _exact_pearson(m, *kin[t])
    return out


def _coords_of(coords: Union[Embedding, np.ndarray]) -> np.ndarray:
    if isinstance(coords, Embedding):
        return coords.coords
    return np.asarray(coords, dtype=np.float64)


def convert_dendrogram(coords: Union[Embedding, np.ndarray],
                       method: str,
                       dissimilarity: str = "euclidean") -> Dendrogram:
    """Recluster embedded points: pairwise dissimilarities of the given
    kind on the coordinates, then the given linkage method.  Ward on
    correlation dissimilarities is rejected (:func:`check_condition`)."""
    check_condition(dissimilarity, method)
    return _cluster_data(_coords_of(coords), dissimilarity, method)


@dataclass(frozen=True)
class EvalReport:
    """Scores plus the settings that produced them (unknown ones are None)."""

    r_c: float
    r_k: float
    converted_linkage: str
    original_linkage: Optional[str] = None
    dissimilarity: Optional[str] = None
    strategy: Optional[str] = None
    theta: Optional[float] = None
    swap: Optional[bool] = None
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def evaluate_embedding(original: Dendrogram,
                       coords: Union[Embedding, np.ndarray],
                       converted_method: str,
                       *,
                       original_method: Optional[str] = None,
                       dissimilarity: Optional[str] = None,
                       strategy: Optional[AngleStrategy] = None) -> EvalReport:
    """Recluster ``coords`` with ``converted_method`` over the
    ``dissimilarity`` kind that built ``original`` (Euclidean when None)
    and correlate the converted dendrogram's cophenetic and kinship
    matrices against the original's.  The report records every keyword
    argument as given; the others do not affect the scores.
    """
    pts = _coords_of(coords)
    if pts.shape[0] != original.n_leaves:
        raise SizeMismatch(
            f"embedding has {pts.shape[0]} points for "
            f"{original.n_leaves} leaves"
        )
    converted = convert_dendrogram(pts, converted_method,
                                   dissimilarity or "euclidean")
    r_c, r_k = _scores(original, [converted])[0].tolist()
    if math.isnan(r_c) or math.isnan(r_k):
        raise ZeroVariance(_CONSTANT)
    return EvalReport(
        r_c=r_c,
        r_k=r_k,
        converted_linkage=converted_method,
        original_linkage=original_method,
        dissimilarity=dissimilarity,
        strategy=strategy.kind if strategy is not None else None,
        theta=strategy.theta if strategy is not None else None,
        swap=(strategy.swap if strategy is not None
              and strategy.kind == "fixed" else None),
        seed=(strategy.seed if strategy is not None
              and strategy.kind == "random" else None),
    )
