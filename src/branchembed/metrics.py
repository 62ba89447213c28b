"""Scoring of embeddings against the dendrogram they came from.

An embedding is judged by reclustering: compute pairwise dissimilarities
on the 2-D coordinates, cluster them the same way the original data was
clustered, and correlate the resulting cophenetic and kinship matrices
with the original dendrogram's, entry by entry over the strict upper
triangle.  The two Pearson scores are called r_c (cophenetic) and r_k
(kinship).  :func:`evaluate_embedding` and the benchmark share one
scoring function, which walks the leaf pairs once for all converted
trees of an original and looks each pair's lowest common ancestor up
once per tree.

Both scores are exact.  Kinship values are integer path lengths, and
cophenetic values are merge heights, which are integers times one power
of two per tree; so every Pearson sum is an integer, the same in any
summation order, and each score is rounded once, correctly.  A tree's
sums of cophenetic values and of their squares come from its records
alone, so the walk adds up only the products, per record, and scoring
holds no pair vector: chunk arrays and O(n log n) tables, not O(n^2).

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
    _path_lengths,
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


def _value(sums: np.ndarray, row_bits: int, col_bits: int) -> int:
    """Digit sums put back together in Python ints: the sum of
    ``sums[d, e]`` 2^(row_bits (rows - 1 - d) + col_bits (cols - 1 - e)),
    both axes top digit first."""
    return sum(v << row_bits * d + col_bits * e
               for d, row in enumerate(sums[::-1, ::-1].tolist())
               for e, v in enumerate(row))


def _digits(d: Dendrogram, bits: int) -> np.ndarray:
    """Tree ``d``'s merge heights as integers, H = h 2^-E, split into
    base-2^``bits`` digits: a float64 array of shape (q, n - 1), top
    digit first.

    2^E is the unit of the last bit of the smallest nonzero height's
    binade (at least 2^-1074), so it divides every height, and each
    digit is taken off the top by ``ldexp``, ``floor`` and a
    subtraction, all exact."""
    exps = np.frexp(d.height)[1]
    top = int(exps.max())
    low = max(int(exps.min(where=d.height > 0, initial=top)) - 53, -1074)
    rest = d.height
    digits = []
    for e in range(low + bits * ((top - low - 1) // bits), low - 1, -bits):
        digits.append(np.floor(np.ldexp(rest, -e)))
        rest = rest - np.ldexp(digits[-1], e)
    return np.array(digits)


def _height_sums(d: Dendrogram, bits: int) -> tuple:
    """The sum and the sum of squares of tree ``d``'s cophenetic values,
    in the units of :func:`_digits`, and its base-2^``bits`` digits as
    int64.  The sums come from the records alone: record k is the
    lowest common ancestor of |left_k| |right_k| pairs."""
    digits = _digits(d, bits).astype(np.int64)
    size = np.concatenate([np.ones(d.n_leaves, dtype=np.int64), d.size])
    pairs = size[d.left] * size[d.right]
    return (_value(pairs[None, :] @ digits.T, bits, bits),
            _value((digits * pairs) @ digits.T, bits, bits), digits)


def _pair_walk(original: Dendrogram, converted, digits: np.ndarray) -> tuple:
    """One walk over the pairs of :func:`_pair_chunks`, chunks outer and
    trees inner: each pair's lowest common ancestor is looked up once in
    the ``original`` tree and once in each ``converted`` tree, through
    the trees' :func:`_lca_table` tables.

    Returns ``(kin, weights)``.  ``kin`` holds kinship sums as Python
    ints: ``[sa, saa]`` of the original, then ``[sb, sbb, sab]`` per
    converted tree.  ``weights[t, d, k]`` is the sum of the original's
    height digit ``digits[d]`` over the pairs whose lowest common
    ancestor in converted tree t is record k, as int64; the float64
    sums it is added up in are exact as :func:`_scores` says.  Each
    chunk's arrays are dropped before the next chunk's pairs are made."""
    n = original.n_leaves
    mask = (1 << (n - 1).bit_length()) - 1
    lca = _lca_table(original)
    tables = [_lca_table(tree) for tree in converted]
    kin = [[0, 0]] + [[0, 0, 0] for _ in tables]
    weights = np.zeros((len(tables), len(digits), n - 1))
    for _, _, i, j in _pair_chunks(n):
        a = _lca_keys(lca, i, j)
        ours = digits.take(a & mask, axis=1)
        a = _path_lengths(a, lca, i, j)
        kin[0][0] += int(a.sum())
        kin[0][1] += int(np.dot(a, a))
        for table, sums, tree_weights in zip(tables, kin[1:], weights):
            b = _lca_keys(table, i, j)
            record = b & mask
            for w, digit in zip(tree_weights, ours):
                w += np.bincount(record, digit, n - 1)
            b = _path_lengths(b, table, i, j)
            sums[0] += int(b.sum())
            sums[1] += int(np.dot(b, b))
            sums[2] += int(np.dot(a, b))
            del b, record
        del a, ours
    return kin, weights.astype(np.int64)


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
    lengths, summed per chunk in int64.  So scoring holds chunk arrays,
    the LCA tables and the digit sums, and no pair vector.

    No int64 sum can wrap.  A chunk holds at most
    max(_PAIR_CHUNK, n - 1) pairs, and a kinship value is at most
    2n - 2, so a chunk's kinship sum of products stays below
    max(_PAIR_CHUNK, n - 1) (2n - 2)^2, which is 4 (n - 1)^3 for the n
    where it matters.  That is below 2^63 for every n below 1,321,124,
    and for larger n :class:`ScoringOverflow` is raised before anything
    is built (``tests/test_memory.py`` checks the arithmetic).  Below
    that n, m < 2^40.  The walk's digits have 53 - bits(m) bits, so each
    of its sums W stays below m 2^(53 - bits(m)) <= 2^53 and is exact in
    float64.  The other digits have L = floor((62 - bits(m)) / 2) bits,
    and W is split into its low L bits and the rest, so every int64 sum
    of products stays below m 2^(2L) <= 2^62, or below the sum of W.

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
    sa, saa, _ = _height_sums(original, bits)
    if m * saa == sa * sa:
        raise ZeroVariance(_CONSTANT)
    wide = 53 - m.bit_length()
    kin, weights = _pair_walk(original, converted, _digits(original, wide))
    out = np.empty((len(converted), 2))
    for t, (tree, w) in enumerate(zip(converted, weights)):
        sb, sbb, theirs = _height_sums(tree, bits)
        sab = ((_value((w >> bits) @ theirs.T, wide, bits) << bits)
               + _value((w & (1 << bits) - 1) @ theirs.T, wide, bits))
        out[t, 0] = _exact_pearson(m, sa, saa, sb, sbb, sab)
        out[t, 1] = _exact_pearson(m, *kin[0], *kin[t + 1])
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
