"""Scoring of embeddings against the dendrogram they came from.

An embedding is judged by reclustering: compute pairwise dissimilarities
on the 2-D coordinates, cluster them the same way the original data was
clustered, and correlate the resulting cophenetic and kinship matrices
with the original dendrogram's, entry by entry over the strict upper
triangle.  The two Pearson scores are called r_c (cophenetic) and r_k
(kinship).  :func:`evaluate_embedding` and the benchmark share one
scoring function, which walks the leaf pairs once per converted tree:
each pair's lowest common ancestor is looked up once in each tree, the
cophenetic values go into the original's vector and one converted
tree's, and the kinship values only into integer sums.  So scoring
holds two condensed vectors (8 n^2 bytes) at most, and no kinship
vector.

Reclustering uses the dissimilarity kind that built the original tree
(Euclidean unless ``dissimilarity="correlation"``).  Row correlation of
2-vectors is degenerate, every value exactly 0 or 2, which is why
mirroring it matters when comparing against such a baseline; the
cluster-id tie-break alone then fixes the reclustered tree, which
:func:`convert_dendrogram` builds in closed form.  For
Euclidean reclustering both scores are invariant under rigid motions and
uniform scaling of the coordinates, since the distances change at most
by a common factor and Pearson correlation ignores affine changes.
r_k is exact: it is computed from integer sums, which depend on no
summation order, and correctly rounded.  r_c's Pearson sums go through
``einsum``, not BLAS, so it does not depend on the BLAS kernel or its
thread count, but its last bits do depend on ``einsum``'s summation
order.
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
    _check_size,
    _lca_keys,
    _lca_table,
    _merge_heights,
    _pair_chunks,
    _path_lengths,
)
from .embed import AngleStrategy, Embedding
from .errors import SizeMismatch, ZeroVariance


def _rescaled(v: np.ndarray, out=None) -> np.ndarray:
    """``v`` times the power of two that brings its largest absolute value
    into [0.5, 1).  Pearson correlation ignores a positive factor, and
    this one is exact, so the scores are those of ``v`` at any scale at
    which its sums and products neither overflow nor underflow."""
    return np.ldexp(v, -math.frexp(np.abs(v).max())[1], out=out)


_CONSTANT = "correlation of a constant vector is undefined"


def _centred(v: np.ndarray) -> np.ndarray:
    """``v`` centred in place (pass an array the caller no longer needs,
    or a copy); a constant ``v`` has no correlation and is rejected.
    If the sum of ``v`` overflows, ``v`` is first :func:`_rescaled`.
    Neither test makes a temporary the size of ``v``."""
    if v.min() == v.max():
        raise ZeroVariance(_CONSTANT)
    with np.errstate(over="ignore"):
        mean = v.mean()
    if not math.isfinite(mean):
        _rescaled(v, out=v)
        mean = v.mean()
    v -= mean
    return v


_TINY = np.finfo(np.float64).tiny


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two vectors by ``einsum``, whose sum does not
    depend on the BLAS kernel or its thread count, as ``a @ b``'s does."""
    return np.einsum("i,i->", a, b)


def _pearson_vec(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two vectors already passed through
    :func:`_centred`.  If a squared norm or their product leaves the
    normal float64 range, both vectors are first :func:`_rescaled`."""
    with np.errstate(over="ignore", under="ignore"):
        aa, bb = _dot(a, a), _dot(b, b)
        den = aa * bb
    if not (aa >= _TINY and bb >= _TINY and _TINY <= den < math.inf):
        a = _rescaled(a)
        b = _rescaled(b)
        aa, bb = _dot(a, a), _dot(b, b)
        den = aa * bb
    r = float(_dot(a, b)) / float(np.sqrt(den))
    return min(1.0, max(-1.0, r))


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


def _pair_walk(original: Dendrogram, lca: tuple, tree: Dendrogram,
               table: tuple, vec: np.ndarray,
               ref: Optional[np.ndarray]) -> tuple:
    """One walk over the pairs of :func:`_pair_chunks` for a converted
    ``tree``: each pair's lowest common ancestor is looked up once in
    ``original`` (through its :func:`_lca_table` ``lca``) and once in
    ``tree``.  Fills ``vec`` with the tree's cophenetic values and, if
    ``ref`` is given, ``ref`` with the original's.  Returns the kinship
    sums ``(sa, saa, sb, sbb, sab)`` as Python ints: a is the original's
    kinship vector and b the tree's, and ``sa``, ``saa`` are 0 unless
    ``ref`` is given.  Each chunk's arrays are dropped before the next
    chunk's pairs are made."""
    sa = saa = sb = sbb = sab = 0
    for s, e, i, j in _pair_chunks(original.n_leaves):
        a = _lca_keys(lca, i, j)
        if ref is not None:
            _merge_heights(original, a, ref[s:e])
        a = _path_lengths(a, lca, i, j)
        if ref is not None:
            sa += int(a.sum())
            saa += int(np.dot(a, a))
        b = _lca_keys(table, i, j)
        _merge_heights(tree, b, vec[s:e])
        b = _path_lengths(b, table, i, j)
        sb += int(b.sum())
        sbb += int(np.dot(b, b))
        sab += int(np.dot(a, b))
        del a, b
    return sa, saa, sb, sbb, sab


def _scores(original: Dendrogram, converted) -> np.ndarray:
    """r_c and r_k of each tree in ``converted`` against ``original``,
    all over the same leaves, one walk over the pairs per tree.

    Each walk (:func:`_pair_walk`) looks each pair's lowest common
    ancestor up once in the original and once in the converted tree.
    It writes the converted tree's cophenetic vector, and on the first
    walk the original's, and adds the two trees' kinship values into
    int64 sums per chunk, which are added up in Python ints.  So r_c
    comes from the two cophenetic vectors, through :func:`_centred` and
    :func:`_pearson_vec`, and r_k from :func:`_exact_pearson`, correctly
    rounded: integer sums depend on no summation order.  No kinship
    vector is made, so two condensed vectors (8 n^2 bytes) at most are
    alive, and :class:`SizeLimit` is raised before anything is filled
    if they do not fit in physical memory.

    The int64 sums cannot wrap.  A chunk holds at most
    max(_PAIR_CHUNK, n - 1) pairs, and a kinship value is at most
    2n - 2, so a chunk's sum of products stays below max(8192, n) 4 n^2.
    That is below 2^63 for every n below 1,321,124, whose two pair
    vectors would take 14 TB, so the size check refuses every n that
    could wrap on any machine with less memory than that
    (``tests/test_memory.py`` checks the arithmetic).

    Returns a ``(len(converted), 2)`` array of ``(r_c, r_k)`` rows, NaN
    where a converted tree's vector is constant.  Raises
    :class:`ZeroVariance` if the original's cophenetic vector is
    constant (its kinship vector is constant only at n = 2, where its
    cophenetic vector is too).
    """
    m = original.n_leaves * (original.n_leaves - 1) // 2
    _check_size("the pair vectors", 16 * m)
    tables = [_lca_table(tree) for tree in converted]
    lca = _lca_table(original)
    out = np.full((len(tables), 2), np.nan)
    # The LCA tables are made before the two vectors: made after them,
    # they land in heap space that the vectors' successors would reuse,
    # and the process's peak resident memory rises.
    ref = np.empty(m)
    vec = np.empty(m)
    for k, (tree, table) in enumerate(zip(converted, tables)):
        sums = _pair_walk(original, lca, tree, table, vec,
                          None if k else ref)
        if k == 0:
            sa, saa = sums[:2]
            _centred(ref)
        sb, sbb, sab = sums[2:]
        try:
            out[k, 0] = _pearson_vec(ref, _centred(vec))
        except ZeroVariance:
            pass
        out[k, 1] = _exact_pearson(m, sa, saa, sb, sbb, sab)
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
