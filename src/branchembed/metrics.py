"""Scoring of embeddings against the dendrogram they came from.

An embedding is judged by reclustering: compute pairwise dissimilarities
on the 2-D coordinates, cluster them the same way the original data was
clustered, and correlate the resulting cophenetic and kinship matrices
with the original dendrogram's, entry by entry over the strict upper
triangle.  The two Pearson scores are called r_c (cophenetic) and r_k
(kinship).  :func:`evaluate_embedding` and the benchmark share one
scoring function, which scores one metric at a time: the original
tree's vector is filled and centred, and each converted tree's is
filled, correlated with it and dropped in turn, so scoring holds two
condensed vectors (8 n^2 bytes) at most.

Reclustering uses the dissimilarity kind that built the original tree
(Euclidean unless ``dissimilarity="correlation"``).  Row correlation of
2-vectors is degenerate, every value exactly 0 or 2, which is why
mirroring it matters when comparing against such a baseline; the
cluster-id tie-break alone then fixes the reclustered tree, which
:func:`convert_dendrogram` builds in closed form.  For
Euclidean reclustering both scores are invariant under rigid motions and
uniform scaling of the coordinates, since the distances change at most
by a common factor and Pearson correlation ignores affine changes.
The Pearson sums go through ``einsum``, not BLAS, so no score depends on
the BLAS kernel or its thread count.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from .cluster import _cluster_data, check_condition
from .dendrogram import Dendrogram, _check_size, _lca_table, _pair_matrices
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


def _scores(original: Dendrogram, converted) -> np.ndarray:
    """r_c and r_k of each tree in ``converted`` against ``original``,
    all over the same leaves, one metric at a time.

    Each tree's :func:`~branchembed.dendrogram._lca_table` is built
    once.  For cophenetic, then kinship, the original's vector is filled
    and centred, and each converted tree's vector is filled, centred,
    correlated with it and dropped, so at most two condensed vectors are
    alive; :class:`SizeLimit` is raised before anything is filled if
    those two do not fit in physical memory.  Returns a
    ``(len(converted), 2)`` array of ``(r_c, r_k)`` rows, NaN where a
    converted tree's vector is constant.  Raises :class:`ZeroVariance`
    if the original's vectors cannot be scored.
    """
    m = original.n_leaves * (original.n_leaves - 1) // 2
    _check_size("the pair vectors", 16 * m)
    tables = [_lca_table(tree) for tree in converted]
    lca = _lca_table(original)
    out = np.full((len(tables), 2), np.nan)
    for col, kinship in enumerate((False, True)):
        ref = _centred(_pair_matrices(original, kinship, lca))
        for k, (tree, table) in enumerate(zip(converted, tables)):
            try:
                vec = _centred(_pair_matrices(tree, kinship, table))
            except ZeroVariance:
                continue
            out[k, col] = _pearson_vec(ref, vec)
            del vec
        del ref
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
