"""Scoring of embeddings against the dendrogram they came from.

An embedding is judged by reclustering: compute pairwise dissimilarities
on the 2-D coordinates, cluster them the same way the original data was
clustered, and correlate the resulting cophenetic and kinship matrices
with the original dendrogram's, entry by entry over the strict upper
triangle.  The two Pearson scores are called r_c (cophenetic) and r_k
(kinship).  :func:`evaluate_embedding` and the benchmark share one
scorer, which fills and centres the original tree's two vectors once.

Reclustering uses the dissimilarity kind that built the original tree
(Euclidean unless ``dissimilarity="correlation"``).  Row correlation of
2-vectors is degenerate, all values 0 or 2, which is exactly why
mirroring it matters when comparing against such a baseline.  For
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

from .cluster import check_condition, linkage
from .cluster import dissimilarity as _dissimilarity
from .dendrogram import Dendrogram, _pair_matrices
from .embed import AngleStrategy, Embedding
from .errors import SizeMismatch, ZeroVariance


def _centred(v: np.ndarray) -> np.ndarray:
    """``v`` centred in place (pass an array the caller no longer needs,
    or a copy); a constant ``v`` has no correlation and is rejected.
    If the sum of ``v`` overflows, ``v`` is first divided by its largest
    absolute value, a positive factor that Pearson correlation ignores."""
    if np.all(v == v[0]):
        raise ZeroVariance("correlation of a constant vector is undefined")
    with np.errstate(over="ignore"):
        mean = v.mean()
    if not math.isfinite(mean):
        v /= np.abs(v).max()
        mean = v.mean()
    v -= mean
    return v


_TINY = np.finfo(np.float64).tiny


def _pearson_vec(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two vectors already passed through
    :func:`_centred`.  If a squared norm or their product leaves the
    normal float64 range, both vectors are first divided by their
    largest absolute value, which leaves the correlation unchanged."""
    with np.errstate(over="ignore", under="ignore"):
        aa, bb = a @ a, b @ b
        den = aa * bb
    if not (aa >= _TINY and bb >= _TINY and _TINY <= den < math.inf):
        a = a / np.abs(a).max()
        b = b / np.abs(b).max()
        aa, bb = a @ a, b @ b
        den = aa * bb
    r = float(a @ b) / float(np.sqrt(den))
    return min(1.0, max(-1.0, r))


class _Scorer:
    """r_c and r_k of converted trees against one original tree, whose
    cophenetic and kinship vectors are filled and centred once."""

    def __init__(self, original: Dendrogram):
        coph, kin = _pair_matrices(original, True, True)
        self._coph = _centred(coph)
        self._kin = _centred(kin)

    def scores(self, converted: Dendrogram) -> tuple[float, float]:
        """``(r_c, r_k)`` of ``converted``, a tree over the same leaves."""
        coph, kin = _pair_matrices(converted, True, True)
        return (_pearson_vec(self._coph, _centred(coph)),
                _pearson_vec(self._kin, _centred(kin)))


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
    return linkage(_dissimilarity(dissimilarity, _coords_of(coords)), method)


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
    r_c, r_k = _Scorer(original).scores(converted)
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
