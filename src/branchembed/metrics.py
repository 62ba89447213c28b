"""Scoring of embeddings against the dendrogram they came from.

An embedding is judged by reclustering: compute pairwise dissimilarities
on the 2-D coordinates, cluster them the same way the original data was
clustered, and correlate the resulting cophenetic and kinship matrices
with the original dendrogram's, entry by entry over the strict upper
triangle.  The two Pearson scores are called r_c (cophenetic) and r_k
(kinship).  Reclustering defaults to Euclidean distances; when the
original dendrogram came from row correlations, pass
``dissimilarity="correlation"`` so the converted dendrogram mirrors the
original clustering rule (row correlation of 2-vectors is degenerate,
all values 0 or 2, which is exactly why mirroring it matters when
comparing against such a baseline).  For Euclidean reclustering both
scores are invariant under rigid motions and uniform scaling of the
coordinates, since the distances change at most by a common factor and
Pearson correlation ignores affine changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cluster import (
    DISSIMILARITY_KINDS,
    LINKAGE_METHODS,
    correlation_dissimilarity,
    euclidean_dissimilarity,
    linkage,
)
from .dendrogram import CondensedMatrix, Dendrogram, _pair_matrices
from .embed import AngleStrategy, Embedding
from .errors import SizeMismatch, ZeroVariance


def _pearson_vec(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two vectors, centring both in place: pass
    arrays the caller no longer needs, or copies."""
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise ZeroVariance("correlation of a constant vector is undefined")
    a -= a.mean()
    b -= b.mean()
    r = float(a @ b) / float(np.sqrt((a @ a) * (b @ b)))
    return min(1.0, max(-1.0, r))


def pearson_upper(a: CondensedMatrix, b: CondensedMatrix) -> float:
    """Pearson correlation between two condensed matrices over the same
    items, treating the upper-triangle entries as paired samples."""
    if a.n != b.n:
        raise SizeMismatch(f"matrices disagree on item count: {a.n} != {b.n}")
    return _pearson_vec(a.values.copy(), b.values.copy())


def _coords_of(coords: Union[Embedding, np.ndarray]) -> np.ndarray:
    if isinstance(coords, Embedding):
        return coords.coords
    return np.asarray(coords, dtype=np.float64)


def convert_dendrogram(coords: Union[Embedding, np.ndarray],
                       method: str,
                       dissimilarity: str = "euclidean") -> Dendrogram:
    """Recluster embedded points: pairwise dissimilarities on the
    coordinates, then the given linkage method."""
    if dissimilarity not in DISSIMILARITY_KINDS:
        raise ValueError(f"unknown dissimilarity {dissimilarity!r}")
    pts = _coords_of(coords)
    if dissimilarity == "euclidean":
        d0 = euclidean_dissimilarity(pts)
    else:
        d0 = correlation_dissimilarity(pts)
    return linkage(d0, method)


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
        return {
            "r_c": self.r_c,
            "r_k": self.r_k,
            "original_linkage": self.original_linkage,
            "converted_linkage": self.converted_linkage,
            "dissimilarity": self.dissimilarity,
            "strategy": self.strategy,
            "theta": self.theta,
            "swap": self.swap,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def evaluate_embedding(original: Dendrogram,
                       coords: Union[Embedding, np.ndarray],
                       converted_method: str,
                       *,
                       converted_dissimilarity: str = "euclidean",
                       original_method: Optional[str] = None,
                       dissimilarity: Optional[str] = None,
                       strategy: Optional[AngleStrategy] = None) -> EvalReport:
    """Recluster ``coords`` with ``converted_method`` over
    ``converted_dissimilarity`` and correlate the converted dendrogram's
    cophenetic and kinship matrices against the original's.  The other
    keyword arguments are carried into the report as provenance only; they
    do not affect the scores.
    """
    if converted_method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {converted_method!r}")
    pts = _coords_of(coords)
    if pts.shape[0] != original.n_leaves:
        raise SizeMismatch(
            f"embedding has {pts.shape[0]} points for "
            f"{original.n_leaves} leaves"
        )
    converted = convert_dendrogram(pts, converted_method,
                                   converted_dissimilarity)
    orig_coph, orig_kin = _pair_matrices(original, True, True)
    conv_coph, conv_kin = _pair_matrices(converted, True, True)
    r_c = _pearson_vec(orig_coph, conv_coph)
    r_k = _pearson_vec(orig_kin, conv_kin)
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
