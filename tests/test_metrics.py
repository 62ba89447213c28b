"""Tests for embedding evaluation: the scorer's Pearson step,
reclustering, and the report object.

The anchor here is the constructive guarantee that a straight-line layout
reclustered with single linkage gives back the original cophenetic matrix,
so r_c must be exactly 1.  The invariance tests exploit that Euclidean
distances ignore rigid motions and scale linearly.
"""

import json
import math
import warnings

import numpy as np
import pytest

from branchembed import (
    AngleStrategy,
    BenchConfig,
    EvalReport,
    SizeMismatch,
    ZeroVariance,
    branching_embed,
    convert_dendrogram,
    cophenetic_matrix,
    euclidean_dissimilarity,
    evaluate_embedding,
    gaussian_matrix,
    line_embed,
    linkage,
    validate_dendrogram,
)
from branchembed.metrics import _centred, _pearson_vec
from helpers import random_dendrogram


def _pearson(a, b):
    """The scorer's Pearson step on copies of two vectors."""
    return _pearson_vec(_centred(np.array(a, dtype=float)),
                        _centred(np.array(b, dtype=float)))


def _rotate(coords, degrees):
    rad = math.radians(degrees)
    rot = np.array([[math.cos(rad), -math.sin(rad)],
                    [math.sin(rad), math.cos(rad)]])
    return coords @ rot.T


class TestPearsonUpper:
    """The Pearson step every r_c and r_k score goes through."""

    def test_self_correlation(self):
        assert _pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_anti_correlation(self):
        # b = -a + 6
        assert _pearson([1.0, 2.0, 3.0], [5.0, 4.0, 3.0]) == -1.0

    def test_hand_value(self):
        assert _pearson([1.0, 2.0, 3.0],
                        [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=6)
        b = rng.uniform(size=6)
        assert _pearson(a, b) == pytest.approx(_pearson(b, a))

    def test_constant_vector_rejected(self):
        with pytest.raises(ZeroVariance):
            _pearson([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            v = rng.normal(size=10)
            r = _pearson(v, v * 3.0 + 1.0)
            assert -1.0 <= r <= 1.0
            assert r == pytest.approx(1.0)


    # (-530, 400): a's squared norm is subnormal, the product is not.
    @pytest.mark.parametrize("ka, kb", [
        (-600, -600), (-540, -540), (-300, -300), (300, 300), (500, 500),
        (-300, 0), (300, 0), (-530, 400),
    ])
    def test_scale_proof(self, ka, kb):
        # Squared norms that overflow or underflow give the unscaled
        # correlation, not 0, a lost digit or a ZeroDivisionError.
        rng = np.random.default_rng(6)
        a = rng.normal(size=50)
        b = a + rng.normal(size=50)
        ref = _pearson(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _pearson(a * 2.0**ka, b * 2.0**kb)
        assert got == pytest.approx(ref, rel=0, abs=1e-15)


class TestConvertDendrogram:
    def test_two_points_merge_at_distance(self):
        coords = np.array([[0.0, 0.0], [0.0, 2.5]])
        for method in ("single", "complete", "average", "ward"):
            d = convert_dendrogram(coords, method)
            assert d.height == pytest.approx([2.5])

    def test_line_embed_single_reproduces_cophenetic(self):
        rng = np.random.default_rng(3)
        d = random_dendrogram(40, rng)
        back = convert_dendrogram(line_embed(d), "single")
        assert cophenetic_matrix(back).values == pytest.approx(
            cophenetic_matrix(d).values, abs=1e-12)

    def test_accepts_embedding_and_array(self):
        d = validate_dendrogram([(0, 1, 1.0, 2), (3, 2, 2.0, 3)], 3)
        emb = branching_embed(d, AngleStrategy.even())
        a = convert_dendrogram(emb, "average")
        b = convert_dendrogram(np.array(emb.coords), "average")
        assert a == b

    def test_correlation_kind(self):
        coords = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, -1.0]])
        d = convert_dendrogram(coords, "single", "correlation")
        # rows with positive slope correlate perfectly in 2-D
        assert d.height[0] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_dissimilarity(self):
        with pytest.raises(ValueError):
            convert_dendrogram(np.zeros((3, 2)), "single", "cosine")

    def test_rejects_ward_on_correlation(self):
        coords = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, -1.0]])
        with pytest.raises(ValueError) as bench_err:
            BenchConfig(conditions=(("correlation", "ward"),))
        with pytest.raises(ValueError) as err:
            convert_dendrogram(coords, "ward", "correlation")
        assert str(err.value) == str(bench_err.value)


class TestEvaluateEmbedding:
    def test_line_embed_perfect_r_c(self):
        rng = np.random.default_rng(4)
        d = random_dendrogram(30, rng)
        rep = evaluate_embedding(d, line_embed(d), "single")
        assert rep.r_c == pytest.approx(1.0, abs=1e-12)
        assert -1.0 <= rep.r_k <= 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_line_embed_perfect_r_c_sweep(self, seed):
        rng = np.random.default_rng(40 + seed)
        d = random_dendrogram(int(rng.integers(4, 80)), rng)
        rep = evaluate_embedding(d, line_embed(d), "single")
        assert rep.r_c == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("method", ["single", "average", "ward"])
    def test_scores_survive_huge_scale(self, method):
        # At 2**300 the cophenetic vectors' squared norms overflow.
        x = gaussian_matrix(20, 3, 5)
        strat = AngleStrategy.fixed(15.0)
        reps = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1.0, 2.0**300):
                d = linkage(euclidean_dissimilarity(x * scale), method)
                reps.append(evaluate_embedding(
                    d, branching_embed(d, strat), method))
        assert reps[1].r_c == pytest.approx(reps[0].r_c, rel=0, abs=1e-12)
        assert reps[1].r_k == pytest.approx(reps[0].r_k, rel=0, abs=1e-12)

    def test_scores_survive_summing_overflow(self):
        # The cophenetic vector's sum overflows, though every entry is
        # finite; scaled by 1e-308 the same tree sums without trouble.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
        reps = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1.0, 1e-308):
                d = validate_dendrogram(
                    [(0, 1, 1e308 * scale, 2), (2, 3, 1.2e308 * scale, 2),
                     (4, 5, 1.7e308 * scale, 4)], 4)
                reps.append(evaluate_embedding(d, pts, "single"))
        assert reps[0].r_c == pytest.approx(reps[1].r_c, rel=0, abs=1e-12)
        assert reps[0].r_c == pytest.approx(0.979796, abs=1e-6)
        assert reps[0].r_k == reps[1].r_k

    def test_size_mismatch(self):
        d = validate_dendrogram([(0, 1, 1.0, 2), (3, 2, 2.0, 3)], 3)
        with pytest.raises(SizeMismatch):
            evaluate_embedding(d, np.zeros((4, 2)), "single")

    def test_unknown_method(self):
        d = validate_dendrogram([(0, 1, 1.0, 2), (3, 2, 2.0, 3)], 3)
        with pytest.raises(ValueError):
            evaluate_embedding(d, np.zeros((3, 2)), "centroid")

    def test_rejects_ward_on_correlation(self):
        d = validate_dendrogram([(0, 1, 1.0, 2), (3, 2, 2.0, 3)], 3)
        emb = branching_embed(d, AngleStrategy.even())
        with pytest.raises(ValueError) as bench_err:
            BenchConfig(conditions=(("correlation", "ward"),))
        with pytest.raises(ValueError) as err:
            evaluate_embedding(d, emb, "ward", dissimilarity="correlation")
        assert str(err.value) == str(bench_err.value)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(5)
        d = random_dendrogram(35, rng)
        emb = branching_embed(d, AngleStrategy.fixed(30.0))
        base = evaluate_embedding(d, emb, "average")
        moved = _rotate(np.array(emb.coords), 73.0) + np.array([4.0, -2.0])
        rep = evaluate_embedding(d, moved, "average")
        assert rep.r_c == pytest.approx(base.r_c, abs=1e-9)
        assert rep.r_k == pytest.approx(base.r_k, abs=1e-9)

    def test_reflection_invariance(self):
        rng = np.random.default_rng(6)
        d = random_dendrogram(25, rng)
        emb = branching_embed(d, AngleStrategy.even())
        base = evaluate_embedding(d, emb, "complete")
        flipped = np.array(emb.coords) * np.array([-1.0, 1.0])
        rep = evaluate_embedding(d, flipped, "complete")
        assert rep.r_c == pytest.approx(base.r_c, abs=1e-9)
        assert rep.r_k == pytest.approx(base.r_k, abs=1e-9)

    def test_scale_covariance(self):
        rng = np.random.default_rng(7)
        d = random_dendrogram(25, rng)
        emb = branching_embed(d, AngleStrategy.fixed(45.0))
        for method in ("single", "complete", "average", "ward"):
            big = convert_dendrogram(np.array(emb.coords) * 3.0, method)
            small = convert_dendrogram(emb, method)
            assert big.height == pytest.approx(small.height * 3.0)
        base = evaluate_embedding(d, emb, "average")
        scaled = evaluate_embedding(d, np.array(emb.coords) * 3.0, "average")
        assert scaled.r_c == pytest.approx(base.r_c, abs=1e-9)
        assert scaled.r_k == pytest.approx(base.r_k, abs=1e-9)

    def test_strategy_provenance_fields(self):
        rng = np.random.default_rng(8)
        d = random_dendrogram(12, rng)
        emb = branching_embed(d, AngleStrategy.fixed(15.0))
        rep = evaluate_embedding(
            d, emb, "average",
            original_method="average", dissimilarity="euclidean",
            strategy=AngleStrategy.fixed(15.0))
        assert rep.strategy == "fixed" and rep.theta == 15.0
        assert rep.swap is True and rep.seed is None
        rep2 = evaluate_embedding(
            d, branching_embed(d, AngleStrategy.random(9)), "average",
            strategy=AngleStrategy.random(9))
        assert rep2.strategy == "random" and rep2.seed == 9
        assert rep2.theta is None and rep2.swap is None


class TestEvalReport:
    def test_json_keys(self):
        rep = EvalReport(r_c=0.5, r_k=0.25, converted_linkage="average",
                         original_linkage="average",
                         dissimilarity="euclidean", strategy="fixed",
                         theta=15.0, swap=True, seed=None)
        data = json.loads(rep.to_json())
        assert set(data) == {"r_c", "r_k", "original_linkage",
                             "converted_linkage", "dissimilarity",
                             "strategy", "theta", "swap", "seed"}
        assert data["r_c"] == 0.5 and data["swap"] is True
        assert data["seed"] is None

    def test_json_is_stable(self):
        rep = EvalReport(r_c=0.1, r_k=0.2, converted_linkage="ward")
        assert rep.to_json() == rep.to_json()
        assert rep.to_json().endswith("\n")

    def test_unset_fields_default_none(self):
        rep = EvalReport(r_c=0.0, r_k=0.0, converted_linkage="single")
        assert rep.original_linkage is None
        assert rep.to_dict()["theta"] is None
