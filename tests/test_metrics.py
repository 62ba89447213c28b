"""Tests for embedding evaluation: the scorer's exact Pearson step,
reclustering, and the report object.

The anchor here is the constructive guarantee that a straight-line layout
reclustered with single linkage gives back the original cophenetic matrix,
so r_c must be exactly 1.  The invariance tests exploit that Euclidean
distances ignore rigid motions and scale linearly.
"""

import json
import math
import warnings
from fractions import Fraction

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
from branchembed import dendrogram
from branchembed.metrics import _exact_pearson, _scores
from helpers import (
    balanced_dendrogram,
    caterpillar_dendrogram,
    exact_r_c,
    exact_r_k,
    random_dendrogram,
)


def _integers(v):
    """The floats ``v`` as the integers they are multiples of: each times
    the one power of two that makes them all whole."""
    exact = [Fraction(float(x)) for x in v]
    unit = max(x.denominator for x in exact)
    return [int(x * unit) for x in exact]


def _pearson(a, b):
    """The scorer's Pearson step, :func:`_exact_pearson`, on the integer
    vectors of ``a`` and ``b``; Pearson correlation ignores the two
    scales."""
    a, b = _integers(a), _integers(b)
    return _exact_pearson(len(a), sum(a), sum(x * x for x in a), sum(b),
                          sum(y * y for y in b),
                          sum(x * y for x, y in zip(a, b)))


def _rotate(coords, degrees):
    rad = math.radians(degrees)
    rot = np.array([[math.cos(rad), -math.sin(rad)],
                    [math.sin(rad), math.cos(rad)]])
    return coords @ rot.T


class TestPearsonUpper:
    """The exact Pearson step every r_c and r_k score goes through."""

    def test_self_correlation(self):
        assert _pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_anti_correlation(self):
        # b = -a + 6
        assert _pearson([1.0, 2.0, 3.0], [5.0, 4.0, 3.0]) == -1.0

    def test_hand_value(self):
        assert _pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == 0.5

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=6)
        b = rng.uniform(size=6)
        assert _pearson(a, b) == _pearson(b, a)

    def test_constant_vector_rejected(self):
        # NaN, which the scorer turns into ZeroVariance for the original
        # and a NaN cell for a converted tree.
        assert math.isnan(_pearson([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))
        assert math.isnan(_pearson([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]))

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            v = rng.normal(size=10)
            assert _pearson(v, v * 3.0 + 1.0) == 1.0
            assert _pearson(v, 1.0 - v * 0.75) == -1.0
            r = _pearson(v, rng.normal(size=10))
            assert -1.0 <= r <= 1.0

    # (-530, 400): a's squared norm would be subnormal in float64.
    @pytest.mark.parametrize("ka, kb", [
        (-600, -600), (-540, -540), (-300, -300), (300, 300), (500, 500),
        (-300, 0), (300, 0), (-530, 400),
    ])
    def test_scale_proof(self, ka, kb):
        # Vectors scaled by powers of two, whose float squared norms
        # would overflow or underflow, give the unscaled correlation bit
        # for bit.
        rng = np.random.default_rng(6)
        a = rng.normal(size=50)
        b = a + rng.normal(size=50)
        ref = _pearson(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _pearson(a * 2.0**ka, b * 2.0**kb)
        assert got == ref


class TestScores:
    """``metrics._scores``: one ``(r_c, r_k)`` row per converted tree,
    NaN where that tree's vector is constant."""

    def test_nan_row(self):
        n = 12
        original = linkage(euclidean_dissimilarity(gaussian_matrix(n, 3, 7)),
                           "average")
        good = convert_dendrogram(
            branching_embed(original, AngleStrategy.fixed(30.0)), "single")
        # Evenly spaced points on a line: single linkage merges them all
        # at 1, so the cophenetic vector is constant and kinship's is not.
        line = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        flat = convert_dendrogram(line, "single")
        assert set(flat.height.tolist()) == {1.0}
        got = _scores(original, [good, flat, good])
        assert got.shape == (3, 2)
        assert np.isnan(got[1, 0]) and not np.isnan(got[1, 1])
        assert not np.isnan(got[[0, 2]]).any()
        for k, tree in enumerate((good, flat, good)):
            assert np.array_equal(got[k], _scores(original, [tree])[0],
                                  equal_nan=True)
        with pytest.raises(ZeroVariance,
                           match="^correlation of a constant vector is "
                                 "undefined$"):
            evaluate_embedding(original, line, "single")


def _grid_trees(n):
    """A tie grid with steps 2 and 1 under single linkage (every row
    merges at 1, the rows join at 2), and two reclusterings of its
    embedding."""
    side = int(np.ceil(np.sqrt(n)))
    grid = np.stack(np.divmod(np.arange(n), side), axis=1) * [2.0, 1.0]
    tied = linkage(euclidean_dissimilarity(grid), "single")
    emb = branching_embed(tied, AngleStrategy.fixed(15))
    return tied, [convert_dendrogram(emb, "single"),
                  convert_dendrogram(emb, "average", "correlation")]


def _scaled(d, factor):
    return validate_dendrogram(
        [(r.left, r.right, r.height * factor, r.size) for r in d.records()],
        d.n_leaves)


class TestExactScores:
    """``_scores`` equals the exact oracles ``helpers.exact_r_c`` and
    ``helpers.exact_r_k`` bit for bit."""

    @staticmethod
    def check(original, trees):
        got = _scores(original, trees)
        want = [(exact_r_c(original, t), exact_r_k(original, t))
                for t in trees]
        assert got.tobytes() == np.array(want).tobytes()
        return got

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("n", [5, 40, 97])
    def test_tie_grids(self, monkeypatch, n, chunk):
        if chunk is not None:
            monkeypatch.setattr(dendrogram, "_PAIR_CHUNK", chunk)
        original, trees = _grid_trees(n)
        self.check(original, trees + [original])

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_random_trees(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(dendrogram, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(3, 60))
            original = random_dendrogram(n, rng)
            self.check(original, [random_dendrogram(n, rng)
                                  for _ in range(3)])

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("n", [40, 97])
    def test_deepest_and_shallowest_trees(self, monkeypatch, n, chunk):
        # Caterpillars of depth n - 1 on either spine, the deepest trees
        # there are, and balanced ones, scored in one call beside a
        # random tree and a tie grid, so that one call mixes depth
        # profiles.
        if chunk is not None:
            monkeypatch.setattr(dendrogram, "_PAIR_CHUNK", chunk)
        spines = [caterpillar_dendrogram(n),
                  caterpillar_dendrogram(n, left_spine=False)]
        balanced = balanced_dendrogram(n)
        grid, grid_trees = _grid_trees(n)
        mixed = (spines + [balanced, grid]
                 + [random_dendrogram(n, np.random.default_rng(n))]
                 + grid_trees)
        for original in (spines[0], balanced):
            self.check(original, mixed)

    def test_three_leaves(self):
        # Every topology and child order over three leaves, tied or not.
        trees = [validate_dendrogram(records, 3) for records in (
            [(0, 1, 1.0, 2), (3, 2, 2.0, 3)],
            [(2, 0, 1.0, 2), (1, 3, 2.0, 3)],
            [(1, 2, 1.0, 2), (3, 0, 1.0, 3)],
            [(1, 2, 0.5, 2), (0, 3, 3.0, 3)],
        )]
        for k, original in enumerate(trees[:2]):
            got = self.check(original, trees)
            assert got[k].tolist() == [1.0, 1.0]
            # The other cherry: kinship (2, 3, 3) against (3, 2, 3).
            assert got[1 - k, 1] == -0.5

    def test_two_leaves(self):
        d = validate_dendrogram([(0, 1, 1.0, 2)], 2)
        with pytest.raises(ZeroVariance):
            _scores(d, [d])
        with pytest.raises(ZeroVariance):
            exact_r_c(d, d)
        with pytest.raises(ZeroVariance):
            exact_r_k(d, d)

    def test_constant_cophenetic_converted(self):
        # The tree of ``TestScores.test_nan_row``: r_c is NaN, r_k is
        # exact.
        n = 12
        original = linkage(euclidean_dissimilarity(gaussian_matrix(n, 3, 7)),
                           "average")
        line = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        flat = convert_dendrogram(line, "single")
        got = self.check(original, [flat, original])
        assert np.isnan(got[0, 0]) and not np.isnan(got[0, 1])

    def test_constant_original(self):
        flat = validate_dendrogram([(0, 1, 1.0, 2), (2, 3, 1.0, 2),
                                    (4, 5, 1.0, 4)], 4)
        other = validate_dendrogram([(0, 1, 1.0, 2), (4, 2, 2.0, 3),
                                     (5, 3, 3.0, 4)], 4)
        with pytest.raises(ZeroVariance,
                           match="^correlation of a constant vector is "
                                 "undefined$"):
            _scores(flat, [other])
        with pytest.raises(ZeroVariance):
            exact_r_c(flat, other)

    def test_zero_heights(self):
        # Repeated rows merge at height 0 in the original, and their
        # coincident points at 0 in the reclusterings.
        x = np.repeat(gaussian_matrix(12, 3, 9), 3, axis=0)
        original = linkage(euclidean_dissimilarity(x), "average")
        assert (original.height == 0.0).sum() == 24
        emb = branching_embed(original, AngleStrategy.fixed(30.0))
        trees = [convert_dendrogram(emb, method)
                 for method in ("single", "ward")]
        assert all((t.height == 0.0).any() for t in trees)
        self.check(original, trees)

    def test_heights_spanning_the_range(self):
        # One tree's heights from subnormal to near the float64 maximum,
        # so its integers take many digits.
        original = validate_dendrogram(
            [(0, 1, 5e-324, 2), (2, 3, 1e-320, 2), (6, 7, 1e-300, 4),
             (8, 4, 1e300, 5), (9, 5, 1.7e308, 6)], 6)
        trees = [original, random_dendrogram(6, np.random.default_rng(3)),
                 _scaled(original, 0.5)]
        got = self.check(original, trees)
        assert got[0].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("top", [1e-320, 1e-300, 1e300, 1.7e308])
    def test_extreme_heights(self, top):
        # Heights scaled so that the largest is ``top``, from subnormal
        # to near the float64 maximum: r_c exact at any scale, r_k
        # unmoved by any scale.
        rng = np.random.default_rng(31)
        original = random_dendrogram(30, rng)
        trees = [random_dendrogram(30, rng) for _ in range(2)]
        base = _scores(original, trees)
        factor = top / max(d.height.max() for d in [original] + trees)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.check(_scaled(original, factor),
                             [_scaled(t, factor) for t in trees])
        assert np.array_equal(got[:, 1], base[:, 1])


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
