"""Tests for dissimilarities and agglomerative clustering.

The linkage implementation (Lance-Williams updates on a shrinking matrix,
closest pair found from cached row minima) is checked two ways: against
naive_linkage_oracle, which recomputes every inter-cluster value from raw
pairs at every step and shares no code with it beyond the dissimilarity
input, and against stepwise_linkage, the full-matrix scan with the same
arithmetic, for exact equality of the merge tables.  The stacked loop
behind the benchmark's reclustering must equal both.  Small fixed
instances were worked out by hand.
"""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from branchembed import (
    DISSIMILARITY_KINDS,
    LINKAGE_METHODS,
    AngleStrategy,
    BranchEmbedError,
    CondensedMatrix,
    Dendrogram,
    DissimilarityOverflow,
    LinkageOverflow,
    NegativeHeight,
    ZeroVarianceRow,
    branching_embed,
    cophenetic_matrix,
    correlation_dissimilarity,
    dissimilarity,
    euclidean_dissimilarity,
    linkage,
    validate_dendrogram,
)
from branchembed import cluster, dendrogram
from branchembed.bench import DEFAULT_CONDITIONS, default_strategies
from branchembed.cli import main
from branchembed.metrics import convert_dendrogram
from helpers import (
    fill_spy,
    naive_linkage_oracle,
    rowloop_euclidean,
    stepwise_linkage,
)

EPS = 1e-9


def brute_euclidean(x):
    n = len(x)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(math.dist(x[i], x[j]))
    return np.array(out)


def brute_correlation(x):
    n = len(x)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            r = np.corrcoef(x[i], x[j])[0, 1]
            out.append(1.0 - r)
    return np.array(out)


@pytest.fixture
def points_0_1_10():
    return euclidean_dissimilarity(np.array([[0.0], [1.0], [10.0]]))


class TestEuclidean:
    def test_three_four_five(self):
        d = euclidean_dissimilarity(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d.values.tolist() == [5.0]

    def test_identical_rows(self):
        d = euclidean_dissimilarity(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert d.values.tolist() == [0.0]

    def test_layout(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        d = euclidean_dissimilarity(x)
        assert d.value(0, 1) == pytest.approx(5.0)
        assert d.value(0, 2) == pytest.approx(10.0)
        assert d.value(1, 2) == pytest.approx(5.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_definition(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(int(rng.integers(2, 20)), 3))
        got = euclidean_dissimilarity(x).values
        assert got == pytest.approx(brute_euclidean(x), abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            euclidean_dissimilarity(np.array([[0.0, np.inf], [1.0, 2.0]]))

    def test_overflow_is_named(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0], [1e200, -1e200],
                      [-1e200, 1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DissimilarityOverflow) as err:
                euclidean_dissimilarity(x)
        assert err.value.rows == (0, 2)
        assert isinstance(err.value, BranchEmbedError)
        assert isinstance(err.value, ValueError)

    def test_overflow_in_later_chunk(self, monkeypatch):
        # Only rows 2 and 3 are far enough apart to overflow, so with one
        # row per chunk the first overflowing pair lies in the third chunk.
        monkeypatch.setattr(dendrogram, "_PAIR_CHUNK", 1)
        x = np.array([[0.0, 0.0], [3.0, 4.0], [1e154, 0.0], [-1e154, 0.0],
                      [5.0, 5.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DissimilarityOverflow) as err:
                euclidean_dissimilarity(x)
        assert err.value.rows == (2, 3)

    def test_wide_data_memory(self):
        # Chunks hold fewer pairs as p grows; with the pair budget of
        # narrow data the peak was 63.8 MiB.
        x = np.random.default_rng(7).normal(size=(600, 500))
        tracemalloc.start()
        try:
            euclidean_dissimilarity(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_rejects_one_row(self):
        with pytest.raises(ValueError):
            euclidean_dissimilarity(np.array([[1.0, 2.0]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            euclidean_dissimilarity(np.array([1.0, 2.0]))

    def test_rejects_no_columns(self):
        with pytest.raises(ValueError, match="^need at least 1 column$"):
            euclidean_dissimilarity(np.empty((3, 0)))


@functools.lru_cache(maxsize=1)
def _pair_walk_corpus():
    """400 data matrices, n from 2 to 300 and p in {1, 2, 3, 5, 11}: a
    third are tie-heavy integer grids, the rest Gaussian scaled by up to
    10**5 either way.  Then 10 wide ones, p in {64, 500}."""
    rng = np.random.default_rng(2100)
    out = []
    for k in range(400):
        n = int(rng.integers(2, 301))
        p = int(rng.choice([1, 2, 3, 5, 11]))
        if k % 3 == 0:
            side = int(rng.integers(2, 5))
            out.append(rng.integers(0, side, size=(n, p)).astype(float))
        else:
            out.append(rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-5, 5))
    # Wide data, whose chunks hold fewer pairs.
    wide = np.random.default_rng(2101)
    for p in (64, 500):
        for n in (2, 3, 40, 150):
            out.append(wide.normal(size=(n, p)))
        out.append(wide.integers(0, 3, size=(40, p)).astype(float))
    return out


class TestPairWalk:
    """The chunked Euclidean fill and ``to_square`` equal the per-row
    fill and a ``triu_indices`` scatter, bit for bit."""

    # 1: a chunk per row.  7 and 60: single long rows, then several
    # short rows per chunk.  None: the default chunk size.
    @pytest.mark.parametrize("chunk", [1, 7, 60, None])
    def test_euclidean_equals_row_loop(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(dendrogram, "_PAIR_CHUNK", chunk)
        for k, x in enumerate(_pair_walk_corpus()):
            assert np.array_equal(euclidean_dissimilarity(x).values,
                                  rowloop_euclidean(x)), f"input {k}"

    def test_to_square_equals_scatter(self):
        for k, x in enumerate(_pair_walk_corpus()):
            d = euclidean_dissimilarity(x)
            iu, ju = np.triu_indices(d.n, 1)
            ref = np.zeros((d.n, d.n))
            ref[iu, ju] = d.values
            ref[ju, iu] = d.values
            assert np.array_equal(d.to_square(), ref), f"input {k}"


class TestCorrelation:
    def test_rejects_one_column(self):
        with pytest.raises(ValueError,
                           match="^row correlation needs at least 2 columns$"):
            correlation_dissimilarity(np.array([[1.0], [2.0], [3.0]]))

    def test_hand_value(self):
        d = correlation_dissimilarity(
            np.array([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0]]))
        assert d.values == pytest.approx([0.5], abs=1e-12)

    def test_affine_rows_fully_similar(self):
        x = np.array([[1.0, 2.0, 3.0], [5.0, 7.0, 9.0]])  # row1 = 2*row0 + 3
        d = correlation_dissimilarity(x)
        assert d.value(0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_rows_maximal(self):
        x = np.array([[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]])
        d = correlation_dissimilarity(x)
        assert d.value(0, 1) == pytest.approx(2.0, abs=1e-12)

    def test_bounds_clamped(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(30, 4))
        vals = correlation_dissimilarity(x).values
        assert vals.min() >= 0.0 and vals.max() <= 2.0

    def test_constant_row_rejected(self):
        x = np.array([[1.0, 2.0, 3.0], [7.0, 7.0, 7.0]])
        with pytest.raises(ZeroVarianceRow) as err:
            correlation_dissimilarity(x)
        assert err.value.row == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_definition(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(int(rng.integers(2, 20)), 5))
        got = correlation_dissimilarity(x).values
        assert got == pytest.approx(brute_correlation(x), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 40, 300])
    def test_matches_index_gather(self, n):
        # Each pair's r is the einsum dot product of its two unit rows,
        # gathered here with triu_indices in one piece; the chunked pair
        # walk must give the same values in the same order.
        rng = np.random.default_rng(4300 + n)
        x = rng.normal(size=(n, 5))
        centered = x - x.mean(axis=1, keepdims=True)
        unit = centered / np.sqrt(np.einsum("ij,ij->i", centered,
                                            centered))[:, None]
        iu, ju = np.triu_indices(n, 1)
        corr = np.einsum("ij,ij->i", unit[iu], unit[ju])
        expected = np.clip(1.0 - corr, 0.0, 2.0)
        assert np.array_equal(correlation_dissimilarity(x).values, expected)

    @pytest.mark.parametrize("n", [2, 3, 40, 300])
    def test_two_columns_exact(self, n):
        # Two-column rows correlate exactly +1 or -1, so 1 - r is exactly
        # 1 - sign(x1 - x0) * sign(y1 - y0), at any scale.
        rng = np.random.default_rng(4400 + n)
        x = rng.normal(size=(n, 2))
        iu, ju = np.triu_indices(n, 1)
        rise = np.sign(x[:, 1] - x[:, 0])
        expected = 1.0 - rise[iu] * rise[ju]
        for scale in (1.0, 2.0 ** 40, 2.0 ** -40, 1e300, 1e-300):
            got = correlation_dissimilarity(x * scale).values
            assert np.array_equal(got, expected), scale
        # The definition agrees to round-off.
        if 2 < n <= 40:
            assert got == pytest.approx(brute_correlation(x), abs=1e-12)

    @pytest.mark.parametrize("p", [3, 5])
    def test_rows_scaled_by_powers_of_two(self, p):
        # Each row is first brought to a largest absolute value in
        # [0.5, 1) by an exact power of two, so rows scaled by 2^k give
        # the same bits, even where their sums of squares would overflow
        # or underflow.
        rng = np.random.default_rng(4600 + p)
        x = rng.normal(size=(40, p))
        whole = correlation_dissimilarity(x).values
        ks = (-900, -300, 300, 900)
        for k in ks:
            got = correlation_dissimilarity(np.ldexp(x, k)).values
            assert np.array_equal(got, whole), k
        per_row = np.ldexp(x, rng.choice(ks, size=(len(x), 1)))
        assert np.array_equal(correlation_dissimilarity(per_row).values,
                              whole)

    def test_tiny_and_huge_rows(self):
        d = correlation_dissimilarity(
            [[0.0, 1e-200, 0.0], [1.0, 2.0, 3.0], [0.0, 1e200, 2e200]])
        assert d.value(0, 1) == 1.0
        assert d.value(1, 2) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 5])
    def test_chunked_walk_equals_one_chunk(self, monkeypatch, p):
        rng = np.random.default_rng(4500 + p)
        x = rng.normal(size=(60, p))
        whole = correlation_dissimilarity(x).values
        monkeypatch.setattr(dendrogram, "_PAIR_CHUNK", 7)
        assert np.array_equal(correlation_dissimilarity(x).values, whole)

    def test_symmetric_square(self):
        rng = np.random.default_rng(43)
        sq = correlation_dissimilarity(rng.normal(size=(8, 4))).to_square()
        assert np.array_equal(sq, sq.T)


class TestLinkageSmallInstances:
    def test_single(self, points_0_1_10):
        d = linkage(points_0_1_10, "single")
        assert list(d.records())[0][:2] == (0, 1)
        assert d.height == pytest.approx([1.0, 9.0])

    def test_complete(self, points_0_1_10):
        d = linkage(points_0_1_10, "complete")
        assert d.height == pytest.approx([1.0, 10.0])

    def test_average(self, points_0_1_10):
        d = linkage(points_0_1_10, "average")
        assert d.height == pytest.approx([1.0, 9.5])

    def test_ward(self, points_0_1_10):
        d = linkage(points_0_1_10, "ward")
        assert d.height == pytest.approx([1.0, 19.0 / math.sqrt(3.0)])

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_two_points_merge_at_distance(self, method):
        d0 = euclidean_dissimilarity(np.array([[0.0, 0.0], [0.6, 0.8]]))
        d = linkage(d0, method)
        assert d.height == pytest.approx([1.0])
        assert list(d.records()) == [(0, 1, pytest.approx(1.0), 2)]

    def test_rejects_unknown_method(self, points_0_1_10):
        with pytest.raises(ValueError):
            linkage(points_0_1_10, "median")

    @pytest.mark.parametrize("method, values, step", [
        # ward squares 1e160 past the float64 range before the first merge
        ("ward", [1e160, 2e160, 3e160], 0),
        # merging (0, 1) adds 1.5e308 + 1e308 and 1.7e308 + 1.2e308; the
        # root would merge at those overflowed averages
        ("average", [1e308, 1.5e308, 1.7e308, 1e308, 1.2e308, 1.6e308], 2),
    ])
    def test_overflow_is_named(self, method, values, step):
        n = round((1 + math.sqrt(1 + 8 * len(values))) / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LinkageOverflow) as err:
                linkage(CondensedMatrix(n, np.array(values)), method)
        assert (err.value.method, err.value.step) == (method, step)
        assert f"{method} linkage" in str(err.value)
        assert f"step {step}" in str(err.value)
        assert isinstance(err.value, BranchEmbedError)
        assert isinstance(err.value, ValueError)


class TestTieBreaking:
    # unit square: four edges of length 1 force repeated exact ties
    @pytest.fixture
    def square(self):
        return euclidean_dissimilarity(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))

    def test_single_linkage_sequence(self, square):
        d = linkage(square, "single")
        recs = [(r.left, r.right) for r in d.records()]
        assert recs == [(0, 1), (2, 3), (4, 5)]
        assert d.height == pytest.approx([1.0, 1.0, 1.0])

    def test_complete_linkage_sequence(self, square):
        d = linkage(square, "complete")
        recs = [(r.left, r.right) for r in d.records()]
        assert recs == [(0, 1), (2, 3), (4, 5)]
        assert d.height == pytest.approx([1.0, 1.0, math.sqrt(2.0)])

    def test_reruns_identical(self, square):
        a = linkage(square, "average")
        b = linkage(square, "average")
        assert a == b

    def test_oracle_agrees_on_ties(self, square):
        for method in LINKAGE_METHODS:
            a = linkage(square, method)
            b = naive_linkage_oracle(square, method)
            assert [r[:2] for r in a.records()] == \
                   [r[:2] for r in b.records()]


_DIRECT = {"euclidean": euclidean_dissimilarity,
           "correlation": correlation_dissimilarity}


def _random_data(kind, n, rng):
    return rng.normal(size=(n, 3 if kind == "euclidean" else 6))


class TestDissimilarityDispatch:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown dissimilarity"):
            dissimilarity("cosine", np.eye(3))


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    @pytest.mark.parametrize("kind", DISSIMILARITY_KINDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_heights_and_structure_match(self, method, kind, seed):
        if method == "ward" and kind == "correlation":
            pytest.skip("not a benchmarked combination")
        rng = np.random.default_rng(seed * 97 + 17)
        n = int(rng.integers(2, 13))
        x = _random_data(kind, n, rng)
        d0 = _DIRECT[kind](x)
        assert np.array_equal(dissimilarity(kind, x).values, d0.values)
        fast = linkage(d0, method)
        slow = naive_linkage_oracle(d0, method)
        assert np.allclose(np.sort(fast.height), np.sort(slow.height),
                           atol=EPS, rtol=0)
        assert np.allclose(cophenetic_matrix(fast).values,
                           cophenetic_matrix(slow).values,
                           atol=EPS, rtol=0)

    def test_oracle_rejects_large_inputs(self):
        rng = np.random.default_rng(0)
        d0 = euclidean_dissimilarity(rng.normal(size=(65, 2)))
        with pytest.raises(ValueError):
            naive_linkage_oracle(d0, "single")


class TestLinkageProperties:
    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_heights(self, method, seed):
        rng = np.random.default_rng(300 + seed)
        d0 = euclidean_dissimilarity(rng.normal(size=(25, 3)))
        d = linkage(d0, method)  # validate_dendrogram ran inside
        assert np.all(np.diff(d.height) >= -1e-12)
        assert d.size[-1] == 25

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_permutation_equivariance(self, method):
        rng = np.random.default_rng(400)
        x = rng.normal(size=(18, 4))
        perm = rng.permutation(18)
        sq_base = cophenetic_matrix(
            linkage(euclidean_dissimilarity(x), method)).to_square()
        sq_perm = cophenetic_matrix(
            linkage(euclidean_dissimilarity(x[perm]), method)).to_square()
        assert np.allclose(sq_perm, sq_base[np.ix_(perm, perm)], atol=EPS)

    def test_single_height_equals_min_cross_pair(self):
        rng = np.random.default_rng(500)
        x = rng.normal(size=(14, 3))
        d0 = euclidean_dissimilarity(x)
        d = linkage(d0, "single")
        coph = cophenetic_matrix(d)
        # single linkage never joins above the direct dissimilarity
        assert np.all(coph.values <= d0.values + EPS)

    def test_complete_height_at_least_direct(self):
        rng = np.random.default_rng(501)
        d0 = euclidean_dissimilarity(rng.normal(size=(14, 3)))
        coph = cophenetic_matrix(linkage(d0, "complete"))
        assert np.all(coph.values >= d0.values - EPS)

    def test_accepts_matrix_from_square(self):
        sq = np.array([[0.0, 2.0, 4.0],
                       [2.0, 0.0, 3.0],
                       [4.0, 3.0, 0.0]])
        d = linkage(CondensedMatrix.from_square(sq), "single")
        assert d.height == pytest.approx([2.0, 3.0])

    def test_output_is_valid_dendrogram(self):
        rng = np.random.default_rng(502)
        d0 = correlation_dissimilarity(rng.normal(size=(12, 5)))
        d = linkage(d0, "average")
        again = validate_dendrogram(
            np.column_stack([d.left, d.right, d.height, d.size]), 12)
        assert again == d


def _grid(rng, n):
    """Points on a tiny integer grid: many coincident points and equal
    distances, so most steps tie at the minimum."""
    side = int(rng.integers(2, 5))
    dims = int(rng.integers(1, 4))
    return rng.integers(0, side, size=(n, dims)).astype(float)


def _stepwise_problems(family, count, seed):
    """``count`` ``(x, kind)`` dissimilarity inputs of one family, all
    from one seed."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 48))
        if family == "gaussian":
            out.append((rng.normal(size=(n, 3)), "euclidean"))
        elif family == "grid":
            out.append((_grid(rng, n), "euclidean"))
        elif family == "correlation":
            out.append((rng.normal(size=(n, 5)), "correlation"))
        else:
            # Reclustering inputs: 2-D embeddings of a Gaussian tree,
            # under Euclidean and under row-correlation dissimilarity.
            n = max(n, 3)
            tree = linkage(euclidean_dissimilarity(rng.normal(size=(n, 4))),
                           "average")
            for strategy in (AngleStrategy.fixed(0.0),
                             AngleStrategy.fixed(90.0), AngleStrategy.even()):
                coords = branching_embed(tree, strategy).coords
                out.append((coords, "euclidean"))
                out.append((coords, "correlation"))
    return out[:count]


def _stepwise_corpus(family, count, seed):
    """``count`` condensed inputs of one family, all from one seed."""
    return [dissimilarity(kind, x)
            for x, kind in _stepwise_problems(family, count, seed)]


# 240 grids out of 460 inputs, each run under the 4 methods: 1,840 cases.
STEPWISE_FAMILIES = (("grid", 240, 1), ("gaussian", 80, 2),
                     ("correlation", 60, 3), ("embedded", 80, 4))


class TestAgainstStepwise:
    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    @pytest.mark.parametrize("family,count,seed", STEPWISE_FAMILIES)
    def test_merge_tables_equal(self, family, count, seed, method):
        corpus = _stepwise_corpus(family, count, seed)
        for k, d0 in enumerate(corpus):
            assert linkage(d0, method) == stepwise_linkage(d0, method), \
                f"{family} input {k} (n={d0.n})"

    def test_corpus_is_mostly_ties(self):
        _, grids, seed = STEPWISE_FAMILIES[0]
        assert grids * 2 > sum(c for _, c, _ in STEPWISE_FAMILIES)
        tied = 0
        for d0 in _stepwise_corpus("grid", grids, seed):
            vals = np.sort(d0.values)
            tied += bool(np.any(vals[1:] == vals[:-1]))
        assert tied >= 0.9 * grids

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_large_gaussian(self, method):
        rng = np.random.default_rng(1000)
        d0 = euclidean_dissimilarity(rng.normal(size=(1000, 5)))
        assert linkage(d0, method) == stepwise_linkage(d0, method)



def _reference(x, kind, method):
    """What ``_cluster_stack`` must give the problem: the tree or the
    error of ``linkage(dissimilarity(kind, x), method)``."""
    try:
        return linkage(dissimilarity(kind, x), method)
    except BranchEmbedError as err:
        return err


def _key(result):
    """A tree as itself, an error as its class, message, step and record."""
    if isinstance(result, Dendrogram):
        return result
    return (type(result), str(result), getattr(result, "step", None),
            getattr(result, "record", None))


# Problems that fail, each with its linkage method.
_FAILING = [
    # Ward's squared update overflows at its second merge.
    ("ward", ([[0.0, 0.0], [1e154, 0.0], [0.0, 1.2e154]], "euclidean")),
    # A constant row has no correlation.  Two-column data would go to
    # the closed form, not to a stack.
    ("average", ([[1.0, 2.0, 0.0], [3.0, 3.0, 3.0], [2.0, 5.0, 1.0],
                  [0.0, 1.0, 3.0]], "correlation")),
    # Squared differences overflow, in two columns and in three.
    ("single", ([[0.0, 0.0], [2e154, 0.0], [0.0, 1.0]], "euclidean")),
    ("complete", ([[0.0, 0.0, 1.0], [1.0, 1e155, 0.0],
                   [2.0, 3.0, 0.0], [1.0, 1.0, 1.0]], "euclidean")),
]


def _filled(ds, method):
    """A (B, n, n) stack of condensed matrices as ``_stacked_linkage``
    takes it, and its methods, all ``method``."""
    return np.stack([d0.to_square() for d0 in ds]), [method] * len(ds)


class TestLinkageStack:
    """``_cluster_stack`` gives every ``(x, kind, method)`` problem of a
    stack the tree, or the error, that ``linkage(dissimilarity(kind, x),
    method)`` gives it alone.  A stack is filled from data, so it never
    holds a negative or overflowing dissimilarity: for those inputs only
    ``linkage``, and whether the stacked loop gives up on them, are
    checked."""

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    @pytest.mark.parametrize("family,count,seed", STEPWISE_FAMILIES)
    def test_equals_linkage_and_stepwise(self, family, count, seed, method):
        rng = np.random.default_rng(seed)
        groups = {}
        for x, kind in _stepwise_problems(family, count, seed):
            groups.setdefault(len(x), []).append((x, kind, method))
        assert any(len(g) > 1 for g in groups.values())
        for group in groups.values():
            refs = []
            for x, kind, _ in group:
                d0 = dissimilarity(kind, x)
                refs.append(linkage(d0, method))
                assert refs[-1] == stepwise_linkage(d0, method)
            order = rng.permutation(len(group))
            got = cluster._cluster_stack([group[k] for k in order])
            assert got == [refs[k] for k in order], f"n={len(group[0][0])}"
            assert cluster._cluster_stack(group[:1]) == refs[:1]

    @pytest.mark.parametrize("n, cols, scale", [
        (3, 2, 1.0), (17, 3, 2.0 ** 40), (17, 8, 2.0 ** -40),
        (100, 2, 1.0), (100, 5, 1.0), (100, 2, 2.0 ** -40),
        (100, 8, 2.0 ** 40),
    ])
    def test_shuffled_conditions_equal_linkage(self, monkeypatch, n, cols,
                                               scale):
        # Three inputs under all 7 conditions, shuffled, so every stack
        # mixes methods and kinds; then again split into several stacks.
        rng = np.random.default_rng(n * cols)
        problems = []
        for _ in range(3):
            if cols == 2:
                tree = linkage(euclidean_dissimilarity(
                    rng.normal(size=(n, 4))), "average")
                x = branching_embed(tree, AngleStrategy.random(
                    int(rng.integers(1 << 32)))).coords
            else:
                x = rng.normal(size=(n, cols))
            problems += [(x * scale, kind, method)
                         for kind, method in DEFAULT_CONDITIONS]
        problems = [problems[k] for k in rng.permutation(len(problems))]
        # The filled stack holds the full matrix of every problem.
        ordered = sorted(problems, key=lambda p: LINKAGE_METHODS.index(p[2]))
        dm = np.empty((len(ordered), n, n))
        assert cluster._fill_stack(dm, ordered) is True
        for sq, (x, kind, method) in zip(dm, ordered):
            assert np.array_equal(sq, dissimilarity(kind, x).to_square())
        refs = [_reference(*p) for p in problems]
        assert all(isinstance(r, Dendrogram) for r in refs)
        assert cluster._cluster_stack(problems) == refs
        monkeypatch.setattr(cluster, "_STACK_BYTES", 5 * 8 * n * n)
        assert cluster._cluster_stack(problems) == refs

    @pytest.mark.parametrize("inject", [
        ("correlation",), ("overflow",), ("partial",), ("ward",),
        ("correlation", "overflow", "partial", "ward"),
    ])
    def test_injected_failures_fail_only_their_problems(self, inject):
        rng = np.random.default_rng(len(inject))
        n = 17
        problems = [(rng.normal(size=(n, 5)), kind, method)
                    for kind, method in DEFAULT_CONDITIONS]
        bad = {}
        if "correlation" in inject:
            x = rng.normal(size=(n, 4))
            x[6] = 0.1
            bad[1] = ((x, "correlation", "complete"), ZeroVarianceRow)
        if "overflow" in inject:
            x = rng.normal(size=(n, 2)) * 1e155
            bad[4] = ((x, "euclidean", "single"), DissimilarityOverflow)
        if "partial" in inject:
            # Only the pair of rows 0 and 1 overflows, and single linkage
            # joins them through finite paths, so only the fill shows it.
            x = rng.normal(size=(n, 2))
            x[:2] = [[-7e153, 0.0], [7e153, 0.0]]
            bad[5] = ((x, "euclidean", "single"), DissimilarityOverflow)
        if "ward" in inject:
            x = rng.normal(size=(n, 2))
            x *= 1e154 / euclidean_dissimilarity(x).values.max()
            bad[7] = ((x, "euclidean", "ward"), LinkageOverflow)
        for at in sorted(bad):
            problems.insert(at, bad[at][0])
        refs = [_reference(*p) for p in problems]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = cluster._cluster_stack(problems)
        for at, (_, error) in bad.items():
            assert type(refs[at]) is error
        assert [_key(g) for g in got] == [_key(r) for r in refs]
        failed = [k for k, g in enumerate(got)
                  if isinstance(g, BranchEmbedError)]
        assert failed == sorted(bad)

    @pytest.mark.parametrize("method, values, step", [
        ("ward", [1e160, 2e160, 3e160], 0),
        ("average", [1e308, 1.5e308, 1.7e308, 1e308, 1.2e308, 1.6e308], 2),
    ])
    def test_overflow_fails_only_its_problem(self, method, values, step):
        n = round((1 + math.sqrt(1 + 8 * len(values))) / 2)
        rng = np.random.default_rng(n)
        bad = CondensedMatrix(n, np.array(values))
        good = [euclidean_dissimilarity(rng.normal(size=(n, 2)))
                for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LinkageOverflow) as err:
                linkage(bad, method)
            assert cluster._stacked_linkage(
                *_filled([good[0], bad, good[1], good[2]], method)) is None
        assert (err.value.method, err.value.step) == (method, step)
        assert cluster._stacked_linkage(*_filled(good, method)) == \
            [linkage(d0, method) for d0 in good]

    def test_late_overflow_fails_only_its_problem(self):
        # Size-weighted average sums overflow near the root.
        rng = np.random.default_rng(297)
        n = 300
        bad = CondensedMatrix(n, rng.uniform(1, 2, n * (n - 1) // 2) * 1e306)
        good = [euclidean_dissimilarity(rng.normal(size=(n, 3)))
                for _ in range(2)]
        with pytest.raises(LinkageOverflow) as err:
            linkage(bad, "average")
        assert err.value.step > 0
        assert cluster._stacked_linkage(
            *_filled([good[0], bad, good[1]], "average")) is None

    def test_rejected_tree_fails_only_its_problem(self):
        # A negative dissimilarity gives a negative merge height, which
        # validate_dendrogram rejects, and so does the stacked loop.
        bad = CondensedMatrix.from_square(
            [[0.0, -1.0, 2.0], [-1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        rng = np.random.default_rng(3)
        good = [euclidean_dissimilarity(rng.normal(size=(3, 2)))
                for _ in range(2)]
        with pytest.raises(NegativeHeight) as err:
            linkage(bad, "single")
        assert err.value.record == 0
        assert cluster._stacked_linkage(
            *_filled([good[0], bad, good[1]], "single")) is None

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_negative_dissimilarity_fails_only_its_problem(self, method):
        # Ward squares its input, which would hide the sign; it fails at
        # record 0 like the other methods.
        bad = CondensedMatrix.from_square(
            [[0.0, -1.0, 2.0], [-1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        with pytest.raises(NegativeHeight,
                           match=r"^record 0: height -1\.0 < 0$") as err:
            linkage(bad, method)
        assert err.value.record == 0

    def test_negative_dissimilarity_before_overflow(self):
        # Average's second merge would overflow, but the negative value
        # is found before any step, as it is for ward.
        bad = CondensedMatrix(3, np.array([-1.0, 1e308, 1.7e308]))
        with pytest.raises(NegativeHeight,
                           match=r"^record 0: height -1\.0 < 0$"):
            linkage(bad, "average")

    @pytest.mark.parametrize("per_stack", [1, 2, 3])
    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_split_by_byte_budget(self, monkeypatch, per_stack, method):
        rng = np.random.default_rng(30)
        problems = [(rng.normal(size=(30, 2)), "euclidean", method)
                    for _ in range(7)]
        refs = [_reference(*p) for p in problems]
        sizes = self._stack_sizes(monkeypatch)
        monkeypatch.setattr(cluster, "_STACK_BYTES",
                            per_stack * 8 * 30 * 30 + 7)
        assert cluster._cluster_stack(problems) == refs
        # Equal stacks: 7 problems in stacks of 1, 2, 2, 2 or of 2, 2, 3;
        # a stack of one goes to linkage.
        assert sizes == {1: [], 2: [2, 2, 2], 3: [2, 2, 3]}[per_stack]

    @staticmethod
    def _stack_sizes(monkeypatch):
        """Route ``cluster._stacked_linkage`` through a wrapper; returns
        the list of stack sizes it was called with."""
        sizes = []
        real = cluster._stacked_linkage

        def spy(dm, methods):
            sizes.append(len(dm))
            return real(dm, methods)

        monkeypatch.setattr(cluster, "_stacked_linkage", spy)
        return sizes

    @staticmethod
    def _dissimilarity_spy(monkeypatch):
        """Route ``cluster.dissimilarity`` through a wrapper; returns the
        list of data matrices it was called with outside
        ``cluster._fill_stack``, whose condensed fills call it too: the
        reruns as ``linkage(dissimilarity(kind, x), method)``."""
        calls = []
        filling = []
        real = cluster.dissimilarity
        real_fill = cluster._fill_stack

        def spy(kind, x):
            if not filling:
                calls.append(x)
            return real(kind, x)

        def fill(dm, problems):
            filling.append(True)
            try:
                return real_fill(dm, problems)
            finally:
                filling.pop()

        monkeypatch.setattr(cluster, "dissimilarity", spy)
        monkeypatch.setattr(cluster, "_fill_stack", fill)
        return calls

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_valid_stack_never_calls_linkage(self, monkeypatch, method):
        rng = np.random.default_rng(90)
        problems = [(rng.normal(size=(100, 2)), "euclidean", method)
                    for _ in range(5)]
        problems += [(rng.normal(size=(100, 3)), kind, method)
                     for kind in DISSIMILARITY_KINDS for _ in range(2)]
        refs = [_reference(*p) for p in problems]
        calls = self._dissimilarity_spy(monkeypatch)
        assert cluster._cluster_stack(problems) == refs
        # In stacks of 3, later stacks reuse the slots of earlier ones.
        monkeypatch.setattr(cluster, "_STACK_BYTES", 3 * 8 * 100 * 100)
        assert cluster._cluster_stack(problems) == refs
        assert calls == []

    @pytest.mark.parametrize("method, bad", _FAILING)
    def test_failing_stack_reruns_every_problem(self, monkeypatch, method,
                                                bad):
        x, kind = np.array(bad[0]), bad[1]
        rng = np.random.default_rng(len(x))
        problems = [(rng.normal(size=x.shape), kind, method)
                    for _ in range(4)]
        problems.insert(2, (x, kind, method))
        refs = [_reference(*p) for p in problems]
        assert isinstance(refs[2], BranchEmbedError)
        calls = self._dissimilarity_spy(monkeypatch)
        got = cluster._cluster_stack(problems)
        assert len(calls) == len(problems)
        assert all(np.array_equal(c, p[0]) for c, p in zip(calls, problems))
        assert [_key(g) for g in got] == [_key(r) for r in refs]

    def test_one_fill_per_data_and_kind(self, monkeypatch):
        # A trial's originals share one data matrix: each kind fills it
        # once, and the other slots copy that fill, ward squaring its own.
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 5))
        problems = [(x, kind, method) for kind, method in DEFAULT_CONDITIONS]
        problems.append((x.copy(), "euclidean", "single"))
        refs = [_reference(*p) for p in problems]
        calls = fill_spy(monkeypatch)
        assert cluster._cluster_stack(problems) == refs
        assert calls == ["euclidean", "correlation", "euclidean"]

    @pytest.mark.parametrize("method, bad", _FAILING)
    def test_one_problem_fails_as_linkage(self, method, bad):
        # The fill or linkage's own steps on it fail, and the error is
        # the one linkage(dissimilarity(kind, x), method) raises.
        x, kind = np.array(bad[0]), bad[1]
        ref = _reference(x, kind, method)
        assert isinstance(ref, BranchEmbedError)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, = cluster._cluster_stack([(x, kind, method)])
        assert _key(got) == _key(ref)

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_one_problem_fills_no_condensed_copy(self, monkeypatch, method):
        # Two-column Euclidean data, as every embedding is, fills the
        # square straight from the points.
        rng = np.random.default_rng(70)
        x = rng.normal(size=(40, 2))
        ref = linkage(euclidean_dissimilarity(x), method)
        calls = fill_spy(monkeypatch)
        assert cluster._cluster_data(x, "euclidean", method) == ref
        assert calls == []

    @pytest.mark.parametrize("chunk", [1, 50, 8192])
    def test_two_column_fill_in_row_blocks(self, monkeypatch, chunk):
        # dy * dy is added a block of rows at a time: one row per block,
        # two rows with a last block of one, and the whole matrix.
        rng = np.random.default_rng(chunk)
        x = rng.normal(size=(23, 2))
        monkeypatch.setattr(dendrogram, "_PAIR_CHUNK", chunk)
        dm = np.empty((1, 23, 23))
        assert cluster._fill_stack(dm, [(x, "euclidean", "average")])
        assert np.array_equal(dm[0], euclidean_dissimilarity(x).to_square())

    @pytest.mark.parametrize("cols", [2, 3])
    def test_one_problem_maps_nothing(self, monkeypatch, cols):
        # A one-problem call, as convert_dendrogram and cli embed make,
        # runs no stack, so it needs no stack memory.
        rng = np.random.default_rng(60 + cols)
        x = rng.normal(size=(30, cols))
        maps = []
        real = cluster.mmap.mmap

        def spy(*args):
            maps.append(args)
            return real(*args)

        monkeypatch.setattr(cluster.mmap, "mmap", spy)
        # The default conditions are all that check_condition allows.
        for kind, method in DEFAULT_CONDITIONS:
            got, = cluster._cluster_stack([(x, kind, method)])
            assert got == linkage(dissimilarity(kind, x), method)
        assert maps == []
        cluster._cluster_stack([(x, "euclidean", "single")] * 2)
        assert len(maps) == 1

    def test_default_budget_holds_a_table_row(self):
        assert cluster._STACK_BYTES // (8 * 100 * 100) >= 9

    def test_empty_and_invalid_stacks(self):
        rng = np.random.default_rng(4)
        x3 = rng.normal(size=(3, 2))
        x4 = rng.normal(size=(4, 2))
        assert cluster._cluster_stack([]) == []
        with pytest.raises(ValueError, match="same n"):
            cluster._cluster_stack([(x3, "euclidean", "single"),
                                    (x4, "euclidean", "single")])
        with pytest.raises(ValueError, match="unknown linkage"):
            cluster._cluster_stack([(x3, "euclidean", "median")] * 2)
        with pytest.raises(ValueError, match="unknown dissimilarity"):
            cluster._cluster_stack([(x3, "cosine", "single")] * 2)


def _linkage_spy(monkeypatch):
    """Route ``cluster.linkage`` through a wrapper; returns the list of
    the methods it was called with."""
    calls = []
    real = cluster.linkage

    def spy(d0, method):
        calls.append(method)
        return real(d0, method)

    monkeypatch.setattr(cluster, "linkage", spy)
    return calls


class TestSidesTree:
    """The closed form, ``_sides_tree``, gives two-column ``x`` under
    single, complete and average correlation linkage the tree, or the
    error, of ``linkage(correlation_dissimilarity(x), method)``, bit for
    bit, and ``_cluster_stack``, ``convert_dendrogram`` and ``embed``
    reach it through one dispatch."""

    @staticmethod
    def _check(x):
        d0 = correlation_dissimilarity(x)
        for method in ("single", "complete", "average"):
            got = cluster._cluster_data(x, "correlation", method)
            assert got == linkage(d0, method), method
            assert got == stepwise_linkage(d0, method), method

    @pytest.mark.parametrize("n", [2, 3, 17, 100])
    def test_random(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            self._check(rng.normal(size=(n, 2)))

    @pytest.mark.parametrize("n", [2, 3, 17, 100])
    @pytest.mark.parametrize("rise", [1.0, -1.0])
    def test_one_sided(self, n, rise):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 2))
        x[:, 1] = x[:, 0] + rise * rng.uniform(0.1, 1.0, n)
        self._check(x)
        assert not cluster._cluster_data(
            x, "correlation", "average").height.any()

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 40, 2.0 ** -40])
    @pytest.mark.parametrize("n", [3, 17, 100])
    def test_embeddings_of_every_strategy(self, n, scale):
        rng = np.random.default_rng(n)
        tree = linkage(euclidean_dissimilarity(rng.normal(size=(n, 5))),
                       "average")
        strategies = default_strategies()
        assert len(strategies) == 9
        for strategy in strategies:
            self._check(branching_embed(tree, strategy).coords * scale)

    def test_constant_row_gives_the_same_error(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 2))
        x[4] = 0.25
        x[7] = -3.0
        with pytest.raises(ZeroVarianceRow) as ref:
            correlation_dissimilarity(x)
        assert ref.value.row == 4
        for method in ("single", "complete", "average"):
            with pytest.raises(ZeroVarianceRow) as err:
                cluster._cluster_data(x, "correlation", method)
            assert (str(err.value), err.value.row) == \
                (str(ref.value), ref.value.row)
        # In a stack call the closed form returns the error in its slot,
        # without calling linkage.
        problems = [(rng.normal(size=(9, 2)), "correlation", "average")
                    for _ in range(3)]
        problems.insert(1, (x, "correlation", "average"))
        refs = [_reference(*p) for p in problems]
        calls = _linkage_spy(monkeypatch)
        got = cluster._cluster_stack(problems)
        assert [_key(g) for g in got] == [_key(r) for r in refs]
        assert isinstance(got[1], ZeroVarianceRow)
        assert calls == []

    def test_ward_goes_through_the_stack(self, monkeypatch):
        rng = np.random.default_rng(6)
        tree = linkage(euclidean_dissimilarity(rng.normal(size=(20, 4))),
                       "average")
        problems = [(branching_embed(tree, s).coords, "correlation", "ward")
                    for s in default_strategies()[:4]]
        refs = [_reference(*p) for p in problems]
        assert all(isinstance(r, Dendrogram) for r in refs)
        sizes = TestLinkageStack._stack_sizes(monkeypatch)
        assert cluster._cluster_stack(problems) == refs
        assert sizes == [4]

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError, match="finite"):
            cluster._cluster_data([[0.0, 1.0], [np.nan, 2.0]],
                                  "correlation", "single")

    def test_one_dispatch(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(15, 2))
        calls = []
        real = cluster._sides_tree

        def spy(x):
            calls.append(len(x))
            return real(x)

        monkeypatch.setattr(cluster, "_sides_tree", spy)
        for method in ("single", "complete", "average"):
            assert convert_dendrogram(x, method, "correlation") == \
                linkage(correlation_dissimilarity(x), method)
        convert_dendrogram(x, "ward")
        assert calls == [15] * 3
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))
        assert main(["embed", "--input", str(data), "--metric",
                     "correlation", "--linkage", "single",
                     "--converted-linkage", "complete",
                     "--out", str(tmp_path / "coords.csv"),
                     "--report", str(tmp_path / "report.json")]) == 0
        assert calls[3:] == [15, 15]


class TestAgainstScipy:
    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_heights_and_cophenetic(self, method):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(300)
        d0 = euclidean_dissimilarity(rng.normal(size=(300, 4)))
        ours = linkage(d0, method)
        ref = hierarchy.linkage(d0.values, method)
        assert np.allclose(ours.height, ref[:, 2], rtol=1e-12, atol=0)
        assert np.allclose(cophenetic_matrix(ours).values,
                           hierarchy.cophenet(ref), rtol=1e-12, atol=0)
