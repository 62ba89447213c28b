"""Memory of the scoring pipeline, and the named limit on array sizes.

Reclustering fills ``linkage``'s n x n matrix straight from the
coordinates, with no condensed copy, and scoring walks the pairs once for
all converted trees, holding chunk arrays and per-record sums and no pair
vector.  The peaks are measured with tracemalloc, which sees numpy's
allocations, in units of n^2 bytes: the matrix is 8 and each condensed
vector about 4.

The size limit is tested by lowering it to a few KiB, never by
allocating near this machine's memory.
"""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from branchembed import (
    AngleStrategy,
    BranchEmbedError,
    CondensedMatrix,
    ScoringOverflow,
    SizeLimit,
    branching_embed,
    convert_dendrogram,
    euclidean_dissimilarity,
    evaluate_embedding,
    gaussian_matrix,
    linkage,
)
from branchembed import cluster, dendrogram, metrics
from branchembed.dendrogram import Dendrogram, _pair_matrices
from branchembed.metrics import _scores
from helpers import caterpillar_dendrogram, exact_r_c, exact_r_k

ROOT = Path(__file__).resolve().parents[1]


def _peak(fn, *args, **kwargs):
    """The tracemalloc peak of ``fn(*args, **kwargs)`` in bytes, and its
    result or the :class:`BranchEmbedError` it raised."""
    tracemalloc.start()
    try:
        try:
            out = fn(*args, **kwargs)
        except BranchEmbedError as err:
            out = err
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def tree_and_embedding():
    n = 600
    tree = linkage(euclidean_dissimilarity(gaussian_matrix(n, 5, 15)),
                   "average")
    return tree, branching_embed(tree, AngleStrategy.fixed(15))


class TestPeakMemory:
    """At n = 600 the chunk temporaries of the pair walk still add about
    n^2 bytes, so the bounds leave that much over 8 n^2."""

    def test_convert_dendrogram_holds_one_matrix(self, tree_and_embedding):
        tree, emb = tree_and_embedding
        n = tree.n_leaves
        peak, got = _peak(convert_dendrogram, emb, "average")
        assert got == linkage(euclidean_dissimilarity(emb.coords), "average")
        assert peak < 9 * n * n, peak / n ** 2

    def test_evaluate_embedding_holds_one_matrix(self, tree_and_embedding):
        # Reclustering's matrix; scoring adds no pair vector.
        tree, emb = tree_and_embedding
        n = tree.n_leaves
        peak, report = _peak(evaluate_embedding, tree, emb, "average")
        assert 0.0 < report.r_c <= 1.0
        assert peak < 9 * n * n, peak / n ** 2


class TestCondensedLayer:
    """Copies between a condensed vector and its n x n matrix make no
    temporary of n^2 size: ``linkage`` holds its matrix (8 n^2), and
    ``from_square`` its condensed vector (about 4 n^2)."""

    N = 600

    @pytest.fixture(scope="class")
    def d0(self):
        return euclidean_dissimilarity(gaussian_matrix(self.N, 5, 15))

    def test_linkage(self, d0):
        peak, tree = _peak(linkage, d0, "average")
        assert tree.n_leaves == self.N
        assert peak < 8.5 * self.N ** 2, peak / self.N ** 2

    def test_construction(self, d0):
        values = np.array(d0.values)
        peak, got = _peak(CondensedMatrix, self.N, values)
        assert got.values is values
        assert peak < 0.05 * self.N ** 2, peak / self.N ** 2

    def test_from_square(self, d0):
        sq = d0.to_square()
        peak, got = _peak(CondensedMatrix.from_square, sq)
        assert np.array_equal(got.values, d0.values)
        assert peak < 4.5 * self.N ** 2, peak / self.N ** 2


def _reference(original, converted):
    """``(r_c, r_k)`` from the exact oracles."""
    return exact_r_c(original, converted), exact_r_k(original, converted)


class TestScorerPasses:
    """One streamed walk for several converted trees gives the exact r_c
    and r_k bit for bit, and holds no pair vector."""

    @staticmethod
    def _trees(n):
        # A grid with steps 2 and 1: single linkage merges every row at
        # 1 and joins the rows at 2, all tied.
        side = int(np.ceil(np.sqrt(n)))
        grid = np.stack(np.divmod(np.arange(n), side), axis=1) * [2.0, 1.0]
        tied = linkage(euclidean_dissimilarity(grid), "single")
        emb = branching_embed(tied, AngleStrategy.fixed(15))
        return tied, [convert_dendrogram(emb, "single"),
                      convert_dendrogram(emb, "average", "correlation")]

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("n", [40, 150])
    def test_bit_equal_to_one_pass(self, monkeypatch, n, chunk):
        if chunk is not None:
            monkeypatch.setattr(dendrogram, "_PAIR_CHUNK", chunk)
        original, converted = self._trees(n)
        # The correlation tree is the closed form: heights 0 and 2 only.
        assert set(converted[1].height.tolist()) == {0.0, 2.0}
        assert set(original.height.tolist()) == {1.0, 2.0}
        trees = converted + [original]
        assert np.array_equal(_scores(original, trees),
                              [_reference(original, tree) for tree in trees])

    def test_holds_no_pair_vector(self):
        # Chunk arrays of at most _PAIR_CHUNK + n pairs and each tree's
        # LCA table of n log n keys, and no vector over the m pairs: at
        # both n, one pair vector alone would pass the bound.
        for n in (1000, 1500):
            m = n * (n - 1) // 2
            tree = linkage(euclidean_dissimilarity(
                gaussian_matrix(n, 5, 15)), "average")
            emb = branching_embed(tree, AngleStrategy.fixed(15))
            trees = [convert_dendrogram(emb, method)
                     for method in ("average", "single", "complete")]
            bound = (24 * 8 * (dendrogram._PAIR_CHUNK + n)
                     + 16 * n * n.bit_length() * (len(trees) + 1))
            assert bound < 8 * m
            peak, got = _peak(_scores, tree, trees)
            assert np.array_equal(got, [_scores(tree, [t])[0]
                                        for t in trees])
            assert peak < bound, (n, peak / bound)

    def test_kinship_sums_cannot_wrap(self, monkeypatch):
        # A chunk holds at most max(_PAIR_CHUNK, n - 1) pairs, and a
        # kinship value is at most 2n - 2, so a chunk's int64 sum of
        # products is below largest(n).
        def largest(n):
            return max(dendrogram._PAIR_CHUNK, n - 1) * (2 * n - 2) ** 2

        for n, pairs in [(50, 7), (300, 100), (1000, None)]:
            longest = max(e - s for s, e, _, _ in
                          dendrogram._pair_chunks(n, pairs))
            assert longest <= max(pairs or dendrogram._PAIR_CHUNK, n - 1)
        # The smallest n at which largest(n) could wrap.
        lo, hi = 2, 2 ** 21
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if largest(mid) >= 2 ** 63 else (mid + 1, hi)
        assert lo == 1_321_124
        # Below that n, every int64 value of the walk and the kinship sums
        # stays under 4 (n - 1)^3: a chunk's sum of LCA depth products,
        # a leaf's depth times its sum r of LCA depths, an internal
        # node's pairs times its depth, and the sums taken whole (of d,
        # d^2, d d' and the pairs held); the sums over leaves that can
        # pass 2^63 are taken in 32-bit halves, over rows of n < 2^31.
        n = lo - 1
        m = n * (n - 1) // 2
        assert 4 * (n - 1) ** 3 < 2 ** 63
        for value in (max(dendrogram._PAIR_CHUNK, n - 1) * (n - 2) ** 2,
                      (n - 1) * (n - 1) * (n - 2), m * (n - 2),
                      n * (n - 1) ** 2, (n - 1) * m):
            assert value < 4 * (n - 1) ** 3
        assert n < 2 ** 31
        big = np.full((1, 2, n), 2 ** 63 - 1, dtype=np.int64)
        assert metrics._wide_sums(big) == [[n * (2 ** 63 - 1)] * 2]
        # At n = 100,000 a caterpillar's sum of d r passes 2^63, and the
        # kinship sums still equal its closed forms.  On either spine,
        # pair i < j meets at record j - 1, at depth n - 1 - j, and its
        # path length is j + 1 if i = 0, else j - i + 2.
        n = 100_000
        trees = [caterpillar_dendrogram(n),
                 caterpillar_dendrogram(n, left_spine=False)]
        _, depth, r, _ = dendrogram._layout(*trees)
        assert sum(int(a) * int(b) for a, b in zip(depth[0, :n], r[0])) \
            >= 2 ** 63
        total = squares = deep = 0
        tail = tail_squares = 0   # over t = 3 .. j + 1
        for j in range(1, n):
            if j >= 2:
                tail += j + 1
                tail_squares += (j + 1) ** 2
            total += j + 1 + tail
            squares += (j + 1) ** 2 + tail_squares
            deep += j * (n - 1 - j) ** 2
        assert metrics._kinship_sums(trees, depth, r, [deep]) == [
            [total, squares, total, squares, squares]]
        # Scoring refuses that n and every larger one by name, before it
        # builds anything, and no smaller one: a tree of n leaves with no
        # records stands in, and one leaf fewer reaches the first step
        # after the check.
        def built(*args):
            raise AssertionError("built")

        monkeypatch.setattr(metrics, "_height_sums", built)
        monkeypatch.setattr(metrics, "_lca_table", built)
        empty = np.empty(0, dtype=np.int64)
        lo = 1_321_124
        for n in (lo, 2 * lo):
            with pytest.raises(ScoringOverflow) as err:
                _scores(Dendrogram(n, empty, empty, empty, empty), [])
            assert err.value.n_leaves == n
        with pytest.raises(AssertionError, match="built"):
            _scores(Dendrogram(lo - 1, empty, empty, empty, empty), [])


class TestSizeLimit:
    """An n x n matrix, a stack's map or a pair vector, if larger than
    physical memory, raise :class:`SizeLimit` before they are allocated.
    Scoring holds none of them."""

    LIMIT = 4096

    @pytest.fixture
    def lowered(self, monkeypatch):
        monkeypatch.setattr(dendrogram, "_MEMORY_LIMIT", self.LIMIT)

    @pytest.fixture(scope="class")
    def inputs(self):
        x = gaussian_matrix(100, 5, 4)
        d0 = euclidean_dissimilarity(x)
        tree = linkage(d0, "average")
        return x, d0, tree, branching_embed(tree, AngleStrategy.fixed(15))

    def test_default_is_physical_memory(self):
        assert issubclass(SizeLimit, MemoryError)
        if hasattr(os, "sysconf"):
            assert dendrogram._MEMORY_LIMIT == (
                os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))

    @pytest.mark.parametrize("method", ["single", "ward"])
    def test_linkage(self, lowered, inputs, method):
        _, d0, _, _ = inputs
        peak, err = _peak(linkage, d0, method)
        assert isinstance(err, SizeLimit)
        # The n x n matrix and the condensed input beside it.
        assert (err.nbytes, err.limit) == (8 * 100 * 100 + 8 * 4950,
                                           self.LIMIT)
        assert "the n x n matrix and its condensed input" in str(err)
        assert peak < err.nbytes

    @pytest.mark.parametrize("kind", ["euclidean", "correlation"])
    def test_evaluate_embedding(self, monkeypatch, inputs, kind):
        _, _, tree, emb = inputs
        want = evaluate_embedding(tree, emb, "average", dissimilarity=kind)
        monkeypatch.setattr(dendrogram, "_MEMORY_LIMIT", self.LIMIT)
        peak, got = _peak(evaluate_embedding, tree, emb, "average",
                          dissimilarity=kind)
        if kind == "correlation":
            # The closed-form tree needs no matrix, and scoring no pair
            # vector: nothing is refused.
            assert got == want
            return
        assert isinstance(got, SizeLimit)
        assert got.nbytes == 8 * 100 * 100
        assert peak < got.nbytes

    def test_scoring_budget(self, monkeypatch, inputs):
        # Scoring asks for no budget: with none at all it gives the
        # same scores.
        _, _, tree, emb = inputs
        trees = [convert_dendrogram(emb, method)
                 for method in ("average", "single")]
        want = _scores(tree, trees)
        monkeypatch.setattr(dendrogram, "_MEMORY_LIMIT", 0)
        assert np.array_equal(_scores(tree, trees), want)

    def test_pair_vectors(self, lowered, inputs):
        _, _, tree, _ = inputs
        for kinship in (False, True):
            with pytest.raises(SizeLimit) as err:
                _pair_matrices(tree, kinship)
            assert err.value.nbytes == 8 * 4950

    def test_stack_map(self, lowered, inputs):
        x = inputs[0]
        with pytest.raises(SizeLimit) as err:
            cluster._cluster_stack([(x, "euclidean", "single")] * 3)
        assert err.value.nbytes == 3 * 8 * 100 * 100

    def test_within_the_limit(self, monkeypatch, inputs):
        # Every check may take the whole limit.
        x, d0, tree, emb = inputs
        report = evaluate_embedding(tree, emb, "average")
        single = linkage(d0, "single")
        monkeypatch.setattr(dendrogram, "_MEMORY_LIMIT", 8 * 100 * 100)
        assert cluster._cluster_data(x, "euclidean", "single") == single
        assert evaluate_embedding(tree, emb, "average") == report
        monkeypatch.setattr(dendrogram, "_MEMORY_LIMIT",
                            8 * 100 * 100 + d0.values.nbytes)
        assert linkage(d0, "single") == single

    def test_one_problem_counts_no_condensed_input(self, monkeypatch,
                                                   inputs):
        # At a limit of exactly 8 n^2 the one-problem path, which holds
        # no condensed matrix, clusters; linkage, which holds its
        # condensed input beside the matrix, refuses.
        x, d0, _, _ = inputs
        single = linkage(d0, "single")
        monkeypatch.setattr(dendrogram, "_MEMORY_LIMIT", 8 * 100 * 100)
        assert cluster._cluster_data(x, "euclidean", "single") == single
        with pytest.raises(SizeLimit) as err:
            linkage(d0, "single")
        assert err.value.nbytes == 8 * 100 * 100 + d0.values.nbytes


def test_peak_memory_script():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "peak_memory.py"),
         str(ROOT / "src"), "--n", "200"],
        capture_output=True, text=True, timeout=60, check=True)
    lines = run.stdout.splitlines()
    assert lines[0].startswith("n=200:")
    stages = ["dissimilarity", "linkage", "embed", "convert_dendrogram",
              "scores", "evaluate_embedding", "ru_maxrss"]
    if os.access("/proc/self/smaps_rollup", os.R_OK):
        stages.append("AnonHugePages")
    assert [line.split()[0] for line in lines[2:]] == stages
    for line in lines[2:]:
        assert re.fullmatch(r"\S+ +\d+\.\d\d +\d+\.\d\d", line)
        mb, per_n2 = map(float, line.split()[1:])
        # 0.01 MB is 0.25 n^2 bytes at n = 200.
        assert per_n2 == pytest.approx(mb * 1e6 / 200 ** 2, abs=0.13)
