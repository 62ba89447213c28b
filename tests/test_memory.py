"""Memory of the scoring pipeline, and the named limit on array sizes.

Reclustering fills ``linkage``'s n x n matrix straight from the
coordinates, with no condensed copy, and scoring walks the pairs once per
converted tree, holding the original tree's cophenetic vector and one
converted tree's, and no kinship vector.  The peaks are measured with
tracemalloc, which sees numpy's allocations, in units of n^2 bytes: the
matrix is 8 and each condensed vector about 4.

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
    SizeLimit,
    branching_embed,
    convert_dendrogram,
    euclidean_dissimilarity,
    evaluate_embedding,
    gaussian_matrix,
    linkage,
)
from branchembed import cluster, dendrogram
from branchembed.dendrogram import _pair_matrices
from branchembed.metrics import _scores
from helpers import exact_r_k, onepass_r_c

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

    def test_evaluate_embedding_holds_two_vectors(self, tree_and_embedding):
        tree, emb = tree_and_embedding
        n = tree.n_leaves
        peak, report = _peak(evaluate_embedding, tree, emb, "average")
        assert 0.0 < report.r_c <= 1.0
        assert peak < 10 * n * n, peak / n ** 2


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
    """``(r_c, r_k)``: r_c with each cophenetic vector filled by its own
    call, one metric at a time, and r_k from the exact oracle."""
    return onepass_r_c(original, converted), exact_r_k(original, converted)


class TestScorerPasses:
    """One streamed walk per converted tree, over several trees, gives
    the one-pass r_c bit for bit and the exact r_k."""

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

    def test_holds_two_vectors(self, tree_and_embedding):
        # The original's and one converted tree's cophenetic vectors,
        # and chunk arrays of at most _PAIR_CHUNK pairs; a third vector,
        # such as a kinship vector, would pass the bound.
        tree, emb = tree_and_embedding
        m = tree.n_leaves * (tree.n_leaves - 1) // 2
        trees = [convert_dendrogram(emb, method)
                 for method in ("average", "single", "complete")]
        bound = 16 * m + 16 * 8 * dendrogram._PAIR_CHUNK
        assert bound < 24 * m
        peak, got = _peak(_scores, tree, trees)
        assert np.array_equal(got, [_reference(tree, t) for t in trees])
        assert 16 * m < peak < bound, (peak - 16 * m) / m

    def test_kinship_sums_cannot_wrap(self):
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
        # Its two pair vectors need 14 TB, which the memory limit
        # refuses before any walk.
        nbytes = 16 * (lo * (lo - 1) // 2)
        assert nbytes > 1.39e13
        assert nbytes > dendrogram._MEMORY_LIMIT


class TestSizeLimit:
    """An n x n matrix, a stack's map, a pair vector or the two pair
    vectors scoring holds, if larger than physical memory, raise
    :class:`SizeLimit` before they are allocated."""

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
    def test_evaluate_embedding(self, lowered, inputs, kind):
        _, _, tree, emb = inputs
        peak, err = _peak(evaluate_embedding, tree, emb, "average",
                          dissimilarity=kind)
        assert isinstance(err, SizeLimit)
        # The correlation tree needs no matrix; its pair vectors are
        # refused instead.
        nbytes = 8 * 100 * 100 if kind == "euclidean" else 8 * 4950 * 2
        assert err.nbytes == nbytes
        assert peak < err.nbytes

    def test_scoring_budget(self, monkeypatch, inputs):
        # Each vector (8 m bytes) fits, the two scoring holds do not.
        _, _, tree, emb = inputs
        m = 4950
        monkeypatch.setattr(dendrogram, "_MEMORY_LIMIT", 12 * m)
        peak, err = _peak(evaluate_embedding, tree, emb, "average",
                          dissimilarity="correlation")
        assert isinstance(err, SizeLimit)
        assert err.nbytes == 16 * m
        assert peak < 8 * m

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
