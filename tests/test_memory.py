"""Memory of the scoring pipeline, and the named limit on array sizes.

Reclustering fills ``linkage``'s n x n matrix straight from the
coordinates, with no condensed copy, and the scorer fills the converted
tree's cophenetic and kinship vectors one at a time.  The peaks are
measured with tracemalloc, which sees numpy's allocations, in units of
n^2 bytes: the matrix is 8 and each condensed vector about 4.

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
from branchembed.metrics import _Scorer, _centred, _pearson_vec

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
    n^2 bytes, so the bounds leave that much over 8 and 12 n^2."""

    def test_convert_dendrogram_holds_one_matrix(self, tree_and_embedding):
        tree, emb = tree_and_embedding
        n = tree.n_leaves
        peak, got = _peak(convert_dendrogram, emb, "average")
        assert got == linkage(euclidean_dissimilarity(emb.coords), "average")
        assert peak < 9 * n * n, peak / n ** 2

    def test_evaluate_embedding_holds_three_vectors(self, tree_and_embedding):
        tree, emb = tree_and_embedding
        n = tree.n_leaves
        peak, report = _peak(evaluate_embedding, tree, emb, "average")
        assert 0.0 < report.r_c <= 1.0
        assert peak < 13.5 * n * n, peak / n ** 2


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


def _one_pass(scorer, converted):
    """``(r_c, r_k)`` with both converted vectors filled in one pass."""
    coph, kin = _pair_matrices(converted, True, True)
    return (_pearson_vec(scorer._coph, _centred(coph)),
            _pearson_vec(scorer._kin, _centred(kin)))


class TestScorerPasses:
    """Scoring the converted vectors one at a time changes no bit."""

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
        scorer = _Scorer(original)
        for tree in converted + [original]:
            assert scorer.scores(tree) == _one_pass(scorer, tree)


class TestSizeLimit:
    """An n x n matrix, a stack's map or a pair vector larger than
    physical memory raises :class:`SizeLimit` before it is allocated."""

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
        assert (err.nbytes, err.limit) == (8 * 100 * 100, self.LIMIT)
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

    def test_pair_vectors(self, lowered, inputs):
        _, _, tree, _ = inputs
        for want in ((True, False), (False, True), (True, True)):
            with pytest.raises(SizeLimit) as err:
                _pair_matrices(tree, *want)
            assert err.value.nbytes == 8 * 4950 * sum(want)

    def test_stack_map(self, lowered, inputs):
        x = inputs[0]
        with pytest.raises(SizeLimit) as err:
            cluster._cluster_stack([(x, "euclidean", "single")] * 3)
        assert err.value.nbytes == 3 * 8 * 100 * 100

    def test_within_the_limit(self, monkeypatch, inputs):
        # Every array may take the whole limit.
        x, d0, tree, emb = inputs
        report = evaluate_embedding(tree, emb, "average")
        monkeypatch.setattr(dendrogram, "_MEMORY_LIMIT", 8 * 100 * 100)
        assert cluster._cluster_data(x, "euclidean", "single") == \
            linkage(d0, "single")
        assert evaluate_embedding(tree, emb, "average") == report


def test_peak_memory_script():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "peak_memory.py"),
         str(ROOT / "src"), "--n", "200"],
        capture_output=True, text=True, timeout=60, check=True)
    lines = run.stdout.splitlines()
    assert lines[0].startswith("n=200:")
    stages = ["dissimilarity", "linkage", "embed", "convert_dendrogram",
              "_Scorer", "scores", "evaluate_embedding", "ru_maxrss"]
    assert [line.split()[0] for line in lines[2:]] == stages
    for line in lines[2:]:
        assert re.fullmatch(r"\S+ +\d+\.\d\d +\d+\.\d\d", line)
        mb, per_n2 = map(float, line.split()[1:])
        # 0.01 MB is 0.25 n^2 bytes at n = 200.
        assert per_n2 == pytest.approx(mb * 1e6 / 200 ** 2, abs=0.13)
