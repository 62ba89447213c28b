"""Tests for the dendrogram core: validation, derived matrices, ordering,
and the merge-table text format.

Expected matrix values for the fixed examples were derived by hand from
the LCA definitions; the random sweeps check against the brute-force
parent-walk oracles in helpers.py.
"""

import numpy as np
import pytest

from branchembed import (
    LINKAGE_METHODS,
    AngleStrategy,
    CondensedMatrix,
    Dendrogram,
    DendrogramError,
    DuplicateChild,
    ForwardReference,
    MergeRecord,
    NegativeHeight,
    NonMonotonic,
    ParseError,
    SizeMismatch,
    branching_embed,
    cophenetic_matrix,
    correlation_dissimilarity,
    euclidean_dissimilarity,
    kinship_matrix,
    leaf_order,
    line_embed,
    linkage,
    parse_merge_table,
    serialize_merge_table,
    validate_dendrogram,
)
from branchembed import dendrogram
from branchembed.dendrogram import _pair_chunks, _pair_matrices
from helpers import (
    balanced_dendrogram,
    brute_cophenetic,
    brute_kinship,
    caterpillar_dendrogram,
    random_dendrogram,
    scatter_pair_matrices,
    stack_leaves_and_gaps,
)

EPS = 1e-12


@pytest.fixture
def two_block():
    # ((0,1) at 1, (2,3) at 1) joined at 2.5
    return validate_dendrogram(
        [(0, 1, 1.0, 2), (2, 3, 1.0, 2), (4, 5, 2.5, 4)], 4)


@pytest.fixture
def caterpillar():
    # (((0,1),2),3) with heights 1 < 2 < 3
    return validate_dendrogram(
        [(0, 1, 1.0, 2), (4, 2, 2.0, 3), (5, 3, 3.0, 4)], 4)


class TestValidation:
    def test_accepts_valid_table(self):
        d = validate_dendrogram(
            [(0, 1, 2.0, 2), (2, 3, 1.0, 2), (4, 5, 3.0, 4)], 4)
        assert isinstance(d, Dendrogram)
        assert d.n_leaves == 4 and d.n_nodes == 7 and d.root == 6
        assert list(d.records())[0] == MergeRecord(0, 1, 2.0, 2)

    def test_accepts_array_input(self):
        arr = np.array([[0, 1, 1.0, 2], [2, 3, 1.5, 2], [4, 5, 2.0, 4]])
        d = validate_dendrogram(arr, 4)
        assert d.size[-1] == 4

    def test_rejects_wrong_record_count(self):
        with pytest.raises(DendrogramError):
            validate_dendrogram([(0, 1, 1.0, 2)], 4)

    def test_rejects_three_field_record(self):
        with pytest.raises(DendrogramError,
                           match="^record 1: expected 4 fields$") as err:
            validate_dendrogram([(0, 1, 1.0, 2), (3, 2, 2.0)], 3)
        assert err.value.record == 1

    def test_duplicate_child_same_record(self):
        with pytest.raises(DuplicateChild) as err:
            validate_dendrogram([(0, 0, 1.0, 2), (2, 1, 2.0, 3)], 3)
        assert err.value.record == 0

    def test_duplicate_child_across_records(self):
        with pytest.raises(DuplicateChild) as err:
            validate_dendrogram(
                [(0, 1, 1.0, 2), (1, 2, 2.0, 3)], 3)
        assert err.value.record == 1

    def test_forward_reference(self):
        with pytest.raises(ForwardReference) as err:
            validate_dendrogram([(0, 3, 1.0, 2), (1, 2, 2.0, 3)], 3)
        assert err.value.record == 0

    def test_negative_id(self):
        with pytest.raises(ForwardReference):
            validate_dendrogram([(-1, 1, 1.0, 2), (3, 2, 2.0, 3)], 3)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch) as err:
            validate_dendrogram([(0, 1, 1.0, 2), (3, 2, 2.0, 4)], 3)
        assert err.value.record == 1

    def test_non_monotonic(self):
        with pytest.raises(NonMonotonic) as err:
            validate_dendrogram([(0, 1, 2.0, 2), (3, 2, 1.0, 3)], 3)
        assert err.value.record == 1

    def test_negative_height(self):
        with pytest.raises(NegativeHeight) as err:
            validate_dendrogram([(0, 1, -0.5, 2), (3, 2, 1.0, 3)], 3)
        assert err.value.record == 0

    def test_infinite_height(self):
        with pytest.raises(DendrogramError) as err:
            validate_dendrogram([(0, 1, 1.0, 2), (3, 2, np.inf, 3)], 3)
        assert type(err.value) is DendrogramError
        assert err.value.record == 1

    def test_nan_height_is_negative(self):
        with pytest.raises(NegativeHeight) as err:
            validate_dendrogram([(0, 1, np.nan, 2), (3, 2, 1.0, 3)], 3)
        assert err.value.record == 0

    @pytest.mark.parametrize("field", [0, 1, 3])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_ids_and_sizes(self, field, value):
        record = np.array([[0, 1, 1.0, 2]])
        record[0, field] = value
        with pytest.raises(DendrogramError,
                           match="^record 0: ids and sizes must be integers$"
                           ) as err:
            validate_dendrogram(record, 2)
        assert type(err.value) is DendrogramError
        assert err.value.record == 0

    def test_monotonicity_allows_roundoff_slack(self):
        h = 1.0
        d = validate_dendrogram(
            [(0, 1, h, 2), (3, 2, h * (1 - 1e-15), 3)], 3)
        assert d.n_leaves == 3

    def test_equal_heights_allowed(self):
        d = validate_dendrogram([(0, 1, 1.0, 2), (3, 2, 1.0, 3)], 3)
        assert d.height[0] == d.height[1]

    def test_arrays_frozen(self, two_block):
        with pytest.raises(ValueError):
            two_block.height[0] = 5.0


class TestCondensedMatrix:
    def test_index_layout(self):
        cm = CondensedMatrix(4, np.arange(6, dtype=float))
        expected = {(0, 1): 0, (0, 2): 1, (0, 3): 2,
                    (1, 2): 3, (1, 3): 4, (2, 3): 5}
        for (i, j), flat in expected.items():
            assert cm.index(i, j) == flat
            assert cm.index(j, i) == flat
            assert cm.value(i, j) == float(flat)

    def test_diagonal_rejected(self):
        cm = CondensedMatrix(3, np.zeros(3))
        with pytest.raises(ValueError):
            cm.index(1, 1)

    @pytest.mark.parametrize("i, j", [(0, 3), (3, 0), (-1, 2), (1, 7)])
    def test_index_out_of_range(self, i, j):
        cm = CondensedMatrix(3, np.zeros(3))
        with pytest.raises(IndexError, match="out of range for n=3$"):
            cm.index(i, j)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
    def test_from_square_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="^expected a square matrix$"):
            CondensedMatrix.from_square(np.zeros(shape))

    def test_square_round_trip(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 10, 129):
            vals = rng.uniform(-1.0, 1.0, size=n * (n - 1) // 2)
            vals[0] = -0.0
            sq = CondensedMatrix(n, vals).to_square()
            assert np.array_equal(sq, sq.T)
            assert not np.diagonal(sq).any()
            back = CondensedMatrix.from_square(sq)
            assert back.values.tobytes() == vals.tobytes(), n

    @pytest.mark.parametrize("n", [0, 1])
    def test_from_square_too_small(self, n):
        with pytest.raises(ValueError,
                           match="^a condensed matrix needs at least 2 items$"):
            CondensedMatrix.from_square(np.zeros((n, n)))

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_from_square_matches_index_gather(self, n):
        rng = np.random.default_rng(n)
        sq = rng.normal(size=(n, n))
        iu, ju = np.triu_indices(n, 1)
        for square in (sq, np.asfortranarray(sq), sq.T):
            got = CondensedMatrix.from_square(square).values
            assert np.array_equal(got, square[iu, ju])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            CondensedMatrix(4, np.zeros(5))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                CondensedMatrix(3, np.array([1.0, bad, 2.0]))


class TestCophenetic:
    def test_two_block_example(self, two_block):
        cm = cophenetic_matrix(two_block)
        assert cm.value(0, 1) == 1.0
        assert cm.value(2, 3) == 1.0
        for i in (0, 1):
            for j in (2, 3):
                assert cm.value(i, j) == 2.5

    def test_two_leaves(self):
        d = validate_dendrogram([(0, 1, 4.2, 2)], 2)
        assert cophenetic_matrix(d).values.tolist() == [4.2]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        d = random_dendrogram(int(rng.integers(2, 40)), rng)
        got = cophenetic_matrix(d).values
        assert np.allclose(got, brute_cophenetic(d), rtol=0, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_ultrametric(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 25))
        sq = cophenetic_matrix(random_dendrogram(n, rng)).to_square()
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert sq[i, j] <= max(sq[i, k], sq[k, j])


class TestKinship:
    def test_caterpillar_example(self, caterpillar):
        km = kinship_matrix(caterpillar)
        assert km.value(0, 1) == 2.0
        assert km.value(0, 2) == 3.0
        assert km.value(1, 2) == 3.0
        assert km.value(0, 3) == 4.0
        assert km.value(1, 3) == 4.0
        assert km.value(2, 3) == 3.0

    def test_balanced_example(self, two_block):
        km = kinship_matrix(two_block)
        assert km.value(0, 1) == 2.0
        assert km.value(2, 3) == 2.0
        for i in (0, 1):
            for j in (2, 3):
                assert km.value(i, j) == 4.0

    def test_values_are_small_integers(self, caterpillar):
        vals = kinship_matrix(caterpillar).values
        assert np.array_equal(vals, np.round(vals))
        assert vals.min() >= 2

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(200 + seed)
        d = random_dendrogram(int(rng.integers(2, 40)), rng)
        got = kinship_matrix(d).values
        assert np.array_equal(got, brute_kinship(d))

    @pytest.mark.parametrize("seed", range(5))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(3, 20))
        sq = kinship_matrix(random_dendrogram(n, rng)).to_square()
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if i != j and j != k and i != k:
                        assert sq[i, j] <= sq[i, k] + sq[k, j]


def _reclustered_trees(seed):
    """Trees from reclustering 2-D embeddings of a Gaussian tree under
    fixed 0, fixed 90 and even, with Euclidean and correlation
    dissimilarities (the latter all 0 or 2, so nearly every merge ties)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 80))
    tree = linkage(euclidean_dissimilarity(rng.normal(size=(n, 4))),
                   "average")
    for strategy in (AngleStrategy.fixed(0.0), AngleStrategy.fixed(90.0),
                     AngleStrategy.even()):
        coords = branching_embed(tree, strategy).coords
        for method in LINKAGE_METHODS:
            yield linkage(euclidean_dissimilarity(coords), method)
            if method != "ward":
                yield linkage(correlation_dissimilarity(coords), method)


class TestPairMatrices:
    """The range-minimum fill equals the per-record scatter it replaced,
    bit for bit, and the brute-force LCA walks."""

    @staticmethod
    def check(d, brute=True):
        coph = _pair_matrices(d, False)
        kin = _pair_matrices(d, True)
        ref_coph, ref_kin = scatter_pair_matrices(d)
        assert np.array_equal(coph, ref_coph)
        assert np.array_equal(kin, ref_kin)
        # One LCA table serves both fills.
        lca = dendrogram._lca_table(d)
        assert np.array_equal(_pair_matrices(d, False, lca), coph)
        assert np.array_equal(_pair_matrices(d, True, lca), kin)
        if brute:
            assert np.array_equal(coph, brute_cophenetic(d))
            assert np.array_equal(kin, brute_kinship(d))

    def test_two_leaves(self):
        self.check(validate_dendrogram([(1, 0, 0.5, 2)], 2))

    @pytest.mark.parametrize("records", [
        [(0, 1, 1.0, 2), (3, 2, 2.0, 3)],
        [(2, 0, 1.0, 2), (1, 3, 2.0, 3)],
        [(1, 2, 1.0, 2), (3, 0, 1.0, 3)],
        [(0, 2, 0.0, 2), (1, 3, 0.0, 3)],
    ])
    def test_three_leaves(self, records):
        self.check(validate_dendrogram(records, 3))

    @pytest.mark.parametrize("left_spine", [True, False])
    def test_caterpillar_depth_n_minus_1(self, left_spine):
        d = caterpillar_dendrogram(60, left_spine)
        self.check(d)
        # The two leaves of record 0 sit 59 edges down; the last leaf
        # added hangs one edge below the root.
        assert _pair_matrices(d, True).max() == 59 + 1

    @pytest.mark.parametrize("n", [4, 7, 16, 33, 100])
    def test_balanced(self, n):
        self.check(balanced_dendrogram(n))

    @pytest.mark.parametrize("seed", range(6))
    def test_tie_heavy_linkage(self, seed):
        rng = np.random.default_rng(1700 + seed)
        n = int(rng.integers(2, 70))
        x = rng.integers(0, 3, size=(n, 2)).astype(float)
        for method in LINKAGE_METHODS:
            self.check(linkage(euclidean_dissimilarity(x), method))

    @pytest.mark.parametrize("seed", range(3))
    def test_reclustered_embeddings(self, seed):
        for d in _reclustered_trees(1800 + seed):
            self.check(d)

    # A gap key is ``depth << s | record``, s = (n - 1).bit_length(),
    # which steps up between 2 and 3, 64 and 65, and 128 and 129.
    @pytest.mark.parametrize("n", [2, 3, 64, 65, 128, 129])
    def test_key_shift_boundaries(self, n):
        rng = np.random.default_rng(1950 + n)
        for d in (caterpillar_dendrogram(n), caterpillar_dendrogram(n, False),
                  balanced_dendrogram(n), random_dendrogram(n, rng)):
            self.check(d)

    def test_large_tree(self):
        rng = np.random.default_rng(1900)
        self.check(random_dendrogram(600, rng), brute=False)

    # 1: a chunk per row.  7: single rows, then several short rows per
    # chunk.  60: rows 0-1 (29 + 28 pairs), then chunks that stop before
    # the row that would overflow them, and a last partial chunk.
    @pytest.mark.parametrize("chunk", [1, 7, 60])
    def test_chunking(self, monkeypatch, chunk):
        rng = np.random.default_rng(2000 + chunk)
        trees = [random_dendrogram(30, rng), caterpillar_dendrogram(30),
                 balanced_dendrogram(30)]
        monkeypatch.setattr(dendrogram, "_PAIR_CHUNK", chunk)
        for d in trees:
            self.check(d)


class TestPairChunks:
    """The pair walk behind every condensed fill visits each pair once,
    in condensed order, a chunk of whole rows at a time."""

    @pytest.mark.parametrize("chunk", [1, 7, 60, None])
    def test_every_pair_once_in_condensed_order(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(dendrogram, "_PAIR_CHUNK", chunk)
        limit = dendrogram._PAIR_CHUNK
        for n in range(2, 71):
            chunks = list(_pair_chunks(n))
            iu, ju = np.triu_indices(n, 1)
            assert np.array_equal(np.concatenate([c[2] for c in chunks]), iu)
            assert np.array_equal(np.concatenate([c[3] for c in chunks]), ju)
            assert [c[0] for c in chunks] == [0] + [c[1] for c in chunks[:-1]]
            assert chunks[-1][1] == iu.size
            for s, e, i, j in chunks:
                assert i.size == j.size == e - s
                rows = np.unique(i)
                # Whole rows, and more than one only if they fit.
                assert e - s == sum(n - 1 - r for r in rows)
                assert rows.size == 1 or e - s <= limit

    def test_one_chunk_walk_is_made_once(self, monkeypatch):
        # 128 items have 8128 pairs, one default chunk; 129 have 8256.
        first = _pair_chunks(128)
        assert len(first) == 1
        assert _pair_chunks(128)[0] is first[0]
        assert not any(ids.flags.writeable for ids in first[0][2:])
        assert len(list(_pair_chunks(129))) == 2
        # A smaller chunk walks the same n in several chunks again.
        monkeypatch.setattr(dendrogram, "_PAIR_CHUNK", 60)
        assert len(list(_pair_chunks(128))) > 1

    @pytest.mark.parametrize("n", list(range(2, 40)) + [127, 128, 129, 1000])
    def test_range_offsets(self, n):
        # The levels' sizes, 2**j gaps per block, stored back to back.
        sizes = [n - 1]
        while 2 ** len(sizes) <= n - 1:
            sizes.append(sizes[-1] - 2 ** (len(sizes) - 1))
        base = np.cumsum([0] + sizes)
        first, step = dendrogram._range_offsets(n)
        for length in range(1, n):
            level = length.bit_length() - 1
            assert first[length] == base[level]
            assert step[length] == length - 2 ** level
        assert not (first.flags.writeable or step.flags.writeable)


class TestLeafOrder:
    def test_two_block(self, two_block):
        assert leaf_order(two_block) == [0, 1, 2, 3]

    def test_caterpillar(self, caterpillar):
        assert leaf_order(caterpillar) == [0, 1, 2, 3]

    def test_respects_left_right(self):
        d = validate_dendrogram(
            [(1, 0, 1.0, 2), (2, 3, 2.0, 3)], 3)
        assert leaf_order(d) == [2, 1, 0]

    @pytest.mark.parametrize("seed", range(6))
    def test_is_permutation(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 60))
        order = leaf_order(random_dendrogram(n, rng))
        assert sorted(order) == list(range(n))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_stack_walk(self, seed):
        rng = np.random.default_rng(450 + seed)
        trees = [random_dendrogram(int(rng.integers(2, 80)), rng),
                 caterpillar_dendrogram(40, left_spine=bool(seed % 2)),
                 balanced_dendrogram(int(rng.integers(2, 80)))]
        trees.extend(_reclustered_trees(460 + seed))
        for d in trees:
            order, gaps = stack_leaves_and_gaps(d)
            assert leaf_order(d) == order
            x = np.zeros(d.n_leaves)
            np.cumsum(gaps, out=x[1:])
            x -= x.mean()
            expected = np.zeros((d.n_leaves, 2))
            expected[order, 0] = x
            assert np.array_equal(line_embed(d).coords, expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_adjacent_pairs_are_closest_across_their_boundary(self, seed):
        # For adjacent leaves (u, v), any pair spanning the same boundary
        # from farther out meets at the same node or higher.
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(3, 30))
        d = random_dendrogram(n, rng)
        order = leaf_order(d)
        sq = cophenetic_matrix(d).to_square()
        for k in range(n - 1):
            u, v = order[k], order[k + 1]
            h = sq[u, v]
            for later in order[k + 2:]:
                assert sq[u, later] >= h - EPS
            for earlier in order[:k]:
                assert sq[earlier, v] >= h - EPS


class TestMergeTableText:
    def test_parse_example(self):
        d = parse_merge_table("0,1,1.0,2\n")
        assert d.n_leaves == 2
        assert list(d.records()) == [MergeRecord(0, 1, 1.0, 2)]

    def test_parse_multi_record(self):
        text = "0,1,1.5,2\n2,3,2,2\n4,5,3.25,4\n"
        d = parse_merge_table(text)
        assert d.n_leaves == 4
        assert d.height.tolist() == [1.5, 2.0, 3.25]

    def test_parse_skips_whole_line_comments(self):
        text = "# merge table\n0,1,1.5,2\n  # indented\n2,3,2,2\n4,5,3.25,4\n"
        d = parse_merge_table(text)
        assert d == parse_merge_table("0,1,1.5,2\n2,3,2,2\n4,5,3.25,4\n")

    def test_parse_skips_trailing_comments(self):
        d = parse_merge_table("0,1,1.0,2 # first\n3,2,2.0,3#second\n")
        assert list(d.records()) == [MergeRecord(0, 1, 1.0, 2),
                                     MergeRecord(3, 2, 2.0, 3)]

    def test_parse_line_numbers_count_comments(self):
        with pytest.raises(ParseError) as err:
            parse_merge_table("# header\n0,1,1.0,2\n3,2 # short\n")
        assert err.value.line == 3

    def test_parse_rejects_comment_only_file(self):
        with pytest.raises(ParseError, match="no merge records found"):
            parse_merge_table("# nothing here\n\n   # still nothing\n")

    def test_parse_rejects_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_merge_table("0,1,1.0\n")
        assert err.value.line == 1

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(ParseError) as err:
            parse_merge_table("0,1,1.0,2\n2,x,2.0,3\n")
        assert err.value.line == 2

    def test_parse_rejects_float_id(self):
        with pytest.raises(ParseError):
            parse_merge_table("0.5,1,1.0,2\n")

    def test_parse_rejects_infinite_height(self):
        with pytest.raises(DendrogramError, match="infinite") as err:
            parse_merge_table("0,1,1,2\n3,2,inf,3\n")
        assert err.value.record == 1

    def test_parse_validates(self):
        with pytest.raises(NonMonotonic):
            parse_merge_table("0,1,2.0,2\n3,2,1.0,3\n")

    def test_serialize_format(self, two_block):
        text = serialize_merge_table(two_block)
        assert text == "0,1,1,2\n2,3,1,2\n4,5,2.5,4\n"

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(600 + seed)
        d = random_dendrogram(int(rng.integers(2, 50)), rng)
        text = serialize_merge_table(d)
        back = parse_merge_table(text)
        assert back == d
        assert serialize_merge_table(back) == text

    def test_heights_survive_full_precision(self):
        h1 = 1.0 / 3.0
        h2 = np.nextafter(h1, 1.0) * 2
        d = validate_dendrogram([(0, 1, h1, 2), (3, 2, h2, 3)], 3)
        back = parse_merge_table(serialize_merge_table(d))
        assert back.height[0] == h1 and back.height[1] == h2
