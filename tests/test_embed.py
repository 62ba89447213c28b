"""Tests for the division embedder: strategy configuration, single-step
geometry, whole-tree walkthroughs, invariants, and the straight-line layout.

Fixed expected coordinates come from hand geometry (rotations of unit
vectors, law-of-cosines checks); sweeps check the invariants that define
the construction: center of mass, separation, travel ratio, angles.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from branchembed import (
    DEFAULT_CONDITIONS,
    DEFAULT_THETAS,
    LINKAGE_METHODS,
    AngleStrategy,
    Embedding,
    EmbeddingOverflow,
    SplitEvent,
    SplitMix64,
    branching_embed,
    cophenetic_matrix,
    dissimilarity,
    division_step,
    euclidean_dissimilarity,
    evaluate_embedding,
    even_angle,
    gaussian_matrix,
    line_embed,
    linkage,
    validate_dendrogram,
)
from helpers import (
    caterpillar_dendrogram,
    overflowing_dendrogram,
    random_dendrogram,
    replay_embed,
)

EPS = 1e-9

ALL_STRATEGIES = [
    AngleStrategy.random(seed=5),
    AngleStrategy.fixed(0.0),
    AngleStrategy.fixed(15.0),
    AngleStrategy.fixed(45.0, swap=False),
    AngleStrategy.fixed(90.0),
    AngleStrategy.even(),
]

# A valid tree whose travel distances' products height * n2 overflow,
# though no coordinate of its embedding exceeds 5.5e307.
LARGE_PRODUCT_TREE = [(0, 1, 1e307, 2), (2, 3, 1e307, 2), (4, 5, 1e308, 4)]


class TestAngleStrategy:
    def test_factories(self):
        assert AngleStrategy.random(7) == AngleStrategy("random", seed=7)
        assert AngleStrategy.fixed(30.0).swap is True
        assert AngleStrategy.fixed(30.0, swap=False).swap is False
        assert AngleStrategy.even().kind == "even"

    def test_labels(self):
        assert AngleStrategy.random().label() == "random"
        assert AngleStrategy.even().label() == "even"
        assert AngleStrategy.fixed(15.0).label() == "15"
        assert AngleStrategy.fixed(7.5).label() == "7.5"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AngleStrategy("spiral")

    def test_fixed_requires_theta(self):
        with pytest.raises(ValueError):
            AngleStrategy("fixed")

    @pytest.mark.parametrize("theta", [-1.0, 90.5, 360.0])
    def test_fixed_theta_range(self, theta):
        with pytest.raises(ValueError):
            AngleStrategy.fixed(theta)

    @pytest.mark.parametrize("theta", [0.0, 90.0])
    def test_fixed_theta_bounds_inclusive(self, theta):
        assert AngleStrategy.fixed(theta).theta == theta

    def test_theta_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            AngleStrategy("even", theta=10.0)

    @pytest.mark.parametrize("seed", [5.0, 1.5, True, "5", None])
    def test_rejects_non_integer_seed(self, seed):
        # A float seed would lose its low bits in the bench's seed sums.
        with pytest.raises(ValueError, match="^seed must be an integer"):
            AngleStrategy.random(seed)

    def test_numpy_integer_seed_stored_as_int(self):
        strategy = AngleStrategy.random(np.int64(5))
        assert type(strategy.seed) is int
        assert strategy == AngleStrategy.random(5)


class TestEvenAngle:
    def test_symmetric_children(self):
        assert even_angle(1.0, 1.0, 1.0) == pytest.approx(math.pi / 2)

    def test_worked_value(self):
        # cos(theta) = (1.5 - 0.5) / 2 = 0.5
        assert even_angle(1.5, 0.5, 1.0) == pytest.approx(math.radians(60.0))

    def test_clamps_to_zero(self):
        assert even_angle(3.0, 0.0, 1.0) == 0.0

    def test_clamps_to_pi(self):
        assert even_angle(0.0, 3.0, 1.0) == pytest.approx(math.pi)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            even_angle(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("length", [-1.0, math.nan])
    def test_rejects_negative_or_nan_length(self, length):
        with pytest.raises(ValueError, match="must be positive$"):
            even_angle(1.0, 1.0, length)


class TestDivisionStep:
    def test_fixed_90_unit_split(self):
        c1, c2 = division_step((0.0, 0.0), (2.0, 0.0), 1.0, 1, 1,
                               AngleStrategy.fixed(90.0, swap=False))
        assert c1 == pytest.approx((0.0, 0.5))
        assert c2 == pytest.approx((0.0, -0.5))

    def test_fixed_0_points_at_sister(self):
        c1, c2 = division_step((0.0, 0.0), (2.0, 0.0), 1.0, 1, 1,
                               AngleStrategy.fixed(0.0, swap=False))
        assert c1 == pytest.approx((0.5, 0.0))
        assert c2 == pytest.approx((-0.5, 0.0))

    def test_even_equidistant_worked_example(self):
        c1, c2 = division_step((0.0, 0.0), (1.0, 0.0), 2.0, 1, 3,
                               AngleStrategy.even())
        assert c1 == pytest.approx((0.75, 1.5 * math.sin(math.radians(60))))
        s = np.array([1.0, 0.0])
        d1 = np.linalg.norm(np.subtract(c1, s))
        d2 = np.linalg.norm(np.subtract(c2, s))
        assert d1 == pytest.approx(math.sqrt(1.75))
        assert d2 == pytest.approx(math.sqrt(1.75))

    def test_swap_pushes_larger_child_away(self):
        strat = AngleStrategy.fixed(0.0, swap=True)
        c1, c2 = division_step((0.0, 0.0), (2.0, 0.0), 1.0, 3, 1, strat)
        # child 1 is larger: it takes the side opposite the sister
        assert c1 == pytest.approx((-0.25, 0.0))
        assert c2 == pytest.approx((0.75, 0.0))

    def test_swap_idle_when_child1_not_larger(self):
        on = division_step((0.0, 0.0), (2.0, 0.0), 1.0, 1, 3,
                           AngleStrategy.fixed(30.0, swap=True))
        off = division_step((0.0, 0.0), (2.0, 0.0), 1.0, 1, 3,
                           AngleStrategy.fixed(30.0, swap=False))
        assert np.asarray(on) == pytest.approx(np.asarray(off))

    def test_even_never_swaps(self):
        c1, c2 = division_step((0.0, 0.0), (1.0, 0.0), 2.0, 3, 1,
                               AngleStrategy.even())
        # cos(theta) = (0.5 - 1.5) / 2 < 0: child 1 leans away on its own
        assert c1[0] < 0.0 < c2[0]

    def test_root_axis_is_plus_x(self):
        for strat in (AngleStrategy.fixed(62.0), AngleStrategy.even()):
            c1, c2 = division_step((0.0, 0.0), None, 1.0, 1, 1, strat)
            assert c1 == pytest.approx((0.5, 0.0))
            assert c2 == pytest.approx((-0.5, 0.0))

    def test_degenerate_sister_uses_fallback_axis(self):
        # Coincident within 1e-12 of the target's scale, at any scale.
        for scale in (1.0, 2.0 ** -80):
            target = (3.0 * scale, 4.0 * scale)
            sister = (3.0 * scale, (4.0 + 1e-15) * scale)
            for strat in (AngleStrategy.fixed(0.0, swap=False),
                          AngleStrategy.even()):
                c1, _ = division_step(target, sister, scale, 1, 1, strat)
                assert c1 == (3.5 * scale, 4.0 * scale)

    def test_degenerate_sister_fixed_still_rotates(self):
        for at in (0.0, 2.0 ** -80):
            c1, _ = division_step((0.0, at), (0.0, at), 1.0, 1, 1,
                                  AngleStrategy.fixed(90.0, swap=False))
            assert c1 == pytest.approx((0.0, 0.5 + at))

    def test_degenerate_sister_real_gap_at_origin(self):
        # 1e-15 from a target at the origin is a real direction (+y).
        sister = (0.0, 1e-15)
        c1, c2 = division_step((0.0, 0.0), sister, 1.0, 1, 1,
                               AngleStrategy.fixed(0.0, swap=False))
        assert c1 == pytest.approx((0.0, 0.5))
        assert c2 == pytest.approx((0.0, -0.5))
        c1, c2 = division_step((0.0, 0.0), sister, 1.0, 1, 1,
                               AngleStrategy.even())
        # Both children land 0.5 from the target, far beyond the sister:
        # the equidistant axis is perpendicular to the sister direction.
        assert c1 == pytest.approx((-0.5, 0.0))
        assert c2 == pytest.approx((0.5, 0.0))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            division_step((0.0, 0.0), None, 1.0, 0, 1, AngleStrategy.even())

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            division_step((0.0, 0.0), None, -1.0, 1, 1, AngleStrategy.even())

    @pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_height(self, height):
        with pytest.raises(ValueError,
                           match="^height must be finite and nonnegative$"):
            division_step((0.0, 0.0), (1.0, 0.0), height, 1, 1,
                          AngleStrategy.even())

    @pytest.mark.parametrize("target, sister, which", [
        ((math.nan, 0.0), (1.0, 0.0), "target"),
        ((0.0, 0.0), (math.nan, 0.0), "sister"),
        ((0.0, 0.0), (0.0, math.inf), "sister"),
    ], ids=["nan-target", "nan-sister", "inf-sister"])
    def test_rejects_non_finite_points(self, target, sister, which):
        # A NaN target would give NaN children, and a NaN sister would
        # pass for a coincident one.
        for strategy in (AngleStrategy.even(), AngleStrategy.fixed(30),
                         AngleStrategy.random(5)):
            with pytest.raises(ValueError, match=f"^{which} must be finite$"):
                division_step(target, sister, 1.0, 1, 1, strategy,
                              SplitMix64(5))

    def test_random_requires_rng(self):
        strat = AngleStrategy.random(5)
        for _ in range(3):
            with pytest.raises(ValueError, match="rng"):
                division_step((0.0, 0.0), (2.0, 0.0), 1.0, 1, 1, strat)

    def test_random_shared_stream_draws_fresh_angles(self):
        strat = AngleStrategy.random(5)
        rng = SplitMix64(strat.seed)
        pairs = {division_step((0.0, 0.0), (2.0, 0.0), 1.0, 1, 1, strat, rng)
                 for _ in range(3)}
        assert len(pairs) == 3

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("seed", range(5))
    def test_separation_and_ratio(self, strategy, seed):
        rng = np.random.default_rng(seed)
        target = tuple(rng.uniform(-5, 5, size=2))
        sister = tuple(rng.uniform(-5, 5, size=2))
        h = float(rng.uniform(0.1, 4.0))
        n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        c1, c2 = division_step(target, sister, h, n1, n2, strategy,
                               SplitMix64(seed))
        c1 = np.asarray(c1)
        c2 = np.asarray(c2)
        assert np.linalg.norm(c1 - c2) == pytest.approx(h, abs=EPS)
        com = (n1 * c1 + n2 * c2) / (n1 + n2)
        assert com == pytest.approx(target, abs=EPS)
        assert n1 * np.linalg.norm(c1 - target) == pytest.approx(
            n2 * np.linalg.norm(c2 - target), abs=EPS)


class TestEmbedding:
    @pytest.mark.parametrize("shape", [(3, 3), (3,), (2, 2, 2)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError,
                           match=r"^expected \(n, 2\) coordinates"):
            Embedding(np.zeros(shape))


class TestBranchingEmbed:
    def test_two_leaves(self):
        d = validate_dendrogram([(0, 1, 1.0, 2)], 2)
        emb = branching_embed(d, AngleStrategy.fixed(15.0))
        assert emb.coords == pytest.approx(np.array([[0.5, 0.0],
                                                     [-0.5, 0.0]]))

    def test_three_leaf_walkthrough(self):
        # Root splits {0,1} (size 2, travels 2/3) from leaf 2 (travels 4/3)
        # along +x; then {0,1} divides across the axis to its sister.
        d = validate_dendrogram([(0, 1, 1.0, 2), (3, 2, 2.0, 3)], 3)
        emb = branching_embed(d, AngleStrategy.fixed(90.0, swap=False))
        expected = np.array([
            [2.0 / 3.0, -0.5],
            [2.0 / 3.0, 0.5],
            [-4.0 / 3.0, 0.0],
        ])
        assert emb.coords == pytest.approx(expected, abs=1e-15)

    def test_single_leaf_unrepresentable(self):
        # the dendrogram layer already refuses n < 2
        with pytest.raises(ValueError):
            validate_dendrogram(np.empty((0, 4)), 1)

    def test_coords_read_only(self):
        d = validate_dendrogram([(0, 1, 1.0, 2)], 2)
        emb = branching_embed(d, AngleStrategy.even())
        with pytest.raises(ValueError):
            emb.coords[0, 0] = 9.9

    def test_trace_events(self):
        d = validate_dendrogram([(0, 1, 1.0, 2), (3, 2, 2.0, 3)], 3)
        emb = branching_embed(d, AngleStrategy.fixed(90.0, swap=False),
                              trace=True)
        assert emb.trace is not None and len(emb.trace) == 2
        root = emb.trace[0]
        assert isinstance(root, SplitEvent)
        assert root.node == 4 and root.sister is None
        assert root.target == (0.0, 0.0)
        assert root.height == 2.0 and (root.n1, root.n2) == (2, 1)
        inner = emb.trace[1]
        assert inner.node == 3
        assert inner.sister == pytest.approx((-4.0 / 3.0, 0.0))

    def test_no_trace_by_default(self):
        d = validate_dendrogram([(0, 1, 1.0, 2)], 2)
        assert branching_embed(d, AngleStrategy.even()).trace is None

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_center_of_mass_at_origin(self, strategy, seed):
        rng = np.random.default_rng(1000 + seed)
        d = random_dendrogram(int(rng.integers(2, 200)), rng)
        emb = branching_embed(d, strategy)
        assert emb.coords.mean(axis=0) == pytest.approx((0.0, 0.0), abs=EPS)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_trace_invariants(self, strategy):
        rng = np.random.default_rng(77)
        d = random_dendrogram(60, rng)
        emb = branching_embed(d, strategy, trace=True)
        assert len(emb.trace) == 59
        for ev in emb.trace:
            c1 = np.asarray(ev.child1)
            c2 = np.asarray(ev.child2)
            t = np.asarray(ev.target)
            assert np.linalg.norm(c1 - c2) == pytest.approx(ev.height,
                                                            abs=EPS)
            com = (ev.n1 * c1 + ev.n2 * c2) / (ev.n1 + ev.n2)
            assert com == pytest.approx(tuple(t), abs=EPS)

    def test_fixed_angle_realized_when_not_swapped(self):
        rng = np.random.default_rng(11)
        d = random_dendrogram(40, rng)
        theta = 37.0
        emb = branching_embed(d, AngleStrategy.fixed(theta, swap=False),
                              trace=True)
        for ev in emb.trace:
            if ev.sister is None:
                continue
            s = np.asarray(ev.sister) - np.asarray(ev.target)
            if np.linalg.norm(s) < 1e-9 or ev.height == 0.0:
                continue
            c = np.asarray(ev.child1) - np.asarray(ev.target)
            cosang = s @ c / (np.linalg.norm(s) * np.linalg.norm(c))
            got = math.degrees(math.acos(min(1.0, max(-1.0, cosang))))
            assert got == pytest.approx(theta, abs=1e-7)

    def test_even_equidistance_holds(self):
        rng = np.random.default_rng(12)
        d = random_dendrogram(50, rng)
        emb = branching_embed(d, AngleStrategy.even(), trace=True)
        checked = 0
        for ev in emb.trace:
            if ev.sister is None:
                continue
            s = np.asarray(ev.sister)
            length = np.linalg.norm(s - np.asarray(ev.target))
            l1 = ev.height * ev.n2 / (ev.n1 + ev.n2)
            l2 = ev.height * ev.n1 / (ev.n1 + ev.n2)
            if length < 1e-9 or abs(l1 - l2) >= 2.0 * length:
                continue  # clamp active: equidistance unattainable
            d1 = np.linalg.norm(np.asarray(ev.child1) - s)
            d2 = np.linalg.norm(np.asarray(ev.child2) - s)
            assert d1 == pytest.approx(d2, abs=EPS)
            checked += 1
        assert checked > 10

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_deterministic_rerun(self, strategy):
        rng = np.random.default_rng(13)
        d = random_dendrogram(30, rng)
        a = branching_embed(d, strategy).coords
        b = branching_embed(d, strategy).coords
        assert np.array_equal(a, b)

    def test_random_seeds_differ(self):
        rng = np.random.default_rng(14)
        d = random_dendrogram(25, rng)
        a = branching_embed(d, AngleStrategy.random(seed=1)).coords
        b = branching_embed(d, AngleStrategy.random(seed=2)).coords
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_overflowing_coordinates_rejected(self, strategy):
        # A valid tree whose heights near the float64 maximum make the
        # sums of travel distances overflow.
        d = overflowing_dendrogram()
        with pytest.raises(ValueError,
                           match="^embedding coordinates overflow float64$"):
            branching_embed(d, strategy)

    def test_random_root_direction_varies(self):
        d = validate_dendrogram([(0, 1, 1.0, 2)], 2)
        a = branching_embed(d, AngleStrategy.random(seed=3)).coords
        assert abs(a[0, 1]) > 0.0  # off the x axis almost surely


def _scaled(d, k):
    """``d`` with every height multiplied by 2**k."""
    return validate_dendrogram(
        [(r.left, r.right, r.height * 2.0 ** k, r.size) for r in d.records()],
        d.n_leaves)


def _replay_trees():
    """Benchmark-shaped trees (100 x 5 Gaussian data, the default
    conditions), trees with zero heights (coincident sisters), one of
    each kind scaled by 2**-300 and by 2**300, and caterpillars of depth
    n - 1."""
    trees = [linkage(dissimilarity(kind, gaussian_matrix(100, 5, seed)),
                     method)
             for seed in (0, 1) for kind, method in DEFAULT_CONDITIONS]
    # Groups of three equal rows merge at height 0 before anything else.
    tied = np.repeat(gaussian_matrix(12, 2, 3), 3, axis=0)
    trees += [linkage(euclidean_dissimilarity(tied), method)
              for method in LINKAGE_METHODS]
    trees.append(linkage(euclidean_dissimilarity(np.zeros((9, 2))),
                         "single"))
    trees += [_scaled(trees[i], k) for i in (0, 14) for k in (-300, 300)]
    trees += [caterpillar_dendrogram(120), caterpillar_dendrogram(120, False)]
    return trees


REPLAY_STRATEGIES = (
    [AngleStrategy.random(seed) for seed in (0, 5, 2 ** 64 - 1)]
    + [AngleStrategy.fixed(theta, swap) for theta in DEFAULT_THETAS
       for swap in (True, False)]
    + [AngleStrategy.even()])


def _strategy_id(s):
    return f"{s.kind}-{s.label()}-{s.swap}-{s.seed}"


def _bits(value):
    """``value`` (an event, or a tuple or number in one) with each float
    as its exact hex form, so 0.0 and -0.0 differ."""
    if isinstance(value, SplitEvent):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value.hex() if isinstance(value, float) else value


class TestReplay:
    """``branching_embed``'s one loop performs ``division_step``'s
    operations in the same order: its coordinates and trace equal, bit
    for bit, one public ``division_step`` call per record
    (``helpers.replay_embed``)."""

    @pytest.fixture(scope="class")
    def trees(self):
        return _replay_trees()

    def test_trees_cover_the_cases(self, trees):
        heights = np.concatenate([d.height for d in trees])
        assert (heights == 0.0).any()
        assert heights[heights > 0.0].min() < 2.0 ** -290
        assert heights.max() > 2.0 ** 290

    @pytest.mark.parametrize("strategy", REPLAY_STRATEGIES, ids=_strategy_id)
    def test_equals_division_step_replay(self, trees, strategy):
        for d in trees:
            coords, events = replay_embed(d, strategy)
            emb = branching_embed(d, strategy, trace=True)
            assert np.array_equal(emb.coords, coords)
            assert emb.coords.tobytes() == coords.tobytes()
            assert emb.trace == events
            assert [_bits(e) for e in emb.trace] == [_bits(e) for e in events]
            assert np.array_equal(branching_embed(d, strategy).coords,
                                  coords)

    @pytest.mark.parametrize("strategy", REPLAY_STRATEGIES, ids=_strategy_id)
    def test_overflow_raises_as_replay(self, strategy):
        d = overflowing_dendrogram()
        message = "^embedding coordinates overflow float64$"
        with pytest.raises(EmbeddingOverflow, match=message):
            replay_embed(d, strategy)
        with pytest.raises(EmbeddingOverflow, match=message):
            branching_embed(d, strategy, trace=True)

    @pytest.mark.parametrize("strategy", REPLAY_STRATEGIES, ids=_strategy_id)
    def test_large_products_as_replay(self, strategy):
        # The root's 1e308 * 2 overflows; its distances are taken again
        # as 1e308 * (2 / 4), in both loops.
        d = validate_dendrogram(LARGE_PRODUCT_TREE, 4)
        coords, events = replay_embed(d, strategy)
        emb = branching_embed(d, strategy, trace=True)
        assert emb.coords.tobytes() == coords.tobytes()
        assert [_bits(e) for e in emb.trace] == [_bits(e) for e in events]
        assert np.abs(coords).max() <= 5.5e307
        assert math.hypot(*events[0].child1) == pytest.approx(5e307)


class TestScaleInvariance:
    """Scaling the data by a power of two scales the tree's heights and
    its embedding by exactly that factor and leaves r_c and r_k as they
    are, down to scales where every sister is closer than 1e-12."""

    @pytest.fixture(scope="class")
    def data(self):
        return gaussian_matrix(20, 3, 5)

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    @pytest.mark.parametrize("strategy", [AngleStrategy.random(seed=5),
                                          AngleStrategy.fixed(15.0),
                                          AngleStrategy.even()],
                             ids=lambda s: s.kind)
    def test_embedding_and_scores_scale(self, data, method, strategy):
        def embed_and_score(scale):
            d = linkage(euclidean_dissimilarity(data * scale), method)
            emb = branching_embed(d, strategy)
            return d, emb.coords, evaluate_embedding(d, emb, method)

        d1, coords1, rep1 = embed_and_score(1.0)
        for k in (-300, -66, -40, 300):
            scale = 2.0 ** k
            d, coords, rep = embed_and_score(scale)
            assert np.array_equal(d.height, d1.height * scale), k
            assert np.array_equal(coords, coords1 * scale), k
            assert (rep.r_c, rep.r_k) == (rep1.r_c, rep1.r_k), k


class TestLineEmbed:
    def test_two_leaves(self):
        d = validate_dendrogram([(0, 1, 3.0, 2)], 2)
        emb = line_embed(d)
        assert emb.coords == pytest.approx(np.array([[-1.5, 0.0],
                                                     [1.5, 0.0]]))

    def test_gap_pattern(self):
        d = validate_dendrogram(
            [(0, 1, 1.0, 2), (2, 3, 1.0, 2), (4, 5, 3.0, 4)], 4)
        emb = line_embed(d)
        x = emb.coords[:, 0]
        assert np.diff(x) == pytest.approx([1.0, 3.0, 1.0])
        assert emb.coords[:, 1] == pytest.approx([0.0] * 4)

    def test_centered(self):
        rng = np.random.default_rng(15)
        d = random_dendrogram(33, rng)
        emb = line_embed(d)
        assert emb.coords.mean(axis=0) == pytest.approx((0.0, 0.0),
                                                        abs=1e-9)

    def test_overflow_is_named(self):
        # The running sum of gaps overflows float64.
        d = overflowing_dendrogram()
        with pytest.raises(EmbeddingOverflow,
                           match="^embedding coordinates overflow float64$"):
            line_embed(d)

    def test_centres_a_sum_that_overflows(self):
        # The gaps' running sum [0, 1e307, 1.1e308, 1.2e308] fits, its
        # sum does not; the mean is taken on it scaled by 2**-1024.
        d = validate_dendrogram(LARGE_PRODUCT_TREE, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = line_embed(d).coords[:, 0]
        assert x.tolist() == [-6e307, -5e307, 5e307, 6e307]

    @pytest.mark.parametrize("seed", range(6))
    def test_adjacent_gaps_are_cophenetic_heights(self, seed):
        rng = np.random.default_rng(1600 + seed)
        d = random_dendrogram(int(rng.integers(2, 60)), rng)
        emb = line_embed(d)
        sq = cophenetic_matrix(d).to_square()
        order = np.argsort(emb.coords[:, 0])
        for u, v in zip(order[:-1], order[1:]):
            gap = emb.coords[v, 0] - emb.coords[u, 0]
            assert gap == pytest.approx(sq[u, v], abs=1e-12)
