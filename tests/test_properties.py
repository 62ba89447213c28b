"""Property tests: the cached-minimum ``linkage`` equals the stepwise
full-matrix scan exactly, and the range-minimum cophenetic/kinship fill
equals the per-record scatter exactly, on generated inputs.  Generated
trees also survive the merge-table text round trip, a single-field
mutation of one record is rejected with the named error, the array
acceptance check accepts exactly the merge tables that the per-record
walk accepts, and every angle strategy keeps criterion 10's geometric
invariants.

Integer grids make most steps tie at the minimum, which exercises the
tie-break and the row-minimum refresh; float matrices exercise the
tie-free path.  Examples are derandomized so every run checks the same
inputs.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from branchembed import (  # noqa: E402
    LINKAGE_METHODS,
    AngleStrategy,
    DuplicateChild,
    ForwardReference,
    NegativeHeight,
    NonMonotonic,
    SizeMismatch,
    branching_embed,
    euclidean_dissimilarity,
    linkage,
    parse_merge_table,
    serialize_merge_table,
    validate_dendrogram,
)
from branchembed.dendrogram import (  # noqa: E402
    _pair_matrices,
    _valid_records,
)
from branchembed.errors import DendrogramError  # noqa: E402
from helpers import (  # noqa: E402
    random_dendrogram,
    scatter_pair_matrices,
    stepwise_linkage,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

shapes = st.tuples(st.integers(2, 30), st.integers(1, 3))
grids = shapes.flatmap(lambda shape: arrays(
    np.float64, shape, elements=st.integers(0, 3).map(float)))
floats = shapes.flatmap(lambda shape: arrays(
    np.float64, shape,
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)))


@pytest.mark.parametrize("method", LINKAGE_METHODS)
@SETTINGS
@given(x=grids)
def test_equal_to_stepwise_on_integer_grids(method, x):
    d0 = euclidean_dissimilarity(x)
    assert linkage(d0, method) == stepwise_linkage(d0, method)


@pytest.mark.parametrize("method", LINKAGE_METHODS)
@SETTINGS
@given(x=floats)
def test_equal_to_stepwise_on_float_matrices(method, x):
    d0 = euclidean_dissimilarity(x)
    assert linkage(d0, method) == stepwise_linkage(d0, method)


@SETTINGS
@given(n=st.integers(2, 120), seed=st.integers(0, 2**32 - 1))
def test_pair_matrices_equal_to_scatter(n, seed):
    d = random_dendrogram(n, np.random.default_rng(seed))
    coph, kin = _pair_matrices(d, True, True)
    ref_coph, ref_kin = scatter_pair_matrices(d, True, True)
    assert np.array_equal(coph, ref_coph)
    assert np.array_equal(kin, ref_kin)


@SETTINGS
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       max_step=st.floats(0.02, 1e6))
def test_merge_table_text_round_trip(n, seed, max_step):
    d = random_dendrogram(n, np.random.default_rng(seed), max_step)
    assert parse_merge_table(serialize_merge_table(d)) == d


def _mutation(error, d, data):
    """``(record, field, value)``: one field of one record of ``d`` set
    to a value that ``validate_dendrogram`` must reject with ``error``."""
    n = d.n_leaves
    child = data.draw(st.sampled_from((0, 1)))
    if error is ForwardReference:
        k = data.draw(st.integers(0, n - 2))
        return k, child, data.draw(st.integers(n + k, 2 * n - 2))
    if error is DuplicateChild:
        k = data.draw(st.integers(1, n - 2))
        earlier = data.draw(st.integers(0, k - 1))
        used = data.draw(st.sampled_from((d.left[earlier], d.right[earlier])))
        return k, child, int(used)
    if error is SizeMismatch:
        k = data.draw(st.integers(0, n - 2))
        return k, 3, int(d.size[k]) + data.draw(st.sampled_from((-1, 1)))
    if error is NegativeHeight:
        k = data.draw(st.integers(0, n - 2))
        return k, 2, -float(d.height[k])
    # NonMonotonic: half the height of an internal child, far below it.
    k = data.draw(st.sampled_from(
        [k for k in range(n - 1) if max(d.left[k], d.right[k]) >= n]))
    child_h = max(d.height[c - n] for c in (d.left[k], d.right[k]) if c >= n)
    return k, 2, float(child_h) / 2


@pytest.mark.parametrize("error", [ForwardReference, DuplicateChild,
                                   SizeMismatch, NegativeHeight,
                                   NonMonotonic])
@SETTINGS
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_validate_rejects_single_field_mutation(error, n, seed, data):
    d = random_dendrogram(n, np.random.default_rng(seed))
    records = [list(rec) for rec in d.records()]
    k, field, value = _mutation(error, d, data)
    records[k][field] = value
    with pytest.raises(error) as err:
        validate_dendrogram(records, n)
    assert err.value.record == k


def _walk_accepts(records, n):
    try:
        validate_dendrogram(records, n)
    except DendrogramError:
        return False
    return True


def _fields(tables):
    """(B, n-1) left, right, height and size arrays of B record lists."""
    return tuple(np.array([[rec[f] for rec in t] for t in tables], dtype)
                 for f, dtype in enumerate((np.int64, np.int64, np.float64,
                                            np.int64)))


def _any_mutation(d, data):
    """``(record, field, value)``: one field of one record of ``d`` set
    to a value that may or may not keep the table valid.  Half the
    draws hit the root record, whose size and height no parent checks."""
    n = d.n_leaves
    k = data.draw(st.just(n - 2) | st.integers(0, n - 2))
    field = data.draw(st.integers(0, 3))
    if field == 2:
        top = float(d.height.max())
        return k, 2, data.draw(
            st.sampled_from((-1.0, -0.0, 0.0, math.inf, math.nan))
            | st.floats(0.0, 2.0 * top))
    if field == 3:
        return k, 3, int(d.size[k]) + data.draw(st.integers(-2, 2))
    return k, field, data.draw(st.integers(-1, 2 * n - 1))


@SETTINGS
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1),
       named=st.booleans(), data=st.data())
def test_array_check_agrees_with_record_walk(n, seed, named, data):
    d = random_dendrogram(n, np.random.default_rng(seed))
    records = [list(rec) for rec in d.records()]
    assert _valid_records(*_fields([records]), n).tolist() == [True]
    if named:
        error = data.draw(st.sampled_from(
            (ForwardReference, DuplicateChild, SizeMismatch, NegativeHeight,
             NonMonotonic)))
        k, field, value = _mutation(error, d, data)
    else:
        k, field, value = _any_mutation(d, data)
    records[k][field] = value
    accepted = _valid_records(*_fields([records]), n).tolist()
    assert accepted == [_walk_accepts(records, n)]
    if named:
        assert accepted == [False]


@SETTINGS
@given(n=st.integers(3, 30), count=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_array_check_names_the_bad_tree_of_a_batch(n, count, seed, data):
    rng = np.random.default_rng(seed)
    tables = [[list(rec) for rec in random_dendrogram(n, rng).records()]
              for _ in range(count)]
    bad = data.draw(st.integers(0, count - 1))
    error = data.draw(st.sampled_from(
        (ForwardReference, DuplicateChild, SizeMismatch, NegativeHeight,
         NonMonotonic)))
    tree = validate_dendrogram(tables[bad], n)
    k, field, value = _mutation(error, tree, data)
    tables[bad][k][field] = value
    expected = [b != bad for b in range(count)]
    assert _valid_records(*_fields(tables), n).tolist() == expected
    assert [_walk_accepts(t, n) for t in tables] == expected


angle_strategies = st.one_of(
    st.integers(0, 2**32 - 1).map(AngleStrategy.random),
    st.just(AngleStrategy.even()),
    st.builds(AngleStrategy.fixed, st.floats(0.0, 90.0), st.booleans()),
)


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


@SETTINGS
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       strategy=angle_strategies)
def test_embedding_keeps_criterion_10_invariants(n, seed, strategy):
    d = random_dendrogram(n, np.random.default_rng(seed))
    emb = branching_embed(d, strategy, trace=True)
    assert np.abs(emb.coords.mean(axis=0)).max() <= 1e-9
    for ev in emb.trace:
        c1, c2, t = ev.child1, ev.child2, ev.target
        assert abs(_dist(c1, c2) - ev.height) <= 1e-9
        assert abs(ev.n1 * _dist(c1, t) - ev.n2 * _dist(c2, t)) <= 1e-9
        if ev.sister is None:
            continue
        s = ev.sister
        length = _dist(s, t)
        # Degenerate splits: a coincident sister or a zero height.
        if length < 1e-9 or ev.height <= 0.0:
            continue
        if strategy.kind == "even":
            l1 = ev.height * ev.n2 / (ev.n1 + ev.n2)
            l2 = ev.height * ev.n1 / (ev.n1 + ev.n2)
            if abs(l1 - l2) < 2.0 * length:
                assert abs(_dist(c1, s) - _dist(c2, s)) <= 1e-9
        elif strategy.kind == "fixed":
            # The child on the rotated side realizes theta.
            toward = c2 if (strategy.swap and ev.n1 > ev.n2) else c1
            v = (toward[0] - t[0], toward[1] - t[1])
            cos = ((s[0] - t[0]) * v[0] + (s[1] - t[1]) * v[1]) / (
                length * math.hypot(*v))
            assert abs(cos - math.cos(math.radians(strategy.theta))) <= 1e-9
