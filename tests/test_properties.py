"""Property tests: the cached-minimum ``linkage`` equals the stepwise
full-matrix scan exactly, and the range-minimum cophenetic/kinship fill
equals the per-record scatter exactly, on generated inputs.

Integer grids make most steps tie at the minimum, which exercises the
tie-break and the row-minimum refresh; float matrices exercise the
tie-free path.  Examples are derandomized so every run checks the same
inputs.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from branchembed import (  # noqa: E402
    LINKAGE_METHODS,
    euclidean_dissimilarity,
    linkage,
)
from branchembed.dendrogram import _pair_matrices  # noqa: E402
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
