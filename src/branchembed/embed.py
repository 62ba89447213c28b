"""Two-dimensional embedding of a dendrogram by recursive cluster division.

The embedder walks the merge tree from the root down.  A cluster occupies a
single point until its own merge record is reached, at which moment it
divides: the two children move to opposite sides of the cluster point along
a division axis, their separation equals the merge height, and each child's
travel distance is inversely proportional to its leaf count.  The center of
mass therefore never moves, and every leaf ends up with its own coordinate
after n - 1 divisions, in time linear in n.

What remains free is the direction of the division axis, chosen per split
by an :class:`AngleStrategy`:

* ``random``  - a fresh uniform angle per split, from a seeded stream;
* ``fixed``   - the target-to-sister direction rotated counterclockwise by
  a constant angle theta in [0, 90] degrees.  With the ``swap`` flag on
  (the default) the larger child takes the side pointing away from the
  sister, which untangles crowded splits at small theta;
* ``even``    - theta is recomputed per split so that both children land
  equidistant from the sister cluster.

The root has no sister; its axis is the +x direction (or a random angle
for the random strategy), which only fixes the global orientation.  A
sister that coincides with the target (see ``_DEGENERATE``) gives no
direction either: ``fixed`` rotates +x by theta and ``even`` keeps +x.

:func:`division_step` is the public form of one split.
:func:`branching_embed` does not call it: it computes what no position
depends on once per tree, then runs one loop over the records that
performs the same operations as :func:`division_step`, in the same order,
so the two agree bit for bit (``tests/test_embed.py::TestReplay`` checks
this against a record-by-record replay).  The loop stays O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .datasets import _check_integer
from .dendrogram import Dendrogram, _layout
from .errors import EmbeddingOverflow
from .rng import SplitMix64

STRATEGY_KINDS = ("random", "fixed", "even")

# A sister no farther from the target than this fraction of the target's
# L1 norm coincides with it, and the sister direction falls back to +x.
# The cutoff is relative, so scaling a tree's heights by a power of two
# scales its embedding by exactly that factor (short of under- or
# overflow) and leaves its scores unchanged.
_DEGENERATE = 1e-12

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AngleStrategy:
    """Division-axis rule for :func:`branching_embed`.

    Use the factories: ``AngleStrategy.random(seed)``,
    ``AngleStrategy.fixed(theta, swap=True)`` or ``AngleStrategy.even()``.
    ``theta`` is in degrees and only meaningful for ``fixed``; ``seed``,
    an integer, only for ``random``.
    """

    kind: str
    theta: Optional[float] = None
    swap: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        _check_integer("seed", self.seed)
        # A numpy integer seed would overflow in the seed arithmetic.
        object.__setattr__(self, "seed", int(self.seed))
        if self.kind == "fixed":
            if self.theta is None:
                raise ValueError("fixed strategy needs a theta")
            if not 0.0 <= self.theta <= 90.0:
                raise ValueError(
                    f"theta must be in [0, 90] degrees, got {self.theta}"
                )
        elif self.theta is not None:
            raise ValueError(f"{self.kind} strategy takes no theta")

    @classmethod
    def random(cls, seed: int = 0) -> "AngleStrategy":
        return cls("random", seed=seed)

    @classmethod
    def fixed(cls, theta: float, swap: bool = True) -> "AngleStrategy":
        return cls("fixed", theta=float(theta), swap=swap)

    @classmethod
    def even(cls) -> "AngleStrategy":
        return cls("even")

    def label(self) -> str:
        """Short column label: 'random', 'even', or the angle in degrees."""
        if self.kind == "fixed":
            return f"{self.theta:g}"
        return self.kind


@dataclass(frozen=True)
class SplitEvent:
    """Trace record of one division (all positions are (x, y) tuples)."""

    node: int
    target: tuple[float, float]
    sister: Optional[tuple[float, float]]
    child1: tuple[float, float]
    child2: tuple[float, float]
    height: float
    n1: int
    n2: int


@dataclass(frozen=True)
class Embedding:
    """Leaf coordinates, row i for leaf i, plus an optional division trace."""

    coords: np.ndarray
    trace: Optional[list[SplitEvent]] = field(default=None, compare=False)

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"expected (n, 2) coordinates, got {coords.shape}")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def n_leaves(self) -> int:
        return self.coords.shape[0]


def even_angle(l1: float, l2: float, length: float) -> float:
    """Rotation (radians) that puts both children equidistant from the
    sister, for travel distances ``l1``, ``l2`` and target-sister distance
    ``length`` > 0.  The cosine is clamped to [-1, 1], so very lopsided
    splits degrade to 0 or 180 degrees instead of failing.
    """
    if not length > 0.0:  # also catches NaN
        raise ValueError("target-sister distance must be positive")
    return math.acos(min(1.0, max(-1.0, (l1 - l2) / (2.0 * length))))


def division_step(target, sister, height, n1, n2,
                  strategy: AngleStrategy, rng: Optional[SplitMix64] = None):
    """Place the two children of one dividing cluster.

    ``target`` is the cluster's point, ``sister`` the point of its sibling
    (None at the root), ``height`` the merge height and ``n1``/``n2`` the
    child leaf counts (child 1 is the record's left child).  Returns the
    pair of child positions.  The random strategy draws its angle from
    ``rng``, which it requires: pass one stream shared by all the splits
    of an embedding, such as ``SplitMix64(strategy.seed)``.

    Child 1 travels ``height * n2 / (n1 + n2)`` along the division axis and
    child 2 travels ``height * n1 / (n1 + n2)`` the opposite way, so the
    children end up exactly ``height`` apart and the size-weighted mean of
    the two positions stays on the target.  A point that is not finite
    raises ``ValueError``.

    :func:`branching_embed` places every split of a tree with the same
    operations, in the same order, in one loop of its own.
    """
    if not (math.isfinite(target[0]) and math.isfinite(target[1])):
        raise ValueError("target must be finite")
    if sister is not None and not (math.isfinite(sister[0])
                                   and math.isfinite(sister[1])):
        raise ValueError("sister must be finite")
    if n1 < 1 or n2 < 1:
        raise ValueError("child sizes must be positive")
    if not 0.0 <= height < math.inf:  # also catches NaN
        raise ValueError("height must be finite and nonnegative")
    total = n1 + n2
    l1 = height * n2 / total
    l2 = height * n1 / total
    # A product above the float64 maximum is taken again in an order
    # that cannot overflow; every other distance keeps its bits.
    if l1 == math.inf:
        l1 = height * (n2 / total)
    if l2 == math.inf:
        l2 = height * (n1 / total)
    tx, ty = target
    kind = strategy.kind

    if kind == "random":
        if rng is None:
            raise ValueError("the random strategy needs an rng stream")
        ang = _TWO_PI * rng.next_uniform()
        ux = math.cos(ang)
        uy = math.sin(ang)
    else:
        # The axis is the unit direction toward the sister, or +x at the
        # root and for a coincident sister, rotated counterclockwise by
        # fixed's theta (not at the root) or by even's angle.
        sx, sy, rad = 1.0, 0.0, 0.0
        if sister is not None:
            dx = sister[0] - tx
            dy = sister[1] - ty
            length = math.hypot(dx, dy)
            if length > _DEGENERATE * (abs(tx) + abs(ty)):
                sx = dx / length
                sy = dy / length
                if kind == "even":
                    rad = even_angle(l1, l2, length)
            if kind == "fixed":
                rad = math.radians(strategy.theta)
        cos_t = math.cos(rad)
        sin_t = math.sin(rad)
        ux = sx * cos_t - sy * sin_t
        uy = sx * sin_t + sy * cos_t
        if kind == "fixed" and strategy.swap and n1 > n2:
            # Push the larger child away from the sister.
            l1, l2 = -l1, -l2

    return (tx + l1 * ux, ty + l1 * uy), (tx - l2 * ux, ty - l2 * uy)


def branching_embed(d: Dendrogram, strategy: AngleStrategy,
                    trace: bool = False) -> Embedding:
    """Embed a dendrogram's leaves in the plane by recursive division.

    The root cluster starts at the origin; records are processed root
    first (reverse creation order), so a cluster's own position and its
    sister's are always known before it divides.  With ``trace=True`` the
    returned embedding carries one :class:`SplitEvent` per record in
    processing order.  Raises :class:`EmbeddingOverflow` if a coordinate
    overflows float64, as heights near its maximum can make sums of
    travel distances do.

    Each split performs the operations of :func:`division_step`, in the
    same order, so the coordinates and the trace are bit for bit those of
    calling it once per record, root first, with one shared
    ``SplitMix64(strategy.seed)`` (``helpers.replay_embed`` in the tests
    does so).  What no position depends on is computed once per call:
    the travel distances and fixed's swap, in numpy; fixed's rotation;
    random's n - 1 angles, record k taking draw n - 1 - k of the stream,
    and their cosines and sines.  The loop over the records then reads
    and writes lists only, and runs in O(n).
    """
    n = d.n_leaves
    if n < 2:
        raise ValueError("need at least 2 leaves to embed")
    kind = strategy.kind
    sizes = np.concatenate((np.ones(n, dtype=np.int64), d.size))
    n1 = sizes[d.left]
    n2 = sizes[d.right]
    total = n1 + n2
    with np.errstate(over="ignore"):
        l1 = d.height * n2 / total
        l2 = d.height * n1 / total
    # As in division_step, only a product that overflowed is taken again.
    for dist, size in ((l1, n2), (l2, n1)):
        over = np.isinf(dist)
        if over.any():
            dist[over] = d.height[over] * (size[over] / total[over])
    if kind == "fixed" and strategy.swap:
        # Push the larger child away from the sister.
        flip = n1 > n2
        np.negative(l1, out=l1, where=flip)
        np.negative(l2, out=l2, where=flip)
    l1 = l1.tolist()
    l2 = l2.tolist()
    left = d.left.tolist()
    right = d.right.tolist()

    hypot, cos, sin = math.hypot, math.cos, math.sin
    random = kind == "random"
    even = kind == "even"
    if random:
        draws = SplitMix64(strategy.seed).uniforms(n - 1)
        ang = (_TWO_PI * draws)[::-1].tolist()
        cos_r = [cos(a) for a in ang]
        sin_r = [sin(a) for a in ang]
    # The rotation below the root: fixed's theta; none for even, whose
    # angle is per split unless the sister coincides.
    rad = math.radians(strategy.theta) if kind == "fixed" else 0.0
    cos_t = cos(rad)
    sin_t = sin(rad)

    n_nodes = 2 * n - 1
    xs = [0.0] * n_nodes
    ys = [0.0] * n_nodes
    sib = [-1] * n_nodes
    events: Optional[list[SplitEvent]] = None
    if trace:
        events = []
        heights = d.height.tolist()
        n1 = n1.tolist()
        n2 = n2.tolist()

    for k in range(n - 2, -1, -1):
        node = n + k
        a = left[k]
        b = right[k]
        tx = xs[node]
        ty = ys[node]
        s = sib[node]
        d1 = l1[k]
        d2 = l2[k]
        if random:
            ux = cos_r[k]
            uy = sin_r[k]
        else:
            # The unit direction toward the sister, or +x at the root and
            # for a coincident sister, rotated counterclockwise by fixed's
            # theta (not at the root) or by even's angle.
            sx, sy, c, sn = 1.0, 0.0, 1.0, 0.0
            if s >= 0:
                c, sn = cos_t, sin_t
                dx = xs[s] - tx
                dy = ys[s] - ty
                length = hypot(dx, dy)
                if length > _DEGENERATE * (abs(tx) + abs(ty)):
                    sx = dx / length
                    sy = dy / length
                    if even:
                        r = even_angle(d1, d2, length)
                        c = cos(r)
                        sn = sin(r)
            ux = sx * c - sy * sn
            uy = sx * sn + sy * c
        x1 = xs[a] = tx + d1 * ux
        y1 = ys[a] = ty + d1 * uy
        x2 = xs[b] = tx - d2 * ux
        y2 = ys[b] = ty - d2 * uy
        sib[a] = b
        sib[b] = a
        if events is not None:
            events.append(SplitEvent(
                node, (tx, ty), (xs[s], ys[s]) if s >= 0 else None,
                (x1, y1), (x2, y2), heights[k], n1[k], n2[k]))

    coords = np.empty((n, 2))
    coords[:, 0] = xs[:n]
    coords[:, 1] = ys[:n]
    if not np.isfinite(coords).all():
        raise EmbeddingOverflow()
    return Embedding(coords, events)


def line_embed(d: Dendrogram) -> Embedding:
    """Embed leaves on the x axis, in depth-first leaf order, with each
    adjacent gap equal to the pair's cophenetic distance.

    Along a line, single linkage merges exactly along the smallest gaps,
    so reclustering this embedding with Euclidean distance and single
    linkage reproduces the original cophenetic matrix.  The layout is
    centered so the coordinates sum to zero; a mean whose sum overflows
    is taken on the coordinates scaled by a power of two.  Raises
    :class:`EmbeddingOverflow` if the running sum of gaps overflows
    float64.
    """
    n = d.n_leaves
    pos, _, _, gap = _layout(d)
    # Each record's height, at the gap between its two leaf blocks.
    steps = np.empty(n - 1)
    steps[gap[0]] = d.height
    x = np.empty(n)
    x[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(steps, out=x[1:])
        mean = x.mean()
        if not math.isfinite(mean):
            # The sum overflowed: take the mean of x scaled by a power of
            # two, which is exact, and scale it back.
            e = math.frexp(np.abs(x).max())[1]
            mean = math.ldexp(np.ldexp(x, -e).mean(), e)
        x -= mean
    if not np.isfinite(x).all():
        raise EmbeddingOverflow()
    coords = np.zeros((n, 2))
    coords[:, 0] = x[pos[0]]
    return Embedding(coords, None)
