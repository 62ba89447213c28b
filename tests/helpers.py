"""Shared test utilities: dendrogram generators and brute-force oracles.

The oracles here deliberately use a different algorithm than the package
(parent-pointer walks instead of leaf-set accumulation, definition-based
cluster costs instead of Lance-Williams updates), so agreement is
meaningful.  The exceptions are references the package's faster code
replaced and must agree with exactly: ``stepwise_linkage``, the
full-matrix scan behind the cached-minimum ``linkage`` (same arithmetic);
``rowloop_euclidean``, the per-row fill behind the chunked
``euclidean_dissimilarity``; ``scatter_pair_matrices``, the per-record
scatter behind the range-minimum ``_pair_matrices``;
``stack_leaves_and_gaps``, the stack walk behind the top-down leaf
layout; ``percell_table``, the one-``linkage``-per-cell benchmark loop
behind ``run_table_experiment``'s stacked reclustering; and
``pervalue_coords_csv`` and ``pervalue_svg_scatter``, the writers that
formatted one numpy scalar at a time behind ``cli._coords_csv`` and
``render_svg_scatter`` (same bytes); and ``replay_embed``, public
``division_step`` called once per record behind ``branching_embed``'s
single loop (same bits, same trace).  ``exact_r_c`` and ``exact_r_k``
are the exact oracles of the two scores, pair by pair from ``fractions``,
Python ints and ``math`` only.
"""

import math
from fractions import Fraction

import numpy as np

from branchembed import (
    DISSIMILARITY_KINDS,
    LINKAGE_METHODS,
    AngleStrategy,
    BenchTable,
    Dendrogram,
    EmbeddingOverflow,
    SplitEvent,
    SplitMix64,
    ZeroVariance,
    division_step,
    validate_dendrogram,
)
from branchembed import bench, cluster
from branchembed.cluster import _lw_combine
from branchembed.errors import BranchEmbedError
from branchembed.metrics import _scores, convert_dendrogram
from branchembed.svgplot import _MARGIN, PALETTE


def random_dendrogram(n, rng, max_step=1.0):
    """A random valid monotonic dendrogram over n leaves.

    Merges pick two uniformly random active clusters; each merge height
    exceeds both children's heights by a positive step, so all internal
    heights are strictly increasing along branches.
    """
    active = [(i, 0.0) for i in range(n)]
    node_size = {i: 1 for i in range(n)}
    records = []
    for k in range(n - 1):
        ia, ib = rng.choice(len(active), size=2, replace=False)
        (id_a, h_a) = active[min(ia, ib)]
        (id_b, h_b) = active[max(ia, ib)]
        h = max(h_a, h_b) + rng.uniform(0.01, max_step)
        size = node_size[id_a] + node_size[id_b]
        left, right = (id_a, id_b) if rng.random() < 0.5 else (id_b, id_a)
        records.append((left, right, h, size))
        for idx in sorted((ia, ib), reverse=True):
            del active[idx]
        node_size[n + k] = size
        active.append((n + k, h))
    return validate_dendrogram(records, n)


def balanced_dendrogram(n):
    """A near-balanced dendrogram: repeated pairwise merges of adjacent
    clusters, heights growing by one per round."""
    active = list(range(n))
    node_size = {i: 1 for i in range(n)}
    records = []
    nxt = n
    h = 0.0
    while len(active) > 1:
        h += 1.0
        merged = []
        for i in range(0, len(active) - 1, 2):
            a, b = active[i], active[i + 1]
            size = node_size[a] + node_size[b]
            records.append((a, b, h, size))
            node_size[nxt] = size
            merged.append(nxt)
            nxt += 1
        if len(active) % 2:
            merged.append(active[-1])
        active = merged
    return validate_dendrogram(records, n)


def caterpillar_dendrogram(n, left_spine=True):
    """Chain tree of depth n - 1: each record adds one leaf to the spine,
    which is the left child (or the right one)."""
    records, spine = [], 0
    for k in range(n - 1):
        pair = (spine, k + 1) if left_spine else (k + 1, spine)
        records.append(pair + (float(k + 1), k + 2))
        spine = n + k
    return validate_dendrogram(records, n)


def overflowing_dendrogram():
    """A balanced 1024-leaf tree with every merge at 1.7e308, whose
    embedding overflows float64 under every strategy.  A split of height
    h into two halves puts one child at a squared distance from the
    origin of at least its parent's plus (h / 2)^2, whatever the axis,
    so after ten splits some leaf would lie sqrt(10) * 8.5e307 = 2.7e308
    or more from the origin, with a coordinate above 1.9e308."""
    records = [(r.left, r.right, 1.7e308, r.size)
               for r in balanced_dendrogram(1024).records()]
    return validate_dendrogram(records, 1024)


def parents_and_heights(d: Dendrogram):
    """Parent pointer and merge height per node (root's parent is -1)."""
    parent = np.full(d.n_nodes, -1, dtype=np.int64)
    node_height = np.zeros(d.n_nodes)
    for k in range(d.n_leaves - 1):
        parent[d.left[k]] = parent[d.right[k]] = d.n_leaves + k
        node_height[d.n_leaves + k] = d.height[k]
    return parent, node_height


def brute_lca(parent, i, j):
    seen = set()
    node = i
    while node != -1:
        seen.add(node)
        node = parent[node]
    node = j
    while node not in seen:
        node = parent[node]
    return node


def brute_depths(parent, n_nodes):
    depth = np.zeros(n_nodes, dtype=np.int64)
    for node in range(n_nodes):
        at = node
        while parent[at] != -1:
            depth[node] += 1
            at = parent[at]
    return depth


def brute_cophenetic(d: Dendrogram):
    """Upper-triangle cophenetic values via explicit LCA walks."""
    parent, node_height = parents_and_heights(d)
    n = d.n_leaves
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            out[pos] = node_height[brute_lca(parent, i, j)]
            pos += 1
    return out


def brute_kinship(d: Dendrogram):
    """Upper-triangle leaf-to-leaf path edge counts via explicit walks."""
    parent, _ = parents_and_heights(d)
    depth = brute_depths(parent, d.n_nodes)
    n = d.n_leaves
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            lca = brute_lca(parent, i, j)
            out[pos] = depth[i] + depth[j] - 2 * depth[lca]
            pos += 1
    return out


def rowloop_euclidean(x):
    """Reference Euclidean fill: one row of condensed values at a time,
    from the differences of row i to every later row."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    with np.errstate(over="ignore"):
        for i in range(n - 1):
            diff = x[i + 1:] - x[i]
            out[pos:pos + n - 1 - i] = np.sqrt(
                np.einsum("ij,ij->i", diff, diff))
            pos += n - 1 - i
    return out


def scatter_pair_matrices(d: Dendrogram):
    """Reference cophenetic/kinship fill: every leaf pair meets at exactly
    one merge record, so writing all cross pairs of each record's two
    child leaf sets touches each condensed slot once.  Returns the
    condensed vectors ``(coph, kin)`` that ``dendrogram._pair_matrices``
    fills one at a time."""
    n = d.n_leaves
    m = n * (n - 1) // 2
    coph = np.empty(m)
    kin = np.empty(m)
    depth = np.zeros(d.n_nodes, dtype=np.int64)
    for k in range(n - 2, -1, -1):
        depth[d.left[k]] = depth[d.right[k]] = depth[n + k] + 1
    leafsets = [np.array([i], dtype=np.int64) for i in range(n)]
    for k in range(n - 1):
        a = leafsets[d.left[k]]
        b = leafsets[d.right[k]]
        lo = np.minimum(a[:, None], b[None, :])
        hi = np.maximum(a[:, None], b[None, :])
        idx = lo * (2 * n - lo - 1) // 2 + (hi - lo - 1)
        coph[idx] = d.height[k]
        kin[idx] = depth[a][:, None] + depth[b][None, :] - 2 * depth[n + k]
        leafsets.append(np.concatenate((a, b)))
    return coph, kin


def stack_leaves_and_gaps(d: Dendrogram):
    """Reference depth-first walk (left child first): the leaf order and,
    for each adjacent pair in it, the height of the node separating
    them."""
    n = d.n_leaves
    order, gaps = [], []
    # Gap markers pop exactly between a node's left and right leaf blocks.
    stack = [d.root]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            gaps.append(item[1])
        elif item < n:
            order.append(item)
        else:
            k = item - n
            stack.append(int(d.right[k]))
            stack.append((None, float(d.height[k])))
            stack.append(int(d.left[k]))
    return order, gaps


def stepwise_linkage(d0, method):
    """Reference clusterer: rescan the whole active block for the minimum
    at every merge.  Same Lance-Williams updates, slot moves and
    (smaller id, larger id) tie-break as ``linkage``; O(n^3)."""
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}")
    n = d0.n
    dm = d0.to_square()
    if method == "ward":
        dm *= dm
    np.fill_diagonal(dm, np.inf)

    node_of = np.arange(n, dtype=np.int64)
    sizes = np.ones(n, dtype=np.int64)
    merges = []
    m = n
    for step in range(n - 1):
        sub = dm[:m, :m]
        val = sub.min()
        ti, tj = np.nonzero(sub == val)
        ids_i = node_of[ti]
        ids_j = node_of[tj]
        lo = np.minimum(ids_i, ids_j)
        hi = np.maximum(ids_i, ids_j)
        pick = int(np.argmin(lo * np.int64(2 * n) + hi))
        best = (int(lo[pick]), int(hi[pick]))
        pi = int(ti[pick])
        pj = int(tj[pick])
        if pi > pj:
            pi, pj = pj, pi

        ni = int(sizes[pi])
        nj = int(sizes[pj])
        new_row = _lw_combine(method, dm[pi, :m], dm[pj, :m],
                              ni, nj, sizes[:m], val)
        new_row[pi] = np.inf
        dm[pi, :m] = new_row
        dm[:m, pi] = new_row

        last = m - 1
        if pj != last:
            dm[pj, :m] = dm[last, :m]
            dm[:m, pj] = dm[:m, last]
            dm[pj, pj] = np.inf
            node_of[pj] = node_of[last]
            sizes[pj] = sizes[last]
        m = last

        h = math.sqrt(val) if method == "ward" else float(val)
        merges.append((best[0], best[1], h, ni + nj))
        node_of[pi] = n + step
        sizes[pi] = ni + nj
    return validate_dendrogram(merges, n)


def _within_ss(sq_dist, members):
    """Total squared deviation from the centroid of ``members``, computed
    from squared pairwise distances alone."""
    if len(members) < 2:
        return 0.0
    block = sq_dist[np.ix_(members, members)]
    return float(block.sum()) / (2.0 * len(members))


def _naive_cost(method, dist, sq_dist, a, b):
    cross = dist[np.ix_(a, b)]
    if method == "single":
        return float(cross.min())
    if method == "complete":
        return float(cross.max())
    if method == "average":
        return float(cross.mean())
    gain = (_within_ss(sq_dist, a + b)
            - _within_ss(sq_dist, a) - _within_ss(sq_dist, b))
    return math.sqrt(max(0.0, 2.0 * gain))


def naive_linkage_oracle(d0, method):
    """Reference clusterer: recompute every inter-cluster dissimilarity
    from raw pairs at each step, straight from the method definitions.
    Same tie-break as ``linkage``, but no shared update logic.

    Quadratic per pair and cubic overall, so it is capped at 64 items.
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}")
    n = d0.n
    if n > 64:
        raise ValueError(f"oracle is limited to 64 items, got {n}")
    dist = d0.to_square()
    sq_dist = dist * dist
    clusters = [(i, [i]) for i in range(n)]
    merges = []
    for step in range(n - 1):
        best_cost = None
        best_key = None
        best_at = None
        for ia in range(len(clusters)):
            id_a, members_a = clusters[ia]
            for ib in range(ia + 1, len(clusters)):
                id_b, members_b = clusters[ib]
                cost = _naive_cost(method, dist, sq_dist, members_a, members_b)
                key = (id_a, id_b) if id_a < id_b else (id_b, id_a)
                if (best_cost is None or cost < best_cost
                        or (cost == best_cost and key < best_key)):
                    best_cost, best_key, best_at = cost, key, (ia, ib)
        ia, ib = best_at
        merged = clusters[ia][1] + clusters[ib][1]
        del clusters[ib]
        del clusters[ia]
        clusters.append((n + step, merged))
        merges.append((best_key[0], best_key[1], best_cost, len(merged)))
    return validate_dendrogram(merges, n)


def fill_spy(monkeypatch):
    """Route ``cluster.euclidean_dissimilarity`` and
    ``cluster.correlation_dissimilarity`` through wrappers; returns the
    list of the kinds they were called for, in call order."""
    calls = []
    for kind in DISSIMILARITY_KINDS:
        name = f"{kind}_dissimilarity"
        real = getattr(cluster, name)

        def spy(x, kind=kind, real=real):
            calls.append(kind)
            return real(x)

        monkeypatch.setattr(cluster, name, spy)
    return calls


def percell_table(cfg):
    """Reference benchmark loop: embed, recluster and score one cell at a
    time, with one ``linkage`` per cell (``convert_dendrogram``'s closed
    form for 2-D correlation, which ``test_cluster.TestSidesTree`` checks
    against ``linkage``) and one ``metrics._scores`` call on a one-tree
    list, whose NaN score counts as a failure.  It keeps its own sums,
    counts and failure counts per cell, and gives the same seeds and the
    same table, bit for bit, as ``run_table_experiment``.  The data
    generator and the embedder are looked up on ``branchembed.bench`` at
    call time, so a test that patches them there patches both loops."""
    shape = (len(cfg.conditions), len(cfg.strategies))
    sum_rc = np.zeros(shape)
    sum_rk = np.zeros(shape)
    counts = np.zeros(shape, dtype=np.int64)
    failures = np.zeros(shape, dtype=np.int64)
    for trial in range(cfg.trials):
        data = bench.gaussian_matrix(cfg.rows, cfg.cols, cfg.seed + trial)
        angle_seed = ((cfg.seed + bench._ANGLE_STREAM_OFFSET + trial)
                      & ((1 << 64) - 1))
        for ci, (kind, method) in enumerate(cfg.conditions):
            try:
                original = cluster.linkage(
                    cluster.dissimilarity(kind, data), method)
            except BranchEmbedError:
                failures[ci, :] += 1
                continue
            for si, strategy in enumerate(cfg.strategies):
                if strategy.kind == "random":
                    strategy = AngleStrategy.random(angle_seed + strategy.seed)
                try:
                    emb = bench.branching_embed(original, strategy)
                    scores = _scores(
                        original, [convert_dendrogram(emb, method, kind)])[0]
                    if np.isnan(scores).any():
                        raise BranchEmbedError("a constant vector")
                    r_c, r_k = scores
                except BranchEmbedError:
                    failures[ci, si] += 1
                    continue
                sum_rc[ci, si] += r_c
                sum_rk[ci, si] += r_k
                counts[ci, si] += 1
    with np.errstate(invalid="ignore"):
        return BenchTable(
            conditions=cfg.conditions,
            strategy_labels=tuple(s.label() for s in cfg.strategies),
            mean_r_c=sum_rc / counts,
            mean_r_k=sum_rk / counts,
            failures=failures,
            trials=cfg.trials,
        )


def pervalue_coords_csv(coords, labels):
    """The coordinates CSV the CLI writes, one numpy scalar per value."""
    lines = ["id,x,y,label" if labels is not None else "id,x,y"]
    for i in range(coords.shape[0]):
        row = f"{i},{coords[i, 0]:.17g},{coords[i, 1]:.17g}"
        if labels is not None:
            row += f",{labels[i]}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def pervalue_svg_scatter(pts, labels=None, size=640, point_radius=3.0):
    """``render_svg_scatter`` of finite (n, 2) float64 ``pts``, one numpy
    scalar expression per coordinate."""
    mins = pts.min(axis=0)
    maxs = pts.max(axis=0)
    center = (mins + maxs) / 2.0
    span = float((maxs - mins).max())
    if span == 0.0:
        span = 1.0
    side = span * (1.0 + 2.0 * _MARGIN)
    scale = size / side
    origin = center - side / 2.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for row in range(pts.shape[0]):
        cx = (pts[row, 0] - origin[0]) * scale
        cy = size - (pts[row, 1] - origin[1]) * scale
        color = (PALETTE[int(labels[row]) % 10] if labels is not None
                 else PALETTE[0])
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{point_radius:g}" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def replay_embed(d: Dendrogram, strategy: AngleStrategy):
    """Reference ``branching_embed``: one public ``division_step`` call
    per record, root first, the random strategy drawing from one shared
    ``SplitMix64(strategy.seed)``.  Returns the ``(n, 2)`` coordinates and
    the ``SplitEvent`` of each call, in call order.  A child point that
    is not finite raises ``EmbeddingOverflow`` at once: every leaf below
    it would be non-finite too."""
    n = d.n_leaves
    point = {d.root: (0.0, 0.0)}
    sister = {}
    size = [1] * n + d.size.tolist()
    rng = SplitMix64(strategy.seed)
    events = []
    for node, rec in reversed(list(enumerate(d.records(), start=n))):
        target = point[node]
        sis = point[sister[node]] if node in sister else None
        n1, n2 = size[rec.left], size[rec.right]
        c1, c2 = division_step(target, sis, rec.height, n1, n2, strategy,
                               rng)
        if not all(math.isfinite(v) for v in c1 + c2):
            raise EmbeddingOverflow()
        point[rec.left], point[rec.right] = c1, c2
        sister[rec.left], sister[rec.right] = rec.right, rec.left
        events.append(SplitEvent(node, target, sis, c1, c2, rec.height,
                                 n1, n2))
    return np.array([point[i] for i in range(n)]), events


def _pure_pairs(d: Dendrogram, value):
    """``{(i, j): value(k, depth, i, j)}`` over the pairs i < j whose
    lowest common ancestor is record k, with ``depth`` the node depths
    from a root-first pass: every cross pair of a record's two leaf
    lists."""
    n = d.n_leaves
    left = d.left.tolist()
    right = d.right.tolist()
    depth = [0] * (2 * n - 1)
    for k in range(n - 2, -1, -1):
        depth[left[k]] = depth[right[k]] = depth[n + k] + 1
    leaves = [[i] for i in range(n)]
    out = {}
    for k in range(n - 1):
        a, b = leaves[left[k]], leaves[right[k]]
        for i in a:
            for j in b:
                out[min(i, j), max(i, j)] = value(k, depth, i, j)
        leaves.append(a + b)
    return out


def _pure_kinship(d: Dendrogram):
    """Kinship values as Python ints: each pair's path length."""
    n = d.n_leaves
    return _pure_pairs(d, lambda k, depth, i, j:
                       depth[i] + depth[j] - 2 * depth[n + k])


def _pure_cophenetic(d: Dendrogram):
    """Cophenetic values as exact ``Fraction``s of the merge heights."""
    height = d.height.tolist()
    return _pure_pairs(d, lambda k, depth, i, j: Fraction(height[k]))


def _beyond(num, den, x: float, y: float) -> int:
    """The sign of |num| / sqrt(den) - (x + y) / 2, for x, y >= 0, with
    the midpoint taken exactly as a ratio of ints."""
    px, qx = x.as_integer_ratio()
    py, qy = y.as_integer_ratio()
    p, q = px * qy + py * qx, 2 * qx * qy
    lhs = num * num * q * q
    rhs = p * p * den
    return (lhs > rhs) - (lhs < rhs)


def _odd(x: float) -> bool:
    """Whether the last bit of the normal float ``x``'s significand is 1."""
    return bool(int(math.ldexp(math.frexp(x)[0], 53)) & 1)


def _rounded_pearson(a: dict, b: dict) -> float:
    """The Pearson correlation of two exact pair-value dicts (ints or
    ``Fraction``s), correctly rounded (ties to even); NaN if ``b`` is
    constant, ``ZeroVariance`` if ``a`` is.

    The five sums are taken pair by pair.  A float estimate of |r| =
    |num| / sqrt(den) is then moved one float at a time until |r| lies
    between the midpoints to its neighbours, each compared with |r|
    exactly."""
    m = len(a)
    sa = sum(a.values())
    sb = sum(b.values())
    saa = sum(v * v for v in a.values())
    sbb = sum(v * v for v in b.values())
    sab = sum(v * b[key] for key, v in a.items())
    va = m * saa - sa * sa
    vb = m * sbb - sb * sb
    if va == 0:
        raise ZeroVariance("the original's vector is constant")
    if vb == 0:
        return math.nan
    num = m * sab - sa * sb
    den = va * vb
    r = min(1.0, math.sqrt(Fraction(num * num) / den))
    while num:
        up = math.nextafter(r, math.inf)
        down = math.nextafter(r, 0.0)
        # |r| <= 1 by Cauchy-Schwarz, and 0 < |r| when num != 0.
        above = _beyond(num, den, r, up) if r < 1.0 else -1
        below = _beyond(num, den, r, down)
        if above > 0 or (above == 0 and _odd(r)):
            r = up
        elif below < 0 or (below == 0 and _odd(r)):
            r = down
        else:
            break
    return -r if num < 0 else r


def exact_r_c(original: Dendrogram, converted: Dendrogram) -> float:
    """r_c of ``converted`` against ``original``, correctly rounded, over
    the exact ``Fraction`` values of :func:`_pure_cophenetic`; NaN if the
    converted tree's heights are all equal.  Raises ``ZeroVariance`` for
    a constant original."""
    return _rounded_pearson(_pure_cophenetic(original),
                            _pure_cophenetic(converted))


def exact_r_k(original: Dendrogram, converted: Dendrogram) -> float:
    """r_k of ``converted`` against ``original``, correctly rounded, over
    the integer path lengths of :func:`_pure_kinship`; NaN if the
    converted tree's are constant.  Raises ``ZeroVariance`` for a
    constant original."""
    return _rounded_pearson(_pure_kinship(original),
                            _pure_kinship(converted))
