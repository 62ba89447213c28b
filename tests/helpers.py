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
layout; and ``percell_table``, the one-``linkage``-per-cell benchmark loop
behind ``run_table_experiment``'s stacked reclustering.
"""

import math

import numpy as np

from branchembed import (
    DISSIMILARITY_KINDS,
    LINKAGE_METHODS,
    AngleStrategy,
    BenchTable,
    Dendrogram,
    validate_dendrogram,
)
from branchembed import bench, cluster
from branchembed.cluster import _lw_combine
from branchembed.errors import BranchEmbedError
from branchembed.metrics import _Scorer, convert_dendrogram


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


def scatter_pair_matrices(d: Dendrogram, want_coph, want_kin):
    """Reference cophenetic/kinship fill: every leaf pair meets at exactly
    one merge record, so writing all cross pairs of each record's two
    child leaf sets touches each condensed slot once.  Same
    ``(coph, kin)`` return as ``dendrogram._pair_matrices``."""
    n = d.n_leaves
    m = n * (n - 1) // 2
    coph = np.empty(m) if want_coph else None
    kin = np.empty(m) if want_kin else None
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
        if want_coph:
            coph[idx] = d.height[k]
        if want_kin:
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
    against ``linkage``).  Same seeds, sums and failure counts as
    ``run_table_experiment``.  The data generator and the
    embedder are looked up on ``branchembed.bench`` at call time, so a
    test that patches them there patches both loops."""
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
                scorer = _Scorer(original)
            except BranchEmbedError:
                failures[ci, :] += 1
                continue
            for si, strategy in enumerate(cfg.strategies):
                if strategy.kind == "random":
                    strategy = AngleStrategy.random(angle_seed + strategy.seed)
                try:
                    emb = bench.branching_embed(original, strategy)
                    r_c, r_k = scorer.scores(
                        convert_dendrogram(emb, method, kind))
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
