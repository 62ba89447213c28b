"""Independent reference computations for checking branchembed's outputs.

Nothing here calls into branchembed.  Dissimilarities, merge tables and
cophenetic values come from scipy (installed here but not a dependency of
the package), kinship from a parent-pointer walk, correlations from
``numpy.corrcoef``, Gaussian inputs and random division angles from a
re-implementation of the documented SplitMix64 stream, and the other
division axes from the method's rule applied to the leaf means.  scipy is imported lazily so that
workloads can keep it out of their timed region and their memory peak; if
it cannot be imported the check fails instead of being skipped.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Relative tolerance for values that two implementations reach through a
# different order of floating-point operations.
RTOL = 1e-9


def scipy_hierarchy():
    """scipy's clustering and distance modules; raises ImportError."""
    from scipy.cluster import hierarchy
    from scipy.spatial import distance
    return hierarchy, distance


def splitmix_words(seed: int, count: int) -> np.ndarray:
    """The first ``count`` words of the SplitMix64 stream ``seed``: word k
    (1-based) is mix64(seed + k * gamma)."""
    k = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK64) + k * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix_uniforms(seed: int, count: int) -> np.ndarray:
    """``count`` uniforms in [0, 1): the top 53 bits of each word."""
    return (splitmix_words(seed, count) >> np.uint64(11)).astype(
        np.float64) * 2.0 ** -53


def splitmix_normals(seed: int, count: int) -> np.ndarray:
    """``count`` standard normals from the SplitMix64 stream ``seed``.

    Pairs of words give Box-Muller variates, the first (shifted onto
    (0, 1]) feeding the radius.
    """
    pairs = (count + 1) // 2
    top = (splitmix_words(seed, 2 * pairs) >> np.uint64(11)).astype(
        np.float64)
    u1 = (top[0::2] + 1.0) * 2.0 ** -53
    u2 = top[1::2] * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(2.0 * np.pi * u2)
    out[1::2] = radius * np.sin(2.0 * np.pi * u2)
    return out[:count]


def dissimilarity(kind: str, x: np.ndarray) -> np.ndarray:
    """Condensed Euclidean distances or clipped ``1 - r`` via ``pdist``."""
    _, distance = scipy_hierarchy()
    if kind == "euclidean":
        return distance.pdist(x, "euclidean")
    return np.clip(distance.pdist(x, "correlation"), 0.0, 2.0)


def cluster(condensed: np.ndarray, method: str):
    """scipy merge table (n-1, 4) and its condensed cophenetic values."""
    hierarchy, _ = scipy_hierarchy()
    z = hierarchy.linkage(condensed, method)
    return z, hierarchy.cophenet(z)


def merge_rows(z: np.ndarray) -> list:
    """scipy merge table as ``(left, right, height, size)`` records with
    the smaller child id first, the form branchembed reads and writes."""
    return [(int(min(a, b)), int(max(a, b)), float(h), int(s))
            for a, b, h, s in z]


def parents(left, right, n: int) -> np.ndarray:
    """Parent id of every node of a merge table; the root's is -1."""
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    ks = np.arange(n, 2 * n - 1)
    parent[np.asarray(left, dtype=np.int64)] = ks
    parent[np.asarray(right, dtype=np.int64)] = ks
    return parent


def ancestors(left, right, n: int) -> np.ndarray:
    """(n, 2n-1) indicator: entry (i, v) is 1 when node v lies on the path
    from leaf i up to the root, leaf i itself included."""
    parent = parents(left, right, n)
    anc = np.zeros((n, 2 * n - 1), dtype=np.float32)
    rows = np.arange(n)
    node = np.arange(n)
    while rows.size:
        anc[rows, node] = 1.0
        node = parent[node]
        alive = node >= 0
        rows = rows[alive]
        node = node[alive]
    return anc


def kinship(left, right, n: int) -> np.ndarray:
    """Condensed tree path lengths between leaves, from parent pointers.

    Leaves i and j share exactly the ancestors from their lowest common
    ancestor up to the root, so the path between them has
    ``|anc(i)| + |anc(j)| - 2 |anc(i) & anc(j)|`` edges.
    """
    anc = ancestors(left, right, n)
    shared = anc @ anc.T
    count = anc.sum(axis=1)
    iu, ju = np.triu_indices(n, 1)
    return (count[iu] + count[ju] - 2.0 * shared[iu, ju]).astype(np.float64)


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.corrcoef(a, b)[0, 1])


def division_axes(strategy, left, right, height, n: int, size,
                  centre) -> np.ndarray:
    """The unit division axis of every merge record under ``strategy``.

    ``strategy`` is ``(kind, theta, swap, seed)``, the fields of the
    embedder's angle strategy; ``size`` and ``centre`` give every node's
    leaf count and point.  Splits run from the root down, so record k is
    split number n - 2 - k.  The axis is:

    * random: (cos 2 pi U, sin 2 pi U) for the next uniform U of the
      SplitMix64 stream ``seed``;
    * fixed: the direction from the cluster to its sister rotated
      counterclockwise by theta degrees, or +x at the root; with swap it
      is reversed where the left child holds more leaves;
    * even: the direction to the sister rotated by
      acos((l1 - l2) / 2L), clipped to [0, pi], where L is the distance to
      the sister and l1 = h n2 / (n1 + n2), l2 = h n1 / (n1 + n2) are the
      children's travel; +x at the root.

    A sister that coincides with its cluster gives the +x direction.
    """
    kind, theta, swap, seed = strategy
    if kind == "random":
        angle = 2.0 * np.pi * splitmix_uniforms(seed, n - 1)[::-1]
        return np.column_stack((np.cos(angle), np.sin(angle)))
    node = np.arange(n, 2 * n - 1)
    sister = np.full(2 * n - 1, 2 * n - 2)
    sister[left] = right
    sister[right] = left
    to_sister = centre[sister[node]] - centre[node]
    dist = np.hypot(*to_sister.T)
    apart = dist > 0.0
    safe = np.where(apart, dist, 1.0)
    unit = np.where(apart[:, None], to_sister / safe[:, None], [1.0, 0.0])
    n1, n2 = size[left], size[right]
    if kind == "fixed":
        turn = np.full(n - 1, np.radians(theta))
        turn[-1] = 0.0
    else:
        travel = height * (n2 - n1) / (n1 + n2)
        turn = np.where(apart, np.arccos(np.clip(travel / (2.0 * safe),
                                                 -1.0, 1.0)), 0.0)
    cos_t, sin_t = np.cos(turn), np.sin(turn)
    axis = np.column_stack((unit[:, 0] * cos_t - unit[:, 1] * sin_t,
                            unit[:, 0] * sin_t + unit[:, 1] * cos_t))
    if kind == "fixed" and swap:
        axis[n1 > n2] *= -1.0
    return axis


def embedding_problems(left, right, height, n: int, coords: np.ndarray,
                       strategy) -> list:
    """Violations of the embedder's rules, from leaf coordinates.

    A cluster's point is the mean of its leaves.  Each split moves its left
    child along the division axis of ``strategy`` (see ``division_axes``)
    and its right child the opposite way, so the left child must end up
    exactly the merge height from the right one along that axis, and the
    mean of all leaves must stay at the origin.  The ``even`` axis is
    checked to 1e-5 radians: near a clipped acos, round-off in the
    reference cluster points is amplified.
    """
    anc = ancestors(left, right, n).astype(np.float64)
    size = anc.sum(axis=0)
    centre = (anc.T @ coords) / size[:, None]
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    height = np.asarray(height, dtype=np.float64)
    offset = centre[left] - centre[right]
    gap = np.hypot(*offset.T)
    scale = float(np.abs(coords).max()) + float(height.max()) + 1.0
    problems = []
    bad = np.flatnonzero(np.abs(gap - height) > RTOL * scale)
    if bad.size:
        k = int(bad[0])
        problems.append(f"{bad.size} splits not {height[k]!r} apart, "
                        f"first at record {k}: {gap[k]!r}")
    if np.abs(centre[-1]).max() > RTOL * scale:
        problems.append(f"leaf mean {centre[-1].tolist()} is not the origin")
    axis = division_axes(strategy, left, right, height, n, size, centre)
    off = np.hypot(*(offset - height[:, None] * axis).T)
    slack = 1e-5 * height if strategy[0] == "even" else 0.0
    bad = np.flatnonzero(off > RTOL * scale + slack)
    if bad.size:
        k = int(bad[0])
        problems.append(f"{bad.size} splits off the {strategy[0]} axis, "
                        f"first at record {k}: offset {offset[k].tolist()}, "
                        f"axis {axis[k].tolist()}")
    return problems


def table_problems(z: np.ndarray, left, right, height, size,
                   what: str) -> list:
    """Differences between a scipy merge table and branchembed's: the same
    merges in the same order and heights equal up to round-off."""
    ref = merge_rows(z)
    if len(ref) != len(left):
        return [f"{what}: {len(left)} merges, scipy has {len(ref)}"]
    for k, (a, b, h, s) in enumerate(ref):
        pair = (int(min(left[k], right[k])), int(max(left[k], right[k])))
        if pair != (a, b) or int(size[k]) != s:
            return [f"{what}: merge {k} joins {pair}, scipy joins {(a, b)}"]
        if abs(float(height[k]) - h) > RTOL * max(1.0, abs(h)):
            return [f"{what}: merge {k} height {float(height[k])!r}, "
                    f"scipy {h!r}"]
    return []


def replay_problems(condensed: np.ndarray, method: str, left, right,
                    height) -> list:
    """Check a merge table as an agglomeration of ``condensed``.

    Replays the merges with the Lance-Williams update of ``method`` and
    requires each one to join a pair at the smallest current dissimilarity
    (up to round-off) and to record that dissimilarity as its height.
    Where tied pairs let implementations merge in different orders, this
    accepts any order the method allows.
    """
    _, distance = scipy_hierarchy()
    n = len(left) + 1
    dm = distance.squareform(condensed)
    if method == "ward":
        dm = dm * dm
    np.fill_diagonal(dm, np.inf)
    slot = {i: i for i in range(n)}
    size = np.ones(n)
    for k in range(n - 1):
        a, b = slot.pop(int(left[k])), slot.pop(int(right[k]))
        value = dm[a, b]
        best = dm.min()
        h = float(np.sqrt(value)) if method == "ward" else float(value)
        if value > best + RTOL * max(1.0, abs(best)):
            return [f"merge {k} joins at {value!r} while {best!r} is open"]
        if abs(float(height[k]) - h) > RTOL * max(1.0, abs(h)):
            return [f"merge {k} has height {float(height[k])!r}, "
                    f"its clusters are {h!r} apart"]
        na, nb = size[a], size[b]
        if method == "single":
            row = np.minimum(dm[a], dm[b])
        elif method == "complete":
            row = np.maximum(dm[a], dm[b])
        elif method == "average":
            row = (na * dm[a] + nb * dm[b]) / (na + nb)
        else:
            row = ((na + size) * dm[a] + (nb + size) * dm[b]
                   - size * value) / (na + nb + size)
        row[a] = row[b] = np.inf
        dm[a] = row
        dm[:, a] = row
        dm[b] = np.inf
        dm[:, b] = np.inf
        size[a] = na + nb
        slot[n + k] = a
    return []


def reference_tree(condensed: np.ndarray, method: str, tree, what: str):
    """Reference cophenetic values and topology for branchembed's ``tree``
    clustered from ``condensed``, plus the problems found.

    scipy's merge table must match ``tree`` exactly.  If the two part
    where tied pairs allowed either order, the tie decided the tree: then
    ``tree`` must replay as a valid agglomeration, and the reference is
    scipy's cophenet of ``tree``'s own merge table.
    """
    hierarchy, _ = scipy_hierarchy()
    z, coph = cluster(condensed, method)
    problems = table_problems(z, tree.left, tree.right, tree.height,
                              tree.size, what)
    if not problems:
        return coph, z[:, 0].astype(np.int64), z[:, 1].astype(np.int64), []
    replayed = replay_problems(condensed, method, tree.left, tree.right,
                               tree.height)
    if replayed:
        return coph, tree.left, tree.right, problems + [
            f"{what}: {p}" for p in replayed]
    own = np.column_stack((tree.left, tree.right, tree.height,
                           tree.size)).astype(np.float64)
    return hierarchy.cophenet(own), tree.left, tree.right, []


def close(a, b, what: str, rtol: float = RTOL) -> list:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return [f"{what}: shape {a.shape} != {b.shape}"]
    scale = max(1.0, float(np.abs(b).max()) if b.size else 1.0)
    err = np.abs(a - b)
    if err.size and float(err.max()) > rtol * scale:
        i = int(err.argmax())
        return [f"{what}: entry {i} is {a.flat[i]!r}, reference {b.flat[i]!r}"]
    return []
