"""Monte Carlo benchmark: embedding quality over random data matrices.

Each trial draws a fresh standard-normal matrix, clusters it under every
configured (dissimilarity, linkage) condition, embeds the dendrogram with
every configured angle strategy, reclusters the 2-D result under the same
condition (its dissimilarity kind on the coordinates, its linkage), and
records the cophenetic and kinship correlations.  The output table holds
per-cell means over all trials, conditions as rows and strategies as
columns.

Ward is only meaningful on Euclidean distances, so a (correlation, ward)
condition is rejected up front.  Trial t uses the data stream seeded with
``seed + t``; the random angle strategy gets an unrelated per-trial stream
so angles never correlate with data.  Cells are scored exactly as
:func:`~branchembed.evaluate_embedding` scores them, by the same
scoring function, called once per trial and condition with all of that
condition's reclustered trees.

Clustering is the hot path, so each trial makes two calls to the
stacked clusterer ``cluster._cluster_stack``, which documents its stack
budget and failure path: one clusters the trial's data under every
condition, and one, after every strategy has embedded every original
tree, reclusters all those embeddings.  A call orders its problems by
linkage method and runs the steps of :func:`~branchembed.linkage` on
equal (B, n, n) stacks filled straight from the data and coordinates,
each numpy call serving the whole stack; a correlation reclustering of
2-D points takes the closed form ``cluster._sides_tree`` instead.  The
default sweep gives one stack of 7 originals and two of 18 Euclidean
embeddings per trial, and 27 closed-form trees.  The trees
equal :func:`~branchembed.linkage`'s bit for bit.

A trial's scores are one array, NaN in each cell without a score: an
embedding, reclustering or converted tree that fails leaves its own
cell NaN, and an original tree that fails, or cannot be scored, leaves
its condition's row NaN.  So a cell fails at most once per trial and
gets at most one addition, and the sums do not depend on how problems
are stacked.  Stacks never span trials.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .cluster import _cluster_stack, check_condition
from .datasets import _check_integer, gaussian_matrix
from .embed import AngleStrategy, branching_embed
from .errors import BranchEmbedError
from .metrics import _scores

DEFAULT_CONDITIONS = (
    ("euclidean", "single"),
    ("euclidean", "complete"),
    ("euclidean", "average"),
    ("euclidean", "ward"),
    ("correlation", "single"),
    ("correlation", "complete"),
    ("correlation", "average"),
)

DEFAULT_THETAS = (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)

# Offset decorrelating per-trial angle streams from per-trial data streams.
_ANGLE_STREAM_OFFSET = 0x5851F42D4C957F2D


def default_strategies(swap: bool = True) -> tuple[AngleStrategy, ...]:
    """The standard strategy sweep: random, fixed 0..90 in 15 degree steps,
    then even.  ``swap`` applies to every fixed strategy."""
    fixed = tuple(AngleStrategy.fixed(t, swap=swap) for t in DEFAULT_THETAS)
    return (AngleStrategy.random(0),) + fixed + (AngleStrategy.even(),)


@dataclass(frozen=True)
class BenchConfig:
    trials: int = 200
    rows: int = 100
    cols: int = 5
    conditions: tuple = DEFAULT_CONDITIONS
    strategies: tuple = field(default_factory=default_strategies)
    seed: int = 0

    def __post_init__(self):
        for name in ("trials", "rows", "cols", "seed"):
            _check_integer(name, getattr(self, name))
        # A numpy integer seed would overflow in the seed arithmetic.
        object.__setattr__(self, "seed", int(self.seed))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.rows < 3:
            raise ValueError("need at least 3 rows")
        if self.cols < 1:
            raise ValueError("need at least 1 column")
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        for name in ("conditions", "strategies"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for kind, method in self.conditions:
            check_condition(kind, method)
            if kind == "correlation" and self.cols < 2:
                raise ValueError("correlation needs at least 2 columns")


@dataclass(frozen=True)
class BenchTable:
    """Mean scores per (condition, strategy) cell, plus failure counts."""

    conditions: tuple
    strategy_labels: tuple
    mean_r_c: np.ndarray
    mean_r_k: np.ndarray
    failures: np.ndarray
    trials: int

    def cell(self, kind: str, method: str, label: str, metric: str) -> float:
        """One mean by name; ``metric`` is 'r_c' or 'r_k'."""
        row = self.conditions.index((kind, method))
        col = self.strategy_labels.index(label)
        if metric == "r_c":
            return float(self.mean_r_c[row, col])
        if metric == "r_k":
            return float(self.mean_r_k[row, col])
        raise ValueError(f"unknown metric {metric!r}")

    def to_csv(self) -> str:
        out = io.StringIO()
        header = "metric,dissimilarity,linkage," + ",".join(self.strategy_labels)
        out.write(header + "\n")
        blocks = (
            ("r_c", self.mean_r_c, "{:.6f}"),
            ("r_k", self.mean_r_k, "{:.6f}"),
            ("failures", self.failures, "{:d}"),
        )
        for name, table, fmt in blocks:
            for row, (kind, method) in enumerate(self.conditions):
                cells = ",".join(fmt.format(v) for v in table[row].tolist())
                out.write(f"{name},{kind},{method},{cells}\n")
        return out.getvalue()


def _trial(cfg: BenchConfig, trial: int) -> np.ndarray:
    """Trial ``trial`` of the sweep: a ``(2, conditions, strategies)``
    array of r_c and r_k, NaN in every cell that failed.

    A trial depends on ``cfg.seed + trial`` only, so
    ``_trial(cfg, t)`` equals ``_trial(replace(cfg, seed=cfg.seed + t),
    0)`` bit for bit."""
    scores = np.full((2, len(cfg.conditions), len(cfg.strategies)), np.nan)
    data = gaussian_matrix(cfg.rows, cfg.cols, cfg.seed + trial)
    angle_seed = (cfg.seed + _ANGLE_STREAM_OFFSET + trial) & ((1 << 64) - 1)
    originals = _cluster_stack(
        [(data, kind, method) for kind, method in cfg.conditions])
    # (condition, strategy) and a reclustering problem per embedding,
    # then every embedding of the trial reclustered.
    cells, problems = [], []
    for ci, ((kind, method), original) in enumerate(
            zip(cfg.conditions, originals)):
        if isinstance(original, BranchEmbedError):
            continue
        for si, strategy in enumerate(cfg.strategies):
            if strategy.kind == "random":
                strategy = AngleStrategy.random(angle_seed + strategy.seed)
            try:
                emb = branching_embed(original, strategy)
            except BranchEmbedError:
                continue
            cells.append((ci, si))
            problems.append((emb.coords, kind, method))
    # Each condition's reclustered trees, scored in one call.
    reclustered = {}
    for (ci, si), tree in zip(cells, _cluster_stack(problems)):
        if isinstance(tree, BranchEmbedError):
            continue
        reclustered.setdefault(ci, []).append((si, tree))
    for ci, pairs in reclustered.items():
        scored, trees = zip(*pairs)
        try:
            scores[:, ci, scored] = _scores(originals[ci], trees).T
        except BranchEmbedError:
            continue
    return scores


def run_table_experiment(cfg: BenchConfig) -> BenchTable:
    """Run the full sweep and return the mean-score table.

    Each trial's :func:`_trial` scores are added in trial order, so a
    given config is exactly reproducible.  A cell that is NaN in a trial
    (degenerate correlation input, for example) gets one failure and no
    addition to its mean; a cell that never succeeds reports NaN.
    """
    sums = np.zeros((2, len(cfg.conditions), len(cfg.strategies)))
    failures = np.zeros(sums.shape[1:], dtype=np.int64)
    for trial in range(cfg.trials):
        scores = _trial(cfg, trial)
        failed = np.isnan(scores).any(0)
        np.add(sums, scores, out=sums, where=~failed)
        failures += failed
    # A cell scores or fails exactly once per trial.
    with np.errstate(invalid="ignore"):
        mean_rc, mean_rk = sums / (cfg.trials - failures)
    return BenchTable(
        conditions=cfg.conditions,
        strategy_labels=tuple(s.label() for s in cfg.strategies),
        mean_r_c=mean_rc,
        mean_r_k=mean_rk,
        failures=failures,
        trials=cfg.trials,
    )
