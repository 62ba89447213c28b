"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup``, runs one pass
of a fixed round of operations in ``run_pass`` and, after the timed
region, compares what the program produced with independent computations
in ``check``.  Every pass of a run repeats the same operations on the same
inputs, so each pass's outputs must equal the first pass's and the share of
failed operations is the same in every run.

The program is reached only through module attributes looked up at call
time (``be.cluster.linkage``, not a bound ``linkage``), so the traced run's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

BENCH_DIR = Path(__file__).resolve().parent

# table: the paper's Monte Carlo shape, all conditions and strategies.
TABLE_TRIALS = 2
TABLE_ROWS = 100
TABLE_COLS = 5
# The bench decorrelates the random strategy's per-trial angle streams from
# its data streams by this documented offset.
ANGLE_STREAM_OFFSET = 0x5851F42D4C957F2D

# large: one tie-free Gaussian dataset through the whole pipeline.
LARGE_ROWS = 1000
LARGE_COLS = 5
LARGE_WARMUP_ROWS = 64
LARGE_THETA = 15.0

# cli: modest files in, CSV/JSON/SVG out.
GRID_ROWS = 120
GRID_COLS = 3
GRID_LEVELS = 10
EVAL_ROWS = 120
EVAL_COLS = 5
EVAL_METHODS = ("average", "single")
COMMENT = "# merge table written by scipy.cluster.hierarchy.linkage\n"


def _stream(seed: int, tag: int) -> int:
    """A 64-bit stream seed for one input of one workload."""
    return (seed * 0x100000001B3 + tag * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)


def _fields(strategy) -> tuple:
    """An angle strategy as the plain fields the reference checks read."""
    return strategy.kind, strategy.theta, strategy.swap, strategy.seed


def _scipy_merge_tables(x, methods) -> dict:
    """scipy's merge table of the rows of ``x`` under each method, as
    ``(n-1, 4)`` arrays with the smaller child id first.

    They are built in a short-lived child interpreter, so that scipy loads
    into the measured process only for the checks that follow the timed
    passes.  Floats cross the pipe as JSON, which keeps every bit.
    """
    code = ("import json, sys; import numpy as np; import oracle; "
            "job = json.load(sys.stdin); x = np.array(job['x']); "
            "d = oracle.dissimilarity('euclidean', x); "
            "json.dump({m: oracle.merge_rows(oracle.cluster(d, m)[0]) "
            "for m in job['methods']}, sys.stdout)")
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH_DIR, check=True,
        input=json.dumps({"x": x.tolist(), "methods": list(methods)}),
        capture_output=True, text=True, timeout=60)
    return {m: np.array(rows, dtype=np.float64)
            for m, rows in json.loads(child.stdout).items()}


@dataclass
class PassResult:
    """What one pass attempted, how much of it failed, its outputs, and
    per-kind operation times where the workload times operations."""

    attempted: int
    failed: int
    outputs: object
    times: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, be, seed: int, work_dir: Path):
        self.be = be
        self.seed = seed
        self.work_dir = work_dir
        self.first = None
        self.problems: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def keep(self, result: PassResult) -> None:
        """Hold the first pass's outputs; later passes must repeat them.
        Runs after the pass's wall time is taken."""
        outputs = self.snapshot(result)
        if self.first is None:
            self.first = outputs
        elif not self.same(self.first, outputs):
            self.problems.append("a later pass gave different outputs")

    def snapshot(self, result: PassResult):
        """What ``keep`` holds of a pass's outputs."""
        return result.outputs

    def same(self, a, b) -> bool:
        raise NotImplementedError

    def check(self) -> list:
        raise NotImplementedError


def _digest(values: np.ndarray) -> int:
    """CRC-32 of an array's bytes: zlib is loaded with numpy already, so
    this adds nothing to the process's memory."""
    return zlib.crc32(np.ascontiguousarray(values))


def _dissimilarity(be, kind: str, x):
    if kind == "euclidean":
        return be.cluster.euclidean_dissimilarity(x)
    return be.cluster.correlation_dissimilarity(x)


def _tree_reference(be, kind: str, x, method: str, what: str):
    """The program's tree on ``x`` (outside any timed region) checked
    against scipy, with its reference cophenetic values and kinship."""
    d = _dissimilarity(be, kind, x)
    ref_d = oracle.dissimilarity(kind, x)
    tree = be.cluster.linkage(d, method)
    coph, left, right, problems = oracle.reference_tree(
        ref_d, method, tree, what)
    problems = oracle.close(d.values, ref_d, f"{what} dissimilarity") + problems
    kin = oracle.kinship(left, right, tree.n_leaves)
    return tree, coph, kin, problems


def _converted_reference(be, coords, kind: str, method: str, what: str):
    """Reference cophenetic values and kinship of reclustering ``coords``.

    Correlation between 2-D rows is +1 or -1, so 1 - r is 0 for points on
    the same side of the line y = x and 2 across it; every linkage merges
    each side at 0 before joining them at 2, whatever order ties are broken
    in, so that is the reference cophenetic.  Kinship depends on the
    tie-broken order and is taken from the program's tree, once its
    cophenetic values are checked.
    """
    n = coords.shape[0]
    if kind == "euclidean":
        _, distance = oracle.scipy_hierarchy()
        tree = be.metrics.convert_dendrogram(coords, method, kind)
        coph, left, right, problems = oracle.reference_tree(
            distance.pdist(coords), method, tree, what)
        return coph, oracle.kinship(left, right, n), problems
    hierarchy, _ = oracle.scipy_hierarchy()
    side = coords[:, 0] > coords[:, 1]
    iu, ju = np.triu_indices(n, 1)
    coph = 2.0 * (side[iu] != side[ju])
    tree = be.metrics.convert_dendrogram(coords, method, kind)
    own = np.column_stack((tree.left, tree.right, tree.height,
                           tree.size)).astype(np.float64)
    problems = oracle.close(hierarchy.cophenet(own), coph,
                            f"{what} cophenetic", rtol=1e-12)
    return coph, oracle.kinship(tree.left, tree.right, n), problems


class Table(Workload):
    """``run_table_experiment`` at the paper's shape: thousands of n=100
    clusterings, embeddings and rescorings per run."""

    name = "table"

    def setup(self) -> None:
        bench = self.be.bench
        self.config = bench.BenchConfig(
            trials=TABLE_TRIALS, rows=TABLE_ROWS, cols=TABLE_COLS,
            seed=_stream(self.seed, 1))
        warm = bench.BenchConfig(trials=1, rows=12, cols=TABLE_COLS,
                                 seed=self.config.seed)
        bench.run_table_experiment(warm)

    def run_pass(self) -> PassResult:
        table = self.be.bench.run_table_experiment(self.config)
        cells = table.trials * table.mean_r_c.size
        return PassResult(cells, int(table.failures.sum()), table)

    def same(self, a, b) -> bool:
        return (np.array_equal(a.mean_r_c, b.mean_r_c, equal_nan=True)
                and np.array_equal(a.mean_r_k, b.mean_r_k, equal_nan=True)
                and np.array_equal(a.failures, b.failures))

    def check(self) -> list:
        """Recompute every cell mean of the first pass's table."""
        be, cfg, table = self.be, self.config, self.first
        problems = list(self.problems)
        n = cfg.rows
        sum_rc = np.zeros(table.mean_r_c.shape)
        sum_rk = np.zeros(table.mean_r_k.shape)
        for trial in range(cfg.trials):
            data_seed = (cfg.seed + trial) & ((1 << 64) - 1)
            x = oracle.splitmix_normals(data_seed, n * cfg.cols)
            x = x.reshape(n, cfg.cols)
            if not np.array_equal(
                    x, be.datasets.gaussian_matrix(n, cfg.cols, data_seed)):
                problems.append(f"trial {trial}: gaussian_matrix differs")
            angle_seed = (cfg.seed + ANGLE_STREAM_OFFSET + trial) & ((1 << 64) - 1)
            for ci, (kind, method) in enumerate(cfg.conditions):
                what = f"trial {trial} {kind}/{method}"
                tree, coph, kin, found = _tree_reference(
                    be, kind, x, method, what)
                problems += found
                problems += oracle.close(
                    be.dendrogram.cophenetic_matrix(tree).values, coph,
                    f"{what} cophenetic")
                problems += oracle.close(
                    be.dendrogram.kinship_matrix(tree).values, kin,
                    f"{what} kinship")
                for si, strategy in enumerate(cfg.strategies):
                    if strategy.kind == "random":
                        strategy = be.embed.AngleStrategy.random(
                            angle_seed + strategy.seed)
                    label = f"{what} {strategy.label()}"
                    coords = be.embed.branching_embed(tree, strategy).coords
                    problems += [f"{label}: {p}" for p in
                                 oracle.embedding_problems(
                                     tree.left, tree.right, tree.height, n,
                                     coords, _fields(strategy))]
                    conv_coph, conv_kin, found = _converted_reference(
                        be, coords, kind, method, f"{label} reclustered")
                    problems += found
                    sum_rc[ci, si] += oracle.pearson(coph, conv_coph)
                    sum_rk[ci, si] += oracle.pearson(kin, conv_kin)
        if table.failures.any():
            problems.append(f"{int(table.failures.sum())} failed cells")
        problems += oracle.close(table.mean_r_c, sum_rc / cfg.trials,
                                 "mean r_c", rtol=1e-8)
        problems += oracle.close(table.mean_r_k, sum_rk / cfg.trials,
                                 "mean r_k", rtol=1e-8)
        return problems


class Large(Workload):
    """One n=1000 dataset through dissimilarity, average linkage, a fixed
    15 degree embedding and its scoring: bound by linkage's cubic scan."""

    name = "large"

    def setup(self) -> None:
        be = self.be
        self.data_seed = _stream(self.seed, 2)
        self.x = be.datasets.gaussian_matrix(LARGE_ROWS, LARGE_COLS,
                                             self.data_seed)
        self.strategy = be.embed.AngleStrategy.fixed(LARGE_THETA)
        self._pipeline(self.x[:LARGE_WARMUP_ROWS])

    def _pipeline(self, x):
        be = self.be
        d = be.cluster.euclidean_dissimilarity(x)
        tree = be.cluster.linkage(d, "average")
        emb = be.embed.branching_embed(tree, self.strategy)
        report = be.metrics.evaluate_embedding(tree, emb, "average")
        return d, tree, emb, report

    def run_pass(self) -> PassResult:
        return PassResult(1, 0, self._pipeline(self.x))

    def snapshot(self, result: PassResult):
        """A digest in place of the n x n dissimilarities, so that no
        pass's peak memory holds an earlier pass's matrix."""
        d, tree, emb, report = result.outputs
        return _digest(d.values), tree, emb.coords, report

    def same(self, a, b) -> bool:
        return (a[0] == b[0] and a[1] == b[1]
                and np.array_equal(a[2], b[2]) and a[3] == b[3])

    def check(self) -> list:
        be = self.be
        digest, tree, coords, report = self.first
        problems = list(self.problems)
        n = LARGE_ROWS
        ref_x = oracle.splitmix_normals(self.data_seed, n * LARGE_COLS)
        if not np.array_equal(self.x, ref_x.reshape(n, LARGE_COLS)):
            problems.append("gaussian_matrix differs")
        d = be.cluster.euclidean_dissimilarity(self.x)
        if _digest(d.values) != digest:
            problems.append("dissimilarities differ from the timed pass's")
        ref_d = oracle.dissimilarity("euclidean", self.x)
        problems += oracle.close(d.values, ref_d, "dissimilarity")
        coph, left, right, found = oracle.reference_tree(
            ref_d, "average", tree, "tree")
        problems += found
        kin = oracle.kinship(left, right, n)
        problems += oracle.close(be.dendrogram.cophenetic_matrix(tree).values,
                                 coph, "cophenetic")
        problems += oracle.close(be.dendrogram.kinship_matrix(tree).values,
                                 kin, "kinship")
        problems += oracle.embedding_problems(tree.left, tree.right,
                                              tree.height, n, coords,
                                              _fields(self.strategy))
        conv_coph, conv_kin, found = _converted_reference(
            be, coords, "euclidean", "average", "reclustered")
        problems += found
        problems += oracle.close([report.r_c, report.r_k],
                                 [oracle.pearson(coph, conv_coph),
                                  oracle.pearson(kin, conv_kin)], "r_c, r_k")
        return problems


class Cli(Workload):
    """``branchembed embed`` and ``eval`` called in-process on files: CSV
    parsing, merge-table parsing, coordinate and SVG writing at small n.

    Half of the ``eval`` merge tables start with a ``#`` comment line.
    The README says comments are ignored, but the parser rejects them, so
    those calls exit with status 2 and count as failed operations.
    """

    name = "cli"

    def __init__(self, be, seed, work_dir):
        super().__init__(be, seed, work_dir)
        # eval scores a 2-D projection of a 5-D sample against the 5-D
        # sample's merge tables, written by an independent clusterer
        # before set-up is timed.
        rng = np.random.default_rng(_stream(seed, 4))
        self.sample = rng.standard_normal((EVAL_ROWS, EVAL_COLS))
        self.coords = self.sample[:, :2]
        self.trees = _scipy_merge_tables(self.sample, EVAL_METHODS)
        # The embed calls use the CLI's default angle strategy.
        self.strategy = be.embed.AngleStrategy.fixed(15.0)

    def _path(self, name: str) -> str:
        return str(self.work_dir / name)

    def setup(self) -> None:
        if self.work_dir.exists():
            shutil.rmtree(self.work_dir)
        self.work_dir.mkdir(parents=True)
        rng = np.random.default_rng(_stream(self.seed, 3))

        iris_csv = self.be.package_dir / "data" / "iris.csv"
        header, *rows = iris_csv.read_text().splitlines()
        rows = [rows[i] for i in rng.permutation(len(rows))]
        self._write("iris.csv", "\n".join([header] + rows) + "\n")
        self.iris = np.array([[float(v) for v in r.split(",")] for r in rows])

        self.grid = rng.integers(0, GRID_LEVELS, (GRID_ROWS, GRID_COLS))
        self._write("grid.csv", "".join(
            ",".join(str(v) for v in row) + "\n" for row in self.grid))

        self._write("coords.csv", "id,x,y\n" + "".join(
            f"{i},{x!r},{y!r}\n"
            for i, (x, y) in enumerate(self.coords.tolist())))
        for method in EVAL_METHODS:
            text = "".join(f"{a},{b},{h!r},{s}\n"
                           for a, b, h, s in oracle.merge_rows(
                               self.trees[method]))
            self._write(f"tree_{method}.txt", text)
            self._write(f"tree_{method}_commented.txt", COMMENT + text)

        self._write("warm.csv", "0,0\n1,0\n0,2\n3,3\n")
        self.argvs = self._argvs()
        self._call(["embed", "--input", self._path("warm.csv"),
                    "--out", self._path("warm_coords.csv"),
                    "--report", self._path("warm.json"),
                    "--svg", self._path("warm.svg")])

    def _write(self, name: str, text: str) -> None:
        with open(self.work_dir / name, "w", newline="") as handle:
            handle.write(text)

    def _argvs(self) -> list:
        p = self._path
        argvs = [
            ["embed", "--input", p("iris.csv"), "--has-header",
             "--label-column", "species", "--out", p("iris_coords.csv"),
             "--report", p("iris_report.json"), "--svg", p("iris.svg")],
            ["embed", "--input", p("grid.csv"), "--linkage", "single",
             "--out", p("grid_coords.csv"), "--report", p("grid_report.json"),
             "--svg", p("grid.svg")],
        ]
        for method in EVAL_METHODS:
            for tree in (f"tree_{method}", f"tree_{method}_commented"):
                argvs.append(["eval", "--coords", p("coords.csv"),
                              "--dendrogram", p(f"{tree}.txt"),
                              "--linkage", method,
                              "--report", p(f"eval_{tree}.json")])
        return argvs

    def _call(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            status = self.be.cli.main(argv)
        return status, err.getvalue()

    def run_pass(self) -> PassResult:
        statuses = []
        times = {"embed": [], "eval": []}
        for argv in self.argvs:
            start = time.perf_counter()
            status, err = self._call(argv)
            elapsed = time.perf_counter() - start
            statuses.append((status, err))
            if status == 0:
                times[argv[0]].append(elapsed)
        failed = sum(1 for status, _ in statuses if status != 0)
        return PassResult(len(self.argvs), failed, statuses, times)

    def snapshot(self, result: PassResult):
        """The exit statuses and every file the pass left."""
        return result.outputs, {path.name: path.read_bytes()
                                for path in sorted(self.work_dir.iterdir())}

    def same(self, a, b) -> bool:
        return a == b

    def _read_coords(self, name: str):
        with open(self.work_dir / name, newline="") as handle:
            rows = list(csv.reader(handle))
        ids = [int(r[0]) for r in rows[1:]]
        coords = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
        labels = [int(r[3]) for r in rows[1:]] if len(rows[0]) > 3 else None
        return ids, coords, labels

    def _read_report(self, name: str) -> dict:
        with open(self.work_dir / name) as handle:
            return json.load(handle)

    def _check_embed(self, stem: str, data, method: str, labels) -> list:
        be = self.be
        n = data.shape[0]
        ids, coords, got_labels = self._read_coords(f"{stem}_coords.csv")
        problems = []
        if ids != list(range(n)) or got_labels != labels:
            problems.append(f"{stem}: coordinate rows or labels are wrong")
        tree, coph, kin, found = _tree_reference(be, "euclidean", data,
                                                 method, stem)
        problems += found
        problems += [f"{stem}: {p}" for p in oracle.embedding_problems(
            tree.left, tree.right, tree.height, n, coords,
            _fields(self.strategy))]
        conv_coph, conv_kin, found = _converted_reference(
            be, coords, "euclidean", method, f"{stem} reclustered")
        problems += found
        if method == "single":
            # Single-linkage cophenetics do not depend on how ties break.
            problems += oracle.close(
                coph, oracle.cluster(oracle.dissimilarity("euclidean", data),
                                     "single")[1], f"{stem} cophenetic")
        report = self._read_report(f"{stem}_report.json")
        problems += oracle.close(
            [report["r_c"], report["r_k"]],
            [oracle.pearson(coph, conv_coph), oracle.pearson(kin, conv_kin)],
            f"{stem} r_c, r_k")
        if report.get("original_linkage") != method:
            problems.append(f"{stem}: report names linkage "
                            f"{report.get('original_linkage')!r}")
        svg = (self.work_dir / f"{stem}.svg").read_text()
        if svg.count("<circle ") != n or not svg.rstrip().endswith("</svg>"):
            problems.append(f"{stem}: SVG does not hold {n} points")
        return problems

    def check(self) -> list:
        statuses, _ = self.first
        problems = list(self.problems)
        for argv, (status, err) in zip(self.argvs, statuses):
            commented = any("commented" in arg for arg in argv)
            if status != 0 and not (commented and "line 1:" in err):
                problems.append(f"{' '.join(argv[:1])} exited {status}: "
                                f"{err.strip()}")
        iris_labels = self.iris[:, 4].astype(int).tolist()
        problems += self._check_embed("iris", self.iris[:, :4], "average",
                                      iris_labels)
        problems += self._check_embed("grid", self.grid.astype(float),
                                      "single", None)
        n = EVAL_ROWS
        for method in EVAL_METHODS:
            z = self.trees[method]
            hierarchy, distance = oracle.scipy_hierarchy()
            kin = oracle.kinship(z[:, 0], z[:, 1], n)
            tree = self.be.metrics.convert_dendrogram(self.coords, method)
            conv_coph, conv_left, conv_right, found = oracle.reference_tree(
                distance.pdist(self.coords), method, tree, f"eval {method}")
            problems += found
            want = [oracle.pearson(hierarchy.cophenet(z), conv_coph),
                    oracle.pearson(kin, oracle.kinship(conv_left, conv_right,
                                                       n))]
            report = self._read_report(f"eval_tree_{method}.json")
            problems += oracle.close([report["r_c"], report["r_k"]], want,
                                     f"eval {method} r_c, r_k")
            fixed = self.work_dir / f"eval_tree_{method}_commented.json"
            if fixed.exists() and fixed.read_bytes() != (
                    self.work_dir / f"eval_tree_{method}.json").read_bytes():
                problems.append(f"eval {method}: commented table scores "
                                "differently")
        return problems


WORKLOADS = {w.name: w for w in (Table, Large, Cli)}
