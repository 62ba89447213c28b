"""Tests for the benchmark harness, the SVG renderer, and the command line.

Bench runs here are deliberately tiny (a few trials on small matrices);
the full-scale sweep lives in the acceptance tests.  CLI tests call
main() in process and assert on exit codes and written artifacts.
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from branchembed import (
    DEFAULT_CONDITIONS,
    AngleStrategy,
    BenchConfig,
    BenchTable,
    branching_embed,
    default_strategies,
    dissimilarity,
    evaluate_embedding,
    euclidean_dissimilarity,
    gaussian_matrix,
    linkage,
    parse_merge_table,
    run_table_experiment,
    serialize_merge_table,
)
from branchembed import bench, cli, cluster
from branchembed.bench import _ANGLE_STREAM_OFFSET
from branchembed.cli import build_parser, main
from branchembed.embed import Embedding
from branchembed.errors import BranchEmbedError
from branchembed.svgplot import PALETTE, render_svg_scatter
from helpers import (
    fill_spy,
    overflowing_dendrogram,
    percell_table,
    pervalue_coords_csv,
    pervalue_svg_scatter,
)

TINY = dict(trials=3, rows=12, cols=4)


@pytest.fixture(scope="module")
def tiny_table():
    return run_table_experiment(BenchConfig(**TINY, seed=11))


class TestBenchConfig:
    def test_defaults(self):
        cfg = BenchConfig()
        assert cfg.trials == 200 and cfg.rows == 100 and cfg.cols == 5
        assert len(cfg.conditions) == 7
        assert len(cfg.strategies) == 9

    def test_default_strategy_labels(self):
        labels = [s.label() for s in default_strategies()]
        assert labels == ["random", "0", "15", "30", "45",
                          "60", "75", "90", "even"]

    def test_swap_flag_propagates(self):
        on = default_strategies(swap=True)
        off = default_strategies(swap=False)
        assert all(s.swap for s in on if s.kind == "fixed")
        assert not any(s.swap for s in off)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            BenchConfig(trials=0)

    def test_rejects_tiny_rows(self):
        with pytest.raises(ValueError):
            BenchConfig(rows=2)

    @pytest.mark.parametrize("field, value", [
        ("trials", 1.5), ("trials", 2.0), ("rows", 5.0), ("cols", 5.0),
        ("rows", True), ("trials", "3"),
    ])
    def test_rejects_non_integer_sizes(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            BenchConfig(**{field: value})

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "0", None])
    def test_rejects_non_integer_seed(self, value):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            BenchConfig(seed=value)

    @pytest.mark.parametrize("seed", [-1, -(1 << 70), np.int64(-5)])
    def test_negative_seed_runs(self, seed):
        cfg = BenchConfig(trials=2, rows=5, cols=2, seed=seed)
        assert run_table_experiment(cfg).to_csv() == \
            percell_table(cfg).to_csv()

    def test_numpy_integer_angle_seed(self):
        # Trial 0's angle seed is 2**63 + _ANGLE_STREAM_OFFSET + 5, beyond
        # int64, and equals the plain integer seed's.
        cfg = BenchConfig(trials=1, rows=5, cols=2, seed=2 ** 63,
                          conditions=(("euclidean", "single"),),
                          strategies=(AngleStrategy.random(5),))
        wide = replace(cfg, strategies=(AngleStrategy.random(np.int64(5)),))
        assert run_table_experiment(wide).to_csv() == \
            run_table_experiment(cfg).to_csv()

    @pytest.mark.parametrize("field", ["conditions", "strategies"])
    def test_rejects_empty_sweeps(self, field):
        with pytest.raises(ValueError, match=f"^{field} must not be empty"):
            BenchConfig(**{field: ()})

    def test_rejects_ward_on_correlation(self):
        with pytest.raises(ValueError):
            BenchConfig(conditions=(("correlation", "ward"),))

    def test_rejects_correlation_single_column(self):
        with pytest.raises(ValueError):
            BenchConfig(cols=1, conditions=(("correlation", "average"),))

    def test_rejects_unknown_condition(self):
        with pytest.raises(ValueError):
            BenchConfig(conditions=(("euclidean", "centroid"),))
        with pytest.raises(ValueError):
            BenchConfig(conditions=(("cosine", "average"),))


class TestRunTableExperiment:
    def test_shapes(self, tiny_table):
        assert tiny_table.mean_r_c.shape == (7, 9)
        assert tiny_table.mean_r_k.shape == (7, 9)
        assert tiny_table.failures.shape == (7, 9)
        assert tiny_table.trials == 3

    def test_values_in_range(self, tiny_table):
        for grid in (tiny_table.mean_r_c, tiny_table.mean_r_k):
            assert np.all(np.isfinite(grid))
            assert grid.min() >= -1.0 and grid.max() <= 1.0

    def test_no_failures_on_gaussian_data(self, tiny_table):
        assert tiny_table.failures.sum() == 0

    def test_cell_lookup(self, tiny_table):
        row = tiny_table.conditions.index(("euclidean", "ward"))
        col = tiny_table.strategy_labels.index("45")
        assert tiny_table.cell("euclidean", "ward", "45", "r_c") == \
            pytest.approx(float(tiny_table.mean_r_c[row, col]))
        with pytest.raises(ValueError):
            tiny_table.cell("euclidean", "ward", "45", "r_q")

    def test_deterministic(self, tiny_table):
        again = run_table_experiment(BenchConfig(**TINY, seed=11))
        assert again.to_csv() == tiny_table.to_csv()
        assert np.array_equal(again.mean_r_c, tiny_table.mean_r_c)

    def test_seed_matters(self, tiny_table):
        other = run_table_experiment(BenchConfig(**TINY, seed=12))
        assert not np.array_equal(other.mean_r_c, tiny_table.mean_r_c)

    def test_matches_public_evaluation_path(self):
        # every default condition and strategy, one trial: each table cell
        # must equal, bit for bit, what the evaluation API reports for the
        # same pipeline
        cfg = BenchConfig(trials=1, rows=15, cols=4, seed=77)
        table = run_table_experiment(cfg)
        assert table.conditions == DEFAULT_CONDITIONS
        data = gaussian_matrix(15, 4, 77)
        for kind, method in DEFAULT_CONDITIONS:
            original = linkage(dissimilarity(kind, data), method)
            for strat in default_strategies():
                if strat.kind == "random":
                    strat = AngleStrategy.random(
                        77 + _ANGLE_STREAM_OFFSET + strat.seed)
                rep = evaluate_embedding(
                    original, branching_embed(original, strat), method,
                    dissimilarity=kind)
                label = strat.label()
                assert table.cell(kind, method, label, "r_c") == rep.r_c
                assert table.cell(kind, method, label, "r_k") == rep.r_k

    def test_single_condition_subset(self):
        cfg = BenchConfig(trials=2, rows=10, cols=3,
                          conditions=(("correlation", "average"),),
                          strategies=(AngleStrategy.even(),), seed=5)
        table = run_table_experiment(cfg)
        assert table.mean_r_c.shape == (1, 1)
        assert math.isfinite(table.cell("correlation", "average",
                                        "even", "r_c"))


def _trial_originals(cfg, trial):
    """The original tree of every condition of one trial."""
    data = gaussian_matrix(cfg.rows, cfg.cols, cfg.seed + trial)
    return [linkage(dissimilarity(kind, data), method)
            for kind, method in cfg.conditions]


def _patch_embed(monkeypatch, targets, label, change):
    """Make ``bench.branching_embed`` hand its embedding to ``change``
    for the strategy labelled ``label`` on the trees in ``targets``."""
    real = bench.branching_embed

    def patched(original, strategy):
        emb = real(original, strategy)
        if strategy.label() == label and any(original == t for t in targets):
            return change(emb)
        return emb

    monkeypatch.setattr(bench, "branching_embed", patched)


def _assert_percell(table, cfg):
    """``table`` equals ``helpers.percell_table(cfg)``: its CSV, and its
    means and failure counts at full precision."""
    ref = percell_table(cfg)
    assert table.to_csv() == ref.to_csv()
    assert np.array_equal(table.mean_r_c, ref.mean_r_c, equal_nan=True)
    assert np.array_equal(table.mean_r_k, ref.mean_r_k, equal_nan=True)
    assert np.array_equal(table.failures, ref.failures)


class TestTableFailures:
    """``run_table_experiment`` reclusters each (trial, condition) as one
    stack; its table, failure counts included, equals the
    one-``linkage``-per-cell loop of ``helpers.percell_table``."""

    @pytest.mark.parametrize("kw", [
        dict(trials=1, rows=3, cols=2, seed=0),
        dict(trials=2, rows=17, cols=4, seed=3,
             strategies=default_strategies(swap=False)),
        dict(trials=3, rows=40, cols=5, seed=8,
             conditions=(("euclidean", "ward"), ("correlation", "single"))),
        dict(trials=2, rows=9, cols=3, seed=21,
             conditions=(("correlation", "average"),
                         ("euclidean", "complete")),
             strategies=default_strategies(swap=False)),
    ])
    def test_csv_equals_percell(self, kw):
        cfg = BenchConfig(**kw)
        _assert_percell(run_table_experiment(cfg), cfg)

    def test_embed_failure_lands_in_its_cells(self, monkeypatch):
        cfg = BenchConfig(trials=3, rows=14, cols=4, seed=5)

        def fail(emb):
            raise BranchEmbedError("injected")

        _patch_embed(monkeypatch, _trial_originals(cfg, 1), "30", fail)
        table = run_table_experiment(cfg)
        expected = np.zeros((7, 9), dtype=np.int64)
        expected[:, table.strategy_labels.index("30")] = 1
        assert np.array_equal(table.failures, expected)
        _assert_percell(table, cfg)

    def test_embed_overflow_lands_in_its_cells(self, monkeypatch):
        # The embedder's own overflow error, from a tree whose heights
        # near the float64 maximum make its coordinates overflow.
        cfg = BenchConfig(trials=3, rows=14, cols=4, seed=5)
        tree = overflowing_dendrogram()

        def overflow(emb):
            return branching_embed(tree, AngleStrategy.even())

        _patch_embed(monkeypatch, _trial_originals(cfg, 1), "even", overflow)
        table = run_table_experiment(cfg)
        expected = np.zeros((7, 9), dtype=np.int64)
        expected[:, table.strategy_labels.index("even")] = 1
        assert np.array_equal(table.failures, expected)
        _assert_percell(table, cfg)

    def test_failed_original_fails_its_row(self, monkeypatch):
        cfg = BenchConfig(trials=2, rows=12, cols=3, seed=9)
        real = bench.gaussian_matrix

        def constant_row(rows, cols, seed):
            # A constant row has no correlation with anything.
            x = real(rows, cols, seed)
            if seed == cfg.seed + 1:
                x[4] = 1.0
            return x

        monkeypatch.setattr(bench, "gaussian_matrix", constant_row)
        table = run_table_experiment(cfg)
        expected = np.zeros((7, 9), dtype=np.int64)
        expected[[kind == "correlation" for kind, _ in cfg.conditions]] = 1
        assert np.array_equal(table.failures, expected)
        _assert_percell(table, cfg)

    def test_unscorable_original_fails_each_cell_once(self, monkeypatch):
        # Trial 1's rows are all equal, so every original tree merges at
        # height 0 only and its cophenetic vector cannot be correlated.
        # That is known only once its embeddings are reclustered; the
        # "30" embedding of the same trees fails first, and its cells
        # still get one failure, not two.
        cfg = BenchConfig(trials=3, rows=10, cols=3, seed=4,
                          conditions=DEFAULT_CONDITIONS[:4])
        real = bench.gaussian_matrix

        def equal_rows(rows, cols, seed):
            x = real(rows, cols, seed)
            if seed == cfg.seed + 1:
                x[:] = x[0]
            return x

        def fail(emb):
            raise BranchEmbedError("injected")

        monkeypatch.setattr(bench, "gaussian_matrix", equal_rows)
        flat = equal_rows(cfg.rows, cfg.cols, cfg.seed + 1)
        targets = [linkage(euclidean_dissimilarity(flat), method)
                   for _, method in cfg.conditions]
        assert all(not t.height.any() for t in targets)
        _patch_embed(monkeypatch, targets, "30", fail)
        table = run_table_experiment(cfg)
        assert np.array_equal(table.failures, np.ones((4, 9), dtype=np.int64))
        _assert_percell(table, cfg)

    def test_stacked_linkage_failure_lands_in_its_cell(self, monkeypatch):
        # One ward embedding, scaled so its largest squared distance is
        # about 1e308: the Euclidean fill stays finite, ward's update
        # overflows, and the other eight problems of its stack go on.
        cfg = BenchConfig(trials=2, rows=20, cols=3, seed=2,
                          conditions=(("euclidean", "single"),
                                      ("euclidean", "ward"),
                                      ("euclidean", "average")))

        def huge(emb):
            top = euclidean_dissimilarity(emb.coords).values.max()
            return Embedding(emb.coords * (1e154 / top))

        ward_tree = _trial_originals(cfg, 0)[1]
        _patch_embed(monkeypatch, [ward_tree], "even", huge)
        table = run_table_experiment(cfg)
        expected = np.zeros((3, 9), dtype=np.int64)
        expected[1, table.strategy_labels.index("even")] = 1
        assert np.array_equal(table.failures, expected)
        _assert_percell(table, cfg)


class TestTrial:
    """``bench._trial``: one trial's r_c and r_k, NaN in each failed
    cell."""

    def test_reruns_alone(self):
        # At n=3 many cells fail: the rerun of trial t as trial 0 of the
        # seed seed + t must give the same bits, NaN cells included.
        cfg = BenchConfig(trials=4, rows=3, cols=2, seed=5)
        runs = [bench._trial(cfg, t) for t in range(cfg.trials)]
        assert all(r.shape == (2, 7, 9) for r in runs)
        failed = sum(np.isnan(r).any(0) for r in runs)
        assert failed.any() and not failed.all()
        for t, got in enumerate(runs):
            alone = bench._trial(replace(cfg, seed=cfg.seed + t), 0)
            assert got.tobytes() == alone.tobytes()
        assert np.array_equal(run_table_experiment(cfg).failures, failed)


class TestMethodStacks:
    """Each trial clusters its originals in one stack and reclusters all
    its embeddings in equal stacks ordered by linkage method, and the
    table still equals ``helpers.percell_table``."""

    @staticmethod
    def _stack_sizes(monkeypatch):
        """Route ``cluster._stacked_linkage`` through a wrapper; returns
        the list of stack sizes it was called with."""
        sizes = []
        real = cluster._stacked_linkage

        def spy(dm, methods):
            sizes.append(len(dm))
            return real(dm, methods)

        monkeypatch.setattr(cluster, "_stacked_linkage", spy)
        return sizes

    def test_one_stack_per_method(self, monkeypatch):
        sizes = self._stack_sizes(monkeypatch)
        table = run_table_experiment(BenchConfig(trials=1))
        # The 7 originals, then the 36 Euclidean embeddings in two stacks
        # of 18; the 27 correlation reclusterings take the closed form.
        assert sizes == [7, 18, 18]
        assert not table.failures.any()

    def test_one_fill_per_kind(self, monkeypatch):
        calls = fill_spy(monkeypatch)
        cfg = BenchConfig(trials=1)
        table = run_table_experiment(cfg)
        assert sorted(calls) == ["correlation", "euclidean"]
        assert table.to_csv() == percell_table(cfg).to_csv()

    def test_default_budget_holds_a_method_group(self):
        assert cluster._STACK_BYTES // (8 * 100 * 100) >= 21

    @pytest.mark.parametrize("conditions", [
        (("correlation", "single"), ("euclidean", "single")),
        (("euclidean", "ward"), ("correlation", "average"),
         ("euclidean", "single"), ("euclidean", "average"),
         ("correlation", "single")),
    ])
    def test_reordered_conditions_equal_percell(self, conditions):
        cfg = BenchConfig(trials=2, rows=15, cols=4, seed=13,
                          conditions=conditions)
        assert run_table_experiment(cfg).to_csv() == \
            percell_table(cfg).to_csv()

    def test_constant_row_fails_only_correlation_cells(self, monkeypatch):
        cfg = BenchConfig(trials=2, rows=12, cols=3, seed=9)
        real = bench.gaussian_matrix

        def constant_row(rows, cols, seed):
            x = real(rows, cols, seed)
            if seed == cfg.seed + 1:
                x[4] = 1.0
            return x

        monkeypatch.setattr(bench, "gaussian_matrix", constant_row)
        sizes = self._stack_sizes(monkeypatch)
        table = run_table_experiment(cfg)
        # A trial's 36 Euclidean embeddings fit in one stack at n=12, and
        # its 27 correlation reclusterings take the closed form.  Trial
        # 1's correlation originals fail, so its originals' stack reruns
        # one problem at a time.
        assert sizes == [7, 36, 36]
        expected = np.zeros((7, 9), dtype=np.int64)
        expected[[kind == "correlation" for kind, _ in cfg.conditions]] = 1
        assert np.array_equal(table.failures, expected)
        assert table.to_csv() == percell_table(cfg).to_csv()


class TestBenchCsv:
    def test_layout(self, tiny_table):
        lines = tiny_table.to_csv().splitlines()
        assert lines[0] == ("metric,dissimilarity,linkage,"
                            "random,0,15,30,45,60,75,90,even")
        assert len(lines) == 1 + 3 * 7
        assert lines[1].startswith("r_c,euclidean,single,")
        assert lines[8].startswith("r_k,euclidean,single,")
        assert lines[15].startswith("failures,euclidean,single,")

    def test_values_round_trip(self, tiny_table):
        lines = tiny_table.to_csv().splitlines()
        got = [float(v) for v in lines[1].split(",")[3:]]
        assert got == pytest.approx(tiny_table.mean_r_c[0], abs=5e-7)

    def test_failures_are_integers(self, tiny_table):
        lines = tiny_table.to_csv().splitlines()
        for line in lines[15:]:
            for cell in line.split(",")[3:]:
                assert cell == str(int(cell))


class TestSvg:
    def test_basic_document(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        svg = render_svg_scatter(coords)
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle ") == 3
        assert f'fill="{PALETTE[0]}"' in svg

    def test_labels_pick_palette_colors(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        svg = render_svg_scatter(coords, labels=np.array([0, 1, 12]))
        assert f'fill="{PALETTE[1]}"' in svg
        assert f'fill="{PALETTE[2]}"' in svg  # 12 mod 10

    def test_equal_aspect(self):
        # a wide point cloud still renders in a square viewport
        coords = np.array([[0.0, 0.0], [10.0, 1.0]])
        svg = render_svg_scatter(coords, size=100)
        assert 'width="100" height="100"' in svg

    def test_degenerate_cloud(self):
        svg = render_svg_scatter(np.array([[2.0, 2.0], [2.0, 2.0]]))
        assert svg.count("<circle ") == 2

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            render_svg_scatter(np.zeros((3, 2)), labels=np.array([1]))

    @pytest.mark.parametrize("shape", [(3, 3), (3,), (0, 2)])
    def test_coordinate_shape_checked(self, shape):
        with pytest.raises(ValueError,
                           match=r"^expected \(n, 2\) coordinates"):
            render_svg_scatter(np.zeros(shape))

    @pytest.mark.parametrize("pts, unit", [
        ([[0.0, 0.0], [5e-324, 0.0]], [[0.0, 0.0], [1.0, 0.0]]),
        ([[-1e308, 0.0], [1e308, 0.0]], [[-1.0, 0.0], [1.0, 0.0]]),
    ], ids=["subnormal-span", "overflowing-span"])
    def test_extreme_spans_are_placed(self, pts, unit):
        # Without a power-of-two factor, size / side overflows for the
        # first cloud and the span itself for the second: both would be
        # drawn at nan and inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            svg = render_svg_scatter(np.array(pts))
        assert "nan" not in svg and "inf" not in svg
        assert svg == render_svg_scatter(np.array(unit))
        assert 'cx="29.09" cy="320.00"' in svg
        assert 'cx="610.91" cy="320.00"' in svg

    @pytest.mark.parametrize("k", [-1074, -1030, 1021, 1022])
    def test_power_of_two_scaling_keeps_the_bytes(self, k):
        # Spans from 2**-1072 (subnormal) to 2**1025 (overflowing).
        pts = np.array([[-2.0, 1.0], [2.0, 0.0], [1.0, -1.0], [0.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for size in (640, 10 ** 15):
                assert render_svg_scatter(np.ldexp(pts, k), size=size) == \
                    render_svg_scatter(pts, size=size)

    def test_too_wide_a_range_rejected(self):
        # A span of 1e-320 beside a point at 1: no power of two brings
        # both into float64's range.
        with pytest.raises(ValueError, match="orders of magnitude$"):
            render_svg_scatter(np.array([[1.0, 0.0], [1.0, 1e-320]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        # One bad point would otherwise turn every point's position into
        # nan, the finite ones included.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for at in ((0, 0), (1, 1)):
                coords = np.array([[0.5, 0.0], [1.0, 1.0]])
                coords[at] = bad
                with pytest.raises(ValueError,
                                   match="^coordinates must be finite$"):
                    render_svg_scatter(coords)


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(12, 3))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join(f"{v}" for v in row)
                              for row in pts) + "\n")
    return path


@pytest.fixture
def table_csv(tmp_path):
    path = tmp_path / "tree.csv"
    path.write_text("0,1,1.0,2\n2,3,1.5,2\n4,5,4.0,4\n")
    return path


class TestCliEmbed:
    def test_embed_from_data(self, data_csv, tmp_path, capsys):
        out = tmp_path / "coords.csv"
        report = tmp_path / "report.json"
        svg = tmp_path / "plot.svg"
        code = main(["embed", "--input", str(data_csv),
                     "--out", str(out), "--report", str(report),
                     "--svg", str(svg)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,x,y"
        assert len(lines) == 13
        rep = json.loads(report.read_text())
        assert rep["original_linkage"] == "average"
        assert rep["converted_linkage"] == "average"
        assert rep["dissimilarity"] == "euclidean"
        assert rep["strategy"] == "fixed" and rep["theta"] == 15.0
        assert -1.0 <= rep["r_c"] <= 1.0
        assert svg.read_text().startswith("<svg ")

    def test_embed_from_merge_table(self, table_csv, tmp_path):
        out = tmp_path / "coords.csv"
        code = main(["embed", "--dendrogram", str(table_csv),
                     "--strategy", "even", "--out", str(out)])
        assert code == 0
        coords = np.array([[float(f) for f in line.split(",")[1:3]]
                           for line in out.read_text().splitlines()[1:]])
        d = parse_merge_table(table_csv.read_text())
        expected = branching_embed(d, AngleStrategy.even()).coords
        assert coords == pytest.approx(np.asarray(expected), abs=1e-12)

    def test_embed_overflowing_tree(self, tmp_path, capsys):
        # A valid merge table whose embedding overflows float64 under
        # every strategy exits 2 and writes no coordinates.
        tree = tmp_path / "tree.csv"
        tree.write_text(serialize_merge_table(overflowing_dendrogram()))
        out = tmp_path / "coords.csv"
        for strategy in ("fixed", "even", "random"):
            code = main(["embed", "--dendrogram", str(tree),
                         "--strategy", strategy, "--out", str(out)])
            assert code == 2, strategy
            assert capsys.readouterr().err == (
                "error: embedding coordinates overflow float64\n"), strategy
            assert not out.exists(), strategy

    def test_embed_deterministic_rerun(self, data_csv, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["embed", "--input", str(data_csv),
                         "--strategy", "random", "--seed", "4",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_embed_correlation_metric_report(self, data_csv, tmp_path):
        out = tmp_path / "c.csv"
        report = tmp_path / "r.json"
        code = main(["embed", "--input", str(data_csv),
                     "--metric", "correlation", "--linkage", "complete",
                     "--out", str(out), "--report", str(report)])
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["dissimilarity"] == "correlation"
        assert rep["original_linkage"] == "complete"

    def test_embed_labels_flow_to_coords_and_svg(self, tmp_path):
        src = tmp_path / "labeled.csv"
        src.write_text("x,y,cls\n0,0,0\n1,0,0\n0,1,1\n5,5,1\n")
        out = tmp_path / "coords.csv"
        svg = tmp_path / "plot.svg"
        code = main(["embed", "--input", str(src), "--has-header",
                     "--label-column", "cls", "--out", str(out),
                     "--svg", str(svg)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,x,y,label"
        assert [line.split(",")[3] for line in lines[1:]] == \
            ["0", "0", "1", "1"]
        assert f'fill="{PALETTE[1]}"' in svg.read_text()

    def test_embed_rescale_and_label_index(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("0,0,0\n10,2,0\n5,1,1\n2,2,1\n")
        out = tmp_path / "coords.csv"
        code = main(["embed", "--input", str(src), "--label-column", "2",
                     "--rescale", "--out", str(out)])
        assert code == 0

    def test_embed_rescale_huge_span(self, tmp_path):
        # The first column's span, 2e308, overflows float64.
        src = tmp_path / "wide.csv"
        src.write_text("a,b\n1e308,1\n-1e308,2\n0,3\n")
        out = tmp_path / "coords.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["embed", "--input", str(src), "--has-header",
                         "--rescale", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_embed_rescale_non_finite(self, tmp_path, capsys):
        src = tmp_path / "inf.csv"
        src.write_text("a,b\n1,2\ninf,3\n0,4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["embed", "--input", str(src), "--has-header",
                         "--rescale", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: data matrix must be finite\n"

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["embed", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "nope.csv" in err

    def test_non_integer_label(self, tmp_path, capsys):
        src = tmp_path / "l.csv"
        src.write_text("0,0,0\n1,0,inf\n0,1,1\n")
        out = tmp_path / "o.csv"
        code = main(["embed", "--input", str(src), "--label-column", "2",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 2: field 2: label must be an integer: 'inf'\n")
        assert not out.exists()

    def test_infinite_merge_height(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        src.write_text("0,1,1,2\n3,2,inf,3\n")
        out = tmp_path / "o.csv"
        svg = tmp_path / "p.svg"
        code = main(["embed", "--dendrogram", str(src), "--out", str(out),
                     "--svg", str(svg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "infinite" in err
        assert not out.exists() and not svg.exists()

    def test_bad_theta(self, data_csv, tmp_path, capsys):
        code = main(["embed", "--input", str(data_csv), "--theta", "120",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--linkage", "--converted-linkage"])
    def test_rejects_ward_on_correlation(self, data_csv, tmp_path, capsys,
                                         flag):
        out = tmp_path / "o.csv"
        code = main(["embed", "--input", str(data_csv),
                     "--metric", "correlation", flag, "ward",
                     "--out", str(out), "--report", str(tmp_path / "r.json")])
        assert code == 2
        with pytest.raises(ValueError) as bench_err:
            BenchConfig(conditions=(("correlation", "ward"),))
        assert capsys.readouterr().err == f"error: {bench_err.value}\n"
        assert not out.exists()

    def test_input_and_dendrogram_exclusive(self, data_csv, table_csv,
                                            tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["embed", "--input", str(data_csv),
                  "--dendrogram", str(table_csv),
                  "--out", str(tmp_path / "o.csv")])

    def test_out_required(self, data_csv, capsys):
        with pytest.raises(SystemExit):
            main(["embed", "--input", str(data_csv)])


class TestCliEval:
    def test_round_trip(self, data_csv, tmp_path, capsys):
        coords = tmp_path / "coords.csv"
        tree = tmp_path / "tree.csv"
        assert main(["embed", "--input", str(data_csv), "--out", str(coords),
                     "--theta", "45"]) == 0
        # rebuild the original tree the same way the embed command did
        from branchembed import load_csv
        data = load_csv(data_csv).data
        d = linkage(euclidean_dissimilarity(data), "average")
        from branchembed import serialize_merge_table
        tree.write_text(serialize_merge_table(d))
        code = main(["eval", "--coords", str(coords),
                     "--dendrogram", str(tree)])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["converted_linkage"] == "average"
        assert -1.0 <= rep["r_c"] <= 1.0
        emb = branching_embed(d, AngleStrategy.fixed(45.0))
        direct = evaluate_embedding(d, emb, "average")
        assert rep["r_c"] == pytest.approx(direct.r_c, abs=1e-12)
        assert rep["r_k"] == pytest.approx(direct.r_k, abs=1e-12)

    def test_report_to_file(self, table_csv, tmp_path):
        coords = tmp_path / "coords.csv"
        report = tmp_path / "rep.json"
        assert main(["embed", "--dendrogram", str(table_csv),
                     "--out", str(coords)]) == 0
        code = main(["eval", "--coords", str(coords),
                     "--dendrogram", str(table_csv), "--linkage", "single",
                     "--report", str(report)])
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["converted_linkage"] == "single"

    def test_leaf_count_mismatch(self, table_csv, tmp_path, capsys):
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y\n0,0.0,0.0\n1,1.0,0.0\n")
        code = main(["eval", "--coords", str(coords),
                     "--dendrogram", str(table_csv)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_coords_file_without_rows(self, table_csv, tmp_path, capsys):
        coords = tmp_path / "coords.csv"
        coords.write_text("\n\n")
        code = main(["eval", "--coords", str(coords),
                     "--dendrogram", str(table_csv)])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: line 1: no coordinate rows in {coords}\n"

    def test_bad_coords_ids(self, table_csv, tmp_path, capsys):
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y\n0,0.0,0.0\n0,1.0,0.0\n")
        code = main(["eval", "--coords", str(coords),
                     "--dendrogram", str(table_csv)])
        assert code == 2

    @pytest.mark.parametrize("text, line", [
        ("id,x,y\n\n0,1,2\n1,x,3\n", 4),
        ("\n\nid,x,y\n0,1,2\n\n1,2\n", 6),
        ("\n0,1,2\n\n0,2,3\n", 2),
    ])
    def test_coords_errors_name_file_lines(self, table_csv, tmp_path,
                                           capsys, text, line):
        # Blank lines count: the error names the line as the file has it.
        coords = tmp_path / "coords.csv"
        coords.write_text(text)
        code = main(["eval", "--coords", str(coords),
                     "--dendrogram", str(table_csv)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")

    def test_heights_near_overflow(self, tmp_path, capsys):
        # The cophenetic sum overflows; the report still holds the r_c of
        # the same tree at heights scaled by 1e-308.
        def merge_table(heights):
            return "0,1,{!r},2\n2,3,{!r},2\n4,5,{!r},4\n".format(*heights)

        heights = (1e308, 1.2e308, 1.7e308)
        tree = tmp_path / "tree.csv"
        tree.write_text(merge_table(heights))
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y\n0,0,0\n1,1,0\n2,5,0\n3,6,0\n")
        code = main(["eval", "--coords", str(coords),
                     "--dendrogram", str(tree), "--linkage", "single"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        scaled = parse_merge_table(merge_table(h * 1e-308 for h in heights))
        ref = evaluate_embedding(scaled, np.array(
            [[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]]), "single")
        assert rep["r_c"] == pytest.approx(ref.r_c, rel=0, abs=1e-12)
        assert rep["r_c"] == pytest.approx(0.979796, abs=1e-6)


class TestCliBench:
    def test_tiny_run(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["bench", "--trials", "2", "--rows", "10",
                     "--cols", "3", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 7
        assert lines[0].startswith("metric,dissimilarity,linkage,")

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["bench", "--trials", "2", "--rows", "10",
                         "--cols", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_swap_changes_fixed_columns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["bench", "--trials", "2", "--rows", "10", "--cols",
                     "3", "--out", str(a)]) == 0
        assert main(["bench", "--trials", "2", "--rows", "10", "--cols",
                     "3", "--no-swap", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_trials(self, tmp_path, capsys):
        code = main(["bench", "--trials", "0",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, capsys):
        code = main(["bench", "--trials", "1", "--rows", "10", "--cols",
                     "3", "--out", str(tmp_path / "missing" / "t.csv")])
        assert code == 2


def _awkward_coords(seed, n=60):
    """Random coordinates over many magnitudes, with -0.0, subnormal and
    +-1e300 values among them."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-8, 9, (n, 2))
    pts.flat[:6] = [-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.0]
    return pts[rng.permutation(n)]


class TestCliInProcess:
    """``main`` called repeatedly in one process: one parser, no state
    carried from one call to the next."""

    @pytest.fixture
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_one_parser_per_process(self, fresh_parser, monkeypatch,
                                    data_csv, table_csv, tmp_path):
        built = []

        def spy():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", spy)
        coords = tmp_path / "coords.csv"
        assert main(["embed", "--dendrogram", str(table_csv),
                     "--out", str(coords)]) == 0
        assert main(["eval", "--coords", str(coords), "--dendrogram",
                     str(table_csv), "--report",
                     str(tmp_path / "r.json")]) == 0
        assert built == [1]

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_no_state_leaks_between_calls(self, fresh_parser, table_csv,
                                          tmp_path):
        inputs = tmp_path / "in"
        inputs.mkdir()
        labeled = inputs / "labeled.csv"
        rng = np.random.default_rng(3)
        labeled.write_text("".join(
            f"{x!r},{y!r},{k}\n" for (x, y), k in
            zip(rng.normal(size=(10, 2)).tolist(), [0, 1] * 5)))
        plain = inputs / "plain.csv"
        plain.write_text("".join(f"{x!r},{y!r}\n" for x, y
                                 in rng.normal(size=(8, 2)).tolist()))
        coords = inputs / "coords.csv"
        coords.write_text("id,x,y\n0,0,0\n1,1,0\n2,5,5\n3,6,5\n")

        def calls(out):
            return [
                ["embed"],
                ["embed", "--input", str(labeled), "--label-column", "2",
                 "--no-swap", "--theta", "30", "--out", str(out / "a.csv"),
                 "--report", str(out / "a.json"), "--svg",
                 str(out / "a.svg")],
                ["embed", "--input", str(plain), "--out", str(out / "b.csv"),
                 "--svg", str(out / "b.svg")],
                ["embed", "--input", str(plain), "--strategy", "even",
                 "--out", str(out / "c.csv")],
                ["eval", "--coords", str(coords), "--dendrogram",
                 str(table_csv), "--report", str(out / "e.json")],
            ]

        def run(argvs):
            for argv in argvs:
                if argv == ["embed"]:
                    with pytest.raises(SystemExit) as exc:
                        main(argv)
                    assert exc.value.code == 2
                else:
                    assert main(argv) == 0

        written = []
        for name, order in (("forward", 1), ("reverse", -1)):
            out = tmp_path / name
            out.mkdir()
            run(calls(out)[::order])
            written.append({path.name: path.read_bytes()
                            for path in sorted(out.iterdir())})
        assert sorted(written[0]) == ["a.csv", "a.json", "a.svg", "b.csv",
                                      "b.svg", "c.csv", "e.json"]
        assert written[0] == written[1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("labeled", [False, True])
    def test_writers_equal_per_value_writers(self, seed, labeled):
        pts = _awkward_coords(seed)
        labels = (np.random.default_rng(seed).integers(-25, 25, len(pts))
                  if labeled else None)
        assert cli._coords_csv(pts, labels) == \
            pervalue_coords_csv(pts, labels)
        # Without the +-1e300 points the others spread over the plot; on
        # a 1e15-wide plot two decimals show every bit of each position.
        for sub in (pts, pts[np.abs(pts).max(axis=1) < 1e200]):
            sub_labels = None if labels is None else labels[:len(sub)]
            for size in (640, 10 ** 15):
                assert render_svg_scatter(sub, sub_labels, size) == \
                    pervalue_svg_scatter(sub, sub_labels, size)
