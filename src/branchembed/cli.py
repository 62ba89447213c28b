"""Command line interface.

Three subcommands cover the whole pipeline:

* ``embed``  - data CSV or merge table in, coordinates CSV out (plus
  optional JSON score report and SVG scatter);
* ``eval``   - score an existing coordinates CSV against a merge table;
* ``bench``  - the Monte Carlo strategy-comparison table as CSV.

All randomness is seeded (``--seed``, default 0) and output files are
written deterministically, so rerunning a command with the same flags
reproduces identical bytes.  Errors exit with status 2 and a one-line
message on stderr naming the offending input.

:func:`main` takes an argument list, so it may be called repeatedly in
one process; the calls share one parser, built on the first call, and
leave no state behind (:func:`build_parser` returns a new parser on
every call).  Sharing the parser saves its build only on calls after
the first; :func:`entrypoint` runs one call per process.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .bench import BenchConfig, default_strategies, run_table_experiment
from .cluster import (
    DISSIMILARITY_KINDS,
    LINKAGE_METHODS,
    _cluster_data,
    check_condition,
)
from .datasets import load_csv, rescale_minmax
from .dendrogram import parse_merge_table
from .embed import AngleStrategy, branching_embed
from .errors import BranchEmbedError, ParseError
from .metrics import evaluate_embedding
from .svgplot import render_svg_scatter


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _read_text(path: str) -> str:
    with open(path, "r") as handle:
        return handle.read()


def _strategy_from_args(args) -> AngleStrategy:
    if args.strategy == "random":
        return AngleStrategy.random(args.seed)
    if args.strategy == "fixed":
        return AngleStrategy.fixed(args.theta, swap=args.swap)
    return AngleStrategy.even()


def _coords_csv(coords: np.ndarray, labels) -> str:
    points = coords.tolist()
    if labels is None:
        lines = ["id,x,y"] + [f"{i},{x:.17g},{y:.17g}"
                              for i, (x, y) in enumerate(points)]
    else:
        lines = ["id,x,y,label"] + [
            f"{i},{x:.17g},{y:.17g},{label}"
            for i, ((x, y), label) in enumerate(zip(points, labels.tolist()))]
    return "\n".join(lines) + "\n"


def _parse_coords_csv(text: str, origin: str) -> np.ndarray:
    lines = [(lineno, line) for lineno, line
             in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ParseError(1, f"no coordinate rows in {origin}")
    head = [cell.strip().lower() for cell in lines[0][1].split(",")]
    if head[:3] == ["id", "x", "y"]:
        lines = lines[1:]
    rows = []
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) < 3:
            raise ParseError(lineno, "expected at least id,x,y")
        try:
            rows.append((int(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    ids = sorted(r[0] for r in rows)
    if ids != list(range(len(rows))):
        raise ParseError(lines[0][0], f"ids must cover 0..{len(rows) - 1}")
    coords = np.empty((len(rows), 2))
    for i, x, y in rows:
        coords[i] = (x, y)
    return coords


def _cmd_embed(args) -> int:
    labels = None
    kind = None
    original_method = None
    if args.dendrogram is not None:
        original = parse_merge_table(_read_text(args.dendrogram))
    else:
        for method in (args.linkage, args.converted_linkage):
            if method is not None:
                check_condition(args.metric, method)
        loaded = load_csv(args.input, has_header=args.has_header,
                          label_column=args.label_column)
        data = rescale_minmax(loaded.data) if args.rescale else loaded.data
        labels = loaded.labels
        kind = args.metric
        original_method = args.linkage
        original = _cluster_data(data, kind, args.linkage)

    strategy = _strategy_from_args(args)
    emb = branching_embed(original, strategy)
    _write_text(args.out, _coords_csv(emb.coords, labels))
    if args.report is not None:
        report = evaluate_embedding(
            original, emb, args.converted_linkage or args.linkage,
            original_method=original_method,
            dissimilarity=kind,
            strategy=strategy,
        )
        _write_text(args.report, report.to_json())
    if args.svg is not None:
        _write_text(args.svg, render_svg_scatter(emb, labels))
    return 0


def _cmd_eval(args) -> int:
    original = parse_merge_table(_read_text(args.dendrogram))
    coords = _parse_coords_csv(_read_text(args.coords), args.coords)
    report = evaluate_embedding(original, coords, args.linkage)
    text = report.to_json()
    if args.report is not None:
        _write_text(args.report, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args) -> int:
    cfg = BenchConfig(
        trials=args.trials,
        rows=args.rows,
        cols=args.cols,
        strategies=default_strategies(swap=args.swap),
        seed=args.seed,
    )
    table = run_table_experiment(cfg)
    _write_text(args.out, table.to_csv())
    return 0


def _label_column(value: str):
    return int(value) if value.lstrip("-").isdigit() else value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchembed",
        description="Embed hierarchical clusterings in the plane and "
                    "score how well reclustering recovers them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    embed = sub.add_parser("embed", help="embed a dataset or merge table")
    source = embed.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="numeric CSV of data rows")
    source.add_argument("--dendrogram",
                        help="merge table file (left,right,height,size)")
    embed.add_argument("--has-header", action="store_true",
                       help="first CSV row is a header")
    embed.add_argument("--label-column", type=_label_column, default=None,
                       help="CSV column (index or header name) holding "
                            "integer class labels")
    embed.add_argument("--rescale", action="store_true",
                       help="min-max rescale each column to [0, 1] first")
    embed.add_argument("--metric", choices=DISSIMILARITY_KINDS,
                       default="euclidean")
    embed.add_argument("--linkage", choices=LINKAGE_METHODS,
                       default="average")
    embed.add_argument("--strategy", choices=("random", "fixed", "even"),
                       default="fixed")
    embed.add_argument("--theta", type=float, default=15.0,
                       help="fixed-strategy angle in degrees [0, 90]")
    embed.add_argument("--swap", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="push the larger child away from the sister "
                            "(fixed strategy)")
    embed.add_argument("--seed", type=int, default=0,
                       help="seed for the random strategy")
    embed.add_argument("--out", required=True, help="coordinates CSV path")
    embed.add_argument("--report", default=None,
                       help="also score the embedding, JSON to this path")
    embed.add_argument("--converted-linkage", choices=LINKAGE_METHODS,
                       default=None,
                       help="linkage for reclustering in the report "
                            "(default: same as --linkage)")
    embed.add_argument("--svg", default=None,
                       help="also render a scatter plot to this path")
    embed.set_defaults(func=_cmd_embed)

    ev = sub.add_parser("eval", help="score an existing coordinates CSV")
    ev.add_argument("--coords", required=True, help="coordinates CSV path")
    ev.add_argument("--dendrogram", required=True,
                    help="merge table the coordinates should reproduce")
    ev.add_argument("--linkage", choices=LINKAGE_METHODS, default="average",
                    help="linkage used to recluster the coordinates")
    ev.add_argument("--report", default=None,
                    help="write JSON here instead of stdout")
    ev.set_defaults(func=_cmd_eval)

    bench = sub.add_parser("bench", help="strategy comparison table")
    bench.add_argument("--trials", type=int, default=200)
    bench.add_argument("--rows", type=int, default=100)
    bench.add_argument("--cols", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--swap", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="swap flag for the fixed strategies")
    bench.add_argument("--out", required=True, help="output CSV path")
    bench.set_defaults(func=_cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: parsing
    leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BranchEmbedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = f"{name}: {exc.strerror}" if name else str(exc)
        print(f"error: {detail}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
