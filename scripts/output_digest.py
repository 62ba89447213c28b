"""Print one sha256 over the outputs that must stay byte-identical.

Usage: python3 scripts/output_digest.py SRC_DIR

SRC_DIR is the directory holding the ``branchembed`` package (``src`` in a
checkout); the package is imported from there.  The digest covers:

* the CSV of ``run_table_experiment(BenchConfig(trials=20))``;
* on the bundled iris table, for each of the four linkage methods under
  the fixed, even and random strategies: the coordinates, report and SVG
  written by ``branchembed embed --report --svg``, the method's merge
  table and the ``branchembed eval`` report of those coordinates;
* the coordinates and reports of two ``embed --metric correlation
  --report`` runs.

Two source trees that print the same digest write the same bytes for all
of these.  A run takes about ten seconds, most of it the table.

The correlation dissimilarity and the Pearson step go through BLAS, so
the digest moves with the BLAS kernel and also with its thread count.
The script therefore pins one BLAS thread before numpy loads, as
``benchmarks/run.py`` does, and its digest does not depend on the
caller's thread settings; with numpy's bundled OpenBLAS on a SkylakeX
kernel it is ``60e86a579120...``.  The kernel itself is still picked per
CPU, so compare two trees on the same machine.
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import branchembed as be
    from branchembed.cli import main as cli

    if Path(be.__file__).resolve().parent != src / "branchembed":
        print(f"error: branchembed came from {be.__file__}", file=sys.stderr)
        return 2
    digest = hashlib.sha256()

    def add(name: str, data: bytes) -> None:
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)

    add("table.csv", be.run_table_experiment(
        be.BenchConfig(trials=20)).to_csv().encode())

    iris_csv = str(src / "branchembed" / "data" / "iris.csv")
    data = be.load_csv(iris_csv, has_header=True, label_column=4).data
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def run(args, outputs) -> None:
            code = cli(args)
            if code != 0:
                raise SystemExit(f"exit {code}: {' '.join(args)}")
            for name in outputs:
                add(name, (work / name).read_bytes())

        embed = ["embed", "--input", iris_csv, "--has-header",
                 "--label-column", "4"]
        strategies = {"fixed": ["--strategy", "fixed", "--theta", "15"],
                      "even": ["--strategy", "even"],
                      "random": ["--strategy", "random", "--seed", "7"]}
        for method in be.LINKAGE_METHODS:
            tree = work / f"{method}-tree.txt"
            tree.write_text(be.serialize_merge_table(
                be.linkage(be.euclidean_dissimilarity(data), method)))
            add(tree.name, tree.read_bytes())
            for label, flags in strategies.items():
                stem = f"{method}-{label}"
                run(embed + ["--linkage", method] + flags
                    + ["--out", str(work / f"{stem}-coords.csv"),
                       "--report", str(work / f"{stem}-report.json"),
                       "--svg", str(work / f"{stem}.svg")],
                    [f"{stem}-coords.csv", f"{stem}-report.json",
                     f"{stem}.svg"])
                run(["eval", "--coords", str(work / f"{stem}-coords.csv"),
                     "--dendrogram", str(tree), "--linkage", method,
                     "--report", str(work / f"{stem}-eval.json")],
                    [f"{stem}-eval.json"])
        for method, label in (("average", "fixed"), ("complete", "even")):
            stem = f"correlation-{method}-{label}"
            run(embed + ["--metric", "correlation", "--linkage", method]
                + strategies[label]
                + ["--out", str(work / f"{stem}-coords.csv"),
                   "--report", str(work / f"{stem}-report.json")],
                [f"{stem}-coords.csv", f"{stem}-report.json"])
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
