"""Print one sha256 over the outputs that must stay byte-identical.

Usage: python3 scripts/output_digest.py SRC_DIR

SRC_DIR is the directory holding the ``branchembed`` package (``src`` in a
checkout); the package is imported from there.  The digest covers:

* the CSV of ``run_table_experiment(BenchConfig(trials=20))``, and its
  ``mean_r_c`` then ``mean_r_k`` at full precision, one ``float.hex``
  per line in row-major order (``table-means.hex``), so a last-bit change
  that the CSV's 6 decimals round away still moves the digest;
* on the bundled iris table, for each of the four linkage methods under
  the fixed, even and random strategies: the coordinates, report and SVG
  written by ``branchembed embed --report --svg``, the method's merge
  table and the ``branchembed eval`` report of those coordinates;
* the coordinates and reports of two ``embed --metric correlation
  --report`` runs.

Every CLI command runs twice in this one process, as
``branchembed.cli.main(argv)`` may be called repeatedly, each call after
its outputs are removed; if a call leaves an output unwritten or the
second call writes other bytes than the first, the script names the
output on stderr and exits with status 2.

Two source trees that print the same digest write the same bytes for all
of these.  The digest is the only line on stdout.  Stderr gets one
``sha256 name`` line per output, in digest order, so when two trees'
digests differ, a diff of their stderr names the outputs that moved.  A
run takes a few seconds, most of it the table.

No output path calls BLAS, so the digest does not depend on the BLAS
kernel or its thread count: it is ``645d133f4cc8...`` under the
Prescott, Haswell and SkylakeX kernels of numpy's bundled OpenBLAS,
with one BLAS thread and with the default count.  It does depend on
numpy's CPU dispatch: on an AVX-512 CPU,
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` moves
``table-means.hex``, and with it the digest (to ``566a15d975c8...``),
because the Gaussian draws' ``np.log`` then takes another kernel that
rounds some values differently; every other line stays.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path


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
        print(hashlib.sha256(data).hexdigest(), name, file=sys.stderr)

    table = be.run_table_experiment(be.BenchConfig(trials=20))
    add("table.csv", table.to_csv().encode())
    add("table-means.hex", "".join(
        f"{v.hex()}\n" for means in (table.mean_r_c, table.mean_r_k)
        for v in means.ravel().tolist()).encode())

    iris_csv = str(src / "branchembed" / "data" / "iris.csv")
    data = be.load_csv(iris_csv, has_header=True, label_column=4).data
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def run(args, outputs) -> None:
            written = []
            for _ in range(2):
                # Each call must write every output afresh.
                for name in outputs:
                    (work / name).unlink(missing_ok=True)
                code = cli(args)
                if code != 0:
                    raise SystemExit(f"exit {code}: {' '.join(args)}")
                written.append([(work / name).read_bytes()
                                if (work / name).exists() else None
                                for name in outputs])
            for name, first, second in zip(outputs, *written):
                if first is None or second is None:
                    problem = "a call wrote nothing to"
                elif first != second:
                    problem = "a second call wrote other bytes to"
                else:
                    add(name, first)
                    continue
                print(f"error: {problem} {name}", file=sys.stderr)
                raise SystemExit(2)

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
