"""Print the tracemalloc peak of each stage of the `large` pipeline.

Usage: python3 scripts/peak_memory.py SRC_DIR [--n N]

SRC_DIR is the directory holding the ``branchembed`` package (``src`` in a
checkout); the package is imported from there.  The pipeline is the
benchmark's ``large`` one at N rows (default 2000): a seeded N x 5
Gaussian matrix, its Euclidean dissimilarity, average ``linkage``, the
fixed 15 degree embedding, then ``convert_dendrogram`` of the embedding
and the ``scores`` of the converted tree against the original
(``metrics._scores``, one walk over the leaf pairs).  A last stage runs
``evaluate_embedding``, which does the last two in one call.  Each
stage's peak is what tracemalloc saw above the memory held when the
stage began, in MB (10^6 bytes) and in units of N^2 bytes.  A stage's
inputs are freed once no later stage needs them, so the closing
``ru_maxrss`` line is the largest stage plus what the interpreter,
numpy and the inputs hold.  Memory that numpy does not report to
tracemalloc, such as an ``mmap``, is not in the stage peaks.  Where
``/proc/self/smaps_rollup`` is readable, an ``AnonHugePages`` line
follows: the anonymous memory the process holds in transparent huge
pages at exit.  A huge page is resident whole once any byte of it is
touched, so that share of ``ru_maxrss`` need not be memory the program
uses.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tracemalloc
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_dir", type=Path)
    parser.add_argument("--n", type=int, default=2000)
    args = parser.parse_args(argv)
    src = args.src_dir.resolve()
    sys.path.insert(0, str(src))
    import branchembed as be
    from branchembed import metrics

    if Path(be.__file__).resolve().parent != src / "branchembed":
        print(f"error: branchembed came from {be.__file__}", file=sys.stderr)
        return 2
    n = args.n
    x = be.gaussian_matrix(n, 5, 0)

    def stage(name, fn, *fn_args):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*fn_args)
        peak = tracemalloc.get_traced_memory()[1] - held
        print(f"{name:<20} {peak / 1e6:10.2f} {peak / n ** 2:10.2f}")
        return out

    print(f"n={n}: tracemalloc peak above what each stage began with")
    print(f"{'stage':<20} {'MB':>10} {'n^2 bytes':>10}")
    tracemalloc.start()
    d = stage("dissimilarity", be.euclidean_dissimilarity, x)
    tree = stage("linkage", be.linkage, d, "average")
    del d
    emb = stage("embed", be.branching_embed, tree, be.AngleStrategy.fixed(15))
    conv = stage("convert_dendrogram", be.convert_dendrogram, emb, "average")
    stage("scores", metrics._scores, tree, [conv])
    del conv
    stage("evaluate_embedding", be.evaluate_embedding, tree, emb, "average")
    tracemalloc.stop()
    # Linux reports ru_maxrss in KiB.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"{'ru_maxrss':<20} {rss / 1e6:10.2f} {rss / n ** 2:10.2f}")
    huge = anon_huge_pages()
    if huge is not None:
        print(f"{'AnonHugePages':<20} {huge / 1e6:10.2f} {huge / n ** 2:10.2f}")
    return 0


def anon_huge_pages() -> int | None:
    """Bytes of ``AnonHugePages`` in ``/proc/self/smaps_rollup``, or
    ``None`` where that file cannot be read."""
    try:
        with open("/proc/self/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("AnonHugePages:"):
                    # The kernel reports it in kB (KiB).
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
