"""Smoke test of scripts/output_digest.py on this checkout's sources.

One run takes a few seconds.  It checks the output layout: a single
digest line on stdout and one ``sha256 name`` line per output on stderr,
and that the table means and the merge table lines hash what
``run_table_experiment`` and ``linkage`` give.
"""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from branchembed import (
    LINKAGE_METHODS,
    BenchConfig,
    euclidean_dissimilarity,
    linkage,
    load_csv,
    run_table_experiment,
    serialize_merge_table,
)

ROOT = Path(__file__).resolve().parents[1]
HEX = "[0-9a-f]{64}"


def test_digest_and_per_output_lines():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True)
    assert re.fullmatch(f"{HEX}\n", run.stdout)
    lines = run.stderr.splitlines()
    assert all(re.fullmatch(rf"{HEX} \S+", line) for line in lines), lines
    pairs = [line.split(" ") for line in lines]
    names = [name for _, name in pairs]
    hashes = {name: sha for sha, name in pairs}
    # The table and its means; per method a tree plus 3 strategies x
    # (coordinates, report, SVG, eval report); 2 correlation runs x
    # (coordinates, report).
    assert len(hashes) == len(names) == 2 + 4 * (1 + 3 * 4) + 2 * 2
    assert names[:2] == ["table.csv", "table-means.hex"]
    table = run_table_experiment(BenchConfig(trials=20))
    means = "".join(f"{v.hex()}\n" for m in (table.mean_r_c, table.mean_r_k)
                    for v in m.ravel().tolist())
    assert hashes["table-means.hex"] == \
        hashlib.sha256(means.encode()).hexdigest()

    data = load_csv(ROOT / "src" / "branchembed" / "data" / "iris.csv",
                    has_header=True, label_column=4).data
    for method in LINKAGE_METHODS:
        tree = serialize_merge_table(
            linkage(euclidean_dissimilarity(data), method)).encode()
        assert hashes[f"{method}-tree.txt"] == \
            hashlib.sha256(tree).hexdigest()
