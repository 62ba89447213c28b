"""Smoke test of scripts/output_digest.py on this checkout's sources.

One run takes a few seconds.  It checks the output layout: a single
digest line on stdout and one ``sha256 name`` line per output on stderr,
and that the table means and the merge table lines hash what
``run_table_experiment`` and ``linkage`` give.  In-process runs with a
CLI whose repeat calls write other bytes, or leave an output unwritten,
check that the script stops.
"""

import hashlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import branchembed
import branchembed.cli
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


def _digest_with_cli(monkeypatch, wrapped):
    """Run the script in this process with a tiny table and with
    ``wrapped(real_main, argv, repeated)`` as the CLI, and check that it
    exits with status 2."""
    tiny = run_table_experiment(BenchConfig(trials=1, rows=10, cols=3))
    monkeypatch.setattr(branchembed, "run_table_experiment",
                        lambda cfg: tiny)
    real = branchembed.cli.main
    seen = set()

    def cli(argv):
        repeated = tuple(argv) in seen
        seen.add(tuple(argv))
        return wrapped(real, argv, repeated)

    monkeypatch.setattr(branchembed.cli, "main", cli)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "scripts" / "output_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as exc:
        script.main([str(ROOT / "src")])
    assert exc.value.code == 2


def test_repeat_call_writing_other_bytes_exits_2(monkeypatch, capsys):
    def drifting(real, argv, repeated):
        # Every repeated call appends a byte to its SVG.
        code = real(argv)
        if repeated and "--svg" in argv:
            svg = Path(argv[argv.index("--svg") + 1])
            svg.write_bytes(svg.read_bytes() + b" ")
        return code

    _digest_with_cli(monkeypatch, drifting)
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: a second call wrote other bytes to "
        f"{LINKAGE_METHODS[0]}-fixed.svg")


def test_repeat_call_writing_nothing_exits_2(monkeypatch, capsys):
    def skipping(real, argv, repeated):
        # Every repeated call leaves out its SVG.
        if repeated and "--svg" in argv:
            k = argv.index("--svg")
            argv = argv[:k] + argv[k + 2:]
        return real(argv)

    _digest_with_cli(monkeypatch, skipping)
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: a call wrote nothing to {LINKAGE_METHODS[0]}-fixed.svg")
