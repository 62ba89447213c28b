"""Benchmark two checkouts against each other and write ``BENCH_<topic>.json``.

Usage:
    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR --topic T
        --pairs N [--workloads W ...] [--seeds S ...]

PARENT_DIR and CHANGE_DIR are source checkouts, each with its own
``benchmarks/run.py`` and ``src/``.  For every workload and seed the
script runs ``python3 benchmarks/run.py --workload W --seed S`` N times
in each checkout, alternating which side goes first, and records the
JSON result each run prints as its last stdout line.  Workloads,
end-to-end metrics and their bounds come from CHANGE_DIR's
``BENCHMARK.json``.  One traced run per side and workload at the first
seed adds the per-layer self times and call counts.  The file is written
to the current directory; if it exists, its entries for other workloads
and seeds, traced ones included, are kept, so a held-out seed can be
added by a second call.  A file written on a host whose facts differ
from this one's is not merged into: the script stops with an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, trace: bool):
    """One benchmark run in ``checkout``; its parsed result line."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def run_pairs(dirs, workload, seed, pairs, trace):
    """``pairs`` runs per side, the first side alternating per pair."""
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(dirs[side], workload, seed, trace)
            runs[side].append(result)
            print(f"{workload} seed {seed} pair {i + 1}/{pairs} {side}: "
                  f"{json.dumps(result['metrics'])}", file=sys.stderr)
    return runs


def quartiles(values):
    """[q1, median, q3], linear interpolation between order statistics."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs, end_to_end):
    """Per-metric comparison of the two sides' runs, paired by index."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        pq, cq = quartiles(parent), quartiles(change)
        if spec["better"] == "lower":
            wins = sum(c < p for p, c in zip(parent, change))
        else:
            wins = sum(c > p for p, c in zip(parent, change))
        metrics[name] = {
            "better": spec["better"], "bound": spec["bound"],
            "parent_quartiles": [round(q, 6) for q in pq],
            "change_quartiles": [round(q, 6) for q in cq],
            "change_over_parent_median": round(cq[1] / pq[1], 4),
            "parent_iqr_over_median": round((pq[2] - pq[0]) / pq[1], 4),
            "change_wins": f"{wins}/{len(parent)}",
            "parent_runs": [round(v, 6) for v in parent],
            "change_runs": [round(v, 6) for v in change],
        }
    return {
        "runs": len(runs["parent"]),
        "failed_share": {
            side: sorted({round(r["failed"] / r["attempted"], 6)
                          for r in runs[side]}) for side in SIDES},
        "metrics": metrics,
        "correct": {side: all(r["correct"] for r in runs[side])
                    for side in SIDES},
    }


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = None
    facts["system"] = f"{platform.system()} {platform.machine()}"
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--topic", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    args = parser.parse_args(argv)

    dirs = {"parent": args.parent_dir.resolve(),
            "change": args.change_dir.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    path = Path(f"BENCH_{args.topic}.json")
    machine = machine_facts()
    out = json.loads(path.read_text()) if path.exists() else {"pairs": {}}
    if out.get("machine", machine) != machine:
        sys.exit(f"error: {path} was written on another host "
                 f"({out['machine']}, here {machine}); move it away first")
    out.update({
        "topic": args.topic,
        "machine": machine,
        "how": (
            "Each side is a checkout of its own commit in its own "
            "directory; each run is `python3 benchmarks/run.py --workload "
            "W --seed S --trace T` with its default run length, and its "
            "last stdout line is recorded. Pairs alternate which side "
            "runs first. "
            "Quartiles are [q1, median, q3] over the runs of one side; "
            "change_wins counts the pairs in which the change's run is "
            "better than the parent's."),
    })
    for workload in workloads:
        for seed in args.seeds:
            runs = run_pairs(dirs, workload, seed, args.pairs, trace=False)
            entry = out["pairs"].setdefault(workload, {})
            entry[f"seed {seed}"] = summarize(runs, spec["end_to_end"])
    seed = args.seeds[0]
    traced = out.setdefault(f"traced_seed{seed}", {})
    for workload in workloads:
        runs = run_pairs(dirs, workload, seed, 1, trace=True)
        traced[workload] = {side: runs[side][0]["metrics"] for side in SIDES}
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
