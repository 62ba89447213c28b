"""Run the benchmark over several seeds and summarise the spread.

    python3 benchmarks/sweep.py --seeds 1-10

Runs ``benchmarks/run.py`` once per seed on every workload of
``BENCHMARK.json``, for its ``run_seconds``, one run at a time,
then prints a markdown table: for every end-to-end metric the median of
the runs and the distance between the first and third quartiles as a share
of the median (``statistics.quantiles(values, n=4)``), beside the metric's
bound from ``BENCHMARK.json``.  It also prints each workload's share of
failed operations, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = ["| workload | metric | median | IQR / median | bound |",
             "| --- | --- | --- | --- | --- |"]
    for workload in (w["name"] for w in spec["workloads"]):
        values, shares = {}, set()
        for seed in args.seeds:
            run = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            print(workload, seed, json.dumps(result), file=sys.stderr,
                  flush=True)
            if not result["correct"]:
                print(run.stderr, file=sys.stderr)
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            lines.append(f"| {workload} | {name} | {median:.5g} | "
                         f"{(q3 - q1) / median:.3f} | {bounds[name]} |")
        print(f"{workload}: failed share {sorted(shares)} over "
              f"{len(args.seeds)} seeds", file=sys.stderr)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
