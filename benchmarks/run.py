"""Layered benchmark for branchembed.

    python3 benchmarks/run.py --workload table|large|cli [--seed N]
        [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the program is imported from
``src/`` there.  One process, one BLAS thread.  The run sets up its
workload several times, then measures whole passes for ``--seconds``,
then checks the first pass's outputs against independent computations
(see oracle.py).  Pass times are scaled by a host-speed probe that
samples the host while the untraced passes run (see hostspeed.py).
A human-readable report goes to stderr and to ``benchmarks/out/``; the
last line of stdout is the result as JSON.

With ``--trace 1`` every other pass runs with per-layer wrappers
installed (layers.py): the result then holds per-layer self times and call
counts per traced pass, and the tracing overhead is the median traced pass
minus the median untraced one.
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from hostspeed import Probe  # noqa: E402
from layers import LAYERS, PASS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
MODULES = ("bench", "cli", "cluster", "datasets", "dendrogram", "embed",
           "metrics", "svgplot")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# Layers every workload calls; their self times and call counts are the
# per-layer metrics.  The report lists every traced layer.
REPORTED_LAYERS = (
    "cluster.euclidean_dissimilarity",
    "cluster.linkage",
    "dendrogram.validate_dendrogram",
    "dendrogram.pair_matrices",
    "embed.branching_embed",
    "metrics.convert_dendrogram",
    "metrics.pearson",
)


def import_program() -> SimpleNamespace:
    """Import branchembed from this checkout's ``src/``, or exit with an
    error if it is not there."""
    init = SRC / "branchembed" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no branchembed sources at {init}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("branchembed")
    if Path(package.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported branchembed from {package.__file__}")
    be = SimpleNamespace(package_dir=init.parent)
    for name in MODULES:
        setattr(be, name, importlib.import_module(f"branchembed.{name}"))
    return be


def import_seconds() -> float:
    """Median time to import branchembed in a fresh interpreter.  An
    import can only be timed once per process, and one sample is easily
    thrown off, so this is timed in a few short-lived child processes."""
    code = ("import time; t = time.perf_counter(); import branchembed; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=60)
        samples.append(float(child.stdout))
    return statistics.median(samples)


def measure(workload, seconds: float, tracer):
    """Whole passes until ``seconds`` have gone by; with a tracer every
    second pass is traced (and there are at least two passes).  The
    host-speed probe runs throughout, except in traced passes; the time it
    takes inside a pass is left out of the pass's wall time."""
    walls, traced_walls, times = [], [], {}
    attempted = failed = 0
    missing = []
    with Probe() as probe:
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(walls) > len(traced_walls)
            if traced:
                probe.pause()
                missing = tracer.install()
            spent = probe.spent
            t0 = time.perf_counter()
            if traced:
                result = tracer.run(workload.run_pass)
            else:
                result = workload.run_pass()
            wall = time.perf_counter() - t0 - (probe.spent - spent)
            if traced:
                tracer.uninstall()
                probe.resume()
            (traced_walls if traced else walls).append(wall)
            attempted += result.attempted
            failed += result.failed
            for kind, values in result.times.items():
                times.setdefault(kind, []).extend(values)
            workload.keep(result)
            # Drop the pass's outputs before the next pass runs, so that no
            # pass's peak memory holds an earlier pass's.
            del result
            if (time.perf_counter() - start >= seconds
                    and (tracer is None or traced_walls)):
                break
    return SimpleNamespace(walls=walls, traced_walls=traced_walls,
                           attempted=attempted, failed=failed, times=times,
                           probe=probe, missing=missing)


def layer_rows(tracer) -> tuple:
    """Mean self seconds and calls per traced pass, per layer."""
    passes = tracer.self_times()
    totals = {}
    for layers, _ in passes:
        for name, (self_s, calls) in layers.items():
            total = totals.setdefault(name, [0.0, 0])
            total[0] += self_s
            total[1] += calls
    rows = {name: [self_s / len(passes), calls / len(passes)]
            for name, (self_s, calls) in totals.items()}
    return rows, sum(wall for _, wall in passes) / len(passes)


def layer_report(name: str, rows: dict, wall: float, overhead: float,
                 untraced: float) -> str:
    lines = [f"{name}: per traced pass, {wall:.4f} s wall",
             f"{'layer':36} {'self s':>10} {'share':>7} {'calls':>9}"]
    names = sorted([n for n, _, _ in LAYERS] + [PASS],
                   key=lambda n: -rows.get(n, [0.0])[0])
    for layer in names:
        self_s, calls = rows.get(layer, [0.0, 0])
        label = "harness (benchmark glue)" if layer == PASS else layer
        lines.append(f"{label:36} {self_s:10.5f} {self_s / wall:7.1%} "
                     f"{calls:9g}")
    total = sum(r[0] for r in rows.values())
    lines.append(f"{'sum of self times':36} {total:10.5f} {total / wall:7.1%}")
    lines.append(f"tracing overhead: {overhead:+.5f} s per pass "
                 f"({overhead / untraced:+.2%} of the untraced median)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    be = import_program()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    workload = WORKLOADS[args.workload](be, args.seed,
                                        OUT / f"{args.workload}-work")
    # Set-up is scaled like the passes, by a probe of its own.
    with Probe() as setup_probe:
        import_s = import_seconds()
        setups = []
        for _ in range(SETUP_REPEATS):
            spent = setup_probe.spent
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start
                          - (setup_probe.spent - spent))
    setup_s = setup_probe.scale(import_s + statistics.median(setups))

    tracer = Tracer() if args.trace else None
    run = measure(workload, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = time.perf_counter()
    try:
        problems = workload.check()
    except ImportError as exc:
        problems = [f"reference computations need scipy: {exc}"]
    except (OSError, KeyError, ValueError) as exc:
        problems = [f"outputs could not be read back: {exc!r}"]
    check_s = time.perf_counter() - check_start

    wall_s = statistics.median(run.walls)
    pass_s = run.probe.scale(wall_s)
    samples = run.probe.samples
    probe_s = statistics.median(samples) if samples else None
    done_per_pass = (run.attempted - run.failed) / (
        len(run.walls) + len(run.traced_walls))
    summary = {
        "workload": args.workload, "seed": args.seed,
        "passes": len(run.walls), "traced_passes": len(run.traced_walls),
        "import_s": import_s, "setup_repeats_s": setups,
        "setup_probes": len(setup_probe.samples),
        "pass_walls_s": run.walls, "pass_wall_median_s": wall_s,
        "probe_median_s": probe_s, "probes": len(samples),
        "check_s": check_s,
        "op_median_s": {k: statistics.median(v) for k, v in run.times.items()
                        if v},
        "problems": problems,
    }
    if args.trace:
        rows, wall = layer_rows(tracer)
        overhead = statistics.median(run.traced_walls) - wall_s
        metrics = {}
        for layer in REPORTED_LAYERS:
            self_s, calls = rows.get(layer, [0.0, 0])
            metrics[f"{layer}_self_s"] = {"value": self_s, "unit": "s"}
            metrics[f"{layer}_calls"] = {"value": calls, "unit": "count"}
        metrics["harness.self_s"] = {"value": rows[PASS][0], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        report = layer_report(args.workload, rows, wall, overhead, wall_s)
        summary["layers"] = {k: {"self_s": v[0], "calls": v[1]}
                             for k, v in rows.items()}
        tracer.dump(OUT / f"spans-{tag}.json", workload=args.workload,
                    seed=args.seed)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "ops_per_s": {"value": done_per_pass / pass_s, "unit": "1/s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
        report = "\n".join(
            [f"{args.workload}: {len(run.walls)} passes, "
             f"{run.attempted} operations, {run.failed} failed"]
            + [f"  {k:14} {v['value']:.6g} {v['unit']}"
               for k, v in metrics.items()]
            + [f"  median pass wall {wall_s:.6g} s, median probe "
               + (f"{probe_s:.6g} s over {len(samples)}" if samples
                  else "none (pass_s is not scaled)")]
            + [f"  median {kind} operation {v:.6g} s"
               for kind, v in summary["op_median_s"].items()])
    for missing in run.missing:
        report += f"\nWARNING: layer {missing} not found; it reads 0"
    for problem in problems:
        report += f"\nPROBLEM: {problem}"
    print(report, file=sys.stderr)
    result = {"correct": not problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    summary["result"] = result
    (OUT / f"report-{tag}.txt").write_text(report + "\n")
    with open(OUT / f"result-{tag}.json", "w") as handle:
        json.dump(summary, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
