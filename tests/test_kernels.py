"""The outputs do not depend on the BLAS kernel or its thread count.

OpenBLAS built with DYNAMIC_ARCH picks its kernel per CPU at load time,
and ``OPENBLAS_CORETYPE`` overrides that pick for the process that sets
it.  Each child process below computes the outputs under one kernel and
one thread setting and prints a sha256 per output; every child must print
the same ones.  No output path calls BLAS, so none may move.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import branchembed

# Kernel and the CPU flag it needs ("pni" is SSE3).
KERNELS = (("Prescott", "pni"), ("Haswell", "avx2"),
           ("SkylakeX", "avx512f"))

CHILD = r"""
import hashlib, json
from branchembed import (
    AngleStrategy, BenchConfig, branching_embed, correlation_dissimilarity,
    dissimilarity, evaluate_embedding, gaussian_matrix, linkage,
    run_table_experiment,
)

def sha(data):
    return hashlib.sha256(data).hexdigest()

out = {}
for p in (2, 5):
    x = gaussian_matrix(120, p, 1)
    out[f"correlation p={p}"] = sha(correlation_dissimilarity(x).values)
x = gaussian_matrix(300, 5, 2)
for kind, method in (("euclidean", "average"), ("correlation", "complete")):
    tree = linkage(dissimilarity(kind, x), method)
    emb = branching_embed(tree, AngleStrategy.fixed(15.0))
    report = evaluate_embedding(tree, emb, method, dissimilarity=kind)
    out[f"evaluate_embedding {kind}"] = sha(report.to_json().encode())
out["table"] = sha(run_table_experiment(BenchConfig(trials=2)).to_csv()
                   .encode())
print(json.dumps(out))
"""


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return False
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


@pytest.mark.skipif(not _dynamic_openblas(),
                    reason="numpy's BLAS is not DYNAMIC_ARCH OpenBLAS")
def test_outputs_equal_under_every_kernel_and_thread_setting():
    flags = _cpu_flags()
    kernels = [name for name, flag in KERNELS if flag in flags]
    if len(kernels) < 2:
        pytest.skip("this CPU runs fewer than two of the kernels")
    src = str(Path(branchembed.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "OPENBLAS_CORETYPE")}
    base["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    results = {}
    # One child at a time: at most 6, each with at most the default
    # BLAS threads.
    for kernel in kernels:
        for threads in (None, "1"):
            env = dict(base, OPENBLAS_CORETYPE=kernel)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            child = subprocess.run([sys.executable, "-c", CHILD], env=env,
                                   capture_output=True, text=True,
                                   timeout=300)
            assert child.returncode == 0, child.stderr[-2000:]
            results[(kernel, threads)] = json.loads(child.stdout)
    first, *rest = results.items()
    for setting, digests in rest:
        moved = [name for name in digests if digests[name] != first[1][name]]
        assert not moved, f"{setting} against {first[0]}: {moved} moved"
