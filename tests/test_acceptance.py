"""Acceptance gate: the pinned end-to-end checks for this package.

Each criterion records exactly one verdict line, printed after the run
in the "acceptance verdicts" summary section, and then asserts.  The
first three criteria share one 200-trial benchmark run at the default
configuration, which takes about a minute; everything else is fast.

The digits check needs an external CSV (1797 rows, 64 pixel columns plus
a trailing label column); point BRANCHEMBED_DIGITS_CSV at it or drop it
next to the working directory as digits.csv.  Without the file that one
check reports SKIP.
"""

import math
import os
import time

import numpy as np
import pytest

import conftest

from branchembed import (
    AngleStrategy,
    BenchConfig,
    blobs,
    branching_embed,
    convert_dendrogram,
    cophenetic_matrix,
    euclidean_dissimilarity,
    evaluate_embedding,
    iris,
    line_embed,
    linkage,
    load_csv,
    run_table_experiment,
    s_curve,
)
from helpers import (
    balanced_dendrogram,
    naive_linkage_oracle,
    random_dendrogram,
)

TOL_TABLE = 0.05
R_C_ANCHORS = (
    ("euclidean", "average", "15", 0.43),
    ("euclidean", "ward", "45", 0.71),
    ("euclidean", "complete", "30", 0.51),
    ("correlation", "average", "15", 0.53),
)
R_K_ANCHORS = (
    ("euclidean", "ward", "60", 0.73),
    ("euclidean", "single", "90", -0.03),
    ("correlation", "average", "15", 0.36),
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    conftest.VERDICTS.append(
        f"ACCEPTANCE {num:>2} {name:<28} {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _skip(num: int, name: str, detail: str) -> None:
    conftest.VERDICTS.append(
        f"ACCEPTANCE {num:>2} {name:<28} SKIP  {detail}")
    pytest.skip(detail)


@pytest.fixture(scope="module")
def bench200():
    t0 = time.perf_counter()
    table = run_table_experiment(BenchConfig())
    return table, time.perf_counter() - t0


class TestTables:
    def test_criterion_1_mean_r_c_anchors(self, bench200):
        table, elapsed = bench200
        parts = []
        ok = elapsed < 120.0
        for kind, method, label, want in R_C_ANCHORS:
            got = table.cell(kind, method, label, "r_c")
            ok = ok and abs(got - want) <= TOL_TABLE
            parts.append(f"{kind[:4]}/{method}/{label}={got:+.3f}"
                         f" (want {want:+.2f})")
        _verdict(1, "table r_c anchors", ok,
                 "; ".join(parts) + f"; {elapsed:.0f}s")

    def test_criterion_2_mean_r_k_anchors(self, bench200):
        table, _ = bench200
        parts = []
        ok = True
        for kind, method, label, want in R_K_ANCHORS:
            got = table.cell(kind, method, label, "r_k")
            ok = ok and abs(got - want) <= TOL_TABLE
            parts.append(f"{kind[:4]}/{method}/{label}={got:+.3f}"
                         f" (want {want:+.2f})")
        _verdict(2, "table r_k anchors", ok, "; ".join(parts))

    def test_criterion_3_ward_angle_ordering(self, bench200):
        table, _ = bench200
        ok = True
        details = []
        for metric in ("r_c", "r_k"):
            base = table.cell("euclidean", "ward", "0", metric)
            worst = min(table.cell("euclidean", "ward", lab, metric)
                        for lab in ("30", "45", "60", "75", "90"))
            ok = ok and worst > base
            details.append(f"{metric}: 0deg={base:+.3f} min(>=30)={worst:+.3f}")
        _verdict(3, "ward beats 0deg from 30deg", ok, "; ".join(details))


class TestCaseStudies:
    def test_criterion_4_iris(self):
        t0 = time.perf_counter()
        d = linkage(euclidean_dissimilarity(iris().data), "average")
        emb = branching_embed(d, AngleStrategy.fixed(15.0))
        rep = evaluate_embedding(d, emb, "average")
        elapsed = time.perf_counter() - t0
        ok = (abs(rep.r_c - 0.967) <= 0.03
              and abs(rep.r_k - 0.628) <= 0.05
              and elapsed < 1.0)
        _verdict(4, "iris study", ok,
                 f"r_c={rep.r_c:.3f} (want 0.967±0.03) "
                 f"r_k={rep.r_k:.3f} (want 0.628±0.05) {elapsed:.2f}s")

    def test_criterion_5_blobs(self):
        rc, rk = [], []
        for seed in range(20):
            got = blobs(500, seed)
            d = linkage(euclidean_dissimilarity(got.data), "average")
            emb = branching_embed(d, AngleStrategy.fixed(15.0))
            rep = evaluate_embedding(d, emb, "average")
            rc.append(rep.r_c)
            rk.append(rep.r_k)
        med_c, med_k = float(np.median(rc)), float(np.median(rk))
        ok = med_c >= 0.95 and med_k >= 0.60
        _verdict(5, "blob study medians", ok,
                 f"median r_c={med_c:.3f} (>=0.95) "
                 f"median r_k={med_k:.3f} (>=0.60), 20 seeds")

    def test_criterion_6_s_curve(self):
        rc = []
        for seed in range(20):
            x = s_curve(500, seed)
            d = linkage(euclidean_dissimilarity(x), "average")
            emb = branching_embed(d, AngleStrategy.fixed(90.0))
            rc.append(evaluate_embedding(d, emb, "average").r_c)
        med = float(np.median(rc))
        ok = 0.55 <= med <= 0.85
        _verdict(6, "s-curve study median", ok,
                 f"median r_c={med:.3f} (want in [0.55, 0.85]), 20 seeds")

    def test_criterion_7_digits(self):
        path = os.environ.get("BRANCHEMBED_DIGITS_CSV", "digits.csv")
        if not os.path.exists(path):
            _skip(7, "digits study", f"no digits CSV at {path!r}")
        loaded = load_csv(path, label_column=64)
        d = linkage(euclidean_dissimilarity(loaded.data), "ward")
        emb = branching_embed(d, AngleStrategy.fixed(60.0, swap=False))
        rep = evaluate_embedding(d, emb, "average")
        ok = (abs(rep.r_c - 0.742) <= 0.08
              and abs(rep.r_k - 0.629) <= 0.08)
        _verdict(7, "digits study", ok,
                 f"r_c={rep.r_c:.3f} (want 0.742±0.08) "
                 f"r_k={rep.r_k:.3f} (want 0.629±0.08)")


class TestExactness:
    def test_criterion_8_line_embed_equivalence(self):
        worst = 0.0
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = random_dendrogram(int(rng.integers(2, 101)), rng)
            back = convert_dendrogram(line_embed(d), "single")
            diff = np.abs(cophenetic_matrix(back).values
                          - cophenetic_matrix(d).values)
            worst = max(worst, float(diff.max()))
        ok = worst <= 1e-12
        _verdict(8, "line embed exactness", ok,
                 f"max cophenetic deviation {worst:.2e} over 100 trees")

    def test_criterion_9_linkage_oracle(self):
        worst_h = worst_c = 0.0
        rng = np.random.default_rng(9)
        for _ in range(200):
            d0 = euclidean_dissimilarity(rng.normal(size=(10, 3)))
            for method in ("single", "complete", "average", "ward"):
                fast = linkage(d0, method)
                slow = naive_linkage_oracle(d0, method)
                worst_h = max(worst_h, float(np.abs(
                    np.sort(fast.height) - np.sort(slow.height)).max()))
                worst_c = max(worst_c, float(np.abs(
                    cophenetic_matrix(fast).values
                    - cophenetic_matrix(slow).values).max()))
        ok = worst_h <= 1e-9 and worst_c <= 1e-9
        _verdict(9, "linkage vs naive oracle", ok,
                 f"max height dev {worst_h:.2e}, max cophenetic dev "
                 f"{worst_c:.2e}, 200 instances x 4 methods")


class TestGeometry:
    def test_criterion_10_invariants(self):
        strategies = (
            [AngleStrategy.random(3), AngleStrategy.even()]
            + [AngleStrategy.fixed(t) for t in
               (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)]
        )
        rng = np.random.default_rng(10)
        worst = {"com": 0.0, "sep": 0.0, "ratio": 0.0,
                 "even": 0.0, "theta": 0.0}
        for _ in range(100):
            d = random_dendrogram(int(rng.integers(2, 80)), rng)
            for strat in strategies:
                emb = branching_embed(d, strat, trace=True)
                com = np.abs(emb.coords.mean(axis=0)).max()
                worst["com"] = max(worst["com"], float(com))
                for ev in emb.trace:
                    c1 = np.asarray(ev.child1)
                    c2 = np.asarray(ev.child2)
                    t = np.asarray(ev.target)
                    worst["sep"] = max(worst["sep"], abs(
                        float(np.linalg.norm(c1 - c2)) - ev.height))
                    worst["ratio"] = max(worst["ratio"], abs(
                        ev.n1 * float(np.linalg.norm(c1 - t))
                        - ev.n2 * float(np.linalg.norm(c2 - t))))
                    if ev.sister is None:
                        continue
                    s = np.asarray(ev.sister)
                    length = float(np.linalg.norm(s - t))
                    if length < 1e-9 or ev.height <= 0.0:
                        continue
                    if strat.kind == "even":
                        l1 = ev.height * ev.n2 / (ev.n1 + ev.n2)
                        l2 = ev.height * ev.n1 / (ev.n1 + ev.n2)
                        if abs(l1 - l2) < 2.0 * length:
                            worst["even"] = max(worst["even"], abs(
                                float(np.linalg.norm(c1 - s))
                                - float(np.linalg.norm(c2 - s))))
                    elif strat.kind == "fixed":
                        # the child on the rotated side realizes theta;
                        # compare cosines, acos is ill-conditioned near 0
                        toward = c2 if (strat.swap and ev.n1 > ev.n2) else c1
                        v = toward - t
                        cosang = float((s - t) @ v) / (length
                                                       * float(np.linalg.norm(v)))
                        worst["theta"] = max(worst["theta"], abs(
                            cosang - math.cos(math.radians(strat.theta))))
        ok = all(worst[key] <= 1e-9 for key in worst)
        _verdict(10, "geometry invariants", ok,
                 f"com={worst['com']:.1e} sep={worst['sep']:.1e} "
                 f"ratio={worst['ratio']:.1e} even={worst['even']:.1e} "
                 f"cos(theta)={worst['theta']:.1e}, 100 trees x 9 strategies")


class TestScaling:
    @staticmethod
    def _best_of_3(d):
        strat = AngleStrategy.fixed(15.0)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            branching_embed(d, strat)
            best = min(best, time.perf_counter() - t0)
        return best

    def test_criterion_11_linear_scaling(self):
        big = balanced_dendrogram(100_000)
        t_big = self._best_of_3(big)
        sizes = (10_000, 20_000, 40_000)
        trees = [balanced_dendrogram(n) for n in sizes]
        times = [self._best_of_3(d) for d in trees]
        r1 = times[1] / times[0]
        r2 = times[2] / times[1]
        ok = t_big < 1.0 and r1 < 3.0 and r2 < 3.0
        _verdict(11, "embedder O(n) scaling", ok,
                 f"t(1e5)={t_big * 1000:.0f}ms (<1000); "
                 f"t(2e4)/t(1e4)={r1:.2f}, t(4e4)/t(2e4)={r2:.2f} (<3)")
