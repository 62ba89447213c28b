"""Tests for scripts/bench_compare.py's file layout and merging.

``run_once`` is replaced by a stub, so no benchmark runs: the tests
check which sections a call writes, what a second call keeps and that
both checkouts are byte-compiled first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"


@pytest.fixture
def bench_compare(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []

    def fake_run_once(checkout, workload, seed, trace):
        calls.append((checkout.name, workload, seed, trace))
        value = 1.0 if checkout.name == "parent" else 0.5
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"pass_s": value, "ops_per_s": 1 / value}}

    monkeypatch.setattr(module, "run_once", fake_run_once)
    for side in module.SIDES:
        package = tmp_path / side / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [
            {"name": "pass_s", "better": "lower", "bound": 0.25},
            {"name": "ops_per_s", "better": "higher", "bound": 0.25}],
    }))
    monkeypatch.chdir(tmp_path)
    module.calls = calls
    return module


def _main(module, *args):
    return module.main(["parent", "change", "--topic", "t", *args])


def _read(tmp_path):
    return json.loads((tmp_path / "BENCH_t.json").read_text())


def test_writes_pairs_and_one_traced_run_per_side(bench_compare, tmp_path):
    assert _main(bench_compare, "--pairs", "2") == 0
    out = _read(tmp_path)
    assert set(out["pairs"]) == {"a", "b"}
    entry = out["pairs"]["a"]["seed 0"]
    assert entry["runs"] == 2
    assert entry["metrics"]["pass_s"]["change_wins"] == "2/2"
    assert entry["metrics"]["ops_per_s"]["change_over_parent_median"] == 2.0
    assert out["traced_seed0"]["b"] == {
        "parent": {"pass_s": 1.0, "ops_per_s": 1.0},
        "change": {"pass_s": 0.5, "ops_per_s": 2.0}}
    traced = [c for c in bench_compare.calls if c[3]]
    assert sorted(traced) == sorted(
        (side, w, 0, True) for side in ("parent", "change") for w in "ab")


def test_compiles_both_checkouts(bench_compare, tmp_path):
    # Otherwise one side's setup_s may include byte-compiling the
    # package and the other's not.
    assert _main(bench_compare, "--pairs", "1") == 0
    for side in bench_compare.SIDES:
        cache = tmp_path / side / "src" / "pkg" / "__pycache__"
        assert any(cache.glob("__init__.*.pyc")), side


def test_second_call_keeps_other_entries(bench_compare, tmp_path):
    _main(bench_compare, "--pairs", "1")
    _main(bench_compare, "--pairs", "1", "--workloads", "a", "--seeds", "7")
    out = _read(tmp_path)
    assert set(out["pairs"]["a"]) == {"seed 0", "seed 7"}
    assert set(out["pairs"]["b"]) == {"seed 0"}
    assert set(out["traced_seed0"]) == {"a", "b"}
    assert set(out["traced_seed7"]) == {"a"}
    _main(bench_compare, "--pairs", "1", "--workloads", "b")
    assert set(_read(tmp_path)["traced_seed0"]) == {"a", "b"}


def test_refuses_file_from_another_host(bench_compare, tmp_path):
    _main(bench_compare, "--pairs", "1")
    out = _read(tmp_path)
    out["machine"]["nproc"] = -1
    (tmp_path / "BENCH_t.json").write_text(json.dumps(out))
    before = len(bench_compare.calls)
    with pytest.raises(SystemExit, match="another host"):
        _main(bench_compare, "--pairs", "1")
    assert len(bench_compare.calls) == before
