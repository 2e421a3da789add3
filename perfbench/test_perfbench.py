"""Smoke test of the benchmark: every workload at minimal size, both modes.

    python3 -m pytest perfbench/test_perfbench.py

Each run completes the least a run of its workload may hold: one block when
traced, `min_ops` ops when timed (about two minutes in all).  The test checks the output contract, not the figures.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER
    ]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    p = _run(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    expected = {row[0]: row[1] for row in table}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = "\n".join(lines[:-1])
    for name in list(expected) + ["failed_ratio"]:
        assert f" {name} " in report
    assert '"nproc"' in report and '"why"' in report and '"mix"' in report
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = [m[f"trace.self_ms.{layer}"] for layer in metrics.LAYERS + metrics.RESIDUALS]
        assert sum(parts) + m["trace.residual_ms"] == pytest.approx(m["trace.wall_ms"])
        if workload == "zeros-cold":
            assert m["zeros.calls"] > 0 and m["zeros.cache_hit_ratio"] == 0
        if workload == "verify-jobs":
            assert m["zeros.cache_hit_ratio"] > 0 and m["cli.nonzero_exits"] == 0


def test_refuses_to_run_without_the_library():
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bare = os.path.join(BENCH, ".work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        p = _run(bare, "eval-small-x", 0)
    finally:
        shutil.rmtree(bare)
    assert p.returncode != 0
    assert p.stdout == ""
