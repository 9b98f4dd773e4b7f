"""Tests of the benchmark itself, at smoke scale.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import workloads  # noqa: E402
from repro.eval.workloads import (  # noqa: E402
    TraceConfig,
    auto_modifier_range,
    generate_trace,
)
from repro.graph.generators import circuit_graph  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc) -> tuple[dict, dict]:
    """``(record, result)`` from a successful run's last two lines."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_metrics(result: dict, spec_metrics: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec_metrics]
    for metric in spec_metrics:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("seed", [1, 9])
def test_fast_trace_matches_library_generator(seed):
    csr = circuit_graph(1_500, edge_ratio=1.3, seed=seed)
    config = TraceConfig(
        iterations=40,
        modifiers_per_iteration=auto_modifier_range(csr.num_vertices),
        mix={"edge_insert": 0.2, "edge_delete": 0.2,
             "vertex_insert": 0.3, "vertex_delete": 0.3},
        seed=seed,
    )
    expected = [list(batch) for batch in generate_trace(csr, config)]
    assert [list(b) for b in inputs.fast_trace(csr, config)] == expected


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_metrics_and_determinism(workload):
    first_record, first = parse(run_bench(workload, trace=0))
    second_record, second = parse(run_bench(workload, trace=0))
    check_metrics(first, SPEC["end_to_end"])
    check_metrics(second, SPEC["end_to_end"])
    assert first_record["outputs"] == second_record["outputs"]
    for name in ("final_cut", "modeled_batch_us"):
        assert first["metrics"][name] == second["metrics"][name]
    assert all(m["value"] > 0 for m in first["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_metrics(workload):
    record, result = parse(run_bench(workload, trace=1))
    check_metrics(result, SPEC["per_layer"])
    assert record["traced_episodes"] >= 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["partition.fm.calls"] >= 1
    assert metrics["gpusim.warp_instructions"] > 0
    if workload.startswith("serve"):
        assert metrics["stream.apply_window_s"] > 0
        assert metrics["serve.protocol.frame_bytes"] > 0
    else:
        assert metrics["stream.apply_window_s"] == 0


def test_spec_and_layer_map_agree():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    mapped = [m for layer in layer_map["layers"] for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    for layer in layer_map["layers"]:
        for move in layer["moves"]:
            assert move["metric"] in names
            assert move["workload"] in WORKLOAD_NAMES + ["*"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOAD_NAMES[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
