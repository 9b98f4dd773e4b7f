"""The perf gate's comparison (``tools/gates/perf.py:compare``) on dict
fixtures: no workload runs, only the pass/fail rules."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
for entry in (REPO_ROOT / "tools", REPO_ROOT / "perfbench"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from gates import perf  # noqa: E402

BASE = {
    "host_s": 0.030,
    "pins": {
        "final_cut": 234,
        "partition_sha256": "38c381bd" * 8,
        "window.batches": 12,
        "window.warp_instructions": 261_917,
        "window.transactions": 72_761,
        "modeled_us.batch": 5240.410785634119,
        "modeled_us.modification": 22.05333333333333,
        "modeled_us.partitioning": 5212.700448933782,
        "modeled_us.cut": 5.657003367003369,
        "full_partition.warp_instructions": 648_196,
    },
}


def fresh_record(**changes) -> dict:
    """A record that matches :data:`BASE`, with ``changes`` applied
    (``pins`` entries by their key, the rest at top level)."""
    record = {
        "host_s": BASE["host_s"],
        "traced_host_s": 0.035,
        "cut_read_s": 0.001,
        "pins": copy.deepcopy(BASE["pins"]),
    }
    for key, value in changes.items():
        target = record["pins"] if key in record["pins"] else record
        target[key] = value
    return record


def test_matching_record_passes():
    assert perf.compare(BASE, fresh_record()) == []


def test_float_pins_allow_only_summation_noise():
    wobble = BASE["pins"]["modeled_us.batch"] * (1 + 1e-12)
    assert perf.compare(BASE, fresh_record(**{"modeled_us.batch": wobble})) == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("partition_sha256", "0" * 64),
        ("final_cut", 235),
        ("window.warp_instructions", 261_918),
        ("full_partition.warp_instructions", 648_195),
        ("modeled_us.partitioning", 5212.71),
        ("modeled_us.cut", 5.657003367003369 * (1 + 1e-6)),
    ],
)
def test_changed_pin_fails(key, value):
    failures = perf.compare(BASE, fresh_record(**{key: value}))
    assert len(failures) == 1
    assert key in failures[0]


def test_missing_or_extra_pin_fails():
    record = fresh_record()
    del record["pins"]["modeled_us.cut"]
    record["pins"]["window.atomics"] = 202
    failures = perf.compare(BASE, record)
    assert len(failures) == 2


def test_host_regression_beyond_tolerance_plus_floor_fails():
    limit = BASE["host_s"] * (1 + perf.TOLERANCE) + perf.ABSOLUTE_FLOOR
    assert perf.compare(BASE, fresh_record(host_s=limit - 1e-6)) == []
    failures = perf.compare(BASE, fresh_record(host_s=limit + 1e-6))
    assert len(failures) == 1 and "host" in failures[0]


def test_cut_read_share_above_bound_fails():
    traced = 0.5
    limit = perf.CUT_HOST_FRACTION * traced + perf.CUT_HOST_FLOOR
    ok = fresh_record(traced_host_s=traced, cut_read_s=limit - 1e-6)
    assert perf.compare(BASE, ok) == []
    slow = fresh_record(traced_host_s=traced, cut_read_s=limit + 1e-6)
    failures = perf.compare(BASE, slow)
    assert len(failures) == 1 and "cut read" in failures[0]


def test_baseline_covers_every_workload():
    baseline = json.loads(perf.BASELINE_PATH.read_text())
    assert set(baseline) == set(perf.workloads.WORKLOADS)
    for name, entry in baseline.items():
        assert entry["host_s"] > 0
        keys = set(entry["pins"])
        assert {"final_cut", "partition_sha256", "window.warp_instructions",
                "modeled_us.modification", "modeled_us.partitioning",
                "modeled_us.cut"} <= keys
        if perf.workloads.WORKLOADS[name].kind == "engine":
            assert "full_partition.warp_instructions" in keys
