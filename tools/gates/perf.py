"""Perf-regression gate for the vectorized hot paths.

Re-runs the smoke-scale hot-path sweep (``benchmarks/bench_hotpath.py``)
and compares it against the ``gate`` section of the checked-in
``BENCH_hotpath.json``:

* **deterministic outputs** — ledger counters, final cut, partition
  digest and simulated device-seconds must match the baseline exactly.
  A mismatch means the cost-parity or bit-identity contract broke, not
  that the machine is slow, so it always fails the gate.
* **host wall-clock** — the sweep must not regress more than
  ``TOLERANCE`` (20%) over the baseline, with an absolute floor so
  sub-100ms jitter on a loaded machine cannot flake the gate.
* **cut-size host fraction** — the per-batch cut read must stay an
  incremental O(k^2) lookup: its host time may not exceed
  ``CUT_HOST_FRACTION`` of the sweep (plus a jitter floor).  Before the
  incremental accumulator this phase was ~67% of the sweep; anything
  drifting back toward a pool scan fails here.

``python tools/gate.py --update perf`` re-measures and rewrites the
gate section in place after an intentional perf change.
"""

from __future__ import annotations

import json

from bench_hotpath import run_hotpath

from gates import REPO_ROOT, Stage

BASELINE_PATH = REPO_ROOT / "BENCH_hotpath.json"
#: Allowed fractional host-time regression of the sweep.
TOLERANCE = 0.20
# Below this absolute slack (seconds) a wall-clock difference is noise,
# not a regression: the smoke sweep itself only takes tens of ms.
ABSOLUTE_FLOOR = 0.05
# The per-batch cut read must stay incremental: at most this fraction
# of the sweep's host time (it was ~0.67 when it re-scanned the pool),
# with an absolute floor below which timer jitter dominates.
CUT_HOST_FRACTION = 0.10
CUT_HOST_FLOOR = 0.01


def run_gate_workload(baseline_gate: dict) -> dict:
    w = baseline_gate["workload"]
    return run_hotpath(
        w["n_vertices"],
        w["batches"],
        seed=w["seed"],
        k=w["k"],
        mode=w["mode"],
    )


def compare(baseline_gate: dict, fresh: dict, tolerance: float) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []

    for key in ("ledger", "final_cut", "partition_sha256"):
        if baseline_gate[key] != fresh[key]:
            failures.append(
                f"deterministic output {key!r} changed: "
                f"baseline={baseline_gate[key]!r} fresh={fresh[key]!r}"
            )
    for phase, base_dev in baseline_gate["device_seconds"].items():
        got = fresh["device_seconds"][phase]
        if abs(got - base_dev) > 1e-9 * max(1.0, abs(base_dev)):
            failures.append(
                f"simulated device seconds for {phase!r} changed: "
                f"baseline={base_dev} fresh={got} "
                "(cost-parity contract violation)"
            )

    base_host = baseline_gate["host_seconds"]["sweep_total"]
    fresh_host = fresh["host_seconds"]["sweep_total"]
    limit = base_host * (1.0 + tolerance) + ABSOLUTE_FLOOR
    if fresh_host > limit:
        failures.append(
            f"host sweep regressed: {fresh_host:.3f}s > "
            f"{base_host:.3f}s * {1 + tolerance:.2f} + {ABSOLUTE_FLOOR}s"
        )

    cut_host = fresh["host_seconds"].get("cut-size", 0.0)
    cut_limit = CUT_HOST_FRACTION * fresh_host + CUT_HOST_FLOOR
    if cut_host > cut_limit:
        failures.append(
            f"cut-size host time {cut_host:.3f}s exceeds "
            f"{CUT_HOST_FRACTION:.0%} of the {fresh_host:.3f}s sweep "
            f"(+{CUT_HOST_FLOOR}s floor) — the per-batch cut read is "
            "no longer incremental"
        )
    return failures


def run() -> tuple[list[Stage], dict[str, str]]:
    gate = json.loads(BASELINE_PATH.read_text())["gate"]
    fresh = run_gate_workload(gate)
    summary = (
        f"host sweep {fresh['host_seconds']['sweep_total']*1e3:.1f}ms "
        f"(baseline {gate['host_seconds']['sweep_total']*1e3:.1f}ms), "
        f"ledger {fresh['ledger']['warp_instructions']} instr / "
        f"{fresh['ledger']['transactions']} trans, "
        f"cut {fresh['final_cut']}"
    )
    stage = Stage(
        "smoke sweep vs BENCH_hotpath.json",
        compare(gate, fresh, TOLERANCE),
        [summary],
    )
    return [stage], {}


def rebaseline() -> str:
    """Re-measure and rewrite the baseline's gate section in place."""
    baseline = json.loads(BASELINE_PATH.read_text())
    baseline["gate"] = run_gate_workload(baseline["gate"])
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    return f"perf: baseline gate section updated in {BASELINE_PATH.name}"
