"""Perf-regression gate: perfbench's three workloads at smoke scale.

Runs each workload of the benchmark (``sweep-77k-k8``,
``largek-20k-k256``, ``serve-churn-2t``) through perfbench's own
episode runner (``perfbench/workloads.py``) on inputs drawn by
``perfbench/inputs.py``, at perfbench's ``smoke`` scale and seed
:data:`SEED`: one untraced episode, then one traced episode.  One stage
per workload compares the fresh record with that workload's entry in
``tools/perf_baseline.json``:

* **perfbench's output checks** — the two episodes' deterministic
  outputs must be identical, the engine partition balanced (and
  ``validate()``-clean), the serve digests equal to a standalone
  replay, the per-worker cycle attribution exact, and no operation may
  fail.
* **deterministic pins** — the final cut, the partition sha256, the
  incremental window's ledger counters, its modeled µs per batch by
  ledger section and (engine workloads) the ledger counters of the full
  partition must match the baseline exactly (modeled µs to 1e-9
  relative).  A mismatch means the cost-parity or bit-identity contract
  broke, not that the machine is slow.
* **host time** — the untraced episode's incremental phase may not run
  more than ``TOLERANCE`` (20%) over the baseline, plus an absolute
  floor so jitter on a loaded machine cannot flake the gate.
* **cut read** — the per-batch cut read must stay an incremental
  O(k^2) lookup: in the traced episode, the CutAccumulator's cut reads
  and their lazy bootstrap may take at most ``CUT_HOST_FRACTION`` of
  the incremental phase (plus a jitter floor).  Before the accumulator
  this read re-scanned the pool and was ~67% of the sweep.

``python tools/gate.py --update perf`` re-measures every workload and
rewrites ``tools/perf_baseline.json``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import inputs
import workloads
from repro.core.igkway import IGKway
from repro.partition.config import PartitionConfig
from repro.utils.errors import ReproError

from gates import REPO_ROOT, Stage

BASELINE_PATH = REPO_ROOT / "tools" / "perf_baseline.json"
SCALE = "smoke"
#: The modifier seed of every workload (perfbench's documented seed).
SEED = 1
#: Allowed fractional host-time regression of the incremental phase.
TOLERANCE = 0.20
# Below this absolute slack (seconds) a wall-clock difference is noise,
# not a regression: each smoke phase only takes tens of ms.
ABSOLUTE_FLOOR = 0.05
# The per-batch cut read must stay incremental: at most this fraction
# of the phase's host time (it was ~0.67 when it re-scanned the pool),
# with an absolute floor below which timer jitter dominates.
CUT_HOST_FRACTION = 0.10
CUT_HOST_FLOOR = 0.01

#: perfbench's ledger output names, as pinned.
LEDGER_COUNTERS = ("warp_instructions", "transactions", "atomics",
                   "kernel_launches")
#: Ledger sections of one batch, by perfbench's per-layer metric name.
SECTIONS = ("modification", "partitioning", "cut")


def workload_inputs(workload: workloads.Workload):
    """The seeded smoke-scale inputs of ``workload``, drawn afresh:
    perfbench's pickle cache would outlive a change to the generators."""
    scale = workload.scales[SCALE]
    if workload.kind == "engine":
        return inputs.engine_inputs(scale["n_vertices"], scale["batches"],
                                    SEED)
    return inputs.serve_inputs(scale["n_vertices"], scale["tenants"],
                               scale["rounds"], scale["fanout"], SEED)


def full_partition_ledger(csr, k: int) -> dict:
    """Ledger counters of one from-scratch ``full_partition``."""
    ig = IGKway(csr, PartitionConfig(k=k))
    ig.full_partition()
    total = ig.ctx.ledger.total
    return {
        "warp_instructions": total.warp_instructions,
        "transactions": total.transactions,
        "atomics": total.atomic_ops,
        "kernel_launches": total.kernel_launches,
    }


def measure(workload: workloads.Workload) -> dict:
    """One untraced and one traced episode of ``workload``; raises
    ``workloads.CheckFailed`` (or ``ReproError``) when an output check
    fails."""
    data = workload_inputs(workload)
    with tempfile.TemporaryDirectory() as scratch:
        plain, probed = workloads.run_episodes(
            workload, SCALE, data, 0.0, True, Path(scratch))
    failed = sum(e.failed for e in plain + probed)
    workloads.check(failed == 0, f"{failed} operations failed")
    episode, traced = plain[0], probed[0]
    outputs = episode.outputs
    pins = {
        "final_cut": outputs["final_cut"],
        "partition_sha256": outputs["partition_sha256"],
        "window.batches": outputs["batches"],
        "modeled_us.batch": outputs["modeled_batch_us"],
    }
    pins.update({f"window.{name}": outputs[name] for name in LEDGER_COUNTERS})
    pins.update({
        f"modeled_us.{section}": traced.layer[f"gpusim.modeled_{section}_us"]
        for section in SECTIONS
    })
    if workload.kind == "engine":
        counters = full_partition_ledger(data.csr, workload.scales[SCALE]["k"])
        pins.update({f"full_partition.{n}": v for n, v in counters.items()})
    return {
        "host_s": episode.busy_s,
        "traced_host_s": traced.busy_s,
        "cut_read_s": (traced.layer["partition.cutacc.cut_size_s"]
                       + traced.layer["partition.cutacc.ensure_s"]),
        "pins": pins,
    }


def _same(want, got) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= 1e-9 * max(1.0, abs(want))
    return want == got


def compare(base: dict, fresh: dict) -> list[str]:
    """Failure messages for one workload (empty = the stage passes).

    ``base`` is a baseline entry (``host_s``, ``pins``); ``fresh`` is a
    :func:`measure` record."""
    failures = [
        f"deterministic output {key!r} changed: "
        f"baseline={base['pins'].get(key)!r} fresh={fresh['pins'].get(key)!r}"
        for key in sorted(base["pins"].keys() | fresh["pins"].keys())
        if not _same(base["pins"].get(key), fresh["pins"].get(key))
    ]
    limit = base["host_s"] * (1.0 + TOLERANCE) + ABSOLUTE_FLOOR
    if fresh["host_s"] > limit:
        failures.append(
            f"host incremental phase regressed: {fresh['host_s']:.3f}s > "
            f"{base['host_s']:.3f}s * {1 + TOLERANCE:.2f} + {ABSOLUTE_FLOOR}s"
        )
    cut_limit = CUT_HOST_FRACTION * fresh["traced_host_s"] + CUT_HOST_FLOOR
    if fresh["cut_read_s"] > cut_limit:
        failures.append(
            f"cut read host time {fresh['cut_read_s']:.3f}s exceeds "
            f"{CUT_HOST_FRACTION:.0%} of the {fresh['traced_host_s']:.3f}s "
            f"incremental phase (+{CUT_HOST_FLOOR}s floor) — the per-batch "
            "cut read is no longer incremental"
        )
    return failures


def summary(base: dict, fresh: dict) -> str:
    pins = fresh["pins"]
    return (
        f"host {fresh['host_s'] * 1e3:.1f}ms "
        f"(baseline {base['host_s'] * 1e3:.1f}ms), "
        f"cut read {fresh['cut_read_s'] * 1e3:.2f}ms, "
        f"window ledger {pins['window.warp_instructions']} instr / "
        f"{pins['window.transactions']} trans, cut {pins['final_cut']}"
    )


def run() -> tuple[list[Stage], dict[str, str]]:
    baseline = json.loads(BASELINE_PATH.read_text())
    stages = []
    for name, workload in workloads.WORKLOADS.items():
        stage = f"{name} ({SCALE}, seed {SEED}) vs {BASELINE_PATH.name}"
        try:
            fresh = measure(workload)
        except (workloads.CheckFailed, ReproError) as exc:
            stages.append(Stage(stage, [f"output check failed: {exc}"]))
            continue
        stages.append(Stage(stage, compare(baseline[name], fresh),
                            [summary(baseline[name], fresh)]))
    return stages, {}


def rebaseline() -> str:
    """Re-measure every workload and rewrite the baseline file."""
    baseline = {}
    for name, workload in workloads.WORKLOADS.items():
        fresh = measure(workload)
        baseline[name] = {"host_s": fresh["host_s"], "pins": fresh["pins"]}
    BASELINE_PATH.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return (f"perf: {len(baseline)} workload baselines written to "
            f"{BASELINE_PATH.relative_to(REPO_ROOT)}")
