"""Transactional-layer overhead and recovery-cost benchmark.

Measures what the fault-tolerance machinery costs on the hot path and
what a rollback costs when a batch actually fails:

* **undo-log overhead** — the same seeded incremental sweep with
  ``transactional=True`` (the default: pre-image undo log + partition
  snapshot armed on every batch) and ``transactional=False``.  The
  deterministic device-side ledger must be *identical* (the success
  path charges nothing for arming the log — the cost-parity contract
  from docs/ARCHITECTURE.md); the host overhead is reported.

* **rollback cost** — repeated failed batches (an injected mid-kernel
  abort after real writes have landed) and the modeled device seconds
  of the ``"rollback"`` ledger section per event, versus the forward
  cost of the failed attempt.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke
    PYTHONPATH=src python benchmarks/bench_chaos.py --out run.json

Also collected by pytest as a smoke test asserting the success-path
cost-parity contract.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.igkway import IGKway
from repro.eval.workloads import seeded_workload
from repro.graph.modifiers import EdgeInsert, ModifierBatch
from repro.partition.config import PartitionConfig
from repro.serve.registry import partition_sha256
from repro.utils.faultinject import FaultInjector, InjectedAbort

FULL_SCALE = {"n_vertices": 20_000, "batches": 8}
SMOKE_SCALE = {"n_vertices": 2_000, "batches": 4}


def run_sweep(n_vertices, batches, seed=7, k=8, mode="vector",
              transactional=True):
    """One incremental sweep; returns its record (host seconds plus the
    deterministic ledger, cut and partition digest)."""
    csr, trace = seeded_workload(n_vertices, batches, seed=seed)
    ig = IGKway(csr, PartitionConfig(k=k, mode=mode))
    ig.full_partition()
    dev_mod = dev_part = 0.0
    t0 = time.perf_counter()
    for batch in trace:
        report = ig.apply(batch, transactional=transactional)
        dev_mod += report.modification_seconds
        dev_part += report.partitioning_seconds
    sweep_total = time.perf_counter() - t0
    ledger = ig.ctx.ledger.total
    return {
        "name": "chaos_txn" if transactional else "chaos_raw",
        "workload": {
            "n_vertices": csr.num_vertices,
            "n_edges": int(csr.num_edges),
            "batches": batches,
            "k": k,
            "mode": mode,
            "seed": seed,
        },
        "host_seconds": {"sweep_total": sweep_total},
        "device_seconds": {
            "modification": dev_mod,
            "partitioning": dev_part,
        },
        "ledger": {
            "warp_instructions": int(ledger.warp_instructions),
            "transactions": int(ledger.transactions),
        },
        "final_cut": int(ig.cut_size()),
        "partition_sha256": partition_sha256(ig.state.partition),
    }


def measure_rollback(n_vertices=2_000, events=20, seed=7, k=8,
                     mode="vector"):
    """Average modeled cost of a rollback vs its failed forward attempt."""
    csr, _trace = seeded_workload(n_vertices, 1, seed=seed)
    ig = IGKway(csr, PartitionConfig(k=k, mode=mode))
    ig.full_partition()
    injector = FaultInjector(seed)
    rng = np.random.default_rng(seed + 1)
    ledger = ig.ctx.ledger
    active = ig.graph.active_vertices()
    rollback_s = forward_s = 0.0
    fired = 0
    taken = set()
    for _ in range(events):
        mods = []
        while len(mods) < 6:
            u = int(active[rng.integers(len(active))])
            v = int(active[rng.integers(len(active))])
            if u != v and (u, v) not in taken and not ig.graph.has_edge(u, v):
                taken.add((u, v))
                taken.add((v, u))
                mods.append(EdgeInsert(u, v))
        before_total = ledger.seconds()
        before_rollback = ledger.seconds("rollback")
        try:
            with injector.kernel_abort(ig.graph, after_writes=4):
                ig.apply(ModifierBatch(mods))
        except InjectedAbort:
            fired += 1
        event_rollback = ledger.seconds("rollback") - before_rollback
        rollback_s += event_rollback
        forward_s += (ledger.seconds() - before_total) - event_rollback
    return {
        "events": fired,
        "rollback_seconds_per_event": rollback_s / max(fired, 1),
        "forward_seconds_per_event": forward_s / max(fired, 1),
    }


def run_bench(n_vertices, batches, seed=7):
    txn = run_sweep(n_vertices, batches, seed=seed, transactional=True)
    raw = run_sweep(n_vertices, batches, seed=seed, transactional=False)
    # Cost-parity contract: arming the undo log is free on the device.
    assert txn["ledger"] == raw["ledger"], (
        "transactional sweep changed the deterministic ledger: "
        f"{txn['ledger']} != {raw['ledger']}"
    )
    assert txn["partition_sha256"] == raw["partition_sha256"], (
        "transactional sweep changed the partition"
    )
    txn["rollback"] = measure_rollback(
        n_vertices=min(n_vertices, 2_000), seed=seed
    )
    txn["host_overhead_ratio"] = (
        txn["host_seconds"]["sweep_total"]
        / max(raw["host_seconds"]["sweep_total"], 1e-12)
    )
    return txn


def test_cost_parity_smoke():
    """Pytest entry point: undo log must not move the ledger."""
    record = run_bench(seed=11, **SMOKE_SCALE)
    assert record["rollback"]["events"] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    record = run_bench(seed=args.seed, **scale)
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(
        f"\nundo-log host overhead: "
        f"{(record['host_overhead_ratio'] - 1) * 100:+.1f}% "
        f"(device ledger identical by assertion)",
        file=sys.stderr,
    )
    rollback = record["rollback"]
    print(
        f"rollback: {rollback['rollback_seconds_per_event']:.3e}s/event "
        f"vs forward {rollback['forward_seconds_per_event']:.3e}s/event",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
