"""Shared workload generation and result schema for the bench suite.

Every bench script draws its inputs from :func:`seeded_workload` (one
deterministic generator, so two scripts asking for the same scale and
seed measure the *same* graph and modifier trace) and reports through
:func:`bench_record` (one JSON schema, so ``tools/gates/perf.py`` and the
results post-processing can consume any bench output uniformly).

Record schema (``schema: repro-bench-v1``)::

    {
      "schema": "repro-bench-v1",
      "name": "<bench name>",
      "workload": {"n_vertices", "n_edges", "batches", "k", "mode", "seed"},
      "host_seconds": {"<phase>": float, ..., "sweep_total": float},
      "device_seconds": {"modification": float, "partitioning": float},
      "ledger": {"warp_instructions": int, "transactions": int},
      "final_cut": int,
      "partition_sha256": "<hex digest of the label array>"
    }

``host_seconds`` are wall-clock and machine-dependent; everything else
is deterministic output of the simulated GPU and must be bit-identical
across machines and runs.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.eval.workloads import (
    TraceConfig,
    auto_modifier_range,
    generate_trace,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import circuit_graph
from repro.graph.modifiers import Modifier

SCHEMA = "repro-bench-v1"


def seeded_workload(
    n_vertices: int,
    batches: int,
    seed: int = 7,
    edge_ratio: float = 1.3,
) -> tuple[CSRGraph, list[Sequence[Modifier]]]:
    """The canonical bench workload: a circuit graph plus an
    incremental modifier trace, fully determined by the arguments."""
    csr = circuit_graph(n_vertices, edge_ratio=edge_ratio, seed=seed)
    trace = generate_trace(
        csr,
        TraceConfig(
            iterations=batches,
            modifiers_per_iteration=auto_modifier_range(csr.num_vertices),
            seed=seed,
        ),
    )
    return csr, trace


def partition_digest(partition: np.ndarray) -> str:
    """SHA-256 of the raw label array (bit-identity witness)."""
    return hashlib.sha256(
        np.ascontiguousarray(partition).tobytes()
    ).hexdigest()


def bench_record(
    name: str,
    *,
    workload: dict,
    host_seconds: dict,
    device_seconds: dict,
    ledger: dict,
    final_cut: int,
    partition_sha256: str,
) -> dict:
    """Assemble one result in the common schema (see module docstring)."""
    return {
        "schema": SCHEMA,
        "name": name,
        "workload": workload,
        "host_seconds": {k: float(v) for k, v in host_seconds.items()},
        "device_seconds": {
            k: float(v) for k, v in device_seconds.items()
        },
        "ledger": {k: int(v) for k, v in ledger.items()},
        "final_cut": int(final_cut),
        "partition_sha256": partition_sha256,
    }
