"""Serving bench: protocol overhead and tenant-scaling shape.

The serving layer must be plumbing, not physics: hosting a stream
behind the TCP protocol adds host-side cost (framing, JSON, the event
loop) but charges not one extra simulated device cycle, and packing
more tenants onto one shared device divides throughput without
changing any tenant's bits.  This bench measures both claims:

* **protocol overhead** — the same seeded single-tenant stream run (a)
  standalone through ``StreamSession`` and (b) hosted through
  ``ServeClient`` against an in-process server; reports host-side
  modifiers/second for each, their ratio, and asserts the device-cycle
  totals and final partition sha256 match exactly;
* **tenant scaling** — 1, 2, and 4 tenants with identical per-tenant
  workloads over one shared device; reports aggregate and per-tenant
  host throughput and the per-worker cycle-attribution residual
  (always ~0: attribution is exact by construction);
* **tracing overhead** — the per-call cost of the distributed-tracing
  hooks when tracing is *off* (no ``TraceRecorder`` configured): one
  inactive ``span()`` enter/exit plus one wire-trace parse of an
  untraced request.  Their sum is asserted under
  ``MAX_DISABLED_TRACING_NS`` — the same bound ``MAX_OFF_NS`` in
  ``tools/gates/obs.py`` puts on the span alone — so the serve tracing
  plumbing stays free for servers that never turn it on.

Host numbers are wall clock and machine-dependent; every cycle count
and digest in the record is deterministic.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.graph.generators import circuit_graph  # noqa: E402
from repro.graph.modifiers import EdgeInsert  # noqa: E402
from repro.obs.distrib import parse_wire_trace  # noqa: E402
from repro.obs.tracer import span  # noqa: E402
from repro.partition.config import PartitionConfig  # noqa: E402
from repro.serve import (  # noqa: E402
    ServeClient,
    ServerConfig,
    ServerThread,
    partition_sha256,
)
from repro.stream.scheduler import ledger_cycles  # noqa: E402
from repro.stream.session import StreamSession  # noqa: E402

SMOKE_SCALE = {"n_vertices": 400, "modifiers": 120, "chunk": 10}
FULL_SCALE = {"n_vertices": 1500, "modifiers": 600, "chunk": 25}

GRAPH_SEED = 11
PARTITION_SEED = 3
K = 4

#: Per-call budget for the disabled tracing path (span plus wire-trace
#: parse): the bound ``MAX_OFF_NS`` in ``tools/gates/obs.py`` holds the
#: span alone to.
MAX_DISABLED_TRACING_NS = 1500.0


def _graph_spec(n_vertices: int) -> dict:
    return {
        "generator": "circuit",
        "args": {
            "num_vertices": n_vertices,
            "edge_ratio": 1.4,
            "seed": GRAPH_SEED,
        },
    }


def _stream(n_vertices: int, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        u = int(rng.integers(0, n_vertices))
        v = int(rng.integers(0, n_vertices))
        if u == v:
            v = (v + 1) % n_vertices
        out.append(EdgeInsert(u=u, v=v))
    return out


def run_standalone(scale: dict, tmp: Path) -> dict:
    csr = circuit_graph(**_graph_spec(scale["n_vertices"])["args"])
    session = StreamSession(
        csr,
        PartitionConfig(k=K, seed=PARTITION_SEED),
        journal_dir=tmp / "standalone",
        policy="reject",
    )
    session.start()
    modifiers = _stream(scale["n_vertices"], scale["modifiers"], seed=5)
    start = time.perf_counter()
    for modifier in modifiers:
        session.submit(modifier)
    session.drain()
    elapsed = time.perf_counter() - start
    record = {
        "host_seconds": elapsed,
        "modifiers_per_second": len(modifiers) / max(elapsed, 1e-12),
        "device_cycles": ledger_cycles(session.partitioner.ctx.ledger),
        "sha256": partition_sha256(session.partition),
    }
    session.close()
    return record


def run_hosted(scale: dict, tenants: int) -> dict:
    modifiers = _stream(scale["n_vertices"], scale["modifiers"], seed=5)
    names = [f"t{i}" for i in range(tenants)]
    with ServerThread(ServerConfig(workers=1)) as server:
        clients = {
            name: ServeClient(
                "127.0.0.1", server.tcp_port, tenant=name
            )
            for name in names
        }
        for name in names:
            clients[name].create(
                "main",
                _graph_spec(scale["n_vertices"]),
                k=K,
                seed=PARTITION_SEED,
            )
        start = time.perf_counter()
        chunk = scale["chunk"]
        for offset in range(0, len(modifiers), chunk):
            for name in names:
                clients[name].submit(
                    "main", modifiers[offset : offset + chunk]
                )
        for name in names:
            clients[name].flush("main", drain=True)
        elapsed = time.perf_counter() - start
        digests = {
            name: clients[name].digest("main")["sha256"]
            for name in names
        }
        stats = clients[names[0]].stats()
        for client in clients.values():
            client.close()
    worker = stats["workers"][0]
    residual = abs(
        sum(worker["cycles_by_tenant"].values())
        - worker["total_cycles"]
    )
    total_modifiers = len(modifiers) * tenants
    return {
        "tenants": tenants,
        "host_seconds": elapsed,
        "modifiers_per_second": total_modifiers / max(elapsed, 1e-12),
        "per_tenant_modifiers_per_second": (
            len(modifiers) / max(elapsed, 1e-12)
        ),
        "device_cycles_total": worker["total_cycles"],
        "attribution_residual": residual,
        "sha256": digests[names[0]],
        "digests_identical": len(set(digests.values())) == 1,
    }


def run_tracing_overhead(iterations: int = 50_000) -> dict:
    """Cost of the tracing hooks when no recorder is configured.

    Measures the two per-request hooks an untraced server still
    executes: an inactive ``span()`` (one global read and a shared
    no-op object) and
    ``parse_wire_trace`` on a request that carries no ``"trace"``
    field.  Both are pure host cost; the assertion pins their sum.
    """
    request = {"op": "submit", "session": "bench"}
    start = time.perf_counter_ns()
    for _ in range(iterations):
        with span("serve.bench.probe"):
            pass
    span_off_ns = (time.perf_counter_ns() - start) / iterations
    start = time.perf_counter_ns()
    for _ in range(iterations):
        parse_wire_trace(request)
    wire_parse_ns = (time.perf_counter_ns() - start) / iterations
    per_call = span_off_ns + wire_parse_ns
    if per_call >= MAX_DISABLED_TRACING_NS:
        raise AssertionError(
            f"disabled tracing path costs {per_call:.0f} ns/call, "
            f"over the {MAX_DISABLED_TRACING_NS:.0f} ns budget"
        )
    return {
        "iterations": iterations,
        "span_off_ns": span_off_ns,
        "wire_parse_ns": wire_parse_ns,
        "per_call_ns": per_call,
        "max_ns": MAX_DISABLED_TRACING_NS,
    }


def run_bench(scale: dict, tmp: Path) -> dict:
    standalone = run_standalone(scale, tmp)
    hosted = run_hosted(scale, tenants=1)
    if hosted["sha256"] != standalone["sha256"]:
        raise AssertionError(
            "hosted single-tenant digest diverged from standalone: "
            f"{hosted['sha256'][:16]} != {standalone['sha256'][:16]}"
        )
    scaling = [hosted] + [
        run_hosted(scale, tenants=n) for n in (2, 4)
    ]
    for row in scaling:
        if not row["digests_identical"]:
            raise AssertionError(
                f"{row['tenants']}-tenant run: identical workloads "
                "produced different digests"
            )
    return {
        "schema": "repro-bench-v1",
        "name": "serve",
        "workload": {
            "n_vertices": scale["n_vertices"],
            "modifiers": scale["modifiers"],
            "chunk": scale["chunk"],
            "k": K,
            "graph_seed": GRAPH_SEED,
            "partition_seed": PARTITION_SEED,
        },
        "standalone": standalone,
        "hosted": scaling,
        "serve_tracing_overhead": run_tracing_overhead(),
        "protocol_overhead_ratio": (
            standalone["modifiers_per_second"]
            / max(scaling[0]["modifiers_per_second"], 1e-12)
        ),
    }


def test_serve_bench_smoke(tmp_path):
    """Pytest entry point: hosting must not change bits or cycles."""
    record = run_bench(SMOKE_SCALE, tmp_path)
    assert record["standalone"]["sha256"] == record["hosted"][0]["sha256"]
    assert all(r["attribution_residual"] < 1.0 for r in record["hosted"])
    overhead = record["serve_tracing_overhead"]
    assert overhead["per_call_ns"] < MAX_DISABLED_TRACING_NS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = run_bench(scale, Path(tmp))
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(
        f"\nprotocol overhead: standalone is "
        f"{record['protocol_overhead_ratio']:.2f}x the hosted "
        "throughput (host-side only; device cycles and bits identical "
        "by assertion)",
        file=sys.stderr,
    )
    for row in record["hosted"]:
        print(
            f"{row['tenants']} tenant(s): "
            f"{row['modifiers_per_second']:.0f} mods/s aggregate, "
            f"{row['per_tenant_modifiers_per_second']:.0f} per tenant, "
            f"attribution residual {row['attribution_residual']:.3g}",
            file=sys.stderr,
        )
    overhead = record["serve_tracing_overhead"]
    print(
        f"disabled tracing path: {overhead['per_call_ns']:.0f} ns/call "
        f"(span {overhead['span_off_ns']:.0f} + wire parse "
        f"{overhead['wire_parse_ns']:.0f}; budget "
        f"{overhead['max_ns']:.0f})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
