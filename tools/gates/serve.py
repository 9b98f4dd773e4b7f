"""Serving gate: the ``repro.serve`` contracts, enforced.

Boots an in-process :class:`~repro.serve.server.ServerThread` and
drives a seeded three-tenant workload over **one** shared simulated
device, then asserts the guarantees the serving layer sells:

* **bit-identical hosting** — each tenant's final partition sha256
  equals a standalone :class:`~repro.stream.session.StreamSession` run
  of the same seeded workload (interleaving three tenants on a shared
  device must not perturb anyone's result), including across a
  checkpoint-evict-reattach cycle for one tenant;
* **attribution sums** — per-tenant device-cycle charges on each
  worker sum exactly (``math.isclose``) to that worker's total, and
  every tenant's charge is nonzero;
* **valid scrape** — ``GET /metrics`` parses as Prometheus text format
  0.0.4 (HELP/TYPE discipline, sample syntax, finite values) and
  carries one ``tenant``-labeled sample per tenant for the per-tenant
  series;
* **no shedding at low load** — the baseline workload finishes with a
  zero global shed counter and zero per-tenant sheds;
* **typed shedding under overload** — against a second server with a
  tiny backlog watermark, submits are rejected with the retryable
  ``shed-overload`` code, the shed counter is nonzero, and the
  flush-and-resubmit retry loop still lands every modifier: the same
  overload scenario run twice produces the same digest, and an
  evict/re-attach round-trip preserves it (sheds never corrupt state).

Writes ``results/serve.txt`` (consumed by
``tools/build_experiments_md.py``).
"""

from __future__ import annotations

import math
import re
import tempfile

import numpy as np

from repro.graph.modifiers import EdgeDelete, EdgeInsert
from repro.partition.config import PartitionConfig
from repro.serve import (
    ServeClient,
    ServerConfig,
    ServerThread,
    ShedPolicy,
    build_graph,
    partition_sha256,
)
from repro.stream.session import StreamSession
from repro.utils.errors import ServeError

from gates import (
    HOST,
    Stage,
    close_clients,
    http_get,
    make_clients,
    report_text,
)

#: The seeded three-tenant workload: distinct graphs, seeds, and
#: stream lengths so a cross-tenant state leak cannot cancel out.
TENANTS = {
    "acme": {
        "graph": {
            "generator": "circuit",
            "args": {"num_vertices": 400, "edge_ratio": 1.4, "seed": 11},
        },
        "k": 4,
        "seed": 3,
        "modifiers": 120,
        "mod_seed": 101,
    },
    "globex": {
        "graph": {
            "generator": "random",
            "args": {"num_vertices": 300, "edge_ratio": 2.0, "seed": 5},
        },
        "k": 3,
        "seed": 9,
        "modifiers": 90,
        "mod_seed": 202,
    },
    "initech": {
        "graph": {
            "generator": "community",
            "args": {"num_vertices": 350, "edges_per_vertex": 4, "seed": 2},
        },
        "k": 5,
        "seed": 1,
        "modifiers": 100,
        "mod_seed": 303,
    },
}

#: Tenant that additionally goes through checkpoint -> evict ->
#: transparent re-attach mid-stream.
EVICTED_TENANT = "globex"

#: Overload scenario: a deliberately tiny watermark so a short stream
#: trips the shedder.
OVERLOAD = {
    "high_watermark": 8,
    "low_watermark": 0,
    "modifiers": 64,
    "chunk": 4,
}


def make_modifiers(count: int, num_vertices: int, seed: int) -> list:
    """Seeded modifier stream: mostly inserts, some deletes of earlier
    inserts (exercises coalescing through the serving path)."""
    rng = np.random.default_rng(seed)
    out = []
    inserted: list[tuple[int, int]] = []
    for i in range(count):
        if inserted and i % 7 == 6:
            u, v = inserted[int(rng.integers(0, len(inserted)))]
            out.append(EdgeDelete(u=u, v=v))
            continue
        u = int(rng.integers(0, num_vertices))
        v = int(rng.integers(0, num_vertices))
        if u == v:
            v = (v + 1) % num_vertices
        out.append(EdgeInsert(u=u, v=v))
        inserted.append((u, v))
    return out


def standalone_digest(spec: dict, journal_dir: str) -> str:
    """The reference run: one private StreamSession, same stream."""
    csr = build_graph(spec["graph"])
    session = StreamSession(
        csr,
        PartitionConfig(k=spec["k"], seed=spec["seed"]),
        journal_dir=journal_dir,
        policy="reject",
    )
    session.start()
    nv = spec["graph"]["args"]["num_vertices"]
    for modifier in make_modifiers(
        spec["modifiers"], nv, spec["mod_seed"]
    ):
        session.submit(modifier)
    session.drain()
    digest = partition_sha256(session.partition)
    session.close()
    return digest


# -- Prometheus 0.0.4 validation ------------------------------------------------

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^({_METRIC_NAME})(\{{[^{{}}]*\}})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$"
)
_LABEL_RE = re.compile(
    rf'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def validate_prometheus(text: str) -> tuple[list[str], dict]:
    """Validate Prometheus text format 0.0.4; return (failures, samples).

    ``samples`` maps metric name -> list of (labels-dict, value).
    """
    failures: list[str] = []
    typed: dict[str, str] = {}
    helped: set[str] = set()
    samples: dict[str, list] = {}
    if text and not text.endswith("\n"):
        failures.append("scrape does not end with a newline")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not re.fullmatch(_METRIC_NAME, parts[2]):
                failures.append(f"line {lineno}: malformed HELP: {line!r}")
                continue
            if parts[2] in helped:
                failures.append(
                    f"line {lineno}: duplicate HELP for {parts[2]}"
                )
            helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped",
            ):
                failures.append(f"line {lineno}: malformed TYPE: {line!r}")
                continue
            if parts[2] in typed:
                failures.append(
                    f"line {lineno}: duplicate TYPE for {parts[2]}"
                )
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            failures.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name, labelblock, value = match.groups()
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            failures.append(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
        labels = {}
        if labelblock:
            body = labelblock[1:-1].rstrip(",")
            parsed = _LABEL_RE.findall(body)
            stripped = re.sub(_LABEL_RE, "", body).replace(",", "").strip()
            if stripped:
                failures.append(
                    f"line {lineno}: unparseable label block {labelblock!r}"
                )
            labels = dict(parsed)
        try:
            parsed_value = float(value)
        except ValueError:
            failures.append(f"line {lineno}: bad sample value {value!r}")
            continue
        samples.setdefault(name, []).append((labels, parsed_value))
    return failures, samples


# -- checks ---------------------------------------------------------------------


def check_multi_tenant(report: list) -> list[str]:
    """Baseline scenario: 3 tenants, 1 shared device, bit-identity +
    attribution + scrape validity + zero shed."""
    failures: list[str] = []
    with ServerThread(
        ServerConfig(workers=1)
    ) as server_thread, tempfile.TemporaryDirectory() as tmp:
        clients = make_clients(server_thread.tcp_port, TENANTS)
        streams = {}
        for name in sorted(TENANTS):
            spec = TENANTS[name]
            clients[name].create(
                "s0", spec["graph"], k=spec["k"], seed=spec["seed"]
            )
            nv = spec["graph"]["args"]["num_vertices"]
            streams[name] = make_modifiers(
                spec["modifiers"], nv, spec["mod_seed"]
            )
        # Interleave submits round-robin so the tenants genuinely share
        # the device rather than running back to back.
        cursors = {name: 0 for name in sorted(TENANTS)}
        chunk = 10
        progressed = True
        while progressed:
            progressed = False
            for name in sorted(TENANTS):
                cur = cursors[name]
                batch = streams[name][cur : cur + chunk]
                if not batch:
                    continue
                clients[name].submit("s0", batch)
                cursors[name] = cur + len(batch)
                progressed = True
                if name == EVICTED_TENANT and cur == chunk * 3:
                    clients[name].checkpoint("s0")
                    clients[name].evict("s0")
                    # Next touch transparently re-attaches via recover.
        digests = {}
        for name in sorted(TENANTS):
            clients[name].flush("s0", drain=True)
            digests[name] = clients[name].digest("s0")["sha256"]

        for name in sorted(TENANTS):
            ref = standalone_digest(
                TENANTS[name], f"{tmp}/{name}-standalone"
            )
            tag = " (with evict/re-attach)" if name == EVICTED_TENANT else ""
            if digests[name] != ref:
                failures.append(
                    f"tenant {name!r}{tag}: hosted sha256 "
                    f"{digests[name][:16]} != standalone {ref[:16]}"
                )
            report.append(
                f"  {name:<8} sha256={digests[name][:16]}.. "
                f"standalone={'match' if digests[name] == ref else 'MISMATCH'}"
                f"{tag}"
            )

        stats = clients["acme"].stats()
        for worker in stats["workers"]:
            by_tenant = worker["cycles_by_tenant"]
            total = worker["total_cycles"]
            attributed = sum(by_tenant.values())
            if not math.isclose(attributed, total, rel_tol=1e-9):
                failures.append(
                    f"worker {worker['index']}: per-tenant cycles sum "
                    f"{attributed} != total {total}"
                )
            missing = sorted(set(TENANTS) - set(by_tenant))
            if missing:
                failures.append(
                    f"worker {worker['index']}: no cycles attributed "
                    f"to {missing}"
                )
            zero = sorted(t for t, c in by_tenant.items() if c <= 0)
            if zero:
                failures.append(
                    f"worker {worker['index']}: zero cycle charge "
                    f"for {zero}"
                )
            report.append(
                f"  worker {worker['index']}: total={total:.0f} cycles, "
                f"attribution residual="
                f"{abs(attributed - total):.3g}"
            )

        content_type, body = http_get(server_thread.http_port, "/metrics")
        if "version=0.0.4" not in content_type:
            failures.append(
                f"/metrics Content-Type {content_type!r} does not "
                "declare text format 0.0.4"
            )
        prom_failures, samples = validate_prometheus(body)
        failures.extend(f"/metrics: {f}" for f in prom_failures)
        labeled = samples.get("serve_tenant_requests_total", [])
        seen_tenants = sorted(
            labels.get("tenant", "") for labels, _ in labeled
        )
        if seen_tenants != sorted(TENANTS):
            failures.append(
                "per-tenant series serve_tenant_requests_total carries "
                f"labels {seen_tenants}, expected {sorted(TENANTS)}"
            )
        report.append(
            f"  /metrics: {len(body.splitlines())} lines, "
            f"{len(samples)} metric names, tenants={seen_tenants}"
        )

        shed_total = sum(v for _, v in samples.get("serve_shed_total", []))
        tenant_shed = sum(
            v for _, v in samples.get("serve_tenant_shed_total", [])
        )
        if shed_total != 0 or tenant_shed != 0:
            failures.append(
                f"low-load run shed requests (global={shed_total}, "
                f"tenant={tenant_shed}); expected zero"
            )
        report.append(f"  low-load shed counters: global={shed_total:.0f} "
                      f"tenant={tenant_shed:.0f}")
        close_clients(clients)
    return failures


def _run_overload_scenario() -> tuple[str, int, int, str, str]:
    """One overload run; returns (digest, sheds_seen, shed_counter,
    digest_before_evict, digest_after_reattach)."""
    spec = TENANTS["acme"]
    nv = spec["graph"]["args"]["num_vertices"]
    modifiers = make_modifiers(OVERLOAD["modifiers"], nv, spec["mod_seed"])
    config = ServerConfig(
        workers=1,
        shed=ShedPolicy(
            high_watermark=OVERLOAD["high_watermark"],
            low_watermark=OVERLOAD["low_watermark"],
        ),
    )
    sheds_seen = 0
    with ServerThread(config) as server_thread:
        with ServeClient(
            HOST, server_thread.tcp_port, tenant="acme"
        ) as client:
            client.create(
                "s0", spec["graph"], k=spec["k"], seed=spec["seed"]
            )
            pending = list(modifiers)
            while pending:
                batch = pending[: OVERLOAD["chunk"]]
                try:
                    client.submit("s0", batch)
                except ServeError as err:
                    if err.code != "shed-overload":
                        raise
                    if not err.retryable:
                        raise ServeError(
                            "shed-overload response not marked retryable"
                        )
                    sheds_seen += 1
                    client.flush("s0", drain=True)
                    continue  # resubmit the same slice
                pending = pending[OVERLOAD["chunk"]:]
            client.flush("s0", drain=True)
            digest = client.digest("s0")["sha256"]
            stats = client.stats()
            shed_counter = int(
                stats["server_metrics"].get("serve_shed_total", 0)
            )
            client.evict("s0")
            after = client.digest("s0")["sha256"]
    return digest, sheds_seen, shed_counter, digest, after


def check_overload(report: list) -> list[str]:
    """Overload scenario: typed retryable sheds, convergent retries."""
    failures: list[str] = []
    first = _run_overload_scenario()
    second = _run_overload_scenario()
    digest, sheds_seen, shed_counter, before, after = first
    if sheds_seen == 0:
        failures.append(
            "overload run saw no shed-overload rejections "
            f"(watermark={OVERLOAD['high_watermark']})"
        )
    if shed_counter == 0:
        failures.append("serve_shed_total stayed zero under overload")
    if after != before:
        failures.append(
            "evict/re-attach after shedding changed the partition "
            f"({before[:16]} -> {after[:16]})"
        )
    if second[0] != digest:
        failures.append(
            "two identical overload runs diverged "
            f"({digest[:16]} vs {second[0][:16]}); "
            "shedding corrupted state"
        )
    report.append(
        f"  overload: {sheds_seen} typed sheds (client), "
        f"serve_shed_total={shed_counter}, "
        f"rerun={'identical' if second[0] == digest else 'DIVERGED'}, "
        f"evict-roundtrip={'ok' if after == before else 'CORRUPT'}"
    )
    return failures


def run() -> tuple[list[Stage], dict[str, str]]:
    stages = []
    for name, check in (
        ("multi-tenant bit-identity (3 tenants, 1 shared device)",
         check_multi_tenant),
        ("overload shedding", check_overload),
    ):
        report: list[str] = []
        stages.append(Stage(name, check(report), report))
    text = report_text(stages, "serve gate")
    return stages, {"serve.txt": text + "\n"}
