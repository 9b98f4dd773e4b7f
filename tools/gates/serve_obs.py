"""Serve observability gate: tracing, dashboards, flight recorder.

Drives a seeded two-tenant workload through an in-process
:class:`~repro.serve.server.ServerThread` with one shared
:class:`~repro.obs.distrib.TraceRecorder` wired into both the clients
and the server, and enforces the serve-tracing contracts end to end:

* **trace connectivity** — every recorded span belongs to a trace;
  each trace has exactly one root, the ``client.<op>`` span; every
  other span's parent resolves inside the same trace; the trace count
  equals the number of client calls issued; and at least one submit
  trace demonstrably spans all four roles (client span → server op
  span → worker execute span → folded engine spans);
* **exact attribution** — per tenant, the device cycles summed over
  the ``serve.<op>`` op spans equal the scraped
  ``serve_tenant_device_cycles_total`` *bit-exactly* (the server
  mirrors the same settled float into both);
* **deterministic structure** — two runs of the identical seeded
  workload produce bit-identical ``structure_digest()`` views (host
  start/duration are the only fields allowed to differ);
* **live dashboard** — ``GET /debug/dashboard`` returns a
  self-contained HTML page whose embedded dataset agrees exactly with
  an independent parse of the ``/metrics`` scrape;
* **flight recorder** — a chaos ``kill-worker`` leaves a
  ``flightrec-*.jsonl`` dump in the data dir that
  :func:`~repro.obs.distrib.validate_flight` (the ``repro-obs
  flightrec`` checker) accepts, naming the dead worker.

Writes ``results/serve_obs.txt`` (deterministic: no dump time stamp or
page size) and ``results/dashboard.html`` (untracked: its latency
histograms are host-timed; CI uploads it).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.obs.dashboard import (
    DASHBOARD_SCHEMA,
    dashboard_data,
    extract_data_block,
)
from repro.obs.distrib import (
    TraceRecorder,
    load_flight,
    validate_flight,
)
from repro.serve import ServerConfig, ServerThread

from gates import (
    Stage,
    clean_modifiers,
    close_clients,
    create_sessions,
    http_get,
    make_clients,
    report_text,
)

#: Seeded two-tenant workload (clean insert-only streams, so cycle
#: attribution is exact and no quarantine path fires).
TENANTS = {
    "acme": {
        "graph": {
            "generator": "circuit",
            "args": {"num_vertices": 72, "edge_ratio": 1.3, "seed": 11},
        },
        "k": 3,
        "seed": 4,
        "modifiers": 24,
        "stride": 17,
    },
    "bravo": {
        "graph": {
            "generator": "community",
            "args": {"num_vertices": 64, "edges_per_vertex": 4, "seed": 6},
        },
        "k": 4,
        "seed": 9,
        "modifiers": 18,
        "stride": 23,
    },
}

CHUNK = 6

#: Engine-touching ops the workload issues per tenant, in order.
WORKLOAD_OPS = ("create", "submit", "flush", "digest")


STREAMS = {name: clean_modifiers(TENANTS[name]) for name in sorted(TENANTS)}


def run_traced(data_dir: str) -> dict:
    """One seeded traced run; returns everything the checks consume."""
    recorder = TraceRecorder(session="serve-obs-gate")
    calls = 0
    with ServerThread(
        ServerConfig(
            workers=2,
            data_dir=data_dir,
            trace_recorder=recorder,
            flight_capacity=256,
        )
    ) as thread:
        clients = make_clients(
            thread.tcp_port, TENANTS, retry_seed=7, trace_recorder=recorder
        )
        create_sessions(clients, TENANTS, CHUNK)
        calls += len(TENANTS)
        for name in sorted(TENANTS):
            stream = STREAMS[name]
            for offset in range(0, len(stream), CHUNK):
                clients[name].submit(
                    "s0", stream[offset : offset + CHUNK]
                )
                calls += 1
        digests = {}
        for name in sorted(TENANTS):
            clients[name].flush("s0", drain=True)
            digests[name] = clients[name].digest("s0")["sha256"]
            calls += 3  # flush + digest + metrics (below)
        tenant_metrics = {
            name: clients[name].metrics()["metrics"]
            for name in sorted(TENANTS)
        }
        close_clients(clients)
        _, dashboard_html = http_get(thread.http_port, "/debug/dashboard")
        _, scrape = http_get(thread.http_port, "/metrics")
    return {
        "recorder": recorder,
        "calls": calls,
        "digests": digests,
        "tenant_metrics": tenant_metrics,
        "dashboard_html": dashboard_html,
        "scrape": scrape,
    }


# -- check 1: every span joins one connected, client-rooted trace ---------------


def check_connectivity(run: dict, report: list) -> list[str]:
    failures: list[str] = []
    recorder: TraceRecorder = run["recorder"]
    groups = recorder.traces()
    orphans = groups.pop("", [])
    if orphans:
        failures.append(
            f"{len(orphans)} recorded spans carry no trace context "
            f"(first: {orphans[0].name!r})"
        )
    if len(groups) != run["calls"]:
        failures.append(
            f"trace count {len(groups)} != client calls issued "
            f"{run['calls']} (each call must mint exactly one trace)"
        )
    full_role_traces = 0
    for trace_id in sorted(groups):
        events = groups[trace_id]
        ids = {event.span_id for event in events}
        roots = [e for e in events if e.parent is None]
        if len(roots) != 1:
            failures.append(
                f"trace {trace_id!r} has {len(roots)} roots "
                "(expected exactly the client span)"
            )
            continue
        if not roots[0].name.startswith("client."):
            failures.append(
                f"trace {trace_id!r} is rooted at {roots[0].name!r}, "
                "not a client span"
            )
        broken = [
            e.name
            for e in events
            if e.parent is not None and e.parent not in ids
        ]
        if broken:
            failures.append(
                f"trace {trace_id!r} has spans whose parents resolve "
                f"outside the trace: {broken[:3]}"
            )
        names = {event.name for event in events}
        if (
            any(n.startswith("client.") for n in names)
            and any(
                n == f"serve.{op}" for n in names for op in WORKLOAD_OPS
            )
            and "serve.worker.execute" in names
            and any(
                e.depth >= 3 or e.kind == "kernel" for e in events
            )
        ):
            full_role_traces += 1
    if full_role_traces == 0:
        failures.append(
            "no trace spans all four roles "
            "(client -> server -> worker -> engine)"
        )
    report.append(
        f"  {len(groups)} traces, {len(recorder.events)} spans, "
        f"{full_role_traces} spanning client->server->worker->engine"
    )
    return failures


# -- check 2: op-span cycles == scraped per-tenant cycle counters ----------------


def check_attribution(run: dict, report: list) -> list[str]:
    failures: list[str] = []
    recorder: TraceRecorder = run["recorder"]
    span_cycles = {name: 0.0 for name in sorted(TENANTS)}
    for event in recorder.events:
        trace = event.trace
        if trace is None:
            continue
        tenant = trace.get("tenant")
        if tenant not in span_cycles:
            continue
        if event.name == f"serve.{trace.get('op')}":
            span_cycles[tenant] += event.device_cycles
    for name in sorted(TENANTS):
        scraped = run["tenant_metrics"][name].get(
            "serve_tenant_device_cycles_total", 0.0
        )
        if span_cycles[name] != scraped:
            failures.append(
                f"tenant {name!r}: op-span cycles {span_cycles[name]!r}"
                f" != scraped serve_tenant_device_cycles_total "
                f"{scraped!r} (attribution must be bit-exact)"
            )
        report.append(
            f"  {name:<6} op-span cycles {span_cycles[name]:.1f} "
            f"scrape {scraped:.1f} "
            f"{'exact' if span_cycles[name] == scraped else 'MISMATCH'}"
        )
    return failures


# -- check 3: two seeded runs, bit-identical trace structure ---------------------


def check_determinism(
    run: dict, rerun: dict, report: list
) -> list[str]:
    failures: list[str] = []
    first = run["recorder"].structure_digest()
    second = rerun["recorder"].structure_digest()
    if run["digests"] != rerun["digests"]:
        failures.append(
            "partition digests differ between identical seeded runs"
        )
    if first != second:
        divergence = len(first)
        for index, (a, b) in enumerate(zip(first, second)):
            if a != b:
                divergence = index
                break
        failures.append(
            f"trace structure diverged between identical seeded runs "
            f"(at event {divergence} of {len(first)}/{len(second)})"
        )
    report.append(
        f"  run 1: {len(first)} events, run 2: {len(second)} events, "
        f"structure {'identical' if first == second else 'DIVERGED'}"
    )
    return failures


# -- check 4: /debug/dashboard agrees with the scrape ----------------------------


def check_dashboard(run: dict, report: list) -> list[str]:
    failures: list[str] = []
    page = run["dashboard_html"]
    if not page.lstrip().lower().startswith("<!doctype html"):
        failures.append("/debug/dashboard is not an HTML document")
    for needle in ("<svg", "</html>", DASHBOARD_SCHEMA):
        if needle not in page:
            failures.append(
                f"dashboard page is missing {needle!r}"
            )
    for external in ("<script src=", "<link rel="):
        if external in page:
            failures.append(
                f"dashboard is not self-contained: found {external!r}"
            )
    try:
        embedded = extract_data_block(page)
    except ValueError as err:
        failures.append(f"dashboard data block unreadable: {err}")
        return failures
    independent = dashboard_data(run["scrape"])
    if embedded != independent:
        keys = [
            key
            for key in sorted(set(embedded) | set(independent))
            if embedded.get(key) != independent.get(key)
        ]
        failures.append(
            "dashboard dataset disagrees with an independent parse of "
            f"/metrics (differing keys: {keys})"
        )
    tenants = sorted(embedded.get("tenants", {}))
    report.append(
        f"  tenants {tenants}, "
        f"dataset {'matches' if embedded == independent else 'MISMATCH'}"
        " the /metrics scrape"
    )
    return failures


# -- check 5: chaos worker kill leaves a valid flight dump -----------------------


def check_flight_dump(report: list) -> list[str]:
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as data_dir:
        with ServerThread(
            ServerConfig(
                workers=2,
                data_dir=data_dir,
                enable_chaos=True,
                flight_capacity=256,
            )
        ) as thread:
            clients = make_clients(thread.tcp_port, TENANTS, retry_seed=7)
            for name in sorted(TENANTS):
                spec = TENANTS[name]
                clients[name].create(
                    "s0",
                    spec["graph"],
                    k=spec["k"],
                    seed=spec["seed"],
                    target_batch_size=CHUNK,
                )
                clients[name].submit("s0", STREAMS[name][:CHUNK])
            clients["acme"].kill_worker(0, reason="obs gate")
            dumps = sorted(Path(data_dir).glob("flightrec-*.jsonl"))
            close_clients(clients)
        if not dumps:
            failures.append(
                "kill-worker produced no flightrec-*.jsonl dump"
            )
            return failures
        errors = validate_flight(dumps[-1])
        if errors:
            failures.append(
                f"flight dump fails validation: {errors[0]}"
                + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else "")
            )
            return failures
        header, events = load_flight(dumps[-1])
        if "worker-0-dead" not in header.get("reason", ""):
            failures.append(
                f"flight dump reason {header.get('reason')!r} does not "
                "name the dead worker"
            )
        kinds = sorted({event["kind"] for event in events})
        if "worker_dead" not in kinds:
            failures.append(
                f"flight dump records no worker_dead event ({kinds})"
            )
        if "request" not in kinds:
            failures.append(
                "flight dump holds no request history leading up to "
                f"the fault ({kinds})"
            )
        report.append(
            f"  flightrec-*.jsonl: {len(events)} events {kinds}, "
            f"reason {header.get('reason')!r}, validation clean"
        )
    return failures


def run() -> tuple[list[Stage], dict[str, str]]:
    with tempfile.TemporaryDirectory() as data_dir:
        first = run_traced(data_dir)
    with tempfile.TemporaryDirectory() as data_dir:
        rerun = run_traced(data_dir)
    stages = []
    for name, check in (
        ("trace connectivity (client -> server -> worker -> engine)",
         lambda report: check_connectivity(first, report)),
        ("per-tenant cycle attribution (op spans vs scrape)",
         lambda report: check_attribution(first, report)),
        ("trace structure determinism (two seeded runs)",
         lambda report: check_determinism(first, rerun, report)),
        ("/debug/dashboard self-contained HTML",
         lambda report: check_dashboard(first, report)),
        ("chaos worker kill -> flight recorder dump", check_flight_dump),
    ):
        report: list[str] = []
        stages.append(Stage(name, check(report), report))
    text = report_text(stages, "serve obs gate")
    artifacts = {
        "serve_obs.txt": text + "\n",
        "dashboard.html": first["dashboard_html"],
    }
    return stages, artifacts
