"""Serve chaos gate: crash recovery and failover, enforced end to end.

Drives seeded fault sweeps against in-process
:class:`~repro.serve.server.ServerThread`\\ s and asserts that the serve
layer's durability contracts hold under every injected failure:

* **crash convergence** — a server killed by an injected
  ``crash_after_wal`` fault (process dies between the durable write and
  the ack) and restarted with ``recover=True`` finishes the identical
  workload with the *same* partition sha256 per tenant (strict
  equality) and the same per-tenant ledger cycle totals
  (``math.isclose``: settled-at-checkpoint + deterministic replay must
  equal the uncrashed run's figure) as an uncrashed baseline;
* **transport fault sweep** — with ``torn_response``,
  ``drop_connection``, and ``delay_response`` faults armed one run at a
  time, the retrying client (seeded-jitter backoff + ``next_seq``
  resync) still converges bit-identically and cycle-identically to the
  fault-free reference, and every armed fault actually fired;
* **worker failover** — killing one of two device workers mid-traffic
  (the ``kill-worker`` chaos op) leaves every session intact on the
  survivor, converges to the fault-free digest, keeps the per-worker
  attribution sums exact, reports degraded health (``/healthz`` 503),
  and counts the failover in the recovery metrics;
* **zero quarantine leaks** — the workload is clean by construction, so
  any nonzero quarantine/dead-letter gauge after any run means fault
  handling corrupted a batch.

Windows form only from the deterministic ``target_batch_size``
auto-flush (no mid-traffic manual flushes), so window boundaries —
and therefore partitions and cycle charges — depend on the modifier
stream alone, never on where a crash landed.

Writes ``results/serve_chaos.txt`` (consumed by
``tools/build_experiments_md.py``).
"""

from __future__ import annotations

import json
import math
import tempfile
import urllib.error

from repro.serve import ServerConfig, ServerThread
from repro.utils.errors import ServeError
from repro.utils.faultinject import ServeFaultPlan

from gates import (
    Stage,
    clean_modifiers,
    close_clients,
    create_sessions,
    http_get,
    make_clients,
    report_text,
)

#: Two-tenant seeded workload.  Traffic is *clean* by construction
#: (only inserts of edges absent from graph and stream), because the
#: cycle-parity contract is exact only for poison-free streams: a
#: degraded window is a checkpoint barrier whose post-checkpoint
#: quarantine work recovery intentionally does not replay.
TENANTS = {
    "acme": {
        "graph": {
            "generator": "circuit",
            "args": {"num_vertices": 96, "edge_ratio": 1.3, "seed": 11},
        },
        "k": 3,
        "seed": 4,
        "modifiers": 42,
        "stride": 17,
    },
    "bravo": {
        "graph": {
            "generator": "community",
            "args": {"num_vertices": 80, "edges_per_vertex": 4, "seed": 6},
        },
        "k": 4,
        "seed": 9,
        "modifiers": 36,
        "stride": 23,
    },
}

#: Submit slice size == scheduler target_batch_size: windows form from
#: the modifier count alone.
CHUNK = 6

STREAMS = {name: clean_modifiers(TENANTS[name]) for name in sorted(TENANTS)}


def drive(clients: dict, cursors: dict) -> None:
    """Interleave each tenant's remaining stream in CHUNK slices.

    ``cursors`` maps tenant -> modifiers already accepted by the
    server; on a post-crash resume it comes straight from each
    session's ``next_seq``, which for this append-only workload *is*
    the stream position.
    """
    progressed = True
    while progressed:
        progressed = False
        for name in sorted(TENANTS):
            cur = cursors[name]
            batch = STREAMS[name][cur : cur + CHUNK]
            if not batch:
                continue
            clients[name].submit_with_retry("s0", batch)
            cursors[name] = cur + len(batch)
            progressed = True


def finish(clients: dict) -> tuple[dict, dict, dict]:
    """Drain, digest, and read per-tenant cycle totals + resilience."""
    digests = {}
    for name in sorted(TENANTS):
        clients[name].flush("s0", drain=True)
        digests[name] = clients[name].digest("s0")["sha256"]
    stats = clients["acme"].stats()
    cycles = {name: 0.0 for name in sorted(TENANTS)}
    for worker in stats["workers"]:
        for tenant, charge in worker["cycles_by_tenant"].items():
            cycles[tenant] += charge
    resilience = {
        name: clients[name].metrics()["metrics"] for name in sorted(TENANTS)
    }
    return digests, cycles, resilience


def check_no_quarantine(
    resilience: dict, scenario: str, failures: list
) -> None:
    for name in sorted(resilience):
        snapshot = resilience[name]
        for metric in (
            "serve_tenant_quarantined_modifiers",
            "serve_tenant_dead_letters",
        ):
            value = snapshot.get(metric, 0)
            if value:
                failures.append(
                    f"{scenario}: tenant {name!r} leaked {metric}={value} "
                    "on a clean workload"
                )


def run_baseline(data_dir: str) -> tuple[dict, dict, dict]:
    """The fault-free reference run of the full workload."""
    with ServerThread(
        ServerConfig(workers=2, data_dir=data_dir)
    ) as thread:
        clients = make_clients(thread.tcp_port, TENANTS, retry_seed=7)
        create_sessions(clients, TENANTS, CHUNK)
        drive(clients, {name: 0 for name in sorted(TENANTS)})
        result = finish(clients)
        close_clients(clients)
    return result


# -- scenario 1: crash between WAL and ack, then recover ------------------------


def check_crash_recovery(
    baseline: tuple, report: list
) -> list[str]:
    failures: list[str] = []
    base_digests, base_cycles, _ = baseline
    plan = ServeFaultPlan(seed=20250808)
    plan.arm("crash_after_wal", op="submit", after_matches=5)
    with tempfile.TemporaryDirectory() as data_dir:
        thread = ServerThread(
            ServerConfig(
                workers=2,
                data_dir=data_dir,
                enable_chaos=True,
                fault_plan=plan,
            )
        ).start()
        clients = make_clients(thread.tcp_port, TENANTS, retry_seed=7)
        create_sessions(clients, TENANTS, CHUNK)
        cursors = {name: 0 for name in sorted(TENANTS)}
        crashed = False
        try:
            drive(clients, cursors)
        except (ServeError, OSError):
            # The armed fault killed the server between the durable
            # write and the ack; the in-flight submit's fate is exactly
            # what recovery must resolve.
            crashed = True
        close_clients(clients)
        thread.join_crashed()
        if not crashed or not thread.crashed:
            failures.append(
                "crash_after_wal fault never took the server down "
                f"(client saw crash: {crashed}, "
                f"server crashed: {thread.crashed})"
            )
            return failures
        if plan.armed:
            failures.append(
                f"armed faults never fired: "
                f"{[f.kind for f in plan.armed]}"
            )

        # Restart on the same data dir and finish the workload.
        with ServerThread(
            ServerConfig(workers=2, data_dir=data_dir, recover=True)
        ) as recovered:
            clients = make_clients(recovered.tcp_port, TENANTS, retry_seed=7)
            recoveries = {}
            for name in sorted(TENANTS):
                info = clients[name].attach("s0")
                # next_seq is the resume cursor: exactly the accepted
                # prefix, whether or not its ack ever arrived.
                cursors[name] = info["next_seq"]
                recoveries[name] = info["recoveries"]
            drive(clients, cursors)
            digests, cycles, resilience = finish(clients)
            tenant_recoveries = {
                name: resilience[name].get(
                    "serve_tenant_recoveries_total", 0
                )
                for name in sorted(TENANTS)
            }
            close_clients(clients)

    for name in sorted(TENANTS):
        match = digests[name] == base_digests[name]
        close = math.isclose(
            cycles[name], base_cycles[name], rel_tol=1e-6
        )
        if not match:
            failures.append(
                f"crash recovery: tenant {name!r} digest "
                f"{digests[name][:16]} != baseline "
                f"{base_digests[name][:16]}"
            )
        if not close:
            failures.append(
                f"crash recovery: tenant {name!r} cycles "
                f"{cycles[name]} != baseline {base_cycles[name]}"
            )
        if recoveries[name] < 1:
            failures.append(
                f"crash recovery: tenant {name!r} session reports "
                "zero recoveries after a crash-restart"
            )
        if tenant_recoveries[name] < 1:
            failures.append(
                f"crash recovery: serve_tenant_recoveries_total stayed "
                f"zero for {name!r}"
            )
        report.append(
            f"  {name:<6} digest={'match' if match else 'MISMATCH'} "
            f"cycles={'match' if close else 'MISMATCH'} "
            f"(residual {abs(cycles[name] - base_cycles[name]):.3g}) "
            f"recoveries={recoveries[name]}"
        )
    check_no_quarantine(resilience, "crash recovery", failures)
    return failures


# -- scenario 2: transport fault sweep ------------------------------------------


#: (kind, op, arm kwargs) — one server run per armed fault.
TRANSPORT_FAULTS = (
    ("torn_response", "submit", {"after_matches": 3}),
    ("drop_connection", "submit", {"after_matches": 4}),
    ("delay_response", "submit", {"after_matches": 2, "delay": 0.02}),
)


def check_transport_faults(
    baseline: tuple, report: list
) -> list[str]:
    failures: list[str] = []
    base_digests, base_cycles, _ = baseline
    for kind, op, kwargs in TRANSPORT_FAULTS:
        plan = ServeFaultPlan(seed=41)
        plan.arm(kind, op=op, **kwargs)
        with tempfile.TemporaryDirectory() as data_dir:
            with ServerThread(
                ServerConfig(
                    workers=2,
                    data_dir=data_dir,
                    enable_chaos=True,
                    fault_plan=plan,
                )
            ) as thread:
                clients = make_clients(thread.tcp_port, TENANTS, retry_seed=7)
                create_sessions(clients, TENANTS, CHUNK)
                drive(
                    clients, {name: 0 for name in sorted(TENANTS)}
                )
                digests, cycles, resilience = finish(clients)
                close_clients(clients)
        fired = [f.kind for f in plan.fired]
        if plan.armed or fired != [kind]:
            failures.append(
                f"{kind}: fault coverage wrong (armed left: "
                f"{[f.kind for f in plan.armed]}, fired: {fired})"
            )
        mismatches = [
            name
            for name in sorted(TENANTS)
            if digests[name] != base_digests[name]
        ]
        drifted = [
            name
            for name in sorted(TENANTS)
            if not math.isclose(
                cycles[name], base_cycles[name], rel_tol=1e-9
            )
        ]
        if mismatches:
            failures.append(
                f"{kind}: digests diverged from fault-free baseline "
                f"for {mismatches}"
            )
        if drifted:
            failures.append(
                f"{kind}: cycle totals drifted for {drifted}"
            )
        check_no_quarantine(resilience, kind, failures)
        report.append(
            f"  {kind:<16} fired={len(fired)} "
            f"digest={'match' if not mismatches else 'MISMATCH'} "
            f"cycles={'match' if not drifted else 'DRIFT'}"
        )
    return failures


# -- scenario 3: worker kill + failover -----------------------------------------


def check_worker_failover(
    baseline: tuple, report: list
) -> list[str]:
    failures: list[str] = []
    base_digests, _, _ = baseline
    with tempfile.TemporaryDirectory() as data_dir:
        with ServerThread(
            ServerConfig(
                workers=2, data_dir=data_dir, enable_chaos=True
            )
        ) as thread:
            clients = make_clients(thread.tcp_port, TENANTS, retry_seed=7)
            create_sessions(clients, TENANTS, CHUNK)
            # First half of the traffic on the healthy pool.
            cursors = {name: 0 for name in sorted(TENANTS)}
            half = {
                name: (TENANTS[name]["modifiers"] // (2 * CHUNK))
                * CHUNK
                for name in sorted(TENANTS)
            }
            while any(
                cursors[n] < half[n] for n in sorted(TENANTS)
            ):
                for name in sorted(TENANTS):
                    cur = cursors[name]
                    if cur >= half[name]:
                        continue
                    batch = STREAMS[name][cur : cur + CHUNK]
                    clients[name].submit_with_retry("s0", batch)
                    cursors[name] = cur + len(batch)

            verdict = clients["acme"].kill_worker(0, reason="chaos gate")
            if not verdict["degraded"]:
                failures.append(
                    "kill-worker did not leave the pool degraded"
                )
            if not verdict["restored"]:
                failures.append(
                    "kill-worker restored no sessions (worker 0 "
                    "should have held at least one)"
                )
            try:
                http_get(thread.http_port, "/healthz")
                failures.append(
                    "/healthz answered 200 while a worker was dead"
                )
            except urllib.error.HTTPError as err:
                payload = json.loads(err.read().decode("utf-8"))
                if err.code != 503 or not payload.get("degraded"):
                    failures.append(
                        f"/healthz degraded response wrong: "
                        f"{err.code} {payload}"
                    )

            # Every session must still answer, and the rest of the
            # traffic must land on the survivor.
            for name in sorted(TENANTS):
                info = clients[name].attach("s0")
                if not info["worker_alive"]:
                    failures.append(
                        f"failover: tenant {name!r} still bound to a "
                        "dead worker"
                    )
            drive(clients, cursors)
            digests, _, resilience = finish(clients)
            stats = clients["acme"].stats()
            close_clients(clients)

    for worker in stats["workers"]:
        attributed = sum(worker["cycles_by_tenant"].values())
        if not math.isclose(
            attributed, worker["total_cycles"], rel_tol=1e-9
        ):
            failures.append(
                f"failover: worker {worker['index']} attribution sum "
                f"{attributed} != total {worker['total_cycles']}"
            )
    server_metrics = stats["server_metrics"]
    if server_metrics.get("serve_recovery_sessions_total", 0) < 1:
        failures.append(
            "failover: serve_recovery_sessions_total stayed zero"
        )
    if server_metrics.get("serve_workers_dead", 0) != 1:
        failures.append(
            "failover: serve_workers_dead gauge is not 1"
        )
    mismatches = [
        name
        for name in sorted(TENANTS)
        if digests[name] != base_digests[name]
    ]
    if mismatches:
        failures.append(
            f"failover: digests diverged from fault-free baseline "
            f"for {mismatches}"
        )
    check_no_quarantine(resilience, "failover", failures)
    report.append(
        f"  kill worker 0: digest="
        f"{'match' if not mismatches else 'MISMATCH'}, "
        f"failovers={server_metrics.get('serve_recovery_sessions_total', 0):.0f}, "
        f"replay_cycles="
        f"{server_metrics.get('serve_recovery_replay_cycles_total', 0):.0f}"
    )
    return failures


def run() -> tuple[list[Stage], dict[str, str]]:
    with tempfile.TemporaryDirectory() as base_dir:
        baseline = run_baseline(base_dir)
    stages = []
    for name, check in (
        ("crash_after_wal -> restart --recover convergence",
         check_crash_recovery),
        ("transport fault sweep (seeded, one fault per run)",
         check_transport_faults),
        ("worker kill + failover", check_worker_failover),
    ):
        report: list[str] = []
        stages.append(Stage(name, check(baseline, report), report))
    text = report_text(stages, "serve chaos gate")
    return stages, {"serve_chaos.txt": text + "\n"}
