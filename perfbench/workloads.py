"""The benchmark's workloads and the episodes that run them.

A run repeats *episodes* until ``--seconds`` have passed and the
episode and sample minimums of its scale are met.  An episode is a full
set-up followed by the workload's whole seeded input:

* engine workloads (``sweep-77k-k8``, ``largek-20k-k256``): build
  ``IGKway`` and run ``full_partition()`` (set-up), then ``apply`` every
  batch of the trace, each timed on its own;
* ``serve-churn-2t``: boot an in-process ``ServerThread`` with one
  device worker and a journal directory, ``create`` one session per
  tenant (set-up), then drive the churn rounds from one client thread
  with one request outstanding (a closed loop).

Every episode of a run replays the same input, so its deterministic
outputs (final cut, modeled GPU time, ledger counts, partition sha256)
must repeat exactly; :func:`run_episodes` checks that.  Each episode
checks its own result outside the timed region: balance for the engine
(and ``validate()`` on the first episode); for serve, no failed request
or dead letter and exact per-worker cycle attribution.  Once per run,
the serve digests must equal a standalone ``StreamSession`` replay of
the same modifiers.
"""

from __future__ import annotations

import gc
import hashlib
import math
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from layers import Probe
from repro.core.igkway import IGKway
from repro.gpusim.cost import Counters
from repro.graph.bucketlist import SLOTS_PER_BUCKET
from repro.partition.config import PartitionConfig
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.serve.registry import build_graph
from repro.stream.session import StreamSession
from repro.utils.errors import ReproError

#: Ledger sections that make up one incremental batch's modeled time.
BATCH_SECTIONS = ("modification", "partitioning", "cut_maintenance")

#: Minimum samples above each tail percentile (full scale).
TAIL_BEYOND = 10

SESSION = "main"
#: Partition seed of every serve session and of its standalone replay.
SERVE_PARTITION_SEED = 3


class CheckFailed(Exception):
    """An output check failed; the run reports no metrics."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    why: str
    #: ``full`` and ``smoke`` parameters, each with ``min_episodes``.
    scales: dict
    #: Tail percentiles, fixed so the metric means the same in every
    #: run; full-scale runs extend until each has ``TAIL_BEYOND``
    #: samples above it.
    batch_tail_pct: float
    req_tail_pct: float


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="sweep-77k-k8",
            kind="engine",
            why=(
                "77k-vertex circuit, k=8, mixed insert/delete trace "
                "straight on IGKway; ~4.9M in-use pool slots for ~200k arcs, "
                "so per-batch costs that scale with the pool dominate"
            ),
            scales={
                "full": {"n_vertices": 77_000, "k": 8, "batches": 100,
                         "min_episodes": 5},
                "smoke": {"n_vertices": 3_000, "k": 8, "batches": 12,
                          "min_episodes": 2},
            },
            batch_tail_pct=98.0,
            req_tail_pct=98.0,
        ),
        Workload(
            name="largek-20k-k256",
            kind="engine",
            why=(
                "20k-vertex circuit at k=256; full partitioning is "
                "FM-bound and the k-dependent costs (best-move loop, "
                "n x k connectivity, k x k cut matrix) appear only here"
            ),
            scales={
                "full": {"n_vertices": 20_000, "k": 256, "batches": 500,
                         "min_episodes": 3},
                "smoke": {"n_vertices": 2_000, "k": 32, "batches": 12,
                          "min_episodes": 2},
            },
            batch_tail_pct=98.0,
            req_tail_pct=98.0,
        ),
        Workload(
            name="serve-churn-2t",
            kind="serve",
            why=(
                "journaled server, two 2k-vertex k=4 tenants, one client "
                "in a closed loop of insert/flush/delete/flush/digest "
                "rounds; serve overhead, fallback rebuilds, bucket churn"
            ),
            scales={
                "full": {"n_vertices": 2_000, "k": 4, "tenants": 2,
                         "rounds": 50, "fanout": 40, "min_episodes": 5},
                "smoke": {"n_vertices": 300, "k": 4, "tenants": 2,
                          "rounds": 6, "fanout": 8, "min_episodes": 2},
            },
            batch_tail_pct=98.0,
            req_tail_pct=99.0,
        ),
    ]
}


@dataclass
class Episode:
    """One set-up plus one pass over the input."""

    setup_s: float
    #: Host seconds per batch (``apply``, or a serve ``flush``).
    batch_s: list
    #: Host seconds per request (each ``apply``, or every serve request).
    req_s: list
    #: Wall seconds of the whole incremental phase.
    busy_s: float
    modifiers: int
    attempted: int
    failed: int
    #: Deterministic outputs; identical in every episode of a run.
    outputs: dict
    #: Client round trips by serve op (empty for engine episodes).
    by_op: dict = field(default_factory=dict)
    #: Traced episodes only: per-layer metric values.
    layer: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.busy_s


# -- measurement helpers --------------------------------------------------------


def sha256(partition: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(partition).tobytes()).hexdigest()


class LedgerWindow:
    """Ledger counters charged between construction and :meth:`close`,
    summed over several ledgers (one per serve tenant)."""

    def __init__(self, ledgers):
        self.ledgers = ledgers
        self._before = [
            (ledger.snapshot(),
             {name: c.copy() for name, c in ledger.sections.items()})
            for ledger in ledgers
        ]
        self.total = Counters()
        self.sections: dict = defaultdict(Counters)

    def close(self) -> "LedgerWindow":
        for ledger, (total, sections) in zip(self.ledgers, self._before):
            self.total += ledger.total.diff(total)
            for name, counters in ledger.sections.items():
                self.sections[name] += counters.diff(
                    sections.get(name, Counters())
                )
        return self

    def seconds(self, section: str) -> float:
        return self.ledgers[0].model.seconds(self.sections[section])

    def outputs(self, batches: int) -> dict:
        """The deterministic per-batch ledger figures."""
        per = max(batches, 1)
        return {
            "modeled_batch_us": 1e6 * sum(
                self.seconds(s) for s in BATCH_SECTIONS) / per,
            "warp_instructions": self.total.warp_instructions,
            "transactions": self.total.transactions,
            "atomics": self.total.atomic_ops,
            "kernel_launches": self.total.kernel_launches,
            "batches": batches,
        }


def pool_stats(graphs) -> dict:
    """Bucket-pool shape summed over ``graphs``."""
    pool_bytes = used = filled = tail = stranded = 0
    for graph in graphs:
        used_slots = graph.num_buckets_used * SLOTS_PER_BUCKET
        pool_bytes += graph.nbytes()
        used += used_slots
        filled += graph.fill_ratio() * used_slots
        tail += (graph.pool_buckets - graph.num_buckets_used) * SLOTS_PER_BUCKET
        owned = int(graph.bucket_count[: graph.num_vertices].sum())
        stranded += graph.num_buckets_used - owned
    return {
        "graph.bucketlist.pool_bytes": pool_bytes,
        "graph.bucketlist.slot_occupancy": filled / used if used else 0.0,
        "graph.bucketlist.tail_free_slots": tail,
        "graph.bucketlist.stranded_buckets": stranded,
    }


#: Per-layer self-time metrics (seconds per episode) -> span name.
SELF_TIME_METRICS = {
    "partition.gkway.partition_s": "partition.gkway.partition",
    "partition.coarsen_s": "partition.coarsen",
    "partition.initial_s": "partition.initial",
    "partition.refine_s": "partition.refine",
    "partition.fm_s": "partition.fm",
    "graph.bucketlist.from_csr_s": "graph.bucketlist.from_csr",
    "graph.bucketlist.num_edges_s": "graph.bucketlist.num_edges",
    "partition.cutacc.ensure_s": "partition.cutacc.ensure",
    "partition.cutacc.edge_deltas_s": "partition.cutacc.edge_deltas",
    "partition.cutacc.fold_s": "partition.cutacc.fold",
    "partition.cutacc.cut_size_s": "partition.cutacc.cut_size",
    "core.modification.expand_s": "core.modification.expand",
    "core.modification.apply_ops_s": "core.modification.apply_ops",
    "core.balancing.balance_s": "balance",
    "core.refinement.refine_s": "refine",
    "core.balancing.bookkeeping_s": "bookkeeping",
    "core.transaction_s": "core.transaction",
    "core.adaptive.rebuild_s": "core.adaptive.rebuild",
    "stream.submit_s": "stream.submit",
    "stream.apply_window_s": "stream.apply-window",
    "stream.journal.append_s": "stream.journal.append",
    "stream.checkpoint_s": "stream.checkpoint",
    "serve.wal.append_s": "serve.wal.append",
}


def layer_metrics(setup: Probe, work: Probe, window: LedgerWindow,
                  requests: int) -> dict:
    """Per-layer values common to every workload, for one traced
    episode.  ``setup``/``work`` probe the set-up and incremental
    phases; ``window`` covers the incremental phase's ledgers."""
    seconds: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    for probe in (setup, work):
        s, c = probe.self_times()
        for name, value in s.items():
            seconds[name] += value
        for name, value in c.items():
            counts[name] += value
    levels = setup.observations["levels"] + work.observations["levels"]
    coarsenings = (setup.observations["coarsen_calls"]
                   + work.observations["coarsen_calls"])
    obs = work.observations
    batches = max(obs["batches"], 1.0)
    out = {
        metric: seconds[span_name]
        for metric, span_name in SELF_TIME_METRICS.items()
    }
    out.update({
        "partition.fm.calls": counts["partition.fm"],
        "partition.levels": levels / max(coarsenings, 1.0),
        "graph.bucketlist.num_edges_calls": counts["graph.bucketlist.num_edges"],
        "core.balancing.pseudo_vertices": obs["pseudo_vertices"] / batches,
        "core.refinement.rounds": obs["refine_rounds"] / batches,
        "core.refinement.moves": obs["refine_moves"] / batches,
        "core.refinement.move_yield": (
            obs["refine_moves"] / obs["pseudo_vertices"]
            if obs["pseudo_vertices"] else 0.0
        ),
        "core.adaptive.fallbacks": counts["core.adaptive.rebuild"],
        "gpusim.warp_instructions": window.total.warp_instructions / batches,
        "gpusim.transactions": window.total.transactions / batches,
        "gpusim.atomics": window.total.atomic_ops / batches,
        "gpusim.kernel_launches": window.total.kernel_launches / batches,
        "gpusim.modeled_modification_us":
            1e6 * window.seconds("modification") / batches,
        "gpusim.modeled_partitioning_us":
            1e6 * window.seconds("partitioning") / batches,
        "gpusim.modeled_cut_us":
            1e6 * window.seconds("cut_maintenance") / batches,
        "obs.span_calls": work.program_span_calls() / max(requests, 1),
    })
    return out



# -- engine episodes --------------------------------------------------------------


def engine_episode(data: inputs.EngineInputs, k: int, traced: bool,
                   validate: bool) -> Episode:
    setup_probe, work_probe = Probe(), Probe()
    start = time.perf_counter()
    with setup_probe if traced else nullcontext():
        ig = IGKway(data.csr, PartitionConfig(k=k))
        ig.full_partition()
    setup_s = time.perf_counter() - start

    window = LedgerWindow([ig.ctx.ledger])
    batch_s = []
    modifiers = failed = 0
    with work_probe if traced else nullcontext():
        busy_start = time.perf_counter()
        for batch in data.trace:
            t0 = time.perf_counter()
            try:
                ig.apply(batch)
            except ReproError:
                failed += 1
            batch_s.append(time.perf_counter() - t0)
            modifiers += len(batch)
        busy_s = time.perf_counter() - busy_start
    window.close()

    if validate:
        ig.validate()
    check(ig.state.balanced(), "partition unbalanced after the last batch")
    outputs = {
        "final_cut": ig.cut_size(),
        "partition_sha256": sha256(ig.partition),
        **window.outputs(len(data.trace)),
    }
    episode = Episode(
        setup_s=setup_s, batch_s=batch_s, req_s=batch_s, busy_s=busy_s,
        modifiers=modifiers, attempted=len(data.trace), failed=failed,
        outputs=outputs,
    )
    if traced:
        episode.layer = {
            **layer_metrics(setup_probe, work_probe, window, len(data.trace)),
            **pool_stats([ig.graph]),
        }
    return episode


# -- serve episodes ---------------------------------------------------------------


def serve_reference(data: inputs.ServeInputs, k: int, scratch: Path) -> list:
    """Per-tenant partition digests of a standalone ``StreamSession``
    fed the same modifiers in the same flushes (the server's own
    session parameters: reject policy, default queue and scheduler)."""
    digests = []
    for tenant, spec in enumerate(data.specs):
        session = StreamSession(
            build_graph(spec),
            PartitionConfig(k=k, seed=SERVE_PARTITION_SEED),
            journal_dir=scratch / f"reference-{tenant}",
            policy="reject",
        )
        session.start()
        for owner, inserts, deletes in data.rounds:
            if owner != tenant:
                continue
            for modifiers in (inserts, deletes):
                for modifier in modifiers:
                    session.submit(modifier)
                session.drain()
        digests.append(sha256(session.partition))
        session.close()
    return digests


def serve_episode(data: inputs.ServeInputs, k: int, traced: bool,
                  scratch: Path) -> Episode:
    tenants = [f"t{i}" for i in range(len(data.specs))]
    setup_probe, work_probe = Probe(), Probe()
    data_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    with ExitStack() as stack:
        start = time.perf_counter()
        with setup_probe if traced else nullcontext():
            server = stack.enter_context(
                ServerThread(ServerConfig(workers=1, data_dir=str(data_dir)))
            )
            clients = [
                stack.enter_context(
                    ServeClient("127.0.0.1", server.tcp_port, tenant=name))
                for name in tenants
            ]
            for client, spec in zip(clients, data.specs):
                client.create(SESSION, spec, k=k, seed=SERVE_PARTITION_SEED)
        setup_s = time.perf_counter() - start

        registry = server.server.registry
        sessions = [registry.get(name, SESSION).session for name in tenants]
        window = LedgerWindow([s.partitioner.ctx.ledger for s in sessions])
        by_op: dict = defaultdict(list)
        failed = attempted = modifiers = 0

        def call(op, client, *args):
            nonlocal failed, attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                getattr(client, op)(SESSION, *args)
            except ReproError:
                failed += 1
            by_op[op].append(time.perf_counter() - t0)

        with work_probe if traced else nullcontext():
            busy_start = time.perf_counter()
            for tenant, inserts, deletes in data.rounds:
                client = clients[tenant]
                call("submit", client, inserts)
                call("flush", client)
                call("submit", client, deletes)
                call("flush", client)
                call("digest", client)
                modifiers += len(inserts) + len(deletes)
            busy_s = time.perf_counter() - busy_start
        window.close()

        finals = [client.digest(SESSION) for client in clients]
        stats = clients[0].stats()
        check(all(s.telemetry.dead_lettered == 0 for s in sessions),
              "a modifier was dead-lettered")
        worker = stats["workers"][0]
        # Zero up to float summation order (the serve gate's tolerance).
        check(math.isclose(sum(worker["cycles_by_tenant"].values()),
                           worker["total_cycles"], rel_tol=1e-9),
              "per-worker cycle attribution has a residual")
        batches = sum(s.telemetry.batches for s in sessions)
        pool = pool_stats([s.partitioner.graph for s in sessions])
        telemetry = [s.telemetry for s in sessions]
        server_metrics = stats["server_metrics"]

    outputs = {
        "final_cut": sum(f["cut"] for f in finals),
        "partition_sha256": [f["sha256"] for f in finals],
        **window.outputs(batches),
    }
    requests = [t for op in ("submit", "flush", "digest") for t in by_op[op]]
    episode = Episode(
        setup_s=setup_s, batch_s=by_op["flush"], req_s=requests,
        busy_s=busy_s, modifiers=modifiers, attempted=attempted,
        failed=failed, outputs=outputs, by_op=dict(by_op),
    )
    if traced:
        ingested = sum(t.ingested for t in telemetry)
        files = list(data_dir.rglob("*"))
        episode.layer = {
            **layer_metrics(setup_probe, work_probe, window, attempted),
            **pool,
            "stream.coalesce_yield": (
                sum(t.applied_modifiers for t in telemetry) / ingested
                if ingested else 0.0),
            "stream.journal.bytes": sum(
                p.stat().st_size for p in files if p.name == "journal.log"),
            "stream.checkpoint_bytes": sum(
                p.stat().st_size for p in files
                if p.name.startswith("checkpoint") and p.suffix == ".npz"),
            "stream.batch_failures": sum(t.batch_failures for t in telemetry),
            "stream.quarantined": sum(t.quarantined for t in telemetry),
            "stream.dead_lettered": sum(t.dead_lettered for t in telemetry),
            "serve.overhead_ms": 1e3 * (
                sum(requests) - work_probe.stream_seconds()) / len(requests),
            "serve.protocol.encode_s":
                setup_probe.encode_seconds + work_probe.encode_seconds,
            "serve.protocol.frame_bytes": (
                work_probe.frame_bytes / max(work_probe.frames, 1)),
            "serve.rejected": server_metrics["serve_rejected_total"],
            "serve.shed": server_metrics["serve_shed_total"],
        }
    shutil.rmtree(data_dir, ignore_errors=True)
    return episode


# -- runs ---------------------------------------------------------------------------


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile of ``count`` samples."""
    return max(math.ceil(pct / 100.0 * count), 1)


def nearest_rank(values: list, pct: float) -> float:
    return sorted(values)[_rank(len(values), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """Samples above the nearest-rank ``pct`` percentile of ``count``."""
    return count - _rank(count, pct)


def run_episodes(workload: Workload, scale_name: str, data, seconds: float,
                 traced: bool, scratch: Path) -> tuple[list, list]:
    """``(untraced episodes, traced episodes)``.  Untraced runs repeat
    episodes; traced runs repeat (untraced, traced) pairs."""
    scale = workload.scales[scale_name]
    full = scale_name == "full"

    def one(traced_episode: bool) -> Episode:
        gc.collect()
        if workload.kind == "engine":
            # Every episode ends in the same state (checked below), so
            # the slow full validation runs on the first one only.
            return engine_episode(data, scale["k"], traced_episode,
                                  validate=not plain)
        return serve_episode(data, scale["k"], traced_episode, scratch)

    def enough(plain: list) -> bool:
        if traced:
            return len(plain) >= 1
        if len(plain) < scale["min_episodes"]:
            return False
        if not full:
            return True
        batches = sum(len(e.batch_s) for e in plain)
        requests = sum(len(e.req_s) for e in plain)
        return (beyond(batches, workload.batch_tail_pct) >= TAIL_BEYOND
                and beyond(requests, workload.req_tail_pct) >= TAIL_BEYOND)

    plain: list = []
    probed: list = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not enough(plain):
        plain.append(one(False))
        if traced:
            probed.append(one(True))
    reference = plain[0].outputs
    for episode in plain + probed:
        check(episode.outputs == reference,
              "deterministic outputs differ between episodes of one run: "
              f"{episode.outputs} != {reference}")
    if workload.kind == "serve":
        expected = serve_reference(data, scale["k"], scratch)
        check(reference["partition_sha256"] == expected,
              "hosted digests differ from the standalone replay")
    return plain, probed


def end_to_end(workload: Workload, plain: list) -> tuple[dict, dict]:
    """``(metric values, record of sample counts and percentiles)``."""
    batch_s = [t for e in plain for t in e.batch_s]
    req_s = [t for e in plain for t in e.req_s]
    outputs = plain[0].outputs
    values = {
        "setup_s": statistics.median(e.setup_s for e in plain),
        "batch_p50_ms": 1e3 * statistics.median(batch_s),
        "batch_tail_ms": 1e3 * nearest_rank(batch_s, workload.batch_tail_pct),
        "req_p50_ms": 1e3 * statistics.median(req_s),
        "req_tail_ms": 1e3 * nearest_rank(req_s, workload.req_tail_pct),
        "mods_per_s": sum(e.modifiers for e in plain)
        / sum(e.busy_s for e in plain),
        "modeled_batch_us": outputs["modeled_batch_us"],
        "final_cut": outputs["final_cut"],
    }
    samples = {
        "setup_s": len(plain),
        "batch": len(batch_s),
        "batch_tail_pct": workload.batch_tail_pct,
        "batch_beyond_tail": beyond(len(batch_s), workload.batch_tail_pct),
        "req": len(req_s),
        "req_tail_pct": workload.req_tail_pct,
        "req_beyond_tail": beyond(len(req_s), workload.req_tail_pct),
    }
    return values, samples


def per_layer(plain: list, probed: list) -> dict:
    """Mean per-layer values over the traced episodes, plus the serve
    client's per-op medians (from the untraced episodes) and the
    tracing overhead of the paired episodes."""
    layer = {
        name: statistics.fmean(e.layer.get(name, 0.0) for e in probed)
        for name in probed[0].layer
    }
    by_op: dict = defaultdict(list)
    for episode in plain:
        for op, times in episode.by_op.items():
            by_op[op].extend(times)
    for op in ("submit", "flush", "digest"):
        layer[f"serve.client.{op}_p50_ms"] = (
            1e3 * statistics.median(by_op[op]) if by_op[op] else 0.0)
    layer["bench.trace_overhead_frac"] = (
        sum(e.wall_s for e in probed) / sum(e.wall_s for e in plain) - 1.0)
    return layer
