"""Seeded input generation for the benchmark, cached per (workload, seed).

Engine workloads use the repository's modifier-trace distribution
(``repro.eval.workloads.generate_trace``), drawn by :func:`fast_trace`:
the same random draws in the same order, so the same trace, but with the
sorted active and deleted vertex lists maintained incrementally instead
of rebuilt on every draw (``HostGraph.active_vertices`` is O(|V|), which
makes the library generator cost 1.5 s per 10 batches at 77k vertices).
``test_perfbench.py`` checks the two generators agree batch for batch.

The serve workload's inputs are churn rounds: for each round, one tenant,
a random hub vertex and 40 vertices not adjacent to it.  The round
inserts the 40 edges and then deletes them again, so every round starts
from the original graph and no modifier can fail.

Inputs are pickled under ``.bench_cache/`` in the checkout (written and
read only by this module) so repeated runs of one seed skip generation.
"""

from __future__ import annotations

import bisect
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.eval.workloads import (
    TraceConfig,
    _batch_size,
    auto_modifier_range,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import circuit_graph
from repro.graph.modifiers import (
    EdgeDelete,
    EdgeInsert,
    HostGraph,
    ModifierBatch,
    VertexDelete,
    VertexInsert,
)
from repro.utils.seeding import derive_seed, make_rng

CACHE_DIR = Path(__file__).resolve().parent.parent / ".bench_cache"

#: Edge ratio and generator seed of every circuit graph the benchmark
#: builds (the ``bench_common.seeded_workload`` defaults).  The graphs
#: are fixed, like the named circuits of the paper; ``--seed`` draws the
#: modifiers applied to them.
EDGE_RATIO = 1.3
GRAPH_SEED = 7

#: Fallback order when a drawn kind has no applicable modifier (the
#: library generator's table).
_FALLBACK_ORDER = {
    "edge_insert": ["edge_insert", "edge_delete", "vertex_insert"],
    "edge_delete": ["edge_delete", "edge_insert", "vertex_insert"],
    "vertex_insert": ["vertex_insert", "edge_insert", "edge_delete"],
    "vertex_delete": ["vertex_delete", "edge_delete", "edge_insert"],
}


# -- engine traces ------------------------------------------------------------


class _TraceState:
    """HostGraph plus sorted active/deleted ID lists kept in step."""

    def __init__(self, csr: CSRGraph):
        self.host = HostGraph.from_csr(csr)
        self.active = list(range(csr.num_vertices))
        self.deleted: list[int] = []

    def apply(self, modifier) -> None:
        self.host.apply(modifier)
        if isinstance(modifier, VertexDelete):
            self.active.pop(bisect.bisect_left(self.active, modifier.u))
            bisect.insort(self.deleted, modifier.u)
        elif isinstance(modifier, VertexInsert):
            index = bisect.bisect_left(self.deleted, modifier.u)
            if index < len(self.deleted) and self.deleted[index] == modifier.u:
                self.deleted.pop(index)
            bisect.insort(self.active, modifier.u)


def _try_draw(kind: str, state: _TraceState, config: TraceConfig, rng):
    """``repro.eval.workloads._try_draw`` over the incremental lists."""
    host, active = state.host, state.active
    if kind == "edge_insert":
        if len(active) < 2:
            return None
        for _retry in range(32):
            u = int(active[rng.integers(0, len(active))])
            if rng.random() < config.locality_bias:
                lo = max(0, u - config.locality_window)
                hi = min(host.num_vertex_slots, u + config.locality_window)
                v = int(rng.integers(lo, hi))
            else:
                v = int(active[rng.integers(0, len(active))])
            if v == u or not host.is_active(v) or host.has_edge(u, v):
                continue
            return EdgeInsert(u, v, weight=config.draw_edge_weight(rng))
        return None
    if kind == "edge_delete":
        for _retry in range(32):
            if not active:
                return None
            u = int(active[rng.integers(0, len(active))])
            nbrs = list(host.neighbors(u))
            if not nbrs:
                continue
            return EdgeDelete(u, int(nbrs[rng.integers(0, len(nbrs))]))
        return None
    if kind == "vertex_insert":
        deleted = state.deleted
        if deleted:
            u = int(deleted[rng.integers(0, len(deleted))])
        else:
            u = host.num_vertex_slots
        return VertexInsert(u, weight=config.draw_vertex_weight(rng))
    if kind == "vertex_delete":
        if len(active) <= 2:
            return None
        for _retry in range(32):
            u = int(active[rng.integers(0, len(active))])
            if host.degree(u) <= config.max_delete_degree:
                return VertexDelete(u)
        return None
    raise ValueError(f"unknown modifier kind {kind!r}")


def fast_trace(csr: CSRGraph, config: TraceConfig) -> list[ModifierBatch]:
    """The trace ``generate_trace(csr, config)`` returns, drawn in
    O(log |V|) list upkeep per modifier instead of O(|V|)."""
    state = _TraceState(csr)
    rng = make_rng(config.seed, "trace")
    kinds = list(config.mix)
    probs = np.array([config.mix[kind] for kind in kinds], dtype=float)
    probs = probs / probs.sum()
    batches = []
    for _iteration in range(config.iterations):
        count = _batch_size(config.modifiers_per_iteration, rng)
        batch = ModifierBatch()
        for _ in range(count):
            kind = kinds[int(rng.choice(len(kinds), p=probs))]
            for attempt in _FALLBACK_ORDER[kind]:
                modifier = _try_draw(attempt, state, config, rng)
                if modifier is not None:
                    state.apply(modifier)
                    batch.append(modifier)
                    break
        batches.append(batch)
    return batches


@dataclass
class EngineInputs:
    csr: CSRGraph
    trace: list


def engine_inputs(n_vertices: int, batches: int, seed: int) -> EngineInputs:
    """The graph of ``bench_common.seeded_workload(n_vertices, batches)``
    (seed :data:`GRAPH_SEED`) with a trace drawn from ``seed``; for
    ``seed == GRAPH_SEED`` this is exactly ``seeded_workload``'s input."""
    csr = circuit_graph(n_vertices, edge_ratio=EDGE_RATIO, seed=GRAPH_SEED)
    config = TraceConfig(
        iterations=batches,
        modifiers_per_iteration=auto_modifier_range(csr.num_vertices),
        seed=seed,
    )
    return EngineInputs(csr=csr, trace=fast_trace(csr, config))


# -- serve churn rounds -------------------------------------------------------


@dataclass
class ServeInputs:
    #: One ``create`` graph spec per tenant (tenant order).
    specs: list
    #: Per round: (tenant index, inserts, deletes).
    rounds: list


def serve_inputs(
    n_vertices: int, tenants: int, rounds: int, fanout: int, seed: int
) -> ServeInputs:
    specs = [
        {
            "generator": "circuit",
            "args": {
                "num_vertices": n_vertices,
                "edge_ratio": EDGE_RATIO,
                "seed": derive_seed(GRAPH_SEED, "serve-graph", tenant),
            },
        }
        for tenant in range(tenants)
    ]
    graphs = [circuit_graph(**spec["args"]) for spec in specs]
    rng = make_rng(seed, "serve-churn")
    out = []
    for index in range(rounds):
        tenant = index % tenants
        csr = graphs[tenant]
        hub = int(rng.integers(0, n_vertices))
        taken = set(csr.neighbors(hub).tolist())
        taken.add(hub)
        chosen = [
            int(v) for v in rng.permutation(n_vertices) if int(v) not in taken
        ][:fanout]
        out.append(
            (
                tenant,
                [EdgeInsert(hub, v) for v in chosen],
                [EdgeDelete(hub, v) for v in chosen],
            )
        )
    return ServeInputs(specs=specs, rounds=out)


# -- cache ----------------------------------------------------------------------


def cached(key: str, build):
    """``(inputs, generation seconds)``; generation seconds is 0.0 when
    the inputs came from the cache."""
    path = CACHE_DIR / f"{key}.pkl"
    if path.exists():
        with path.open("rb") as handle:
            return pickle.load(handle), 0.0
    start = time.perf_counter()
    value = build()
    seconds = time.perf_counter() - start
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with tmp.open("wb") as handle:
        pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)
    return value, seconds
