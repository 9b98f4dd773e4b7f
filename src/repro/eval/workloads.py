"""Incremental workload (modifier trace) generation.

Section VI: "we applied 100 incremental iterations based on the setting
of the TAU 2015 Incremental Timing Contest, where each iteration involves
tens to hundreds of design modifiers that randomly remove/insert vertices
and edges from/into the graph."

:func:`generate_trace` reproduces that process: each iteration draws a
batch of modifiers from a configurable kind-mix, validated against a
simulated copy of the evolving graph so every modifier is applicable
(no duplicate edge inserts, no deletes of missing edges, ...).  Edge
insertions are locality-biased like real ECO changes (new nets connect
nearby cells).  Vertex inserts prefer reusing previously deleted IDs,
mirroring how CAD databases recycle cell slots — and keeping the
bucket-pool footprint bounded.

The same trace is applied to iG-kway and to G-kway†, which is what makes
the Table I comparison fair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

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
from repro.utils.seeding import make_rng

#: Default kind mix (fractions must sum to 1).
DEFAULT_MIX = {
    "edge_insert": 0.35,
    "edge_delete": 0.35,
    "vertex_insert": 0.15,
    "vertex_delete": 0.15,
}

#: The paper's per-iteration modifier rate relative to graph size:
#: "tens to hundreds" per iteration on the 139k-vertex usb circuit is
#: roughly 0.04% - 0.15% of |V|.  ``auto_modifier_range`` applies the
#: same fractions to scaled graphs so 100 iterations perturb a scaled
#: graph exactly as much as they perturbed the paper's.
AUTO_MODIFIER_FRACTIONS = (0.0004, 0.0015)


def auto_modifier_range(num_vertices: int) -> tuple[int, int]:
    """Per-iteration modifier range matching the paper's relative rate.

    >>> auto_modifier_range(139_479)
    (56, 209)
    """
    lo_frac, hi_frac = AUTO_MODIFIER_FRACTIONS
    lo = max(3, int(round(num_vertices * lo_frac)))
    hi = max(lo + 5, int(round(num_vertices * hi_frac)))
    return lo, hi


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of a modifier trace.

    Attributes:
        iterations: Number of incremental iterations (paper: 100).
        modifiers_per_iteration: Modifiers per batch; either a fixed
            count or a ``(lo, hi)`` range sampled uniformly ("tens to
            hundreds").
        mix: Kind fractions (see :data:`DEFAULT_MIX`).
        locality_window: Edge inserts pick the second endpoint within
            this ID distance with probability ``locality_bias``.
        locality_bias: See above.
        max_delete_degree: Vertex deletions only target vertices of at
            most this degree (bounds the expansion into edge deletes,
            like real ECO cell swaps).
        edge_weight_range: ``(lo, hi)`` inclusive range for inserted
            edge weights (default unit weights, like the paper's
            circuit benchmarks).
        vertex_weight_range: Same for inserted vertex weights.
        seed: Trace seed.
    """

    iterations: int = 100
    modifiers_per_iteration: "int | tuple[int, int]" = (50, 200)
    mix: dict = field(default_factory=lambda: dict(DEFAULT_MIX))
    locality_window: int = 64
    locality_bias: float = 0.8
    max_delete_degree: int = 48
    edge_weight_range: tuple = (1, 1)
    vertex_weight_range: tuple = (1, 1)
    seed: int = 0

    def draw_edge_weight(self, rng: np.random.Generator) -> int:
        lo, hi = self.edge_weight_range
        return int(rng.integers(lo, hi + 1)) if hi > lo else int(lo)

    def draw_vertex_weight(self, rng: np.random.Generator) -> int:
        lo, hi = self.vertex_weight_range
        return int(rng.integers(lo, hi + 1)) if hi > lo else int(lo)


def generate_trace(
    csr: CSRGraph, config: TraceConfig
) -> List[ModifierBatch]:
    """Generate a valid modifier trace for ``csr``.

    The trace is validated by applying it to a scratch
    :class:`HostGraph`; the returned batches are guaranteed applicable
    in order starting from ``csr``.
    """
    host = HostGraph.from_csr(csr)
    rng = make_rng(config.seed, "trace")
    kinds = list(config.mix)
    probs = np.array([config.mix[kind] for kind in kinds], dtype=float)
    if probs.sum() <= 0:
        raise ValueError("mix fractions must sum to a positive value")
    probs = probs / probs.sum()

    batches: List[ModifierBatch] = []
    for _iteration in range(config.iterations):
        count = _batch_size(config.modifiers_per_iteration, rng)
        batch = ModifierBatch()
        for _ in range(count):
            kind = kinds[int(rng.choice(len(kinds), p=probs))]
            modifier = _draw(kind, host, config, rng)
            if modifier is None:
                continue
            host.apply(modifier)
            batch.append(modifier)
        batches.append(batch)
    return batches


def seeded_workload(
    n_vertices: int,
    batches: int,
    seed: int = 7,
    edge_ratio: float = 1.3,
) -> tuple[CSRGraph, List[ModifierBatch]]:
    """The seeded workload the gates and benches share: a circuit graph
    plus a modifier trace at the paper's relative rate, fully
    determined by the arguments."""
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


def _batch_size(
    spec: "int | tuple[int, int]", rng: np.random.Generator
) -> int:
    if isinstance(spec, tuple):
        lo, hi = spec
        return int(rng.integers(lo, hi + 1))
    return int(spec)


def _draw(kind: str, host: HostGraph, config: TraceConfig, rng):
    """Draw one applicable modifier; falls back across kinds and returns
    None only if the graph supports no modifier of any kind."""
    order = {
        "edge_insert": ["edge_insert", "edge_delete", "vertex_insert"],
        "edge_delete": ["edge_delete", "edge_insert", "vertex_insert"],
        "vertex_insert": ["vertex_insert", "edge_insert", "edge_delete"],
        "vertex_delete": ["vertex_delete", "edge_delete", "edge_insert"],
    }[kind]
    for attempt_kind in order:
        modifier = _try_draw(attempt_kind, host, config, rng)
        if modifier is not None:
            return modifier
    return None


def _try_draw(kind: str, host: HostGraph, config: TraceConfig, rng):
    active = host.active_vertices()
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
            u = int(active[rng.integers(0, len(active))]) if active else None
            if u is None:
                return None
            nbrs = list(host.neighbors(u))
            if not nbrs:
                continue
            v = int(nbrs[rng.integers(0, len(nbrs))])
            return EdgeDelete(u, v)
        return None
    if kind == "vertex_insert":
        deleted = [
            u for u, flag in host.active.items() if not flag
        ]
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


# ---------------------------------------------------------------------------
# Specialized workload models.
# ---------------------------------------------------------------------------


def generate_region_burst_trace(
    csr: CSRGraph,
    iterations: int = 100,
    modifiers_per_iteration: int = 100,
    region_span: int = 128,
    seed: int = 0,
) -> List[ModifierBatch]:
    """ECO-burst workload: each iteration's modifiers hit one region.

    Real incremental timing flows (the TAU-2015 setting) change one
    physical neighborhood at a time — a resized buffer tree, a rerouted
    bus.  This generator picks a random window of ``region_span``
    consecutive vertex IDs per iteration and draws every edge modifier
    inside it, which maximizes locality of the affected set.  Vertex
    modifiers are omitted (cell counts are stable in ECO bursts).
    """
    host = HostGraph.from_csr(csr)
    rng = make_rng(seed, "region-burst")
    batches: List[ModifierBatch] = []
    n = host.num_vertex_slots
    for _iteration in range(iterations):
        lo = int(rng.integers(0, max(1, n - region_span)))
        hi = min(n, lo + region_span)
        region = [u for u in range(lo, hi) if host.is_active(u)]
        batch = ModifierBatch()
        for _ in range(modifiers_per_iteration):
            if not region or len(region) < 2:
                break
            if rng.random() < 0.5:
                modifier = _region_edge_insert(host, region, rng)
            else:
                modifier = _region_edge_delete(host, region, rng)
            if modifier is None:
                continue
            host.apply(modifier)
            batch.append(modifier)
        batches.append(batch)
    return batches


def _region_edge_insert(host, region, rng):
    for _retry in range(32):
        u = int(region[rng.integers(0, len(region))])
        v = int(region[rng.integers(0, len(region))])
        if u == v or host.has_edge(u, v):
            continue
        return EdgeInsert(u, v)
    return None


def _region_edge_delete(host, region, rng):
    for _retry in range(32):
        u = int(region[rng.integers(0, len(region))])
        nbrs = list(host.neighbors(u))
        if not nbrs:
            continue
        return EdgeDelete(u, int(nbrs[rng.integers(0, len(nbrs))]))
    return None


def generate_growth_trace(
    csr: CSRGraph,
    iterations: int = 100,
    vertices_per_iteration: int = 5,
    edges_per_vertex: int = 2,
    seed: int = 0,
) -> List[ModifierBatch]:
    """Growth-only workload: the graph monotonically expands.

    Models streaming-graph settings (and the vertex-insertion stress
    path of Algorithm 2): every iteration adds new vertices, each wired
    to ``edges_per_vertex`` existing vertices with locality bias.  No
    deletions, so partition weights only ever grow — the workload that
    most stresses the pseudo-partition balancing of Algorithm 3.
    """
    host = HostGraph.from_csr(csr)
    rng = make_rng(seed, "growth")
    batches: List[ModifierBatch] = []
    for _iteration in range(iterations):
        batch = ModifierBatch()
        for _ in range(vertices_per_iteration):
            u = host.num_vertex_slots
            modifier = VertexInsert(u, weight=1)
            host.apply(modifier)
            batch.append(modifier)
            active = host.active_vertices()
            wired = 0
            guard = 0
            while wired < edges_per_vertex and guard < 64:
                guard += 1
                v = int(active[rng.integers(0, len(active))])
                if v == u or host.has_edge(u, v):
                    continue
                edge = EdgeInsert(u, v)
                host.apply(edge)
                batch.append(edge)
                wired += 1
        batches.append(batch)
    return batches


def trace_summary(batches: Sequence[ModifierBatch]) -> dict:
    """Aggregate kind counts over a whole trace (for reports)."""
    totals = {
        "iterations": len(batches),
        "modifiers": 0,
        "edge_insert": 0,
        "edge_delete": 0,
        "vertex_insert": 0,
        "vertex_delete": 0,
    }
    for batch in batches:
        counts = batch.counts()
        totals["modifiers"] += len(batch)
        for key, value in counts.items():
            totals[key] += value
    return totals
