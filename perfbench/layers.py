"""Traced-run instrumentation: per-layer spans from the benchmark's side.

A :class:`Probe` is used only in ``--trace 1`` runs.  While it is open it

* replaces each public function listed in :data:`SPANNED` with a wrapper
  that opens a ``repro.obs`` span around the call.  The wrapper is
  installed where the caller looks the name up (the importing module's
  global, or the class attribute for methods) and removed on close;
* collects those spans and the spans the program already emits
  (``balance``, ``refine``, ``bookkeeping``, ``stream.apply-window``,
  ``stream.checkpoint``, ``serve.wal.append``, ...) with one
  ``repro.obs.Tracer``;
* records results the layer metrics need from a few calls
  (:data:`OBSERVED`) and the cost and size of every protocol frame
  encoded on either side of the serve connection (:data:`FRAMED`).

A span's self time is its duration minus the durations of its direct
child spans.  The tracer is single threaded: spans may open on one
thread only.  In the serve workload that is the server's event-loop
thread; the client thread is timed by the workload itself, and frame
encoding (both threads) is counted under a lock instead of in spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.obs import Tracer, span

#: (module, attribute path, span name, is_context_manager).  Several
#: functions may share a span name; their times add up.
SPANNED = [
    ("repro.partition.gkway", "GKwayPartitioner.partition",
     "partition.gkway.partition", False),
    ("repro.partition.gkway", "coarsen_to_size", "partition.coarsen", False),
    ("repro.partition.gkway", "initial_partition", "partition.initial", False),
    ("repro.partition.gkway", "refine_csr", "partition.refine", False),
    ("repro.partition.gkway", "rebalance_csr", "partition.refine", False),
    ("repro.partition.gkway", "fm_refine", "partition.fm", False),
    ("repro.graph.bucketlist", "BucketListGraph.from_csr",
     "graph.bucketlist.from_csr", False),
    ("repro.graph.bucketlist", "BucketListGraph.num_edges",
     "graph.bucketlist.num_edges", False),
    ("repro.partition.cutacc", "CutAccumulator.ensure",
     "partition.cutacc.ensure", False),
    ("repro.partition.cutacc", "CutAccumulator.edge_deltas",
     "partition.cutacc.edge_deltas", False),
    ("repro.partition.cutacc", "CutAccumulator.fold",
     "partition.cutacc.fold", False),
    ("repro.partition.cutacc", "CutAccumulator.cut_size",
     "partition.cutacc.cut_size", False),
    ("repro.core.igkway", "expand_modifiers",
     "core.modification.expand", False),
    ("repro.core.igkway", "apply_ops", "core.modification.apply_ops", False),
    ("repro.core.igkway", "transaction", "core.transaction", True),
    ("repro.core.adaptive", "AdaptiveIGKway._fallback",
     "core.adaptive.rebuild", False),
    ("repro.core.adaptive", "AdaptiveIGKway.full_rebuild",
     "core.adaptive.rebuild", False),
    ("repro.stream.session", "StreamSession.submit", "stream.submit", False),
    ("repro.stream.session", "StreamSession.flush", "stream.flush", False),
    ("repro.stream.session", "StreamSession.drain", "stream.flush", False),
    ("repro.stream.journal", "StreamJournal.log_modifier",
     "stream.journal.append", False),
    ("repro.stream.journal", "StreamJournal.log_flush",
     "stream.journal.append", False),
    ("repro.stream.journal", "StreamJournal.log_dead_letter",
     "stream.journal.append", False),
]

#: (module, attribute, observation key): the wrapper hands each result
#: to :meth:`Probe._observe` without opening a span.
OBSERVED = [
    ("repro.partition.gkway", "coarsen_to_size", "levels"),
    ("repro.core.igkway", "balance_partition", "balance"),
    ("repro.core.igkway", "refine_pseudo", "refine"),
]

#: Every place a protocol frame is encoded, by the name its caller uses.
FRAMED = [
    ("repro.serve.client", "encode_frame"),
    ("repro.serve.server", "encode_frame"),
    ("repro.serve.protocol", "encode_frame"),
]

WRAPPER_SPANS = frozenset(entry[2] for entry in SPANNED)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) for ``module:path``."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, inspect.getattr_static(owner, name)


def _wrap_callable(raw, make):
    """Apply ``make`` to the function inside ``raw``, keeping a
    classmethod descriptor (``BucketListGraph.from_csr``) around it."""
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


def _spanned(name: str, is_cm: bool):
    def make(fn):
        if is_cm:
            @contextmanager
            def cm_wrapper(*args, **kwargs):
                with span(name), fn(*args, **kwargs) as value:
                    yield value

            return functools.wraps(fn)(cm_wrapper)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    return make


class Probe:
    """One traced phase: install wrappers, trace, restore on close."""

    def __init__(self):
        self.tracer = Tracer(session="perfbench")
        self.observations: dict = defaultdict(float)
        self.encode_seconds = 0.0
        self.frame_bytes = 0
        self.frames = 0
        self._lock = threading.Lock()
        self._restore: list = []
        self._activation = None

    # -- lifetime ----------------------------------------------------------------

    def __enter__(self) -> "Probe":
        for module, path, name, is_cm in SPANNED:
            self._install(module, path, _spanned(name, is_cm))
        for module, path, key in OBSERVED:
            self._install(module, path, self._observer(key))
        for module, path in FRAMED:
            self._install(module, path, self._framer)
        self._activation = self.tracer.activate()
        self._activation.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self._activation.__exit__(exc_type, exc, tb)
        finally:
            for owner, name, raw in reversed(self._restore):
                setattr(owner, name, raw)
            self._restore.clear()

    def _install(self, module: str, path: str, make) -> None:
        owner, name, raw = _resolve(module, path)
        self._restore.append((owner, name, raw))
        setattr(owner, name, _wrap_callable(raw, make))

    # -- observers -----------------------------------------------------------------

    def _observer(self, key: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._observe(key, result)
                return result

            return wrapper

        return make

    def _observe(self, key: str, result) -> None:
        obs = self.observations
        if key == "levels":
            obs["coarsen_calls"] += 1
            obs["levels"] += len(result)
        elif key == "balance":
            obs["batches"] += 1
            obs["pseudo_vertices"] += result[1].pseudo_total
        elif key == "refine":
            obs["refine_rounds"] += result.rounds
            obs["refine_moves"] += result.moves_applied

    def _framer(self, fn):
        @functools.wraps(fn)
        def wrapper(payload):
            start = time.perf_counter()
            frame = fn(payload)
            elapsed = time.perf_counter() - start
            with self._lock:
                self.encode_seconds += elapsed
                self.frame_bytes += len(frame)
                self.frames += 1
            return frame

        return wrapper

    # -- span aggregates -------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """``(self seconds by span name, span count by name)``."""
        events = [e for e in self.tracer.events if e.kind == "span"]
        child_seconds: dict = defaultdict(float)
        for event in events:
            if event.parent is not None:
                child_seconds[event.parent] += event.duration
        seconds: dict = defaultdict(float)
        counts: dict = defaultdict(int)
        for event in events:
            seconds[event.name] += event.duration - child_seconds[event.span_id]
            counts[event.name] += 1
        return seconds, counts

    def stream_seconds(self) -> float:
        """Inclusive time inside ``StreamSession`` calls: the outermost
        ``stream.*`` spans (those with no ``stream.*`` ancestor)."""
        events = {e.span_id: e for e in self.tracer.events if e.kind == "span"}
        total = 0.0
        for event in events.values():
            if not event.name.startswith("stream."):
                continue
            parent = events.get(event.parent)
            while parent is not None and not parent.name.startswith("stream."):
                parent = events.get(parent.parent)
            if parent is None:
                total += event.duration
        return total

    def program_span_calls(self) -> int:
        """Spans the program itself emitted (not the wrappers above)."""
        return sum(
            1
            for e in self.tracer.events
            if e.kind == "span" and e.name not in WRAPPER_SPANS
        )


def span_off_ns(iterations: int = 100_000) -> float:
    """Cost of one ``span()`` enter/exit with no tracer active."""
    start = time.perf_counter_ns()
    for _ in range(iterations):
        with span("perfbench.probe"):
            pass
    return (time.perf_counter_ns() - start) / iterations
