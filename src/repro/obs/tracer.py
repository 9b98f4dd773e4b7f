"""Span tracer: structured, correlated phase events over the cost ledger.

One tracer is active at a time (a module global, mirroring the shadow
hook on :class:`~repro.gpusim.context.GpuContext`): hot paths bracket
their phases with :func:`span`, and when no tracer is active the
bracket is one global read plus a shared no-op context object — the
same zero-cost-when-off bar shadow mode meets, guarded by
``tools/gates/obs.py`` and the perf gate's ledger comparison.

A :class:`Tracer` activated with a :class:`~repro.gpusim.cost.CostLedger`
attaches *device* attribution to every span: the ledger counters are
snapshotted on entry and differenced on exit, so each span carries the
warp instructions, memory transactions, modeled device seconds and
device cycles it caused, alongside its host wall time.  The ledger's
``obs_hook`` (one attribute check in ``end_kernel``) additionally
aggregates per-kernel counts under the innermost open span, giving the
trace the paper's per-kernel granularity without one record per launch.

Usage::

    from repro.obs import Tracer, span

    tracer = Tracer(ledger=ctx.ledger, session="bench")
    with tracer.activate():
        with span("apply.batch", batch=7):
            ...                       # nested spans + kernels attach here
    events = tracer.events            # list[TraceEvent]

All device-derived fields are deterministic for a seeded workload —
two traced runs differ only in host ``start``/``duration`` — which is
what lets ``repro-obs diff`` attribute regressions exactly.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ContextManager, Dict, Iterator, List, Optional

from repro.gpusim.cost import CostLedger, Counters

#: Trace record schema identifier (header line of every JSONL trace).
TRACE_SCHEMA = "repro-trace-v1"

#: The active tracer, or None.  Hot-path brackets check only this.
_ACTIVE: "Tracer | None" = None


def active_tracer() -> "Tracer | None":
    """The currently activated tracer (None when tracing is off)."""
    return _ACTIVE


@dataclass
class TraceEvent:
    """One span or per-span kernel aggregate.

    ``kind`` is ``"span"`` for host-timed brackets and ``"kernel"`` for
    the per-kernel aggregates attached to a span.  Kernel aggregates
    carry no host times (they are summed at span close from ledger
    scopes), so every one of their fields is deterministic for a seeded
    workload.
    """

    kind: str
    name: str
    span_id: int
    parent: Optional[int]
    depth: int
    #: Correlation: the stream batch (first journal seq) this event
    #: belongs to, and the tracer-wide session label.
    batch: Optional[int] = None
    #: Host wall clock, seconds relative to tracer activation (spans
    #: only; kernel aggregates keep both at 0.0).
    start: float = 0.0
    duration: float = 0.0
    #: Ledger attribution (deltas for spans, sums for kernel rows).
    warp_instructions: int = 0
    transactions: int = 0
    atomic_ops: int = 0
    kernel_launches: int = 0
    device_seconds: float = 0.0
    device_cycles: float = 0.0
    #: Ledger section the kernels ran under (kernel rows only).
    section: Optional[str] = None
    #: Number of launches aggregated into a kernel row (1 for spans).
    count: int = 1
    #: Distributed trace context (``repro.obs.distrib``): a dict with
    #: an ``"id"`` plus optional tenant/op/attempt/worker keys, or None
    #: for plain engine traces.  Optional in the JSONL schema, so every
    #: pre-existing ``repro-trace-v1`` file stays valid.
    trace: Optional[dict] = None

    def as_dict(self) -> dict:
        """Flat JSON-ready record (sorted keys happen at export).

        ``trace`` is emitted only when set: engine-only traces keep the
        exact byte shape earlier revisions wrote.
        """
        out = {
            "kind": self.kind,
            "name": self.name,
            "span_id": self.span_id,
            "parent": self.parent,
            "depth": self.depth,
            "batch": self.batch,
            "start": self.start,
            "duration": self.duration,
            "warp_instructions": self.warp_instructions,
            "transactions": self.transactions,
            "atomic_ops": self.atomic_ops,
            "kernel_launches": self.kernel_launches,
            "device_seconds": self.device_seconds,
            "device_cycles": self.device_cycles,
            "section": self.section,
            "count": self.count,
        }
        if self.trace is not None:
            out["trace"] = {
                key: self.trace[key] for key in sorted(self.trace)
            }
        return out


@dataclass
class _OpenSpan:
    """Book-keeping for a span that has not closed yet."""

    event: TraceEvent
    t0: float
    ledger_before: Optional[Counters]
    #: (kernel name, section) -> aggregate in progress.
    kernels: Dict[tuple, TraceEvent] = field(default_factory=dict)
    prev_batch: Optional[int] = None
    set_batch: bool = False


class Tracer:
    """Collects :class:`TraceEvent` records for one traced region.

    Args:
        ledger: Cost ledger to attribute device work from; None records
            host times only.
        session: Free-form correlation label stamped on the trace
            header (e.g. a stream session or bench name).

    A tracer is single-use and single-threaded: :meth:`activate`
    installs it as the module-global active tracer and registers the
    ledger ``obs_hook``; both are restored on exit.  The slot has *no*
    locking — the hot paths are single-threaded NumPy driving, and a
    per-span lock would cost more than the phases being measured.
    Activating a second tracer on the same thread nests (the inner one
    wins until its block exits); activating from a different thread
    than the currently active tracer's owner raises ``RuntimeError``
    instead of silently corrupting the active tracer's timings.
    """

    def __init__(
        self,
        ledger: CostLedger | None = None,
        session: str = "",
    ) -> None:
        self.ledger = ledger
        self.session = session
        self.events: List[TraceEvent] = []
        #: Host seconds accumulated per span name.
        self.phase_seconds: Dict[str, float] = {}
        self.current_batch: Optional[int] = None
        self._stack: List[_OpenSpan] = []
        self._next_id = 0
        self._t_origin = 0.0
        self._owner_ident: Optional[int] = None
        self._ledger_at_start: Optional[Counters] = None

    # -- activation ----------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Install this tracer as the active one for the block."""
        global _ACTIVE
        previous = _ACTIVE
        if (
            previous is not None
            and previous._owner_ident is not None
            and previous._owner_ident != threading.get_ident()
        ):
            raise RuntimeError(
                "a tracer/phase collector is already active on thread "
                f"{previous._owner_ident}; repro.obs tracing is "
                "single-threaded (activate tracers from one thread only)"
            )
        self._owner_ident = threading.get_ident()
        self._t_origin = time.perf_counter()
        prev_hook = None
        if self.ledger is not None:
            self._ledger_at_start = self.ledger.snapshot()
            prev_hook = self.ledger.obs_hook
            self.ledger.obs_hook = self._on_kernel
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous
            if self.ledger is not None:
                self.ledger.obs_hook = prev_hook
            self._owner_ident = None

    # -- span recording ------------------------------------------------------

    def begin_span(self, name: str, batch: Optional[int] = None) -> None:
        parent = self._stack[-1].event.span_id if self._stack else None
        event = TraceEvent(
            kind="span",
            name=name,
            span_id=self._next_id,
            parent=parent,
            depth=len(self._stack),
            batch=batch if batch is not None else self.current_batch,
        )
        self._next_id += 1
        open_span = _OpenSpan(
            event=event,
            t0=time.perf_counter(),
            ledger_before=(
                self.ledger.snapshot() if self.ledger is not None else None
            ),
        )
        if batch is not None:
            open_span.prev_batch = self.current_batch
            open_span.set_batch = True
            self.current_batch = batch
        self._stack.append(open_span)

    def end_span(self) -> TraceEvent:
        open_span = self._stack.pop()
        event = open_span.event
        event.start = open_span.t0 - self._t_origin
        event.duration = time.perf_counter() - open_span.t0
        if open_span.ledger_before is not None:
            assert self.ledger is not None
            delta = self.ledger.total.diff(open_span.ledger_before)
            self._attribute(event, delta)
        if open_span.set_batch:
            self.current_batch = open_span.prev_batch
        self.phase_seconds[event.name] = (
            self.phase_seconds.get(event.name, 0.0) + event.duration
        )
        self.events.append(event)
        # Kernel aggregates follow their span, in first-launch order
        # (deterministic for a seeded run).
        self.events.extend(open_span.kernels.values())
        return event

    def _attribute(self, event: TraceEvent, delta: Counters) -> None:
        assert self.ledger is not None
        model = self.ledger.model
        seconds = model.seconds(delta)
        event.warp_instructions = delta.warp_instructions
        event.transactions = delta.transactions
        event.atomic_ops = delta.atomic_ops
        event.kernel_launches = delta.kernel_launches
        event.device_seconds = seconds
        event.device_cycles = seconds * model.device.clock_ghz * 1e9

    # -- ledger kernel hook --------------------------------------------------

    def _on_kernel(
        self,
        name: str,
        section: str,
        warp_instructions: int,
        transactions: int,
        seconds: float,
    ) -> None:
        """``CostLedger.obs_hook`` target: aggregate one kernel close.

        Aggregation is per (kernel name, section) under the innermost
        open span, so a refinement round launching the same kernel 200
        times produces one row with ``count=200`` instead of 200 lines.
        """
        if not self._stack:
            return
        open_span = self._stack[-1]
        key = (name, section)
        row = open_span.kernels.get(key)
        if row is None:
            assert self.ledger is not None
            row = TraceEvent(
                kind="kernel",
                name=name,
                span_id=self._next_id,
                parent=open_span.event.span_id,
                depth=open_span.event.depth + 1,
                batch=self.current_batch,
                section=section,
                count=0,
            )
            self._next_id += 1
            open_span.kernels[key] = row
        row.count += 1
        row.kernel_launches += 1
        row.warp_instructions += warp_instructions
        row.transactions += transactions
        row.device_seconds += seconds
        assert self.ledger is not None
        row.device_cycles = (
            row.device_seconds * self.ledger.model.device.clock_ghz * 1e9
        )

    # -- results -------------------------------------------------------------

    def header(self) -> dict:
        """The trace's JSONL header record."""
        return {
            "schema": TRACE_SCHEMA,
            "session": self.session,
            "has_ledger": self.ledger is not None,
        }

    def ledger_delta(self) -> Optional[Counters]:
        """Counters accumulated since activation (None without ledger)."""
        if self.ledger is None or self._ledger_at_start is None:
            return None
        return self.ledger.total.diff(self._ledger_at_start)


class _NoSpan:
    """The context :func:`span` returns while tracing is off: one shared
    object whose enter and exit do nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NO_SPAN = _NoSpan()


def span(name: str, batch: Optional[int] = None) -> ContextManager[None]:
    """Bracket a phase: records a :class:`TraceEvent` when tracing.

    When no tracer is active the cost is one module-global read and the
    enter/exit of a shared no-op object.  ``name`` must be a literal
    string at every call site (enforced by the ``span-literal`` lint
    rule) so trace-diff keys are stable across runs and revisions.
    ``batch`` stamps this span *and* every event nested under it with a
    correlation id.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NO_SPAN
    return _traced_span(tracer, name, batch)


@contextmanager
def _traced_span(
    tracer: Tracer, name: str, batch: Optional[int]
) -> Iterator[None]:
    tracer.begin_span(name, batch=batch)
    try:
        yield
    finally:
        tracer.end_span()
