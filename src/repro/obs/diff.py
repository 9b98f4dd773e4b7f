"""Trace diffing: attribute a regression to the phase that caused it.

``repro-obs diff before.jsonl after.jsonl`` answers "which kernel or
phase got slower" without scraping gates by hand: both traces are
aggregated per key (span name, or ``kernel:<name>@<section>`` for
kernel aggregates), then differenced on

* **device cycles** — deterministic for a seeded workload, so *any*
  nonzero delta is a real cost-model change (the obs gate requires two
  seeded runs to diff to zero), and
* **host seconds** — wall clock, compared against a noise floor
  (relative tolerance plus an absolute floor, the perf gate's policy)
  so machine jitter does not read as a regression.

The top regressions are ranked by absolute device-cycle delta first
(deterministic evidence beats noisy evidence) and host delta second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.obs.tracer import TraceEvent

#: Host-seconds slack below which a delta is noise, not a regression
#: (mirrors ABSOLUTE_FLOOR in tools/gates/perf.py).
HOST_ABSOLUTE_FLOOR = 0.05


@dataclass
class PhaseAggregate:
    """Per-key totals over one trace."""

    key: str
    count: int = 0
    host_seconds: float = 0.0
    device_seconds: float = 0.0
    device_cycles: float = 0.0
    warp_instructions: int = 0
    transactions: int = 0

    def add(self, event: TraceEvent) -> None:
        self.count += event.count if event.kind == "kernel" else 1
        self.host_seconds += event.duration
        self.device_seconds += event.device_seconds
        self.device_cycles += event.device_cycles
        self.warp_instructions += event.warp_instructions
        self.transactions += event.transactions


@dataclass
class PhaseDelta:
    """One key's before/after comparison."""

    key: str
    before: PhaseAggregate
    after: PhaseAggregate

    @property
    def host_delta(self) -> float:
        return self.after.host_seconds - self.before.host_seconds

    @property
    def device_cycles_delta(self) -> float:
        return self.after.device_cycles - self.before.device_cycles

    @property
    def instruction_delta(self) -> int:
        return self.after.warp_instructions - self.before.warp_instructions

    @property
    def transaction_delta(self) -> int:
        return self.after.transactions - self.before.transactions

    @property
    def count_delta(self) -> int:
        return self.after.count - self.before.count

    def is_device_regression(self, epsilon: float = 0.0) -> bool:
        return self.device_cycles_delta > epsilon

    def is_host_regression(
        self,
        tolerance: float = 0.20,
        floor: float = HOST_ABSOLUTE_FLOOR,
    ) -> bool:
        limit = self.before.host_seconds * tolerance + floor
        return self.host_delta > limit


@dataclass
class TraceDiff:
    """Full comparison of two traces."""

    deltas: List[PhaseDelta] = field(default_factory=list)
    only_before: List[str] = field(default_factory=list)
    only_after: List[str] = field(default_factory=list)

    def device_regressions(self, epsilon: float = 0.0) -> List[PhaseDelta]:
        return [
            d for d in self.deltas if d.is_device_regression(epsilon)
        ]

    def host_regressions(
        self,
        tolerance: float = 0.20,
        floor: float = HOST_ABSOLUTE_FLOOR,
    ) -> List[PhaseDelta]:
        return [
            d for d in self.deltas if d.is_host_regression(tolerance, floor)
        ]

    @property
    def has_structural_change(self) -> bool:
        """True when a phase appeared or disappeared between traces."""
        return bool(self.only_before or self.only_after)

    def max_abs_device_delta(self) -> float:
        return max(
            (abs(d.device_cycles_delta) for d in self.deltas),
            default=0.0,
        )


def event_key(event: TraceEvent) -> str:
    """Stable aggregation key for one event."""
    if event.kind == "kernel":
        section = event.section or "unattributed"
        return f"kernel:{event.name}@{section}"
    return event.name


def aggregate(events: Iterable[TraceEvent]) -> Dict[str, PhaseAggregate]:
    """Aggregate a trace's events per key (sorted by key)."""
    totals: Dict[str, PhaseAggregate] = {}
    for event in events:
        key = event_key(event)
        agg = totals.get(key)
        if agg is None:
            agg = PhaseAggregate(key=key)
            totals[key] = agg
        agg.add(event)
    return {key: totals[key] for key in sorted(totals)}


def diff_traces(
    before: Iterable[TraceEvent], after: Iterable[TraceEvent]
) -> TraceDiff:
    """Compare two traces; deltas ranked worst-regression first."""
    before_agg = aggregate(before)
    after_agg = aggregate(after)
    diff = TraceDiff(
        only_before=sorted(set(before_agg) - set(after_agg)),
        only_after=sorted(set(after_agg) - set(before_agg)),
    )
    for key in sorted(set(before_agg) & set(after_agg)):
        diff.deltas.append(
            PhaseDelta(
                key=key, before=before_agg[key], after=after_agg[key]
            )
        )
    diff.deltas.sort(
        key=lambda d: (
            -abs(d.device_cycles_delta),
            -abs(d.host_delta),
            d.key,
        )
    )
    return diff


def format_diff(
    diff: TraceDiff,
    top: int = 10,
    tolerance: float = 0.20,
    floor: float = HOST_ABSOLUTE_FLOOR,
) -> str:
    """Human-readable regression attribution report."""
    lines: List[str] = []
    if diff.only_after:
        lines.append(
            "phases only in AFTER trace: " + ", ".join(diff.only_after)
        )
    if diff.only_before:
        lines.append(
            "phases only in BEFORE trace: " + ", ".join(diff.only_before)
        )
    device = diff.device_regressions()
    host = diff.host_regressions(tolerance, floor)
    lines.append(
        f"{len(diff.deltas)} shared phases; "
        f"{len(device)} device-cycle regressions, "
        f"{len(host)} host-time regressions "
        f"(tolerance {tolerance:.0%} + {floor}s floor)"
    )
    header = (
        f"{'phase':<34} {'d.cycles Δ':>14} {'host Δ (ms)':>12} "
        f"{'instr Δ':>12} {'trans Δ':>10} {'count Δ':>8}"
    )
    lines.append(header)
    shown = diff.deltas[:top]
    for delta in shown:
        marker = ""
        if delta.is_device_regression():
            marker = " <- device"
        elif delta.is_host_regression(tolerance, floor):
            marker = " <- host"
        lines.append(
            f"{delta.key:<34} {delta.device_cycles_delta:>14.1f} "
            f"{delta.host_delta * 1e3:>12.2f} "
            f"{delta.instruction_delta:>12} "
            f"{delta.transaction_delta:>10} "
            f"{delta.count_delta:>8}{marker}"
        )
    if len(diff.deltas) > top:
        lines.append(f"... {len(diff.deltas) - top} more phases elided")
    return "\n".join(lines)


def summarize(
    events: Iterable[TraceEvent], spans_only: bool = True
) -> List[Tuple[str, PhaseAggregate]]:
    """Per-phase totals of one trace, heaviest device cost first."""
    totals = aggregate(
        e
        for e in events
        if not spans_only or e.kind == "span"
    )
    return sorted(
        totals.items(),
        key=lambda kv: (-kv[1].device_cycles, kv[0]),
    )


def format_summary(
    events: Iterable[TraceEvent], top: int = 20, host: bool = True
) -> str:
    """Table of per-span host seconds and device cycles.

    ``host=False`` leaves out the host column, so the table is a
    deterministic function of a seeded workload."""
    rows = summarize(events)
    host_head = f" {'host ms':>10}" if host else ""
    lines = [
        f"{'span':<26} {'calls':>7}{host_head} "
        f"{'device ms':>11} {'device cycles':>15}"
    ]
    for key, agg in rows[:top]:
        host_ms = f" {agg.host_seconds * 1e3:>10.2f}" if host else ""
        lines.append(
            f"{key:<26} {agg.count:>7}{host_ms} "
            f"{agg.device_seconds * 1e3:>11.4f} {agg.device_cycles:>15.1f}"
        )
    if len(rows) > top:
        lines.append(f"... {len(rows) - top} more spans elided")
    return "\n".join(lines)
