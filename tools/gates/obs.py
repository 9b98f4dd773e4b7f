"""Observability gate: the ``repro.obs`` contracts, enforced.

Runs a seeded incremental sweep under the span tracer and asserts the
guarantees the rest of the tooling builds on:

* **schema validity** — the emitted JSONL trace passes
  ``repro.obs.validate_trace`` and its Chrome trace-event rendering
  passes ``validate_chrome_trace``;
* **bit-identical attribution** — two traced runs of the same seeded
  workload produce *zero* device-cycle/instruction/transaction delta
  in ``repro-obs diff`` for every span and kernel aggregate (host
  seconds are wall clock and exempt);
* **sum-to-ledger** — depth-0 spans partition the sweep, so their
  device-cycle attributions must sum to the ledger's own total;
* **phase coverage** — the trace contains spans for modification,
  balancing, refinement and the refinement commit;
* **ledger neutrality** — a traced run's ledger counters equal an
  untraced run's exactly (spans observe cost, they never charge it);
* **zero-cost when off** — with no tracer active, ``obs.span`` is one
  module-global read returning a shared no-op object; the gate times
  the disabled path and fails if a no-op span costs more than
  ``MAX_OFF_NS`` (loose enough that a loaded machine cannot flake the
  gate, tight enough to catch accidental work on the disabled path).

The traced run's artifacts are written to ``results/obs_trace.jsonl``
(untracked: every span in it is host-timed) and ``results/obs.txt``
(consumed by ``tools/build_experiments_md.py``).  ``obs.txt`` holds
only deterministic figures; the per-span host milliseconds and the
measured off-path cost are printed, not written.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.core.igkway import IGKway
from repro.eval.workloads import seeded_workload
from repro.gpusim.context import GpuContext
from repro.obs import (
    Tracer,
    chrome_trace,
    diff_traces,
    format_summary,
    span,
    validate_chrome_trace,
    validate_trace,
    write_trace,
)
from repro.partition.config import PartitionConfig

from gates import Stage

WORKLOAD = {"n_vertices": 1_200, "batches": 3, "seed": 7, "k": 4}

#: Spans the trace must contain (ISSUE acceptance: modification,
#: balancing, refinement and commit are all attributable).
REQUIRED_SPANS = ("modifiers", "balance", "refine", "refine.commit")

#: Relative slack for float accumulation in the sum-to-ledger check.
SUM_EPSILON = 1e-9

#: Ceiling on one disabled ``span()`` in nanoseconds: one global read
#: plus the enter/exit of a shared no-op object measures 0.3-0.6µs in
#: CPython on a 2-vCPU container, a 2.5x margin or more.
MAX_OFF_NS = 1_500.0


def run_traced(workload: dict) -> tuple[Tracer, object]:
    """One seeded sweep under the tracer; returns (tracer, ledger)."""
    csr, trace = seeded_workload(
        workload["n_vertices"], workload["batches"], seed=workload["seed"]
    )
    ctx = GpuContext()
    ig = IGKway(csr, PartitionConfig(k=workload["k"]), ctx=ctx)
    tracer = Tracer(ledger=ctx.ledger, session="obs-gate")
    with tracer.activate():
        ig.full_partition()
        for batch in trace:
            ig.apply(batch)
    return tracer, ctx.ledger


def run_untraced(workload: dict) -> object:
    """The same sweep with tracing off; returns the ledger."""
    csr, trace = seeded_workload(
        workload["n_vertices"], workload["batches"], seed=workload["seed"]
    )
    ctx = GpuContext()
    ig = IGKway(csr, PartitionConfig(k=workload["k"]), ctx=ctx)
    ig.full_partition()
    for batch in trace:
        ig.apply(batch)
    return ctx.ledger


def check_schema(trace_path: Path) -> list[str]:
    errors = validate_trace(trace_path)
    return [f"trace schema: {e}" for e in errors]


def check_chrome(tracer: Tracer) -> list[str]:
    rendered = chrome_trace(tracer.header(), tracer.events)
    errors = validate_chrome_trace(rendered)
    return [f"chrome export: {e}" for e in errors]


def check_required_spans(tracer: Tracer) -> list[str]:
    names = {e.name for e in tracer.events if e.kind == "span"}
    return [
        f"required span {name!r} missing from trace "
        f"(got {sorted(names)})"
        for name in REQUIRED_SPANS
        if name not in names
    ]


def check_deterministic_attribution(
    first: Tracer, second: Tracer
) -> list[str]:
    """Two seeded runs must diff to zero on every deterministic field."""
    failures: list[str] = []
    diff = diff_traces(first.events, second.events)
    if diff.has_structural_change:
        failures.append(
            "trace structure changed between identical seeded runs: "
            f"only_before={diff.only_before} only_after={diff.only_after}"
        )
    for delta in diff.deltas:
        if (
            delta.device_cycles_delta != 0.0
            or delta.instruction_delta != 0
            or delta.transaction_delta != 0
            or delta.count_delta != 0
        ):
            failures.append(
                f"attribution for {delta.key!r} not bit-identical across "
                f"seeded runs: cycles {delta.device_cycles_delta:+g}, "
                f"instr {delta.instruction_delta:+d}, "
                f"trans {delta.transaction_delta:+d}, "
                f"count {delta.count_delta:+d}"
            )
    return failures


def check_sum_to_ledger(tracer: Tracer, ledger) -> list[str]:
    """Depth-0 spans partition the sweep: cycles must sum to the total."""
    total_seconds = ledger.model.seconds(ledger.total)
    total_cycles = total_seconds * ledger.model.device.clock_ghz * 1e9
    attributed = sum(
        e.device_cycles
        for e in tracer.events
        if e.kind == "span" and e.depth == 0
    )
    slack = SUM_EPSILON * max(1.0, abs(total_cycles))
    if abs(attributed - total_cycles) > slack:
        return [
            "depth-0 span device cycles do not sum to the ledger total: "
            f"attributed={attributed!r} ledger={total_cycles!r}"
        ]
    return []


def check_ledger_neutrality(traced_ledger, untraced_ledger) -> list[str]:
    failures = []
    for counter in ("warp_instructions", "transactions", "atomic_ops"):
        traced = getattr(traced_ledger.total, counter)
        untraced = getattr(untraced_ledger.total, counter)
        if traced != untraced:
            failures.append(
                f"tracer perturbed ledger counter {counter!r}: "
                f"traced={traced} untraced={untraced}"
            )
    return failures


def check_disabled_overhead(max_off_ns: float) -> tuple[list[str], float]:
    """Time ``obs.span`` with no active tracer; must stay unmeasurable."""
    n = 200_000
    # Warm up, then measure the no-op path.
    for _ in range(1_000):
        with span("obs-gate.off"):
            pass
    t0 = time.perf_counter()
    for _ in range(n):
        with span("obs-gate.off"):
            pass
    per_call_ns = (time.perf_counter() - t0) / n * 1e9
    if per_call_ns > max_off_ns:
        return (
            [
                f"tracing-off span cost {per_call_ns:.0f}ns/call exceeds "
                f"{max_off_ns:.0f}ns — the disabled path must stay a "
                "single global read"
            ],
            per_call_ns,
        )
    return [], per_call_ns


def run() -> tuple[list[Stage], dict[str, str]]:
    first, first_ledger = run_traced(WORKLOAD)
    second, _ = run_traced(WORKLOAD)
    untraced_ledger = run_untraced(WORKLOAD)

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "obs_trace.jsonl"
        write_trace(first, trace_path)
        schema_failures = check_schema(trace_path)
        trace_text = trace_path.read_text(encoding="utf-8")
    off_failures, per_call_ns = check_disabled_overhead(MAX_OFF_NS)

    n_spans = sum(1 for e in first.events if e.kind == "span")
    n_kernels = sum(1 for e in first.events if e.kind == "kernel")
    stages = [
        Stage(
            "trace schema",
            schema_failures,
            [f"{n_spans} spans, {n_kernels} kernel aggregates",
             *format_summary(first.events).splitlines()],
        ),
        Stage("chrome export", check_chrome(first)),
        Stage("required spans", check_required_spans(first)),
        Stage(
            "deterministic attribution",
            check_deterministic_attribution(first, second),
        ),
        Stage("sum to ledger", check_sum_to_ledger(first, first_ledger)),
        Stage(
            "ledger neutrality",
            check_ledger_neutrality(first_ledger, untraced_ledger),
        ),
        Stage(
            "tracing-off cost",
            off_failures,
            [f"off-path {per_call_ns:.0f}ns/span"],
        ),
    ]
    summary = (
        "repro.obs gate summary "
        f"(|V|={WORKLOAD['n_vertices']}, "
        f"batches={WORKLOAD['batches']}, seed={WORKLOAD['seed']}, "
        f"k={WORKLOAD['k']})\n\n"
        + format_summary(first.events, host=False)
        + "\n"
    )
    return stages, {"obs_trace.jsonl": trace_text, "obs.txt": summary}
