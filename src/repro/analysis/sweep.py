"""Sanitized sweeps: run seeded workloads under shadow-memory mode.

:func:`run_sanitized_sweep` drives the canonical bench workload
(:func:`repro.eval.workloads.seeded_workload` — the same circuit
graph + modifier trace the benches and gates use)
through :class:`~repro.core.igkway.IGKway` in warp mode with a
:class:`~repro.analysis.shadow.ShadowSession` attached, and returns the
race findings plus the per-launch access-trace digests.

:func:`check_determinism` runs the sweep twice from the same seed and
compares the traces: identical seeds must produce identical access
streams, or some kernel consults state outside the seed (clock, id
ordering, unseeded RNG) — the class of bug that otherwise only shows up
as a flaky partition digest in the perf gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.shadow import (
    LaunchTrace,
    RaceFinding,
    ShadowSession,
    ShadowTracker,
    compare_traces,
)
from repro.core.igkway import IGKway
from repro.eval.workloads import seeded_workload
from repro.gpusim.context import GpuContext
from repro.partition.config import PartitionConfig

#: Default sweep scale: big enough that every incremental kernel
#: (Algorithms 1-4) launches with multi-warp grids, small enough that
#: the per-warp simulator plus instrumentation stays in gate budget.
SWEEP_VERTICES = 400
SWEEP_BATCHES = 2
SWEEP_SEED = 7
SWEEP_K = 4


@dataclass
class SweepReport:
    """Outcome of one sanitized sweep."""

    n_vertices: int
    batches: int
    seed: int
    k: int
    mode: str
    findings: list[RaceFinding] = field(default_factory=list)
    n_conflicts: int = 0
    launches: list[LaunchTrace] = field(default_factory=list)
    final_cut: int = 0
    ledger_instructions: int = 0
    ledger_transactions: int = 0

    @property
    def clean(self) -> bool:
        return self.n_conflicts == 0

    def summary(self) -> str:
        status = "clean" if self.clean else f"{self.n_conflicts} conflicts"
        return (
            f"sanitized sweep ({self.n_vertices}v/{self.batches} batches, "
            f"seed {self.seed}, mode {self.mode}): {len(self.launches)} "
            f"launches traced, {status}"
        )


def run_sanitized_sweep(
    n_vertices: int = SWEEP_VERTICES,
    batches: int = SWEEP_BATCHES,
    seed: int = SWEEP_SEED,
    k: int = SWEEP_K,
    mode: str = "warp",
) -> SweepReport:
    """One incremental sweep under shadow mode; returns the report.

    The full (from-scratch) partition runs *before* the session opens —
    the sanitizer targets the incremental kernels of Algorithms 1-4,
    which are the warp-cooperative ones.  Warp mode is the default
    because that path exercises lane-level access patterns; vector mode
    still yields launch digests for its bulk scatters.
    """
    csr, trace = seeded_workload(n_vertices, batches, seed)
    ctx = GpuContext()
    ig = IGKway(csr, PartitionConfig(k=k, mode=mode), ctx=ctx)
    ig.full_partition()

    tracker = ShadowTracker()
    with ShadowSession(ctx, tracker) as session:
        session.attach_graph(ig.graph)
        session.attach_state(ig.state)
        for batch in trace:
            ig.apply(batch)

    total = ctx.ledger.total
    return SweepReport(
        n_vertices=n_vertices,
        batches=batches,
        seed=seed,
        k=k,
        mode=mode,
        findings=list(tracker.findings),
        n_conflicts=tracker.n_conflicts,
        launches=list(tracker.launches),
        final_cut=ig.cut_size(),
        ledger_instructions=total.warp_instructions,
        ledger_transactions=total.transactions,
    )


def check_determinism(
    n_vertices: int = SWEEP_VERTICES,
    batches: int = SWEEP_BATCHES,
    seed: int = SWEEP_SEED,
    k: int = SWEEP_K,
    mode: str = "warp",
) -> "tuple[SweepReport, list[str]]":
    """Run the sweep twice from one seed; return (first report, diffs).

    An empty diff list certifies the access traces are bit-identical
    across runs — the launch-order determinism contract.
    """
    first = run_sanitized_sweep(n_vertices, batches, seed, k, mode)
    second = run_sanitized_sweep(n_vertices, batches, seed, k, mode)
    problems = compare_traces(first.launches, second.launches)
    if first.final_cut != second.final_cut:
        problems.append(
            f"final cut diverged: {first.final_cut} vs {second.final_cut}"
        )
    return first, problems
