"""Sanitized-sweep acceptance tests.

These pin the gate's dynamic contracts as regular tests: the seeded
incremental workload is race-free under shadow mode, its access traces
are deterministic, and instrumentation is cost-neutral — the ledger and
the produced partition are bit-identical with the sanitizer on and off.
"""

from repro.analysis.sweep import (
    SWEEP_BATCHES,
    SWEEP_SEED,
    SWEEP_VERTICES,
    check_determinism,
    run_sanitized_sweep,
)
from repro.core.igkway import IGKway
from repro.eval.workloads import seeded_workload
from repro.gpusim.context import GpuContext
from repro.partition.config import PartitionConfig


def test_seeded_sweep_is_race_free():
    report = run_sanitized_sweep()
    assert report.clean, report.summary() + "\n" + "\n".join(
        str(f) for f in report.findings[:5]
    )
    # The sweep must actually exercise the incremental kernels.
    assert len(report.launches) >= 3
    kernels = {launch.kernel for launch in report.launches}
    assert "apply-modifiers" in kernels


def test_seeded_sweep_is_deterministic():
    report, problems = check_determinism()
    assert problems == []
    assert report.clean


def test_vector_mode_sweep_also_clean():
    report = run_sanitized_sweep(mode="vector")
    assert report.clean, report.summary()


def test_sanitizer_is_ledger_neutral():
    """Same workload with and without shadow: identical cost and output."""
    csr, trace = seeded_workload(SWEEP_VERTICES, SWEEP_BATCHES, SWEEP_SEED)
    ctx = GpuContext()
    ig = IGKway(csr, PartitionConfig(k=4, mode="warp"), ctx=ctx)
    ig.full_partition()
    for batch in trace:
        ig.apply(batch)
    bare_total = ctx.ledger.total
    bare_cut = ig.cut_size()

    shadowed = run_sanitized_sweep()
    assert shadowed.ledger_instructions == bare_total.warp_instructions
    assert shadowed.ledger_transactions == bare_total.transactions
    assert shadowed.final_cut == bare_cut
