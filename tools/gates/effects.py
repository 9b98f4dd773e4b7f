"""Interprocedural effects gate — runs the whole-repo invariant pass.

Two stages, each independently pass/fail:

1. **Fixture self-test** — every invariant in the catalog must fire on
   its seeded-bad fixture tree and stay silent on the corrected twin
   (see :mod:`repro.analysis.effects.fixtures`).  A checker that cannot
   re-find the seeded bugs would let stage 2 pass vacuously.
2. **Repo-wide invariants** — call-graph construction + effect
   inference + invariant checking over ``src/repro``, filtered through
   the shared ``tools/analysis_baseline.json``.  Any new finding or
   stale baseline entry of an invariant fails, and so does a pass
   slower than ``BUDGET_SECONDS`` (10 s): an analysis too slow for
   ``make check`` would get skipped, and a skipped gate is no gate.

The deterministic report (call-graph stats, per-invariant findings) is
written to ``results/effects.txt``, which
``tools/build_experiments_md.py`` folds into EXPERIMENTS.md; the
per-stage host seconds are printed, not written.
"""

from __future__ import annotations

from repro.analysis.effects import (
    EffectsReport,
    format_report,
    run_effects_analysis,
)
from repro.analysis.effects.fixtures import run_selftest

from gates import REPO_ROOT, Stage, filter_baseline

BUDGET_SECONDS = 10.0


def stage_selftest() -> list[str]:
    return [f"fixture self-test: {f}" for f in run_selftest()]


def stage_repo() -> tuple[list[str], list[str], str]:
    """Run the repo-wide pass.  Returns (failures, notices, report)."""
    failures: list[str] = []
    findings, timing = run_effects_analysis([REPO_ROOT / "src" / "repro"])
    new, stale = filter_baseline(
        findings, {r.invariant.id for r in timing.results}
    )
    failures.extend(f"new effects finding: {f}" for f in new)
    failures.extend(f"stale baseline entry: {s}" for s in stale)
    notices = [
        f"{timing.n_functions} functions, "
        f"{len(findings)} finding(s) ({len(new)} new), "
        f"{timing.total_seconds:.2f}s",
        *(f"{row['stage']}: {row['seconds']}s" for row in timing.rows()),
    ]
    if timing.total_seconds > BUDGET_SECONDS:
        failures.append(
            f"performance budget exceeded: {timing.total_seconds:.2f}s "
            f"> {BUDGET_SECONDS:.0f}s"
        )
    report = EffectsReport(findings=new, timing=timing)
    return failures, notices, format_report(report, timing.engine)


def run() -> tuple[list[Stage], dict[str, str]]:
    repo_failures, notices, report = stage_repo()
    stages = [
        Stage("fixture self-test", stage_selftest()),
        Stage("repo-wide invariants", repo_failures, notices),
    ]
    return stages, {"effects.txt": report}
