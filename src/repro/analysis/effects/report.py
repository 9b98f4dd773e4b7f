"""Human-readable reporting for the effects analysis.

The gate writes :func:`format_report` output to ``results/effects.txt``
which ``tools/build_experiments_md.py`` folds into EXPERIMENTS.md, so
everything here must be deterministic: sorted keys and no wall-clock
content (the gate prints the per-stage seconds instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.effects.callgraph import callgraph_stats
from repro.analysis.effects.infer import EffectEngine
from repro.analysis.effects.invariants import EffectsTiming
from repro.analysis.lintcore import Finding


@dataclass
class EffectsReport:
    """Everything one whole-repo run produced."""

    findings: List[Finding] = field(default_factory=list)
    timing: Optional[EffectsTiming] = None


def signature_table(
    engine: EffectEngine, atoms: Optional[List[str]] = None
) -> Dict[str, List[str]]:
    """``qualname -> sorted effect atoms`` for functions with effects.

    ``atoms`` restricts the table to functions carrying at least one of
    the given atoms (the full table is large).
    """
    table: Dict[str, List[str]] = {}
    for qualname in sorted(engine.signatures):
        sig = engine.signatures[qualname]
        if not sig.effects:
            continue
        if atoms is not None and not (set(atoms) & sig.effects):
            continue
        table[qualname] = sorted(sig.effects)
    return table


def format_report(
    report: EffectsReport, engine: Optional[EffectEngine] = None
) -> str:
    """Render the gate's deterministic text artifact."""
    lines: List[str] = ["# repro effects analysis"]
    if engine is not None:
        stats = callgraph_stats(engine.graph)
        lines.append(
            "callgraph: "
            + ", ".join(f"{k}={stats[k]}" for k in sorted(stats))
        )
        effectful = sum(
            1 for s in engine.signatures.values() if s.effects
        )
        lines.append(
            f"signatures: {len(engine.signatures)} functions, "
            f"{effectful} with effects"
        )
    if report.timing is not None:
        lines.append("")
        lines.append(f"{'stage':28s} {'findings':>9s}")
        for row in report.timing.rows():
            lines.append(f"{str(row['stage']):28s} {str(row['findings']):>9}")
        lines.append(f"{'total':28s} {len(report.findings):>9}")
    lines.append("")
    if report.findings:
        lines.append(f"{len(report.findings)} finding(s):")
        for finding in report.findings:
            lines.append(f"  {finding}")
    else:
        lines.append("invariants: clean")
    return "\n".join(lines) + "\n"
