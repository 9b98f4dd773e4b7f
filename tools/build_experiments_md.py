#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from the template and the results/ artifacts.

Run after ``igkway-eval all --iterations 100 --out results/`` and
``python tools/gate.py`` (which writes the gate reports):

    python tools/build_experiments_md.py

:func:`render` returns the text without writing it; a tier-1 test
checks that rebuilding from the tracked ``results/`` is a no-op.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def artifact(name: str) -> str:
    path = RESULTS / f"{name}.txt"
    if not path.exists():
        raise SystemExit(f"missing {path}; run igkway-eval all first")
    return path.read_text().rstrip()


def optional_artifact(gate: str) -> str:
    """``results/<gate>.txt``, the report of that gate; absent is fine."""
    path = RESULTS / f"{gate}.txt"
    if not path.exists():
        return (
            f"(not captured on this run; `python tools/gate.py {gate}` "
            f"writes {path.name})"
        )
    return path.read_text().rstrip()


def graph_inventory() -> str:
    from repro.graph import BENCHMARKS, graph_summary, make_benchmark_graph

    lines = [
        f"{'name':<18} {'|V|':>7} {'|E|':>7} {'E/V':>5} {'class':>16} "
        f"{'paper |V|':>11} {'paper |E|':>11}"
    ]
    for name, spec in BENCHMARKS.items():
        csr = make_benchmark_graph(name, seed=0)
        summary = graph_summary(csr)
        lines.append(
            f"{name:<18} {summary['vertices']:>7} {summary['edges']:>7} "
            f"{summary['edge_vertex_ratio']:>5.2f} "
            f"{summary['structure_class']:>16} "
            f"{spec.paper.vertices:>11,} {spec.paper.edges:>11,}"
        )
    return "\n".join(lines)


def render() -> str:
    """The text of EXPERIMENTS.md: the template with every placeholder
    replaced by its ``results/`` artifact."""
    text = (ROOT / "EXPERIMENTS.md.template").read_text()
    substitutions = {
        "<<TABLE1>>": artifact("table1"),
        "<<FIG1>>": artifact("fig1"),
        "<<FIG6>>": artifact("fig6"),
        "<<FIG7>>": artifact("fig7"),
        "<<FIG8>>": artifact("fig8"),
        "<<ABLATIONS>>": artifact("ablations"),
        "<<SELFCHECK>>": artifact("selfcheck"),
        "<<VARIANCE>>": artifact("variance"),
        "<<OBSTRACE>>": optional_artifact("obs"),
        "<<EFFECTS>>": optional_artifact("effects"),
        "<<ANALYSIS>>": optional_artifact("analysis"),
        "<<SERVE>>": optional_artifact("serve"),
        "<<SERVECHAOS>>": optional_artifact("serve_chaos"),
        "<<GRAPHS>>": graph_inventory(),
    }
    for key, value in substitutions.items():
        if key not in text:
            raise SystemExit(f"template is missing {key}")
        text = text.replace(key, value)
    return text


def main() -> int:
    (ROOT / "EXPERIMENTS.md").write_text(render())
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
