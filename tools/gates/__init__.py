"""Check modules behind the gate runner ``tools/gate.py``.

One module per gate: :mod:`perf`, :mod:`chaos`, :mod:`analysis`,
:mod:`effects`, :mod:`obs`, :mod:`serve`, :mod:`serve_chaos` and
:mod:`serve_obs`.  Each exposes ``run()`` returning ``(stages,
artifacts)``: the named :class:`Stage` results in order, and the
``results/`` files to write (file name -> text).  The runner owns the
import paths, the artifact writes, the per-stage ``ok``/``FAILED``
lines and the exit status; the modules own only their checks.

The helpers more than one gate needs live here.
"""

from __future__ import annotations

import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import Baseline, Finding
from repro.graph.modifiers import EdgeInsert
from repro.serve import ServeClient, build_graph

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "tools" / "analysis_baseline.json"
HOST = "127.0.0.1"


@dataclass
class Stage:
    """One named check: it passes when ``failures`` is empty."""

    name: str
    failures: list[str]
    report: list[str] = field(default_factory=list)


def report_text(stages: list[Stage], title: str) -> str:
    """A stage-by-stage report: each stage name as a heading, its
    report lines under it, then ``<title>: PASS`` or ``FAIL``."""
    lines: list[str] = []
    for stage in stages:
        lines.append(f"{stage.name}:")
        lines.extend(stage.report)
    failed = any(stage.failures for stage in stages)
    lines.append(f"{title}: {'FAIL' if failed else 'PASS'}")
    return "\n".join(lines)


# -- static analysis ------------------------------------------------------------


def filter_baseline(
    findings: list[Finding], rule_ids: set[str]
) -> tuple[list[Finding], list[str]]:
    """Subtract ``tools/analysis_baseline.json`` from ``findings``.

    Returns ``(new, stale)``.  The baseline is shared by the lint pack
    and the effect invariants, so only entries of ``rule_ids`` (the
    rules the caller ran) take part: an entry of a rule that did not
    run cannot match, and calling it stale would fail one gate on the
    other's grandfathered findings.  Baseline keys are repo-relative,
    so finding paths are relativized first.
    """
    shared = Baseline.load(BASELINE_PATH)
    own = Baseline(
        {key: e for key, e in shared.entries.items() if e.rule in rule_ids}
    )
    relative = [
        Finding(
            rule=f.rule,
            path=Path(f.path).resolve().relative_to(REPO_ROOT).as_posix(),
            line=f.line,
            message=f.message,
            symbol=f.symbol,
        )
        for f in findings
    ]
    return own.filter(relative)


# -- serving --------------------------------------------------------------------


def clean_modifiers(spec: dict) -> list:
    """Deterministic insert-only stream of edges that do not exist in
    the graph and never repeat within the stream."""
    graph = build_graph(spec["graph"])
    nv = spec["graph"]["args"]["num_vertices"]
    stride = spec["stride"]
    out: list = []
    seen: set = set()
    candidate = 0
    while len(out) < spec["modifiers"]:
        u = candidate % nv
        v = (u + stride + candidate // nv) % nv
        candidate += 1
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen or graph.has_edge(u, v):
            continue
        seen.add(key)
        out.append(EdgeInsert(u=u, v=v))
    return out


def make_clients(port: int, tenants: dict, **kwargs) -> dict:
    """One :class:`ServeClient` per tenant (sorted) against a
    ``ServerThread`` listening on ``port``."""
    return {
        name: ServeClient(HOST, port, tenant=name, **kwargs)
        for name in sorted(tenants)
    }


def create_sessions(clients: dict, tenants: dict, chunk: int) -> None:
    """Create each tenant's session ``s0``; windows auto-flush every
    ``chunk`` modifiers."""
    for name in sorted(tenants):
        spec = tenants[name]
        clients[name].create(
            "s0",
            spec["graph"],
            k=spec["k"],
            seed=spec["seed"],
            target_batch_size=chunk,
        )


def close_clients(clients: dict) -> None:
    for client in clients.values():
        client.close()


def http_get(port: int, path: str) -> tuple[str, str]:
    """``GET`` from the server's HTTP port; returns (Content-Type, body).

    A non-2xx answer raises :class:`urllib.error.HTTPError`."""
    with urllib.request.urlopen(
        f"http://{HOST}:{port}{path}", timeout=30
    ) as response:
        content_type = response.headers.get("Content-Type", "")
        return content_type, response.read().decode("utf-8")
