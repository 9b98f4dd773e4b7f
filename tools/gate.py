#!/usr/bin/env python
"""Run the deterministic gates that ``make check`` holds the repo to.

Each gate is one check module under ``tools/gates/``; this runner owns
what they share: the import paths, one ``ok``/``FAILED`` line per
stage (report lines and failures indented under it), the artifacts
written to ``results/`` (which ``tools/build_experiments_md.py``
reads), and the exit status, 1 when any stage failed.

Usage::

    python tools/gate.py                  # every gate in make check
    python tools/gate.py perf serve       # the named gates only
    python tools/gate.py --no-write obs   # leave results/ untouched
    python tools/gate.py chaos_full       # chaos at full scale (make chaos)
    python tools/gate.py --update perf    # re-baseline BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "tools"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

RESULTS = REPO_ROOT / "results"

#: gate name -> (module under tools/gates, keyword arguments to its run()).
GATES: dict[str, tuple[str, dict]] = {
    "perf": ("perf", {}),
    "chaos": ("chaos", {}),
    "analysis": ("analysis", {}),
    "effects": ("effects", {}),
    "obs": ("obs", {}),
    "serve": ("serve", {}),
    "serve_chaos": ("serve_chaos", {}),
    "serve_obs": ("serve_obs", {}),
    "chaos_full": ("chaos", {"full": True}),
}

#: What a bare ``tools/gate.py`` runs: every gate except full-scale chaos.
DEFAULT_GATES = [name for name in GATES if name != "chaos_full"]


def run_gate(name: str, write: bool) -> bool:
    """Run one gate, print its stages, write its artifacts; True = pass."""
    module, kwargs = GATES[name]
    stages, artifacts = importlib.import_module(f"gates.{module}").run(**kwargs)
    for stage in stages:
        print(f"{name}: {stage.name} {'FAILED' if stage.failures else 'ok'}")
        for line in stage.report:
            print(f"    {line.strip()}")
        for failure in stage.failures:
            print(f"    - {failure}")
    if write:
        RESULTS.mkdir(exist_ok=True)
        for filename, text in artifacts.items():
            (RESULTS / filename).write_text(text, encoding="utf-8")
    return not any(stage.failures for stage in stages)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "gates", nargs="*", metavar="GATE",
        help=f"gates to run (default: all of {', '.join(DEFAULT_GATES)}; "
        "also: chaos_full)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="do not write the results/ artifacts",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-measure the perf gate and rewrite its section of "
        "BENCH_hotpath.json instead of checking it",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.gates if name not in GATES]
    if unknown:
        parser.error(f"unknown gate(s) {unknown}; choose from {list(GATES)}")
    if args.update:
        if args.gates != ["perf"] or args.no_write:
            parser.error("--update re-baselines the perf gate: "
                         "use it as `--update perf`")
        from gates.perf import rebaseline

        print(rebaseline())
        return 0

    failed = [
        name for name in args.gates or DEFAULT_GATES
        if not run_gate(name, write=not args.no_write)
    ]
    if failed:
        print(f"gates FAILED: {', '.join(failed)}")
        return 1
    print("gates PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
