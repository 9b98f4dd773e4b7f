"""``repro-obs``: trace tooling for the observability layer.

Five subcommands::

    repro-obs diff before.jsonl after.jsonl   # regression attribution
    repro-obs summary trace.jsonl             # per-span cost table
    repro-obs chrome trace.jsonl -o out.json  # flamegraph export
    repro-obs dashboard scrape.prom -o d.html # HTML dashboard
    repro-obs flightrec flightrec-*.jsonl     # validate a flight dump

``diff`` exits 1 when the traces disagree on *deterministic* evidence —
a nonzero device-cycle delta or a phase appearing/disappearing — or,
with ``--fail-on-host``, when host time regressed beyond the noise
floor.  Two seeded runs of the same revision must diff to zero (the
``tools/gates/obs.py`` contract).

``python -m repro.obs.cli ...`` is equivalent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.obs.dashboard import render_dashboard
from repro.obs.diff import (
    HOST_ABSOLUTE_FLOOR,
    diff_traces,
    format_diff,
    format_summary,
)
from repro.obs.distrib import load_flight, validate_flight
from repro.obs.export import (
    load_trace,
    validate_trace,
    write_chrome_trace,
)
from repro.obs.tracer import TraceEvent


def _load_or_die(path: Path) -> "tuple[dict, list[TraceEvent]]":
    errors = validate_trace(path)
    if errors:
        for error in errors[:10]:
            print(f"repro-obs: {path}: {error}", file=sys.stderr)
        raise SystemExit(1)
    return load_trace(path)


def cmd_diff(args: argparse.Namespace) -> int:
    _before_header, before = _load_or_die(args.before)
    _after_header, after = _load_or_die(args.after)
    diff = diff_traces(before, after)
    print(
        format_diff(
            diff,
            top=args.top,
            tolerance=args.host_tolerance,
            floor=args.host_floor,
        )
    )
    if args.json is not None:
        payload = {
            "only_before": diff.only_before,
            "only_after": diff.only_after,
            "deltas": [
                {
                    "key": d.key,
                    "device_cycles_delta": d.device_cycles_delta,
                    "host_delta_seconds": d.host_delta,
                    "instruction_delta": d.instruction_delta,
                    "transaction_delta": d.transaction_delta,
                    "count_delta": d.count_delta,
                }
                for d in diff.deltas
            ],
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
    failed = bool(diff.device_regressions()) or diff.has_structural_change
    if args.fail_on_host and diff.host_regressions(
        args.host_tolerance, args.host_floor
    ):
        failed = True
    return 1 if failed else 0


def cmd_summary(args: argparse.Namespace) -> int:
    _header, events = _load_or_die(args.trace)
    print(format_summary(events, top=args.top))
    return 0


def cmd_chrome(args: argparse.Namespace) -> int:
    header, events = _load_or_die(args.trace)
    out = args.out
    if out is None:
        out = args.trace.with_suffix(".chrome.json")
    write_chrome_trace(header, events, out)
    print(f"repro-obs: wrote {out} (open in chrome://tracing or Perfetto)")
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    scrape = args.scrape.read_text()
    page = render_dashboard(
        scrape, title=args.title, slo_seconds=args.slo
    )
    out = args.out
    if out is None:
        out = args.scrape.with_suffix(".html")
    out.write_text(page)
    print(f"repro-obs: wrote {out}")
    return 0


def cmd_flightrec(args: argparse.Namespace) -> int:
    failed = False
    for path in args.dumps:
        errors = validate_flight(path)
        if errors:
            failed = True
            for error in errors[:10]:
                print(f"repro-obs: {path}: {error}", file=sys.stderr)
            continue
        header, events = load_flight(path)
        kinds: dict = {}
        for event in events:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        summary = ", ".join(
            f"{kind}={kinds[kind]}" for kind in sorted(kinds)
        )
        print(
            f"{path}: valid ({header['reason']}; "
            f"{len(events)} events: {summary or 'empty'})"
        )
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Trace diffing, summaries and flamegraph export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_diff = sub.add_parser(
        "diff", help="attribute host/device deltas between two traces"
    )
    p_diff.add_argument("before", type=Path)
    p_diff.add_argument("after", type=Path)
    p_diff.add_argument("--top", type=int, default=10)
    p_diff.add_argument(
        "--host-tolerance",
        type=float,
        default=0.20,
        help="fractional host-time slack per phase (default 0.20)",
    )
    p_diff.add_argument(
        "--host-floor",
        type=float,
        default=HOST_ABSOLUTE_FLOOR,
        help="absolute host-seconds noise floor (default %(default)s)",
    )
    p_diff.add_argument(
        "--fail-on-host",
        action="store_true",
        help="also exit 1 on host-time regressions (default: only "
        "deterministic device-cycle deltas fail)",
    )
    p_diff.add_argument(
        "--json",
        type=Path,
        default=None,
        help="also write the full delta list as JSON here",
    )
    p_diff.set_defaults(func=cmd_diff)

    p_summary = sub.add_parser(
        "summary", help="per-span host/device cost table of one trace"
    )
    p_summary.add_argument("trace", type=Path)
    p_summary.add_argument("--top", type=int, default=20)
    p_summary.set_defaults(func=cmd_summary)

    p_chrome = sub.add_parser(
        "chrome", help="export a trace as chrome://tracing JSON"
    )
    p_chrome.add_argument("trace", type=Path)
    p_chrome.add_argument("-o", "--out", type=Path, default=None)
    p_chrome.set_defaults(func=cmd_chrome)

    p_dash = sub.add_parser(
        "dashboard",
        help="render a /metrics scrape as a self-contained HTML page",
    )
    p_dash.add_argument(
        "scrape", type=Path, help="Prometheus text scrape file"
    )
    p_dash.add_argument("-o", "--out", type=Path, default=None)
    p_dash.add_argument(
        "--title", default="repro-serve dashboard"
    )
    p_dash.add_argument(
        "--slo",
        type=float,
        default=0.025,
        help="latency SLO line in seconds (default %(default)s)",
    )
    p_dash.set_defaults(func=cmd_dashboard)

    p_flight = sub.add_parser(
        "flightrec",
        help="validate and summarize flight-recorder dumps",
    )
    p_flight.add_argument("dumps", type=Path, nargs="+")
    p_flight.set_defaults(func=cmd_flightrec)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
