"""Trace and metrics exporters: JSONL, Chrome trace-event, Prometheus.

Three render targets for one trace:

* **JSONL** (``repro-trace-v1``) — the on-disk interchange format; a
  header line followed by one :class:`~repro.obs.tracer.TraceEvent`
  record per line, keys sorted so seeded runs diff cleanly.
* **Chrome trace-event JSON** — open ``chrome://tracing`` (or Perfetto)
  and load the file to see the sweep as a flamegraph: spans become
  complete (``"ph": "X"``) slices on the host timeline with their
  ledger attribution in ``args``; kernel aggregates become instant
  events at their span's start so device work stays visible without
  inventing fake host durations.
* **Prometheus text** — lives on :class:`~repro.obs.metrics.MetricsRegistry`
  (:meth:`to_prometheus`); re-exported here for discoverability.

:func:`validate_trace` / :func:`validate_chrome_trace` implement the
schema checks ``tools/gates/obs.py`` gates on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.obs.tracer import TRACE_SCHEMA, TraceEvent, Tracer

#: Required keys of one JSONL event record, with their allowed types.
_EVENT_FIELDS: dict = {
    "kind": str,
    "name": str,
    "span_id": int,
    "parent": (int, type(None)),
    "depth": int,
    "batch": (int, type(None)),
    "start": (int, float),
    "duration": (int, float),
    "warp_instructions": int,
    "transactions": int,
    "atomic_ops": int,
    "kernel_launches": int,
    "device_seconds": (int, float),
    "device_cycles": (int, float),
    "section": (str, type(None)),
    "count": int,
}

#: Optional keys (with allowed types): absent in traces written before
#: the field existed, so old ``repro-trace-v1`` files stay valid.
_OPTIONAL_EVENT_FIELDS: dict = {
    "trace": (dict, type(None)),
}

#: Keys a ``trace`` context dict may carry (closed set), with types.
_TRACE_CONTEXT_FIELDS: dict = {
    "attempt": int,
    "id": str,
    "op": str,
    "parent": (int, type(None)),
    "tenant": str,
    "worker": int,
}

_EVENT_KINDS = ("span", "kernel")


def write_trace(
    tracer: Tracer, path: "str | Path"
) -> Path:
    """Serialize a finished tracer to a JSONL trace file."""
    return write_trace_records(
        tracer.header(), tracer.events, path
    )


def write_trace_records(
    header: dict,
    events: Iterable[TraceEvent],
    path: "str | Path",
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(event.as_dict(), sort_keys=True) for event in events
    )
    path.write_text("\n".join(lines) + "\n")
    return path


def load_trace(path: "str | Path") -> Tuple[dict, List[TraceEvent]]:
    """Read a JSONL trace back into (header, events).

    Raises ``ValueError`` on schema violations — callers that want a
    report instead use :func:`validate_trace`.
    """
    errors, header, events = _parse(Path(path).read_text())
    if errors:
        raise ValueError(
            f"{path}: invalid trace: {errors[0]}"
            + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else "")
        )
    assert header is not None
    return header, events


def validate_trace(path: "str | Path") -> List[str]:
    """Schema-check a JSONL trace; returns all violations (empty = ok)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return [f"unreadable trace file: {exc}"]
    errors, _header, _events = _parse(text)
    return errors


def _parse(
    text: str,
) -> Tuple[List[str], Optional[dict], List[TraceEvent]]:
    errors: List[str] = []
    events: List[TraceEvent] = []
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["empty trace file (missing header line)"], None, []
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"line 1: header is not valid JSON: {exc}"], None, []
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        errors.append(
            f"line 1: header schema must be {TRACE_SCHEMA!r}, "
            f"got {header.get('schema') if isinstance(header, dict) else header!r}"
        )
    records: List[Tuple[int, dict]] = []
    seen_ids: set = set()
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON: {exc}")
            continue
        event_errors = _check_event(record, lineno, seen_ids)
        if event_errors:
            errors.extend(event_errors)
            continue
        seen_ids.add(record["span_id"])
        records.append((lineno, record))
    # Parent references are checked against the whole trace: child
    # spans close (and are emitted) before their parents.
    for lineno, record in records:
        parent = record["parent"]
        if parent is not None and parent not in seen_ids:
            errors.append(
                f"line {lineno}: parent {parent} does not exist in trace"
            )
            continue
        events.append(TraceEvent(**record))
    return errors, (header if isinstance(header, dict) else None), events


def _check_event(record: object, lineno: int, seen_ids: set) -> List[str]:
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"line {lineno}: event is not an object"]
    for key, types in _EVENT_FIELDS.items():
        if key not in record:
            errors.append(f"line {lineno}: missing field {key!r}")
        elif not isinstance(record[key], types) or isinstance(
            record[key], bool
        ):
            errors.append(
                f"line {lineno}: field {key!r} has type "
                f"{type(record[key]).__name__}"
            )
    for key, types in _OPTIONAL_EVENT_FIELDS.items():
        if key in record and not isinstance(record[key], types):
            errors.append(
                f"line {lineno}: field {key!r} has type "
                f"{type(record[key]).__name__}"
            )
    extra = sorted(
        set(record) - set(_EVENT_FIELDS) - set(_OPTIONAL_EVENT_FIELDS)
    )
    if extra:
        errors.append(f"line {lineno}: unknown fields {extra}")
    if errors:
        return errors
    errors.extend(_check_trace_context(record.get("trace"), lineno))
    if errors:
        return errors
    if record["kind"] not in _EVENT_KINDS:
        errors.append(
            f"line {lineno}: kind must be one of {_EVENT_KINDS}"
        )
    if record["span_id"] in seen_ids:
        errors.append(
            f"line {lineno}: duplicate span_id {record['span_id']}"
        )
    for key in ("duration", "device_seconds", "device_cycles", "count"):
        if record[key] < 0:
            errors.append(f"line {lineno}: field {key!r} is negative")
    return errors


def _check_trace_context(trace: object, lineno: int) -> List[str]:
    """Validate one event's optional distributed-trace context."""
    if trace is None:
        return []
    assert isinstance(trace, dict)  # type-checked by the caller
    errors: List[str] = []
    extra = sorted(set(trace) - set(_TRACE_CONTEXT_FIELDS))
    if extra:
        errors.append(
            f"line {lineno}: unknown trace context keys {extra}"
        )
    if not isinstance(trace.get("id"), str) or not trace.get("id"):
        errors.append(
            f"line {lineno}: trace context needs a non-empty string id"
        )
    for key, types in _TRACE_CONTEXT_FIELDS.items():
        if key == "id":
            continue
        if key in trace and (
            not isinstance(trace[key], types)
            or isinstance(trace[key], bool)
        ):
            errors.append(
                f"line {lineno}: trace context key {key!r} has type "
                f"{type(trace[key]).__name__}"
            )
    return errors


# -- Chrome trace-event export ----------------------------------------------

#: Phases the exporter emits (complete slices and instant events).
_CHROME_PHASES = ("X", "i")


def chrome_trace(
    header: dict, events: Iterable[TraceEvent]
) -> dict:
    """Render a trace as Chrome trace-event JSON (object format).

    Spans map to complete events (``ph: "X"``, microsecond timestamps
    on the host timeline); kernel aggregates map to instant events at
    their parent span's start, carrying the device attribution in
    ``args`` so the flamegraph tooltip shows modeled cycles next to
    host time.
    """
    events = list(events)
    span_start = {
        e.span_id: e.start for e in events if e.kind == "span"
    }
    trace_events: List[dict] = []
    for event in events:
        args = {
            "batch": event.batch,
            "warp_instructions": event.warp_instructions,
            "transactions": event.transactions,
            "device_seconds": event.device_seconds,
            "device_cycles": event.device_cycles,
            "count": event.count,
        }
        if event.section is not None:
            args["section"] = event.section
        if event.trace is not None:
            args["trace"] = {
                key: event.trace[key] for key in sorted(event.trace)
            }
        if event.kind == "span":
            trace_events.append(
                {
                    "name": event.name,
                    "ph": "X",
                    "ts": event.start * 1e6,
                    "dur": event.duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "cat": "span",
                    "args": args,
                }
            )
        else:
            ts = span_start.get(event.parent, 0.0) * 1e6
            trace_events.append(
                {
                    "name": f"kernel:{event.name}",
                    "ph": "i",
                    "ts": ts,
                    "s": "t",
                    "pid": 1,
                    "tid": 1,
                    "cat": "kernel",
                    "args": args,
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": header.get("schema", TRACE_SCHEMA),
            "session": header.get("session", ""),
        },
    }


def write_chrome_trace(
    header: dict, events: Iterable[TraceEvent], path: "str | Path"
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(chrome_trace(header, events), indent=2) + "\n"
    )
    return path


def validate_chrome_trace(document: "dict | str | Path") -> List[str]:
    """Check a Chrome trace-event document against the format's rules.

    Accepts the parsed object or a path to the JSON file.  Checks the
    object form: a ``traceEvents`` array whose entries carry ``name``,
    ``ph``, ``pid``, ``tid`` and a non-negative numeric ``ts``;
    complete events (``X``) additionally need a non-negative ``dur``,
    instant events (``i``) a scope ``s``.
    """
    if not isinstance(document, dict):
        try:
            document = json.loads(Path(document).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable chrome trace: {exc}"]
    errors: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document has no traceEvents array"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"traceEvents[{i}]: not an object")
            continue
        for key in ("name", "ph", "pid", "tid", "ts"):
            if key not in event:
                errors.append(f"traceEvents[{i}]: missing {key!r}")
        ph = event.get("ph")
        if ph not in _CHROME_PHASES:
            errors.append(
                f"traceEvents[{i}]: unsupported phase {ph!r}"
            )
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"traceEvents[{i}]: ts must be a number >= 0")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(
                    f"traceEvents[{i}]: complete event needs dur >= 0"
                )
        if ph == "i" and event.get("s") not in ("g", "p", "t"):
            errors.append(
                f"traceEvents[{i}]: instant event needs scope s in g/p/t"
            )
    return errors
