"""Host phase timing through :attr:`repro.obs.Tracer.phase_seconds`.

``benchmarks/bench_hotpath.py`` reads its per-phase host seconds from a
ledger-less tracer's ``phase_seconds`` dict. These tests pin the
semantics it relies on: nesting, same-name accumulation, threading and
exceptions. The remaining tracer contracts live in
``tests/obs/test_tracer.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import Tracer, active_tracer, span


def test_noop_outside_collector():
    assert active_tracer() is None
    with span("uncollected"):
        pass  # must not raise, must not record anywhere


def test_same_name_accumulates():
    tracer = Tracer()
    with tracer.activate():
        for _ in range(3):
            with span("step"):
                time.sleep(0.001)
    phases = tracer.phase_seconds
    assert set(phases) == {"step"}
    assert phases["step"] >= 0.003


def test_nested_brackets_both_recorded():
    tracer = Tracer()
    with tracer.activate():
        with span("outer"):
            with span("inner"):
                time.sleep(0.001)
    phases = tracer.phase_seconds
    assert phases["outer"] >= phases["inner"] > 0


def test_nested_collectors_inner_wins_outer_restored():
    outer = Tracer()
    inner = Tracer()
    with outer.activate():
        with span("before"):
            pass
        with inner.activate():
            with span("shadowed"):
                pass
        with span("after"):
            pass
    assert set(inner.phase_seconds) == {"shadowed"}
    assert set(outer.phase_seconds) == {"before", "after"}


def test_exception_in_bracket_still_records_and_unwinds():
    tracer = Tracer()
    with tracer.activate():
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        # The tracer survives the exception and keeps collecting.
        with span("next"):
            pass
    assert set(tracer.phase_seconds) == {"doomed", "next"}


def test_exception_exits_collector_cleanly():
    with pytest.raises(ValueError):
        with Tracer().activate():
            raise ValueError("boom")
    # Collection is off again: brackets are no-ops.
    assert active_tracer() is None
    with span("uncollected"):
        pass


def test_cross_thread_collector_raises():
    """Activating a tracer while another thread's is active raises."""
    started = threading.Event()
    release = threading.Event()

    def holder():
        with Tracer().activate():
            started.set()
            release.wait(timeout=5)

    worker = threading.Thread(target=holder)
    worker.start()
    try:
        assert started.wait(timeout=5)
        with pytest.raises(RuntimeError, match="single-threaded"):
            with Tracer().activate():
                pass  # pragma: no cover - must not be reached
    finally:
        release.set()
        worker.join()
    # The other thread's tracer is gone; this thread works again.
    tracer = Tracer()
    with tracer.activate():
        with span("recovered"):
            pass
    assert set(tracer.phase_seconds) == {"recovered"}
