"""Shared helpers for the benchmark suite.

Each ``bench_*`` file regenerates one table or figure of the paper at
reduced iteration counts (so ``pytest benchmarks/ --benchmark-only``
finishes in minutes; use ``igkway-eval`` for the full 100-iteration
protocol).  Benchmarks measure the *wall time of the reproduction* with
pytest-benchmark and additionally assert the paper's *shape* claims on
the modeled-GPU results — who wins, by roughly what factor, and how the
trend moves with k and with the modifier count.
"""

from __future__ import annotations

import pytest


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer.

    Experiment runs are seconds-long and deterministic, so one round is
    both representative and keeps the suite fast.
    """
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
        warmup_rounds=0,
    )


@pytest.fixture
def run_once():
    return once
