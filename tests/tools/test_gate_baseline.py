"""The shared baseline filter of the analysis and effects gates.

``tools/analysis_baseline.json`` holds grandfathered findings of both
the lint pack and the effect invariants.  Each gate stage may report
staleness only for the rule ids it ran: a grandfathered effects
finding must not fail the lint stage, while a lint entry that matches
nothing must.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
for entry in (REPO_ROOT / "tools", REPO_ROOT / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import gates  # noqa: E402
from gates import analysis  # noqa: E402

EFFECTS_ENTRY = {
    "rule": "digest-reaches-cutacc",
    "path": "src/repro/core/transaction.py",
    "symbol": "repro.core.transaction.state_digest",
    "message": "state_digest reads CutAccumulator state",
    "count": 1,
    "reason": "grandfathered for the test",
}
STALE_LINT_ENTRY = {
    "rule": "blind-except",
    "path": "src/repro/nowhere.py",
    "symbol": "repro.nowhere.gone",
    "message": "bare except swallows errors",
    "count": 1,
    "reason": "the code it excused is gone",
}


@pytest.fixture
def baseline(monkeypatch, tmp_path):
    path = tmp_path / "analysis_baseline.json"
    path.write_text(
        json.dumps({"findings": [EFFECTS_ENTRY, STALE_LINT_ENTRY]})
    )
    monkeypatch.setattr(gates, "BASELINE_PATH", path)
    return path


def test_lint_stage_ignores_effects_entries_but_not_stale_lint(baseline):
    failures, _rows = analysis.stage_lint()
    assert len(failures) == 1, failures
    assert failures[0].startswith("stale baseline entry:")
    assert "[blind-except]" in failures[0]
    assert not any("digest-reaches-cutacc" in f for f in failures)


def test_filter_reports_staleness_only_for_the_rules_run(baseline):
    new, stale = gates.filter_baseline([], {"digest-reaches-cutacc"})
    assert new == []
    assert len(stale) == 1 and "[digest-reaches-cutacc]" in stale[0]
    new, stale = gates.filter_baseline([], {"hot-path-loop"})
    assert (new, stale) == ([], [])
