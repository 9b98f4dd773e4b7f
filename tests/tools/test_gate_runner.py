"""The gate runner ``tools/gate.py``, driven with stub gate modules.

The stubs stand in for the real check modules so these tests exercise
only what the runner owns: stage reporting, exit status, artifact
writes and gate-name validation.
"""

from __future__ import annotations

import re
import sys
import types
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import gate  # noqa: E402
from gates import Stage  # noqa: E402


def _stub(stages: list[Stage], artifacts: dict[str, str]):
    module = types.ModuleType("stub")
    module.run = lambda: (stages, artifacts)
    return module


@pytest.fixture
def stubs(monkeypatch, tmp_path):
    """Register a passing and a failing stub gate; results go to tmp."""
    monkeypatch.setitem(
        sys.modules,
        "gates.stub_pass",
        _stub([Stage("fine", [], ["a report line"])], {"pass.txt": "ok\n"}),
    )
    monkeypatch.setitem(
        sys.modules,
        "gates.stub_fail",
        _stub(
            [Stage("fine", []), Stage("broken", ["it broke"])],
            {"fail.txt": "no\n"},
        ),
    )
    monkeypatch.setattr(
        gate,
        "GATES",
        {"good": ("stub_pass", {}), "bad": ("stub_fail", {})},
    )
    monkeypatch.setattr(gate, "DEFAULT_GATES", ["good"])
    results = tmp_path / "results"
    monkeypatch.setattr(gate, "RESULTS", results)
    return results


def test_failing_stage_exits_one_and_names_the_stage(stubs, capsys):
    assert gate.main(["good", "bad"]) == 1
    out = capsys.readouterr().out
    assert "good: fine ok" in out
    assert "bad: fine ok" in out
    assert "bad: broken FAILED" in out
    assert "- it broke" in out
    assert out.rstrip().endswith("gates FAILED: bad")


def test_all_pass_exits_zero_and_writes_artifacts(stubs, capsys):
    assert gate.main([]) == 0
    out = capsys.readouterr().out
    assert "good: fine ok" in out
    assert "a report line" in out
    assert out.rstrip().endswith("gates PASSED")
    assert (stubs / "pass.txt").read_text() == "ok\n"


def test_no_write_leaves_results_untouched(stubs):
    assert gate.main(["--no-write", "good", "bad"]) == 1
    assert not stubs.exists()


def test_unknown_gate_is_a_usage_error(stubs, capsys):
    with pytest.raises(SystemExit) as exc:
        gate.main(["good", "nonesuch"])
    assert exc.value.code == 2
    assert "nonesuch" in capsys.readouterr().err


def test_update_only_rebaselines_perf(stubs):
    with pytest.raises(SystemExit) as exc:
        gate.main(["--update", "good"])
    assert exc.value.code == 2


def test_every_gate_the_makefile_invokes_is_registered():
    makefile = (REPO_ROOT / "Makefile").read_text()
    invocations = re.findall(
        r"^\t\$\(PYTHON\) tools/gate\.py(.*)$", makefile, re.MULTILINE
    )
    assert invocations, "the Makefile no longer invokes tools/gate.py"
    named = [
        arg
        for line in invocations
        for arg in line.split()
        if not arg.startswith("-")
    ]
    assert set(named) <= set(gate.GATES)
    # A bare invocation runs the defaults; each must name a real module.
    assert set(gate.DEFAULT_GATES) <= set(gate.GATES)
    for module, _kwargs in gate.GATES.values():
        assert (REPO_ROOT / "tools" / "gates" / f"{module}.py").exists()
