"""``EXPERIMENTS.md`` is what ``tools/build_experiments_md.py`` renders
from the template and the tracked ``results/`` artifacts."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import build_experiments_md  # noqa: E402


def test_rebuilding_experiments_md_is_a_no_op():
    rendered = build_experiments_md.render()
    checked_in = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    assert rendered == checked_in, (
        "EXPERIMENTS.md is stale: run `python tools/gate.py` and "
        "`python tools/build_experiments_md.py`"
    )
