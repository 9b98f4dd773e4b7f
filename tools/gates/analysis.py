"""Static-analysis and sanitizer gate.

Four stages, each independently pass/fail:

1. **Lint** — run the ``repro-lint`` rule pack over ``src``, ``tools``,
   ``benchmarks`` and ``examples`` (NOT ``tests`` — lint fixtures there
   violate rules on purpose) and subtract the checked-in baseline
   ``tools/analysis_baseline.json``.  Any new finding, or any stale
   baseline entry of a lint rule, fails.  (The effect invariants, their
   fixture self-test and their baseline entries belong to the
   ``effects`` gate.)
2. **Sanitizer self-test** — the deliberately racy fixture kernels must
   be flagged (a silent sanitizer would let stage 3 pass vacuously) and
   the clean fixture must produce zero findings (no false positives).
3. **Sanitized sweep** — the seeded ``seeded_workload`` sweep runs under
   shadow-memory mode twice; zero race findings and bit-identical
   access-trace digests are required.
4. **Third-party tools** — ``ruff check`` and ``mypy`` run when the
   executables exist; when they are not installed the stage is skipped
   with a notice, never failed.

A per-rule finding-count summary is written to ``results/analysis.txt``
so ``tools/build_experiments_md.py`` can fold it into EXPERIMENTS.md;
the per-rule host seconds are printed with the lint stage, not written.
"""

from __future__ import annotations

import shutil
import subprocess
import time

from repro.analysis import Finding, get_rules
from repro.analysis.fixtures import (
    run_clean_kernel,
    run_intra_warp_racy_kernel,
    run_racy_kernel,
)
from repro.analysis.lintcore import iter_python_files, load_module
from repro.analysis.sweep import check_determinism

from gates import REPO_ROOT, Stage, filter_baseline

LINT_TARGETS = ("src", "tools", "benchmarks", "examples")
#: Findings the lint pass emits besides its rules' own.
LINT_META_RULES = {"syntax-error", "bad-pragma"}

#: (rule id, seconds, total findings pre-baseline) for one lint rule.
RuleRow = tuple[str, float, int]


def stage_lint() -> tuple[list[str], list[RuleRow]]:
    """Lint the targets; returns (failures, one row per rule)."""
    targets = [REPO_ROOT / t for t in LINT_TARGETS if (REPO_ROOT / t).exists()]
    # Parse every module once, then time each rule across the parsed
    # set — findings are identical to one combined lint_paths pass
    # (rules are independent), but the summary gets per-rule wall time
    # without re-parsing the tree per rule.
    findings: list[Finding] = []
    infos = []
    for path in iter_python_files(targets):
        try:
            infos.append(load_module(path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="syntax-error",
                    path=str(path),
                    line=exc.lineno or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
    for info in infos:
        findings.extend(info.pragma_findings)
    rows: list[RuleRow] = []
    rules = get_rules()
    for rule in rules:
        start = time.perf_counter()
        rule_findings = [
            f
            for info in infos
            if rule.applies_to(info)
            for f in rule.check(info)
            if not info.is_allowed(rule.id, f.line)
        ]
        elapsed = time.perf_counter() - start
        rows.append((rule.id, elapsed, len(rule_findings)))
        findings.extend(rule_findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    new, stale = filter_baseline(
        findings, {rule.id for rule in rules} | LINT_META_RULES
    )
    failures = [f"new lint finding: {f}" for f in new]
    failures.extend(f"stale baseline entry: {s}" for s in stale)
    return failures, rows


def summary_text(rows: list[RuleRow]) -> str:
    """The per-rule finding table for results/analysis.txt."""
    lines = ["# repro-lint gate summary"]
    lines.append(f"{'rule':28s} {'findings':>9s}")
    for rule_id, _elapsed, count in rows:
        lines.append(f"{rule_id:28s} {count:>9}")
    lines.append(f"{'total':28s} {sum(r[2] for r in rows):>9}")
    lines.append("")
    lines.append("(findings are pre-baseline; the gate subtracts")
    lines.append("tools/analysis_baseline.json before failing)")
    return "\n".join(lines) + "\n"


def timing_lines(rows: list[RuleRow]) -> list[str]:
    """Per-rule host seconds, for the gate's printed report."""
    lines = [f"{rule_id}: {elapsed:.4f}s" for rule_id, elapsed, _ in rows]
    lines.append(f"total: {sum(r[1] for r in rows):.4f}s")
    return lines


def stage_selftest() -> list[str]:
    failures: list[str] = []
    racy = run_racy_kernel()
    if racy.n_conflicts == 0:
        failures.append(
            "sanitizer self-test: the racy fixture kernel was NOT flagged"
        )
    intra = run_intra_warp_racy_kernel()
    if not any(f.kind == "intra-warp-write" for f in intra.findings):
        failures.append(
            "sanitizer self-test: the intra-warp scatter fixture was "
            "NOT flagged"
        )
    clean = run_clean_kernel()
    if clean.n_conflicts:
        failures.append(
            "sanitizer self-test: the clean fixture kernel produced "
            f"{clean.n_conflicts} false positive(s): "
            + "; ".join(str(f) for f in clean.findings[:3])
        )
    return failures


def stage_sweep() -> list[str]:
    report, problems = check_determinism()
    failures = [f"sanitized sweep determinism: {p}" for p in problems]
    if not report.clean:
        failures.append(
            f"sanitized sweep found {report.n_conflicts} race(s): "
            + "; ".join(str(f) for f in report.findings[:5])
        )
    return failures


def stage_external() -> tuple[list[str], list[str]]:
    """Run ruff/mypy when available.  Returns (failures, notices)."""
    failures: list[str] = []
    notices: list[str] = []
    commands = {
        "ruff": ["ruff", "check", "src", "tools", "benchmarks"],
        "mypy": ["mypy", "--config-file", "pyproject.toml"],
    }
    for tool, cmd in commands.items():
        if shutil.which(tool) is None:
            notices.append(f"{tool} not installed; skipping (config-only)")
            continue
        proc = subprocess.run(
            cmd, cwd=REPO_ROOT, capture_output=True, text=True
        )
        if proc.returncode != 0:
            tail = (proc.stdout + proc.stderr).strip().splitlines()[-15:]
            failures.append(f"{tool} failed:\n  " + "\n  ".join(tail))
    return failures, notices


def run() -> tuple[list[Stage], dict[str, str]]:
    lint_failures, rows = stage_lint()
    stages = [
        Stage("lint", lint_failures, timing_lines(rows)),
        Stage("sanitizer self-test", stage_selftest()),
        Stage("sanitized sweep", stage_sweep()),
        Stage("external tools", *stage_external()),
    ]
    return stages, {"analysis.txt": summary_text(rows)}
