"""Shipped-tree acceptance: simlint's perf layer finds nothing in ``src``.

The hot-closure perf layer must pass over the real source tree, and the
registry in ``tools/simlint/hotpaths.py`` must agree with the
``@hot_path`` markers in the source — drift in either direction fails
this test the same way it fails ``python -m tools.simlint`` in CI.  A
planted regression (an unguarded eager ``logger.debug`` inside a
registered hot function) must surface from that one command as SIM201
at exactly the planted line.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from tools.simlint.__main__ import EXIT_CLEAN, EXIT_FINDINGS, main
from tools.simlint.perfrules import PERF_RULES, perf_lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_shipped_tree_perf_clean():
    report = perf_lint_paths([str(REPO_ROOT / "src")])
    assert not report.findings, "\n".join(f.render() for f in report.findings)


def test_cli_perf_baseline_run_is_clean(capsys, monkeypatch):
    """The command-line run over ``src`` with the perf codes selected —
    registry drift (SIM207) included — is clean: accepted findings carry
    pragmas, and nothing else subtracts findings."""
    monkeypatch.chdir(REPO_ROOT)
    codes = ",".join(rule.code for rule in PERF_RULES)
    code = main(["src", "--select", codes])
    assert code == EXIT_CLEAN, capsys.readouterr().out


def test_intentional_suppressions_carry_pragmas_not_baseline():
    """Deliberately-cold calls and bounded per-round allocations are
    acknowledged in place (``hot-ok[reason]`` / ``ignore[SIM2xx]``)."""
    report = perf_lint_paths([str(REPO_ROOT / "src")])
    # The fault-path escapes in runtime.py are hot-ok acknowledged...
    assert report.acknowledged >= 4
    # ...and the bounded scratch allocations carry ignore[SIM202]s.
    assert report.suppressed >= 5


def test_planted_unguarded_debug_log_fires_sim201(tmp_path, capsys):
    """Regression canary: reintroducing an eager hot-loop logging call —
    the exact pattern PR 6 removed — must fire SIM201 at its line."""
    planted_src = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src", planted_src)
    target = planted_src / "repro" / "simulator" / "routing" / "ecmp.py"
    lines = target.read_text(encoding="utf-8").splitlines()
    anchor = next(
        index
        for index, line in enumerate(lines)
        if "selector = flow_hash(" in line
    )
    planted_lineno = anchor + 2  # inserted directly below, 1-based
    lines.insert(
        anchor + 1, '        logger.debug(f"routing flow {flow.flow_id}")'
    )
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert main([str(planted_src), "--json"]) == EXIT_FINDINGS
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [f["code"] for f in findings] == ["SIM201"]
    finding = findings[0]
    assert finding["path"].endswith("routing/ecmp.py")
    assert finding["line"] == planted_lineno
    assert "eagerly" in finding["message"]
    assert "route_flow" in finding["message"]
