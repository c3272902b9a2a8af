"""Shipped-tree acceptance: simlint's deep layer finds nothing in ``src``.

The whole-program analyzer must pass over the real source tree.  A new
determinism-taint or worker-purity finding fails this test the same way
it fails ``python -m tools.simlint`` in CI; an accepted flow carries a
pragma with its reason at the sink.
"""

from __future__ import annotations

from pathlib import Path

from tools.simlint.__main__ import EXIT_CLEAN, main
from tools.simlint.dataflow import DEEP_RULES, deep_lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_shipped_tree_deep_clean():
    report = deep_lint_paths([str(REPO_ROOT / "src")])
    assert not report.findings, "\n".join(f.render() for f in report.findings)


def test_cli_deep_baseline_run_is_clean(capsys, monkeypatch):
    """The command-line run over ``src`` with the deep codes selected is
    clean: accepted flows carry pragmas, and nothing else subtracts
    findings."""
    monkeypatch.chdir(REPO_ROOT)
    codes = ",".join(rule.code for rule in DEEP_RULES)
    code = main(["src", "--select", codes])
    assert code == EXIT_CLEAN, capsys.readouterr().out


def test_intentional_suppressions_carry_pragmas_not_baseline():
    """The known-good REPRO_CACHE_SALT flows are pragma'd in place with a
    reason."""
    report = deep_lint_paths([str(REPO_ROOT / "src")])
    assert report.suppressed >= 3  # the documented SIM103 salt pragmas
