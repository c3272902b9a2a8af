"""Shipped-tree acceptance: simlint's units layer finds nothing in ``src``.

The dimensional-analysis layer must pass over the real source tree, and
the registry in ``tools/simlint/units.py`` must agree with the unit
annotations actually present in the tree — drift in either direction
fails this test the same way it fails ``python -m tools.simlint`` in
CI.  A planted regression (assigning a ``Bytes`` epsilon to a
``Seconds``-annotated global inside a registered module) must surface
as SIM301 at exactly the planted line.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from tools.simlint.__main__ import EXIT_CLEAN, main
from tools.simlint.units import ALL_UNITS_RULES, UNITS_MODULES, units_lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_shipped_tree_units_clean():
    report = units_lint_paths([str(REPO_ROOT / "src")])
    assert not report.findings, "\n".join(f.render() for f in report.findings)


def test_cli_units_baseline_run_is_clean(capsys, monkeypatch):
    """The command-line run over ``src`` with the units codes selected —
    annotation drift (SIM308) included — is clean: accepted findings
    carry pragmas, and nothing else subtracts findings."""
    monkeypatch.chdir(REPO_ROOT)
    codes = ",".join(rule.code for rule in ALL_UNITS_RULES)
    code = main(["src", "--select", codes])
    assert code == EXIT_CLEAN, capsys.readouterr().out


def test_cli_all_layers_merged_baseline_run_is_clean(capsys, monkeypatch):
    """The command-line run over ``src`` merges every layer into one JSON
    report with no findings; the accepted ones are counted as pragma
    suppressions."""
    monkeypatch.chdir(REPO_ROOT)
    code = main(["src", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_CLEAN, payload["findings"]
    assert payload["findings"] == []
    assert payload["suppressed"] >= 15


def test_intentional_suppressions_carry_pragmas_not_baseline():
    """Deliberate exceptions (the NaN validity probe in
    experiments/parallel.py) are acknowledged in place with a reasoned
    ``ignore[SIM3xx]`` pragma."""
    report = units_lint_paths([str(REPO_ROOT / "src")])
    assert report.suppressed >= 1


def test_registered_modules_all_exist_on_disk():
    """Every UNITS_MODULES entry maps to a real file, so the SIM308
    drift check is exercising live modules rather than ghosts."""
    for name in UNITS_MODULES:
        relative = Path(*name.split(".")).with_suffix(".py")
        assert (REPO_ROOT / "src" / relative).is_file(), name


def test_planted_unit_conflict_fires_sim301(tmp_path):
    """Regression canary: declaring a Seconds global and seeding it from
    the Bytes volume epsilon — the exact cross-unit slip the layer was
    built to catch — must fire SIM301 at its line."""
    planted_src = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src", planted_src)
    target = planted_src / "repro" / "jobs" / "flow.py"
    lines = target.read_text(encoding="utf-8").splitlines()
    anchor = next(
        index
        for index, line in enumerate(lines)
        if line.startswith("VOLUME_EPSILON: Bytes")
    )
    planted_lineno = anchor + 2  # inserted directly below, 1-based
    lines.insert(anchor + 1, "STALL_TIMEOUT: Seconds = VOLUME_EPSILON")
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")

    report = units_lint_paths([str(planted_src)])
    assert [f.code for f in report.findings] == ["SIM301"]
    finding = report.findings[0]
    assert finding.path.endswith("jobs/flow.py")
    assert finding.line == planted_lineno
    assert "Seconds" in finding.message
    assert "Bytes" in finding.message
