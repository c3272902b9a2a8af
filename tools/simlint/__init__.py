"""simlint: simulator-aware static analysis for the Gurita reproduction.

Usage (CLI)::

    python -m tools.simlint src              # every layer, exit 1 on findings
    python -m tools.simlint src --json       # machine-readable
    python -m tools.simlint --list-rules     # rule catalog

Usage (API)::

    from tools.simlint import lint_source, lint_paths
    report = lint_paths(["src"])             # every layer, as the CLI runs
    assert report.clean, report.render_human()

``lint_source`` runs the per-file rules on one source string.

The rule catalog (SIM001–SIM308) and how to extend it are documented in
``docs/static-analysis.md``.
"""

from tools.simlint.findings import Finding, PragmaIndex
from tools.simlint.rules import ALL_RULES, RULES_BY_CODE, LintContext, Rule
from tools.simlint.runner import (
    LintReport,
    SimlintUsageError,
    lint_paths,
    lint_source,
    select_rules,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintContext",
    "LintReport",
    "PragmaIndex",
    "RULES_BY_CODE",
    "Rule",
    "SimlintUsageError",
    "lint_paths",
    "lint_source",
    "select_rules",
]
