"""Command-line entry point: ``python -m tools.simlint [paths...]``.

Exit codes: 0 = clean, 1 = findings, 2 = usage / parse error.

Every call runs every layer in one pass — each file is parsed exactly
once — and reports one merged, (path, line, rule)-sorted stream: the
per-file rules (SIM001-SIM006), the whole-program determinism taint and
worker purity (SIM101-SIM106), the hot-closure performance rules and
their registry-drift check (SIM201-SIM207, driven by
``tools/simlint/hotpaths.py``), and the dimensional and
streaming-discipline rules (SIM301-SIM308, seeded from the
``repro.simulator.units`` annotations).  A pragma on the finding's line
(``ignore[...]``, ``hot-ok[...]``, ``unit[...]``) is the one way to
accept a finding.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from tools.simlint.dataflow import DEEP_RULES, DEEP_RULES_BY_CODE
from tools.simlint.perfrules import PERF_RULES, PERF_RULES_BY_CODE
from tools.simlint.rules import ALL_RULES, RULES_BY_CODE
from tools.simlint.runner import LintReport, SimlintUsageError, lint_paths
from tools.simlint.units import ALL_UNITS_RULES, ALL_UNITS_RULES_BY_CODE

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: Every code ``--select`` / ``--ignore`` accepts: all four layers.
KNOWN_CODES = frozenset(
    [*RULES_BY_CODE, *DEEP_RULES_BY_CODE, *PERF_RULES_BY_CODE, *ALL_UNITS_RULES_BY_CODE]
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description=(
            "Simulator-aware static analysis for the Gurita reproduction: "
            "per-file, whole-program taint, hot-closure performance and "
            "dimensional rules, all in one pass."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    return parser


def _split_codes(raw: Optional[str]) -> List[str]:
    if not raw:
        return []
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def _filtered_report(
    paths: Sequence[str], select: List[str], ignore: List[str]
) -> LintReport:
    for code in select + ignore:
        if code not in KNOWN_CODES:
            raise SimlintUsageError(
                f"unknown rule code {code!r}; known: {sorted(KNOWN_CODES)}"
            )
    rules = tuple(
        rule
        for rule in ALL_RULES
        if (not select or rule.code in select) and rule.code not in ignore
    )
    report = lint_paths(paths, rules=rules)
    if select or ignore:
        report.findings = [
            f
            for f in report.findings
            if (not select or f.code in select) and f.code not in ignore
        ]
    return report


def _print_catalog() -> None:
    for rule in ALL_RULES:
        scope = ", ".join(rule.scopes) if rule.scopes else "all files"
        print(f"{rule.code}  [{scope}]")
        print(f"    {rule.description}")
    for deep_rule in DEEP_RULES:
        print(f"{deep_rule.code}  [whole-program]")
        print(f"    {deep_rule.description}")
    for perf_rule in PERF_RULES:
        print(f"{perf_rule.code}  [hot closure]")
        print(f"    {perf_rule.description}")
    for units_rule in ALL_UNITS_RULES:
        print(f"{units_rule.code}  [dimensional/streaming]")
        print(f"    {units_rule.description}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_catalog()
        return EXIT_CLEAN
    try:
        report = _filtered_report(
            args.paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except SimlintUsageError as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report.render_json() if args.json else report.render_human())
    return EXIT_CLEAN if report.clean else EXIT_FINDINGS


if __name__ == "__main__":
    sys.exit(main())
