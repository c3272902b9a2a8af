"""File walking, rule dispatch, pragma filtering, and report formatting."""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from tools.simlint.findings import Finding, PragmaIndex
from tools.simlint.rules import ALL_RULES, RULES_BY_CODE, LintContext, Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from tools.simlint.hotpaths import HotPathRegistry
    from tools.simlint.units import UnitsRegistry


class SimlintUsageError(Exception):
    """Bad invocation: unknown rule code, unreadable path, syntax error."""


def FINDING_ORDER(finding: Finding) -> Tuple[str, int, str, int]:
    """The canonical finding sort key: ``(path, line, rule, col)``.

    Rule code sorts *before* column so ``--json`` output is stable across
    filesystems and Python versions even when two rules fire at
    different columns of the same line.
    """
    return (finding.path, finding.line, finding.code, finding.col)


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def extend(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.files_checked += other.files_checked
        self.suppressed += other.suppressed

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_human(self) -> str:
        lines = [finding.render() for finding in self.findings]
        if self.clean:
            summary = f"simlint: clean ({self.files_checked} files"
        else:
            summary = (
                f"simlint: {len(self.findings)} finding(s) "
                f"({self.files_checked} files"
            )
        if self.suppressed:
            summary += f", {self.suppressed} suppressed by pragma"
        summary += ")"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        # Schema version 2: findings carry a "layer" field (file / deep /
        # perf / units) so consumers can split the merged stream.
        return json.dumps(
            {
                "version": 2,
                "files_checked": self.files_checked,
                "suppressed": self.suppressed,
                "findings": [finding.to_dict() for finding in self.findings],
            },
            indent=2,
            sort_keys=True,
        )


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Tuple[Rule, ...]:
    """Resolve ``--select`` / ``--ignore`` code lists to rule instances."""
    codes = [code.strip().upper() for code in (select or []) if code.strip()]
    ignored = {code.strip().upper() for code in (ignore or []) if code.strip()}
    for code in list(codes) + sorted(ignored):
        if code not in RULES_BY_CODE:
            raise SimlintUsageError(
                f"unknown rule code {code!r}; known: {sorted(RULES_BY_CODE)}"
            )
    rules = (
        tuple(RULES_BY_CODE[code] for code in codes) if codes else ALL_RULES
    )
    return tuple(rule for rule in rules if rule.code not in ignored)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Rule] = ALL_RULES,
) -> LintReport:
    """Lint one source string as if it lived at ``path``.

    ``path`` drives rule scoping (e.g. SIM001 only fires under
    ``repro/simulator``), so fixture tests pass a representative fake path.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise SimlintUsageError(f"{path}: syntax error: {exc}") from exc
    return _lint_parsed(source, tree, path, rules)


def _lint_parsed(
    source: str,
    tree: ast.Module,
    path: str,
    rules: Sequence[Rule],
) -> LintReport:
    """Per-file rules over an already-parsed module (no re-parse)."""
    normalized = path.replace("\\", "/")
    report = LintReport(files_checked=1)
    pragmas = PragmaIndex(source)
    if pragmas.skip_file:
        return report
    ctx = LintContext(path=normalized, tree=tree)
    for rule in rules:
        if not rule.applies(normalized):
            continue
        for finding in rule.check(ctx):
            if pragmas.suppresses(finding.line, finding.code):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    report.findings.sort(key=FINDING_ORDER)
    return report


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if not any(part.startswith(".") for part in p.parts)
            )
        elif path.is_file():
            out.append(path)
        else:
            raise SimlintUsageError(f"no such file or directory: {raw}")
    return out


def lint_paths(
    paths: Sequence[str],
    rules: Sequence[Rule] = ALL_RULES,
    registry: Optional["HotPathRegistry"] = None,
    units_registry: Optional["UnitsRegistry"] = None,
) -> LintReport:
    """Run every simlint layer over the ``.py`` files under ``paths``.

    Every file is parsed exactly once: the per-file rules (``rules``,
    SIM001-SIM006) run on the parsed tree, and the same parsed modules
    are assembled into one shared
    :class:`~tools.simlint.callgraph.Project` for the deep
    (SIM101-SIM106), perf (SIM201-SIM207) and units (SIM301-SIM308)
    layers — not re-read from disk per layer.  Findings from all layers
    land in one stream sorted once by the canonical
    ``(path, line, rule, col)`` key, so ``--json`` consumers see a
    stable cross-layer order.

    ``registry`` overrides the shipped hot-path registry (fixture tests);
    it is consulted by the perf and units layers (SIM307).
    ``units_registry`` overrides the shipped SIM308 annotated-module set.
    """
    from tools.simlint.callgraph import ModuleInfo, Project, parse_module
    from tools.simlint.dataflow import analyze_project
    from tools.simlint.perfrules import perf_lint_project
    from tools.simlint.units import units_lint_project

    report = LintReport()
    modules: List[ModuleInfo] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        path = file_path.as_posix()
        try:
            mod = parse_module(file_path, source)
        except SyntaxError as exc:
            raise SimlintUsageError(f"{path}: syntax error: {exc}") from exc
        modules.append(mod)
        report.extend(_lint_parsed(source, mod.tree, path, rules))

    project = Project(modules)
    for layer in (
        analyze_project(project),
        perf_lint_project(project, registry=registry),
        units_lint_project(project, registry=units_registry, hot_registry=registry),
    ):
        report.findings.extend(layer.findings)
        report.suppressed += layer.suppressed

    report.findings.sort(key=FINDING_ORDER)
    return report
