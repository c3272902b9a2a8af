"""Hot-closure computation for simlint's perf layer.

Bridges the two halves of the hot-path contract — the ``@hot_path``
marker in :mod:`repro.simulator.hotpath` and the registry in
:mod:`tools.simlint.hotpaths` — on top of the PR-4 callgraph:

* resolve which registered functions exist in the analyzed project;
* cross-check decorator vs registry (drift is SIM207);
* walk every call site inside registered functions and report calls
  that escape into unregistered project functions (SIM207) unless the
  line carries a ``# simlint: hot-ok[reason]`` acknowledgment.

The SIM201-SIM206 content rules in :mod:`tools.simlint.perfrules` run
over the ``functions`` list this module produces.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from tools.simlint.callgraph import (
    FunctionInfo,
    ModuleInfo,
    Project,
    dotted_name,
)
from tools.simlint.findings import Finding
from tools.simlint.hotpaths import REGISTRY, HotPathRegistry

#: Terminal name of the in-source marker decorator
#: (``repro.simulator.hotpath.hot_path``).
HOT_PATH_DECORATOR = "hot_path"

REGISTRY_RULE_CODE = "SIM207"

_HOT_OK_RE = re.compile(r"#\s*simlint:\s*hot-ok\[(?P<reason>[^\]]*)\]")


class HotOkIndex:
    """Per-line ``# simlint: hot-ok[reason]`` acknowledgments of one file.

    The pragma acknowledges a call *out of* the hot closure as
    deliberately cold (a fault path, a once-per-run slow path).  A
    reason is mandatory: ``hot-ok[]`` does not acknowledge anything.
    """

    def __init__(self, source: str) -> None:
        self.reasons: Dict[int, str] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _HOT_OK_RE.search(text)
            if match is None:
                continue
            reason = match.group("reason").strip()
            if reason:
                self.reasons[lineno] = reason

    def acknowledged(self, line: int) -> bool:
        return line in self.reasons


@dataclass
class HotAnalysis:
    """The registered hot set as realised in one project."""

    #: Registered functions that exist in the project (roots + closure),
    #: sorted by full name — the SIM201-SIM206 rules iterate these.
    functions: List[FunctionInfo] = field(default_factory=list)
    #: SIM207 findings: closure escapes and registry drift.
    findings: List[Finding] = field(default_factory=list)
    #: Count of call sites acknowledged cold via hot-ok pragmas.
    acknowledged: int = 0


def local_types_for(
    func: FunctionInfo, mod: ModuleInfo, project: Project
) -> Dict[str, str]:
    """Parameter name -> full class name, from simple dotted annotations.

    Only plain dotted annotations that resolve to a project class count
    (``request: AllocationRequest``); subscripted or external annotations
    are skipped, matching the callgraph's best-effort resolution.
    """
    out: Dict[str, str] = {}
    args = func.node.args  # type: ignore[attr-defined]
    for arg in [*getattr(args, "posonlyargs", []), *args.args, *args.kwonlyargs]:
        if arg.annotation is None:
            continue
        parts = dotted_name(arg.annotation)
        if parts is None:
            continue
        resolved = project.resolve_dotted(".".join(parts), mod)
        if resolved is not None and resolved in project.classes:
            out[arg.arg] = resolved
    return out


def decorated_hot_functions(project: Project) -> Dict[str, FunctionInfo]:
    """Functions carrying the ``@hot_path`` marker, by full name."""
    out: Dict[str, FunctionInfo] = {}
    for func in project.functions.values():
        for decorator in getattr(func.node, "decorator_list", []):
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            parts = dotted_name(target)
            if parts is not None and parts[-1] == HOT_PATH_DECORATOR:
                out[func.full_name] = func
    return out


def _module_prefix_of(project: Project, full_name: str) -> Optional[ModuleInfo]:
    """The project module whose name prefixes ``full_name``, if any."""
    parts = full_name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        mod = project.modules.get(".".join(parts[:cut]))
        if mod is not None:
            return mod
    return None


def _drift_findings(
    project: Project,
    registry: HotPathRegistry,
    decorated: Dict[str, FunctionInfo],
) -> List[Finding]:
    findings: List[Finding] = []
    registered = registry.registered()

    # Decorated in source but absent from the registry.
    for name in sorted(decorated):
        if name in registered:
            continue
        func = decorated[name]
        findings.append(
            Finding(
                path=project.module_for_function(func).path,
                line=func.lineno,
                col=getattr(func.node, "col_offset", 0),
                code=REGISTRY_RULE_CODE,
                message=(
                    f"'{name}' carries @hot_path but is missing from the "
                    "registry in tools/simlint/hotpaths.py (registry drift)"
                ),
            )
        )

    # Registered but stale or undecorated.  Partial lints (a single file
    # on the command line) skip entries whose module is not loaded.
    for name in sorted(registered):
        func = project.function_for(name)
        if func is None:
            mod = _module_prefix_of(project, name)
            if mod is not None:
                findings.append(
                    Finding(
                        path=mod.path,
                        line=1,
                        col=0,
                        code=REGISTRY_RULE_CODE,
                        message=(
                            f"registry entry '{name}' does not exist in "
                            f"module '{mod.name}' (stale registry entry)"
                        ),
                    )
                )
            continue
        if (
            name in registry.roots
            and func.module.startswith(registry.decorated_prefix)
            and name not in decorated
        ):
            findings.append(
                Finding(
                    path=project.module_for_function(func).path,
                    line=func.lineno,
                    col=getattr(func.node, "col_offset", 0),
                    code=REGISTRY_RULE_CODE,
                    message=(
                        f"registered hot-path root '{name}' lacks the "
                        "@hot_path marker at its definition (registry drift)"
                    ),
                )
            )
    return findings


def analyze_hot_paths(
    project: Project, registry: Optional[HotPathRegistry] = None
) -> HotAnalysis:
    """Resolve the registry against ``project`` and find SIM207 issues."""
    registry = REGISTRY if registry is None else registry
    registered = registry.registered()
    analysis = HotAnalysis()
    analysis.findings.extend(
        _drift_findings(project, registry, decorated_hot_functions(project))
    )

    present = {
        name: func
        for name in registered
        if (func := project.function_for(name)) is not None
    }
    analysis.functions = [present[name] for name in sorted(present)]

    hot_ok: Dict[str, HotOkIndex] = {}
    for name in sorted(present):
        func = present[name]
        mod = project.module_for_function(func)
        cls = project.class_for_function(func)
        locals_ = local_types_for(func, mod, project)
        index = hot_ok.get(mod.path)
        if index is None:
            index = hot_ok[mod.path] = HotOkIndex(mod.source)
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = project.resolve_expr(
                node.func, mod, cls=cls, local_types=locals_
            )
            if resolved is None:
                continue
            callee = project.function_for(resolved)
            if callee is None or callee.full_name in registered:
                # Constructors (SIM204's job), externals, and registered
                # callees are not closure escapes.
                continue
            if index.acknowledged(node.lineno):
                analysis.acknowledged += 1
                continue
            analysis.findings.append(
                Finding(
                    path=mod.path,
                    line=node.lineno,
                    col=node.col_offset,
                    code=REGISTRY_RULE_CODE,
                    message=(
                        f"hot-path function '{func.qualname}' calls "
                        f"unregistered '{callee.full_name}'; register it in "
                        "tools/simlint/hotpaths.py or acknowledge the cold "
                        "call with '# simlint: hot-ok[reason]'"
                    ),
                )
            )
    return analysis
