"""SIM201-SIM207: performance rules over the hot closure (the perf layer).

The third simlint layer.  :mod:`tools.simlint.hotpath` resolves the
hot-path registry against the project and yields (a) the registered hot
functions and (b) SIM207 closure-escape/registry-drift findings; the
content rules here then inspect each hot function for the patterns PR 6
had to remove by hand:

* SIM201 — unguarded or eagerly-formatted logging calls;
* SIM202 — per-iteration allocation inside loops;
* SIM203 — numpy scalar item access inside loops;
* SIM204 — instantiating ``__slots__``-less project classes;
* SIM205 — repeated ``self.x.y`` attribute chains inside loops;
* SIM206 — ``try/except`` or generator indirection inside loops.

``# simlint: ignore[SIM2xx]`` pragmas suppress findings per line exactly
as for the other layers; the separate ``# simlint: hot-ok[reason]``
pragma (SIM207 only) acknowledges a deliberately-cold call *out of* the
closure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from tools.simlint.callgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    build_project,
    dotted_name,
)
from tools.simlint.findings import Finding, PragmaIndex
from tools.simlint.hotpath import HotAnalysis, analyze_hot_paths, local_types_for
from tools.simlint.hotpaths import HotPathRegistry


@dataclass(frozen=True)
class PerfRule:
    """Descriptor of one hot-closure performance rule."""

    code: str
    name: str
    description: str


PERF_RULES: Tuple[PerfRule, ...] = (
    PerfRule(
        code="SIM201",
        name="hot-logging",
        description=(
            "A logging call in the hot closure is unguarded, or formats "
            "its message eagerly (f-string, .format, %-interpolation). "
            "Gate hot-loop logging behind a cached isEnabledFor flag and "
            "pass lazy %-style arguments."
        ),
    ),
    PerfRule(
        code="SIM202",
        name="hot-loop-allocation",
        description=(
            "A loop in a hot function allocates per iteration: a "
            "comprehension or generator expression, a list/dict/set/tuple "
            "literal or constructor, lambda/closure creation, or sequence "
            "concatenation with '+'. Hoist the allocation or restructure."
        ),
    ),
    PerfRule(
        code="SIM203",
        name="hot-numpy-scalar",
        description=(
            "Scalar item access on a numpy array inside a hot loop. "
            "Python-level numpy indexing is several times slower than "
            "plain list indexing at hot-path sizes (measured on the "
            "water-fill round loop, which is why that loop keeps its "
            "round state in lists) — use lists or hoist with .tolist()."
        ),
    ),
    PerfRule(
        code="SIM204",
        name="hot-no-slots",
        description=(
            "A hot-closure function instantiates a project class without "
            "__slots__. Instance dicts cost allocation and cache misses "
            "per construction; exceptions and enums are exempt."
        ),
    ),
    PerfRule(
        code="SIM205",
        name="hot-attr-chain",
        description=(
            "The same self.x.y attribute chain is read repeatedly inside "
            "a hot loop. Bind it to a local before the loop — attribute "
            "dictionary lookups are per-access, not cached."
        ),
    ),
    PerfRule(
        code="SIM206",
        name="hot-control-indirection",
        description=(
            "try/except inside a hot loop, or a hot loop iterating a "
            "project generator function. Exception-handler setup and "
            "generator frame switches are per-iteration costs — hoist "
            "the handler or materialize the sequence."
        ),
    ),
    PerfRule(
        code="SIM207",
        name="hot-closure-escape",
        description=(
            "A hot-closure function calls a project function outside the "
            "hot-path registry (or the registry and the @hot_path "
            "markers drifted apart). Register the callee in "
            "tools/simlint/hotpaths.py or acknowledge the cold call with "
            "'# simlint: hot-ok[reason]'."
        ),
    ),
)

PERF_RULES_BY_CODE: Dict[str, PerfRule] = {rule.code: rule for rule in PERF_RULES}

_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)
_SEQUENCE_CONSTRUCTORS = frozenset({"list", "dict", "set", "tuple", "frozenset"})
_NUMPY_COPY_METHODS = frozenset({"copy", "astype", "reshape", "ravel", "view"})
_SLOTS_EXEMPT_BASES = frozenset(
    {"Exception", "BaseException", "NamedTuple", "Enum", "IntEnum", "Protocol"}
)


def _parent_map(root: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _outermost_loops(func_node: ast.AST) -> List[ast.AST]:
    """Loop statements of ``func_node`` not nested in another loop."""
    loops: List[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                loops.append(child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # different frame
            else:
                visit(child)

    visit(func_node)
    return loops


def _loop_body_nodes(loop: ast.AST) -> Iterable[ast.AST]:
    """Every node executed per iteration (the body, not the iter)."""
    for stmt in getattr(loop, "body", []):
        yield from ast.walk(stmt)


def _finding(
    mod: ModuleInfo, node: ast.AST, code: str, message: str
) -> Finding:
    return Finding(
        path=mod.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


# ----------------------------------------------------------------------
# SIM201: logging in the hot closure
# ----------------------------------------------------------------------
def _is_loggerish(node: ast.AST) -> bool:
    parts = dotted_name(node)
    return parts is not None and "log" in parts[-1].lower()


def _debug_guarded_ids(func_node: ast.AST) -> Set[int]:
    """ids of nodes lexically inside an ``if <debug-flag>:`` body."""

    def is_debug_test(test: ast.AST) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Call):
                parts = dotted_name(sub.func)
                if parts is not None and parts[-1] == "isEnabledFor":
                    return True
            terminal: Optional[str] = None
            if isinstance(sub, ast.Name):
                terminal = sub.id
            elif isinstance(sub, ast.Attribute):
                terminal = sub.attr
            if terminal is not None and "debug" in terminal.lower():
                return True
        return False

    guarded: Set[int] = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.If) and is_debug_test(node.test):
            for stmt in node.body:
                guarded.update(id(sub) for sub in ast.walk(stmt))
    return guarded


def _eager_format_args(call: ast.Call) -> bool:
    values = list(call.args) + [kw.value for kw in call.keywords]
    for value in values:
        for sub in ast.walk(value):
            if isinstance(sub, ast.JoinedStr):
                return True
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                if sub.func.attr == "format":
                    return True
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mod):
            left = value.left
            if isinstance(left, ast.JoinedStr) or (
                isinstance(left, ast.Constant) and isinstance(left.value, str)
            ):
                return True
    return False


def _check_logging(func: FunctionInfo, mod: ModuleInfo) -> List[Finding]:
    findings: List[Finding] = []
    guarded = _debug_guarded_ids(func.node)
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        if node.func.attr not in _LOG_METHODS:
            continue
        if not _is_loggerish(node.func.value):
            continue
        call_name = ".".join(dotted_name(node.func) or (node.func.attr,))
        if _eager_format_args(node):
            findings.append(
                _finding(
                    mod,
                    node,
                    "SIM201",
                    f"logging call '{call_name}' in hot-path function "
                    f"'{func.qualname}' formats its message eagerly "
                    "(f-string/.format/%); pass lazy %-style arguments",
                )
            )
        elif id(node) not in guarded:
            findings.append(
                _finding(
                    mod,
                    node,
                    "SIM201",
                    f"unguarded logging call '{call_name}' in hot-path "
                    f"function '{func.qualname}'; gate it behind a cached "
                    "isEnabledFor flag (see docs/performance.md)",
                )
            )
    return findings


# ----------------------------------------------------------------------
# SIM202: per-iteration allocation in hot loops
# ----------------------------------------------------------------------
def _allocation_kind(node: ast.AST) -> Optional[str]:
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
        return "comprehension"
    if isinstance(node, ast.GeneratorExp):
        return "generator expression"
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return "container literal"
    if isinstance(node, ast.Lambda):
        return "lambda (closure creation)"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return "nested def (closure creation)"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in _SEQUENCE_CONSTRUCTORS:
            return f"{node.func.id}() constructor"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        if isinstance(node.left, (ast.List, ast.Tuple)) or isinstance(
            node.right, (ast.List, ast.Tuple)
        ):
            return "sequence concatenation with '+'"
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
        if isinstance(node.value, (ast.List, ast.Tuple)):
            return "sequence concatenation with '+='"
    return None


def _check_loop_allocation(func: FunctionInfo, mod: ModuleInfo) -> List[Finding]:
    findings: List[Finding] = []
    seen: Set[int] = set()
    for loop in _outermost_loops(func.node):
        for node in _loop_body_nodes(loop):
            if id(node) in seen:
                continue
            kind = _allocation_kind(node)
            if kind is None:
                continue
            seen.add(id(node))
            findings.append(
                _finding(
                    mod,
                    node,
                    "SIM202",
                    f"{kind} allocates per iteration inside a loop of "
                    f"hot-path function '{func.qualname}'; hoist it out "
                    "of the loop or restructure",
                )
            )
    return findings


# ----------------------------------------------------------------------
# SIM203: numpy scalar item access in hot loops
# ----------------------------------------------------------------------
def _numpy_aliases(mod: ModuleInfo) -> Set[str]:
    return {
        local
        for local, target in mod.imports.items()
        if target.split(".")[0] == "numpy"
    }


def _annotation_is_ndarray(annotation: ast.AST) -> bool:
    for sub in ast.walk(annotation):
        terminal: Optional[str] = None
        if isinstance(sub, ast.Name):
            terminal = sub.id
        elif isinstance(sub, ast.Attribute):
            terminal = sub.attr
        if terminal in {"NDArray", "ndarray"}:
            return True
    return False


def _tracked_arrays(func: FunctionInfo, mod: ModuleInfo) -> Set[str]:
    """Local names statically known to hold numpy arrays."""
    tracked: Set[str] = set()
    aliases = _numpy_aliases(mod)
    args = func.node.args  # type: ignore[attr-defined]
    for arg in [*getattr(args, "posonlyargs", []), *args.args, *args.kwonlyargs]:
        if arg.annotation is not None and _annotation_is_ndarray(arg.annotation):
            tracked.add(arg.arg)

    def value_is_array(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        parts = dotted_name(value.func)
        if parts is not None and parts[0] in aliases:
            return True
        if (
            isinstance(value.func, ast.Attribute)
            and value.func.attr in _NUMPY_COPY_METHODS
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id in tracked
        ):
            return True
        return False

    # Two passes so copies-of-copies propagate.
    for _ in range(2):
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) and value_is_array(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tracked.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if node.value is not None and value_is_array(node.value):
                    tracked.add(node.target.id)
    return tracked


def _check_numpy_scalar(func: FunctionInfo, mod: ModuleInfo) -> List[Finding]:
    tracked = _tracked_arrays(func, mod)
    if not tracked:
        return []
    findings: List[Finding] = []
    seen: Set[int] = set()
    for loop in _outermost_loops(func.node):
        for node in _loop_body_nodes(loop):
            if id(node) in seen or not isinstance(node, ast.Subscript):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            if not isinstance(node.value, ast.Name):
                continue
            if node.value.id not in tracked:
                continue
            if isinstance(node.slice, (ast.Slice, ast.Tuple)):
                continue  # slicing/multi-dim views, not scalar access
            seen.add(id(node))
            findings.append(
                _finding(
                    mod,
                    node,
                    "SIM203",
                    f"scalar item access on numpy array '{node.value.id}' "
                    f"inside a loop of hot-path function '{func.qualname}'; "
                    "python-level numpy indexing loses to plain lists at "
                    "hot-path sizes — use lists or hoist with .tolist()",
                )
            )
    return findings


# ----------------------------------------------------------------------
# SIM204: __slots__-less instantiation in the hot closure
# ----------------------------------------------------------------------
def _class_has_slots(cls: ClassInfo) -> bool:
    for stmt in cls.node.body:
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _class_is_slots_exempt(cls: ClassInfo) -> bool:
    if cls.name.endswith(("Error", "Exception", "Warning")):
        return True
    for base in cls.base_names:
        terminal = base.rsplit(".", 1)[-1]
        if terminal in _SLOTS_EXEMPT_BASES or terminal.endswith(
            ("Error", "Exception", "Warning")
        ):
            return True
    return False


def _check_slots(
    func: FunctionInfo,
    mod: ModuleInfo,
    project: Project,
    cls: Optional[ClassInfo],
    local_types: Dict[str, str],
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        resolved = project.resolve_expr(
            node.func, mod, cls=cls, local_types=local_types
        )
        if resolved is None or resolved not in project.classes:
            continue
        target = project.classes[resolved]
        if _class_has_slots(target) or _class_is_slots_exempt(target):
            continue
        findings.append(
            _finding(
                mod,
                node,
                "SIM204",
                f"hot-path function '{func.qualname}' instantiates "
                f"'{resolved}' which lacks __slots__; add __slots__ or "
                "keep construction off the hot path",
            )
        )
    return findings


# ----------------------------------------------------------------------
# SIM205: repeated self.x.y chains in hot loops
# ----------------------------------------------------------------------
def _check_attr_chains(func: FunctionInfo, mod: ModuleInfo) -> List[Finding]:
    findings: List[Finding] = []
    parents = _parent_map(func.node)
    for loop in _outermost_loops(func.node):
        chains: Dict[Tuple[str, ...], List[ast.AST]] = {}
        for node in _loop_body_nodes(loop):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            parent = parents.get(id(node))
            if isinstance(parent, ast.Attribute) and parent.value is node:
                continue  # inner part of a longer chain
            parts = dotted_name(node)
            if parts is None or parts[0] != "self" or len(parts) < 3:
                continue
            chains.setdefault(parts, []).append(node)
        for parts, nodes in sorted(chains.items()):
            if len(nodes) < 2:
                continue
            anchor = min(
                nodes,
                key=lambda n: (getattr(n, "lineno", 1), getattr(n, "col_offset", 0)),
            )
            findings.append(
                _finding(
                    mod,
                    anchor,
                    "SIM205",
                    f"attribute chain '{'.'.join(parts)}' read "
                    f"{len(nodes)}x inside a loop of hot-path function "
                    f"'{func.qualname}'; bind it to a local before the loop",
                )
            )
    return findings


# ----------------------------------------------------------------------
# SIM206: try/except or generator indirection in hot loops
# ----------------------------------------------------------------------
def _is_generator_function(func: FunctionInfo) -> bool:
    def scan(node: ast.AST) -> bool:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # different frame
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                return True
            if scan(child):
                return True
        return False

    return scan(func.node)


def _check_control_indirection(
    func: FunctionInfo,
    mod: ModuleInfo,
    project: Project,
    cls: Optional[ClassInfo],
    local_types: Dict[str, str],
) -> List[Finding]:
    findings: List[Finding] = []
    seen: Set[int] = set()
    for loop in _outermost_loops(func.node):
        for node in _loop_body_nodes(loop):
            if id(node) in seen or not isinstance(node, ast.Try):
                continue
            seen.add(id(node))
            findings.append(
                _finding(
                    mod,
                    node,
                    "SIM206",
                    f"try/except inside a loop of hot-path function "
                    f"'{func.qualname}'; exception-handler setup is a "
                    "per-iteration cost — hoist the handler or isolate "
                    "the faulting call",
                )
            )
    for node in ast.walk(func.node):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        if not isinstance(node.iter, ast.Call):
            continue
        resolved = project.resolve_expr(
            node.iter.func, mod, cls=cls, local_types=local_types
        )
        if resolved is None:
            continue
        callee = project.function_for(resolved)
        if callee is None or not _is_generator_function(callee):
            continue
        findings.append(
            _finding(
                mod,
                node.iter,
                "SIM206",
                f"hot-path function '{func.qualname}' iterates generator "
                f"function '{callee.full_name}'; generator frame switches "
                "are a per-item cost — materialize or inline the sequence",
            )
        )
    return findings


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class PerfReport:
    """Findings + suppression count of one perf analysis."""

    findings: List[Finding]
    suppressed: int
    files_checked: int
    acknowledged: int = 0


def _check_function(project: Project, func: FunctionInfo) -> List[Finding]:
    mod = project.module_for_function(func)
    cls = project.class_for_function(func)
    local_types = local_types_for(func, mod, project)
    findings: List[Finding] = []
    findings.extend(_check_logging(func, mod))
    findings.extend(_check_loop_allocation(func, mod))
    findings.extend(_check_numpy_scalar(func, mod))
    findings.extend(_check_slots(func, mod, project, cls, local_types))
    findings.extend(_check_attr_chains(func, mod))
    findings.extend(_check_control_indirection(func, mod, project, cls, local_types))
    return findings


def perf_lint_project(
    project: Project, registry: Optional[HotPathRegistry] = None
) -> PerfReport:
    """Run SIM201-SIM207 over the hot closure, applying per-line pragmas."""
    analysis: HotAnalysis = analyze_hot_paths(project, registry)
    findings: List[Finding] = list(analysis.findings)
    for func in analysis.functions:
        findings.extend(_check_function(project, func))

    pragmas: Dict[str, PragmaIndex] = {}
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        index = pragmas.get(finding.path)
        if index is None:
            mod = next(
                (m for m in project.modules.values() if m.path == finding.path),
                None,
            )
            index = PragmaIndex(mod.source if mod is not None else "")
            pragmas[finding.path] = index
        if index.skip_file or index.suppresses(finding.line, finding.code):
            suppressed += 1
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.code, f.col))
    return PerfReport(
        findings=kept,
        suppressed=suppressed,
        files_checked=len(project.modules),
        acknowledged=analysis.acknowledged,
    )


def perf_lint_paths(
    paths: Sequence[str], registry: Optional[HotPathRegistry] = None
) -> PerfReport:
    """Hot-closure SIM201-SIM207 analysis over ``paths``."""
    return perf_lint_project(build_project(paths), registry)
