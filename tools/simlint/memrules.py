"""SIM306-SIM308: streaming-discipline rules (the units layer).

The memory half of the fourth simlint layer.  These rules pre-gate the
ROADMAP's million-job streaming refactor: once workload arrivals become
generators, nothing may silently materialize them back into RAM
(SIM306), the hot event loop may not grow unbounded per-event state
(SIM307), and the unit-annotation registry may not drift out of sync
with the tree (SIM308).

The checkers here are plain project walks — no unit inference — so they
take a :class:`~tools.simlint.callgraph.Project` plus an ``emit``
callback and stay independent of :mod:`tools.simlint.units`, which
orchestrates them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Set, Tuple

from tools.simlint.callgraph import FunctionInfo, ModuleInfo, Project
from tools.simlint.hotpaths import HotPathRegistry

#: emit(path, lineno, col, code, message)
Emit = Callable[[str, int, int, str, str], None]


@dataclass(frozen=True)
class MemRule:
    """Descriptor of one streaming-discipline rule."""

    code: str
    name: str
    description: str


MEM_RULES: Tuple[MemRule, ...] = (
    MemRule(
        code="SIM306",
        name="generator-materialization",
        description=(
            "list()/sorted()/tuple() materializes the output of a "
            "workloads-package generator function in one shot. Arrival "
            "streams must stay streaming — iterate lazily or bound the "
            "window explicitly."
        ),
    ),
    MemRule(
        code="SIM307",
        name="hot-loop-accumulation",
        description=(
            "A registered hot-path function appends/extends onto shared "
            "state (self attribute or module global) inside a loop and "
            "never drains it — per-event memory growth the event loop "
            "cannot shed. Drain the container in the same function or "
            "acknowledge with '# simlint: ignore[SIM307] (reason)'."
        ),
    ),
    MemRule(
        code="SIM308",
        name="units-registry-drift",
        description=(
            "A repro module uses unit annotations without being listed in "
            "UNITS_MODULES (tools/simlint/units.py), or a registered "
            "module no longer carries any — the units layer only "
            "analyzes registered roots, so drift silently unguards code."
        ),
    ),
)

MEM_RULES_BY_CODE: Dict[str, MemRule] = {rule.code: rule for rule in MEM_RULES}

#: Builtins that force a whole iterable into memory at once.
_MATERIALIZERS = frozenset({"builtins.list", "builtins.sorted", "builtins.tuple"})

#: Receiver methods that grow a container.
_GROWERS = frozenset({"append", "extend"})

#: Receiver methods that shrink or reset a container (a drain).
_DRAINERS = frozenset({"pop", "popleft", "popitem", "clear", "remove"})


def _is_workloads_module(name: str) -> bool:
    parts = name.split(".")
    return "workloads" in parts


def _is_generator_function(func: FunctionInfo) -> bool:
    nested: Set[ast.AST] = set()
    for node in ast.walk(func.node):
        if node is not func.node and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            nested.update(ast.walk(node))
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) and node not in nested
        for node in ast.walk(func.node)
    )


def check_generator_materialization(project: Project, emit: Emit) -> None:
    """SIM306: list()/sorted()/tuple() around a workloads generator call."""
    for mod in project.modules.values():
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            wrapper = project.resolve_expr(node.func, mod)
            if wrapper not in _MATERIALIZERS:
                continue
            inner = node.args[0]
            if not isinstance(inner, ast.Call):
                continue
            target = _resolve_call_in_context(project, mod, node, inner)
            if target is None:
                continue
            func = project.functions.get(target)
            if func is None:
                continue
            if not _is_workloads_module(func.module):
                continue
            if not _is_generator_function(func):
                continue
            short = wrapper.rsplit(".", 1)[-1]
            emit(
                mod.path,
                node.lineno,
                node.col_offset,
                "SIM306",
                f"{short}() materializes workload arrival generator "
                f"{target} — iterate the stream lazily instead",
            )


def _resolve_call_in_context(
    project: Project, mod: ModuleInfo, outer: ast.Call, inner: ast.Call
) -> Optional[str]:
    """Resolve ``inner.func``, using the enclosing class when inside a method."""
    for cls in mod.classes.values():
        for method in cls.methods.values():
            if outer in set(ast.walk(method.node)):
                return project.resolve_expr(inner.func, mod, cls=cls)
    return project.resolve_expr(inner.func, mod)


def _shared_receiver(
    node: ast.Attribute, func: FunctionInfo, mod: ModuleInfo
) -> Optional[str]:
    """Name the shared container a ``.append``/``.extend`` call grows.

    Only ``self.<attr>`` receivers and module globals count as shared;
    plain locals are scratch space the function owns.
    """
    value = node.value
    if (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
    ):
        return f"self.{value.attr}"
    if isinstance(value, ast.Name):
        name = value.id
        if name in func.params:
            return None
        if Project._is_local_name(func, name):
            return None
        if name in mod.global_names or name in mod.mutable_globals:
            return name
    return None


def _drained_receivers(func: FunctionInfo) -> Set[str]:
    """Receivers the function also shrinks, resets, or reassigns."""
    drained: Set[str] = set()
    for node in ast.walk(func.node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _DRAINERS:
                drained.add(_receiver_key(node.func.value))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                drained.add(_receiver_key(target))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    drained.add(_receiver_key(target.value))
                else:
                    drained.add(_receiver_key(target))
    drained.discard("")
    return drained


def _receiver_key(node: ast.AST) -> str:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    return ""


def check_hot_accumulation(
    project: Project, registry: HotPathRegistry, emit: Emit
) -> None:
    """SIM307: undrained append/extend onto shared state in hot loops."""
    for full_name in sorted(registry.registered()):
        func = project.functions.get(full_name)
        if func is None:
            continue
        mod = project.modules[func.module]
        drained = _drained_receivers(func)
        for loop in ast.walk(func.node):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _GROWERS
                ):
                    continue
                shared = _shared_receiver(node.func, func, mod)
                if shared is None or shared in drained:
                    continue
                emit(
                    mod.path,
                    node.lineno,
                    node.col_offset,
                    "SIM307",
                    f"hot-path {full_name} grows {shared} with "
                    f".{node.func.attr}() inside its loop and never drains "
                    "it — unbounded per-event accumulation",
                )


def check_registry_drift(
    project: Project,
    registered: FrozenSet[str],
    prefix: str,
    usage_lines: Dict[str, int],
    emit: Emit,
) -> None:
    """SIM308: two-way drift between unit annotations and UNITS_MODULES.

    ``usage_lines`` maps module name -> first line carrying a unit
    annotation (computed by the inference engine).  Registered modules
    that are not loaded are skipped so partial lints stay clean.
    """
    for name, lineno in sorted(usage_lines.items()):
        if not name.startswith(prefix) or name in registered:
            continue
        mod = project.modules[name]
        emit(
            mod.path,
            lineno,
            0,
            "SIM308",
            f"module {name} uses unit annotations but is not listed in "
            "UNITS_MODULES (tools/simlint/units.py) — register it so "
            "the units layer analyzes it",
        )
    for name in sorted(registered):
        mod = project.modules.get(name)
        if mod is None:
            continue
        if name in usage_lines:
            continue
        emit(
            mod.path,
            1,
            0,
            "SIM308",
            f"module {name} is listed in UNITS_MODULES but no longer "
            "carries any unit annotations — stale registry entry",
        )
