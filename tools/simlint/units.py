"""The units layer: interprocedural dimensional analysis.

This is simlint's fourth layer (SIM301-SIM308).  It assigns each
expression in the program a *physical unit* from a small lattice::

    Seconds   Bytes   BytesPerSec   Fraction      (the annotated units)
    Dimensionless                                  (bare numeric literals)
    Erased                                         (json/dict round-trips)
    None                                           (unknown)

Units are seeded three ways, in decreasing order of authority:

1. **annotations** — parameters, returns, class fields, and module
   globals annotated with the aliases from
   :mod:`repro.simulator.units` (``x: Seconds``, ``Optional[Bytes]``,
   ``Dict[int, BytesPerSec]``);
2. **pragmas** — ``# simlint: unit[Bytes]`` asserts the unit of the
   value produced on its line (and recovers units erased by
   serialization);
3. **name conventions** — a short table of known source names
   (``now`` / ``elapsed`` are Seconds, ``volume`` / ``*_bytes`` are
   Bytes, ``capacity`` / ``*_rate`` are BytesPerSec).

From the seeds, units propagate through assignment, arithmetic (via the
physical derivation table: ``Bytes / Seconds -> BytesPerSec``,
``Bytes / BytesPerSec -> Seconds``, ``BytesPerSec * Seconds -> Bytes``,
``same / same -> Fraction``), container element tracking, and function
calls.  Return units of unannotated functions are inferred to a fixed
point over the whole :class:`~tools.simlint.callgraph.Project`, so a
unit planted in ``jobs/flow.py`` is visible at a call site in
``theory/gap.py`` — the same interprocedural machinery that powers the
deep taint layer.

Analysis is *optimistic*: an unknown unit never fires a rule, so the
layer only reports when two **known** units disagree.  Rule semantics
live in :mod:`tools.simlint.unitrules` (SIM301-SIM305) and
:mod:`tools.simlint.memrules` (SIM306-SIM308).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from tools.simlint.callgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    build_project,
    dotted_name,
)
from tools.simlint.findings import Finding, PragmaIndex
from tools.simlint.hotpaths import REGISTRY as HOT_REGISTRY
from tools.simlint.hotpaths import HotPathRegistry
from tools.simlint.memrules import (
    MEM_RULES,
    MEM_RULES_BY_CODE,
    check_generator_materialization,
    check_hot_accumulation,
    check_registry_drift,
)
from tools.simlint.unitrules import (
    UNIT_RULES,
    UNIT_RULES_BY_CODE,
    msg_annotation_conflict,
    msg_cross_compare,
    msg_erased,
    msg_mixed_arith,
    msg_return_mismatch,
    msg_sink_mismatch,
    msg_time_equality,
    msg_unitless_literal,
)

__all__ = [
    "ALL_UNITS_RULES",
    "ALL_UNITS_RULES_BY_CODE",
    "UNITS_MODULES",
    "UNITS_REGISTRY",
    "UnitsRegistry",
    "UnitsReport",
    "units_lint_paths",
    "units_lint_project",
]

# ----------------------------------------------------------------------
# The unit lattice
# ----------------------------------------------------------------------
SECONDS = "Seconds"
BYTES = "Bytes"
BYTES_PER_SEC = "BytesPerSec"
FRACTION = "Fraction"
#: Bare numeric literals and counts: scales any unit without a finding.
DIMENSIONLESS = "Dimensionless"
#: Came back from a dict/JSON round-trip: unit was erased (SIM305).
ERASED = "Erased"

#: The annotated units (everything a rule can mismatch on).
UNIT_NAMES: FrozenSet[str] = frozenset({SECONDS, BYTES, BYTES_PER_SEC, FRACTION})

Unit = Optional[str]

ALL_UNITS_RULES = tuple(UNIT_RULES) + tuple(MEM_RULES)
ALL_UNITS_RULES_BY_CODE = {**UNIT_RULES_BY_CODE, **MEM_RULES_BY_CODE}


# ----------------------------------------------------------------------
# Registry (SIM308)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UnitsRegistry:
    """Which modules the units layer treats as annotated roots.

    SIM308 keeps this two-way honest: a ``repro.*`` module adopting the
    unit aliases must be listed here, and a listed module must still
    carry annotations.  Fixture projects pass their own registry.
    """

    modules: Tuple[str, ...] = ()
    #: Only modules under this prefix are required to register.
    prefix: str = "repro."

    def registered(self) -> FrozenSet[str]:
        return frozenset(self.modules)


#: The shipped annotated root set (keep sorted; SIM308 polices drift).
UNITS_MODULES: Tuple[str, ...] = (
    "repro.jobs.coflow",
    "repro.jobs.flow",
    "repro.simulator.bandwidth.engine",
    "repro.simulator.bandwidth.maxmin",
    "repro.simulator.events",
    "repro.simulator.timecmp",
    "repro.theory.gap",
    "repro.theory.lowerbound",
    "repro.workloads.generator",
)

UNITS_REGISTRY = UnitsRegistry(modules=UNITS_MODULES)


# ----------------------------------------------------------------------
# Pragmas: ``# simlint: unit[Bytes]``
# ----------------------------------------------------------------------
_UNIT_PRAGMA_RE = re.compile(r"#\s*simlint:\s*unit\[\s*(?P<unit>[A-Za-z][A-Za-z0-9]*)\s*\]")


class UnitPragmas:
    """Per-line ``unit[...]`` assertions parsed from one source file."""

    def __init__(self, source: str) -> None:
        self.by_line: Dict[int, str] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _UNIT_PRAGMA_RE.search(text)
            if match is not None and match.group("unit") in UNIT_NAMES:
                self.by_line[lineno] = match.group("unit")

    def unit_on(self, line: int) -> Unit:
        return self.by_line.get(line)


# ----------------------------------------------------------------------
# Name conventions (weakest seed: only used when nothing else is known)
# ----------------------------------------------------------------------
_NAME_UNITS: Dict[str, str] = {
    "volume": BYTES,
    "bytes_sent": BYTES,
    "capacity": BYTES_PER_SEC,
    "rate": BYTES_PER_SEC,
    "link_rate": BYTES_PER_SEC,
    "link_capacity": BYTES_PER_SEC,
    "bandwidth": BYTES_PER_SEC,
    "now": SECONDS,
    "elapsed": SECONDS,
    "horizon": SECONDS,
    "duration": SECONDS,
    "deadline": SECONDS,
    "watermark": SECONDS,
    "jct": SECONDS,
}

_SUFFIX_UNITS: Tuple[Tuple[str, str], ...] = (
    ("_bytes", BYTES),
    ("_rate", BYTES_PER_SEC),
    ("_capacity", BYTES_PER_SEC),
    ("_time", SECONDS),
    ("_seconds", SECONDS),
    ("_jct", SECONDS),
)


def heuristic_unit(name: str) -> Unit:
    """Unit implied by a bare identifier, or None."""
    stripped = name.lstrip("_")
    unit = _NAME_UNITS.get(stripped)
    if unit is not None:
        return unit
    for suffix, suffix_unit in _SUFFIX_UNITS:
        if stripped.endswith(suffix):
            return suffix_unit
    return None


# ----------------------------------------------------------------------
# Annotation readers
# ----------------------------------------------------------------------
_SEQUENCE_GENERICS = frozenset(
    {"List", "Sequence", "Iterable", "Iterator", "Set", "FrozenSet", "Deque", "list", "set"}
)
_MAPPING_GENERICS = frozenset({"Dict", "Mapping", "MutableMapping", "DefaultDict", "dict"})


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the terminal dotted component.
        return node.value.strip().rsplit(".", 1)[-1].rstrip("]").strip()
    parts = dotted_name(node)
    if parts is None:
        return None
    return parts[-1]


def annotation_unit(node: Optional[ast.AST]) -> Unit:
    """The unit named by an annotation: ``Seconds``, ``Optional[Bytes]``..."""
    if node is None:
        return None
    if isinstance(node, ast.Subscript):
        base = _terminal_name(node.value)
        if base in {"Optional", "Final", "ClassVar", "Annotated"}:
            inner = node.slice
            if base == "Annotated" and isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return annotation_unit(inner)
        return None
    name = _terminal_name(node)
    if name in UNIT_NAMES:
        return name
    return None


def _annotation_container(node: Optional[ast.AST]) -> Tuple[Unit, Unit]:
    """(sequence element unit, mapping value unit) named by an annotation."""
    if not isinstance(node, ast.Subscript):
        return None, None
    base = _terminal_name(node.value)
    if base == "Optional":
        return _annotation_container(node.slice)
    inner = node.slice
    if base in _SEQUENCE_GENERICS:
        return annotation_unit(inner), None
    if base in _MAPPING_GENERICS and isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
        value = inner.elts[1]
        unit = annotation_unit(value)
        if unit is None:
            unit = _uniform_tuple_unit(value)
        return None, unit
    if base == "Tuple":
        return _uniform_tuple_unit(node), None
    return None, None


def _uniform_tuple_unit(node: ast.AST) -> Unit:
    """Unit of ``Tuple[U, U]`` / ``Tuple[U, ...]`` when every slot agrees."""
    if not isinstance(node, ast.Subscript) or _terminal_name(node.value) != "Tuple":
        return None
    elts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    units = set()
    for elt in elts:
        if isinstance(elt, ast.Constant) and elt.value is Ellipsis:
            continue
        units.add(annotation_unit(elt))
    if len(units) == 1:
        return units.pop()
    return None


# ----------------------------------------------------------------------
# The derivation table
# ----------------------------------------------------------------------
_MULT_TABLE = {
    (BYTES_PER_SEC, SECONDS): BYTES,
    (SECONDS, BYTES_PER_SEC): BYTES,
}
_DIV_TABLE = {
    (BYTES, SECONDS): BYTES_PER_SEC,
    (BYTES, BYTES_PER_SEC): SECONDS,
}


def derive_binop(op: ast.operator, left: Unit, right: Unit) -> Tuple[Unit, bool]:
    """(result unit, is-mixed-unit-violation) for ``left <op> right``."""
    if isinstance(op, (ast.Add, ast.Sub)):
        if left in UNIT_NAMES and right in UNIT_NAMES:
            if left == right:
                return left, False
            return None, True
        if left in UNIT_NAMES:
            return left, False
        if right in UNIT_NAMES:
            return right, False
        if left == DIMENSIONLESS and right == DIMENSIONLESS:
            return DIMENSIONLESS, False
        return None, False
    if isinstance(op, ast.Mult):
        result = _MULT_TABLE.get((left, right))
        if result is not None:
            return result, False
        for unit, other in ((left, right), (right, left)):
            if unit in UNIT_NAMES and other in (FRACTION, DIMENSIONLESS):
                return unit, False
        if left == DIMENSIONLESS and right == DIMENSIONLESS:
            return DIMENSIONLESS, False
        return None, False
    if isinstance(op, (ast.Div, ast.FloorDiv)):
        result = _DIV_TABLE.get((left, right))
        if result is not None:
            return result, False
        if left in UNIT_NAMES and right == left:
            return FRACTION, False
        if left in UNIT_NAMES and right in (FRACTION, DIMENSIONLESS):
            return left, False
        if left == DIMENSIONLESS and right == DIMENSIONLESS:
            return DIMENSIONLESS, False
        return None, False
    if isinstance(op, ast.Mod):
        if left in UNIT_NAMES and (right == left or right in (FRACTION, DIMENSIONLESS)):
            return left, False
        return None, False
    return None, False


def _join(units: Sequence[Unit]) -> Unit:
    """min/max/sum-style join: agree on one known unit or give up."""
    known = {u for u in units if u in UNIT_NAMES}
    if len(known) == 1:
        return next(iter(known))
    if known:
        return None
    if units and all(u in (DIMENSIONLESS, None) for u in units) and any(
        u == DIMENSIONLESS for u in units
    ):
        return DIMENSIONLESS
    return None


# ----------------------------------------------------------------------
# World: everything the per-function walker looks up
# ----------------------------------------------------------------------
class _World:
    """Unit environment shared by every scope: seeds + inferred summaries."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: full function name -> {param name -> declared unit} (annotations only)
        self.param_units: Dict[str, Dict[str, str]] = {}
        #: full function name -> declared return unit (annotations only)
        self.annotated_returns: Dict[str, str] = {}
        #: full function name -> inferred or declared return unit
        self.returns: Dict[str, Unit] = {}
        #: full class name -> {attr -> unit}
        self.class_units: Dict[str, Dict[str, str]] = {}
        #: full class name -> ordered dataclass-style (field, unit) pairs
        self.class_fields: Dict[str, List[Tuple[str, Unit]]] = {}
        #: full class name -> names of @property methods
        self.properties: Dict[str, Set[str]] = {}
        #: module name -> {global -> unit} (module-level AnnAssign)
        self.global_units: Dict[str, Dict[str, str]] = {}
        #: module name -> first line carrying a unit annotation (SIM308)
        self.usage_lines: Dict[str, int] = {}
        #: module path -> UnitPragmas
        self.pragmas: Dict[str, UnitPragmas] = {}
        for mod in project.modules.values():
            self._seed_module(mod)

    # -- construction ---------------------------------------------------
    def _seed_module(self, mod: ModuleInfo) -> None:
        self.pragmas[mod.path] = UnitPragmas(mod.source)
        globals_here: Dict[str, str] = {}
        for stmt in mod.tree.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                unit = annotation_unit(stmt.annotation)
                if unit is not None:
                    globals_here[stmt.target.id] = unit
                    self._note_usage(mod.name, stmt.annotation.lineno)
        if globals_here:
            self.global_units[mod.name] = globals_here

        for func in mod.functions.values():
            self._seed_function(mod, func)

        for cls in mod.classes.values():
            attr_units: Dict[str, str] = {}
            fields: List[Tuple[str, Unit]] = []
            for stmt in cls.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    unit = annotation_unit(stmt.annotation)
                    fields.append((stmt.target.id, unit))
                    if unit is not None:
                        attr_units[stmt.target.id] = unit
                        self._note_usage(mod.name, stmt.annotation.lineno)
            init = cls.methods.get("__init__")
            if init is not None:
                declared = self.param_units.get(init.full_name, {})
                for node in ast.walk(init.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    if not isinstance(node.value, ast.Name):
                        continue
                    unit = declared.get(node.value.id)
                    if unit is None:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attr_units.setdefault(target.attr, unit)
            if attr_units:
                self.class_units[cls.full_name] = attr_units
            if fields:
                self.class_fields[cls.full_name] = fields
            props = {
                name
                for name, method in cls.methods.items()
                if any(
                    _terminal_name(dec) in ("property", "cached_property")
                    for dec in method.node.decorator_list  # type: ignore[attr-defined]
                )
            }
            if props:
                self.properties[cls.full_name] = props

    def _seed_function(self, mod: ModuleInfo, func: FunctionInfo) -> None:
        node = func.node
        args = node.args  # type: ignore[attr-defined]
        declared: Dict[str, str] = {}
        for arg in [*getattr(args, "posonlyargs", []), *args.args, *args.kwonlyargs]:
            unit = annotation_unit(arg.annotation)
            if unit is not None:
                declared[arg.arg] = unit
                self._note_usage(mod.name, arg.annotation.lineno)
        if declared:
            self.param_units[func.full_name] = declared
        ret = annotation_unit(node.returns)  # type: ignore[attr-defined]
        if ret is not None:
            self.annotated_returns[func.full_name] = ret
            self.returns[func.full_name] = ret
            self._note_usage(mod.name, node.returns.lineno)  # type: ignore[attr-defined]

    def _note_usage(self, module: str, lineno: int) -> None:
        current = self.usage_lines.get(module)
        if current is None or lineno < current:
            self.usage_lines[module] = lineno

    # -- queries --------------------------------------------------------
    def return_unit(self, full_name: str) -> Unit:
        return self.returns.get(full_name)

    def global_unit(self, mod: ModuleInfo, name: str) -> Unit:
        local = self.global_units.get(mod.name, {}).get(name)
        if local is not None:
            return local
        target = mod.imports.get(name)
        if target is not None and "." in target:
            owner, bare = target.rsplit(".", 1)
            return self.global_units.get(owner, {}).get(bare)
        return None


#: emit(path, lineno, col, code, message)
_Emit = Callable[[str, int, int, str, str], None]

#: Literal values exempt from SIM304 (identity / sentinel scalars).
_EXEMPT_LITERALS = (0, 1, -1)

_TIMECMP_SUFFIX = ".timecmp"


def _is_timecmp(mod: ModuleInfo) -> bool:
    return mod.name == "timecmp" or mod.name.endswith(_TIMECMP_SUFFIX)


# ----------------------------------------------------------------------
# The per-scope walker
# ----------------------------------------------------------------------
class _Scope:
    """Walks one function (or module) body, tracking units per name."""

    def __init__(
        self,
        world: _World,
        mod: ModuleInfo,
        func: Optional[FunctionInfo],
        emit: Optional[_Emit],
        env: Optional[Dict[str, Unit]] = None,
    ) -> None:
        self.world = world
        self.project = world.project
        self.mod = mod
        self.func = func
        self.emit = emit
        self.cls_info: Optional[ClassInfo] = (
            self.project.class_for_function(func) if func is not None else None
        )
        self.pragmas = world.pragmas.get(mod.path) or UnitPragmas("")
        self.env: Dict[str, Unit] = dict(env or {})
        #: sequence-like container -> element unit
        self.elem: Dict[str, Unit] = {}
        #: mapping-like container -> value unit
        self.dval: Dict[str, Unit] = {}
        self.return_units: List[Unit] = []
        if func is not None:
            self._seed_params(func)

    def _seed_params(self, func: FunctionInfo) -> None:
        declared = self.world.param_units.get(func.full_name, {})
        args = func.node.args  # type: ignore[attr-defined]
        all_args = [*getattr(args, "posonlyargs", []), *args.args, *args.kwonlyargs]
        for arg in all_args:
            unit = declared.get(arg.arg)
            if unit is None:
                unit = heuristic_unit(arg.arg) if arg.arg not in ("self", "cls") else None
            self.env[arg.arg] = unit
            seq, mapping = _annotation_container(arg.annotation)
            if seq is not None:
                self.elem[arg.arg] = seq
            if mapping is not None:
                self.dval[arg.arg] = mapping

    # -- reporting ------------------------------------------------------
    def _report(self, node: ast.AST, code: str, message: str) -> None:
        if self.emit is not None:
            self.emit(
                self.mod.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                code,
                message,
            )

    # -- statement walking ----------------------------------------------
    def run(self) -> None:
        body = self.func.node.body if self.func is not None else self.mod.tree.body
        self.walk_body(body)

    def infer_return(self) -> Unit:
        self.run()
        return _join(self.return_units) if self.return_units else None

    def walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_nested(stmt)
        elif isinstance(stmt, ast.ClassDef):
            pass  # methods are walked from mod.functions
        elif isinstance(stmt, ast.Assign):
            self._handle_assign(stmt)
        elif isinstance(stmt, ast.AnnAssign):
            self._handle_annassign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._handle_augassign(stmt)
        elif isinstance(stmt, ast.Return):
            self._handle_return(stmt)
        elif isinstance(stmt, ast.Expr):
            self.unit_of(stmt.value)
        elif isinstance(stmt, ast.If):
            self.unit_of(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.unit_of(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._handle_for(stmt)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.unit_of(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, None)
            self.walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.walk_body(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self.env[handler.name] = None
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            self.walk_body(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.unit_of(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self.unit_of(stmt.test)
            if stmt.msg is not None:
                self.unit_of(stmt.msg)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self.unit_of(target.slice)

    def _walk_nested(self, stmt: ast.stmt) -> None:
        """A nested def: its own scope, seeded with the enclosing env."""
        inner = _Scope(self.world, self.mod, None, self.emit, env=self.env)
        inner.cls_info = self.cls_info
        inner.elem.update(self.elem)
        inner.dval.update(self.dval)
        args = stmt.args  # type: ignore[attr-defined]
        for arg in [*getattr(args, "posonlyargs", []), *args.args, *args.kwonlyargs]:
            unit = annotation_unit(arg.annotation)
            inner.env[arg.arg] = unit if unit is not None else heuristic_unit(arg.arg)
        inner.walk_body(stmt.body)  # type: ignore[attr-defined]
        self.env[stmt.name] = None  # type: ignore[attr-defined]

    def _handle_assign(self, stmt: ast.Assign) -> None:
        value_unit = self.unit_of(stmt.value)
        pragma = self.pragmas.unit_on(stmt.lineno)
        if pragma is not None:
            if value_unit in UNIT_NAMES and value_unit != pragma:
                self._report(stmt, "SIM301", msg_annotation_conflict(pragma, value_unit))
            value_unit = pragma
        seq, mapping = self._container_of(stmt.value)
        for target in stmt.targets:
            self._bind_target(target, value_unit, seq=seq, mapping=mapping, value=stmt.value)

    def _handle_annassign(self, stmt: ast.AnnAssign) -> None:
        declared = annotation_unit(stmt.annotation)
        value_unit: Unit = None
        if stmt.value is not None:
            value_unit = self.unit_of(stmt.value)
            if (
                declared is not None
                and value_unit in UNIT_NAMES
                and value_unit != declared
            ):
                self._report(stmt, "SIM301", msg_annotation_conflict(declared, value_unit))
        if isinstance(stmt.target, ast.Name):
            self.env[stmt.target.id] = declared or value_unit
            seq, mapping = _annotation_container(stmt.annotation)
            if seq is not None:
                self.elem[stmt.target.id] = seq
            if mapping is not None:
                self.dval[stmt.target.id] = mapping

    def _handle_augassign(self, stmt: ast.AugAssign) -> None:
        target_unit = self.unit_of(stmt.target)
        value_unit = self.unit_of(stmt.value)
        result, mixed = derive_binop(stmt.op, target_unit, value_unit)
        if mixed:
            self._report(
                stmt,
                "SIM301",
                msg_mixed_arith(_OP_SYMBOLS.get(type(stmt.op), "?"), str(target_unit), str(value_unit)),
            )
        if isinstance(stmt.target, ast.Name):
            self.env[stmt.target.id] = result

    def _handle_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            return
        unit = self.unit_of(stmt.value)
        pragma = self.pragmas.unit_on(stmt.lineno)
        if pragma is not None:
            unit = pragma
        self.return_units.append(unit)
        if self.func is None:
            return
        declared = self.world.annotated_returns.get(self.func.full_name)
        if declared is not None and unit in UNIT_NAMES and unit != declared:
            self._report(
                stmt, "SIM303", msg_return_mismatch(str(unit), declared, self.func.full_name)
            )

    def _handle_for(self, stmt: ast.For) -> None:
        self.unit_of(stmt.iter)
        elem = self.elem_unit_of(stmt.iter)
        self._bind_target(stmt.target, elem, uniform=True)
        self.walk_body(stmt.body)
        self.walk_body(stmt.orelse)

    def _bind_target(
        self,
        target: ast.expr,
        unit: Unit,
        seq: Unit = None,
        mapping: Unit = None,
        value: Optional[ast.expr] = None,
        uniform: bool = False,
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = unit
            if seq is not None:
                self.elem[target.id] = seq
            if mapping is not None:
                self.dval[target.id] = mapping
        elif isinstance(target, (ast.Tuple, ast.List)):
            values: List[Optional[ast.expr]] = [None] * len(target.elts)
            if value is not None and isinstance(value, ast.Tuple) and len(
                value.elts
            ) == len(target.elts):
                values = list(value.elts)
            for sub, sub_value in zip(target.elts, values):
                if sub_value is not None:
                    self._bind_target(sub, self.unit_of(sub_value))
                else:
                    self._bind_target(sub, unit if uniform else None)
        elif isinstance(target, ast.Subscript):
            self.unit_of(target.slice)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, None)

    # -- expression evaluation ------------------------------------------
    def unit_of(self, node: Optional[ast.expr]) -> Unit:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or node.value is None:
                return None
            if isinstance(node.value, (int, float)):
                return DIMENSIONLESS
            return None
        if isinstance(node, ast.Name):
            return self._name_unit(node.id)
        if isinstance(node, ast.Attribute):
            return self._attribute_unit(node)
        if isinstance(node, ast.BinOp):
            return self._binop_unit(node)
        if isinstance(node, ast.UnaryOp):
            inner = self.unit_of(node.operand)
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return inner
            return None
        if isinstance(node, ast.BoolOp):
            return _join([self.unit_of(v) for v in node.values])
        if isinstance(node, ast.Compare):
            return self._compare_unit(node)
        if isinstance(node, ast.Call):
            return self._call_unit(node)
        if isinstance(node, ast.IfExp):
            self.unit_of(node.test)
            return _join([self.unit_of(node.body), self.unit_of(node.orelse)])
        if isinstance(node, ast.Subscript):
            return self._subscript_unit(node)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for elt in node.elts:
                self.unit_of(elt)
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.unit_of(key)
            for value in node.values:
                self.unit_of(value)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._comp_elt_unit(node)
            return None
        if isinstance(node, ast.DictComp):
            with self._comp_scope(node.generators):
                self.unit_of(node.key)
                self.unit_of(node.value)
            return None
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.unit_of(value.value)
            return None
        if isinstance(node, ast.Starred):
            return self.unit_of(node.value)
        if isinstance(node, ast.Lambda):
            return None
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.unit_of(node.value)  # type: ignore[arg-type]
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.unit_of(node.value)
            return None
        if isinstance(node, ast.NamedExpr):
            unit = self.unit_of(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = unit
            return unit
        return None

    def _name_unit(self, name: str) -> Unit:
        if name in self.env:
            unit = self.env[name]
            if unit is not None:
                return unit
            return heuristic_unit(name)
        unit = self.world.global_unit(self.mod, name)
        if unit is not None:
            return unit
        return heuristic_unit(name)

    def _attribute_unit(self, node: ast.Attribute) -> Unit:
        value = node.value
        if isinstance(value, ast.Name) and value.id == "self" and self.cls_info is not None:
            full = self.cls_info.full_name
            unit = self.world.class_units.get(full, {}).get(node.attr)
            if unit is not None:
                return unit
            if node.attr in self.world.properties.get(full, set()):
                method = self.cls_info.methods.get(node.attr)
                if method is not None:
                    return self.world.return_unit(method.full_name)
            return heuristic_unit(node.attr)
        inner = self.unit_of(value)
        if inner == ERASED:
            return ERASED
        resolved = self.project.resolve_expr(node, self.mod, cls=self.cls_info)
        if resolved is not None:
            # A module-level constant reached through its module.
            if "." in resolved:
                owner, bare = resolved.rsplit(".", 1)
                unit = self.world.global_units.get(owner, {}).get(bare)
                if unit is not None:
                    return unit
            # Property access through an inferred attribute type.
            cls_name = resolved.rsplit(".", 1)[0]
            if node.attr in self.world.properties.get(cls_name, set()):
                return self.world.return_unit(resolved)
            cls_attr = self.world.class_units.get(cls_name, {}).get(node.attr)
            if cls_attr is not None:
                return cls_attr
        return heuristic_unit(node.attr)

    def _binop_unit(self, node: ast.BinOp) -> Unit:
        left = self.unit_of(node.left)
        right = self.unit_of(node.right)
        result, mixed = derive_binop(node.op, left, right)
        if mixed:
            self._report(
                node,
                "SIM301",
                msg_mixed_arith(_OP_SYMBOLS.get(type(node.op), "?"), str(left), str(right)),
            )
        return result

    def _compare_unit(self, node: ast.Compare) -> Unit:
        operands = [node.left, *node.comparators]
        units = [self.unit_of(op) for op in operands]
        known = [u for u in units if u in UNIT_NAMES]
        distinct = sorted(set(known))
        if len(distinct) > 1:
            self._report(node, "SIM302", msg_cross_compare(distinct[0], distinct[1]))
        elif (
            distinct == [SECONDS]
            and len(known) >= 2
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and not _is_timecmp(self.mod)
        ):
            self._report(node, "SIM302", msg_time_equality())
        return None

    def _subscript_unit(self, node: ast.Subscript) -> Unit:
        self.unit_of(node.slice)
        value_unit = self.unit_of(node.value)
        if value_unit == ERASED:
            return ERASED
        if isinstance(node.value, ast.Name):
            name = node.value.id
            if name in self.dval:
                return self.dval[name]
            if name in self.elem:
                return self.elem[name]
        return None

    # -- containers -----------------------------------------------------
    def _container_of(self, node: ast.expr) -> Tuple[Unit, Unit]:
        """(sequence element unit, mapping value unit) of an expression."""
        seq = self.elem_unit_of(node)
        mapping: Unit = None
        if isinstance(node, ast.Name):
            mapping = self.dval.get(node.id)
        return seq, mapping

    def elem_unit_of(self, node: ast.expr) -> Unit:
        if isinstance(node, ast.Name):
            return self.elem.get(node.id)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            if not node.elts:
                return None
            return _join([self.unit_of(e) for e in node.elts])
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comp_elt_unit(node)
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "values"
                and isinstance(func.value, ast.Name)
            ):
                return self.dval.get(func.value.id)
            resolved = self.project.resolve_expr(func, self.mod, cls=self.cls_info)
            if resolved == "builtins.sorted" and node.args:
                return self.elem_unit_of(node.args[0])
        return None

    def _comp_elt_unit(self, node: ast.expr) -> Unit:
        with self._comp_scope(node.generators):  # type: ignore[attr-defined]
            return self.unit_of(node.elt)  # type: ignore[attr-defined]

    def _comp_scope(self, generators: Sequence[ast.comprehension]) -> "_CompScope":
        return _CompScope(self, generators)

    # -- calls -----------------------------------------------------------
    def _call_unit(self, node: ast.Call) -> Unit:
        arg_units: List[Unit] = []
        for arg in node.args:
            arg_units.append(self.unit_of(arg))
        kw_units: Dict[str, Unit] = {}
        for kw in node.keywords:
            unit = self.unit_of(kw.value)
            if kw.arg is not None:
                kw_units[kw.arg] = unit

        func = node.func
        resolved = self.project.resolve_expr(func, self.mod, cls=self.cls_info)

        # json round-trips erase units.
        if resolved in ("json.load", "json.loads"):
            return ERASED
        if isinstance(func, ast.Attribute) and self.unit_of(func.value) == ERASED:
            # Reads off an erased mapping stay erased; anything else on it
            # (str methods etc.) is unknown.
            if func.attr in ("get", "pop", "setdefault"):
                return ERASED
            return None

        # Unit-transparent builtins.
        if resolved in ("builtins.float", "builtins.abs", "builtins.round"):
            return arg_units[0] if arg_units else None
        if resolved in ("builtins.min", "builtins.max"):
            units = list(arg_units)
            if len(node.args) == 1:
                elem = self.elem_unit_of(node.args[0])
                if elem is not None:
                    units.append(elem)
            default = kw_units.get("default")
            if default is not None:
                units.append(default)
            return _join(units)
        if resolved == "builtins.sum":
            units = []
            if node.args:
                elem = self.elem_unit_of(node.args[0])
                if elem is not None:
                    units.append(elem)
                if len(arg_units) > 1:
                    units.append(arg_units[1])
            return _join(units) if units else None
        if resolved == "builtins.len":
            return DIMENSIONLESS
        if resolved == "builtins.int":
            return None

        result = self._check_call_sinks(node, resolved, arg_units, kw_units)
        if result is not None:
            return result
        # Unresolved method call: fall back to the name convention
        # (job.completion_time() reads as Seconds even without a type).
        if isinstance(func, ast.Attribute):
            return heuristic_unit(func.attr)
        if isinstance(func, ast.Name):
            return heuristic_unit(func.id)
        return None

    def _check_call_sinks(
        self,
        node: ast.Call,
        resolved: Optional[str],
        arg_units: List[Unit],
        kw_units: Dict[str, Unit],
    ) -> Unit:
        """Match args against the target's declared units; return call unit."""
        if resolved is None:
            return None
        target: Optional[FunctionInfo] = self.project.functions.get(resolved)
        fields: Optional[List[Tuple[str, Unit]]] = None
        result: Unit = None
        target_name = resolved
        if target is None and resolved in self.project.classes:
            cls = self.project.classes[resolved]
            init = cls.methods.get("__init__")
            if init is not None:
                target = init
                target_name = resolved
            else:
                fields = self.world.class_fields.get(resolved)
            result = None  # instances carry no scalar unit
        elif target is not None:
            result = self.world.return_unit(resolved)

        if target is not None:
            declared = self.world.param_units.get(target.full_name, {})
            params = target.params
            offset = 1 if target.cls is not None and params[:1] in (["self"], ["cls"]) else 0
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                index = offset + i
                if index >= len(params):
                    break
                self._check_sink(arg, arg_units[i], params[index], declared.get(params[index]), target_name)
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                self._check_sink(
                    kw.value, kw_units.get(kw.arg), kw.arg, declared.get(kw.arg), target_name
                )
        elif fields is not None:
            by_name = dict(fields)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                if i >= len(fields):
                    break
                name, unit = fields[i]
                self._check_sink(arg, arg_units[i], name, unit, target_name)
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                self._check_sink(
                    kw.value, kw_units.get(kw.arg), kw.arg, by_name.get(kw.arg), target_name
                )
        return result

    def _check_sink(
        self,
        arg: ast.expr,
        arg_unit: Unit,
        param: str,
        declared: Optional[str],
        target: str,
    ) -> None:
        if declared is None:
            return
        pragma = self.pragmas.unit_on(getattr(arg, "lineno", 0))
        literal = _literal_value(arg)
        if literal is not None and pragma is None:
            if literal not in _EXEMPT_LITERALS:
                self._report(arg, "SIM304", msg_unitless_literal(repr(literal), param, declared, target))
            return
        if pragma is not None:
            arg_unit = pragma
        if arg_unit == ERASED:
            self._report(arg, "SIM305", msg_erased(param, declared, target))
            return
        if arg_unit in UNIT_NAMES and arg_unit != declared:
            self._report(arg, "SIM303", msg_sink_mismatch(arg_unit, param, declared, target))


class _CompScope:
    """Temporarily binds comprehension targets inside the owning scope."""

    def __init__(self, scope: _Scope, generators: Sequence[ast.comprehension]) -> None:
        self.scope = scope
        self.generators = generators
        self._saved: Dict[str, Unit] = {}

    def __enter__(self) -> "_CompScope":
        scope = self.scope
        self._saved = dict(scope.env)
        for comp in self.generators:
            scope.unit_of(comp.iter)
            elem = scope.elem_unit_of(comp.iter)
            scope._bind_target(comp.target, elem, uniform=True)
            for cond in comp.ifs:
                scope.unit_of(cond)
        return self

    def __exit__(self, *exc: object) -> None:
        self.scope.env = self._saved


_OP_SYMBOLS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
}


def _literal_value(node: ast.expr) -> Optional[float]:
    """The numeric value of a bare literal argument, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_value(node.operand)
        return -inner if inner is not None else None
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class UnitsReport:
    """Outcome of one units-layer run over a project."""

    findings: List[Finding]
    suppressed: int
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings


def units_lint_project(
    project: Project,
    registry: Optional[UnitsRegistry] = None,
    hot_registry: Optional[HotPathRegistry] = None,
) -> UnitsReport:
    """Run SIM301-SIM308 over an already-built project."""
    units_registry = registry if registry is not None else UNITS_REGISTRY
    hot = hot_registry if hot_registry is not None else HOT_REGISTRY
    world = _World(project)

    # Fixed point: infer return units for unannotated functions so units
    # cross call boundaries in both directions.
    for _ in range(6):
        changed = False
        for func in project.functions.values():
            if func.full_name in world.annotated_returns:
                continue
            mod = project.modules[func.module]
            inferred = _Scope(world, mod, func, emit=None).infer_return()
            if inferred != world.returns.get(func.full_name):
                world.returns[func.full_name] = inferred
                changed = True
        if not changed:
            break

    # Observer pass: walk everything once more with reporting on.
    raw: List[Finding] = []
    seen: Set[Tuple[str, int, int, str, str]] = set()

    def emit(path: str, line: int, col: int, code: str, message: str) -> None:
        key = (path, line, col, code, message)
        if key in seen:
            return
        seen.add(key)
        raw.append(Finding(path=path, line=line, col=col, code=code, message=message))

    for mod in project.modules.values():
        _Scope(world, mod, None, emit).run()
        for func in mod.functions.values():
            _Scope(world, mod, func, emit).run()

    check_generator_materialization(project, emit)
    check_hot_accumulation(project, hot, emit)
    check_registry_drift(
        project, units_registry.registered(), units_registry.prefix, world.usage_lines, emit
    )

    # Pragma filtering (ignore[...] / skip-file), mirroring the deep layer.
    by_module = {mod.path: mod for mod in project.modules.values()}
    pragma_index: Dict[str, PragmaIndex] = {}
    kept: List[Finding] = []
    suppressed = 0
    for finding in raw:
        index = pragma_index.get(finding.path)
        if index is None:
            mod = by_module.get(finding.path)
            index = PragmaIndex(mod.source if mod is not None else "")
            pragma_index[finding.path] = index
        if index.suppresses(finding.line, finding.code):
            suppressed += 1
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.code, f.col))
    return UnitsReport(
        findings=kept, suppressed=suppressed, files_checked=len(project.modules)
    )


def units_lint_paths(
    paths: Sequence[str],
    registry: Optional[UnitsRegistry] = None,
    hot_registry: Optional[HotPathRegistry] = None,
) -> UnitsReport:
    """Build a project from ``paths`` and run the units layer on it."""
    return units_lint_project(
        build_project(paths), registry=registry, hot_registry=hot_registry
    )
