"""Whole-program module/function/call-graph model for simlint's deep layer.

The per-file rules (SIM001-SIM006) are statement-local; the deep analyzer
needs to see *across* files: which module a name was imported from, which
function a call resolves to, and which class an attribute holds.  This
module builds that picture:

* :class:`ModuleInfo` — one parsed file with its import table, functions
  (including methods), classes, and module-level globals;
* :class:`Project` — every module under the linted roots, with name
  resolution that follows ``from x import y`` chains across modules
  (including package ``__init__`` re-exports) and a best-effort call
  resolver used by both the taint engine and the worker-purity rule.

Resolution is *textual*: a resolved target is a dotted string such as
``repro.experiments.parallel.run_grid`` or ``time.perf_counter``.  Names
that resolve outside the project (stdlib, third-party) keep their dotted
form, which is exactly what the taint source tables match against.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Constructors whose module-level result is a mutable container.
MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "extend",
        "insert",
        "sort",
        "reverse",
    }
)


def dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name-rooted chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def module_name_for(path: Path) -> str:
    """Dotted module name, found by walking up through ``__init__.py``."""
    if path.name == "__init__.py":
        parts: List[str] = []
        parent = path.parent
    else:
        parts = [path.stem]
        parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:  # a bare __init__.py with no package parent
        parts = [path.parent.name]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    module: str
    qualname: str  #: ``"run_grid"`` or ``"EventQueue.push"``
    node: ast.AST  #: FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None  #: enclosing class name, if a method

    @property
    def full_name(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)

    @property
    def params(self) -> List[str]:
        args = self.node.args  # type: ignore[attr-defined]
        names = [a.arg for a in getattr(args, "posonlyargs", [])]
        names += [a.arg for a in args.args]
        names += [a.arg for a in args.kwonlyargs]
        return names

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One class definition with its methods and inferred attribute types."""

    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> full class name, inferred from ``self.x = Ctor()``
    #: assignments and annotated class-body fields.
    attr_types: Dict[str, str] = field(default_factory=dict)
    base_names: Tuple[str, ...] = ()

    @property
    def full_name(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleInfo:
    """One parsed source file and its name-resolution tables."""

    name: str
    path: str
    source: str
    tree: ast.Module
    #: local name -> dotted import target ("np" -> "numpy",
    #: "run_grid" -> "repro.experiments.parallel.run_grid")
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level names bound to mutable containers -> lineno
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    #: every module-level assigned name (constants included)
    global_names: Set[str] = field(default_factory=set)


def _collect_imports(module: str, tree: ast.Module, is_package: bool) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    imports[item.asname] = item.name
                else:
                    root = item.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                components = module.split(".")
                if not is_package:
                    components = components[:-1]
                drop = node.level - 1
                if drop:
                    components = components[: len(components) - drop]
                base = ".".join(components)
                target = f"{base}.{node.module}" if node.module else base
            else:
                target = node.module or ""
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                imports[local] = f"{target}.{item.name}" if target else item.name
    return imports


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        parts = dotted_name(node.func)
        return bool(parts) and parts[-1] in MUTABLE_CONSTRUCTORS
    return False


def parse_module(path: Path, source: Optional[str] = None) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises SyntaxError)."""
    text = source if source is not None else path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    name = module_name_for(path)
    info = ModuleInfo(
        name=name,
        path=path.as_posix(),
        source=text,
        tree=tree,
        imports=_collect_imports(name, tree, path.name == "__init__.py"),
    )

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = FunctionInfo(
                module=name, qualname=stmt.name, node=stmt
            )
        elif isinstance(stmt, ast.ClassDef):
            cls = ClassInfo(
                module=name,
                name=stmt.name,
                node=stmt,
                base_names=tuple(
                    ".".join(parts)
                    for base in stmt.bases
                    if (parts := dotted_name(base)) is not None
                ),
            )
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = FunctionInfo(
                        module=name,
                        qualname=f"{stmt.name}.{sub.name}",
                        node=sub,
                        cls=stmt.name,
                    )
                    cls.methods[sub.name] = method
                    info.functions[method.qualname] = method
                elif isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    parts = dotted_name(sub.annotation)
                    if parts is not None:
                        cls.attr_types[sub.target.id] = ".".join(parts)
            info.classes[stmt.name] = cls
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.global_names.add(target.id)
                    if _is_mutable_value(stmt.value):
                        info.mutable_globals[target.id] = stmt.lineno
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.global_names.add(stmt.target.id)
            if stmt.value is not None and _is_mutable_value(stmt.value):
                info.mutable_globals[stmt.target.id] = stmt.lineno
    return info


class Project:
    """Every module under the linted roots, with cross-module resolution."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {m.name: m for m in modules}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for mod in modules:
            for func in mod.functions.values():
                self.functions[func.full_name] = func
            for cls in mod.classes.values():
                self.classes[cls.full_name] = cls
        self._infer_attr_types()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _infer_attr_types(self) -> None:
        """Record ``self.x = Ctor()`` attribute types for every class."""
        for cls in self.classes.values():
            mod = self.modules[cls.module]
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    if not isinstance(node.value, ast.Call):
                        continue
                    ctor = self.resolve_expr(node.value.func, mod)
                    if ctor is None or ctor not in self.classes:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            cls.attr_types.setdefault(target.attr, ctor)
            # Resolve annotated class-body fields to full class names.
            for attr, annotation in list(cls.attr_types.items()):
                if annotation in self.classes:
                    continue
                resolved = self.resolve_dotted(annotation, mod)
                if resolved is not None:
                    cls.attr_types[attr] = resolved

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve_export(self, dotted: str, _seen: Optional[Set[str]] = None) -> str:
        """Follow re-export chains: ``pkg.name`` -> its defining module.

        ``repro.experiments.run_grid`` resolves through the package
        ``__init__``'s ``from .parallel import run_grid`` to
        ``repro.experiments.parallel.run_grid``.  Unknown names are
        returned unchanged.
        """
        seen = _seen if _seen is not None else set()
        if dotted in seen:
            return dotted
        seen.add(dotted)
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # Longest module prefix + remaining attribute chain.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            mod = self.modules.get(prefix)
            if mod is None:
                continue
            rest = parts[cut:]
            head = rest[0]
            if head in mod.imports:
                target = ".".join([mod.imports[head], *rest[1:]])
                return self.resolve_export(target, seen)
            candidate = ".".join([prefix, *rest])
            if candidate in self.functions or candidate in self.classes:
                return candidate
            return dotted
        return dotted

    def resolve_dotted(self, dotted: str, mod: ModuleInfo) -> Optional[str]:
        """Resolve a dotted name as written inside ``mod``."""
        parts = dotted.split(".")
        head = parts[0]
        if head in mod.imports:
            return self.resolve_export(".".join([mod.imports[head], *parts[1:]]))
        if head in mod.functions or head in mod.classes:
            return self.resolve_export(".".join([mod.name, *parts]))
        return None

    def resolve_expr(
        self,
        node: ast.AST,
        mod: ModuleInfo,
        cls: Optional[ClassInfo] = None,
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Resolve a name/attribute expression to a dotted target.

        Handles plain names, imported names, ``self.method`` /
        ``self.attr.method`` through inferred attribute types, and
        ``local.method`` when the local's class is known.  Returns a
        dotted string (project-internal or external) or ``None``.
        """
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call):
            # Method on a fresh instance: ``Ctor().method`` resolves
            # through the constructed class.
            ctor = self.resolve_expr(
                node.value.func, mod, cls=cls, local_types=local_types
            )
            if ctor is not None and ctor in self.classes:
                return self._resolve_on_class(ctor, (node.attr,))
            return None
        parts = dotted_name(node)
        if parts is None:
            return None
        head = parts[0]
        rest = parts[1:]

        if head == "self" and cls is not None:
            if not rest:
                return None
            attr = rest[0]
            if attr in cls.methods:
                return f"{cls.full_name}.{attr}"
            attr_type = cls.attr_types.get(attr)
            if attr_type is not None:
                return self._resolve_on_class(attr_type, rest[1:])
            return None

        if local_types and head in local_types:
            return self._resolve_on_class(local_types[head], rest)

        if head in mod.imports:
            return self.resolve_export(".".join([mod.imports[head], *rest]))
        if head in mod.functions or head in mod.classes:
            return self.resolve_export(".".join([mod.name, head, *rest]))
        if head in mod.global_names:
            return None
        if not rest:
            # Unshadowed bare name: treat as a builtin reference.
            return f"builtins.{head}"
        return None

    def _resolve_on_class(self, class_name: str, attrs: Tuple[str, ...]) -> Optional[str]:
        if not attrs:
            return class_name
        cls = self.classes.get(class_name)
        current = class_name
        for i, attr in enumerate(attrs):
            if cls is None:
                return ".".join([current, *attrs[i:]])
            if attr in cls.methods:
                return ".".join([cls.full_name, attr, *attrs[i + 1 :]])
            attr_type = cls.attr_types.get(attr)
            if attr_type is None:
                return ".".join([cls.full_name, *attrs[i:]])
            current = attr_type
            cls = self.classes.get(attr_type)
        return current

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def function_for(self, full_name: str) -> Optional[FunctionInfo]:
        return self.functions.get(full_name)

    def module_for_function(self, func: FunctionInfo) -> ModuleInfo:
        return self.modules[func.module]

    def class_for_function(self, func: FunctionInfo) -> Optional[ClassInfo]:
        if func.cls is None:
            return None
        return self.modules[func.module].classes.get(func.cls)

    def mutable_global_mutators(self) -> Set[Tuple[str, str]]:
        """(module, name) pairs of mutable globals mutated inside functions.

        Import-time setup (module-level statements) does not count — it
        runs identically in every worker; only in-function mutation makes
        a module global hazardous for fan-out.
        """
        mutated: Set[Tuple[str, str]] = set()
        for mod in self.modules.values():
            for func in mod.functions.values():
                for node in ast.walk(func.node):
                    target: Optional[str] = None
                    if isinstance(node, ast.Global):
                        for name in node.names:
                            mutated.add((mod.name, name))
                        continue
                    if isinstance(node, (ast.Assign, ast.AugAssign)):
                        targets = (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                        for t in targets:
                            if isinstance(t, ast.Subscript) and isinstance(
                                t.value, ast.Name
                            ):
                                target = t.value.id
                    elif isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute
                    ):
                        if node.func.attr in MUTATING_METHODS and isinstance(
                            node.func.value, ast.Name
                        ):
                            target = node.func.value.id
                    if target is not None and target in mod.mutable_globals:
                        if not self._is_local_name(func, target):
                            mutated.add((mod.name, target))
        return mutated

    @staticmethod
    def _is_local_name(func: FunctionInfo, name: str) -> bool:
        if name in func.params:
            return True
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id == name:
                        return True
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.target.id == name:
                    return True
        return False


def iter_project_files(paths: Sequence[str]) -> List[Path]:
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
    return out


def build_project(paths: Sequence[str]) -> Project:
    """Parse every ``.py`` file under ``paths`` into a :class:`Project`."""
    modules: List[ModuleInfo] = []
    for file_path in iter_project_files(paths):
        modules.append(parse_module(file_path))
    return Project(modules)
