"""Interprocedural taint tracking for simlint's deep layer.

The analysis marks values produced by *nondeterminism sources* and
follows them through assignments, returns, call arguments, instance
attributes, and module globals until they reach a *determinism sink*
(defined in :mod:`tools.simlint.dataflow`).  Five source classes map to
five rule codes:

========  ===========================================================
SIM101    wall-clock reads (``time.time``, ``perf_counter``,
          ``datetime.now``, …)
SIM102    unseeded randomness (module-level ``random.*``,
          ``random.Random()`` with no seed, unseeded ``numpy.random``)
SIM103    process environment (``os.environ``, ``os.getenv``)
SIM104    ``hash()`` / ``id()`` (randomized per process / allocation
          dependent)
SIM105    unordered-collection iteration order (``set`` iteration,
          ``list(set)``, ``set.pop()``, ``dict.keys()`` without
          ``sorted``)
========  ===========================================================

Mechanics: each function gets a summary — the taints its return value
always carries, plus which *parameters* flow to the return — computed to
a fixed point over the whole project (context-insensitive: a parameter's
taint is the union over all call sites).  A function defined inside
another gets a summary of its own: its free variables start from what
the enclosing scope's names carry, a call by its local name feeds its
parameters, and what its own writes give a ``nonlocal`` name, or an
enclosing name's object (``box["k"] = …``, ``box.k = …``), joins that
name in the enclosing scope, so a flow reads the same inline or moved
into a nested helper.  A write to a name a function declares ``global``
joins the module global.  A lambda carries the taints of the enclosing
names its body reads.  Instance-attribute and module-global taints are
tracked flow-insensitively.  ``sorted()`` and order-insensitive reductions
(``sum``, ``len``, ``min``, ``max``, …) kill SIM105 taint; everything
else unions its operands.

The engine deliberately over-approximates (a tainted operand taints the
whole expression); a pragma with a reason accepts an intentional flow.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from tools.simlint.callgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    dotted_name,
)

# ----------------------------------------------------------------------
# Taint domain
# ----------------------------------------------------------------------
KIND_WALL_CLOCK = "wall-clock"
KIND_RNG = "unseeded-rng"
KIND_ENVIRON = "environ"
KIND_HASH_ID = "hash-id"
KIND_SET_ORDER = "set-order"
KIND_PARAM = "param"  #: symbolic marker, never reported

#: source kind -> deep rule code
SOURCE_RULES: Dict[str, str] = {
    KIND_WALL_CLOCK: "SIM101",
    KIND_RNG: "SIM102",
    KIND_ENVIRON: "SIM103",
    KIND_HASH_ID: "SIM104",
    KIND_SET_ORDER: "SIM105",
}

#: source kind -> human description used in finding messages
SOURCE_LABELS: Dict[str, str] = {
    KIND_WALL_CLOCK: "wall-clock",
    KIND_RNG: "unseeded-RNG",
    KIND_ENVIRON: "environment-variable",
    KIND_HASH_ID: "hash()/id()",
    KIND_SET_ORDER: "set-iteration-order",
}


@dataclass(frozen=True)
class Taint:
    """One taint mark: what kind of nondeterminism, introduced where."""

    kind: str
    origin: str  #: e.g. ``"time.time()"`` or ``"os.environ['X']"``
    path: str
    line: int
    index: int = -1  #: parameter index when ``kind == KIND_PARAM``


TaintSet = FrozenSet[Taint]
EMPTY: TaintSet = frozenset()


def concrete(taints: TaintSet) -> TaintSet:
    """Drop symbolic parameter markers, keeping reportable taints."""
    return frozenset(t for t in taints if t.kind != KIND_PARAM)


def drop_order(taints: TaintSet) -> TaintSet:
    """What survives an order-insensitive operation (``sorted``, ``sum``)."""
    return frozenset(t for t in taints if t.kind != KIND_SET_ORDER)


# ----------------------------------------------------------------------
# Source tables
# ----------------------------------------------------------------------
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``random`` module functions that are fine (seeded construction).
RANDOM_ALLOWED = frozenset({"random.Random"})

ENV_CALLS = frozenset({"os.getenv", "os.environ.get", "os.environ.setdefault"})
ENV_READS = frozenset({"os.environ"})

HASH_ID_CALLS = frozenset({"builtins.hash", "builtins.id"})

#: builtins whose result does not depend on input ordering
ORDER_KILLERS = frozenset(
    {
        "builtins.sorted",
        "builtins.len",
        "builtins.sum",
        "builtins.min",
        "builtins.max",
        "builtins.any",
        "builtins.all",
        "builtins.frozenset",
        "builtins.set",
    }
)

#: builtins that materialize an iteration order from their argument
ORDER_MATERIALIZERS = frozenset(
    {"builtins.list", "builtins.tuple", "builtins.iter", "builtins.next"}
)


def source_for_call(
    resolved: Optional[str], node: ast.Call, path: str
) -> Optional[Taint]:
    """The taint a call introduces, if its target is a source."""
    if resolved is None:
        return None
    line = getattr(node, "lineno", 1)
    if resolved in WALL_CLOCK_CALLS:
        return Taint(KIND_WALL_CLOCK, f"{resolved}()", path, line)
    if resolved in ENV_CALLS:
        return Taint(KIND_ENVIRON, f"{resolved}()", path, line)
    if resolved in HASH_ID_CALLS:
        name = resolved.rsplit(".", 1)[-1]
        return Taint(KIND_HASH_ID, f"{name}()", path, line)
    if resolved.startswith("random."):
        if resolved == "random.Random":
            if not node.args and not node.keywords:
                return Taint(KIND_RNG, "random.Random() without a seed", path, line)
            return None
        if resolved == "random.SystemRandom":
            return Taint(KIND_RNG, "random.SystemRandom()", path, line)
        if resolved not in RANDOM_ALLOWED:
            return Taint(KIND_RNG, f"{resolved}()", path, line)
    if resolved.startswith("numpy.random."):
        if resolved == "numpy.random.default_rng" and (node.args or node.keywords):
            return None
        return Taint(KIND_RNG, f"{resolved}()", path, line)
    return None


# ----------------------------------------------------------------------
# Function summaries
# ----------------------------------------------------------------------
@dataclass
class FunctionSummary:
    """What one function does with taint, independent of call site."""

    func: FunctionInfo
    #: taints the return value always carries (concrete only)
    return_taints: Set[Taint] = field(default_factory=set)
    #: parameter indices whose taint flows into the return value
    return_params: Set[int] = field(default_factory=set)
    #: concrete taints observed flowing *into* each parameter, unioned
    #: over every call site in the project
    param_taints: Dict[int, Set[Taint]] = field(default_factory=dict)
    #: nested function only: concrete taints of the enclosing scope's
    #: names, which its free variables read
    closure_taints: Dict[str, Set[Taint]] = field(default_factory=dict)
    #: local name -> full name of each function defined in this body
    nested: Dict[str, str] = field(default_factory=dict)
    #: full name of the enclosing function (nested functions only)
    outer: Optional[str] = None
    #: concrete taints nested functions write to this scope's names
    #: through ``nonlocal``, or into the objects those names hold
    nonlocal_taints: Dict[str, Set[Taint]] = field(default_factory=dict)
    #: names this body declares ``global``; its writes reach the module
    global_decls: FrozenSet[str] = frozenset()
    #: nested function only: enclosing-scope names its writes reach, the
    #: ones it declares ``nonlocal`` and the ones whose objects it
    #: mutates by subscript or attribute
    writes_back: FrozenSet[str] = frozenset()

    def seed_param(self, index: int, taints: TaintSet) -> bool:
        bucket = self.param_taints.setdefault(index, set())
        before = len(bucket)
        bucket.update(concrete(taints))
        return len(bucket) != before


#: Callback invoked on every call expression during the reporting pass:
#: (call node, resolved target, enclosing function, per-argument taints).
CallObserver = Callable[
    [ast.Call, Optional[str], FunctionInfo, "CallArgs"], None
]


@dataclass
class CallArgs:
    """Taint of each argument of one call, positionally and by keyword."""

    positional: List[TaintSet]
    keywords: Dict[str, TaintSet]
    receiver: TaintSet = EMPTY

    def all_taints(self) -> TaintSet:
        out: Set[Taint] = set()
        for t in self.positional:
            out |= t
        for t in self.keywords.values():
            out |= t
        return frozenset(out)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class TaintEngine:
    """Project-wide fixed-point taint propagation."""

    #: fixpoint safety valve; realistic projects converge in < 6 rounds
    MAX_ROUNDS = 12

    def __init__(self, project: Project) -> None:
        self.project = project
        self.summaries: Dict[str, FunctionSummary] = {
            name: FunctionSummary(
                func=info, global_decls=_declared_names(info.node, ast.Global)
            )
            for name, info in project.functions.items()
        }
        for summary in list(self.summaries.values()):
            self._register_nested(summary)
        #: (class full name, attribute) -> taints
        self.field_taints: Dict[Tuple[str, str], Set[Taint]] = {}
        #: (module name, global name) -> taints
        self.global_taints: Dict[Tuple[str, str], Set[Taint]] = {}
        self._changed = False

    # -- fixpoint ------------------------------------------------------
    def run(self) -> None:
        for _ in range(self.MAX_ROUNDS):
            self._changed = False
            for mod in self.project.modules.values():
                self._analyze_module_body(mod)
            for summary in self.summaries.values():
                self._analyze_function(summary, observer=None)
            if not self._changed:
                break

    def report(self, observer: CallObserver) -> None:
        """One extra pass over every function, streaming calls + taints."""
        for summary in self.summaries.values():
            self._analyze_function(summary, observer=observer)

    def _register_nested(self, outer: FunctionSummary) -> None:
        """Give every function defined in ``outer``'s body a summary."""
        for node in _nested_defs(outer.func.node):
            inner = FunctionInfo(
                module=outer.func.module,
                qualname=f"{outer.func.qualname}.<locals>.{node.name}",
                node=node,
                cls=outer.func.cls,  # ``self`` in a method's closure
            )
            summary = FunctionSummary(
                func=inner,
                outer=outer.func.full_name,
                global_decls=_declared_names(node, ast.Global),
                writes_back=frozenset(
                    _declared_names(node, ast.Nonlocal)
                    | _mutated_free_names(node, outer.func.node)
                ),
            )
            self.summaries[inner.full_name] = summary
            outer.nested[node.name] = inner.full_name
            self._register_nested(summary)

    # -- per-scope analysis --------------------------------------------
    def _analyze_module_body(self, mod: ModuleInfo) -> None:
        walker = _ScopeWalker(self, mod, func=None, cls=None, observer=None)
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            walker.visit_stmt(stmt)
        for name, taints in walker.locals_taint.items():
            if name in mod.global_names or name in mod.mutable_globals:
                self._merge_global(mod.name, name, taints)

    def _analyze_function(
        self, summary: FunctionSummary, observer: Optional[CallObserver]
    ) -> None:
        walker = self._walk(summary, observer)
        # What this scope's names carry is what nested functions read.
        for inner in summary.nested.values():
            self._merge_closure(inner, walker.locals_taint)
        # What this function's own writes give the enclosing names it
        # writes back (``nonlocal`` ones, and ones whose objects it
        # mutates), the enclosing scope's names carry.  Not the enclosing
        # value those names start from: a second walk starts them empty,
        # so a helper that only reads such a name sends nothing back.
        if summary.outer is not None and summary.writes_back:
            declared = summary.writes_back
            own = self._walk(summary, None, unseeded=declared).locals_taint
            for name in declared:
                self._merge_nonlocal(summary.outer, name, own.get(name, EMPTY))
        # Fold return information into the summary.
        ret_concrete = concrete(walker.return_taints)
        ret_params = {
            t.index for t in walker.return_taints if t.kind == KIND_PARAM
        }
        if not ret_concrete <= summary.return_taints:
            summary.return_taints |= ret_concrete
            self._changed = True
        if not ret_params <= summary.return_params:
            summary.return_params |= ret_params
            self._changed = True

    def _walk(
        self,
        summary: FunctionSummary,
        observer: Optional[CallObserver],
        unseeded: AbstractSet[str] = frozenset(),
    ) -> "_ScopeWalker":
        """Walk one function body from its summary's seeds.

        Names in ``unseeded`` start empty instead of reading the
        enclosing scope.
        """
        func = summary.func
        mod = self.project.module_for_function(func)
        cls = self.project.class_for_function(func)
        walker = _ScopeWalker(self, mod, func=func, cls=cls, observer=observer)
        walker.nested_defs = summary.nested
        walker.global_decls = summary.global_decls
        # Free variables read the enclosing scope (parameters override).
        for name, taints in summary.closure_taints.items():
            walker.locals_taint[name] = frozenset(taints)
        for name in unseeded:
            walker.locals_taint[name] = EMPTY
        # Seed parameters: symbolic marker + everything call sites sent.
        for index, name in enumerate(func.params):
            seeded: Set[Taint] = {
                Taint(KIND_PARAM, name, mod.path, func.lineno, index=index)
            }
            seeded |= summary.param_taints.get(index, set())
            walker.locals_taint[name] = frozenset(seeded)
        # A name a nested function may rebind through ``nonlocal`` carries
        # those writes wherever it is read, whatever this scope assigns.
        for name, taints in summary.nonlocal_taints.items():
            walker.joined[name] = frozenset(taints)
            walker.locals_taint[name] = (
                walker.locals_taint.get(name, EMPTY) | walker.joined[name]
            )
        # Annotated parameters give the resolver receiver types.
        args_node = func.node.args  # type: ignore[attr-defined]
        for arg in [*getattr(args_node, "posonlyargs", []), *args_node.args,
                    *args_node.kwonlyargs]:
            if arg.annotation is not None:
                parts = dotted_name(arg.annotation)
                if parts is not None:
                    resolved = self.project.resolve_dotted(".".join(parts), mod)
                    if resolved is not None and resolved in self.project.classes:
                        walker.local_types[arg.arg] = resolved
        # Two passes so taints assigned late in a loop body reach uses
        # earlier in the same body.
        for _ in range(2):
            for stmt in func.node.body:  # type: ignore[attr-defined]
                walker.visit_stmt(stmt)
        return walker

    # -- shared state merges -------------------------------------------
    def _merge_field(self, cls_full: str, attr: str, taints: TaintSet) -> None:
        bucket = self.field_taints.setdefault((cls_full, attr), set())
        before = len(bucket)
        bucket.update(concrete(taints))
        if len(bucket) != before:
            self._changed = True

    def _merge_global(self, module: str, name: str, taints: TaintSet) -> None:
        bucket = self.global_taints.setdefault((module, name), set())
        before = len(bucket)
        bucket.update(concrete(taints))
        if len(bucket) != before:
            self._changed = True

    def _merge_closure(self, inner: str, scope: Dict[str, TaintSet]) -> None:
        closure = self.summaries[inner].closure_taints
        for name, taints in scope.items():
            found = concrete(taints)
            if not found:
                continue
            bucket = closure.setdefault(name, set())
            before = len(bucket)
            bucket.update(found)
            if len(bucket) != before:
                self._changed = True

    def _merge_nonlocal(self, outer: str, name: str, taints: TaintSet) -> None:
        found = concrete(taints)
        if not found:
            return
        bucket = self.summaries[outer].nonlocal_taints.setdefault(name, set())
        before = len(bucket)
        bucket.update(found)
        if len(bucket) != before:
            self._changed = True

    def _merge_param(self, callee: str, index: int, taints: TaintSet) -> None:
        summary = self.summaries.get(callee)
        if summary is None:
            return
        if summary.seed_param(index, taints):
            self._changed = True


class _ScopeWalker:
    """Intraprocedural statement/expression walk for one scope."""

    def __init__(
        self,
        engine: TaintEngine,
        mod: ModuleInfo,
        func: Optional[FunctionInfo],
        cls: Optional[ClassInfo],
        observer: Optional[CallObserver],
    ) -> None:
        self.engine = engine
        self.project = engine.project
        self.mod = mod
        self.func = func
        self.cls = cls
        self.observer = observer
        self.locals_taint: Dict[str, TaintSet] = {}
        self.local_types: Dict[str, str] = {}
        #: local name -> full name of each function defined in this scope
        self.nested_defs: Dict[str, str] = {}
        #: name -> taints every assignment to it keeps (nonlocal writes)
        self.joined: Dict[str, TaintSet] = {}
        #: names this scope declares ``global``
        self.global_decls: AbstractSet[str] = frozenset()
        self.set_locals: Set[str] = set()
        self.return_taints: Set[Taint] = set()

    # -- statements ----------------------------------------------------
    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analyzed as their own functions
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_taints |= self.eval(stmt.value)
            return
        if isinstance(stmt, ast.Assign):
            taints = self.eval(stmt.value)
            for target in stmt.targets:
                self.assign(target, taints, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval(stmt.value), stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            taints = self.eval(stmt.value) | self.eval(stmt.target)
            self.assign(stmt.target, taints, stmt.value)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            taints = self.eval(stmt.iter)
            if self.is_set_like(stmt.iter):
                taints |= {
                    Taint(
                        KIND_SET_ORDER,
                        "iteration over an unordered collection",
                        self.mod.path,
                        stmt.iter.lineno,
                    )
                }
            self.assign(stmt.target, taints, stmt.iter)
            for sub in stmt.body + stmt.orelse:
                self.visit_stmt(sub)
            return
        if isinstance(stmt, (ast.While, ast.If)):
            self.eval(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self.visit_stmt(sub)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, taints, item.context_expr)
            for sub in stmt.body:
                self.visit_stmt(sub)
            return
        if isinstance(stmt, ast.Try):
            for sub in stmt.body + stmt.orelse + stmt.finalbody:
                self.visit_stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self.visit_stmt(sub)
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self.eval(value)
            return
        # Import / Pass / Break / Continue / Global / Delete: no flow; a
        # write back to an enclosing name joins the enclosing scope (see
        # _analyze_function).

    def assign(self, target: ast.expr, taints: TaintSet, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.locals_taint[target.id] = taints | self.joined.get(target.id, EMPTY)
            if self.is_set_like(value):
                self.set_locals.add(target.id)
            else:
                self.set_locals.discard(target.id)
            ctor = self._constructed_type(value)
            if ctor is not None:
                self.local_types[target.id] = ctor
            elif target.id in self.local_types:
                del self.local_types[target.id]
            # Writes to module globals: from the module body walker, or
            # from a function that declares the name ``global``.
            if target.id in self.global_decls or (
                self.func is None
                and (
                    target.id in self.mod.global_names
                    or target.id in self.mod.mutable_globals
                )
            ):
                self.engine._merge_global(self.mod.name, target.id, taints)
        elif isinstance(target, ast.Attribute):
            receiver = target.value
            if isinstance(receiver, ast.Name) and receiver.id == "self" and self.cls:
                self.engine._merge_field(self.cls.full_name, target.attr, taints)
            elif isinstance(receiver, ast.Name) and receiver.id in self.local_types:
                self.engine._merge_field(
                    self.local_types[receiver.id], target.attr, taints
                )
            elif isinstance(receiver, ast.Name):
                existing = self.locals_taint.get(receiver.id, EMPTY)
                self.locals_taint[receiver.id] = existing | taints
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Name):
                existing = self.locals_taint.get(target.value.id, EMPTY)
                self.locals_taint[target.value.id] = existing | taints
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.assign(element, taints, value)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, taints, value)

    def _constructed_type(self, value: ast.expr) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        resolved = self.resolve(value.func)
        if resolved is not None and resolved in self.project.classes:
            return resolved
        return None

    # -- expressions ---------------------------------------------------
    def resolve(self, node: ast.AST) -> Optional[str]:
        return self.project.resolve_expr(
            node, self.mod, cls=self.cls, local_types=self.local_types
        )

    def is_set_like(self, node: ast.AST) -> bool:
        """Shallow SIM003-style set-ness (literals, calls, tracked names)."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_locals
        if isinstance(node, ast.IfExp):
            return self.is_set_like(node.body) or self.is_set_like(node.orelse)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self.is_set_like(node.left) or self.is_set_like(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute):
                if func.attr == "keys":
                    return True
                if func.attr in (
                    "union",
                    "intersection",
                    "difference",
                    "symmetric_difference",
                    "copy",
                ):
                    return self.is_set_like(func.value)
        return False

    def eval(self, node: ast.expr) -> TaintSet:
        if isinstance(node, ast.Name):
            if node.id in self.locals_taint:
                return self.locals_taint[node.id]
            # A module global, assigned at module level or through a
            # ``global`` declaration.
            bucket = self.engine.global_taints.get((self.mod.name, node.id))
            return frozenset(bucket) if bucket else EMPTY
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Attribute):
            resolved = self.resolve(node)
            if resolved in ENV_READS:
                return frozenset(
                    {
                        Taint(
                            KIND_ENVIRON,
                            resolved or "os.environ",
                            self.mod.path,
                            node.lineno,
                        )
                    }
                )
            taints = self.eval(node.value)
            # self.attr / typed-local.attr reads pull field taints.
            receiver_cls: Optional[str] = None
            if isinstance(node.value, ast.Name):
                if node.value.id == "self" and self.cls is not None:
                    receiver_cls = self.cls.full_name
                elif node.value.id in self.local_types:
                    receiver_cls = self.local_types[node.value.id]
            if receiver_cls is not None:
                bucket = self.engine.field_taints.get((receiver_cls, node.attr))
                if bucket:
                    taints |= frozenset(bucket)
            return taints
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.BinOp):
            return self.eval(node.left) | self.eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out: Set[Taint] = set()
            for value in node.values:
                out |= self.eval(value)
            return frozenset(out)
        if isinstance(node, ast.Compare):
            out = set(self.eval(node.left))
            for comp in node.comparators:
                out |= self.eval(comp)
            return frozenset(out)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.Subscript):
            return self.eval(node.value) | self.eval(node.slice)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for element in node.elts:
                if isinstance(element, ast.Starred):
                    out |= self.eval(element.value)
                else:
                    out |= self.eval(element)
            return frozenset(out)
        if isinstance(node, ast.Dict):
            out = set()
            for key in node.keys:
                if key is not None:
                    out |= self.eval(key)
            for value in node.values:
                out |= self.eval(value)
            return frozenset(out)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comp(node.generators, [node.elt], node)
        if isinstance(node, ast.DictComp):
            return self._eval_comp(node.generators, [node.key, node.value], node)
        if isinstance(node, ast.JoinedStr):
            out = set()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self.eval(value.value)
            return frozenset(out)
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.Lambda):
            return self._eval_lambda(node)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value)  # type: ignore[arg-type]
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.return_taints |= self.eval(node.value)
            return EMPTY
        if isinstance(node, ast.NamedExpr):
            taints = self.eval(node.value)
            self.assign(node.target, taints, node.value)
            return taints
        if isinstance(node, ast.Slice):
            out = set()
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    out |= self.eval(part)
            return frozenset(out)
        return EMPTY

    def _eval_lambda(self, node: ast.Lambda) -> TaintSet:
        """A lambda carries what the enclosing names its body reads carry."""
        inside = list(ast.walk(node))
        bound = {sub.arg for sub in inside if isinstance(sub, ast.arg)}
        bound |= {
            sub.id
            for sub in inside
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load)
        }
        out: Set[Taint] = set()
        for sub in inside:
            if isinstance(sub, ast.Name) and sub.id not in bound:
                out |= self.eval(sub)
        return frozenset(out)

    def _eval_comp(
        self,
        generators: List[ast.comprehension],
        elements: List[ast.expr],
        node: ast.expr,
    ) -> TaintSet:
        out: Set[Taint] = set()
        for gen in generators:
            taints = self.eval(gen.iter)
            if self.is_set_like(gen.iter):
                taints |= {
                    Taint(
                        KIND_SET_ORDER,
                        "iteration over an unordered collection",
                        self.mod.path,
                        gen.iter.lineno,
                    )
                }
            self.assign(gen.target, taints, gen.iter)
            out |= taints
            for cond in gen.ifs:
                self.eval(cond)
        for element in elements:
            out |= self.eval(element)
        if isinstance(node, ast.SetComp):
            out = set(drop_order(frozenset(out)))
        return frozenset(out)

    # -- calls ---------------------------------------------------------
    def eval_call(self, node: ast.Call) -> TaintSet:
        resolved: Optional[str] = None
        if isinstance(node.func, ast.Name):
            resolved = self.nested_defs.get(node.func.id)
        if resolved is None:
            resolved = self.resolve(node.func)

        positional = [
            self.eval(a.value if isinstance(a, ast.Starred) else a)
            for a in node.args
        ]
        keywords = {
            kw.arg: self.eval(kw.value) for kw in node.keywords if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs splat
                keywords.setdefault("**", self.eval(kw.value))
        receiver = (
            self.eval(node.func.value)
            if isinstance(node.func, ast.Attribute)
            else EMPTY
        )
        call_args = CallArgs(
            positional=positional, keywords=keywords, receiver=receiver
        )

        if self.observer is not None and self.func is not None:
            self.observer(node, resolved, self.func, call_args)

        # 1. Nondeterminism sources.
        source = source_for_call(resolved, node, self.mod.path)
        if source is not None:
            return frozenset({source}) | call_args.all_taints()

        # 2. Order-sensitive / order-insensitive builtins.
        if resolved in ORDER_KILLERS:
            return drop_order(call_args.all_taints())
        if resolved in ORDER_MATERIALIZERS:
            taints = call_args.all_taints()
            if node.args and self.is_set_like(node.args[0]):
                taints |= {
                    Taint(
                        KIND_SET_ORDER,
                        f"{(resolved or 'list').rsplit('.', 1)[-1]}() over an "
                        "unordered collection",
                        self.mod.path,
                        node.lineno,
                    )
                }
            return taints

        # 3. set.pop() materializes an arbitrary element.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "pop":
            if self.is_set_like(node.func.value):
                return receiver | frozenset(
                    {
                        Taint(
                            KIND_SET_ORDER,
                            "set.pop()",
                            self.mod.path,
                            node.lineno,
                        )
                    }
                )

        # 4. Project-internal callee, nested ones included: use (and
        #    feed) its summary.
        summary = self.engine.summaries.get(resolved) if resolved else None
        if summary is not None:
            callee = summary.func
            self._propagate_args(callee, node, call_args)
            out: Set[Taint] = set(summary.return_taints)
            for index in summary.return_params:
                site = self._arg_for_param(callee, node, call_args, index)
                if site is not None:
                    out |= site
            return frozenset(out)

        # 5. Constructor of a project class: taints flow into its fields
        #    via the __init__ summary; the instance itself carries arg
        #    taints so attribute reads on untracked receivers still see
        #    them.
        if resolved is not None and resolved in self.project.classes:
            init = self.project.function_for(f"{resolved}.__init__")
            if init is not None:
                self._propagate_args(init, node, call_args, skip_self=True)
            return call_args.all_taints()

        # 6. Unknown callee: conservative union of receiver + arguments.
        return receiver | call_args.all_taints()

    def _propagate_args(
        self,
        callee: FunctionInfo,
        node: ast.Call,
        call_args: CallArgs,
        skip_self: bool = False,
    ) -> None:
        """Feed concrete argument taints into the callee's parameters."""
        offset = 0
        params = callee.params
        if params and params[0] in ("self", "cls"):
            if skip_self or isinstance(node.func, ast.Attribute):
                offset = 1
        for pos, taints in enumerate(call_args.positional):
            if taints:
                self.engine._merge_param(callee.full_name, pos + offset, taints)
        for name, taints in call_args.keywords.items():
            if not taints or name == "**":
                continue
            index = callee.param_index(name)
            if index is not None:
                self.engine._merge_param(callee.full_name, index, taints)

    @staticmethod
    def _arg_for_param(
        callee: FunctionInfo,
        node: ast.Call,
        call_args: CallArgs,
        index: int,
    ) -> Optional[TaintSet]:
        params = callee.params
        offset = 1 if params and params[0] in ("self", "cls") and isinstance(
            node.func, ast.Attribute
        ) else 0
        pos = index - offset
        if 0 <= pos < len(call_args.positional):
            return call_args.positional[pos]
        if 0 <= index < len(params):
            return call_args.keywords.get(params[index])
        return None


def _nested_defs(
    node: ast.AST,
) -> List[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    """The functions defined directly in ``node``'s scope (not deeper)."""
    found: List[Union[ast.FunctionDef, ast.AsyncFunctionDef]] = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(child)
        elif not isinstance(child, (ast.ClassDef, ast.Lambda)):
            found.extend(_nested_defs(child))
    return found


def _declared_names(node: ast.AST, kind: type) -> Set[str]:
    """The names ``node``'s own body declares ``nonlocal`` or ``global``."""
    found: Set[str] = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, kind):
            found.update(child.names)  # type: ignore[attr-defined]
        elif not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            found |= _declared_names(child, kind)
    return found


def _bound_names(node: ast.AST) -> Set[str]:
    """The names a function binds in its own scope.

    Parameters, assignment and loop targets, imports, and the functions
    and classes it defines; ``nonlocal``/``global`` names are not
    subtracted.
    """
    args = node.args  # type: ignore[attr-defined]
    bound = {
        arg.arg
        for arg in [
            *getattr(args, "posonlyargs", []),
            *args.args,
            *args.kwonlyargs,
            *filter(None, [args.vararg, args.kwarg]),
        ]
    }

    def visit(child: ast.AST) -> None:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(child.name)
            return
        if isinstance(child, ast.Lambda):
            return
        if isinstance(child, ast.Name) and isinstance(child.ctx, (ast.Store, ast.Del)):
            bound.add(child.id)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            for alias in child.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(child, ast.ExceptHandler) and child.name:
            bound.add(child.name)
        for grandchild in ast.iter_child_nodes(child):
            visit(grandchild)

    for stmt in node.body:  # type: ignore[attr-defined]
        visit(stmt)
    return bound


def _mutated_free_names(node: ast.AST, outer: ast.AST) -> Set[str]:
    """Enclosing-scope names whose objects ``node`` writes into.

    A subscript or attribute store (``box["k"] = …``, ``box.k = …``) on a
    name ``node`` does not bind itself but ``outer`` does.
    """
    mutated: Set[str] = set()

    def visit(child: ast.AST) -> None:
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            return
        if (
            isinstance(child, (ast.Subscript, ast.Attribute))
            and isinstance(child.ctx, ast.Store)
            and isinstance(child.value, ast.Name)
        ):
            mutated.add(child.value.id)
        for grandchild in ast.iter_child_nodes(child):
            visit(grandchild)

    for stmt in node.body:  # type: ignore[attr-defined]
        visit(stmt)
    return (mutated - _bound_names(node)) & _bound_names(outer)


def describe_taint(taint: Taint) -> str:
    """``"wall-clock value from 'time.time()' at src/x.py:12"``."""
    label = SOURCE_LABELS.get(taint.kind, taint.kind)
    return f"{label} value from {taint.origin!r} at {taint.path}:{taint.line}"


def rebase_taint(taint: Taint, path: str) -> Taint:
    """A copy of ``taint`` re-anchored to ``path`` (fixture helpers)."""
    return replace(taint, path=path)
