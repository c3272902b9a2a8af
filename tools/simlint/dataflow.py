"""Determinism sinks, the SIM101-SIM106 deep rules, and orchestration.

This module is the front door of simlint's deep layer: it builds the
project model (:mod:`tools.simlint.callgraph`), runs the interprocedural
taint engine (:mod:`tools.simlint.taint`), matches tainted values against
the *determinism sinks* below, and runs the worker-purity rule (SIM106)
over every ``run_grid`` fan-out site.

Sinks — the places a nondeterministic value must never reach:

* **event timestamps** — ``EventQueue.push`` time arguments; a tainted
  timestamp silently reorders the whole simulation;
* **unit seeds** — ``WorkUnit`` construction; a tainted seed breaks
  parallel-vs-serial bit-identity;
* **cache keys** — ``WorkUnit.fingerprint`` / ``ResultCache`` /
  ``canonical_config``; a tainted key makes cache hits irreproducible;
* **worker payloads** — ``run_grid`` units, ``Executor.submit``
  arguments, ``ResultCache.store`` payloads; taint here diverges
  workers from the serial oracle.

Findings are reported at the *sink* call site (where the pragma goes);
the message names the source expression and its location, so a
``time.time()`` two modules away is still attributable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.simlint.callgraph import (
    ClassInfo,
    FunctionInfo,
    Project,
    build_project,
    dotted_name,
)
from tools.simlint.findings import Finding, PragmaIndex
from tools.simlint.taint import (
    SOURCE_RULES,
    CallArgs,
    Taint,
    TaintEngine,
    concrete,
    describe_taint,
)

WORKER_PURITY_CODE = "SIM106"


@dataclass(frozen=True)
class DeepRule:
    """Descriptor for one deep (whole-program) rule."""

    code: str
    name: str
    description: str


DEEP_RULES: Tuple[DeepRule, ...] = (
    DeepRule(
        "SIM101",
        "taint-wall-clock",
        "a wall-clock value (time.time, perf_counter, datetime.now, ...) "
        "flows into a determinism sink (event timestamp, unit seed, cache "
        "key, or worker payload), possibly across module boundaries",
    ),
    DeepRule(
        "SIM102",
        "taint-unseeded-rng",
        "an unseeded-RNG value (module-level random.*, random.Random() "
        "without a seed, unseeded numpy.random) flows into a determinism "
        "sink",
    ),
    DeepRule(
        "SIM103",
        "taint-environ",
        "an environment-variable value (os.environ, os.getenv) flows into "
        "a determinism sink; runs become host-configuration dependent",
    ),
    DeepRule(
        "SIM104",
        "taint-hash-id",
        "a hash()/id() value flows into a determinism sink; hash() is "
        "randomized per process and id() is allocation dependent",
    ),
    DeepRule(
        "SIM105",
        "taint-set-order",
        "a value that depends on unordered-collection iteration order "
        "(set iteration, list(set), set.pop()) flows into a determinism "
        "sink",
    ),
    DeepRule(
        WORKER_PURITY_CODE,
        "worker-purity",
        "a callable fanned out by run_grid is not a module-level, "
        "closure-free, picklable function, or transitively reads a "
        "mutable module global mutated at runtime",
    ),
)

DEEP_RULES_BY_CODE: Dict[str, DeepRule] = {rule.code: rule for rule in DEEP_RULES}


# ----------------------------------------------------------------------
# Sink specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SinkSpec:
    """One determinism sink: how to match the call, which args matter."""

    kind: str  #: short label used in finding messages
    #: resolved-target suffixes, matched against dotted call targets
    suffixes: Tuple[str, ...] = ()
    #: fallback: attribute-call method name (used when unresolvable)
    method: Optional[str] = None
    #: receiver identifiers accepted for the method fallback
    receiver_hints: Tuple[str, ...] = ()
    #: positional argument indices to inspect (after any self offset)
    positions: Tuple[int, ...] = ()
    keywords: Tuple[str, ...] = ()
    all_args: bool = False


SINKS: Tuple[SinkSpec, ...] = (
    SinkSpec(
        kind="event timestamp 'EventQueue.push'",
        suffixes=("EventQueue.push",),
        method="push",
        receiver_hints=(
            "queue",
            "_queue",
            "events",
            "_events",
            "event_queue",
            "eventqueue",
        ),
        positions=(0,),
        keywords=("time",),
    ),
    SinkSpec(
        kind="work-unit construction 'WorkUnit'",
        suffixes=("WorkUnit",),
        positions=(0, 1, 2),
        keywords=("config", "seed", "schedulers"),
    ),
    SinkSpec(
        kind="cache fingerprint 'fingerprint'",
        suffixes=("WorkUnit.fingerprint",),
        method="fingerprint",
        receiver_hints=("unit", "work_unit", "self"),
        all_args=True,
    ),
    SinkSpec(
        kind="cache construction 'ResultCache'",
        suffixes=("ResultCache",),
        all_args=True,
    ),
    SinkSpec(
        kind="cache key 'canonical_config'",
        suffixes=("canonical_config",),
        all_args=True,
    ),
    SinkSpec(
        kind="worker fan-out 'run_grid'",
        suffixes=("run_grid",),
        positions=(0,),
        keywords=("units",),
    ),
    SinkSpec(
        kind="worker submission 'Executor.submit'",
        method="submit",
        receiver_hints=("executor", "pool", "_executor", "_pool"),
        all_args=True,
    ),
    SinkSpec(
        kind="worker-payload store 'ResultCache.store'",
        suffixes=("ResultCache.store",),
        method="store",
        receiver_hints=("cache", "_cache", "result_cache"),
        all_args=True,
    ),
)


def _receiver_identifier(node: ast.Call) -> Optional[str]:
    if not isinstance(node.func, ast.Attribute):
        return None
    parts = dotted_name(node.func.value)
    if parts is None:
        return None
    return parts[-1]


def match_sink(node: ast.Call, resolved: Optional[str]) -> Optional[SinkSpec]:
    """The sink spec this call matches, if any."""
    for spec in SINKS:
        if resolved is not None and any(
            resolved == suffix or resolved.endswith("." + suffix)
            for suffix in spec.suffixes
        ):
            return spec
        if spec.method is not None and isinstance(node.func, ast.Attribute):
            if node.func.attr != spec.method:
                continue
            receiver = _receiver_identifier(node)
            if receiver is not None and receiver.lower() in spec.receiver_hints:
                return spec
    return None


def tainted_sink_args(
    spec: SinkSpec, call_args: CallArgs
) -> List[Tuple[str, Taint]]:
    """(position label, taint) pairs for the spec's inspected arguments."""
    hits: List[Tuple[str, Taint]] = []
    inspected: List[Tuple[str, frozenset]] = []
    if spec.all_args:
        for pos, taints in enumerate(call_args.positional):
            inspected.append((f"argument {pos + 1}", taints))
        for name, taints in call_args.keywords.items():
            inspected.append((f"argument {name!r}", taints))
    else:
        for pos in spec.positions:
            if pos < len(call_args.positional):
                inspected.append((f"argument {pos + 1}", call_args.positional[pos]))
        for name in spec.keywords:
            if name in call_args.keywords:
                inspected.append((f"argument {name!r}", call_args.keywords[name]))
    for label, taints in inspected:
        for taint in sorted(
            concrete(taints), key=lambda t: (t.kind, t.path, t.line, t.origin)
        ):
            hits.append((label, taint))
    return hits


# ----------------------------------------------------------------------
# Deep analysis driver
# ----------------------------------------------------------------------
@dataclass
class DeepReport:
    """Findings + suppression count of one deep analysis."""

    findings: List[Finding]
    suppressed: int
    files_checked: int


def analyze_project(project: Project) -> DeepReport:
    """Run taint + worker-purity analysis, applying per-line pragmas."""
    engine = TaintEngine(project)
    engine.run()

    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str, str, int, str]] = set()

    def observer(
        node: ast.Call,
        resolved: Optional[str],
        func: FunctionInfo,
        call_args: CallArgs,
    ) -> None:
        spec = match_sink(node, resolved)
        if spec is None:
            return
        mod = project.module_for_function(func)
        for label, taint in tainted_sink_args(spec, call_args):
            code = SOURCE_RULES.get(taint.kind)
            if code is None:
                continue
            key = (mod.path, node.lineno, code, taint.path, taint.line, spec.kind)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                Finding(
                    path=mod.path,
                    line=node.lineno,
                    col=node.col_offset,
                    code=code,
                    message=(
                        f"{describe_taint(taint)} reaches {spec.kind} "
                        f"({label}) in '{func.qualname}'"
                    ),
                )
            )

    engine.report(observer)
    findings.extend(check_worker_purity(project))

    # Pragma filtering at the finding (sink) line.
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
    return DeepReport(
        findings=kept, suppressed=suppressed, files_checked=len(project.modules)
    )


# ----------------------------------------------------------------------
# SIM106 — worker purity
# ----------------------------------------------------------------------
def check_worker_purity(project: Project) -> List[Finding]:
    """Verify every callable fanned out by ``run_grid`` is pool-safe."""
    findings: List[Finding] = []
    mutated_globals = project.mutable_global_mutators()

    for func in project.functions.values():
        mod = project.module_for_function(func)
        cls = project.class_for_function(func)
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = project.resolve_expr(node.func, mod, cls=cls)
            if resolved is None or not (
                resolved == "run_grid" or resolved.endswith(".run_grid")
            ):
                continue
            worker = _run_unit_argument(node)
            if worker is None:
                # No explicit run_unit: the fan-out uses run_grid's own
                # default worker.  Audit the sibling ``execute_unit`` in
                # the module that defines the resolved run_grid, so call
                # sites like experiments/chaos.py::run_chaos get the same
                # purity coverage as explicit-worker calls.
                findings.extend(
                    _check_default_worker(project, mod.path, node, resolved, mutated_globals)
                )
                continue
            findings.extend(
                _check_worker_callable(
                    project, mod.path, node, worker, mutated_globals, cls=cls
                )
            )
    return findings


def _check_default_worker(
    project: Project,
    path: str,
    call: ast.Call,
    resolved: str,
    mutated_globals: Set[Tuple[str, str]],
) -> List[Finding]:
    """Purity-audit the default worker of a ``run_unit``-less fan-out.

    ``run_grid``'s default worker is its module-level sibling
    ``execute_unit``; resolve it through the resolved ``run_grid`` target
    and run the transitive purity audit anchored at the call site.  When
    the sibling is not in the analyzed tree (partial lints, fixture
    projects without one) there is nothing to audit — stay silent rather
    than inventing an unresolvable-worker finding.
    """
    grid_fn = project.function_for(resolved)
    if grid_fn is None:
        return []
    grid_mod = project.module_for_function(grid_fn)
    default = project.function_for(f"{grid_mod.name}.execute_unit")
    if default is None or default.cls is not None:
        return []
    return purity_violations(
        project, default, mutated_globals, anchor=call, path=path
    )


def _run_unit_argument(node: ast.Call) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == "run_unit":
            return kw.value
    # run_grid(units, parallel, cache_dir, cache, retries, run_unit, ...)
    if len(node.args) >= 6:
        return node.args[5]
    # A lambda anywhere in the call is never pool-safe; catch it even in
    # the wrong position rather than silently letting it through.
    for arg in node.args:
        if isinstance(arg, ast.Lambda):
            return arg
    return None


def _check_worker_callable(
    project: Project,
    path: str,
    call: ast.Call,
    worker: ast.expr,
    mutated_globals: Set[Tuple[str, str]],
    cls: Optional["ClassInfo"] = None,
) -> List[Finding]:
    def finding(message: str, node: Optional[ast.AST] = None) -> Finding:
        anchor = node if node is not None else call
        return Finding(
            path=path,
            line=getattr(anchor, "lineno", call.lineno),
            col=getattr(anchor, "col_offset", call.col_offset),
            code=WORKER_PURITY_CODE,
            message=message,
        )

    if isinstance(worker, ast.Lambda):
        return [
            finding(
                "lambda passed to run_grid; lambdas are not picklable and "
                "cannot cross the process-pool boundary — define a "
                "module-level function instead",
                worker,
            )
        ]
    parts = dotted_name(worker)
    if parts is None:
        return [
            finding(
                "run_unit callable is a dynamic expression; run_grid "
                "workers must be module-level, picklable functions"
            )
        ]
    mod = next((m for m in project.modules.values() if m.path == path), None)
    resolved = (
        project.resolve_expr(worker, mod, cls=cls) if mod is not None else None
    )
    target = project.function_for(resolved) if resolved else None
    if target is None:
        return [
            finding(
                f"run_unit callable '{'.'.join(parts)}' does not resolve to "
                "a module-level function in the analyzed tree; workers "
                "must be module-level, picklable functions"
            )
        ]
    if target.cls is not None:
        return [
            finding(
                f"run_unit callable '{target.qualname}' is a method; bound "
                "methods drag their instance across the pool boundary — "
                "use a module-level function"
            )
        ]
    return purity_violations(project, target, mutated_globals, anchor=call, path=path)


def purity_violations(
    project: Project,
    entry: FunctionInfo,
    mutated_globals: Set[Tuple[str, str]],
    anchor: ast.AST,
    path: str,
    max_depth: int = 8,
) -> List[Finding]:
    """Transitive purity audit of a worker entry point.

    Flags reads of mutable module globals that some project function
    mutates at runtime, and any ``global`` rebinding, anywhere in the
    call closure of ``entry`` (bounded BFS over resolvable calls).
    """
    findings: List[Finding] = []
    visited: Set[str] = set()
    frontier: List[Tuple[FunctionInfo, int]] = [(entry, 0)]
    while frontier:
        func, depth = frontier.pop()
        if func.full_name in visited or depth > max_depth:
            continue
        visited.add(func.full_name)
        mod = project.module_for_function(func)
        cls = project.class_for_function(func)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Global):
                findings.append(
                    Finding(
                        path=path,
                        line=getattr(anchor, "lineno", 1),
                        col=getattr(anchor, "col_offset", 0),
                        code=WORKER_PURITY_CODE,
                        message=(
                            f"worker '{entry.qualname}' transitively rebinds "
                            f"module global(s) {', '.join(node.names)} in "
                            f"'{func.full_name}'; workers must not mutate "
                            "shared module state"
                        ),
                    )
                )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                key = (mod.name, node.id)
                if key in mutated_globals and not node.id.isupper():
                    findings.append(
                        Finding(
                            path=path,
                            line=getattr(anchor, "lineno", 1),
                            col=getattr(anchor, "col_offset", 0),
                            code=WORKER_PURITY_CODE,
                            message=(
                                f"worker '{entry.qualname}' transitively "
                                f"reads mutable module global '{node.id}' "
                                f"(mutated at runtime; see {mod.path}) in "
                                f"'{func.full_name}' — fork-time state may "
                                "differ across workers"
                            ),
                        )
                    )
            elif isinstance(node, ast.Call):
                resolved = project.resolve_expr(node.func, mod, cls=cls)
                callee = project.function_for(resolved) if resolved else None
                if callee is not None and callee.full_name not in visited:
                    frontier.append((callee, depth + 1))
    # Deduplicate repeated reads of the same global along the closure.
    unique: Dict[Tuple[str, int, str], Finding] = {}
    for f in findings:
        unique.setdefault((f.path, f.line, f.message), f)
    return list(unique.values())


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------
def deep_lint_paths(paths: Sequence[str]) -> DeepReport:
    """Whole-program SIM101-SIM106 analysis over ``paths``."""
    project = build_project(paths)
    return analyze_project(project)
