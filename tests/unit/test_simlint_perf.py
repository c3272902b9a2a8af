"""Fixture tests for simlint's hot-closure perf layer.

Each perf rule (SIM201-SIM207) gets a firing/non-firing fixture pair,
the registry-drift contract is pinned in both directions (decorated but
unregistered, registered but undecorated, stale entries), the
``hot-ok[reason]`` acknowledgment and ``ignore[SIM2xx]`` pragmas are
exercised, and the unified runner's merged-stream ordering is locked in.
The shipped-tree acceptance run lives in
``tests/integration/test_perf_lint_acceptance.py``.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List, Sequence

from tools.simlint.__main__ import EXIT_CLEAN, main
from tools.simlint.callgraph import build_project
from tools.simlint.findings import Finding
from tools.simlint.hotpaths import REGISTRY, HotPathRegistry
from tools.simlint.perfrules import (
    PERF_RULES,
    PerfReport,
    perf_lint_project,
)
from tools.simlint.runner import FINDING_ORDER, lint_paths

#: The in-source marker, reproduced so fixture packages are self-
#: contained under the registry's ``repro.simulator`` decorated prefix.
MARKER_MODULE = """
    def hot_path(func):
        return func
"""


def make_sim_package(tmp_path: Path, modules: Dict[str, str]) -> Path:
    """A fixture package whose modules are named ``repro.simulator.*``.

    Module keys may contain ``/`` to land outside the simulator package
    (``jobs/flow`` -> ``repro.jobs.flow``), mirroring the shipped
    registry's jobs-layer entries.
    """
    root = tmp_path / "repro"
    (root / "simulator").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "simulator" / "__init__.py").write_text("")
    (root / "simulator" / "hotpath.py").write_text(
        textwrap.dedent(MARKER_MODULE)
    )
    for name, source in modules.items():
        if "/" in name:
            target = root / f"{name}.py"
            target.parent.mkdir(parents=True, exist_ok=True)
            init = target.parent / "__init__.py"
            if not init.exists():
                init.write_text("")
        else:
            target = root / "simulator" / f"{name}.py"
        target.write_text(textwrap.dedent(source))
    return root


def perf_report(
    tmp_path: Path,
    modules: Dict[str, str],
    roots: Sequence[str] = (),
    closure: Sequence[str] = (),
) -> PerfReport:
    root = make_sim_package(tmp_path, modules)
    project = build_project([str(root)])
    registry = HotPathRegistry(roots=tuple(roots), closure=tuple(closure))
    return perf_lint_project(project, registry=registry)


def perf_findings(
    tmp_path: Path,
    modules: Dict[str, str],
    roots: Sequence[str] = (),
    closure: Sequence[str] = (),
) -> List[Finding]:
    return perf_report(tmp_path, modules, roots=roots, closure=closure).findings


def codes(findings: List[Finding]) -> List[str]:
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# SIM201 — logging in the hot closure
# ----------------------------------------------------------------------
class TestHotLogging:
    def test_unguarded_debug_fires(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    import logging

                    from repro.simulator.hotpath import hot_path

                    logger = logging.getLogger(__name__)


                    @hot_path
                    def step(flows):
                        for flow in flows:
                            logger.debug("advancing %s", flow)
                        return flows
                """
            },
            roots=["repro.simulator.engine.step"],
        )
        assert codes(found) == ["SIM201"]
        assert "unguarded" in found[0].message
        assert "logger.debug" in found[0].message

    def test_eager_fstring_fires_even_guarded(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    import logging

                    from repro.simulator.hotpath import hot_path

                    logger = logging.getLogger(__name__)
                    _DEBUG = logger.isEnabledFor(logging.DEBUG)


                    @hot_path
                    def step(flows):
                        for flow in flows:
                            if _DEBUG:
                                logger.debug(f"advancing {flow}")
                        return flows
                """
            },
            roots=["repro.simulator.engine.step"],
        )
        assert codes(found) == ["SIM201"]
        assert "eagerly" in found[0].message

    def test_guarded_lazy_logging_clean(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    import logging

                    from repro.simulator.hotpath import hot_path

                    logger = logging.getLogger(__name__)
                    _DEBUG = logger.isEnabledFor(logging.DEBUG)


                    @hot_path
                    def step(flows):
                        for flow in flows:
                            if _DEBUG:
                                logger.debug("advancing %s", flow)
                        return flows
                """
            },
            roots=["repro.simulator.engine.step"],
        )
        assert found == []


# ----------------------------------------------------------------------
# SIM202 — per-iteration allocation in hot loops
# ----------------------------------------------------------------------
class TestHotLoopAllocation:
    def test_container_literal_in_loop_fires(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    @hot_path
                    def gather(flows):
                        out = []
                        for flow in flows:
                            pair = [flow, flow]
                            out.append(pair)
                        return out
                """
            },
            roots=["repro.simulator.engine.gather"],
        )
        assert codes(found) == ["SIM202"]
        assert "container literal" in found[0].message

    def test_comprehension_in_loop_fires(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    @hot_path
                    def gather(groups):
                        out = []
                        for group in groups:
                            out.extend(x for x in group)
                        return out
                """
            },
            roots=["repro.simulator.engine.gather"],
        )
        assert codes(found) == ["SIM202"]
        assert "generator expression" in found[0].message

    def test_tuple_literal_and_hoisted_allocation_clean(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    @hot_path
                    def gather(flows):
                        out = []
                        for flow in flows:
                            out.append((flow, 1.0))
                        return out
                """
            },
            roots=["repro.simulator.engine.gather"],
        )
        assert found == []

    def test_ignore_pragma_suppresses(self, tmp_path):
        report = perf_report(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    @hot_path
                    def gather(flows):
                        out = []
                        for flow in flows:
                            pair = [flow, flow]  # simlint: ignore[SIM202] (scratch)
                            out.append(pair)
                        return out
                """
            },
            roots=["repro.simulator.engine.gather"],
        )
        assert report.findings == []
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# SIM203 — numpy scalar item access in hot loops
# ----------------------------------------------------------------------
class TestNumpyScalarAccess:
    def test_scalar_index_of_numpy_local_fires(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    import numpy as np

                    from repro.simulator.hotpath import hot_path


                    @hot_path
                    def total_of(indices):
                        arr = np.zeros(8)
                        total = 0.0
                        for i in indices:
                            total = total + arr[i]
                        return total
                """
            },
            roots=["repro.simulator.engine.total_of"],
        )
        assert codes(found) == ["SIM203"]
        assert "'arr'" in found[0].message

    def test_slices_and_tolist_copies_clean(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    import numpy as np

                    from repro.simulator.hotpath import hot_path


                    @hot_path
                    def total_of(indices):
                        arr = np.zeros(8)
                        values = arr.tolist()
                        total = 0.0
                        for i in indices:
                            total = total + values[i]
                            window = arr[0:2]
                            total = total + float(window.sum())
                        return total
                """
            },
            roots=["repro.simulator.engine.total_of"],
        )
        assert found == []


# ----------------------------------------------------------------------
# SIM204 — __slots__-less instantiation in the hot closure
# ----------------------------------------------------------------------
class TestSlotsRule:
    def test_slotless_project_class_fires(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    class Snapshot:
                        def __init__(self, value):
                            self.value = value


                    @hot_path
                    def record(values):
                        return [Snapshot(v) for v in values]
                """
            },
            roots=["repro.simulator.engine.record"],
        )
        assert codes(found) == ["SIM204"]
        assert "Snapshot" in found[0].message
        assert "__slots__" in found[0].message

    def test_slotted_class_clean(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    class Snapshot:
                        __slots__ = ("value",)

                        def __init__(self, value):
                            self.value = value


                    @hot_path
                    def record(values):
                        return [Snapshot(v) for v in values]
                """
            },
            roots=["repro.simulator.engine.record"],
        )
        assert found == []

    def test_exception_classes_exempt(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    class DropFault(Exception):
                        pass


                    @hot_path
                    def record(values):
                        if not values:
                            raise DropFault("empty batch")
                        return values
                """
            },
            roots=["repro.simulator.engine.record"],
        )
        assert found == []


# ----------------------------------------------------------------------
# SIM205 — repeated self.x.y chains in hot loops
# ----------------------------------------------------------------------
class TestAttrChains:
    def test_repeated_chain_fires_at_first_read(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    class State:
                        __slots__ = ("counts",)

                        def __init__(self):
                            self.counts = {}


                    class Engine:
                        __slots__ = ("state",)

                        def __init__(self):
                            self.state = State()

                        @hot_path
                        def step(self, flows):
                            total = 0
                            for flow in flows:
                                total = total + self.state.counts[flow]
                                total = total + len(self.state.counts)
                            return total
                """
            },
            roots=["repro.simulator.engine.Engine.step"],
        )
        assert codes(found) == ["SIM205"]
        assert "self.state.counts" in found[0].message
        assert "2x" in found[0].message

    def test_single_read_clean(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    class Engine:
                        __slots__ = ("state",)

                        def __init__(self, state):
                            self.state = state

                        @hot_path
                        def step(self, flows):
                            counts = self.state.counts
                            total = 0
                            for flow in flows:
                                total = total + counts[flow]
                            return total
                """
            },
            roots=["repro.simulator.engine.Engine.step"],
        )
        assert found == []


# ----------------------------------------------------------------------
# SIM206 — try/except or generator indirection in hot loops
# ----------------------------------------------------------------------
class TestControlIndirection:
    def test_try_in_loop_fires(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    @hot_path
                    def drain(flows):
                        out = []
                        for flow in flows:
                            try:
                                out.append(flow)
                            except ValueError:
                                pass
                        return out
                """
            },
            roots=["repro.simulator.engine.drain"],
        )
        assert codes(found) == ["SIM206"]
        assert "try/except" in found[0].message

    def test_generator_iteration_fires(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    def pending(flows):
                        for flow in flows:
                            yield flow


                    @hot_path
                    def drain(flows):
                        total = 0
                        for flow in pending(flows):
                            total = total + 1
                        return total
                """
            },
            roots=["repro.simulator.engine.drain"],
            closure=["repro.simulator.engine.pending"],
        )
        assert codes(found) == ["SIM206"]
        assert "generator" in found[0].message
        assert "pending" in found[0].message

    def test_plain_iteration_clean(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    @hot_path
                    def drain(flows):
                        total = 0
                        for flow in list(flows):
                            total = total + 1
                        return total
                """
            },
            roots=["repro.simulator.engine.drain"],
        )
        assert found == []


# ----------------------------------------------------------------------
# SIM207 — closure escapes, hot-ok pragma, registry drift
# ----------------------------------------------------------------------
class TestClosureEscape:
    ESCAPE_MODULE = """
        from repro.simulator.hotpath import hot_path


        def expensive_audit(flows):
            return len(flows)


        @hot_path
        def step(flows):
            for flow in flows:
                expensive_audit(flows)
            return flows
    """

    def test_unregistered_callee_fires(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {"engine": self.ESCAPE_MODULE},
            roots=["repro.simulator.engine.step"],
        )
        assert codes(found) == ["SIM207"]
        assert "unregistered 'repro.simulator.engine.expensive_audit'" in (
            found[0].message
        )
        assert "hot-ok[reason]" in found[0].message

    def test_registered_callee_clean(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {"engine": self.ESCAPE_MODULE},
            roots=["repro.simulator.engine.step"],
            closure=["repro.simulator.engine.expensive_audit"],
        )
        assert found == []

    def test_hot_ok_pragma_acknowledges(self, tmp_path):
        report = perf_report(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    def expensive_audit(flows):
                        return len(flows)


                    @hot_path
                    def step(flows):
                        for flow in flows:
                            expensive_audit(flows)  # simlint: hot-ok[runs only on faults]
                        return flows
                """
            },
            roots=["repro.simulator.engine.step"],
        )
        assert report.findings == []
        assert report.acknowledged == 1

    def test_hot_ok_without_reason_does_not_acknowledge(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    def expensive_audit(flows):
                        return len(flows)


                    @hot_path
                    def step(flows):
                        for flow in flows:
                            expensive_audit(flows)  # simlint: hot-ok[]
                        return flows
                """
            },
            roots=["repro.simulator.engine.step"],
        )
        assert codes(found) == ["SIM207"]


class TestRegistryDrift:
    def test_decorated_but_unregistered_fires(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    @hot_path
                    def stray(flows):
                        return flows
                """
            },
        )
        assert codes(found) == ["SIM207"]
        assert "missing from the registry" in found[0].message
        assert "repro.simulator.engine.stray" in found[0].message

    def test_registered_root_without_marker_fires(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    def step(flows):
                        return flows
                """
            },
            roots=["repro.simulator.engine.step"],
        )
        assert codes(found) == ["SIM207"]
        assert "lacks the @hot_path marker" in found[0].message

    def test_closure_entries_need_no_marker(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    def helper(flows):
                        return flows
                """
            },
            closure=["repro.simulator.engine.helper"],
        )
        assert found == []

    def test_roots_outside_decorated_prefix_need_no_marker(self, tmp_path):
        """Jobs-layer entries are registry-only (import-cycle avoidance)."""
        found = perf_findings(
            tmp_path,
            {
                "jobs/flow": """
                    class Flow:
                        __slots__ = ("sent",)

                        def __init__(self):
                            self.sent = 0.0

                        def advance(self, amount):
                            self.sent = self.sent + amount
                """
            },
            roots=["repro.jobs.flow.Flow.advance"],
        )
        assert found == []

    def test_stale_registry_entry_fires_when_module_present(self, tmp_path):
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    def step(flows):
                        return flows
                """
            },
            roots=["repro.simulator.engine.missing"],
        )
        assert codes(found) == ["SIM207"]
        assert "stale registry entry" in found[0].message
        assert found[0].line == 1

    def test_entries_for_absent_packages_skipped(self, tmp_path):
        """Partial lints must not report every unloaded registry module."""
        found = perf_findings(
            tmp_path,
            {
                "engine": """
                    def step(flows):
                        return flows
                """
            },
            closure=["elsewhere.package.helper"],
        )
        assert found == []

    def test_shipped_registry_is_well_formed(self):
        registered = REGISTRY.registered()
        assert registered == frozenset(REGISTRY.roots) | frozenset(
            REGISTRY.closure
        )
        assert not set(REGISTRY.roots) & set(REGISTRY.closure)
        assert REGISTRY.decorated_prefix == "repro.simulator"
        assert all(name.count(".") >= 2 for name in registered)


# ----------------------------------------------------------------------
# Unified runner: merged, sorted finding stream
# ----------------------------------------------------------------------
class TestMergedStream:
    def test_per_file_and_perf_findings_merge_sorted(self, tmp_path):
        root = make_sim_package(
            tmp_path,
            {
                "engine": """
                    from repro.simulator.hotpath import hot_path


                    def helper(out=[]):
                        return out


                    @hot_path
                    def step(flows):
                        acc = []
                        for flow in flows:
                            acc.append([flow])
                        return acc
                """
            },
        )
        registry = HotPathRegistry(roots=("repro.simulator.engine.step",))
        report = lint_paths([str(root)], registry=registry)
        assert sorted(codes(report.findings)) == ["SIM005", "SIM202"]
        assert report.findings == sorted(report.findings, key=FINDING_ORDER)
        # Both layers ran over one parse of each file.
        assert report.files_checked == 4


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestPerfCli:
    def test_perf_flag_runs_clean_outside_registry_modules(self, tmp_path):
        """The perf layer runs on every call, and a package outside the
        registry's ``repro`` modules raises no drift or hot finding."""
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("def f(x):\n    return x\n")
        assert main([str(pkg)]) == EXIT_CLEAN

    def test_list_rules_includes_perf_catalog(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in PERF_RULES:
            assert f"{rule.code}  [hot closure]" in out
