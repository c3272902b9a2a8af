"""Fixture tests for simlint's whole-program deep layer.

Each deep rule (SIM101-SIM106) gets a good/bad fixture pair, the
interprocedural propagation contract is pinned with a two-module case,
and the command's exit status and output order are checked on a deep
finding.  The shipped-tree acceptance run lives in
``tests/integration/test_deep_lint_acceptance.py``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

from tools.simlint.__main__ import EXIT_CLEAN, EXIT_FINDINGS, main
from tools.simlint.callgraph import build_project, parse_module
from tools.simlint.dataflow import analyze_project
from tools.simlint.findings import Finding

#: The sink scaffolding every fixture package shares: a local EventQueue
#: (resolved through self._queue attribute typing), a WorkUnit (the
#: unit-seed sink) and a run_grid with the engine's signatures.
SINKS_MODULE = """
    from dataclasses import dataclass
    from typing import Optional, Tuple


    class EventQueue:
        def push(self, time, kind, payload=None, epoch=0):
            return (time, kind)


    @dataclass(frozen=True)
    class WorkUnit:
        config: object
        seed: Optional[int] = None
        schedulers: Optional[Tuple[str, ...]] = None
        label: str = ""


    def run_grid(units, parallel=1, cache_dir=None, cache=None, *,
                 run_unit=None, progress=None, budget=None):
        return units
"""


def make_package(tmp_path: Path, modules: Dict[str, str]) -> Path:
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "sinks.py").write_text(textwrap.dedent(SINKS_MODULE))
    for name, source in modules.items():
        (root / f"{name}.py").write_text(textwrap.dedent(source))
    return root


def deep_findings(tmp_path: Path, modules: Dict[str, str]) -> List[Finding]:
    root = make_package(tmp_path, modules)
    project = build_project([str(root)])
    return analyze_project(project).findings


def codes(findings: List[Finding]) -> List[str]:
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# SIM101 — wall-clock taint
# ----------------------------------------------------------------------
class TestWallClockTaint:
    def test_direct_flow_fires(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "bad": """
                    import time
                    from pkg.sinks import EventQueue

                    class Runtime:
                        def __init__(self):
                            self._queue = EventQueue()

                        def go(self):
                            self._queue.push(time.time(), 1)
                """
            },
        )
        assert codes(found) == ["SIM101"]
        assert "time.time()" in found[0].message
        assert "EventQueue.push" in found[0].message

    def test_simulated_time_clean(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "good": """
                    from pkg.sinks import EventQueue

                    class Runtime:
                        def __init__(self):
                            self._queue = EventQueue()
                            self._now = 0.0

                        def go(self, dt):
                            self._queue.push(self._now + dt, 1)
                """
            },
        )
        assert found == []


# ----------------------------------------------------------------------
# SIM102 — unseeded-RNG taint
# ----------------------------------------------------------------------
class TestRngTaint:
    def test_unseeded_random_into_seed_fires(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "bad": """
                    import random
                    from pkg.sinks import WorkUnit

                    def fresh_seed(config):
                        jitter = random.Random()
                        return WorkUnit(config, seed=jitter.random())
                """
            },
        )
        assert "SIM102" in codes(found)

    def test_seeded_rng_clean(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "good": """
                    import random
                    from pkg.sinks import WorkUnit

                    def fresh_seed(config, base):
                        rng = random.Random(base)
                        return WorkUnit(config, seed=rng.randrange(2**31))
                """
            },
        )
        assert found == []


# ----------------------------------------------------------------------
# SIM103 — environment taint
# ----------------------------------------------------------------------
class TestEnvironTaint:
    def test_environ_into_seed_fires(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "bad": """
                    import os
                    from pkg.sinks import WorkUnit

                    def seed_from_env(config):
                        return WorkUnit(config, seed=int(os.environ["SEED"]))
                """
            },
        )
        assert codes(found) == ["SIM103"]

    def test_pragma_with_reason_suppresses(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "blessed": """
                    import os
                    from pkg.sinks import WorkUnit

                    def seed_from_env(config):
                        salt = os.environ.get("SALT", "x")
                        return WorkUnit(config, seed=len(salt))  # simlint: ignore[SIM103]
                """
            },
        )
        assert found == []

    def test_literal_seed_clean(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "good": """
                    from pkg.sinks import WorkUnit

                    def seed(config):
                        return WorkUnit(config, seed=42)
                """
            },
        )
        assert found == []


# ----------------------------------------------------------------------
# SIM104 — hash()/id() taint
# ----------------------------------------------------------------------
class TestHashIdTaint:
    def test_hash_into_fingerprint_path_fires(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "bad": """
                    from pkg.sinks import EventQueue

                    class Runtime:
                        def __init__(self):
                            self._queue = EventQueue()

                        def go(self, payload):
                            self._queue.push(id(payload) * 1e-12, 1)
                """
            },
        )
        assert codes(found) == ["SIM104"]

    def test_stable_digest_clean(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "good": """
                    import hashlib
                    from pkg.sinks import WorkUnit

                    def seed(config, encoded):
                        digest = hashlib.blake2b(encoded, digest_size=8).digest()
                        return WorkUnit(config, seed=int.from_bytes(digest, "big"))
                """
            },
        )
        assert found == []


# ----------------------------------------------------------------------
# SIM105 — set-iteration-order taint
# ----------------------------------------------------------------------
class TestSetOrderTaint:
    def test_list_of_set_into_timestamp_fires(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "bad": """
                    from pkg.sinks import EventQueue

                    class Runtime:
                        def __init__(self):
                            self._queue = EventQueue()

                        def go(self, etas):
                            pending = set(etas)
                            self._queue.push(list(pending)[0], 1)
                """
            },
        )
        assert codes(found) == ["SIM105"]

    def test_sorted_materialization_clean(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "good": """
                    from pkg.sinks import EventQueue

                    class Runtime:
                        def __init__(self):
                            self._queue = EventQueue()

                        def go(self, etas):
                            pending = set(etas)
                            self._queue.push(sorted(pending)[0], 1)
                """
            },
        )
        assert found == []

    def test_min_reduction_clean(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "good": """
                    from pkg.sinks import EventQueue

                    class Runtime:
                        def __init__(self):
                            self._queue = EventQueue()

                        def go(self, etas):
                            self._queue.push(min(set(etas)), 1)
                """
            },
        )
        assert found == []


# ----------------------------------------------------------------------
# SIM106 — worker purity
# ----------------------------------------------------------------------
class TestWorkerPurity:
    def test_lambda_fires(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "bad": """
                    from pkg.sinks import run_grid

                    def fan_out(units):
                        return run_grid(units, run_unit=lambda u: u)
                """
            },
        )
        assert codes(found) == ["SIM106"]
        assert "lambda" in found[0].message

    def test_nested_function_fires(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "bad": """
                    from pkg.sinks import run_grid

                    def fan_out(units):
                        def worker(u):
                            return u
                        return run_grid(units, run_unit=worker)
                """
            },
        )
        assert codes(found) == ["SIM106"]

    def test_method_fires(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "bad": """
                    from pkg.sinks import run_grid

                    class Harness:
                        def worker(self, u):
                            return u

                        def fan_out(self, units):
                            return run_grid(units, run_unit=self.worker)
                """
            },
        )
        assert codes(found) == ["SIM106"]
        assert "method" in found[0].message

    def test_mutable_global_read_fires(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "bad": """
                    from pkg.sinks import run_grid

                    _memo = {}

                    def remember(u):
                        _memo[u] = True
                        return u

                    def worker(u):
                        return remember(u)

                    def fan_out(units):
                        return run_grid(units, run_unit=worker)
                """
            },
        )
        assert codes(found) == ["SIM106"]
        assert "_memo" in found[0].message

    def test_pure_module_level_worker_clean(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "good": """
                    from pkg.sinks import run_grid

                    SCALE = 2.0

                    def worker(u):
                        return u * SCALE

                    def fan_out(units):
                        return run_grid(units, run_unit=worker)
                """
            },
        )
        assert found == []

    def test_default_run_unit_clean(self, tmp_path):
        """No sibling ``execute_unit`` next to run_grid: nothing to audit."""
        found = deep_findings(
            tmp_path,
            {
                "good": """
                    from pkg.sinks import run_grid

                    def fan_out(units):
                        return run_grid(units, parallel=4)
                """
            },
        )
        assert found == []

    def test_default_worker_impure_sibling_fires(self, tmp_path):
        """run_unit-less fan-outs audit run_grid's sibling execute_unit.

        This is the experiments/chaos.py::run_chaos shape: the call site
        never names a worker, so the purity audit must chase the default
        one through the module that defines run_grid.
        """
        found = deep_findings(
            tmp_path,
            {
                "grid": """
                    _calls = 0

                    def execute_unit(u):
                        global _calls
                        _calls += 1
                        return u

                    def run_grid(units, parallel=1, cache_dir=None,
                                 cache=None, *, run_unit=None,
                                 progress=None, budget=None):
                        return units
                """,
                "bad": """
                    from pkg.grid import run_grid

                    def fan_out(units):
                        return run_grid(units, parallel=4)
                """,
            },
        )
        assert codes(found) == ["SIM106"]
        assert found[0].path.endswith("bad.py")
        assert "execute_unit" in found[0].message
        assert "_calls" in found[0].message

    def test_default_worker_pure_sibling_clean(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "grid": """
                    SCALE = 2.0

                    def execute_unit(u):
                        return u * SCALE

                    def run_grid(units, parallel=1, cache_dir=None,
                                 cache=None, *, run_unit=None,
                                 progress=None, budget=None):
                        return units
                """,
                "good": """
                    from pkg.grid import run_grid

                    def fan_out(units):
                        return run_grid(units, parallel=4)
                """,
            },
        )
        assert found == []

    def test_constant_registry_read_clean(self, tmp_path):
        """A mutable global never mutated inside a function is a registry."""
        found = deep_findings(
            tmp_path,
            {
                "good": """
                    from pkg.sinks import run_grid

                    _factories = {"a": int, "b": float}

                    def worker(u):
                        return _factories["a"](u)

                    def fan_out(units):
                        return run_grid(units, run_unit=worker)
                """
            },
        )
        assert found == []


# ----------------------------------------------------------------------
# Interprocedural propagation across modules
# ----------------------------------------------------------------------
class TestInterproceduralPropagation:
    def test_two_module_two_hop_flow(self, tmp_path):
        """time.time() in module A reaches EventQueue.push in module B
        through two levels of helper indirection."""
        found = deep_findings(
            tmp_path,
            {
                "helpers": """
                    import time

                    def raw_stamp():
                        return time.time()

                    def stamp():
                        return raw_stamp()
                """,
                "runtime": """
                    from pkg.helpers import stamp
                    from pkg.sinks import EventQueue

                    class Runtime:
                        def __init__(self):
                            self._queue = EventQueue()

                        def go(self):
                            self._queue.push(stamp(), 1)
                """,
            },
        )
        assert codes(found) == ["SIM101"]
        finding = found[0]
        assert finding.path.endswith("runtime.py")  # reported at the sink
        assert "helpers.py" in finding.message  # attributed to the source

    def test_taint_through_instance_attribute(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "stateful": """
                    import time
                    from pkg.sinks import EventQueue

                    class Runtime:
                        def __init__(self):
                            self._queue = EventQueue()
                            self._started = time.time()

                        def go(self):
                            self._queue.push(self._started, 1)
                """
            },
        )
        assert codes(found) == ["SIM101"]

    def test_parameter_flow_reported_at_sink_module(self, tmp_path):
        """Taint entering through a parameter is reported inside the
        callee holding the sink, attributed to the caller's source."""
        found = deep_findings(
            tmp_path,
            {
                "sink_mod": """
                    from pkg.sinks import EventQueue

                    class Pusher:
                        def __init__(self):
                            self._queue = EventQueue()

                        def push_at(self, when):
                            self._queue.push(when, 1)
                """,
                "caller": """
                    import time
                    from pkg.sink_mod import Pusher

                    def go():
                        Pusher().push_at(time.time())
                """,
            },
        )
        assert codes(found) == ["SIM101"]
        assert found[0].path.endswith("sink_mod.py")
        assert "caller.py" in found[0].message

    def test_untainted_cross_module_flow_clean(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "helpers": """
                    def stamp(base, dt):
                        return base + dt
                """,
                "runtime": """
                    from pkg.helpers import stamp
                    from pkg.sinks import EventQueue

                    class Runtime:
                        def __init__(self):
                            self._queue = EventQueue()

                        def go(self, now):
                            self._queue.push(stamp(now, 0.5), 1)
                """,
            },
        )
        assert found == []


# ----------------------------------------------------------------------
# Nested functions
# ----------------------------------------------------------------------
#: One environment flow into a worker submission, written inline and
#: through a nested helper three ways: the helper reads the flow from the
#: enclosing scope, takes it as an argument, or returns it.  A lambda
#: submitted in place of the worker carries what its body reads, and a
#: nested helper can write the flow back through ``nonlocal``.
NESTED_FORMS = {
    "inline": """
        import os

        def launch_all(executor, work):
            salt = os.environ.get("SALT", "x")
            return executor.submit(work, salt)
    """,
    "closure": """
        import os

        def launch_all(executor, work):
            salt = os.environ.get("SALT", "x")

            def launch():
                return executor.submit(work, salt)

            return launch()
    """,
    "argument": """
        import os

        def launch_all(executor, work):
            def launch(value):
                return executor.submit(work, value)

            return launch(os.environ.get("SALT", "x"))
    """,
    "return": """
        import os

        def launch_all(executor, work):
            def salt():
                return os.environ.get("SALT", "x")

            return executor.submit(work, salt())
    """,
    "lambda": """
        import os

        def launch_all(executor, work):
            salt = os.environ.get("SALT", "x")
            return executor.submit(lambda: work(salt))
    """,
    "nonlocal": """
        import os

        def launch_all(executor, work):
            salt = "x"

            def refresh():
                nonlocal salt
                salt = os.environ.get("SALT", "x")

            refresh()
            return executor.submit(work, salt)
    """,
}


class TestNestedFunctions:
    @pytest.mark.parametrize("form", sorted(NESTED_FORMS))
    def test_nesting_does_not_change_the_verdict(self, tmp_path, form):
        found = deep_findings(tmp_path, {"grid": NESTED_FORMS[form]})
        assert codes(found) == ["SIM103"]
        assert "reaches worker submission 'Executor.submit'" in found[0].message

    def test_nested_helper_without_the_flow_is_clean(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "grid": """
                    import os

                    def launch_all(executor, work):
                        salt = os.environ.get("SALT", "x")

                        def launch(value):
                            return executor.submit(work, value)

                        return launch(len(work)), salt
                """,
                # A helper that only reads a ``nonlocal`` name sends back
                # nothing, so the submit before the source stays clean.
                "show": """
                    import os

                    def launch_all(executor, work):
                        salt = "x"

                        def show():
                            nonlocal salt
                            print(salt)

                        show()
                        future = executor.submit(work, salt)
                        salt = os.environ.get("SALT", "x")
                        return future, salt
                """,
            },
        )
        assert found == []

    def test_closure_of_a_closure(self, tmp_path):
        found = deep_findings(
            tmp_path,
            {
                "grid": """
                    import time

                    def launch_all(executor, work):
                        started = time.time()

                        def outer():
                            def inner():
                                return executor.submit(work, started)

                            return inner()

                        return outer()
                """
            },
        )
        assert codes(found) == ["SIM101"]
        assert "'launch_all.<locals>.outer.<locals>.inner'" in found[0].message


# ----------------------------------------------------------------------
# Module/name resolution
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_module_names_from_package_layout(self, tmp_path):
        root = make_package(tmp_path, {"mod": "x = 1\n"})
        info = parse_module(root / "mod.py")
        assert info.name == "pkg.mod"
        init = parse_module(root / "__init__.py")
        assert init.name == "pkg"

    def test_reexport_resolution(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "inner": """
                    def target():
                        return 1
                """,
            },
        )
        (root / "__init__.py").write_text("from pkg.inner import target\n")
        project = build_project([str(root)])
        assert (
            project.resolve_export("pkg.target") == "pkg.inner.target"
        )

    def test_relative_import_resolution(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "inner": """
                    def target():
                        return 1
                """,
                "user": """
                    from .inner import target

                    def call():
                        return target()
                """,
            },
        )
        project = build_project([str(root)])
        mod = project.modules["pkg.user"]
        assert mod.imports["target"] == "pkg.inner.target"


# ----------------------------------------------------------------------
# The command on a deep finding
# ----------------------------------------------------------------------
class TestDeepCli:
    BAD = {
        "bad": """
            import time
            from pkg.sinks import EventQueue

            class Runtime:
                def __init__(self):
                    self._queue = EventQueue()

                def go(self):
                    self._queue.push(time.time(), 1)
        """
    }

    def test_deep_findings_exit(self, tmp_path, capsys):
        root = make_package(tmp_path, self.BAD)
        assert main([str(root)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "SIM101" in out

    def test_json_findings_sorted_by_path_line_rule(self, tmp_path, capsys):
        root = make_package(
            tmp_path,
            {
                "multi": """
                    import time
                    from pkg.sinks import EventQueue, run_grid

                    class Runtime:
                        def __init__(self):
                            self._queue = EventQueue()

                        def go(self, etas):
                            self._queue.push(time.time(), 1)
                            self._queue.push(list(set(etas))[0], 2)

                    def fan_out(units):
                        return run_grid(units, run_unit=lambda u: u)
                """
            },
        )
        assert main(["--json", str(root)]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        keys = [
            (f["path"], f["line"], f["code"]) for f in payload["findings"]
        ]
        assert keys == sorted(keys)

    def test_select_filters_deep_codes(self, tmp_path, capsys):
        root = make_package(tmp_path, self.BAD)
        assert main(["--select", "SIM106", str(root)]) == EXIT_CLEAN
        assert main(["--select", "SIM101", str(root)]) == EXIT_FINDINGS
