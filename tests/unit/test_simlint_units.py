"""Fixture tests for simlint's dimensional-analysis units layer.

Each units rule (SIM301-SIM308) gets a firing/non-firing fixture pair:
unit derivation through arithmetic is pinned (``Bytes / BytesPerSec``
feeds a ``Seconds`` sink cleanly), the ``unit[...]`` assertion pragma
and cross-layer pragma stacking are exercised, and the command's
contract (every layer on every call, per-finding ``layer`` tags) is
locked in.  The shipped-tree acceptance run lives in
``tests/integration/test_units_lint_acceptance.py``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from tools.simlint.__main__ import EXIT_CLEAN, EXIT_FINDINGS, main
from tools.simlint.callgraph import build_project
from tools.simlint.findings import Finding, layer_for_code
from tools.simlint.hotpaths import HotPathRegistry
from tools.simlint.runner import lint_paths
from tools.simlint.units import (
    ALL_UNITS_RULES,
    UNITS_MODULES,
    UnitsRegistry,
    UnitsReport,
    units_lint_project,
)


def make_pkg(tmp_path: Path, modules: Dict[str, str]) -> Path:
    """A fixture package whose modules are named ``repro.*``.

    Plain keys land in ``repro.simulator`` (the annotated heart of the
    shipped tree); keys with ``/`` land at that path under ``repro``
    (``workloads/gen`` -> ``repro.workloads.gen``).
    """
    root = tmp_path / "repro"
    (root / "simulator").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "simulator" / "__init__.py").write_text("")
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


def units_report(
    tmp_path: Path,
    modules: Dict[str, str],
    registered: Sequence[str] = (),
    prefix: Optional[str] = None,
    roots: Sequence[str] = (),
    closure: Sequence[str] = (),
) -> UnitsReport:
    """Run the units layer over a fixture package.

    By default the SIM308 registry prefix is pointed away from the
    fixture namespace so rule fixtures need no registration; drift tests
    pass ``prefix="repro."`` explicitly.
    """
    root = make_pkg(tmp_path, modules)
    project = build_project([str(root)])
    registry = UnitsRegistry(
        modules=tuple(registered),
        prefix=prefix if prefix is not None else "fixtures-exempt.",
    )
    hot = HotPathRegistry(roots=tuple(roots), closure=tuple(closure))
    return units_lint_project(project, registry=registry, hot_registry=hot)


def codes(report: UnitsReport) -> List[str]:
    return [f.code for f in report.findings]


# ----------------------------------------------------------------------
# SIM301 — mixed-unit arithmetic
# ----------------------------------------------------------------------
class TestMixedUnitArithmetic:
    def test_seconds_plus_bytes_fires(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "flow": """
                    def advance(now: Seconds, volume: Bytes):
                        return now + volume
                """
            },
        )
        assert codes(report) == ["SIM301"]
        assert "Seconds" in report.findings[0].message
        assert "Bytes" in report.findings[0].message

    def test_derived_seconds_plus_seconds_clean(self, tmp_path):
        """Bytes / BytesPerSec derives Seconds, so adding it to a
        timestamp is dimensionally sound — the core soundness case."""
        report = units_report(
            tmp_path,
            {
                "flow": """
                    def finish_at(now: Seconds, volume: Bytes, rate: BytesPerSec) -> Seconds:
                        return now + volume / rate
                """
            },
        )
        assert report.clean

    def test_annotation_conflict_fires(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "flow": """
                    def stash(volume: Bytes):
                        eta: Seconds = volume
                        return eta
                """
            },
        )
        assert codes(report) == ["SIM301"]

    def test_dimensionless_scaling_clean(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "flow": """
                    def doubled(rate: BytesPerSec, share: Fraction) -> BytesPerSec:
                        return rate * share * 2
                """
            },
        )
        assert report.clean


# ----------------------------------------------------------------------
# SIM302 — cross-unit comparison / time equality
# ----------------------------------------------------------------------
class TestCrossUnitComparison:
    def test_bytes_vs_seconds_fires(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "flow": """
                    def stalled(volume: Bytes, now: Seconds):
                        return volume < now
                """
            },
        )
        assert codes(report) == ["SIM302"]

    def test_time_equality_outside_timecmp_fires(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "events": """
                    def same_tick(now: Seconds, eta: Seconds):
                        return now == eta
                """
            },
        )
        assert codes(report) == ["SIM302"]

    def test_time_equality_inside_timecmp_exempt(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "timecmp": """
                    def times_equal(now: Seconds, eta: Seconds):
                        return now == eta
                """
            },
        )
        assert report.clean

    def test_time_ordering_clean(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "events": """
                    def due(now: Seconds, eta: Seconds):
                        return eta <= now
                """
            },
        )
        assert report.clean


# ----------------------------------------------------------------------
# SIM303 — unit-mismatched sink
# ----------------------------------------------------------------------
class TestUnitMismatchedSink:
    def test_volume_into_seconds_sink_fires_with_rate_hint(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "events": """
                    def schedule_at(eta: Seconds):
                        return eta

                    def enqueue(volume: Bytes):
                        return schedule_at(volume)
                """
            },
        )
        assert codes(report) == ["SIM303"]
        assert "rate" in report.findings[0].message

    def test_rate_division_before_sink_clean(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "events": """
                    def schedule_at(eta: Seconds):
                        return eta

                    def enqueue(volume: Bytes, rate: BytesPerSec):
                        return schedule_at(volume / rate)
                """
            },
        )
        assert report.clean

    def test_return_annotation_mismatch_fires(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "flow": """
                    def remaining(volume: Bytes) -> Seconds:
                        return volume
                """
            },
        )
        assert codes(report) == ["SIM303"]

    def test_units_cross_call_boundaries(self, tmp_path):
        """An unannotated helper's return unit is inferred at the fixed
        point and checked at the downstream annotated sink."""
        report = units_report(
            tmp_path,
            {
                "flow": """
                    def schedule_at(eta: Seconds):
                        return eta

                    def helper(volume: Bytes):
                        return volume

                    def enqueue(volume: Bytes):
                        return schedule_at(helper(volume))
                """
            },
        )
        assert codes(report) == ["SIM303"]


# ----------------------------------------------------------------------
# SIM304 — unit-less literal into an annotated sink
# ----------------------------------------------------------------------
class TestUnitlessLiteralSink:
    def test_bare_literal_fires(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "events": """
                    def schedule_at(eta: Seconds):
                        return eta

                    def enqueue():
                        return schedule_at(86400.0)
                """
            },
        )
        assert codes(report) == ["SIM304"]

    def test_identity_literals_exempt(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "events": """
                    def schedule_at(eta: Seconds):
                        return eta

                    def enqueue():
                        return schedule_at(0), schedule_at(1), schedule_at(-1)
                """
            },
        )
        assert report.clean

    def test_unit_pragma_blesses_literal(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "events": """
                    def schedule_at(eta: Seconds):
                        return eta

                    def enqueue():
                        return schedule_at(86400.0)  # simlint: unit[Seconds]
                """
            },
        )
        assert report.clean

    def test_unit_pragma_with_wrong_unit_fires_mismatch(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "events": """
                    def schedule_at(eta: Seconds):
                        return eta

                    def enqueue():
                        return schedule_at(1500.0)  # simlint: unit[Bytes]
                """
            },
        )
        assert codes(report) == ["SIM303"]


# ----------------------------------------------------------------------
# SIM305 — unit erasure through json round-trips
# ----------------------------------------------------------------------
class TestUnitErasure:
    def test_json_value_into_annotated_sink_fires(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "events": """
                    import json

                    def schedule_at(eta: Seconds):
                        return eta

                    def replay(blob):
                        payload = json.loads(blob)
                        return schedule_at(payload["eta"])
                """
            },
        )
        assert codes(report) == ["SIM305"]

    def test_asserted_unit_after_round_trip_clean(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "events": """
                    import json

                    def schedule_at(eta: Seconds):
                        return eta

                    def replay(blob):
                        payload = json.loads(blob)
                        return schedule_at(payload["eta"])  # simlint: unit[Seconds]
                """
            },
        )
        assert report.clean


# ----------------------------------------------------------------------
# SIM306 — workloads generator materialization
# ----------------------------------------------------------------------
class TestGeneratorMaterialization:
    GENERATOR = """
        def arrivals(n):
            for i in range(n):
                yield i
    """

    def test_list_around_workloads_generator_fires(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "workloads/gen": self.GENERATOR,
                "driver": """
                    from repro.workloads.gen import arrivals

                    def eager(n):
                        return list(arrivals(n))
                """,
            },
        )
        assert codes(report) == ["SIM306"]
        assert "arrivals" in report.findings[0].message

    def test_lazy_iteration_clean(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "workloads/gen": self.GENERATOR,
                "driver": """
                    from repro.workloads.gen import arrivals

                    def stream(n):
                        for job in arrivals(n):
                            yield job
                """,
            },
        )
        assert report.clean

    def test_non_workloads_generator_exempt(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "gen": self.GENERATOR,
                "driver": """
                    from repro.simulator.gen import arrivals

                    def eager(n):
                        return sorted(arrivals(n))
                """,
            },
        )
        assert report.clean


# ----------------------------------------------------------------------
# SIM307 — hot-loop accumulation
# ----------------------------------------------------------------------
class TestHotLoopAccumulation:
    HOT_STEP = "repro.simulator.engine.Engine.step"

    def test_undrained_self_append_in_hot_loop_fires(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "engine": """
                    class Engine:
                        def step(self, events):
                            for event in events:
                                self.trace.append(event)
                """
            },
            roots=[self.HOT_STEP],
        )
        assert codes(report) == ["SIM307"]
        assert "self.trace" in report.findings[0].message

    def test_drained_receiver_clean(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "engine": """
                    class Engine:
                        def step(self, events):
                            for event in events:
                                self.batch.append(event)
                            self.batch.clear()
                """
            },
            roots=[self.HOT_STEP],
        )
        assert report.clean

    def test_local_scratch_clean(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "engine": """
                    class Engine:
                        def step(self, events):
                            batch = []
                            for event in events:
                                batch.append(event)
                            return batch
                """
            },
            roots=[self.HOT_STEP],
        )
        assert report.clean

    def test_unregistered_function_exempt(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "engine": """
                    class Engine:
                        def step(self, events):
                            for event in events:
                                self.trace.append(event)
                """
            },
        )
        assert report.clean


# ----------------------------------------------------------------------
# SIM308 — units-registry drift
# ----------------------------------------------------------------------
class TestRegistryDrift:
    ANNOTATED = """
        def advance(now: Seconds) -> Seconds:
            return now
    """

    def test_unregistered_module_with_annotations_fires(self, tmp_path):
        report = units_report(
            tmp_path,
            {"flow": self.ANNOTATED},
            prefix="repro.",
        )
        assert codes(report) == ["SIM308"]
        assert "not listed" in report.findings[0].message
        # Pinned to the first annotation line, not the module head.
        assert report.findings[0].line == 2

    def test_registered_module_without_annotations_fires(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "flow": self.ANNOTATED,
                "plain": """
                    def advance(now):
                        return now
                """,
            },
            registered=["repro.simulator.flow", "repro.simulator.plain"],
            prefix="repro.",
        )
        assert codes(report) == ["SIM308"]
        assert "stale" in report.findings[0].message
        assert report.findings[0].path.endswith("plain.py")

    def test_registered_annotated_module_clean(self, tmp_path):
        report = units_report(
            tmp_path,
            {"flow": self.ANNOTATED},
            registered=["repro.simulator.flow"],
            prefix="repro.",
        )
        assert report.clean

    def test_shipped_registry_is_sorted(self):
        assert list(UNITS_MODULES) == sorted(UNITS_MODULES)


# ----------------------------------------------------------------------
# Pragma stacking: each pragma verb only reaches its own layer
# ----------------------------------------------------------------------
class TestPragmaStacking:
    def test_ignore_sim301_does_not_suppress_file_layer(self, tmp_path):
        """A units-layer ignore on the def line leaves SIM005 alone."""
        root = make_pkg(
            tmp_path,
            {
                "flow": """
                    def collect(items=[]):  # simlint: ignore[SIM301]
                        return items
                """
            },
        )
        # An empty hot registry: the shipped one's roots are missing from
        # this fixture package, which SIM207 would report.
        report = lint_paths([str(root)], registry=HotPathRegistry())
        assert [f.code for f in report.findings] == ["SIM005"]

    def test_ignore_sim005_does_not_suppress_units_layer(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "flow": """
                    def advance(now: Seconds, volume: Bytes):
                        return now + volume  # simlint: ignore[SIM005]
                """
            },
        )
        assert codes(report) == ["SIM301"]

    def test_stacked_pragmas_on_one_line_each_hit_their_layer(self, tmp_path):
        """``ignore[SIM005]`` and ``unit[Seconds]`` stacked on single
        lines suppress the file finding and bless the erased value —
        both layers come back clean in the merged run."""
        root = make_pkg(
            tmp_path,
            {
                "events": """
                    import json

                    def schedule_at(eta: Seconds):
                        return eta

                    def replay(blob, seen=[]):  # simlint: ignore[SIM005]
                        payload = json.loads(blob)
                        return schedule_at(payload["eta"])  # simlint: unit[Seconds]
                """
            },
        )
        registry = UnitsRegistry(modules=(), prefix="fixtures-exempt.")
        report = lint_paths(
            [str(root)], registry=HotPathRegistry(), units_registry=registry
        )
        assert report.clean, [f.render() for f in report.findings]
        assert report.suppressed >= 1

    def test_hot_ok_does_not_suppress_units_layer(self, tmp_path):
        """The perf layer's hot-ok acknowledgment is not an ignore: a
        SIM307 on the same line still fires."""
        report = units_report(
            tmp_path,
            {
                "engine": """
                    class Engine:
                        def step(self, events):
                            for event in events:
                                self.trace.append(event)  # hot-ok[audit log]
                """
            },
            roots=["repro.simulator.engine.Engine.step"],
        )
        assert codes(report) == ["SIM307"]

    def test_ignore_sim307_suppresses_and_counts(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "engine": """
                    class Engine:
                        def step(self, events):
                            for event in events:
                                self.trace.append(event)  # simlint: ignore[SIM307]
                """
            },
            roots=["repro.simulator.engine.Engine.step"],
        )
        assert report.clean
        assert report.suppressed == 1

    def test_skip_file_silences_units_layer(self, tmp_path):
        report = units_report(
            tmp_path,
            {
                "flow": """
                    # simlint: skip-file
                    def advance(now: Seconds, volume: Bytes):
                        return now + volume
                """
            },
        )
        assert report.clean


# ----------------------------------------------------------------------
# The command: every layer on every call, merged stream, layer tags
# ----------------------------------------------------------------------
class TestUnitsCli:
    """CLI fixtures live outside the ``repro`` namespace so the shipped
    SIM207/SIM308 registries (keyed on ``repro.*`` module names) stay
    out of the picture — the unit rules themselves are namespace-free."""

    def test_units_flag_finds_and_tags_layer(self, tmp_path, capsys):
        """The units layer runs on every call and tags its findings."""
        target = tmp_path / "flow.py"
        target.write_text(
            textwrap.dedent(
                """
                def advance(now: Seconds, volume: Bytes):
                    return now + volume
                """
            )
        )
        assert main([str(target), "--json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert [f["code"] for f in payload["findings"]] == ["SIM301"]
        assert [f["layer"] for f in payload["findings"]] == ["units"]

    def test_all_flag_merges_every_layer(self, tmp_path, capsys):
        """No flag: the per-file, deep and units layers all report in one
        merged stream."""
        target = tmp_path / "flow.py"
        target.write_text(
            textwrap.dedent(
                """
                import time


                def advance(now: Seconds, volume: Bytes, items=[]):
                    return now + volume


                def launch(executor, work):
                    return executor.submit(work, time.time())
                """
            )
        )
        assert main([str(target), "--json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        found = {(f["code"], f["layer"]) for f in payload["findings"]}
        assert found == {
            ("SIM005", "file"),
            ("SIM101", "deep"),
            ("SIM301", "units"),
        }

    def test_all_flag_clean_fixture(self, tmp_path, capsys):
        """No flag: a fixture clean under every layer exits clean."""
        target = tmp_path / "flow.py"
        target.write_text(
            textwrap.dedent(
                """
                def finish_at(now: Seconds, volume: Bytes, rate: BytesPerSec) -> Seconds:
                    return now + volume / rate
                """
            )
        )
        assert main([str(target)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_list_rules_covers_units_layer(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in ALL_UNITS_RULES:
            assert f"{rule.code}  [dimensional/streaming]" in out

    def test_layer_tagging_is_total(self):
        assert layer_for_code("SIM001") == "file"
        assert layer_for_code("SIM101") == "deep"
        assert layer_for_code("SIM201") == "perf"
        assert layer_for_code("SIM308") == "units"
        finding = Finding(path="x.py", line=1, col=0, code="SIM301", message="m")
        assert finding.to_dict()["layer"] == "units"
