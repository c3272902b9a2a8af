"""Fixture tests for the simlint static-analysis suite.

Each rule gets a good/bad fixture pair, pragma suppression is exercised
per rule and file-wide, and the CLI contract (exit codes, JSON schema) is
pinned.  The final test is the acceptance gate: the shipped ``src`` tree
must lint clean.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from tools.simlint.__main__ import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from tools.simlint.runner import (
    SimlintUsageError,
    lint_source,
    select_rules,
)

#: A path inside the simulator scope (SIM001/SIM003/SIM004 fire here).
SIM_PATH = "src/repro/simulator/example.py"
#: A path outside every scoped rule's scope.
OUT_PATH = "src/repro/workloads/example.py"


def codes(report):
    return [f.code for f in report.findings]


def lint(source, path=SIM_PATH):
    return lint_source(textwrap.dedent(source), path=path)


# ----------------------------------------------------------------------
# SIM001 — wall-clock time
# ----------------------------------------------------------------------
class TestWallClock:
    BAD = """
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now()
    """

    def test_bad_fixture_fires(self):
        assert codes(lint(self.BAD)) == ["SIM001", "SIM001"]

    def test_aliased_import_fires(self):
        src = """
            import time as clock

            def stamp():
                return clock.perf_counter()
        """
        assert codes(lint(src)) == ["SIM001"]

    def test_from_import_fires(self):
        src = """
            from time import monotonic

            def stamp():
                return monotonic()
        """
        assert codes(lint(src)) == ["SIM001"]

    def test_good_fixture_clean(self):
        src = """
            def stamp(now):
                return now  # simulation time is threaded explicitly
        """
        assert lint(src).clean

    def test_out_of_scope_path_clean(self):
        assert lint(self.BAD, path=OUT_PATH).clean


# ----------------------------------------------------------------------
# SIM002 — unseeded randomness
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def test_module_level_random_fires(self):
        src = """
            import random

            def pick(items):
                return random.choice(items)
        """
        assert codes(lint(src, path=OUT_PATH)) == ["SIM002"]

    def test_unseeded_random_instance_fires(self):
        src = """
            import random

            def make_rng():
                return random.Random()
        """
        assert codes(lint(src, path=OUT_PATH)) == ["SIM002"]

    def test_from_import_fires(self):
        src = """
            from random import shuffle
        """
        assert codes(lint(src, path=OUT_PATH)) == ["SIM002"]

    def test_seeded_instance_clean(self):
        src = """
            import random

            def make_rng(seed):
                return random.Random(seed)
        """
        assert lint(src, path=OUT_PATH).clean

    def test_numpy_default_rng_with_seed_clean(self):
        src = """
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
        """
        assert lint(src, path=OUT_PATH).clean

    def test_numpy_global_rng_fires(self):
        src = """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
        """
        assert codes(lint(src, path=OUT_PATH)) == ["SIM002"]


# ----------------------------------------------------------------------
# SIM003 — unsorted set / dict.keys() iteration
# ----------------------------------------------------------------------
class TestUnsortedSetIteration:
    def test_set_literal_iteration_fires(self):
        src = """
            def walk(flows):
                for f in {flow.dst for flow in flows}:
                    yield f
        """
        assert codes(lint(src)) == ["SIM003"]

    def test_set_call_iteration_fires(self):
        src = """
            def walk(a, b):
                for x in set(a) & set(b):
                    yield x
        """
        assert codes(lint(src)) == ["SIM003"]

    def test_keys_iteration_fires(self):
        src = """
            def walk(table):
                for k in table.keys():
                    yield k
        """
        assert codes(lint(src)) == ["SIM003"]

    def test_tracked_set_variable_fires(self):
        src = """
            def walk(items):
                pending = set(items)
                for x in pending:
                    yield x
        """
        assert codes(lint(src)) == ["SIM003"]

    def test_comprehension_generator_fires(self):
        src = """
            def walk(items):
                return [x for x in {i for i in items}]
        """
        assert codes(lint(src)) == ["SIM003"]

    def test_sorted_wrapping_clean(self):
        src = """
            def walk(flows, table, a, b):
                for f in sorted({flow.dst for flow in flows}):
                    yield f
                for k in sorted(table.keys()):
                    yield k
                for x in sorted(set(a) & set(b)):
                    yield x
        """
        assert lint(src).clean

    def test_plain_dict_iteration_clean(self):
        src = """
            def walk(table):
                for k in table:
                    yield k
        """
        assert lint(src).clean

    def test_out_of_scope_path_clean(self):
        src = """
            def walk(items):
                for x in set(items):
                    yield x
        """
        assert lint(src, path=OUT_PATH).clean


# ----------------------------------------------------------------------
# SIM004 — float equality on timestamps
# ----------------------------------------------------------------------
class TestTimestampEquality:
    def test_eq_on_time_attribute_fires(self):
        src = """
            def same_batch(event, now):
                return event.time == now
        """
        assert codes(lint(src)) == ["SIM004"]

    def test_neq_on_suffixed_name_fires(self):
        src = """
            def moved(finish_time, start_time):
                return finish_time != start_time
        """
        assert codes(lint(src)) == ["SIM004"]

    def test_none_comparison_clean(self):
        src = """
            def unfinished(finish_time):
                return finish_time == None
        """
        assert lint(src).clean

    def test_non_time_name_clean(self):
        src = """
            def same(count, total):
                return count == total
        """
        assert lint(src).clean

    def test_blessed_module_exempt(self):
        src = """
            def times_close(now, eta):
                return now == eta
        """
        assert lint(src, path="src/repro/simulator/timecmp.py").clean


# ----------------------------------------------------------------------
# SIM005 — mutable default arguments
# ----------------------------------------------------------------------
class TestMutableDefault:
    def test_mutable_defaults_fire_everywhere(self):
        src = """
            def collect(items=[], table={}, seen=set()):
                return items, table, seen
        """
        assert codes(lint(src, path=OUT_PATH)) == ["SIM005", "SIM005", "SIM005"]

    def test_immutable_defaults_clean(self):
        src = """
            def collect(items=(), name="x", count=0, table=None):
                return items, name, count, table
        """
        assert lint(src, path=OUT_PATH).clean


# ----------------------------------------------------------------------
# SIM006 — priority-delta contract
# ----------------------------------------------------------------------
class TestPriorityDeltaContract:
    def test_opt_in_without_reporting_fires(self):
        src = """
            class Policy(SchedulerPolicy):
                reports_priority_deltas = True

                def allocation(self, active_flows, now):
                    return build_request(active_flows)
        """
        assert codes(lint(src, path="src/repro/schedulers/example.py")) == [
            "SIM006"
        ]

    def test_opt_in_with_reporting_clean(self):
        src = """
            class Policy(SchedulerPolicy):
                reports_priority_deltas = True

                def promote(self, flow_id):
                    self._note_priority_change(flow_id)
        """
        assert lint(src, path="src/repro/schedulers/example.py").clean

    def test_opt_out_clean(self):
        src = """
            class Policy(SchedulerPolicy):
                reports_priority_deltas = False
        """
        assert lint(src, path="src/repro/schedulers/example.py").clean


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def test_targeted_pragma_suppresses(self):
        src = """
            def collect(items=[]):  # simlint: ignore[SIM005]
                return items
        """
        report = lint(src, path=OUT_PATH)
        assert report.clean
        assert report.suppressed == 1

    def test_pragma_for_other_code_does_not_suppress(self):
        src = """
            def collect(items=[]):  # simlint: ignore[SIM001]
                return items
        """
        assert codes(lint(src, path=OUT_PATH)) == ["SIM005"]

    def test_bare_pragma_suppresses_all_codes(self):
        src = """
            def collect(items=[]):  # simlint: ignore
                return items
        """
        assert lint(src, path=OUT_PATH).clean

    def test_skip_file_pragma(self):
        src = """
            # simlint: skip-file
            def collect(items=[]):
                return items
        """
        report = lint(src, path=OUT_PATH)
        assert report.clean
        assert report.files_checked == 1


# ----------------------------------------------------------------------
# Rule selection and the CLI contract
# ----------------------------------------------------------------------
class TestRunner:
    def test_select_restricts_rules(self):
        rules = select_rules(select=["SIM005"])
        assert [r.code for r in rules] == ["SIM005"]

    def test_ignore_removes_rules(self):
        rules = select_rules(ignore=["SIM005"])
        assert "SIM005" not in [r.code for r in rules]

    def test_unknown_code_rejected(self):
        with pytest.raises(SimlintUsageError):
            select_rules(select=["SIM999"])

    def test_syntax_error_is_usage_error(self):
        with pytest.raises(SimlintUsageError):
            lint_source("def broken(:\n", path=SIM_PATH)

    def test_cli_clean_exit(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def ok(now):\n    return now\n")
        assert main([str(target)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_cli_findings_exit_and_json(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def collect(items=[]):\n    return items\n")
        assert main([str(target), "--json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["files_checked"] == 1
        assert [f["code"] for f in payload["findings"]] == ["SIM005"]
        assert [f["layer"] for f in payload["findings"]] == ["file"]

    def test_cli_usage_exit_on_unknown_rule(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target), "--select", "SIM999"]) == EXIT_USAGE

    def test_cli_missing_path_is_usage_error(self, tmp_path):
        assert main([str(tmp_path / "missing.py")]) == EXIT_USAGE


# ----------------------------------------------------------------------
# Acceptance: the shipped tree lints clean
# ----------------------------------------------------------------------
def test_shipped_src_tree_is_clean(capsys):
    """What CI and ``make lint`` run: every layer over ``src``."""
    exit_code = main(["src", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert exit_code == EXIT_CLEAN
    assert payload["files_checked"] > 50
