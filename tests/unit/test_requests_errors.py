"""Unit tests for allocation requests, dispatch, and the error hierarchy."""

import re

import pytest

from repro import errors
from repro.errors import ReproError, SchedulerError
from repro.simulator.bandwidth.request import (
    MAX_SWITCH_CLASSES,
    AllocationMode,
    AllocationRequest,
    dispatch_allocation,
)


class TestAllocationRequest:
    def test_defaults(self):
        request = AllocationRequest()
        assert request.mode is AllocationMode.MAXMIN
        assert request.num_classes == 4
        assert request.priorities == {}

    def test_class_count_bounds(self):
        AllocationRequest(num_classes=1)
        AllocationRequest(num_classes=MAX_SWITCH_CLASSES)
        with pytest.raises(SchedulerError):
            AllocationRequest(num_classes=0)
        with pytest.raises(SchedulerError):
            AllocationRequest(num_classes=MAX_SWITCH_CLASSES + 1)

    def test_dispatch_each_mode(self):
        flow_routes = {1: (0,), 2: (0,)}
        capacities = [10.0]
        for mode in AllocationMode:
            request = AllocationRequest(
                mode=mode, priorities={1: 0, 2: 1}, num_classes=2
            )
            rates = dispatch_allocation(request, flow_routes, capacities)
            assert set(rates) == {1, 2}
            assert sum(rates.values()) <= 10.0 + 1e-6

    def test_maxmin_ignores_priorities(self):
        request = AllocationRequest(
            mode=AllocationMode.MAXMIN, priorities={1: 0, 2: 3}
        )
        rates = dispatch_allocation(request, {1: (0,), 2: (0,)}, [10.0])
        assert rates[1] == pytest.approx(rates[2])


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not ReproError:
                    assert issubclass(obj, ReproError) or obj is ReproError

    def test_trace_error_is_workload_error(self):
        assert issubclass(errors.TraceFormatError, errors.WorkloadError)

    def test_dag_cycle_is_invalid_job(self):
        assert issubclass(errors.DagCycleError, errors.InvalidJobError)


class TestCliFigure:
    def test_figure_fig8_tiny(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "fig8.json"
        code = main(
            ["figure", "fig8", "--jobs", "3", "--out", str(out_path)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "fig8-fb-tao" in printed
        # The run summary every grid-shaped subcommand prints.
        assert re.search(r"^engine: 1/1 units, 1 worker\(s\)", printed, re.M)
        assert out_path.exists()
