"""Tests for the deterministic fault-injection harness itself."""

import itertools

import pytest

from repro.errors import TraceFormatError
from repro.runner.faults import (
    Fault,
    FaultPlan,
    InjectedCrash,
    corrupt_trace_file,
    inject_faults,
)
from repro.trace.io import load_trace_list, save_trace
from repro.workloads import get_workload


def _records(n=50):
    return list(itertools.islice(get_workload("health", seed=1), n))


class TestFault:
    def test_noop_by_default(self):
        assert FaultPlan().faults == ()
        assert FaultPlan().in_run("p") == ()

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            Fault("crash", "p", index=-1)

    def test_picklable(self):
        import pickle

        plan = FaultPlan(
            [
                Fault("crash", "p", index=5, attempts=1),
                Fault("corrupt", "p", index=9),
                Fault("kill", "q"),
            ],
            seed=3,
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_in_run_slice_keeps_only_the_points_stream_faults(self):
        crash = Fault("crash", "p", index=5)
        plan = FaultPlan(
            [crash, Fault("kill", "p"), Fault("hang", "q", index=1)]
        )
        assert plan.in_run("p") == (crash,)

    def test_index_only_for_in_run_sites(self):
        with pytest.raises(ValueError, match="index"):
            Fault("crash", "p")
        with pytest.raises(ValueError, match="index"):
            Fault("kill", "p", index=3)

    def test_run_id_required_except_for_the_manifest(self):
        with pytest.raises(ValueError, match="run_id"):
            Fault("kill")
        with pytest.raises(ValueError, match="run_id"):
            Fault("manifest", "p")
        Fault("manifest", attempts=1)

    def test_attempts_gate(self):
        assert Fault("kill", "p").fires_on(99)
        once = Fault("kill", "p", attempts=1)
        assert once.fires_on(0) and not once.fires_on(1)
        with pytest.raises(ValueError, match="attempts"):
            Fault("kill", "p", attempts=0)


class TestInjection:
    def test_passthrough_without_faults(self):
        records = _records()
        assert list(inject_faults(iter(records), ())) == records

    def test_crash_at_exact_index(self):
        records = _records()
        faults = [Fault("crash", "p", index=10)]
        out = []
        with pytest.raises(InjectedCrash):
            for record in inject_faults(iter(records), faults):
                out.append(record)
        assert out == records[:10]  # records before the fault pass through

    def test_crash_is_deterministic_across_replays(self):
        faults = [Fault("crash", "p", index=7)]
        for _ in range(3):
            with pytest.raises(InjectedCrash):
                list(inject_faults(iter(_records()), faults))

    def test_crash_heals_after_crash_attempts(self):
        records = _records()
        faults = [Fault("crash", "p", index=10, attempts=2)]
        for attempt in (0, 1):
            with pytest.raises(InjectedCrash):
                list(inject_faults(iter(records), faults, attempt=attempt))
        healed = list(inject_faults(iter(records), faults, attempt=2))
        assert healed == records

    def test_corrupt_raises_trace_format_error(self):
        faults = [Fault("corrupt", "p", index=4)]
        with pytest.raises(TraceFormatError) as excinfo:
            list(inject_faults(iter(_records()), faults))
        assert excinfo.value.line_number == 6  # header + 1-based offset
        assert not excinfo.value.retryable

    def test_corrupt_wins_over_crash_at_same_index(self):
        faults = [
            Fault("crash", "p", index=4), Fault("corrupt", "p", index=4)
        ]
        with pytest.raises(TraceFormatError):
            list(inject_faults(iter(_records()), faults))

    def test_state_fault_reports_its_target(self):
        targets = []
        faults = [Fault("state.bus", "p", index=3)]
        out = list(inject_faults(iter(_records(10)), faults,
                                 on_corrupt_state=targets.append))
        assert targets == ["bus"]
        assert len(out) == 10


class TestCorruptTraceFile:
    def test_clobbers_one_line(self, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(path, iter(_records(20)))
        original = corrupt_trace_file(path, line_number=5)
        assert original  # the displaced record text is returned
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace_list(path)
        assert excinfo.value.line_number == 5
        assert "corrupt" in excinfo.value.line

    def test_non_strict_load_skips_the_corruption(self, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(path, iter(_records(20)))
        corrupt_trace_file(path, line_number=5)
        errors = []
        records = load_trace_list(path, strict=False, errors=errors)
        assert len(records) == 19
        assert len(errors) == 1

    def test_rejects_out_of_range_line(self, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(path, iter(_records(3)))
        with pytest.raises(ValueError):
            corrupt_trace_file(path, line_number=99)
