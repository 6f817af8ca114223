"""Event-driven fast path vs. cycle stepping: bit-identical, always.

The fast path (``SimConfig.event_driven``) may only change *when* the
core's clock advances, never *what* any cycle does.  These tests pin
that contract for every registered workload: identical
``SimulationResult`` fields, identical golden-model verdicts, identical
behaviour under full invariant checking, and identical mid-run
snapshots (same cycle, same records consumed, and a snapshot taken in
one mode resumes to the other mode's final answer).
"""

import dataclasses
import itertools

import pytest

from repro.config import InvariantLevel
from repro.integrity import golden_check, run_golden
from repro.sim import Simulator, baseline_config, paper_configs
from repro.workloads import get_workload, workload_names

N = 6_000


def _records(name, count):
    return list(itertools.islice(get_workload(name, seed=1), count))


def _run(config, records, warmup, snapshot_every=None, snapshot_sink=None):
    return Simulator(config).run(
        iter(records),
        max_instructions=N,
        warmup_instructions=warmup,
        snapshot_every=snapshot_every,
        snapshot_sink=snapshot_sink,
    )


def _pair(config, records, warmup=N // 3, **kwargs):
    """(stepped result, event result) on the same records."""
    stepped = _run(config.with_event_driven(False), records, warmup, **kwargs)
    event = _run(config.with_event_driven(True), records, warmup, **kwargs)
    return stepped, event


def _assert_identical(stepped, event):
    assert dataclasses.asdict(stepped) == dataclasses.asdict(event)


class TestEquivalencePerWorkload:
    @pytest.mark.parametrize("name", workload_names())
    def test_baseline_machine(self, name):
        records = _records(name, N * 2)
        _assert_identical(*_pair(baseline_config(), records))

    @pytest.mark.parametrize("name", workload_names())
    def test_psb_machine_with_full_invariants(self, name):
        # The paper's stream-buffer machine, with every invariant sweep
        # enabled: the checker observes identical machine states in
        # both modes, and neither run trips it.
        config = paper_configs()["ConfAlloc-Priority"].with_invariants(
            InvariantLevel.FULL
        )
        records = _records(name, N * 2)
        stepped, event = _pair(config, records)
        _assert_identical(stepped, event)
        assert event.extra["invariant_checks"] > 0

    @pytest.mark.parametrize("name", workload_names())
    def test_golden_check_agrees(self, name):
        # Golden-model validation needs warmup 0 (reset discards events
        # the functional model counts).
        records = _records(name, N * 2)
        golden = run_golden(baseline_config(), iter(records), N)
        stepped, event = _pair(baseline_config(), records, warmup=0)
        _assert_identical(stepped, event)
        for result in (stepped, event):
            report = golden_check(result, golden, warmup_instructions=0)
            assert report.ok, report.summary()
        assert golden_check(stepped, golden).timed_miss_rate == golden_check(
            event, golden
        ).timed_miss_rate


class TestSnapshotEquivalence:
    @pytest.mark.parametrize("name", ["health", "turb3d"])
    def test_snapshots_align_and_resume_across_modes(self, name):
        records = _records(name, N * 2)
        config = baseline_config()
        every = 2_000

        taken = {}
        for mode in (False, True):
            snaps = []
            taken[mode] = snaps
            _run(
                config.with_event_driven(mode),
                records,
                warmup=0,
                snapshot_every=every,
                snapshot_sink=snaps.append,
            )
        stepped_snaps, event_snaps = taken[False], taken[True]
        assert len(stepped_snaps) == len(event_snaps) > 0
        for left, right in zip(stepped_snaps, event_snaps):
            assert left.cycle == right.cycle
            assert left.cycle % every == 0
            assert left.records_consumed == right.records_consumed

        # A mid-run event-mode snapshot resumes to the same final
        # result an uninterrupted stepped run produces, and vice versa.
        stepped_full = _run(config.with_event_driven(False), records, 0)
        event_full = _run(config.with_event_driven(True), records, 0)
        _assert_identical(stepped_full, event_full)
        middle = len(event_snaps) // 2
        for snapshot in (event_snaps[middle], stepped_snaps[middle]):
            resumed = snapshot.resume(iter(records))
            resumed.extra.pop("resumed_from_cycle")
            _assert_identical(stepped_full, resumed)
