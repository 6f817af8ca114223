"""Event-driven fast path vs. cycle stepping: bit-identical, always.

The fast path (``SimConfig.event_driven``) may only change *when* the
core's clock advances, never *what* any cycle does.  These tests pin
that contract for every registered workload: identical
``SimulationResult`` fields, identical golden-model verdicts, identical
behaviour under full invariant checking, and identical mid-run
snapshots (same cycle, same records consumed, and a snapshot taken in
one mode resumes to the other mode's final answer).

It also pins, exactly, how many cycles the fast path skips on the paper
workloads: a change that silently loses cycle skipping keeps every
result bit-identical and only shows up there.
"""

import dataclasses
import itertools

import pytest

from repro.config import InvariantLevel
from repro.integrity import golden_check, run_golden
from repro.sim import Simulator, baseline_config, paper_configs
from repro.workloads import PAPER_WORKLOADS, get_workload, workload_names

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


#: Records per visited-cycle pin, all retired (warm-up 0).
PIN_RECORDS = 10_000

#: (workload, machine, cycles, cycles skipped by the fast path) at
#: ``PIN_RECORDS`` records of seed 1.  ``cycles`` is the simulated
#: answer; ``cycles - skipped`` is the number of cycles the core loop
#: visits, the loop's cost.  Re-pin only with a change that means to
#: alter the fast path's horizon.
VISITED_CYCLE_PINS = [
    ("health", "base", 148642, 143496),
    ("health", "stride", 142117, 136986),
    ("health", "psb", 143069, 137902),
    ("burg", "base", 48223, 44275),
    ("burg", "stride", 46588, 42401),
    ("burg", "psb", 43591, 16983),
    ("deltablue", "base", 101496, 97371),
    ("deltablue", "stride", 101536, 97340),
    ("deltablue", "psb", 101536, 97340),
    ("gs", "base", 111122, 106006),
    ("gs", "stride", 109281, 104296),
    ("gs", "psb", 104830, 98644),
    ("sis", "base", 23879, 19627),
    ("sis", "stride", 22209, 16650),
    ("sis", "psb", 22350, 12532),
    ("turb3d", "base", 9471, 7258),
    ("turb3d", "stride", 8583, 6053),
    ("turb3d", "psb", 8738, 6182),
]

PIN_MACHINES = {
    "base": baseline_config,
    "stride": lambda: paper_configs()["Stride"],
    "psb": lambda: paper_configs()["ConfAlloc-Priority"],
}


def _cycles_and_skipped(name, machine, event_driven=True):
    config = PIN_MACHINES[machine]().with_event_driven(event_driven)
    simulator = Simulator(config)
    result = simulator.run(
        iter(_records(name, PIN_RECORDS)),
        max_instructions=PIN_RECORDS,
        warmup_instructions=0,
    )
    return result.cycles, int(simulator.perf.get("core.cycles_skipped"))


class TestVisitedCyclePins:
    def test_pins_cover_the_paper_matrix(self):
        assert {(name, machine) for name, machine, _, _ in
                VISITED_CYCLE_PINS} == {
            (name, machine)
            for name in PAPER_WORKLOADS for machine in PIN_MACHINES
        }

    @pytest.mark.parametrize(
        "name,machine,cycles,skipped", VISITED_CYCLE_PINS
    )
    def test_fast_path_skips_the_pinned_cycles(
        self, name, machine, cycles, skipped
    ):
        assert _cycles_and_skipped(name, machine) == (cycles, skipped)

    def test_lost_cycle_skipping_fails_the_pin(self):
        # A loop that visits every cycle gives the same answer but
        # skips nothing, which the pin rejects.
        name, machine, cycles, skipped = VISITED_CYCLE_PINS[0]
        stepped = _cycles_and_skipped(name, machine, event_driven=False)
        assert stepped == (cycles, 0)
        assert stepped != (cycles, skipped)
