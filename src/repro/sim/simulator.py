"""The top-level simulator: core + hierarchy + prefetcher, one call.

:func:`simulate` is the main entry point of the library::

    from repro.sim import simulate, baseline_config
    from repro.workloads import get_workload

    result = simulate(baseline_config(), get_workload("health", seed=1),
                      max_instructions=50_000, warmup_instructions=5_000)
    print(result.ipc)

Runs are driven in cycle *chunks* so two orthogonal features can hook
cycle boundaries without touching the core's hot loop:

- **invariant checking** (``config.invariants``): an
  :class:`~repro.integrity.invariants.InvariantChecker` sweeps the
  machine every cycle (``full``) or every ``invariant_sample_period``
  cycles (``cheap``);
- **snapshotting** (``snapshot_every``): a resumable
  :class:`~repro.integrity.snapshot.SimSnapshot` is handed to
  ``snapshot_sink`` at fixed cycle boundaries;
- **metrics sampling** (``config.metrics_interval``): the
  :mod:`repro.obs` registry reads every probe into a time series at
  fixed cycle boundaries.

With all off the run is a single uninterrupted call into the core —
the fast path is unchanged.  Because sampling happens at driver stop
boundaries (which clamp, never alter, the event-driven horizon),
samples land on the same cycles in event-driven and cycle-stepped
modes, and results stay bit-identical with observation on or off.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from repro.config import SimConfig
from repro.cpu.core import OutOfOrderCore, _RunState
from repro.errors import ReproError, SimulationError
from repro.integrity.invariants import build_checker
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import EventTrace, build_observability, wire_simulator
from repro.perf.collector import PerfCollector
from repro.sim.results import SimulationResult
from repro.streambuf.controller import build_prefetcher
from repro.trace.record import TraceRecord


class Simulator:
    """One fully wired machine: reusable across runs of the same config.

    ``event_trace`` optionally attaches a :class:`repro.obs.EventTrace`
    that components emit structured events into; metrics sampling is
    controlled by ``config.metrics_interval``.  Both default off.
    """

    def __init__(
        self, config: SimConfig, event_trace: Optional[EventTrace] = None
    ) -> None:
        self.config = config
        self.hierarchy = MemoryHierarchy(config)
        # A StreamBufferController for the stream-buffer kinds, or a
        # demand-based PrefetcherPort for the Section 3.2 baselines.
        self.controller = build_prefetcher(
            config.prefetch, config.l1_data.block_size
        )
        if self.controller is not None:
            self.controller.attach(self.hierarchy)
        self.core = OutOfOrderCore(
            config.core, self.hierarchy, event_driven=config.event_driven
        )
        # None when config.invariants is OFF; otherwise wired to the
        # hierarchy so per-miss/per-prefetch hooks fire from inside it.
        self.checker = build_checker(config, self.hierarchy, self.controller)
        self.hierarchy.integrity = self.checker
        # Fast-path counters.  The collector pickles empty, so snapshots
        # stay bit-identical whichever mode produced them.
        self.perf = PerfCollector()
        self.core.perf = self.perf
        # Metrics + event tracing (repro.obs).  Like the perf collector,
        # the context pickles disabled so observation never leaks into
        # snapshot payloads.
        self.obs = build_observability(config, event_trace)
        wire_simulator(self.obs, self)

    def run(
        self,
        trace: Iterable[TraceRecord],
        max_instructions: Optional[int] = None,
        warmup_instructions: Optional[int] = None,
        label: str = "run",
        snapshot_every: Optional[int] = None,
        snapshot_sink: Optional[Callable] = None,
    ) -> SimulationResult:
        """Simulate ``trace`` and gather post-warm-up statistics.

        ``snapshot_every`` (cycles) periodically captures a resumable
        :class:`~repro.integrity.snapshot.SimSnapshot` and passes it to
        ``snapshot_sink``.
        """
        warmup = (
            warmup_instructions
            if warmup_instructions is not None
            else self.config.warmup_instructions
        )
        if self.config.sampling is not None:
            # SMARTS-style systematic sampling: the sampling body of
            # _drive runs it (lazy import keeps the detailed path free
            # of any sampling machinery).  Warm-up is per measured
            # window (SamplingConfig.warmup), so a whole-run warm-up
            # would be double-counted.
            if warmup:
                raise SimulationError(
                    "sampled runs take their warm-up from "
                    "SamplingConfig.warmup; run-level "
                    f"warmup_instructions={warmup} must be 0"
                )
            from repro.sampling.driver import _SamplingState

            state = _SamplingState(max_instructions)
        else:
            state = self.core.begin_run(
                max_instructions=max_instructions,
                warmup_instructions=warmup,
            )
        return self._drive(
            state, iter(trace), label, snapshot_every, snapshot_sink
        )

    def _drive(
        self,
        state,
        source: Iterator[TraceRecord],
        label: str = "run",
        snapshot_every: Optional[int] = None,
        snapshot_sink: Optional[Callable] = None,
    ) -> SimulationResult:
        """Advance ``state`` to completion and build the result.

        The one driver of every run, fresh (:meth:`run`) or resumed
        (:meth:`repro.integrity.snapshot.SimSnapshot.resume`): it
        validates ``snapshot_every`` and turns unexpected crashes into
        :class:`SimulationError`, then runs the detailed body for a
        ``_RunState`` or the sampling body
        (:mod:`repro.sampling.driver`) for a ``_SamplingState``.
        """
        if snapshot_every is not None and snapshot_every <= 0:
            raise SimulationError(
                f"snapshot_every must be positive, got {snapshot_every}"
            )
        if isinstance(state, _RunState):
            body = self._run_detailed
        else:
            from repro.sampling.driver import _drive_sampled

            body = partial(_drive_sampled, self)
        try:
            return body(state, source, label, snapshot_every, snapshot_sink)
        except ReproError:
            # Already classified (e.g. a TraceFormatError surfacing from a
            # lazily-parsed trace iterator, or an IntegrityError from a
            # checker hook): keep the precise category.
            raise
        except Exception as error:
            raise SimulationError(
                f"simulation {label!r} crashed: "
                f"{type(error).__name__}: {error}"
            ) from error

    def _reset_warmup_stats(self) -> None:
        """Zero the statistics at a warm-up boundary (run or window)."""
        self.hierarchy.reset_stats()
        if self.controller is not None:
            self.controller.reset_stats()
        if self.checker is not None:
            self.checker.note_reset()

    def _run_detailed(
        self,
        state: _RunState,
        source: Iterator[TraceRecord],
        label: str,
        snapshot_every: Optional[int],
        snapshot_sink: Optional[Callable],
    ) -> SimulationResult:
        """The detailed body of :meth:`_drive`: one timed run."""
        checker = self.checker
        obs = self.obs
        metrics_stride = (
            obs.sample_interval if obs.metrics_enabled else None
        )
        if metrics_stride is not None:
            obs.bind_run(state)
            obs.metrics.sample(state.cycle)
        self._advance_loop(
            state,
            source,
            label,
            snapshot_every,
            snapshot_sink,
            metrics_stride,
            obs.trace,
        )
        if metrics_stride is not None:
            # Final row: sample() dedups if the run ended exactly on a
            # periodic boundary already sampled inside the loop.
            obs.metrics.sample(state.cycle)
        stats = self.core.finish_run(state)
        hierarchy = self.hierarchy
        controller = self.controller
        return SimulationResult(
            label=label,
            instructions=stats.retired,
            cycles=stats.cycles,
            ipc=stats.ipc,
            l1_miss_rate=hierarchy.demand_miss_rate,
            avg_load_latency=stats.load_latency.mean,
            load_fraction=stats.load_fraction,
            store_fraction=stats.store_fraction,
            branch_misprediction_rate=self.core.branch_predictor.misprediction_rate,
            l1_l2_bus_utilization=hierarchy.l1_l2_bus.utilization(stats.cycles),
            l2_mem_bus_utilization=hierarchy.l2_mem_bus.utilization(stats.cycles),
            prefetches_issued=getattr(controller, "prefetches_issued", 0),
            prefetches_used=getattr(controller, "prefetches_used", 0),
            prefetch_accuracy=getattr(controller, "accuracy", 0.0),
            sb_allocations=getattr(controller, "allocations", 0),
            sb_allocations_denied=getattr(controller, "allocations_denied", 0),
            forwarded_loads=stats.forwarded_loads,
            tlb_miss_rate=hierarchy.tlb.miss_rate,
            extra={
                # Raw counts the golden-model differential check needs
                # (rates alone cannot express its conservation laws).
                "demand_accesses": float(hierarchy.demand_accesses),
                "demand_misses": float(hierarchy.demand_misses),
                "l1_mshr_merges": float(hierarchy.l1_mshr.merges),
                "loads": float(stats.loads),
                "stores": float(stats.stores),
                "branches": float(stats.branches),
                "invariant_checks": float(
                    checker.checks_run if checker is not None else 0
                ),
            },
        )

    def _advance_loop(
        self,
        state: _RunState,
        source: Iterator[TraceRecord],
        label: str = "run",
        snapshot_every: Optional[int] = None,
        snapshot_sink: Optional[Callable] = None,
        metrics_stride: Optional[int] = None,
        event_trace: Optional[EventTrace] = None,
    ) -> None:
        """Advance ``state`` until its run or window finishes.

        Stops at every cycle boundary an invariant sweep, a snapshot or
        a metrics sample falls on; with none of them it is one
        uninterrupted call into the core.  Sampled windows pass only
        ``state`` and ``source``, so their stops are the invariant
        sweeps alone.
        """
        checker = self.checker
        check_stride = checker.stride if checker is not None else None
        on_warmup_end = self._reset_warmup_stats
        if (
            check_stride is None
            and snapshot_every is None
            and metrics_stride is None
        ):
            # Fast path: one uninterrupted call into the core.
            self.core.advance(source, state, on_warmup_end=on_warmup_end)
            return
        emit_integrity = (
            event_trace is not None
            and checker is not None
            and event_trace.wants("integrity")
        )
        while True:
            stops = []
            if check_stride is not None:
                stops.append(
                    (state.cycle // check_stride + 1) * check_stride
                )
            if snapshot_every is not None:
                stops.append(
                    (state.cycle // snapshot_every + 1) * snapshot_every
                )
            if metrics_stride is not None:
                stops.append(
                    (state.cycle // metrics_stride + 1) * metrics_stride
                )
            finished = self.core.advance(
                source,
                state,
                on_warmup_end=on_warmup_end,
                stop_cycle=min(stops),
            )
            if checker is not None:
                checker.on_cycle(state.cycle)
                if emit_integrity:
                    event_trace.emit(
                        state.cycle, "integrity", "sweep",
                        checks_run=checker.checks_run,
                    )
            if (
                metrics_stride is not None
                and state.cycle % metrics_stride == 0
            ):
                self.obs.metrics.sample(state.cycle)
            if finished:
                break
            if (
                snapshot_sink is not None
                and snapshot_every is not None
                and state.cycle % snapshot_every == 0
            ):
                from repro.integrity.snapshot import SimSnapshot

                snapshot_sink(SimSnapshot.capture(self, state, label))


def simulate(
    config: SimConfig,
    trace: Iterable[TraceRecord],
    max_instructions: Optional[int] = None,
    warmup_instructions: Optional[int] = None,
    label: str = "run",
    snapshot_every: Optional[int] = None,
    snapshot_sink: Optional[Callable] = None,
    event_trace: Optional[EventTrace] = None,
) -> SimulationResult:
    """Build a fresh machine for ``config`` and run ``trace`` through it.

    ``event_trace`` attaches structured event tracing (see
    :mod:`repro.obs.tracing`); metrics sampling follows
    ``config.metrics_interval``.
    """
    return Simulator(config, event_trace=event_trace).run(
        trace,
        max_instructions=max_instructions,
        warmup_instructions=warmup_instructions,
        label=label,
        snapshot_every=snapshot_every,
        snapshot_sink=snapshot_sink,
    )
