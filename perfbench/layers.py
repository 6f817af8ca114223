"""Per-layer host-time tracing for the benchmark's traced run.

The traced run wraps the public calls between the simulator's layers
from here, inside the benchmark process only; nothing under ``src/`` is
changed.  Class and module attributes are patched by :meth:`Tracer.install`
and restored by :meth:`Tracer.uninstall`; every :class:`Simulator` built
while installed also gets instance-level wrappers on its core, memory
hierarchy, stream-buffer controller, scheduler, sharing policy and
predictor.  ``OutOfOrderCore.advance`` and ``FastForwardEngine.replay``
hoist ``hierarchy.access``, ``prefetcher.tick`` and the warm hooks from
the instance at entry, so wrappers installed at construction are the ones
the hot loops call.

Hot per-record boundaries are aggregated (calls, total, self); a layer's
self time is its span minus the child spans it covers.  Full spans
(name, id, start, end, parent) are kept only for coarse boundaries -- a
pass, a point, a leg, a fast-forward gap, a campaign -- held in memory and
written out when the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Aggregated boundary timings plus coarse spans for one process."""

    def __init__(self) -> None:
        #: boundary -> [calls, total seconds, self seconds]
        self.stats = {}
        #: counters read where the work happens (instructions, misses)
        self.counts = {}
        #: coarse spans: [name, id, start, end, parent index]
        self.spans = []
        self._origin = time.perf_counter()
        # Child time of each open call; the bottom entry is a sentinel
        # that absorbs top-level time so wrappers never test for it.
        self._stack = [0.0]
        self._open = []
        self._undo = []

    # -- accounting ----------------------------------------------------

    def _stat(self, boundary):
        return self.stats.setdefault(boundary, [0, 0.0, 0.0])

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def take(self):
        """Return and zero the stats and counts gathered so far."""
        stats = {key: list(value) for key, value in self.stats.items()}
        counts = dict(self.counts)
        for value in self.stats.values():
            value[:] = [0, 0.0, 0.0]
        self.counts.clear()
        return stats, counts

    def wrap(self, fn, boundary):
        """A timing wrapper for a hot per-record call."""
        stat = self._stat(boundary)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                stack[-1] += elapsed

        return traced

    @contextmanager
    def span(self, boundary, ident=None):
        """Time a coarse boundary and keep its full span."""
        stat = self._stat(boundary)
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [boundary, ident, 0.0, 0.0, parent]
        self.spans.append(record)
        self._open.append(index)
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            elapsed = end - start
            child = self._stack.pop()
            self._open.pop()
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - child
            self._stack[-1] += elapsed
            record[2] = round(start - self._origin, 6)
            record[3] = round(end - self._origin, 6)

    def wrap_span(self, fn, boundary, ident_of=None):
        """A wrapper that records a coarse span around each call."""
        def traced(*args, **kwargs):
            ident = ident_of(*args) if ident_of is not None else None
            with self.span(boundary, ident):
                return fn(*args, **kwargs)

        return traced

    # -- installation --------------------------------------------------

    def _patch(self, owner, name, replacement):
        self._undo.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Patch the class- and module-level boundaries."""
        import repro.workloads.cache as trace_cache
        from repro.sampling.fastforward import FastForwardEngine
        from repro.sim.simulator import Simulator

        timed_init = self.wrap(Simulator.__init__, "sim.build")
        tracer = self

        def init(simulator, *args, **kwargs):
            timed_init(simulator, *args, **kwargs)
            tracer.instrument(simulator)

        self._patch(Simulator, "__init__", init)
        self._patch(
            FastForwardEngine, "replay",
            self.wrap_span(FastForwardEngine.replay, "sampling.ff"),
        )
        self._patch(
            trace_cache, "cached_workload_trace",
            self.wrap(trace_cache.cached_workload_trace, "trace.decode"),
        )

    def uninstall(self) -> None:
        """Undo :meth:`install`, newest patch first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def instrument(self, simulator) -> None:
        """Instance-level wrappers on one freshly built machine."""
        core = simulator.core
        perf = simulator.perf
        advance = self.wrap(core.advance, "cpu.advance")
        count = self.count

        def counted_advance(source, state, *args, **kwargs):
            retired, cycle = state.retired, state.cycle
            skipped = perf.get("core.cycles_skipped")
            try:
                return advance(source, state, *args, **kwargs)
            finally:
                count("cpu.instructions", state.retired - retired)
                count("cpu.cycles", state.cycle - cycle)
                count(
                    "cpu.cycles_skipped",
                    perf.get("core.cycles_skipped") - skipped,
                )

        core.advance = counted_advance

        hierarchy = simulator.hierarchy
        access = self.wrap(hierarchy.access, "memory.access")

        def counted_access(*args, **kwargs):
            result = access(*args, **kwargs)
            if result.l1_miss:
                count("memory.l1_misses", 1)
            return result

        hierarchy.access = counted_access
        hierarchy.issue_prefetch = self.wrap(
            hierarchy.issue_prefetch, "memory.issue_prefetch"
        )

        controller = simulator.controller
        if controller is None:
            return  # Base: no stream buffers, no predictor
        for name in ("probe", "on_l1_miss", "tick", "next_event_cycle",
                     "warm_l1_miss", "warm_confidence"):
            self._wrap_method(controller, name, "streambuf")
        for name in ("pick_for_prediction", "pick_for_prefetch"):
            self._wrap_method(controller.scheduler, name, "streambuf.sched")
        for name in ("wants_prediction", "take_entry", "release_entry",
                     "release_stream"):
            self._wrap_method(controller.sharing, name, "streambuf.sharing")
        for name in ("train", "next_prediction", "make_stream_state", "warm"):
            self._wrap_method(controller.predictor, name, "predictors")

    def _wrap_method(self, instance, name, layer) -> None:
        setattr(
            instance, name,
            self.wrap(getattr(instance, name), f"{layer}.{name}"),
        )


class TimedIterator:
    """Times ``next()`` on a workload generator (the workloads layer)."""

    __slots__ = ("_next",)

    def __init__(self, tracer: Tracer, iterable) -> None:
        self._next = tracer.wrap(iter(iterable).__next__, "workloads.next")

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def _calls(stats, key):
    return stats.get(key, [0, 0.0, 0.0])[0]


def _total(stats, key):
    return stats.get(key, [0, 0.0, 0.0])[1]


def _self(stats, prefix):
    """Self seconds summed over every boundary named ``prefix*``."""
    return sum(
        value[2] for key, value in stats.items() if key.startswith(prefix)
    )


def _per(numerator, denominator, scale=1.0):
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(stats, counts, results):
    """The per-layer metrics from one traced pass.

    ``results`` are the pass's :class:`SimulationResult` objects, which
    carry the useful-outcome counters (prefetches used, allocations
    denied, fast-forwarded records) the wrappers do not see.
    """
    gen_s = _total(stats, "workloads.next")
    gen_records = _calls(stats, "workloads.next")
    cpu_self = _self(stats, "cpu.")
    instructions = counts.get("cpu.instructions", 0)
    cycles = counts.get("cpu.cycles", 0)
    skipped = counts.get("cpu.cycles_skipped", 0)
    memory_self = _self(stats, "memory.")
    accesses = _calls(stats, "memory.access")
    predictor_self = _self(stats, "predictors.")
    predictor_calls = sum(
        value[0] for key, value in stats.items()
        if key.startswith("predictors.")
    )
    ff_self = _self(stats, "sampling.ff")
    ff_records = sum(
        result.extra.get("ff_instructions", 0.0) for result in results
    )
    runner_self = _self(stats, "runner.run")
    points = _calls(stats, "runner.point")
    issued = sum(result.prefetches_issued for result in results)
    used = sum(result.prefetches_used for result in results)
    allocs = sum(result.sb_allocations for result in results)
    denied = sum(result.sb_allocations_denied for result in results)
    cache_hits = counts.get("trace.cache_hits", 0)
    cache_misses = counts.get("trace.cache_misses", 0)
    return {
        "workloads.gen_s": (gen_s, "s"),
        "workloads.records": (gen_records, "count"),
        "workloads.us_per_record": (_per(gen_s, gen_records, 1e6), "us"),
        "trace.decode_s": (_total(stats, "trace.decode"), "s"),
        "trace.cache_hits": (cache_hits, "count"),
        "trace.cache_misses": (cache_misses, "count"),
        "cpu.self_s": (cpu_self, "s"),
        "cpu.instructions": (instructions, "count"),
        "cpu.cycles": (cycles, "count"),
        "cpu.cycles_skipped": (skipped, "count"),
        "cpu.skip_frac": (_per(skipped, cycles), "ratio"),
        "cpu.us_per_instr": (_per(cpu_self, instructions, 1e6), "us"),
        "memory.self_s": (memory_self, "s"),
        "memory.accesses": (accesses, "count"),
        "memory.l1_misses": (counts.get("memory.l1_misses", 0), "count"),
        "memory.prefetch_issues": (
            _calls(stats, "memory.issue_prefetch"), "count"
        ),
        "memory.us_per_access": (_per(memory_self, accesses, 1e6), "us"),
        "streambuf.self_s": (_self(stats, "streambuf."), "s"),
        "streambuf.probe_calls": (_calls(stats, "streambuf.probe"), "count"),
        "streambuf.tick_calls": (_calls(stats, "streambuf.tick"), "count"),
        "streambuf.sched.self_s": (_self(stats, "streambuf.sched."), "s"),
        "streambuf.sharing.self_s": (
            _self(stats, "streambuf.sharing."), "s"
        ),
        "streambuf.prefetch_accuracy": (_per(used, issued), "ratio"),
        "streambuf.alloc_denied_frac": (
            _per(denied, allocs + denied), "ratio"
        ),
        "predictors.self_s": (predictor_self, "s"),
        "predictors.calls": (predictor_calls, "count"),
        "predictors.us_per_call": (
            _per(predictor_self, predictor_calls, 1e6), "us"
        ),
        "sampling.ff.self_s": (ff_self, "s"),
        "sampling.ff.records": (ff_records, "count"),
        "sampling.ff.us_per_record": (_per(ff_self, ff_records, 1e6), "us"),
        "sampling.detailed_frac": (
            _per(instructions, instructions + ff_records), "ratio"
        ),
        "runner.self_s": (runner_self, "s"),
        "runner.points": (points, "count"),
        "runner.ms_per_point": (_per(runner_self, points, 1e3), "ms"),
        "sim.build_s": (_total(stats, "sim.build"), "s"),
    }
