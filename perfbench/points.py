"""The benchmark's workloads: inputs built in setup, then timed passes.

Every workload runs its points one after another in this process: no
worker pool, no process isolation.  A host-speed probe reading (see
``hostclock.py``) is taken before every point and at the end of a pass;
points and passes record their raw start and end, which ``run.py``
rescales.  Every knob is pinned here rather
than taken from library defaults, so a change of default (the sampling
shape, say) reaches the benchmark only through a change to this file.

- ``fig5-detailed``: the detailed ``compare`` matrix -- the six paper
  workloads crossed with Base and the five Figure 5 prefetchers.  Each
  workload's records are materialised once in setup and replayed per
  machine, so the core, memory, stream-buffer and predictor layers do
  almost all the work.
- ``sampled-run``: ``run health --sample`` at 1M records on one machine
  of each class, with the generator streaming records lazily exactly as
  the CLI does, so trace production and fast-forward dominate.
- ``sweep-cached``: ``sweep --no-isolate --campaign-dir`` over the six
  paper workloads x {Base, Stride, PSB}, sampled, with traces decoded
  from a ``.rtb`` cache compiled in setup: the trace layer's read path
  and the campaign runner.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from typing import List, Optional

from layers import TimedIterator

from repro.config import InvariantLevel, SamplingConfig, SimConfig
from repro.runner import CampaignRunner, RunSpec, WorkloadSpec
from repro.sim.presets import (
    baseline_config,
    paper_configs,
    psb_config,
    stride_config,
)
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator
from repro.workloads.cache import cache_stats, prewarm_workload_trace
from repro.workloads.registry import PAPER_WORKLOADS, get_workload

#: Records per Figure 5 point: ``compare``'s default, warm-up a third.
FIG5_INSTRUCTIONS = 50_000
#: ROADMAP's 1M-record sampled run.
SAMPLED_INSTRUCTIONS = 1_000_000
SAMPLED_WORKLOAD = "health"
#: Records per sweep point (one compiled ``.rtb`` entry per workload).
SWEEP_INSTRUCTIONS = 100_000
#: Records between two host-speed readings inside a point (untraced).
FIG5_PROBE_EVERY = 10_000
SAMPLED_PROBE_EVERY = 100_000
#: The stratified, timing-aware shape, spelled out field by field.
SAMPLING = SamplingConfig(
    period=50_000, window=1_000, warmup=500, strata=4, warm_confidence=True
)


def pinned(config: SimConfig, sampling: Optional[SamplingConfig] = None):
    """``config`` with every run-mode knob set explicitly."""
    return replace(
        config,
        event_driven=True,
        invariants=InvariantLevel.OFF,
        metrics_interval=None,
        warmup_instructions=0,
        max_cycles=None,
        sampling=sampling,
    )


def three_classes(sampling: SamplingConfig):
    """(machine, class, config) for Base, Stride and PSB ConfAlloc-Priority."""
    return [
        ("Base", "base", pinned(baseline_config(), sampling)),
        ("Stride", "stride", pinned(stride_config(), sampling)),
        ("ConfAlloc-Priority", "psb", pinned(psb_config(), sampling)),
    ]


def digest(result: SimulationResult) -> str:
    """Hash of every simulated statistic of a point (label excluded).

    Covers cycles, instructions, IPC, miss and prefetch counters and,
    for sampled points, the per-window rows in ``extra``.
    """
    payload = asdict(result)
    payload.pop("label")
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Point:
    """One simulated point of a pass and when it ran."""

    workload: str
    machine: str
    machine_class: str
    records: int
    #: ``time.perf_counter()`` at the point's start and end
    began: float
    ended: float
    result: Optional[SimulationResult]

    @property
    def ident(self) -> str:
        return f"{self.workload}/{self.machine}"


@dataclass
class Pass:
    """Everything one pass produced."""

    began: float
    ended: float
    points: List[Point]
    #: Violated pass-level checks (not tied to one point).
    problems: List[str]
    traced: bool = False


def _span(tracer, boundary, ident):
    return tracer.span(boundary, ident) if tracer is not None else nullcontext()


def _simulate(config, records, instructions, warmup, label):
    """One point; a raising point is reported, not fatal."""
    try:
        return Simulator(config).run(
            records,
            max_instructions=instructions,
            warmup_instructions=warmup,
            label=label,
        )
    except Exception:
        traceback.print_exc()
        return None


class Figure5:
    """The detailed Figure 5 matrix on pre-built records."""

    name = "fig5-detailed"

    def __init__(self, seed: int, scratch: str, clock) -> None:
        self.seed = seed
        self.clock = clock
        self.machines = [("Base", "base", pinned(baseline_config()))] + [
            (label, "stride" if label == "Stride" else "psb", pinned(config))
            for label, config in paper_configs().items()
        ]
        self.records = {}

    def setup(self, tracer=None) -> None:
        self.records = {}  # so a repeated set-up never holds two copies
        records = {}
        for workload in PAPER_WORKLOADS:
            source = get_workload(workload, seed=self.seed)
            if tracer is not None:
                source = TimedIterator(tracer, source)
            records[workload] = list(
                itertools.islice(source, FIG5_INSTRUCTIONS)
            )
        self.records = records

    def run_pass(self, tracer=None) -> Pass:
        points = []
        start = time.perf_counter()
        for workload in PAPER_WORKLOADS:
            records = self.records[workload]
            for machine, machine_class, config in self.machines:
                ident = f"{workload}/{machine}"
                self.clock.probe()
                with _span(tracer, "point", ident):
                    began = time.perf_counter()
                    result = _simulate(
                        config,
                        records if tracer is not None
                        else self.clock.probed(records, FIG5_PROBE_EVERY),
                        FIG5_INSTRUCTIONS,
                        FIG5_INSTRUCTIONS // 3, machine,
                    )
                    ended = time.perf_counter()
                points.append(
                    Point(workload, machine, machine_class,
                          FIG5_INSTRUCTIONS, began, ended, result)
                )
        self.clock.probe()
        return Pass(start, time.perf_counter(), points, [])


class SampledRun:
    """``run health --sample`` at 1M records, generator streamed lazily."""

    name = "sampled-run"

    def __init__(self, seed: int, scratch: str, clock) -> None:
        self.seed = seed
        self.clock = clock
        self.machines = []

    def setup(self, tracer=None) -> None:
        self.machines = three_classes(SAMPLING)

    def run_pass(self, tracer=None) -> Pass:
        points = []
        start = time.perf_counter()
        for machine, machine_class, config in self.machines:
            ident = f"{SAMPLED_WORKLOAD}/{machine}"
            self.clock.probe()
            with _span(tracer, "leg", ident):
                began = time.perf_counter()
                source = get_workload(SAMPLED_WORKLOAD, seed=self.seed)
                if tracer is not None:
                    source = TimedIterator(tracer, source)
                else:
                    source = self.clock.probed(source, SAMPLED_PROBE_EVERY)
                result = _simulate(
                    config, source, SAMPLED_INSTRUCTIONS, 0, machine
                )
                ended = time.perf_counter()
            points.append(
                Point(SAMPLED_WORKLOAD, machine, machine_class,
                      SAMPLED_INSTRUCTIONS, began, ended, result)
            )
        self.clock.probe()
        return Pass(start, time.perf_counter(), points, [])


class CachedSweep:
    """An inline campaign over ``.rtb``-cached traces."""

    name = "sweep-cached"

    def __init__(self, seed: int, scratch: str, clock) -> None:
        self.seed = seed
        self.scratch = scratch
        self.clock = clock
        self.cache = None
        self.specs = []
        self.classes = {}

    def setup(self, tracer=None) -> None:
        # A fresh cache directory per set-up, so each one pays the full
        # compile and nothing leaks in from an earlier one.
        if self.cache is not None:
            shutil.rmtree(self.cache, ignore_errors=True)
        self.cache = tempfile.mkdtemp(prefix="rtb-", dir=self.scratch)
        os.environ["REPRO_TRACE_CACHE"] = self.cache
        for workload in PAPER_WORKLOADS:
            if not prewarm_workload_trace(
                workload, seed=self.seed, instructions=SWEEP_INSTRUCTIONS
            ):
                raise RuntimeError(f"cannot compile the {workload} trace")
        self.specs = []
        for workload in PAPER_WORKLOADS:
            for machine, machine_class, config in three_classes(SAMPLING):
                run_id = f"{workload}/{machine}"
                self.classes[run_id] = machine_class
                self.specs.append(
                    RunSpec(
                        run_id=run_id,
                        config=config,
                        trace=WorkloadSpec(workload, seed=self.seed),
                        max_instructions=SWEEP_INSTRUCTIONS,
                        warmup_instructions=0,
                    )
                )

    def run_pass(self, tracer=None) -> Pass:
        campaign_dir = tempfile.mkdtemp(prefix="campaign-", dir=self.scratch)
        runner = CampaignRunner(
            campaign_dir,
            workers=1,
            retries=0,
            on_error="skip",
            isolation="inline",
        )
        # Probe before each point and time it here; the tracer's point
        # span, installed after, encloses the probe, so the probe never
        # lands in the runner's self time.
        times = {}
        run_spec = runner._run_spec

        def timed_run_spec(spec, *args, **kwargs):
            self.clock.probe()
            began = time.perf_counter()
            try:
                return run_spec(spec, *args, **kwargs)
            finally:
                times[spec.run_id] = (began, time.perf_counter())

        runner._run_spec = timed_run_spec
        if tracer is not None:
            runner.run = tracer.wrap_span(runner.run, "runner.run")
            runner._run_spec = tracer.wrap_span(
                runner._run_spec, "runner.point",
                ident_of=lambda spec, *rest: spec.run_id,
            )
        before = cache_stats()
        start = time.perf_counter()
        campaign = runner.run(self.specs)
        self.clock.probe()
        end = time.perf_counter()
        after = cache_stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        if tracer is not None:
            tracer.count("trace.cache_hits", hits)
            tracer.count("trace.cache_misses", misses)
        problems = []
        if hits != len(self.specs) or misses:
            problems.append(
                f"trace cache: {hits} hits, {misses} misses for "
                f"{len(self.specs)} points (compile work leaked out of "
                "set-up)"
            )
        status = (campaign.manifest or {}).get("status")
        if status != "complete":
            problems.append(f"campaign manifest status {status!r}")
        try:
            with open(os.path.join(campaign_dir, "checkpoint.jsonl")) as handle:
                lines = sum(1 for line in handle if line.strip())
        except OSError:
            lines = 0
        if lines != len(self.specs):
            problems.append(f"checkpoint has {lines} lines, not "
                            f"{len(self.specs)}")
        shutil.rmtree(campaign_dir, ignore_errors=True)
        points = []
        for spec in self.specs:
            outcome = campaign.outcomes.get(spec.run_id)
            workload, machine = spec.run_id.split("/", 1)
            began, ended = times.get(spec.run_id, (end, end))
            points.append(
                Point(
                    workload, machine, self.classes[spec.run_id],
                    SWEEP_INSTRUCTIONS, began, ended,
                    outcome.result if outcome is not None and outcome.ok
                    else None,
                )
            )
        return Pass(start, end, points, problems)


WORKLOADS = {cls.name: cls for cls in (Figure5, SampledRun, CachedSweep)}
