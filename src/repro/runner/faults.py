"""Deterministic fault injection for testing the campaign runner.

A :class:`FaultPlan` is a frozen, picklable, seeded list of
:class:`Fault` records, handed once to
:class:`~repro.runner.campaign.CampaignRunner` (``faults=plan``).  Each
record names a *site*, the ``run_id`` of the point it hits (the
manifest tear alone is campaign-wide), the record ``index`` for the
in-run sites, and an ``attempts`` gate.  The gate is the only firing
rule: the fault fires on the first ``attempts`` occurrences of its site
for its point (attempts, launches, appends, retries, or manifest
rewrites), or on every one when ``attempts`` is ``None``.  Because
every per-point site is keyed by ``run_id``, no fault depends on the
order in which a parallel campaign schedules or completes its points.

In-run sites fire inside the run's trace stream (:func:`inject_faults`);
the runner hands :func:`~repro.runner.campaign.execute_spec` the point's
slice of them (:meth:`FaultPlan.in_run`), gated by attempt number:

- ``crash`` — raise :class:`InjectedCrash` (a plain ``RuntimeError``)
  at record ``index``; the simulator classifies it as a retryable
  :class:`~repro.errors.SimulationError`, so ``attempts=1`` proves that
  retry recovers.
- ``hang`` — sleep an hour at record ``index``, modelling a wedged
  simulation.  Only a process-isolated runner with a timeout recovers;
  the runner rejects a hang without a timeout.  A
  snapshot-resumed retry past the index never replays the hang.
- ``corrupt`` — raise :class:`~repro.errors.TraceFormatError` at record
  ``index``: a malformed record found mid-stream by a lazy parser.
  Non-retryable by design.
- ``state.<target>`` — silently clobber a live simulator structure at
  record ``index`` (see :func:`corrupt_simulator_state`), *without
  raising anything*.  Only an enabled
  :class:`~repro.integrity.invariants.InvariantChecker` turns that into
  an :class:`~repro.errors.IntegrityError`.

Environment sites fire in the campaign's parent process, around the
runs, through a :class:`FaultLog` (the plan's stateful counterpart,
whose :meth:`~FaultLog.summary` is the manifest's ``chaos`` block):

- ``kill`` — SIGKILL the point's worker right after a launch; with
  ``attempts=None`` every launch dies and the point ends *poisoned*.
- ``enospc`` / ``torn`` — the point's checkpoint append fails before
  writing (ENOSPC) or after half the line is on disk (EIO).  The store
  queues the entry and retries it before the manifest is written.
- ``cache`` — bit-flip the point's prewarmed compiled trace before any
  worker loads it; the binfmt checksum turns that into a recompile.
- ``snapshot`` — bit-flip the point's resume snapshot before a retry;
  the snapshot CRC turns that into a quarantine plus a rerun.
- ``manifest`` — tear a manifest rewrite's temp file and abandon the
  ``os.replace``; atomic writes keep the previous manifest intact.

:func:`corrupt_trace_file` and :func:`corrupt_binary_file` damage
on-disk artifacts directly, for tests that want the *real* parser or
checksum to trip over *real* damage.
"""

from __future__ import annotations

import os
import random
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import TraceFormatError
from repro.trace.record import TraceRecord

#: Structures a ``state.<target>`` fault can clobber.
CORRUPT_STATE_TARGETS = ("mshr", "bus", "streambuf", "counter", "stats")

#: Sites that fire inside a run's trace stream, in the order they fire
#: when several share one record index.
IN_RUN_SITES = ("corrupt", "crash", "hang") + tuple(
    f"state.{target}" for target in CORRUPT_STATE_TARGETS
)

#: Sites that fire around runs, mapped to their manifest counter.
ENVIRONMENT_COUNTERS = {
    "enospc": "checkpoint_enospc",
    "torn": "checkpoint_torn",
    "kill": "worker_kills",
    "cache": "cache_corrupted",
    "snapshot": "snapshots_corrupted",
    "manifest": "manifest_torn",
}

#: How long a ``hang`` fault sleeps: far past any campaign timeout.
HANG_SECONDS = 3600.0


class InjectedCrash(RuntimeError):
    """The fault harness's stand-in for an arbitrary simulator crash."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: where, on which point, and how often."""

    site: str
    #: The point it hits; ``None`` only for the campaign-wide
    #: ``manifest`` site.
    run_id: Optional[str] = None
    #: 0-based record index, for the in-run sites only.
    index: Optional[int] = None
    #: Fire on the first ``attempts`` occurrences (``None`` = all).
    attempts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in IN_RUN_SITES + tuple(ENVIRONMENT_COUNTERS):
            raise ValueError(f"Fault.site: unknown site {self.site!r}")
        if (self.run_id is None) != (self.site == "manifest"):
            raise ValueError(
                f"Fault({self.site!r}).run_id: required for every site "
                "but 'manifest', which is campaign-wide"
            )
        if self.site in IN_RUN_SITES:
            if self.index is None or self.index < 0:
                raise ValueError(
                    f"Fault({self.site!r}).index: an in-run fault needs "
                    "a record index >= 0"
                )
        elif self.index is not None:
            raise ValueError(
                f"Fault({self.site!r}).index: only in-run sites take one"
            )
        if self.attempts is not None and self.attempts < 1:
            raise ValueError(f"Fault({self.site!r}).attempts: must be >= 1")

    def fires_on(self, occurrence: int) -> bool:
        """Does the fault fire on the 0-based ``occurrence`` of its site?"""
        return self.attempts is None or occurrence < self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """The seeded set of faults a campaign injects (empty = none).

    ``seed`` picks the bits that ``cache``/``snapshot`` faults flip.
    At most one fault per ``(site, run_id)``.
    """

    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        keys = Counter((fault.site, fault.run_id) for fault in self.faults)
        duplicates = sorted(key for key, count in keys.items() if count > 1)
        if duplicates:
            raise ValueError(
                f"FaultPlan: more than one fault at {duplicates}"
            )

    @property
    def sites(self) -> FrozenSet[str]:
        """Every site the plan schedules."""
        return frozenset(fault.site for fault in self.faults)

    def in_run(self, run_id: str) -> Tuple[Fault, ...]:
        """The point's in-run faults, for :func:`inject_faults`."""
        return tuple(
            fault for fault in self.faults
            if fault.run_id == run_id and fault.site in IN_RUN_SITES
        )

    @classmethod
    def scheduled(
        cls, seed: int, run_ids: Sequence[str], poison: int = 0
    ) -> "FaultPlan":
        """A deterministic environment-fault mix over ``run_ids``.

        ``poison`` points have every worker launch killed; of the rest,
        a quarter (at least one) are killed once.  A quarter of all
        points (at least one each) hit an ENOSPC or a torn checkpoint
        append, and every prewarmed cache entry is bit-flipped.  The
        same arguments always yield the same plan, so the expected
        tallies are exact: everything but the ``poison`` points must
        end ``ok``.
        """
        run_ids = list(run_ids)
        points = len(run_ids)
        if points <= 0:
            raise ValueError("FaultPlan.scheduled: run_ids must not be empty")
        if not 0 <= poison <= points:
            raise ValueError(
                "FaultPlan.scheduled: poison must be in 0..len(run_ids)"
            )
        rng = random.Random(seed)
        order = list(range(points))
        rng.shuffle(order)
        survivors = order[poison:]
        kills = min(len(survivors), max(1, round(len(survivors) / 4)))
        appends = max(1, round(points / 4))
        append_order = list(range(points))
        rng.shuffle(append_order)
        faults = [Fault("kill", run_ids[i]) for i in order[:poison]]
        faults += [
            Fault("kill", run_ids[i], attempts=1) for i in survivors[:kills]
        ]
        faults += [
            Fault("enospc", run_ids[i], attempts=1)
            for i in append_order[:appends]
        ]
        faults += [
            Fault("torn", run_ids[i], attempts=1)
            for i in append_order[appends : 2 * appends]
        ]
        faults += [Fault("cache", run_id) for run_id in run_ids]
        return cls(tuple(faults), seed=seed)


class FaultLog:
    """A campaign's record of the environment faults that fired.

    Counts each ``(site, run_id)`` occurrence the runner and the
    checkpoint store report, fires the plan's fault when its gate says
    so, and logs it; :meth:`summary` is the manifest's ``chaos`` block.
    """

    def __init__(self, plan: FaultPlan = FaultPlan()) -> None:
        self.plan = plan
        self._faults = {
            (fault.site, fault.run_id): fault for fault in self.plan.faults
        }
        self._seen: Dict[Tuple[str, Optional[str]], int] = {}
        self.counters = dict.fromkeys(ENVIRONMENT_COUNTERS.values(), 0)
        self.events: List[Dict[str, object]] = []

    def _due(self, site: str, run_id: Optional[str]) -> Optional[int]:
        """Count one occurrence; its number when the fault fires."""
        fault = self._faults.get((site, run_id))
        if fault is None:
            return None
        occurrence = self._seen.get((site, run_id), 0)
        self._seen[(site, run_id)] = occurrence + 1
        return occurrence if fault.fires_on(occurrence) else None

    def _record(
        self, site: str, run_id: Optional[str], occurrence: int
    ) -> None:
        self.counters[ENVIRONMENT_COUNTERS[site]] += 1
        self.events.append(
            {"site": site, "run_id": run_id, "occurrence": occurrence}
        )

    def fire(self, site: str, run_id: Optional[str] = None) -> bool:
        """Count one occurrence of ``site``; True (and logged) if it fires."""
        occurrence = self._due(site, run_id)
        if occurrence is None:
            return False
        self._record(site, run_id, occurrence)
        return True

    def corrupt(self, site: str, run_id: str, path: Optional[str]) -> bool:
        """Count one occurrence; bit-flip ``path`` (if any) if it fires."""
        occurrence = self._due(site, run_id)
        if occurrence is None or path is None or not os.path.exists(path):
            return False
        try:
            corrupt_binary_file(path, "bitflip", seed=self.plan.seed)
        except OSError:
            return False
        self._record(site, run_id, occurrence)
        return True

    def corrupt_cache(self, warmed: Dict[str, List[str]]) -> None:
        """Bit-flip each prewarmed entry at most once.

        ``warmed`` maps each entry's path to the ``run_id``\\ s reading
        it; the flip is logged under the first of them with a ``cache``
        fault.
        """
        for path, run_ids in warmed.items():
            for run_id in run_ids:
                if self.corrupt("cache", run_id, path):
                    break

    def summary(self) -> Dict[str, object]:
        """The JSON-able ``chaos`` block embedded in the manifest."""
        return {
            "seed": self.plan.seed,
            "counters": dict(self.counters),
            "events": list(self.events),
        }


def inject_faults(
    records: Iterable[TraceRecord],
    faults: Sequence[Fault],
    attempt: int = 0,
    on_corrupt_state: Optional[Callable[[str], None]] = None,
) -> Iterator[TraceRecord]:
    """Yield ``records``, firing the in-run ``faults`` at their indices.

    ``attempt`` is the 0-based retry attempt of the surrounding run; it
    is the occurrence each fault's ``attempts`` gate counts, so a
    transient fault "heals" after a retry while everything else stays
    byte-identical.  ``on_corrupt_state`` receives the target of a
    ``state.<target>`` fault — the caller binds it to the live
    simulator (the trace stream cannot reach inside the machine).
    """
    armed: Dict[int, List[Fault]] = {}
    for fault in sorted(faults, key=lambda f: IN_RUN_SITES.index(f.site)):
        if fault.fires_on(attempt):
            armed.setdefault(fault.index, []).append(fault)
    for index, record in enumerate(records):
        for fault in armed.get(index, ()):
            if fault.site == "corrupt":
                raise TraceFormatError(
                    f"injected corrupt record at index {index}",
                    line_number=index + 2,  # +1 header, +1 to 1-based
                    line="<injected>",
                )
            if fault.site == "crash":
                raise InjectedCrash(
                    f"injected crash at record {index} (attempt {attempt})"
                )
            if fault.site == "hang":
                time.sleep(HANG_SECONDS)
            elif on_corrupt_state is not None:
                on_corrupt_state(fault.site[len("state."):])
        yield record


def corrupt_simulator_state(simulator, target: str) -> None:
    """Deterministically clobber one structure of a live simulator.

    Every recipe produces a state that is *silently* wrong — nothing
    raises here — but that provably violates the named invariant, so an
    enabled checker must convert it into an
    :class:`~repro.errors.IntegrityError`:

    - ``mshr`` — phantom in-flight entries appear in the L1 MSHR file
      without matching allocations (violates ``l1.mshr.balance``, and
      ``l1.mshr.capacity`` once past the file size).
    - ``bus`` — a zero-length reservation lands on the L1-L2 bus
      (violates ``l1_l2_bus.reservation``).
    - ``streambuf`` — buffer 0 is deallocated while an entry still
      holds a block (violates ``streambuf[0].stale``).
    - ``counter`` — buffer 0's priority counter escapes its saturation
      bound (violates ``streambuf[0].priority.bounds``).
    - ``stats`` — the hierarchy reports more demand misses than demand
      accesses (violates ``stats.consistency``).
    """
    from repro.streambuf.buffer import EntryState

    hierarchy = simulator.hierarchy
    controller = simulator.controller
    if target in ("streambuf", "counter") and not hasattr(
        controller, "buffers"
    ):
        raise ValueError(
            f"state.{target} fault needs a stream-buffer configuration "
            "(the machine has no buffers to corrupt)"
        )
    if target == "mshr":
        mshr = hierarchy.l1_mshr
        base = 0x7FF0_0000
        for index in range(mshr.num_entries + 2):
            mshr._inflight.setdefault(base + index * 64, 1 << 60)
    elif target == "bus":
        start = 1 << 40  # far future: drain() never prunes it away
        hierarchy.l1_l2_bus._reservations.append((start, start))
    elif target == "streambuf":
        buffer = controller.buffers[0]
        entry = buffer.entries[0]
        entry.state = EntryState.READY
        entry.block = 0xDEAD_0000
        buffer.allocated = False
        buffer.state = None
    elif target == "counter":
        counter = controller.buffers[0].priority
        counter.value = counter.maximum + 7
    elif target == "stats":
        hierarchy.demand_misses = hierarchy.demand_accesses + 10
    else:
        raise ValueError(f"unknown corrupt-state target: {target!r}")


def corrupt_trace_file(
    path: str, line_number: int, garbage: str = "!! corrupt record !!"
) -> str:
    """Overwrite 1-based ``line_number`` of the trace at ``path``.

    Returns the original line text so tests can assert against it.  The
    header is line 1; the first record is line 2.
    """
    with open(path) as handle:
        lines = handle.readlines()
    if not 1 <= line_number <= len(lines):
        raise ValueError(
            f"line {line_number} out of range (file has {len(lines)} lines)"
        )
    original = lines[line_number - 1].rstrip("\n")
    lines[line_number - 1] = garbage + "\n"
    with open(path, "w") as handle:
        handle.writelines(lines)
    return original


def corrupt_binary_file(path: str, mode: str, seed: int = 0) -> None:
    """Deterministically damage the binary file at ``path``.

    ``mode="truncate"`` cuts the file to 60% of its size;
    ``mode="bitflip"`` flips one seeded bit somewhere in the file.
    Used against compiled traces and snapshots — both damages must be
    caught by the artifact's checksum on load.
    """
    if mode not in ("truncate", "bitflip"):
        raise ValueError(f"corrupt_binary_file: unknown mode {mode!r}")
    size = os.path.getsize(path)
    if size == 0:
        return
    if mode == "truncate":
        with open(path, "r+b") as handle:
            handle.truncate(max(1, (size * 3) // 5))
        return
    rng = random.Random(seed ^ zlib.crc32(os.path.basename(path).encode()))
    offset = rng.randrange(size)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ (1 << rng.randrange(8))]))
