"""Deterministic mid-run snapshot and resume.

A snapshot captures the *entire* machine — caches, MSHRs, buses, stream
buffers, predictor tables, the core's in-flight window — plus the run
bookkeeping (a detailed :class:`repro.cpu.core._RunState` or a sampled
run's ``_SamplingState``), as one pickle taken at a cycle boundary.
The trace iterator itself is deliberately **not** captured: traces here
are deterministic (workload generators seeded, or files), so a resume
rebuilds the trace from its source and skips the ``records_consumed``
records the snapshotted run already pulled.

:meth:`SimSnapshot.resume` is the one resume path for both modes: it
hands the restored state to :meth:`repro.sim.simulator.Simulator._drive`,
the same driver a fresh run goes through, so the result is
bit-identical to an uninterrupted run, which the test suite asserts
field-for-field.  A campaign run killed by a timeout or a crash resumes
from its last snapshot file instead of restarting from instruction
zero.
"""

from __future__ import annotations

import itertools
import os
import pickle
import uuid
import zlib
from typing import Iterable, Optional

from repro.errors import SimulationError
from repro.trace.record import TraceRecord


class SimSnapshot:
    """One resumable machine state, pickled at a cycle boundary.

    The machine lives in an opaque ``payload`` blob; :meth:`restore`
    deserializes a *fresh* object graph on every call, so one snapshot
    can seed many independent resumes (and resuming never aliases the
    simulator that produced it).
    """

    __slots__ = (
        "payload", "cycle", "records_consumed", "label", "checksum", "mode"
    )

    def __init__(
        self,
        payload: bytes,
        cycle: int,
        records_consumed: int,
        label: str,
        mode: str = "detailed",
    ) -> None:
        self.payload = payload
        self.cycle = cycle
        self.records_consumed = records_consumed
        self.label = label
        self.checksum = zlib.crc32(payload) & 0xFFFFFFFF
        #: Which driver captured this snapshot: ``"detailed"`` payloads
        #: hold ``(simulator, _RunState)`` pairs, ``"sampled"`` ones hold
        #: ``(simulator, _SamplingState)``.  :meth:`resume` needs no tag
        #: (it dispatches on the restored state); a campaign point
        #: checks it against its spec before resuming a file from disk.
        self.mode = mode

    @classmethod
    def capture(
        cls, simulator, state, label: str = "run", mode: str = "detailed"
    ) -> "SimSnapshot":
        """Freeze ``simulator`` + its run ``state`` into a snapshot."""
        payload = pickle.dumps(
            (simulator, state), protocol=pickle.HIGHEST_PROTOCOL
        )
        return cls(
            payload, state.cycle, state.records_consumed, label, mode=mode
        )

    def verify(self) -> None:
        """Raise :class:`SimulationError` if the payload was modified.

        The checksum is taken over the machine-state pickle at capture
        time, so a bit flip anywhere in the (dominant) payload blob is
        caught before :meth:`restore` can deserialize garbage machine
        state into a resumed run.
        """
        found = zlib.crc32(self.payload) & 0xFFFFFFFF
        if found != self.checksum:
            raise SimulationError(
                f"corrupt snapshot {self.label!r}: payload CRC32 is "
                f"{found:#010x}, captured as {self.checksum:#010x}"
            )

    def restore(self):
        """A fresh ``(simulator, run_state)`` pair from the payload."""
        self.verify()
        return pickle.loads(self.payload)

    def resume(
        self,
        trace: Iterable[TraceRecord],
        label: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        snapshot_sink=None,
    ):
        """Continue the snapshotted run to completion.

        ``trace`` must be (a fresh instance of) the same deterministic
        trace the original run consumed; the first ``records_consumed``
        records are skipped.  The restored state picks the driver body
        (detailed or sampled), and the result is the
        :class:`~repro.sim.results.SimulationResult` an uninterrupted
        run would return, with ``extra["resumed_from_cycle"]`` marking
        the seam.  ``label`` defaults to the snapshot's.
        """
        simulator, state = self.restore()
        result = simulator._drive(
            state,
            itertools.islice(iter(trace), self.records_consumed, None),
            label if label is not None else self.label,
            snapshot_every,
            snapshot_sink,
        )
        result.extra["resumed_from_cycle"] = float(self.cycle)
        return result

    def save(self, path: str) -> None:
        """Write atomically: a reader never sees a torn snapshot."""
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        tmp_path = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        try:
            with open(tmp_path, "wb") as handle:
                pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass

    @classmethod
    def load(cls, path: str) -> "SimSnapshot":
        """Read and verify a snapshot file.

        Any failure — unreadable file, torn/truncated pickle, a payload
        whose CRC32 disagrees with the captured checksum — surfaces as
        :class:`SimulationError`, never a raw ``pickle``/``EOFError``
        traceback, so callers can quarantine the file and restart the
        run from scratch.
        """
        try:
            with open(path, "rb") as handle:
                snapshot = pickle.load(handle)
        except SimulationError:
            raise
        except Exception as error:
            raise SimulationError(
                f"cannot read snapshot {path!r}: "
                f"{type(error).__name__}: {error}"
            )
        if not isinstance(snapshot, cls):
            raise SimulationError(
                f"{path!r} does not contain a simulation snapshot"
            )
        snapshot.verify()
        return snapshot

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        # Snapshots written before the checksum slot existed verify
        # against their own payload (no integrity claim either way).
        if "checksum" not in state:
            self.checksum = zlib.crc32(self.payload) & 0xFFFFFFFF
        # Snapshots written before sampling existed were all detailed.
        if "mode" not in state:
            self.mode = "detailed"

    def __repr__(self) -> str:
        return (
            f"SimSnapshot({self.label!r} @ cycle {self.cycle}, "
            f"{self.records_consumed} records, "
            f"{len(self.payload)} bytes)"
        )
