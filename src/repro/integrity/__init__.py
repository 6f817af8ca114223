"""Simulation integrity layer.

Three pillars, three modules:

- :mod:`repro.integrity.invariants` — runtime invariant checking: an
  :class:`InvariantChecker` registered against simulator hook points
  (per-cycle, per-miss, per-prefetch) verifies conservation laws on the
  live machine and raises :class:`repro.errors.IntegrityError` with a
  structured state dump the moment one breaks.
- :mod:`repro.integrity.golden` — differential validation against a
  small, obviously-correct functional model of the cache hierarchy.
- :mod:`repro.integrity.snapshot` — deterministic mid-run snapshot and
  resume, bit-identical to an uninterrupted run.
"""

from repro.integrity.golden import GoldenReport, GoldenStats, golden_check, run_golden
from repro.integrity.invariants import (
    InvariantChecker,
    check_bus,
    check_cache,
    check_counter,
    check_mshr,
    check_stream_buffers,
)
from repro.integrity.snapshot import SimSnapshot

__all__ = [
    "GoldenReport",
    "GoldenStats",
    "InvariantChecker",
    "SimSnapshot",
    "check_bus",
    "check_cache",
    "check_counter",
    "check_mshr",
    "check_stream_buffers",
    "golden_check",
    "run_golden",
]
