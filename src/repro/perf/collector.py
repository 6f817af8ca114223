"""Event counters for the simulator itself.

A :class:`PerfCollector` measures the *simulator*, never the simulated
machine: today, the cycles the event-driven fast path skipped
(``core.cycles_skipped``), which host-throughput tooling reads to tell
visited from skipped cycles.  It is deliberately cheap — a dict update
per event bucket — so it can stay attached even when nobody reads it.

Collectors are **excluded from simulation snapshots**: pickling one
yields an empty collector.  This keeps snapshot/replay bit-identical
regardless of which mode (event-driven or stepped) produced a snapshot.
"""

from __future__ import annotations

from typing import Dict


class PerfCollector:
    """Named monotonically-growing counters."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}

    def add(self, name: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into counter ``name``."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def get(self, name: str, default: float = 0.0) -> float:
        """Counter ``name``'s total so far (``default`` if never added)."""
        return self.counters.get(name, default)

    # Snapshots capture the whole simulator object graph; the collector
    # deliberately contributes nothing so fast-path and stepped runs
    # produce bit-identical payloads.

    def __getstate__(self):
        return {}

    def __setstate__(self, state):
        self.counters = {}
