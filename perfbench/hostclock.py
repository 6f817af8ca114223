"""Host time rescaled to a reference host speed.

A shared VM does not run at one speed: other tenants of the machine slow
a pure-Python loop by up to ~1.7x for seconds to minutes at a time, far
more than any change the benchmark is meant to show.  So the benchmark
probes the host's current speed between the units it times (points,
legs, set-ups) with a fixed loop of its own -- list lookups and integer
arithmetic, no code from ``src/`` -- and rescales each stretch of host
time by ``REFERENCE_S / probe``, the probe's time on a reference host
over its time right now.  A reported second is then a host second at
the reference speed; a change to the program moves it, the neighbours'
load much less.

The raw host times are printed beside the rescaled ones.
"""

from __future__ import annotations

import itertools
import statistics
import time

#: Seconds one probe takes on the reference host: the median reading on
#: a 2-vCPU VM with CPython 3.11.7.  Only ratios against it are used.
REFERENCE_S = 0.002
#: Steps of the probe loop: about REFERENCE_S on the reference host.
STEPS = 20_000
#: Probe loops per reading; a reading is their median.
REPEATS = 5

_SIZE = 4093
_TABLE = [[(index * 7919 + 1) % _SIZE, index] for index in range(_SIZE)]


def _chase(steps: int) -> int:
    table = _TABLE
    slot = total = 0
    for _ in range(steps):
        entry = table[slot]
        total += entry[1]
        slot = entry[0]
    return total


class HostClock:
    """Probe readings over time, and host time rescaled by them."""

    def __init__(self) -> None:
        #: (start, end, probe seconds), in time order
        self.readings = []

    def probe(self) -> None:
        """Take a reading of the host's speed now."""
        start = time.perf_counter()
        samples = []
        for _ in range(REPEATS):
            began = time.perf_counter()
            _chase(STEPS)
            samples.append(time.perf_counter() - began)
        self.readings.append(
            (start, time.perf_counter(), statistics.median(samples))
        )

    def seconds(self, start: float, end: float) -> float:
        """Host time from ``start`` to ``end`` at the reference speed.

        Readings taken inside the interval are left out of it.  Each
        stretch between two readings is scaled by the mean of the two;
        a stretch with a reading on one side only uses that one.
        """
        total = 0.0
        cursor = start
        before = None
        for began, ended, probe in self.readings:
            if ended <= start:
                before = probe
                continue
            if began >= end:
                total += self._scaled(end - cursor, before, probe)
                return total
            total += self._scaled(began - cursor, before, probe)
            cursor, before = ended, probe
        return total + self._scaled(end - cursor, before, None)

    def probed(self, records, every: int):
        """Yield ``records``, taking a reading after every ``every``.

        A unit that runs for seconds may see the host change speed in
        its middle; readings inside it let :meth:`seconds` follow.
        """
        source = iter(records)
        while True:
            chunk = itertools.islice(source, every)
            first = next(chunk, None)
            if first is None:
                return
            yield first
            yield from chunk
            self.probe()

    @staticmethod
    def _scaled(span, before, after):
        known = [probe for probe in (before, after) if probe is not None]
        if not known:
            raise ValueError("no probe reading near the interval")
        return max(span, 0.0) * REFERENCE_S / statistics.mean(known)
