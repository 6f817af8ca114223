"""Simulator self-instrumentation.

:class:`~repro.perf.collector.PerfCollector` holds event counters about
the simulator run itself (``Simulator.perf``), not the simulated
machine: the cycles the event-driven fast path skipped.  Host
throughput is measured by ``perfbench/`` and recorded in
``benchmarks/BENCH_perf.json`` by ``scripts/record_perf.py``.
"""

from repro.perf.collector import PerfCollector

__all__ = ["PerfCollector"]
