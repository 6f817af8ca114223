"""SMARTS-style systematic sampling over the detailed simulator.

The detailed core costs microseconds of CPython per instruction; the
structural fix (ROADMAP: "Raw speed") is to stop simulating every
instruction in detail.  This package extends the functional golden
model's idea (:mod:`repro.integrity.golden`) into a **fast-forward
engine** (:mod:`repro.sampling.fastforward`) that warms the *detailed
machine's own* L1/L2 tag state, gshare predictor, and prefetcher tables
at trace-replay speed, and a **sampling driver**
(:mod:`repro.sampling.driver`) that alternates fast-forward gaps with
detailed measured windows and stitches per-window IPC into a whole-trace
estimate with a confidence interval.

Enable it with :meth:`repro.config.SimConfig.with_sampling` or
``repro-sim run/sweep --sample PERIOD:WINDOW:WARMUP``; the detailed
path is untouched when ``SimConfig.sampling`` is ``None``.

For machine *comparisons* use the matched-pair driver
(:mod:`repro.sampling.paired`, ``repro-sim compare --sample`` or
``sweep --sample-paired``): sampling every machine over the same window
grid cancels the fast-forward cold-start bias in relative-IPC and
speedup estimates — the quantities the paper's figures actually report.
"""

from repro.sampling.driver import run_sampled
from repro.sampling.fastforward import FastForwardEngine
from repro.sampling.paired import PairedResult, PairStats, run_paired

__all__ = [
    "FastForwardEngine",
    "PairStats",
    "PairedResult",
    "run_paired",
    "run_sampled",
]
