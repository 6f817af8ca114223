"""Sampled vs detailed simulation: the error and speedup contract.

Not a paper figure: this gates the SMARTS-style sampling subsystem
(docs/performance.md, "Sampling") that the fast campaigns rely
on.  Every workload in ``BENCH_sampling.json`` runs, over one cached
1M-record trace, four legs at the shape that baseline states:

- **detailed** on the PSB machine and on the baseline machine, the
  references;
- **sampled**, the classic ``period:window:warmup`` shape with default
  knobs, timed against the detailed PSB run for the effective speedup;
- **tuned**, the same shape plus stratified placement and timing-aware
  predictor warm-up;
- **paired**, a matched-pair ``run_paired`` of the baseline machine vs
  PSB over one shared window grid.

Five contracts per workload, each against the baseline's stated values:
the two detailed references are bit-identical; the classic leg is
bit-identical (its absolute error is pinned, not bounded: window
placement makes it phase-sensitive); the tuned leg is bit-identical
with IPC error <= ``ipc_error_bound``; the paired leg is bit-identical
with relative-IPC error <= ``paired_error_bound``; the classic leg's
speedup reaches ``speedup_floor`` x (1 - ``SPEEDUP_TOLERANCE``), a
wall-clock ratio of two back-to-back runs with slack for load noise.

Re-pin after a change that means to move these numbers, on an otherwise
idle machine::

    PYTHONPATH=src python benchmarks/bench_sampling_error.py --pin
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import subprocess
import sys
import time

import pytest

from repro.cli import MACHINES
from repro.sampling.paired import run_paired
from repro.sim import Simulator
from repro.workloads import cached_workload_trace

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_sampling.json")
#: Slack on the speedup floor for machine-load noise.
SPEEDUP_TOLERANCE = 0.25

with open(BASELINE_PATH) as _handle:
    BASELINE = json.load(_handle)


def _timed_run(config, records, instructions, label):
    simulator = Simulator(config)
    start = time.perf_counter()
    result = simulator.run(
        iter(records), max_instructions=instructions,
        warmup_instructions=0, label=label,
    )
    return result, time.perf_counter() - start


@functools.lru_cache(maxsize=None)
def measure(name: str) -> dict:
    """Run workload ``name``'s four legs at the baseline's stated shape."""
    instructions = BASELINE["instructions"]
    sample = BASELINE["sample"]
    tuned = BASELINE["tuned_sample"]
    paired_shape = BASELINE["paired_sample"]
    config = MACHINES[BASELINE["machine"]]()
    base_config = MACHINES[BASELINE["baseline_machine"]]()
    records = cached_workload_trace(
        name, seed=BASELINE["seed"], instructions=instructions
    )

    detailed, detailed_wall = _timed_run(
        config, records, instructions, f"{name}:detailed"
    )
    base_detailed, base_wall = _timed_run(
        base_config, records, instructions, f"{name}:base-detailed"
    )
    sampled, sampled_wall = _timed_run(
        config.with_sampling(**sample), records, instructions,
        f"{name}:sampled",
    )
    tuned_run, tuned_wall = _timed_run(
        config.with_sampling(**sample, **tuned), records, instructions,
        f"{name}:tuned",
    )
    assert detailed.ipc > 0.0 and base_detailed.ipc > 0.0, (
        f"detailed run of {name!r} retired nothing; the error is undefined"
    )
    paired_start = time.perf_counter()
    paired = run_paired(
        {
            BASELINE["baseline_machine"]: base_config.with_sampling(
                **paired_shape
            ),
            BASELINE["machine"]: config.with_sampling(**paired_shape),
        },
        records,
        max_instructions=instructions,
        baseline=BASELINE["baseline_machine"],
    )
    paired_wall = time.perf_counter() - paired_start
    stats = paired.pairs[BASELINE["machine"]]
    detailed_rel = detailed.ipc / base_detailed.ipc
    return {
        "detailed": {
            "ipc": round(detailed.ipc, 6),
            "cycles": detailed.cycles,
            "instructions": detailed.instructions,
            "wall_s": round(detailed_wall, 4),
        },
        "base_detailed": {
            "ipc": round(base_detailed.ipc, 6),
            "cycles": base_detailed.cycles,
            "wall_s": round(base_wall, 4),
        },
        "sampled": {
            "ipc": round(sampled.ipc, 6),
            "windows": int(sampled.extra.get("windows", 0)),
            "ipc_ci95": round(sampled.extra.get("ipc_ci95", 0.0), 6),
            "measured_instructions": int(
                sampled.extra.get("measured_instructions", 0)
            ),
            "wall_s": round(sampled_wall, 4),
        },
        "tuned": {
            "ipc": round(tuned_run.ipc, 6),
            "windows": int(tuned_run.extra.get("windows", 0)),
            "ipc_ci95": round(tuned_run.extra.get("ipc_ci95", 0.0), 6),
            "ipc_error": round(
                abs(tuned_run.ipc - detailed.ipc) / detailed.ipc, 6
            ),
            "wall_s": round(tuned_wall, 4),
        },
        "paired": {
            "rel_ipc": round(stats.rel_ipc, 6),
            "detailed_rel_ipc": round(detailed_rel, 6),
            "rel_err": round(
                abs(stats.rel_ipc - detailed_rel) / detailed_rel, 6
            ),
            "ratio_mean": round(stats.ratio_mean, 6),
            "ratio_ci95": round(stats.ratio_ci95, 6),
            "windows": stats.windows,
            "wall_s": round(paired_wall, 4),
        },
        "ipc_error": round(abs(sampled.ipc - detailed.ipc) / detailed.ipc, 6),
        "speedup": round(
            detailed_wall / sampled_wall if sampled_wall > 0 else 0.0, 2
        ),
    }


def _fields(entry: dict, leg: str, names) -> dict:
    return {name: entry[leg][name] for name in names}


WORKLOADS = sorted(BASELINE["results"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_detailed_references_bit_identical(name):
    entry, pinned = measure(name), BASELINE["results"][name]
    fields = ("cycles", "instructions", "ipc")
    assert _fields(entry, "detailed", fields) == _fields(
        pinned, "detailed", fields
    )
    fields = ("cycles", "ipc")
    assert _fields(entry, "base_detailed", fields) == _fields(
        pinned, "base_detailed", fields
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_classic_leg_bit_identical(name):
    entry, pinned = measure(name), BASELINE["results"][name]
    fields = ("ipc", "windows")
    assert _fields(entry, "sampled", fields) == _fields(
        pinned, "sampled", fields
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_tuned_leg_bit_identical_and_within_bound(name):
    entry, pinned = measure(name), BASELINE["results"][name]
    fields = ("ipc", "windows")
    assert _fields(entry, "tuned", fields) == _fields(pinned, "tuned", fields)
    assert entry["tuned"]["ipc_error"] <= BASELINE["ipc_error_bound"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_paired_leg_bit_identical_and_within_bound(name):
    entry, pinned = measure(name), BASELINE["results"][name]
    fields = ("rel_ipc", "windows")
    assert _fields(entry, "paired", fields) == _fields(
        pinned, "paired", fields
    )
    assert entry["paired"]["rel_err"] <= BASELINE["paired_error_bound"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_classic_speedup_clears_floor(name):
    floor = BASELINE["speedup_floor"] * (1.0 - SPEEDUP_TOLERANCE)
    assert measure(name)["speedup"] >= floor


def pin() -> None:
    """Re-measure every workload and rewrite ``BENCH_sampling.json``.

    The stated shape and bounds are kept; only the measurements and the
    provenance (time, git rev, Python, platform) change.
    """
    report = dict(BASELINE)
    report.update(
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        git_rev=subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip(),
        python=platform.python_version(),
        platform=platform.platform(),
        results={name: measure(name) for name in WORKLOADS},
    )
    with open(BASELINE_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(WORKLOADS)} workloads in {BASELINE_PATH}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--pin", action="store_true",
        help="re-measure and rewrite BENCH_sampling.json",
    )
    if parser.parse_args().pin:
        pin()
    else:
        sys.exit(pytest.main(["-q", __file__]))
