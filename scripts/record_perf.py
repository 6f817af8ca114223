#!/usr/bin/env python3
"""Append this checkout's perfbench numbers to ``benchmarks/BENCH_perf.json``.

Usage (no options)::

    python3 scripts/record_perf.py

Runs ``perfbench/run.py`` for every workload in ``BENCHMARK.json`` at
``--seed 1``, once with ``--trace 0`` (end-to-end metrics) and once with
``--trace 1`` (per-layer metrics), each for ``BENCHMARK.json``'s
``run_seconds``, one after another.  Each run's final JSON line is
appended as one row, stamped with the git rev it measured, the Python
version and the host's CPU count.  A rev whose tracked files differ from
the commit is recorded with a ``-dirty`` suffix.  Expect about five
minutes on a 2-vCPU host.  Exits 1 if any run fails its correctness gate;
that run's row is still recorded.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "benchmarks", "BENCH_perf.json")
SEED = 1


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _git_rev() -> str:
    rev = _git("rev-parse", "--short", "HEAD")
    if _git("status", "--porcelain", "--untracked-files=no"):
        rev += "-dirty"
    return rev


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    rows = []
    if os.path.exists(LEDGER):
        with open(LEDGER) as handle:
            rows = json.load(handle)
    rev = _git_rev()
    status = 0
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for trace in (0, 1):
            command = [
                sys.executable, os.path.join("perfbench", "run.py"),
                "--workload", workload, "--seed", str(SEED),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            print(f"record_perf: {' '.join(command[1:])}", flush=True)
            run = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True
            )
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0:
                status = 1
                sys.stderr.write(run.stdout[-2000:] + run.stderr[-2000:])
            if not lines or not lines[-1].startswith("{"):
                print(f"record_perf: {workload} --trace {trace} printed "
                      "no result line", file=sys.stderr)
                status = 1
                continue
            rows.append({
                "git_rev": rev,
                "recorded": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "workload": workload,
                "seed": SEED,
                "trace": trace,
                "seconds": seconds,
                "result": json.loads(lines[-1]),
            })
            # Rewrite after every run so a cut-short session keeps what
            # it measured.
            with open(LEDGER, "w") as handle:
                json.dump(rows, handle, indent=1, sort_keys=True)
                handle.write("\n")
    print(f"record_perf: {len(rows)} rows in {LEDGER}")
    return status


if __name__ == "__main__":
    sys.exit(main())
