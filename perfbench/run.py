"""Host-throughput benchmark of the PSB reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig5-detailed --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``points.py``): ``fig5-detailed``, ``sampled-run`` and
``sweep-cached``.  The benchmark imports the program, builds the
workload's inputs from ``--seed`` (set-up, repeated and reported as a
median), then runs whole passes of the workload one after another,
starting no pass that would end after ``--seconds`` unless none has run
yet.  Every point's simulated
results are hashed; a point that raises, differs from its own first
pass, or differs from the digest pinned in ``digests.json`` for this
seed counts as failed.

``--trace 0`` reports the end-to-end metrics (host time, tracing off),
rescaled to a reference host speed by probe readings taken between the
timed units (see ``hostclock.py``); the raw host times are printed too.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (per pass), plus
``trace_overhead_frac``; its full spans go to
``.perfbench/spans-<workload>-s<seed>.json``.  ``--pin`` records this
seed's digests into ``digests.json``.

The human-readable report goes to standard output; its last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import time

#: Taken before any other import, so ``setup_s`` includes the imports.
STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict

from hostclock import HostClock
from layers import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(ROOT, ".perfbench")

#: Set-ups per untraced run; ``setup_s`` reports the import time plus
#: the median set-up, both rescaled.
SETUP_REPEATS = 3
#: Machine classes reported as ``kips.<class>``.
CLASSES = ("base", "stride", "psb")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("fig5-detailed", "sampled-run", "sweep-cached"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true",
        help="record this seed's point digests in digests.json",
    )
    return parser.parse_args(argv)


def _import_program():
    """Put this checkout's ``src`` first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program to measure at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def _git_rev():
    """The checkout's commit, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"),
             "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()[:12] if done.returncode == 0 else "unknown"


def _host_facts():
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Gate:
    """The correctness gate: pinned and first-pass digests per point."""

    def __init__(self, workload: str, seed: int, pinning: bool) -> None:
        with open(DIGESTS) as handle:
            self.table = json.load(handle)
        self.pins = (
            {} if pinning
            else self.table.get(workload, {}).get(str(seed), {})
        )
        self.first = {}
        self.traced_equal = True
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, run_pass) -> None:
        from points import digest

        self.problems.extend(run_pass.problems)
        for point in run_pass.points:
            self.attempted += 1
            if point.result is None:
                self.failed += 1
                self.problems.append(f"{point.ident}: raised")
                continue
            value = digest(point.result)
            first = self.first.setdefault(point.ident, value)
            if value != first:
                self.failed += 1
                self.problems.append(
                    f"{point.ident}: digest {value} differs from the "
                    f"first pass's {first}"
                    + (" (traced pass)" if run_pass.traced else "")
                )
                if run_pass.traced:
                    self.traced_equal = False
            elif self.pins and self.pins.get(point.ident) != value:
                self.failed += 1
                self.problems.append(
                    f"{point.ident}: digest {value} differs from the "
                    f"pinned {self.pins.get(point.ident)}"
                )

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def pin(self, workload: str, seed: int) -> None:
        self.table.setdefault(workload, {})[str(seed)] = dict(
            sorted(self.first.items())
        )
        with open(DIGESTS, "w") as handle:
            json.dump(self.table, handle, indent=1, sort_keys=True)
            handle.write("\n")


def _end_to_end(passes, setup_s, seconds_of):
    """End-to-end metrics from the untraced passes.

    ``seconds_of(start, end)`` turns a raw interval into seconds.  Each
    point's time is the median over passes; ``kips`` divides the records
    a pass feeds to the simulators by the sum of those medians, overall
    and per machine class.
    """
    seconds = defaultdict(list)
    shape = {}
    for run_pass in passes:
        for point in run_pass.points:
            if point.result is None:
                continue  # a failed point's time measures nothing
            seconds[point.ident].append(seconds_of(point.began, point.ended))
            shape[point.ident] = (point.machine_class, point.records)
    records = defaultdict(int)
    busy = defaultdict(float)
    for ident, samples in seconds.items():
        machine_class, count = shape[ident]
        for key in ("all", machine_class):
            records[key] += count
            busy[key] += statistics.median(samples)
    metrics = {
        "wall_s": (
            statistics.median(seconds_of(p.began, p.ended) for p in passes),
            "s",
        ),
        "setup_s": (setup_s, "s"),
    }
    for key in ("all",) + CLASSES:
        name = "kips" if key == "all" else f"kips.{key}"
        metrics[name] = (
            records[key] / busy[key] / 1e3 if busy[key] else 0.0, "kinstr/s"
        )
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
    )
    return metrics


def _scaled(stats, counts, factor):
    return (
        {key: [value[0] * factor, value[1] * factor, value[2] * factor]
         for key, value in stats.items()},
        {key: value * factor for key, value in counts.items()},
    )


def _merged(first, second):
    stats = {key: list(value) for key, value in first[0].items()}
    for key, value in second[0].items():
        into = stats.setdefault(key, [0, 0.0, 0.0])
        for index in range(3):
            into[index] += value[index]
    counts = dict(first[1])
    for key, value in second[1].items():
        counts[key] = counts.get(key, 0) + value
    return stats, counts


def _print_tables(points):
    """The simulated IPC table and Figure 5 speedups over Base."""
    from repro.analysis.report import ascii_table
    from repro.workloads.registry import POINTER_WORKLOADS

    results = defaultdict(dict)
    machines = []
    for point in points:
        if point.result is None:
            continue
        results[point.workload][point.machine] = point.result
        if point.machine not in machines:
            machines.append(point.machine)
    rows = [
        [workload] + [f"{row[m].ipc:.3f}" if m in row else "nan"
                      for m in machines]
        for workload, row in results.items()
    ]
    print(ascii_table(["workload"] + machines, rows,
                      title="Simulated IPC"))
    prefetchers = [m for m in machines if m != "Base"]
    speedup = {
        workload: {
            m: row[m].speedup_over(row["Base"])
            for m in prefetchers if m in row and "Base" in row
        }
        for workload, row in results.items()
    }
    rows = [
        [workload] + [f"{values.get(m, float('nan')):+.1f}%"
                      for m in prefetchers]
        for workload, values in speedup.items()
    ]
    pointer = [w for w in speedup if w in POINTER_WORKLOADS]
    if len(pointer) > 1:
        rows.append(
            ["pointer-avg"] + [
                f"{statistics.mean(speedup[w][m] for w in pointer):+.1f}%"
                for m in prefetchers
            ]
        )
    print(ascii_table(["workload"] + prefetchers, rows,
                      title="Figure 5: % speedup over Base IPC"))


def _print_metrics(metrics, title):
    width = max(len(name) for name in metrics)
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.pin and args.trace:
        sys.exit("perfbench: --pin needs --trace 0")
    clock = HostClock()
    clock.probe()
    _import_program()
    from points import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        # Hermetic: a fresh trace cache, so ~/.cache never leaks in.
        os.environ["REPRO_TRACE_CACHE"] = os.path.join(scratch, "rtb")
        workload = WORKLOADS[args.workload](args.seed, scratch, clock)
        return _measure(args, workload, clock)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, workload, clock) -> int:
    gate = Gate(args.workload, args.seed, args.pin)
    tracer = Tracer() if args.trace else None
    imported = time.perf_counter()
    clock.probe()
    setup_times = []
    setup_stats = ({}, {})
    if tracer is not None:
        tracer.install()
        try:
            workload.setup(tracer)
        finally:
            tracer.uninstall()
        setup_stats = tracer.take()
    else:
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            workload.setup()
            setup_times.append((began, time.perf_counter()))
            clock.probe()

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        run_pass = workload.run_pass()
        gate.check(run_pass)
        untraced.append(run_pass)
        if tracer is not None:
            tracer.install()
            try:
                with tracer.span("pass", len(traced)):
                    run_pass = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            run_pass.traced = True
            gate.check(run_pass)
            traced.append(run_pass)
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:
            break

    facts = _host_facts()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"passes={len(untraced)} untraced + {len(traced)} traced; "
          + ", ".join(f"{k}={v}" for k, v in facts.items()))
    _print_tables(untraced[0].points)
    if tracer is None:
        for title, seconds_of in (
            ("raw host time", lambda start, end: end - start),
            ("host time at the reference speed", clock.seconds),
        ):
            setup_s = seconds_of(STARTED, imported) + statistics.median(
                seconds_of(*interval) for interval in setup_times
            )
            metrics = _end_to_end(untraced, setup_s, seconds_of)
            _print_metrics(metrics, f"End-to-end ({title}, tracing off):")
    else:
        stats, counts = tracer.take()
        per_pass = _merged(setup_stats,
                           _scaled(stats, counts, 1.0 / len(traced)))
        results = [p.result for p in traced[-1].points
                   if p.result is not None]
        metrics = layer_metrics(*per_pass, results)
        metrics["trace_overhead_frac"] = (
            statistics.median(clock.seconds(p.began, p.ended) for p in traced)
            / statistics.median(clock.seconds(p.began, p.ended)
                                for p in untraced) - 1.0,
            "ratio",
        )
        _print_metrics(metrics, "Per layer (traced run, per pass):")
        print(f"traced digests equal untraced: "
              f"{'yes' if gate.traced_equal else 'NO'}")
        spans = os.path.join(
            OUT, f"spans-{args.workload}-s{args.seed}.json"
        )
        with open(spans, "w") as handle:
            json.dump({"host": facts, "stats": stats,
                       "spans": tracer.spans}, handle)
        print(f"spans written to {spans}")
    failed_frac = gate.failed / gate.attempted
    print(f"failed_frac: {failed_frac:.6g} "
          f"({gate.failed} of {gate.attempted} points)")
    for problem in gate.problems:
        print(f"FAILED: {problem}")
    if args.pin:
        gate.pin(args.workload, args.seed)
        print(f"pinned {len(gate.first)} digests for seed {args.seed}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
