#!/usr/bin/env python3
"""Simulation integrity in action: invariants, golden diff, replay.

Walks the three pillars of `repro.integrity` on a live machine:

1. simulate the PSB machine with full runtime invariant checking (every
   cycle boundary, miss, and prefetch is verified against the
   structural conservation laws);
2. replay the same trace through the obviously-correct golden
   functional cache model and diff the two;
3. snapshot the run mid-trace, resume it, and show the resumed result
   is bit-identical to the uninterrupted one;
4. sabotage a run with a silent state corruption and show the checker
   converts it into a structured IntegrityError mid-flight.

Exits 1 if the resumed run diverges or the corruption goes undetected.

Run:
    python examples/integrity_check.py [--instructions N]
"""

import argparse
import dataclasses

from repro.config import InvariantLevel
from repro.errors import IntegrityError
from repro.integrity import golden_check, run_golden
from repro.runner import Fault, RunSpec, WorkloadSpec, execute_spec
from repro.sim import psb_config
from repro.sim.simulator import Simulator
from repro.workloads import get_workload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instructions", type=int, default=10_000)
    args = parser.parse_args()

    config = psb_config().with_invariants(InvariantLevel.FULL)
    trace = lambda: get_workload("health", seed=1)  # noqa: E731

    print("== 1. full invariant checking ==")
    result = Simulator(config).run(
        trace(), max_instructions=args.instructions, label="psb"
    )
    print(
        f"clean run: IPC {result.ipc:.3f}, "
        f"{int(result.extra['invariant_checks'])} invariant checks, "
        "0 violations"
    )

    print("\n== 2. golden-model differential validation ==")
    golden = run_golden(config, trace(), max_instructions=args.instructions)
    report = golden_check(result, golden)
    print(report.summary())

    print("\n== 3. deterministic snapshot/replay ==")
    snapshots = []
    Simulator(config).run(
        trace(),
        max_instructions=args.instructions,
        label="psb",
        snapshot_every=2_000,
        snapshot_sink=snapshots.append,
    )
    middle = snapshots[len(snapshots) // 2]
    resumed = middle.resume(trace())
    identical = all(
        getattr(resumed, field.name) == getattr(result, field.name)
        for field in dataclasses.fields(type(result))
        if field.name != "extra"
    )
    print(
        f"resumed from cycle {middle.cycle} "
        f"({middle.records_consumed} records consumed); "
        f"bit-identical to uninterrupted run: {identical}"
    )
    if not identical:
        print("ERROR: the resumed run diverged from the uninterrupted one")
        return 1

    print("\n== 4. silent corruption caught mid-flight ==")
    spec = RunSpec(
        run_id="health/sabotaged",
        config=config,
        trace=WorkloadSpec("health", seed=1),
        max_instructions=args.instructions,
    )
    sabotage = Fault("state.mshr", spec.run_id, index=1_000)
    try:
        execute_spec(spec, faults=[sabotage])
    except IntegrityError as error:
        print(f"caught: {error}")
        print(f"  invariant: {error.invariant}")
        print(f"  cycle:     {error.cycle}")
        return 0
    print("ERROR: corruption went undetected")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
