#!/usr/bin/env python3
"""Resilient sweeps: a campaign that degrades gracefully under faults.

Runs four machines over the `health` workload through the campaign
runner (`repro.runner`), with two points deliberately sabotaged by a
deterministic fault plan: one crashes mid-simulation and one hangs
until the per-run timeout kills its worker process.  The campaign
completes anyway, records both failures in its manifest, and — run the
script a second time with the same --campaign-dir — resumes the healthy
points straight from the checkpoint instead of re-simulating them.

Run:
    python examples/resilient_campaign.py [--instructions N]
                                          [--campaign-dir DIR] [--resume]
"""

import argparse
import json
import os
import tempfile

from repro.runner import (
    CampaignRunner,
    Fault,
    FaultPlan,
    RunSpec,
    WorkloadSpec,
)
from repro.sim import baseline_config, psb_config, stride_config


def build_specs(instructions: int, warmup: int):
    machines = {
        "base": baseline_config(),
        "stride": stride_config(),
        "psb": psb_config(),
    }
    specs = [
        RunSpec(
            run_id=f"health/{name}",
            config=config,
            trace=WorkloadSpec("health", seed=1),
            max_instructions=instructions,
            warmup_instructions=warmup,
        )
        for name, config in machines.items()
    ]
    # Two points the fault plan sabotages: a crash (retried, then
    # recorded) and a hang (killed by the timeout).  A real campaign
    # hits these as malformed traces, pathological configs, or wedged
    # simulations.
    specs += [
        RunSpec(
            run_id=f"health/{name}",
            config=baseline_config(),
            trace=WorkloadSpec("health", seed=1),
            max_instructions=instructions,
            warmup_instructions=warmup,
        )
        for name in ("crashy", "hung")
    ]
    return specs


#: Crash ``health/crashy`` and hang ``health/hung`` at record 200.
SABOTAGE = FaultPlan(
    [
        Fault("crash", "health/crashy", index=200),
        Fault("hang", "health/hung", index=200),
    ]
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instructions", type=int, default=5_000)
    parser.add_argument("--campaign-dir", default=None)
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args()

    campaign_dir = args.campaign_dir or os.path.join(
        tempfile.gettempdir(), "repro-resilient-campaign"
    )
    specs = build_specs(args.instructions, args.instructions // 4)

    print(f"campaign of {len(specs)} points -> {campaign_dir}")
    print("(two points are sabotaged on purpose: one crash, one hang)\n")

    runner = CampaignRunner(
        campaign_dir,
        timeout=5.0,        # kills the hung worker
        retries=1,          # the crash gets one retry before recording
        backoff_base=0.1,
        on_error="skip",    # record failures, keep sweeping
        isolation="process",
        resume=args.resume,
        faults=SABOTAGE,
    )
    campaign = runner.run(specs)

    for run_id, result in campaign.results.items():
        resumed = " (from checkpoint)" if run_id in campaign.resumed else ""
        print(f"  ok      {run_id:16s} IPC={result.ipc:.3f}{resumed}")
    for run_id, outcome in campaign.failures.items():
        print(f"  FAILED  {run_id:16s} {outcome.error_kind} "
              f"after {outcome.attempts} attempt(s)")

    manifest = campaign.manifest or {}
    print(f"\nmanifest: {manifest.get('ok', 0)} ok, "
          f"{manifest.get('failed', 0)} failed, "
          f"{manifest.get('resumed_from_checkpoint', 0)} resumed "
          f"({os.path.join(campaign_dir, 'manifest.json')})")
    if not args.resume:
        print("re-run with --resume to load completed points from the "
              "checkpoint instead of re-simulating them")
    else:
        print(json.dumps(manifest.get("failures", []), indent=2))


if __name__ == "__main__":
    main()
