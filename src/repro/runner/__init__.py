"""Resilient experiment runner: isolated, retryable, checkpointed sweeps.

Quickstart::

    from repro.runner import CampaignRunner, RunSpec, WorkloadSpec
    from repro.sim import psb_config

    specs = [
        RunSpec(run_id=f"health/{label}", config=config,
                trace=WorkloadSpec("health", seed=1),
                max_instructions=20_000, warmup_instructions=5_000)
        for label, config in {"psb": psb_config()}.items()
    ]
    runner = CampaignRunner("campaign-dir", timeout=120, retries=2,
                            on_error="skip")
    campaign = runner.run(specs)          # survives crashes/hangs
    campaign = CampaignRunner("campaign-dir", resume=True).run(specs)
    # ...completed points are loaded from checkpoint, not re-run.
"""

from repro.runner.audit import (
    AuditIssue,
    AuditReport,
    audit_campaign,
)
from repro.runner.campaign import (
    CampaignResult,
    CampaignRunner,
    RunOutcome,
    RunSpec,
    TraceFileSpec,
    WorkloadSpec,
    execute_spec,
)
from repro.runner.checkpoint import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    CheckpointStore,
    result_from_dict,
    result_to_dict,
)
from repro.runner.faults import (
    CORRUPT_STATE_TARGETS,
    Fault,
    FaultLog,
    FaultPlan,
    InjectedCrash,
    corrupt_binary_file,
    corrupt_simulator_state,
    corrupt_trace_file,
    inject_faults,
)

__all__ = [
    "AuditIssue",
    "AuditReport",
    "audit_campaign",
    "CampaignResult",
    "CampaignRunner",
    "RunOutcome",
    "RunSpec",
    "TraceFileSpec",
    "WorkloadSpec",
    "execute_spec",
    "CHECKPOINT_NAME",
    "MANIFEST_NAME",
    "CheckpointStore",
    "result_from_dict",
    "result_to_dict",
    "CORRUPT_STATE_TARGETS",
    "Fault",
    "FaultLog",
    "FaultPlan",
    "InjectedCrash",
    "corrupt_binary_file",
    "corrupt_simulator_state",
    "corrupt_trace_file",
    "inject_faults",
]
