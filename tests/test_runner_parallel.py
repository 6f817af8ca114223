"""Parallel campaign execution (``workers > 1``).

One scheduler runs every worker count, and its results must not depend
on that count: same per-point results and failure taxonomy, an
equivalent checkpoint/manifest differing only in completion order, and
the same retry/timeout/fail-fast semantics.  Real worker processes are
spawned throughout; the wall-clock-timeout test carries the ``slow``
marker.
"""

import json
import os

import pytest

from repro.errors import ConfigError, TraceFormatError
from repro.runner import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    CampaignRunner,
    Fault,
    FaultPlan,
    RunSpec,
    WorkloadSpec,
)
from repro.sim import baseline_config, psb_config, stride_config

INSTRUCTIONS = 1_000
WARMUP = 200


def _spec(run_id, config=None, seed=1):
    return RunSpec(
        run_id=run_id,
        config=config if config is not None else baseline_config(),
        trace=WorkloadSpec("health", seed=seed),
        max_instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
    )


def _mixed_specs():
    """Healthy points across configs/seeds plus a crash and a corrupt
    record — the ok/failed mix the worker-count tests compare."""
    return [
        _spec("base"),
        _spec("stride", stride_config()),
        _spec("crash"),
        _spec("psb", psb_config()),
        _spec("seed7", seed=7),
        _spec("corrupt"),
    ]


#: The faults of :func:`_mixed_specs`' "crash" and "corrupt" points.
MIXED_FAULTS = FaultPlan(
    [
        Fault("crash", "crash", index=100),
        Fault("corrupt", "corrupt", index=100),
    ]
)


def _results_view(campaign):
    return {
        run_id: (result.ipc, result.cycles, result.instructions)
        for run_id, result in campaign.results.items()
    }


def _failures_view(campaign):
    return {
        run_id: outcome.error_kind
        for run_id, outcome in campaign.failures.items()
    }


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigError):
            CampaignRunner(workers=0)

    def test_parallel_requires_process_isolation(self):
        with pytest.raises(ConfigError):
            CampaignRunner(workers=2, isolation="inline")


class TestResultsIndependentOfWorkerCount:
    def test_mixed_campaign_bit_identical(self, tmp_path):
        specs = _mixed_specs()
        serial = CampaignRunner(
            str(tmp_path / "serial"), workers=1, isolation="process",
            faults=MIXED_FAULTS,
        ).run(specs)
        parallel = CampaignRunner(
            str(tmp_path / "parallel"), workers=4, isolation="process",
            faults=MIXED_FAULTS,
        ).run(specs)

        # Same per-point numbers, same taxonomy, spec iteration order.
        assert list(parallel.outcomes) == list(serial.outcomes)
        assert _results_view(parallel) == _results_view(serial)
        assert _failures_view(parallel) == _failures_view(serial)

        m_serial = json.load(open(tmp_path / "serial" / MANIFEST_NAME))
        m_parallel = json.load(open(tmp_path / "parallel" / MANIFEST_NAME))
        assert m_parallel["status"] == m_serial["status"] == "complete"
        assert m_parallel["ok"] == m_serial["ok"]
        assert m_parallel["failed"] == m_serial["failed"]
        assert m_parallel["metrics"] == m_serial["metrics"]
        assert m_serial["policy"]["workers"] == 1
        assert m_parallel["policy"]["workers"] == 4

        # Same checkpoint entries; only the append order may differ.
        def entries(directory):
            return {
                entry["run_id"]: (entry["status"], entry["fingerprint"])
                for entry in map(
                    json.loads, open(directory / CHECKPOINT_NAME)
                )
            }

        assert entries(tmp_path / "parallel") == entries(tmp_path / "serial")


class TestParallelRetry:
    def test_transient_crash_recovers_via_reschedule(self, tmp_path):
        sleeps = []
        campaign = CampaignRunner(
            str(tmp_path / "camp"), workers=2, isolation="process",
            retries=2, backoff_base=0.05, sleep=sleeps.append,
            faults=FaultPlan([Fault("crash", "flaky", index=100, attempts=1)]),
        ).run([_spec("flaky")])
        outcome = campaign.outcomes["flaky"]
        assert outcome.ok
        assert outcome.attempts == 2
        # With nothing else runnable the scheduler slept out exactly one
        # backoff; it never blocks a busy pool.
        assert len(sleeps) == 1
        assert 0.0 < sleeps[0] <= 0.05

    def test_retries_exhaust_with_serial_attempt_count(self, tmp_path):
        campaign = CampaignRunner(
            str(tmp_path / "camp"), workers=2, isolation="process",
            retries=2, backoff_base=0.0,
            faults=FaultPlan([Fault("crash", "doomed", index=100)]),
        ).run([_spec("doomed")])
        outcome = campaign.failures["doomed"]
        assert outcome.error_kind == "SimulationError"
        assert outcome.attempts == 3


class TestParallelFailFast:
    def test_fail_fast_notifies_stops_and_writes_manifest(self, tmp_path):
        seen = []
        camp = str(tmp_path / "camp")
        with pytest.raises(TraceFormatError):
            CampaignRunner(
                camp, workers=2, isolation="process", on_error="fail",
                on_outcome=lambda o: seen.append((o.run_id, o.ok)),
                faults=FaultPlan([Fault("corrupt", "bad", index=50)]),
            ).run(
                [
                    _spec("bad"),
                    _spec("rest1", seed=2),
                    _spec("rest2", seed=3),
                ]
            )
        # The failing outcome itself reached the terminal callback.
        assert ("bad", False) in seen
        manifest = json.load(open(os.path.join(camp, MANIFEST_NAME)))
        assert manifest["status"] == "failed"
        assert any(f["run_id"] == "bad" for f in manifest["failures"])


class TestParallelResume:
    def test_interrupt_then_resume_completes_identically(self, tmp_path):
        specs = [_spec(f"p{i}", seed=i + 1) for i in range(6)]
        reference = CampaignRunner(
            str(tmp_path / "ref"), workers=4, isolation="process"
        ).run(specs)

        camp = str(tmp_path / "camp")
        seen = []

        def interrupt_after_two(outcome):
            seen.append(outcome.run_id)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                camp, workers=4, isolation="process",
                on_outcome=interrupt_after_two,
            ).run(specs)
        assert json.load(open(os.path.join(camp, MANIFEST_NAME)))[
            "status"
        ] == "interrupted"

        resumed = CampaignRunner(
            camp, workers=4, isolation="process", resume=True
        ).run(specs)
        # The two checkpointed points (in whatever order they finished)
        # were skipped; everything else ran; the numbers are identical.
        assert set(resumed.resumed) == set(seen[:2])
        assert _results_view(resumed) == _results_view(reference)
        final = json.load(open(os.path.join(camp, MANIFEST_NAME)))
        assert final["status"] == "complete"
        assert final["resumed_from_checkpoint"] == 2

    def test_out_of_order_checkpoint_resumes_in_full(self, tmp_path):
        # Simulate a completion-order checkpoint by reversing an
        # in-order one, then resume at two worker counts.
        specs = [_spec(f"p{i}", seed=i + 1) for i in range(4)]
        camp = str(tmp_path / "camp")
        first = CampaignRunner(camp, isolation="inline").run(specs)
        path = os.path.join(camp, CHECKPOINT_NAME)
        lines = [line for line in open(path) if line.strip()]
        with open(path, "w") as handle:
            handle.writelines(reversed(lines))

        for workers in (1, 4):
            resumed = CampaignRunner(
                camp, workers=workers, isolation="process", resume=True
            ).run(specs)
            assert resumed.resumed == [spec.run_id for spec in specs]
            assert _results_view(resumed) == _results_view(first)


class TestParallelSnapshots:
    def test_identical_points_keep_their_own_snapshots(self, tmp_path):
        # Two points with identical inputs under different run_ids, run
        # side by side.  "twin"'s first launch is killed before it can
        # snapshot anything; its relaunch must start fresh, not resume
        # from the snapshot "first" is writing meanwhile (a shared file
        # would also be deleted under it when "first" completes).
        specs = [
            RunSpec(
                run_id=run_id,
                config=psb_config(),
                trace=WorkloadSpec("health", seed=1),
                max_instructions=40_000,
            )
            for run_id in ("first", "twin")
        ]
        assert specs[0].fingerprint() == specs[1].fingerprint()
        camp = str(tmp_path / "camp")
        campaign = CampaignRunner(
            camp, workers=2, isolation="process", snapshot_every=2_000,
            backoff_base=0.2,
            faults=FaultPlan([Fault("kill", "twin", attempts=1)]),
        ).run(specs)
        first, twin = campaign.results["first"], campaign.results["twin"]
        assert "resumed_from_cycle" not in twin.extra
        assert (first.cycles, first.ipc) == (twin.cycles, twin.ipc)
        assert os.listdir(os.path.join(camp, "snapshots")) == []


@pytest.mark.slow
class TestParallelTimeout:
    def test_deadline_kills_only_the_hung_worker(self, tmp_path):
        specs = [
            _spec("hang"),
            _spec("ok1", seed=2),
            _spec("ok2", stride_config()),
        ]
        hang = FaultPlan([Fault("hang", "hang", index=50)])
        parallel = CampaignRunner(
            str(tmp_path / "parallel"), workers=2, timeout=2.0,
            isolation="process", faults=hang,
        ).run(specs)
        assert parallel.failures["hang"].error_kind == "RunTimeoutError"
        assert set(parallel.results) == {"ok1", "ok2"}

        serial = CampaignRunner(
            str(tmp_path / "serial"), timeout=2.0, isolation="process",
            faults=hang,
        ).run(specs)
        assert _results_view(parallel) == _results_view(serial)
        assert _failures_view(parallel) == _failures_view(serial)
