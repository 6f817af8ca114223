"""Unit tests for the campaign runner (inline isolation for speed).

Process-isolation and the end-to-end acceptance campaign live in
``test_runner_campaign.py``.
"""

import itertools
import json
import os

import pytest

from repro.errors import (
    ConfigError,
    SimulationError,
    TraceFormatError,
)
from repro.runner import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    CampaignRunner,
    Fault,
    FaultPlan,
    RunSpec,
    WorkloadSpec,
)
from repro.runner.checkpoint import spec_fingerprint
from repro.sim import baseline_config, simulate
from repro.sim.sweep import cache_sweep, run_configs
from repro.workloads import cache_stats, get_workload, prewarm_workload_trace

INSTRUCTIONS = 1_500
WARMUP = 300


def _spec(run_id="point", trace=None, instructions=INSTRUCTIONS):
    return RunSpec(
        run_id=run_id,
        config=baseline_config(),
        trace=trace if trace is not None else WorkloadSpec("health", seed=1),
        max_instructions=instructions,
        warmup_instructions=WARMUP,
    )


def _plan(site, run_id="point", index=10, attempts=None):
    """A plan of one in-run fault."""
    return FaultPlan([Fault(site, run_id, index=index, attempts=attempts)])


#: The "bad" point of a campaign hits a corrupt record.
BAD = _plan("corrupt", "bad", index=5)


def _inline(**kwargs):
    kwargs.setdefault("isolation", "inline")
    kwargs.setdefault("backoff_base", 0.0)
    return CampaignRunner(**kwargs)


class TestRunOne:
    def test_matches_direct_simulate(self):
        direct = simulate(
            baseline_config(), get_workload("health", seed=1),
            max_instructions=INSTRUCTIONS, warmup_instructions=WARMUP,
        )
        via_runner = _inline().run_one(_spec())
        assert via_runner.ipc == direct.ipc
        assert via_runner.cycles == direct.cycles

    def test_raises_on_failure(self):
        with pytest.raises(SimulationError):
            _inline(faults=_plan("crash")).run_one(_spec())


class TestInlineContract:
    def test_spec_order_one_call_and_one_cache_hit_per_point(
        self, tmp_path, monkeypatch
    ):
        # An inline campaign crosses no process boundary: it pickles no
        # spec, pre-warms nothing in the parent, and runs (and
        # checkpoints) its points in spec order through _run_spec —
        # what per-point timing wrapped around _run_spec relies on.
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))

        def no_pickling(spec):
            raise AssertionError(f"inline campaign pickled {spec.run_id}")

        monkeypatch.setattr(
            "repro.runner.campaign._is_picklable", no_pickling
        )
        specs = [
            _spec(f"{name}/{seed}", trace=WorkloadSpec(name, seed=seed))
            for name, seed in (("health", 1), ("burg", 1), ("health", 2))
        ]
        for spec in specs:
            assert prewarm_workload_trace(
                spec.trace.name, seed=spec.trace.seed,
                instructions=INSTRUCTIONS,
            )
        camp = str(tmp_path / "camp")
        runner = _inline(campaign_dir=camp)
        calls = []
        run_spec = runner._run_spec

        def counted(spec):
            calls.append(spec.run_id)
            return run_spec(spec)

        runner._run_spec = counted
        hits = cache_stats()["hits"]
        campaign = runner.run(specs)
        order = [spec.run_id for spec in specs]
        assert campaign.manifest["ok"] == len(specs)
        assert calls == order
        assert cache_stats()["hits"] - hits == len(specs)
        with open(os.path.join(camp, CHECKPOINT_NAME)) as handle:
            appended = [
                json.loads(line)["run_id"] for line in handle if line.strip()
            ]
        assert appended == order


class TestRetryPolicy:
    def test_transient_crash_recovers(self):
        sleeps = []
        runner = _inline(
            retries=2, backoff_base=0.5, sleep=sleeps.append,
            faults=_plan("crash", attempts=1),
        )
        outcome = runner.run([_spec()]).outcomes["point"]
        assert outcome.ok
        assert outcome.attempts == 2
        assert sleeps == [0.5]  # one backoff before the healing attempt

    def test_backoff_grows_exponentially_and_caps(self):
        sleeps = []
        runner = _inline(
            retries=4, backoff_base=10.0, sleep=sleeps.append,
            faults=_plan("crash"),
        )
        campaign = runner.run([_spec()])
        outcome = campaign.failures["point"]
        assert outcome.attempts == 5
        assert sleeps == [10.0, 20.0, 30.0, 30.0]  # capped at 30 s

    def test_non_retryable_fails_immediately(self):
        sleeps = []
        runner = _inline(
            retries=3, sleep=sleeps.append, faults=_plan("corrupt")
        )
        outcome = runner.run([_spec()]).failures["point"]
        assert outcome.attempts == 1
        assert outcome.error_kind == "TraceFormatError"
        assert sleeps == []

    def test_crash_is_classified_retryable_simulation_error(self):
        outcome = _inline(retries=1, faults=_plan("crash")).run(
            [_spec()]
        ).failures["point"]
        assert outcome.error_kind == "SimulationError"
        assert outcome.attempts == 2


class TestDegradationPolicy:
    def _specs(self):
        return [_spec("a"), _spec("bad"), _spec("c")]

    def test_skip_records_and_continues(self):
        campaign = _inline(on_error="skip", faults=BAD).run(self._specs())
        assert set(campaign.results) == {"a", "c"}
        assert set(campaign.failures) == {"bad"}

    def test_fail_fast_raises_and_stops(self):
        with pytest.raises(TraceFormatError):
            _inline(on_error="fail", faults=BAD).run(self._specs())

    def test_fail_fast_still_notifies_on_outcome(self):
        # Regression: the fail-fast break used to run before the
        # terminal callback, so the *failing* outcome was never
        # delivered to on_outcome.
        seen = []
        with pytest.raises(TraceFormatError):
            _inline(
                on_error="fail",
                on_outcome=lambda o: seen.append((o.run_id, o.ok)),
                faults=BAD,
            ).run(self._specs())
        assert seen == [("a", True), ("bad", False)]

    def test_duplicate_run_ids_rejected(self):
        with pytest.raises(ConfigError):
            _inline().run([_spec("x"), _spec("x")])


class TestRunnerValidation:
    def test_bad_on_error(self):
        with pytest.raises(ConfigError):
            CampaignRunner(on_error="explode")

    def test_bad_isolation(self):
        with pytest.raises(ConfigError):
            CampaignRunner(isolation="container")

    def test_negative_retries(self):
        with pytest.raises(ConfigError):
            CampaignRunner(retries=-1)

    def test_timeout_requires_process_isolation(self):
        with pytest.raises(ConfigError):
            CampaignRunner(timeout=5, isolation="inline")

    def test_resume_requires_campaign_dir(self):
        with pytest.raises(ConfigError):
            CampaignRunner(resume=True)


class TestCheckpointing:
    def test_checkpoint_and_manifest_written(self, tmp_path):
        d = str(tmp_path / "camp")
        campaign = _inline(campaign_dir=d, faults=BAD).run(
            [_spec("a"), _spec("bad")]
        )
        lines = [
            json.loads(line)
            for line in open(os.path.join(d, CHECKPOINT_NAME))
        ]
        assert [entry["run_id"] for entry in lines] == ["a", "bad"]
        assert lines[0]["status"] == "ok"
        assert lines[0]["result"]["ipc"] == campaign.results["a"].ipc
        assert lines[1]["status"] == "failed"
        assert lines[1]["error"]["kind"] == "TraceFormatError"

        manifest = json.load(open(os.path.join(d, MANIFEST_NAME)))
        assert manifest["status"] == "complete"
        assert manifest["ok"] == 1 and manifest["failed"] == 1
        assert manifest["failures"][0]["run_id"] == "bad"

    def test_fresh_run_clears_stale_checkpoint(self, tmp_path):
        d = str(tmp_path / "camp")
        _inline(campaign_dir=d).run([_spec("a")])
        _inline(campaign_dir=d).run([_spec("b")])  # no resume: start over
        entries = [
            json.loads(line)
            for line in open(os.path.join(d, CHECKPOINT_NAME))
        ]
        assert [entry["run_id"] for entry in entries] == ["b"]


class TestResume:
    def _counting_specs(self, counter):
        """Specs whose trace factories count invocations (inline only)."""

        def factory_for(run_id):
            def factory():
                counter[run_id] = counter.get(run_id, 0) + 1
                return itertools.islice(
                    get_workload("health", seed=1), INSTRUCTIONS + 5_000
                )

            return factory

        return [_spec(run_id, trace=factory_for(run_id)) for run_id in "abc"]

    def test_interrupt_then_resume_skips_completed(self, tmp_path):
        d = str(tmp_path / "camp")
        executed = {}
        baseline_counter = {}
        uninterrupted = _inline(campaign_dir=str(tmp_path / "ref")).run(
            self._counting_specs(baseline_counter)
        )

        def interrupt_after_first(outcome):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _inline(
                campaign_dir=d, on_outcome=interrupt_after_first
            ).run(self._counting_specs(executed))
        assert executed == {"a": 1}

        manifest = json.load(open(os.path.join(d, MANIFEST_NAME)))
        assert manifest["status"] == "interrupted"

        resumed = _inline(campaign_dir=d, resume=True).run(
            self._counting_specs(executed)
        )
        assert executed == {"a": 1, "b": 1, "c": 1}  # a was NOT re-run
        assert resumed.resumed == ["a"]
        assert {
            run_id: result.ipc for run_id, result in resumed.results.items()
        } == {
            run_id: result.ipc
            for run_id, result in uninterrupted.results.items()
        }
        assert json.load(open(os.path.join(d, MANIFEST_NAME)))[
            "resumed_from_checkpoint"
        ] == 1

    def test_changed_spec_invalidates_checkpoint(self, tmp_path):
        d = str(tmp_path / "camp")
        _inline(campaign_dir=d).run([_spec("a")])
        changed = _spec("a", instructions=INSTRUCTIONS + 500)
        campaign = _inline(campaign_dir=d, resume=True).run([changed])
        assert campaign.resumed == []  # fingerprint mismatch: re-ran

    def test_fault_free_fingerprint_matches_old_checkpoints(self):
        # Specs once carried their own fault schedule, hashed as a
        # trailing None when absent; the digest keeps that slot so
        # existing campaign directories still resume.
        spec = _spec("a")
        assert spec.fingerprint() == spec_fingerprint(
            spec.config, spec.trace, spec.max_instructions,
            spec.warmup_instructions, None,
        )

    def test_resumed_failures_are_not_retried(self, tmp_path):
        d = str(tmp_path / "camp")
        spec = _spec("bad")
        _inline(campaign_dir=d, faults=BAD).run([spec])
        campaign = _inline(
            campaign_dir=d, resume=True, faults=BAD
        ).run([spec])
        assert campaign.resumed == ["bad"]
        assert campaign.failures["bad"].error_kind == "TraceFormatError"


class TestSnapshotCleanup:
    def test_success_removes_snapshot(self, tmp_path):
        d = str(tmp_path / "camp")
        campaign = _inline(campaign_dir=d, snapshot_every=50).run(
            [_spec("ok-point")]
        )
        assert campaign.outcomes["ok-point"].ok
        snapdir = os.path.join(d, "snapshots")
        assert os.path.isdir(snapdir)  # a snapshot was written mid-run
        assert os.listdir(snapdir) == []

    def test_terminal_failure_removes_snapshot(self, tmp_path):
        # Regression: only the success path cleaned up, so a terminally
        # failed point left its per-spec .snap behind — and a later
        # campaign reusing the fingerprint would silently fast-forward
        # from the dead attempt's state.
        d = str(tmp_path / "camp")
        campaign = _inline(
            campaign_dir=d, snapshot_every=50,
            faults=_plan("corrupt", "bad", index=800),
        ).run([_spec("bad")])
        assert campaign.failures["bad"].error_kind == "TraceFormatError"
        snapdir = os.path.join(d, "snapshots")
        assert os.path.isdir(snapdir)  # a snapshot was written mid-run
        assert os.listdir(snapdir) == []


class TestProcessFallback:
    def test_unpicklable_trace_runs_inline(self):
        generator = get_workload("health", seed=1)
        spec = _spec("lambda-point", trace=lambda: generator)
        runner = CampaignRunner(isolation="process")  # cannot pickle a lambda
        result = runner.run_one(spec)
        assert result.instructions > 0


class TestSweepOnRunner:
    def test_run_configs_unchanged_semantics(self):
        def factory():
            return itertools.islice(get_workload("health", seed=1), 10_000)

        results = run_configs(
            {"Base": baseline_config()}, factory,
            max_instructions=INSTRUCTIONS, warmup_instructions=WARMUP,
        )
        direct = simulate(
            baseline_config(), factory(),
            max_instructions=INSTRUCTIONS, warmup_instructions=WARMUP,
        )
        assert results["Base"].ipc == direct.ipc

    def test_run_configs_fail_fast_by_default(self):
        def broken():
            raise RuntimeError("boom")

        with pytest.raises(SimulationError):
            run_configs(
                {"Base": baseline_config()}, broken,
                max_instructions=INSTRUCTIONS,
            )

    def test_cache_sweep_with_resilient_runner_skips_failures(self, tmp_path):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 2:  # fail the second geometry only
                raise RuntimeError("boom")
            return itertools.islice(get_workload("health", seed=1), 10_000)

        runner = _inline(campaign_dir=str(tmp_path / "camp"), on_error="skip")
        results = cache_sweep(
            baseline_config(), flaky,
            max_instructions=INSTRUCTIONS, warmup_instructions=WARMUP,
            runner=runner,
        )
        assert len(results) == 2  # the failed geometry is absent
        manifest = json.load(
            open(os.path.join(str(tmp_path / "camp"), MANIFEST_NAME))
        )
        assert manifest["failed"] == 1
