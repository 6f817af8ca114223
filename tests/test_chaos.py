"""Campaign durability under environment faults.

Every environment fault a :class:`~repro.runner.FaultPlan` can inject —
failed and torn checkpoint appends, killed worker processes, corrupted
compiled-trace cache entries, bit-flipped snapshots, torn manifest
rewrites — must end in either transparent recovery or a precisely
audited failure.  The seeded acceptance tests at the bottom run a full
campaign under a scheduled fault mix and require exact ok/poisoned
tallies, a passing offline audit, results identical to a fault-free
campaign, and the same fired faults at every worker count.
"""

import json
import os

import pytest

from repro.errors import ConfigError, SimulationError, TraceFormatError
from repro.integrity.snapshot import SimSnapshot
from repro.runner import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    CampaignRunner,
    CheckpointStore,
    Fault,
    FaultLog,
    FaultPlan,
    RunSpec,
    WorkloadSpec,
    audit_campaign,
    corrupt_binary_file,
    execute_spec,
)
from repro.runner.checkpoint import iter_checkpoint_lines
from repro.sim import baseline_config, psb_config
from repro.sim.simulator import Simulator
from repro.trace.binfmt import compile_trace, load_binary_trace_list
from repro.workloads import (
    cache_path,
    cached_workload_trace,
    cache_stats,
    get_workload,
    reset_cache_stats,
)

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


def _entry(run_id, status="ok", fingerprint="f00d"):
    return {
        "run_id": run_id,
        "status": status,
        "fingerprint": fingerprint,
        "attempts": 1,
        "elapsed_seconds": 0.1,
        "result": None,
        "error": (
            None if status == "ok"
            else {"kind": "SimulationError", "message": "boom"}
        ),
    }


def _plan(*faults, seed=0):
    return FaultPlan(faults, seed=seed)


def _sites(plan, site):
    return {
        fault.run_id: fault.attempts
        for fault in plan.faults if fault.site == site
    }


RUN_IDS = [f"p{i}" for i in range(10)]


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            Fault("corrupt", "a", index=-1)

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="site"):
            Fault("melt", "a")

    def test_kill_and_poison_must_be_disjoint(self):
        # A point is killed once or on every launch, never both.
        with pytest.raises(ValueError, match="more than one"):
            _plan(Fault("kill", "a", attempts=1), Fault("kill", "a"))

    def test_noop_detection(self):
        assert not FaultPlan().faults
        assert FaultPlan().sites == frozenset()
        assert _plan(Fault("kill", "a")).sites == {"kill"}

    def test_scheduled_is_deterministic(self):
        run_ids = RUN_IDS[:4]
        assert FaultPlan.scheduled(7, run_ids, poison=1) == (
            FaultPlan.scheduled(7, run_ids, poison=1)
        )
        assert FaultPlan.scheduled(7, run_ids) != FaultPlan.scheduled(
            8, run_ids
        )

    def test_scheduled_shape(self):
        plan = FaultPlan.scheduled(3, RUN_IDS, poison=2)
        kills = _sites(plan, "kill")
        poisoned = [run_id for run_id, gate in kills.items() if gate is None]
        assert len(poisoned) == 2
        assert sorted(
            gate for gate in kills.values() if gate is not None
        ) == [1, 1]
        for fault in plan.faults:
            assert fault.run_id in RUN_IDS
            assert fault.site == "cache" or fault.attempts in (None, 1)
        # ENOSPC and torn never target the same point's append (the
        # write would only experience one of them anyway).
        assert len(_sites(plan, "enospc")) == len(_sites(plan, "torn")) == 2
        assert not set(_sites(plan, "enospc")) & set(_sites(plan, "torn"))
        assert set(_sites(plan, "cache")) == set(RUN_IDS)

    def test_scheduled_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.scheduled(1, [])
        with pytest.raises(ValueError):
            FaultPlan.scheduled(1, RUN_IDS[:4], poison=5)

    def test_kill_points_need_process_isolation(self, tmp_path):
        with pytest.raises(ConfigError, match="process isolation"):
            CampaignRunner(
                str(tmp_path), isolation="inline",
                faults=_plan(Fault("kill", "a", attempts=1)),
            )

    @pytest.mark.parametrize("isolation", ["inline", "process"])
    def test_hang_needs_process_isolation(self, tmp_path, isolation):
        # Only a timeout kill ends a hang; without one (and an inline
        # point can have none) it would wedge the campaign for an hour,
        # so the runner refuses it up front.
        with pytest.raises(ConfigError, match="hang faults need a timeout"):
            CampaignRunner(
                str(tmp_path), isolation=isolation,
                faults=_plan(Fault("hang", "a", index=10, attempts=1)),
            )


# ----------------------------------------------------------------------
# Checkpoint appends under fault
# ----------------------------------------------------------------------


class TestCheckpointFaults:
    def test_enospc_append_queues_then_flushes(self, tmp_path):
        log = FaultLog(_plan(Fault("enospc", "a", attempts=1)))
        store = CheckpointStore(str(tmp_path), faults=log)
        assert store.append(_entry("a")) is False
        assert store.append_failures == 1
        assert store.pending_ids == ["a"]
        assert store.load() == {}
        assert store.flush_pending() == 0
        assert set(store.load()) == {"a"}
        assert log.counters["checkpoint_enospc"] == 1

    def test_torn_append_fragment_is_healed_and_skipped(self, tmp_path):
        log = FaultLog(_plan(Fault("torn", "torn", attempts=1)))
        store = CheckpointStore(str(tmp_path), faults=log)
        assert store.append(_entry("torn")) is False
        # Half the line is on disk; replay must not see an entry.
        assert store.load() == {}
        # The next append starts on a fresh line past the fragment.
        assert store.append(_entry("clean")) is True
        assert set(store.load()) == {"clean"}
        problems = [
            problem
            for _, _, _, problem in iter_checkpoint_lines(
                store.checkpoint_path
            )
            if problem is not None
        ]
        assert problems == ["json"]
        # The torn entry itself retries durably at flush time.
        assert store.flush_pending() == 0
        assert set(store.load()) == {"torn", "clean"}

    def test_crc_rejects_bit_rot(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.append(_entry("a"))
        with open(store.checkpoint_path) as handle:
            line = handle.read()
        # Valid JSON, one field quietly altered: only the CRC can tell.
        rotted = line.replace('"attempts": 1', '"attempts": 9')
        assert rotted != line
        with open(store.checkpoint_path, "w") as handle:
            handle.write(rotted)
        assert store.load() == {}
        problems = [
            problem
            for _, _, _, problem in iter_checkpoint_lines(
                store.checkpoint_path
            )
        ]
        assert problems == ["crc"]

    def test_legacy_lines_without_crc_still_replay(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with open(store.checkpoint_path, "w") as handle:
            handle.write(json.dumps(_entry("old")) + "\n")
        assert set(store.load()) == {"old"}


# ----------------------------------------------------------------------
# Compiled-trace cache corruption
# ----------------------------------------------------------------------


class TestCacheCorruption:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        reset_cache_stats()
        yield
        reset_cache_stats()

    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_corruption_is_detected_by_checksum(self, tmp_path, mode):
        path = str(tmp_path / "t.rtb")
        compile_trace(
            path, get_workload("health", seed=1), limit=200
        )
        corrupt_binary_file(path, mode, seed=3)
        with pytest.raises(TraceFormatError):
            load_binary_trace_list(path)

    def test_corrupt_entry_recompiles_and_counts(self):
        import itertools

        first = cached_workload_trace("health", seed=5, instructions=150)
        corrupt_binary_file(cache_path("health", 5, 150), "bitflip", seed=1)
        again = cached_workload_trace("health", seed=5, instructions=150)
        assert again == first == list(
            itertools.islice(get_workload("health", seed=5), 150)
        )
        stats = cache_stats()
        assert stats["corrupt_recompiled"] == 1
        # The healed entry is a normal hit afterwards.
        cached_workload_trace("health", seed=5, instructions=150)
        assert cache_stats()["hits"] == stats["hits"] + 1

    def test_prewarm_revalidates_and_heals(self):
        from repro.workloads import prewarm_workload_trace

        assert prewarm_workload_trace("health", seed=6, instructions=120)
        corrupt_binary_file(
            cache_path("health", 6, 120), "truncate", seed=1
        )
        assert prewarm_workload_trace("health", seed=6, instructions=120)
        assert cache_stats()["corrupt_recompiled"] == 1
        assert load_binary_trace_list(
            cache_path("health", 6, 120)
        ) == cached_workload_trace("health", seed=6, instructions=120)

    def test_corrupt_binary_file_rejects_unknown_mode(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"data")
        with pytest.raises(ValueError):
            corrupt_binary_file(str(path), "shred")


# ----------------------------------------------------------------------
# Snapshot corruption
# ----------------------------------------------------------------------


def _snapshot(tmp_path):
    snapshots = []
    Simulator(psb_config()).run(
        get_workload("health", seed=1),
        max_instructions=INSTRUCTIONS,
        label="snap",
        snapshot_every=400,
        snapshot_sink=snapshots.append,
    )
    path = str(tmp_path / "run.snap")
    snapshots[0].save(path)
    return path


class TestSnapshotCorruption:
    def test_verify_catches_payload_bit_flip(self):
        snapshot = SimSnapshot(b"machine-state", cycle=10,
                               records_consumed=5, label="x")
        snapshot.payload = b"machine-stats"
        with pytest.raises(SimulationError, match="corrupt snapshot"):
            snapshot.verify()

    def test_load_rejects_bit_flipped_file(self, tmp_path):
        path = _snapshot(tmp_path)
        corrupt_binary_file(path, "bitflip", seed=2)
        with pytest.raises(SimulationError):
            SimSnapshot.load(path)

    def test_load_rejects_truncated_file(self, tmp_path):
        path = _snapshot(tmp_path)
        corrupt_binary_file(path, "truncate", seed=2)
        with pytest.raises(SimulationError):
            SimSnapshot.load(path)

    def test_execute_spec_quarantines_and_reruns(self, tmp_path):
        path = _snapshot(tmp_path)
        corrupt_binary_file(path, "bitflip", seed=2)
        spec = _spec("quarantine", psb_config())
        result = execute_spec(spec, snapshot_path=path)
        # The attempt ran from scratch and flagged the quarantine...
        assert result.extra["snapshot_quarantined"] == 1.0
        assert "resumed_from_cycle" not in result.extra
        # ...and the damaged file was kept aside for post-mortem.
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")

    def test_retry_with_corrupted_snapshot_still_succeeds(self, tmp_path):
        # The first attempt crashes mid-run leaving a snapshot; the
        # plan bit-flips it before the retry, which must quarantine and
        # recover rather than resume garbage machine state.
        spec = RunSpec(
            run_id="flaky",
            config=psb_config(),
            trace=WorkloadSpec("health", seed=1),
            max_instructions=INSTRUCTIONS,
        )
        campaign = CampaignRunner(
            str(tmp_path), retries=1, isolation="inline",
            snapshot_every=200, backoff_base=0.0,
            faults=_plan(
                Fault("crash", "flaky", index=500, attempts=1),
                Fault("snapshot", "flaky", attempts=1),
            ),
        ).run([spec])
        outcome = campaign.outcomes["flaky"]
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.result.extra["snapshot_quarantined"] == 1.0
        quarantined = list((tmp_path / "snapshots").glob("*.corrupt"))
        assert len(quarantined) == 1
        report = audit_campaign(str(tmp_path))
        assert report.ok
        assert report.stats["snapshots_quarantined"] == 1


# ----------------------------------------------------------------------
# Torn manifest writes
# ----------------------------------------------------------------------


class TestTornManifest:
    def test_previous_manifest_survives(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        first = store.write_manifest(
            status="complete", total=1, completed=["a"],
            resumed=[], failures=[],
        )
        log = FaultLog(_plan(Fault("manifest", attempts=1)))
        torn_store = CheckpointStore(str(tmp_path), faults=log)
        with pytest.raises(OSError):
            torn_store.write_manifest(
                status="complete", total=2, completed=["a", "b"],
                resumed=[], failures=[],
            )
        assert store.read_manifest() == first
        litter = list(tmp_path.glob(MANIFEST_NAME + ".tmp.*"))
        assert len(litter) == 1
        report = audit_campaign(str(tmp_path))
        assert [issue.code for issue in report.warnings] == ["manifest.tmp"]

    def test_campaign_absorbs_the_torn_write(self, tmp_path):
        campaign = CampaignRunner(
            str(tmp_path), isolation="inline",
            faults=_plan(Fault("manifest", attempts=1)),
        ).run([_spec("only")])
        # The run itself succeeded; only the summary write was lost.
        assert campaign.outcomes["only"].ok
        assert campaign.manifest is None
        assert not os.path.exists(str(tmp_path / MANIFEST_NAME))
        report = audit_campaign(str(tmp_path))
        assert [issue.code for issue in report.errors] == [
            "manifest.missing"
        ]


# ----------------------------------------------------------------------
# The worker watchdog
# ----------------------------------------------------------------------


class TestWorkerWatchdog:
    def test_killed_worker_is_respawned_and_point_recovers(self, tmp_path):
        specs = [_spec("victim"), _spec("bystander", seed=2)]
        campaign = CampaignRunner(
            str(tmp_path), workers=2, isolation="process",
            backoff_base=0.0,
            faults=_plan(Fault("kill", "victim", attempts=1)),
        ).run(specs)
        assert campaign.outcomes["victim"].ok
        assert campaign.outcomes["bystander"].ok
        manifest = campaign.manifest
        assert manifest["ok"] == 2
        assert manifest["poisoned"] == 0
        assert manifest["chaos"]["counters"]["worker_kills"] == 1

    def test_single_worker_recovers_a_killed_point(self, tmp_path):
        campaign = CampaignRunner(
            str(tmp_path), workers=1, isolation="process",
            backoff_base=0.0,
            faults=_plan(Fault("kill", "victim", attempts=1)),
        ).run([_spec("victim")])
        assert campaign.outcomes["victim"].ok
        manifest = campaign.manifest
        assert manifest["ok"] == 1
        assert manifest["chaos"]["counters"]["worker_kills"] == 1

    def test_repeated_deaths_poison_the_point(self, tmp_path):
        specs = [_spec("cursed"), _spec("fine", seed=2)]
        campaign = CampaignRunner(
            str(tmp_path), workers=2, isolation="process",
            backoff_base=0.0, max_worker_kills=2,
            faults=_plan(Fault("kill", "cursed")),
        ).run(specs)
        outcome = campaign.failures["cursed"]
        assert outcome.status == "poisoned"
        assert not outcome.ok
        assert outcome.error_kind == "WorkerPoisonedError"
        assert "worker died 2 times" in outcome.error_message
        assert campaign.outcomes["fine"].ok
        manifest = campaign.manifest
        assert manifest["ok"] == 1
        assert manifest["failed"] == 0
        assert manifest["poisoned"] == 1
        record = next(
            r for r in manifest["failures"] if r["run_id"] == "cursed"
        )
        assert record["status"] == "poisoned"
        assert record["kind"] == "WorkerPoisonedError"
        # The poisoned terminal state is durable and audit-clean.
        report = audit_campaign(str(tmp_path))
        assert report.ok, report.summary()
        assert report.stats["entries_poisoned"] == 1

    def test_unkillable_pool_falls_back_to_inline(self, tmp_path):
        # Every launch of every point is killed; long before the kill
        # budget runs out, the consecutive-death streak (2 * workers + 2
        # = 6) declares the pool dead and the campaign finishes inline
        # — all points ok.
        specs = [_spec("p0"), _spec("p1", seed=2)]
        campaign = CampaignRunner(
            str(tmp_path), workers=2, isolation="process",
            backoff_base=0.0, max_worker_kills=10,
            faults=_plan(Fault("kill", "p0"), Fault("kill", "p1")),
        ).run(specs)
        assert campaign.outcomes["p0"].ok
        assert campaign.outcomes["p1"].ok
        manifest = campaign.manifest
        assert manifest["ok"] == 2
        assert manifest["poisoned"] == 0
        # At least the streak's six launches were killed before fallback
        # (a relaunch may slip in while the sixth death is in flight,
        # so the exact count depends on completion timing).
        assert manifest["chaos"]["counters"]["worker_kills"] >= 6

    def test_poisoned_point_replays_on_resume(self, tmp_path):
        specs = [_spec("cursed"), _spec("fine", seed=2)]
        CampaignRunner(
            str(tmp_path), workers=2, isolation="process",
            backoff_base=0.0, max_worker_kills=1,
            faults=_plan(Fault("kill", "cursed")),
        ).run(specs)
        # A fault-free resume trusts the checkpoint: the poisoned
        # terminal outcome is replayed, not re-run.
        resumed = CampaignRunner(
            str(tmp_path), workers=2, isolation="process", resume=True
        ).run(specs)
        assert set(resumed.resumed) == {"cursed", "fine"}
        assert resumed.failures["cursed"].status == "poisoned"
        assert resumed.manifest["poisoned"] == 1


# ----------------------------------------------------------------------
# The seeded acceptance campaign
# ----------------------------------------------------------------------


class TestSeededChaosCampaign:
    def test_scheduled_campaign_matches_clean_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        specs = [_spec(f"p{i}", seed=i + 1) for i in range(4)]
        clean = CampaignRunner(
            str(tmp_path / "clean"), workers=2, isolation="process"
        ).run(specs)

        plan = FaultPlan.scheduled(
            7, [spec.run_id for spec in specs], poison=1
        )
        # seed 7 over 4 points: p3 poisoned, p1 killed once, p1's append
        # ENOSPC, p2's append torn, every cache entry bit-flipped.
        assert _sites(plan, "kill") == {"p3": None, "p1": 1}
        camp = str(tmp_path / "chaos")
        campaign = CampaignRunner(
            camp, workers=2, isolation="process",
            backoff_base=0.0, max_worker_kills=2, faults=plan,
        ).run(specs)

        manifest = campaign.manifest
        assert manifest["status"] == "complete"
        assert manifest["ok"] == 3
        assert manifest["failed"] == 0
        assert manifest["poisoned"] == 1
        assert campaign.failures["p3"].status == "poisoned"
        # Injected damage all fired...
        counters = manifest["chaos"]["counters"]
        assert counters["checkpoint_enospc"] == 1
        assert counters["checkpoint_torn"] == 1
        assert counters["worker_kills"] >= 2
        assert counters["cache_corrupted"] == len(specs)
        # ...and none of it is visible in the surviving results.
        for run_id in ("p0", "p1", "p2"):
            chaotic, reference = (
                campaign.results[run_id], clean.results[run_id],
            )
            assert (chaotic.ipc, chaotic.cycles, chaotic.instructions) == (
                reference.ipc, reference.cycles, reference.instructions
            )
        # Every durability gap healed: the checkpoint is complete and
        # the offline audit finds nothing worse than the torn-line scar.
        assert "checkpoint_gaps" not in manifest
        report = audit_campaign(camp)
        assert report.ok, report.summary()
        assert report.stats["checkpoint_entries"] == 4
        assert {issue.code for issue in report.warnings} <= {
            "checkpoint.line.json"
        }

    def test_same_faults_fire_at_every_worker_count(
        self, tmp_path, monkeypatch
    ):
        # Every fault is keyed by run_id, so which faults fire cannot
        # depend on how many workers share the schedule.
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        specs = [_spec(f"p{i}", seed=i + 1) for i in range(4)]
        plan = FaultPlan.scheduled(
            7, [spec.run_id for spec in specs], poison=1
        )
        fired = {}
        for workers in (1, 2):
            manifest = CampaignRunner(
                str(tmp_path / f"w{workers}"), workers=workers,
                isolation="process", backoff_base=0.0,
                max_worker_kills=2, faults=plan,
            ).run(specs).manifest
            assert (manifest["ok"], manifest["failed"],
                    manifest["poisoned"]) == (3, 0, 1)
            events = manifest["chaos"]["events"]
            assert all(
                event["run_id"] in {"p0", "p1", "p2", "p3"}
                for event in events
            )
            fired[workers] = sorted(
                (event["site"], event["run_id"], event["occurrence"])
                for event in events
            )
        assert fired[1] == fired[2]
        assert fired[1] == sorted(
            [("cache", f"p{i}", 0) for i in range(4)]
            + [("kill", "p1", 0), ("kill", "p3", 0), ("kill", "p3", 1)]
            + [("enospc", "p1", 0), ("torn", "p2", 0)]
        )
