"""Tests for the command-line interface."""

import io
import json
import os

import pytest

import repro.cli as cli
from repro.cli import MACHINES, main
from repro.trace.io import load_trace_list


class TestWorkloadsCommand:
    def test_lists_all_six(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("health", "burg", "deltablue", "gs", "sis", "turb3d"):
            assert name in out


class TestRunCommand:
    def test_runs_baseline(self, capsys):
        code = main(
            ["run", "health", "--machine", "base", "--instructions", "3000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "prefetches issued" in out

    def test_runs_psb(self, capsys):
        code = main(
            ["run", "health", "--machine", "psb",
             "--instructions", "8000", "--warmup", "2000"]
        )
        assert code == 0
        assert "prefetch accuracy" in capsys.readouterr().out

    def test_every_machine_name_is_buildable(self):
        for maker in MACHINES.values():
            config = maker()
            assert config.l1_data.size_bytes == 32 * 1024

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "quake"])

    def test_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            main(["run", "health", "--machine", "warp-drive"])


class TestCompareCommand:
    def test_prints_all_machines(self, capsys):
        code = main(
            ["compare", "turb3d", "--instructions", "4000", "--warmup", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for label in ("Base", "Stride", "ConfAlloc-Priority"):
            assert label in out


class TestTraceCommand:
    def test_writes_trace_file(self, tmp_path, capsys):
        path = str(tmp_path / "out.trace")
        code = main(
            ["trace", "burg", "--out", path, "--instructions", "500"]
        )
        assert code == 0
        records = load_trace_list(path)
        assert len(records) == 500
        assert "wrote 500 records" in capsys.readouterr().out


class TestTraceCompileCommand:
    def test_compile_workload(self, tmp_path, capsys):
        from repro.trace import load_binary_trace_list

        out = str(tmp_path / "health.rtb")
        code = main(
            ["trace", "compile", "health", "--out", out,
             "--instructions", "300", "--seed", "2"]
        )
        assert code == 0
        assert "compiled 300 records" in capsys.readouterr().out
        assert len(load_binary_trace_list(out)) == 300

    def test_compile_text_trace(self, tmp_path):
        from repro.trace import load_binary_trace_list
        from repro.trace.io import load_trace_list

        text = str(tmp_path / "t.trace")
        assert main(
            ["trace", "gs", "--out", text, "--instructions", "200"]
        ) == 0
        out = str(tmp_path / "t.rtb")
        assert main(["trace", "compile", text, "--out", out]) == 0
        assert load_binary_trace_list(out) == load_trace_list(text)

    def test_compile_needs_source(self, tmp_path, capsys):
        out = str(tmp_path / "x.rtb")
        assert main(["trace", "compile", "--out", out]) != 0
        assert "workload name" in capsys.readouterr().err


class TestSweepCommand:
    _FAST = ["--instructions", "2000", "--warmup", "500", "--no-isolate"]

    def test_runs_selected_machines(self, capsys):
        code = main(
            ["sweep", "health", "--machines", "base,psb"] + self._FAST
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "base" in out and "psb" in out and "ok" in out

    def test_writes_campaign_state(self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        code = main(
            ["sweep", "health", "--machines", "base", "--campaign-dir", d]
            + self._FAST
        )
        assert code == 0
        manifest = json.load(open(os.path.join(d, "manifest.json")))
        assert manifest["status"] == "complete"
        assert manifest["ok"] == 1

    def test_resume_skips_completed(self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        args = (
            ["sweep", "health", "--machines", "base", "--campaign-dir", d]
            + self._FAST
        )
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "resumed" in capsys.readouterr().out

    def test_parallel_workers_all_points_ok(self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        code = main(
            ["sweep", "health", "--machines", "base,stride,psb",
             "--instructions", "2000", "--warmup", "500",
             "--workers", "2", "--progress", "--campaign-dir", d]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.count(" ok ") >= 3 or "ok" in captured.out
        assert "campaign complete" in captured.err  # --progress narration
        manifest = json.load(open(os.path.join(d, "manifest.json")))
        assert manifest["status"] == "complete"
        assert manifest["ok"] == 3 and manifest["failed"] == 0
        assert manifest["policy"]["workers"] == 2

    def test_chaos_seed_at_default_workers(self, tmp_path, capsys,
                                          monkeypatch):
        # Chaos schedules always kill a worker; the default single
        # worker slot must absorb that like --workers 2 does.
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        d = str(tmp_path / "camp")
        code = main(
            ["sweep", "health", "--machines", "base,stride,psb,jouppi",
             "--instructions", "2000", "--warmup", "500",
             "--campaign-dir", d, "--chaos-seed", "7",
             "--chaos-poison", "1", "--max-worker-kills", "2"]
        )
        assert code == 0
        assert main(["audit", d]) == 0
        manifest = json.load(open(os.path.join(d, "manifest.json")))
        assert manifest["status"] == "complete"
        assert manifest["ok"] == 3
        assert manifest["poisoned"] == 1
        assert manifest["policy"]["workers"] == 1

    def test_workers_with_no_isolate_exits_one(self, capsys):
        code = main(
            ["sweep", "health", "--machines", "base", "--workers", "2"]
            + self._FAST
        )
        assert code == 1
        assert "isolation" in capsys.readouterr().err


class TestExitCodes:
    def test_success_exits_zero(self):
        assert main(["workloads"]) == 0

    def test_repro_error_exits_one_with_message(self, capsys):
        code = main(
            ["sweep", "health", "--machines", "warp-drive",
             "--instructions", "100", "--no-isolate"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "repro-sim: error:" in captured.err
        assert "Traceback" not in captured.err

    def test_resume_without_campaign_dir_exits_one(self, capsys):
        code = main(
            ["sweep", "health", "--resume", "--instructions", "100",
             "--no-isolate"]
        )
        assert code == 1
        assert "campaign_dir" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_command_workloads", interrupted)
        assert main(["workloads"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_closed_stdout_exits_141_without_traceback(
        self, capsys, monkeypatch
    ):
        # `repro-sim audit DIR | head -1`: the reader closes the pipe
        # and every later write to stdout raises BrokenPipeError.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["workloads"]) == 141
        assert capsys.readouterr().err == ""

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
