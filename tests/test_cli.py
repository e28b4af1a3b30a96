"""CLI tests (python -m repro)."""

import json

import pytest

from repro.cli import main

MINIC = """
int v[4];
void main() {
  int i;
  __subtask(0);
  for (i = 0; i < 4; i = i + 1) { v[i] = i * 3; }
  __taskend();
  __out(v[3]);
}
"""

ASM = """
main:
    li t0, 7
    li t1, 6
    mul t2, t0, t1
    lui t3, 0xffff
    sw t2, 12(t3)
    halt
"""


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "task.c"
    path.write_text(MINIC)
    return str(path)


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "task.s"
    path.write_text(ASM)
    return str(path)


class TestCompileCommands:
    def test_compile_emits_assembly(self, minic_file, capsys):
        assert main(["compile", minic_file]) == 0
        out = capsys.readouterr().out
        assert ".text" in out and "main:" in out and ".subtask 0" in out

    def test_asm_hexdump(self, minic_file, capsys):
        assert main(["asm", minic_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(len(line.split()) == 2 for line in lines)
        assert lines[0].startswith("0x00400000")

    def test_disasm_shows_labels(self, minic_file, capsys):
        assert main(["disasm", minic_file]) == 0
        out = capsys.readouterr().out
        assert "main:" in out
        assert "halt" in out


class TestRunCommand:
    def test_run_minic_simple(self, minic_file, capsys):
        assert main(["run", minic_file]) == 0
        captured = capsys.readouterr()
        assert "] 9" in captured.out  # v[3] == 9
        assert "halt" in captured.err

    def test_run_assembly_complex(self, asm_file, capsys):
        assert main(["run", asm_file, "--core", "complex"]) == 0
        assert "] 42" in capsys.readouterr().out

    def test_frequency_changes_cycles(self, minic_file, capsys):
        main(["run", minic_file, "--freq", "1000"])
        fast = capsys.readouterr().err
        main(["run", minic_file, "--freq", "100"])
        slow = capsys.readouterr().err
        fast_cycles = int(fast.split("halt: ")[1].split(" cycles")[0])
        slow_cycles = int(slow.split("halt: ")[1].split(" cycles")[0])
        assert fast_cycles > slow_cycles  # more stall cycles at 1 GHz


class TestWCETCommand:
    def test_wcet_reports_subtasks(self, minic_file, capsys):
        assert main(["wcet", minic_file]) == 0
        out = capsys.readouterr().out
        assert "sub-task 0" in out
        assert "total:" in out


class TestPackCommand:
    def test_pack_writes_timed_binary(self, minic_file, tmp_path, capsys):
        out_path = tmp_path / "task.bin"
        assert main(["pack", minic_file, str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "rtp32-timed-binary-1"
        assert len(payload["wcet"]) == 1
        assert payload["program"]["words"]


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_experiment_choices_validated(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure9"])


class TestTraceCommand:
    def test_trace_renders_diagram(self, minic_file, capsys):
        assert main(["trace", minic_file, "--n", "10"]) == 0
        captured = capsys.readouterr()
        assert "F" in captured.out and "W" in captured.out
        assert "instructions over" in captured.err

    def test_trace_respects_limit(self, asm_file, capsys):
        assert main(["trace", asm_file, "--n", "3"]) == 0
        assert "3 instructions" in capsys.readouterr().err


class TestExperimentCommand:
    def test_experiment_dispatches_to_module(self, monkeypatch, capsys):
        import repro.experiments.table3 as table3

        calls = []
        monkeypatch.setattr(
            table3,
            "main",
            lambda jobs=None: calls.append(("table3", jobs)),
        )
        assert main(["experiment", "table3"]) == 0
        assert calls == [("table3", None)]

    def test_experiment_flags_become_parameters_not_env(
        self, monkeypatch, capsys
    ):
        """--jobs is an explicit arg and --no-cache a scoped override
        in force inside main(); os.environ untouched."""
        import os

        import repro.experiments.figure2 as figure2
        from repro.snapshot import runcache

        calls = []
        monkeypatch.setattr(
            figure2,
            "main",
            lambda jobs=None: calls.append((jobs, runcache.cache_disabled())),
        )
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert main(
            ["experiment", "figure2", "--jobs", "3", "--no-cache"]
        ) == 0
        assert calls == [(3, True)]
        assert not runcache.cache_disabled()  # the override was scoped
        assert "REPRO_JOBS" not in os.environ
        assert "REPRO_NO_CACHE" not in os.environ


class TestAdmitCommand:
    def test_no_cache_bypasses_the_decision_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert main(["admit", "cnt:0.01", "--no-cache"]) == 0
        assert list(tmp_path.iterdir()) == []
        uncached = capsys.readouterr().out
        assert main(["admit", "cnt:0.01"]) == 0
        assert len(list(tmp_path.glob("admit-*.json"))) == 1
        assert capsys.readouterr().out == uncached


class TestCacheCommand:
    def test_cache_stats_reports_disk_and_counters(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.snapshot import runcache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "run-x-abc.json").write_text("{}")
        runcache.reset_stats()
        runcache.STATS["hits"] += 5
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        for column in ("entries", "bytes", "hits", "misses", "stores"):
            assert column in out
        assert "5" in out
        runcache.reset_stats()


class TestErrorHandling:
    def test_compile_error_is_diagnostic_not_traceback(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("void main() { int x = }")
        assert main(["compile", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "repro: error:" in err

    def test_missing_file_reported(self, capsys):
        assert main(["run", "/nonexistent/task.c"]) == 1
        assert "repro: error:" in capsys.readouterr().err

    def test_wcet_unbounded_loop_reported(self, tmp_path, capsys):
        src = tmp_path / "loop.s"
        src.write_text(
            "main:\nli t0, 5\nloop:\nsubi t0, t0, 1\nbgtz t0, loop\nhalt\n"
        )
        assert main(["wcet", str(src)]) == 1
        assert "loopbound" in capsys.readouterr().err
