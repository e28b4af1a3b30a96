"""The CLI's contract with the job normalizers and the daemon config,
pinned byte for byte.

``repro submit`` sends only the flags it was given and leaves every
default to ``jobs.normalize``; the coalesce keys below were recorded
when the submit parser still restated those defaults itself, so both
spellings must key the same job.  The local commands' stdout
(``tests/golden/cli_stdout.json``, one entry per command line, run in a
directory holding ``task.c``, ``task.s`` and ``bad.s``) is compared
exactly.  Neither is ever re-recorded.  ``repro serve`` likewise passes
only the flags given, and ``ServiceConfig`` fills the rest.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import _serve_config, _submit_payload, build_parser, main
from repro.rt import admission
from repro.service import jobs
from repro.service.server import ServiceConfig
from tests.test_cli import ASM, MINIC

#: ``repro submit KIND TARGET`` targets.
SUBMIT_TARGETS = {
    "run": "cnt",
    "wcet": "fft",
    "lint": "lms",
    "experiment": "table3",
    "noop": "ping",
    "admit": "cnt:0.01",
}

#: Every payload flag of ``repro submit``, each at a non-default value.
EVERY_FLAG = [
    "--scale", "default", "--deadline", "loose", "--instances", "20",
    "--flush-rate", "0.25", "--freq", "500", "--engine", "mc",
    "--sleep-ms", "5", "--task", "crc:0.02:0.015", "--policy", "edf",
    "--threads", "2", "--alpha", "0.5",
]

SUBMIT_KEYS = {
    "run-bare": "0763587afc7cd252837be1ca",
    "run-flags": "b437102d719b76eeea1f9517",
    "wcet-bare": "b3ef87f23d5bb600220498cf",
    "wcet-flags": "696c0ccdde82583d275ecce5",
    "lint-bare": "6ae4c1013417d093b4b59128",
    "lint-flags": "90ab643711da14d7a5343084",
    "experiment-bare": "48813bdcc16bd94e434dfe67",
    "experiment-flags": "f2127ad34d7e346a0a5dc57a",
    "noop-bare": "9c60ed8de46e0743b2fbd390",
    "noop-flags": "9863c22d257234ec16912d59",
    "admit-bare": "6e74427f4c4eebd9171dec0f",
    "admit-flags": "4a335c1fbd64772c816d3e8e",
}

BAD_ASM = "main:\n    j end\n    li t0, 1\nend:\n    halt\n"

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "cli_stdout.json").read_text()
)


def _submit(kind: str, label: str) -> dict:
    flags = EVERY_FLAG if label == "flags" else []
    args = build_parser().parse_args(
        ["submit", kind, SUBMIT_TARGETS[kind], *flags]
    )
    return _submit_payload(args)


@pytest.mark.parametrize("label", ["bare", "flags"])
@pytest.mark.parametrize("kind", sorted(SUBMIT_TARGETS))
def test_submit_payload_coalesce_keys_are_pinned(kind, label):
    payload = jobs.normalize(kind, _submit(kind, label))
    key = jobs.coalesce_key(kind, payload)
    assert key == SUBMIT_KEYS[f"{kind}-{label}"]
    if kind == "admit":
        assert admission.task_set_digest(payload) == key


def test_bare_submit_payload_carries_only_the_target():
    assert _submit("wcet", "bare") == {"workload": "fft"}
    assert _submit("experiment", "bare") == {"name": "table3"}
    assert _submit("noop", "bare") == {"tag": "ping"}
    assert _submit("admit", "bare") == {
        "tasks": [{"workload": "cnt", "period": 0.01}]
    }


def test_wcet_defaults_key_is_pinned():
    payload = jobs.normalize("wcet", {"workload": "cnt"})
    assert payload == {
        "workload": "cnt", "scale": "tiny", "freq_mhz": 1000.0,
        "engine": "static",
    }
    assert jobs.coalesce_key("wcet", payload) == "e65ac29b7fb79837312053f0"


#: ``repro serve`` config flags: field -> (flag, argument, field value).
SERVE_FLAGS = {
    "host": ("--host", "0.0.0.0", "0.0.0.0"),
    "port": ("--port", "0", 0),
    "workers": ("--jobs", "3", 3),
    "queue_depth": ("--queue-depth", "5", 5),
    "default_timeout": ("--timeout", "1.5", 1.5),
    "drain_grace": ("--drain-grace", "2", 2.0),
    "cache_dir": ("--cache-dir", "cache", "cache"),
    "age_seconds": ("--age-seconds", "0.5", 0.5),
    "store_dir": ("--store-dir", "store", "store"),
    "quota_rate": ("--quota-rate", "3", 3.0),
    "quota_burst": ("--quota-burst", "4", 4),
    "metrics_port": ("--metrics-port", "0", 0),
}


def test_every_config_field_but_history_limit_has_a_serve_flag():
    fields = {f.name for f in dataclasses.fields(ServiceConfig)}
    assert set(SERVE_FLAGS) == fields - {"history_limit"}


@pytest.mark.parametrize("field", [None, *sorted(SERVE_FLAGS)])
def test_serve_flags_build_the_service_config(field):
    """No flag gives every ``ServiceConfig`` default; one flag sets only
    its field."""
    if field is None:
        argv, want = [], ServiceConfig()
    else:
        flag, text, value = SERVE_FLAGS[field]
        argv, want = [flag, text], ServiceConfig(**{field: value})
    assert _serve_config(build_parser().parse_args(["serve", *argv])) == want


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    (tmp_path / "task.c").write_text(MINIC)
    (tmp_path / "task.s").write_text(ASM)
    (tmp_path / "bad.s").write_text(BAD_ASM)
    return tmp_path


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_local_command_stdout_is_golden(command, golden_dir, capsys):
    want = GOLDEN[command]
    assert main(command.split()) == want["exit"]
    assert capsys.readouterr().out == want["stdout"]
