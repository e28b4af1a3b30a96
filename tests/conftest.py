"""Shared test helpers."""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager


@contextmanager
def serve_daemon(tmp_path, *extra_args):
    """Boot ``repro serve`` (single node or cluster front) on a free port
    with its cache under ``tmp_path``; yield (process, port).

    On exit the daemon is stopped if it still runs, and its stdout pipe
    is closed whether or not it had already exited.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--cache-dir", str(tmp_path / "cache"), *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    ) as proc:
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, f"unexpected startup line: {line!r}"
            yield proc, int(line.split(":")[-1].split()[0])
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
