"""CI smoke check: the repro service round-trips every job kind.

Boots a real daemon subprocess, submits one job of each kind (``run``,
``wcet``, ``lint``, ``experiment``, ``admit``, ``noop``) through the
blocking client and validates each result shape.  Then runs
``python -m repro submit wcet fft`` with no payload flags against the
same daemon: its printed result must equal the client's result for
``{"workload": "fft"}``, so the defaults the CLI leaves out are the ones
the normalizer fills.  Then runs ``python -m repro top --once`` against
the daemon: it must exit 0 and print a frame titled ``repro service``
with a ``workers alive`` line.  Finally sends SIGTERM and requires a
clean drain (exit code 0) within a deadline.

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

DRAIN_DEADLINE = 60.0

JOBS: list[tuple[str, dict, str]] = [
    ("run", {"workload": "cnt", "instances": 6}, "savings"),
    ("wcet", {"workload": "fft"}, "total_cycles"),
    ("lint", {"workload": "lms"}, "clean"),
    ("experiment", {"name": "table3", "instances": 4}, "rows"),
    ("admit", {"tasks": [{"workload": "cnt", "period": 0.01}]}, "admissible"),
    ("noop", {"tag": "smoke", "sleep_ms": 10}, "slept_ms"),
]


def main() -> int:
    from repro.service.client import ServiceClient

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--jobs", "2", "--cache-dir", tmp,
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            if "listening on" not in line:
                print(
                    f"service_smoke: FAIL: bad startup line {line!r}",
                    file=sys.stderr,
                )
                return 1
            port = int(line.split(":")[-1].split()[0])

            with ServiceClient("127.0.0.1", port, timeout=300.0) as client:
                if not client.ping():
                    print("service_smoke: FAIL: ping", file=sys.stderr)
                    return 1
                for kind, payload, key in JOBS:
                    start = time.perf_counter()
                    result = client.submit(kind, payload)
                    elapsed = time.perf_counter() - start
                    if not result.ok or key not in result.value:
                        print(
                            f"service_smoke: FAIL: {kind} returned "
                            f"{result!r}",
                            file=sys.stderr,
                        )
                        return 1
                    print(
                        f"service_smoke: {kind:<10} ok in {elapsed:6.2f}s "
                        f"({key} present)"
                    )
                want = client.submit("wcet", {"workload": "fft"}).value

            cli = subprocess.run(
                [
                    sys.executable, "-m", "repro", "submit", "wcet", "fft",
                    "--port", str(port),
                ],
                capture_output=True, text=True, env=env, timeout=300,
            )
            try:
                got = json.loads(cli.stdout)
            except ValueError:
                got = None
            if cli.returncode != 0 or got != want:
                print(
                    f"service_smoke: FAIL: repro submit wcet fft printed "
                    f"{cli.stdout!r} (exit {cli.returncode}), client got "
                    f"{want!r}",
                    file=sys.stderr,
                )
                return 1
            print("service_smoke: repro submit wcet fft == client result")

            top = subprocess.run(
                [
                    sys.executable, "-m", "repro", "top", "--once",
                    "--port", str(port),
                ],
                capture_output=True, text=True, env=env, timeout=60,
            )
            frame = top.stdout
            if (
                top.returncode != 0
                or not frame.startswith("repro service")
                or "workers alive" not in frame
            ):
                print(
                    f"service_smoke: FAIL: repro top --once printed "
                    f"{frame!r} (exit {top.returncode}, stderr "
                    f"{top.stderr!r})",
                    file=sys.stderr,
                )
                return 1
            print("service_smoke: repro top --once renders a frame")

            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=DRAIN_DEADLINE)
            except subprocess.TimeoutExpired:
                print(
                    "service_smoke: FAIL: daemon did not drain within "
                    f"{DRAIN_DEADLINE}s of SIGTERM",
                    file=sys.stderr,
                )
                return 1
            if proc.returncode != 0:
                print(
                    f"service_smoke: FAIL: drain exit code "
                    f"{proc.returncode}",
                    file=sys.stderr,
                )
                return 1
            print(
                "service_smoke: OK (all kinds round-trip, CLI submit "
                "matches, top renders, clean drain)"
            )
            return 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
