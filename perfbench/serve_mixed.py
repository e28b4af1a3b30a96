"""serve-mixed: an open loop against a ``repro serve --jobs 1`` daemon.

The daemon runs as a child process with its own result store.  Set-up
boots it several times (the median boot is the set-up time) and primes a
hot set of results.  One client process then offers requests at a fixed
rate on two connections: one carries reads (repeats from the hot set,
served from the store) and one carries writes (new ``run``/``wcet``
payloads that simulate, then publish).  Latency runs from each request's
due time.  The daemon and the client share one CPU and the worker has
the other, so the probe, which samples both, normalises reads by the
first and writes by the second.
"""

from __future__ import annotations

import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import (
    CONFIG, BenchError, Expected, Op, Outcome, Probe, digest, percentile,
    self_rss_mb, tree_rss_mb,
)
from spans import Tracer

HOT_RUNS = [
    {"workload": w, "deadline": d, "flush_rate": f}
    for w in ("crc", "cnt") for d in ("tight", "loose") for f in (0.0, 0.2)
]
HOT_SET = (
    [("run", p) for p in HOT_RUNS]
    + [("wcet", {"workload": w}) for w in ("crc", "cnt", "fir", "fft")]
    + [("lint", {"workload": w}) for w in ("crc", "cnt", "fir", "fft")]
    + [("admit", {"tasks": [{"workload": "crc", "period": 0.002},
                            {"workload": "cnt", "period": 0.004}]}),
       ("admit", {"tasks": [{"workload": "fir", "period": 0.003}],
                  "policy": "edf"})]
)
WCET_WRITE_PROGRAMS = ("crc", "cnt")
FLUSH_RATES = (0.0, 0.1, 0.2, 0.3)
GOLDEN = 0.6180339887498949
#: Read at import, before the probe starts pinning this thread to each
#: CPU in turn.
_CPUS = sorted(os.sched_getaffinity(0))
DAEMON_CPU, WORKER_CPU = _CPUS[0], _CPUS[-1]
#: Idle time between daemon boots, so each boot has probe samples beside it.
IDLE_GAP_S = 0.3


class Daemon:
    """One ``python -m repro serve`` child process."""

    def __init__(self, root: Path, scratch: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log = (scratch / "daemon.log").open("ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "1",
             "--port", "0", "--store-dir", str(scratch / "store")],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
            preexec_fn=lambda: os.sched_setaffinity(0, {DAEMON_CPU}),
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + 60.0
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode()
            if not line:
                break
            if "listening on" in line:
                return int(line.split()[3].rsplit(":", 1)[1])
        self.stop()
        raise BenchError("daemon did not start")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def _boot(root: Path, scratch: Path):
    from repro.service.client import ServiceClient

    daemon = Daemon(root, scratch)
    with ServiceClient(port=daemon.port, timeout=60.0) as client:
        if not client.ping():
            daemon.stop()
            raise BenchError("daemon does not answer ping")
    return daemon


def _schedule(seed: int, count: int, rate: float, tight_s: float):
    """``(due offset, op kind, key, job kind, payload)`` per request.

    Reads walk the hot set in seeded permutations.  Every
    ``write_every``-th request is a write; writes alternate between a
    ``run`` of crc and a ``wcet`` of crc or cnt, so every seed has the
    same mix.  Run deadlines are stratified over tight x [1.0, 1.6) (a
    golden-ratio sequence from a seeded start) because a run's cost
    depends on its deadline.  The op kind is ``read`` for store reads,
    else the write's job kind and program.
    """
    from repro.workloads import get_workload

    conf = CONFIG["workloads"]["serve-mixed"]
    rng = random.Random(f"serve-mixed:{seed}")
    offset = rng.random()
    hot_order: list[int] = []
    plan = []
    for index in range(count):
        due = index / rate
        writes, slot = divmod(index, conf["write_every"])
        if slot != conf["write_every"] - 1:
            if not hot_order:
                hot_order = rng.sample(range(len(HOT_SET)), len(HOT_SET))
            hot = hot_order.pop()
            kind, payload = HOT_SET[hot]
            plan.append((due, "read", f"hot:{hot}", kind, payload))
        elif writes % 2 == 0:
            runs = writes // 2
            factor = round(1.0 + 0.6 * ((offset + runs * GOLDEN) % 1.0), 4)
            flush = FLUSH_RATES[runs % len(FLUSH_RATES)]
            payload = {
                "workload": "crc",
                "deadline": round(tight_s * factor, 12),
                "instances": conf["run_write_instances"],
                "flush_rate": flush,
            }
            plan.append((due, "run:crc", f"run:crc:{factor}:{flush}", "run",
                         payload))
        else:
            program = rng.choice(WCET_WRITE_PROGRAMS)
            source = get_workload(program, "tiny").source
            payload = {"source": source + f"\n// perfbench {seed}:{index}\n"}
            plan.append((due, f"wcet:{program}", f"wcet:{program}", "wcet",
                         payload))
    return plan


def probe_cpus() -> tuple[int, int]:
    """(daemon CPU, worker CPU): the daemon's event loop, which serves the
    reads, and the client share the first; the worker simulates on the
    second."""
    return DAEMON_CPU, WORKER_CPU


def run(seed: int, seconds: float, probe: Probe, tracer: Tracer,
        expected: Expected) -> Outcome:
    conf = CONFIG["workloads"]["serve-mixed"]
    root = Path(__file__).resolve().parent.parent
    scratch = Path(os.environ["REPRO_CACHE_DIR"]).parent

    setup_samples = []
    daemon = None
    try:
        for _ in range(conf["daemon_boots"]):
            time.sleep(IDLE_GAP_S)  # probe samples on both CPUs
            with probe.busy(DAEMON_CPU), probe.busy(WORKER_CPU):
                if daemon is not None:
                    daemon.stop()
                t0 = time.perf_counter()
                daemon = _boot(root, scratch)
                setup_samples.append((t0, time.perf_counter() - t0, DAEMON_CPU))
        return _drive(daemon, seed, seconds, probe, tracer, expected,
                      setup_samples)
    finally:
        if daemon is not None:
            daemon.stop()


def _drive(daemon, seed, seconds, probe, tracer, expected,
           setup_samples) -> Outcome:
    from repro.errors import ReproError
    from repro.service.client import ServiceClient
    from repro.service.top import parse_exposition

    conf = CONFIG["workloads"]["serve-mixed"]
    for pid in _children(daemon.proc.pid):
        os.sched_setaffinity(pid, {WORKER_CPU})
    control = ServiceClient(port=daemon.port, timeout=120.0).connect()
    with probe.busy(DAEMON_CPU), probe.busy(WORKER_CPU):
        hot_digests = [
            digest(control.submit(kind, payload).value)
            for kind, payload in HOT_SET
        ]
        # HOT_RUNS[0] is crc at the tight deadline: the writes' basis.
        tight_s = control.submit("run", HOT_RUNS[0]).value["deadline_seconds"]
        wcet_cycles = {
            payload["workload"]:
                control.submit(kind, payload).value["total_cycles"]
            for kind, payload in HOT_SET if kind == "wcet"
        }
    for index, value in enumerate(hot_digests):
        problem = expected.check(f"hot:{index}", value)
        if problem:
            raise BenchError(problem)

    before = parse_exposition(control.metrics_text())
    rate = conf["rate_per_s"]
    plan = list(enumerate(
        _schedule(seed, max(1, round(seconds * rate)), rate, tight_s)
    ))
    ops: list[Op] = []
    errors: list[str] = []
    send_latency: list[float] = []
    lock = threading.Lock()
    # One connection carries the reads, one the writes, so a read never
    # waits behind a simulating write on the client side.
    lanes = {
        name: ServiceClient(port=daemon.port, timeout=120.0).connect()
        for name in ("read", "write")
    }

    def lane(name: str, start: float) -> None:
        os.sched_setaffinity(0, {DAEMON_CPU})
        client = lanes[name]
        cpu = DAEMON_CPU if name == "read" else WORKER_CPU
        for index, (due, op_kind, key, kind, payload) in plan:
            if (op_kind == "read") != (name == "read"):
                continue
            traced = index % 2 == 0
            tracer.record(traced)
            due_at = start + due
            pause = due_at - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            problem = None
            with probe.busy(cpu):
                sent = time.perf_counter()
                try:
                    value = client.submit(kind, payload).value
                except ReproError as exc:
                    value, problem = None, f"{key}: {exc}"
                done = time.perf_counter()
            if value is not None:
                problem = _check(op_kind, key, kind, value, hot_digests,
                                 wcet_cycles, expected)
            with lock:
                send_latency.append(done - sent)
                ops.append(Op(key, op_kind, due_at, done - due_at,
                              problem is None, traced, cpu))
                if problem:
                    errors.append(problem)

    start = time.perf_counter() + 0.1
    threads = [
        threading.Thread(target=lane, args=(name, start))
        for name in ("read", "write")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    samples = parse_exposition(control.metrics_text())
    rss = self_rss_mb() + tree_rss_mb(daemon.proc.pid)
    for client in lanes.values():
        client.close()
    control.close()

    factor = probe.factor()
    reads = [probe.norm(op.start, op.latency_s, op.cpu)
             for op in ops if op.kind == "read"]
    writes = [probe.norm(op.start, op.latency_s, op.cpu)
              for op in ops if op.kind != "read"]
    layers = {
        "serve.read_p50_s": statistics.median(reads) if reads else 0.0,
        "serve.read_tail_s": percentile(reads, conf["tail_q"]) if reads else 0.0,
        "serve.write_p50_s": statistics.median(writes) if writes else 0.0,
    }
    if tracer.installed:
        layers.update(_service_layers(before, samples, send_latency, factor))
    return Outcome(
        ops=ops,
        setup_samples=setup_samples,
        rss_mb=rss,
        tail_q=conf["tail_q"],
        layers=layers,
        errors=errors,
    )


def _children(pid: int) -> list[int]:
    children = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        children.extend(int(c) for c in (task / "children").read_text().split())
    return children


def _check(op_kind, key, kind, value, hot_digests, wcet_cycles, expected):
    """None when a response is right, else a message."""
    if op_kind == "read":
        index = int(key.split(":")[1])
        if digest(value) != hot_digests[index]:
            return f"{key}: store read differs from the primed result"
        return None
    if kind == "wcet":
        program = key.split(":")[1]
        if value["total_cycles"] != wcet_cycles[program]:
            return f"{key}: bound {value['total_cycles']} != {wcet_cycles[program]}"
        return None
    if not (value["complex_mhz"] > 0 and value["simple_mhz"] > 0):
        return f"{key}: malformed run result"
    return expected.check(key, digest(value))


def _service_layers(before, after, send_latency, factor) -> dict[str, float]:
    """Daemon-side metrics over the loop, from its own exposition."""
    def delta(name, **fixed):
        return sum(
            value - before.get((metric, labels), 0.0)
            for (metric, labels), value in after.items()
            if metric == name and all((k, v) in labels for k, v in fixed.items())
        )

    queue_s = delta("repro_job_phase_seconds_sum", phase="queue")
    execute_s = delta("repro_job_phase_seconds_sum", phase="execute")
    executed = delta("repro_job_phase_seconds_count", phase="execute")
    hits = delta("repro_store_ops_total", op="hits")
    misses = delta("repro_store_ops_total", op="misses")
    return {
        "service.queue_wait_s": queue_s / executed * factor if executed else 0.0,
        "service.execute_s": execute_s / executed * factor if executed else 0.0,
        "service.store_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.coalesced": delta("repro_jobs_coalesced_total"),
        "service.rejected": delta("repro_jobs_rejected_total"),
        "service.transport_s": (
            (sum(send_latency) - queue_s - execute_s) / len(send_latency) * factor
        ),
    }
