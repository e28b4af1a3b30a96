"""Shared machinery: run isolation, the host probe, statistics, results.

Nothing here imports ``repro``: :func:`isolate` must run before the first
``repro`` import so the package sees the fresh cache and store
directories and none of the execution knobs.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CONFIG = json.loads((BENCH_DIR / "config.json").read_text())

#: Execution knobs cleared for every run, so the default path is measured.
KNOBS = (
    "REPRO_JIT_TIER", "REPRO_JIT", "REPRO_OOO_SCHED", "REPRO_WCET_ENGINE",
    "REPRO_NO_CACHE", "REPRO_JOBS", "REPRO_SCALE", "REPRO_INSTANCES",
    "REPRO_CACHE_DIR", "REPRO_STORE_DIR",
)

#: End-to-end timings; each has a host-normalised and a ``raw.`` form.
TIMINGS = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s")


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as the
    repository's BENCHMARK.json lists them."""
    path = BENCH_DIR.parent / "BENCHMARK.json"
    try:
        entries = json.loads(path.read_text())[section]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read {section} from {path}: {exc}") from None
    return {entry["name"]: entry["unit"] for entry in entries}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (environment, isolation, guard)."""


# -- isolation ------------------------------------------------------------------


def isolate(root: Path, workload: str) -> Path:
    """Fresh cache/store directories under ``root``; knobs cleared.

    Returns the scratch directory; the caller removes it.  Must run before
    ``repro`` is imported.
    """
    if any(name == "repro" or name.startswith("repro.") for name in sys.modules):
        raise BenchError("repro imported before run isolation")
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {src}")
    for knob in KNOBS:
        os.environ.pop(knob, None)
    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    scratch = base / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    scratch.mkdir()
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
    os.environ["REPRO_STORE_DIR"] = str(scratch / "store")
    sys.path.insert(0, str(src))
    return scratch


def assert_cold(scratch: Path) -> None:
    """Fail loudly when any run-cache, setup or codegen entry pre-exists."""
    from repro.snapshot import runcache

    cache = runcache.cache_dir().resolve()
    if cache != (scratch / "cache").resolve():
        raise BenchError(f"cache directory escaped isolation: {cache}")
    found = [p.name for p in cache.rglob("*")] if cache.exists() else []
    if found:
        raise BenchError(f"pre-existing cache entries at start: {found[:5]}")


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.parent.rmdir()  # only when no concurrent run uses it
    except OSError:
        pass


# -- host probe -----------------------------------------------------------------


def probe_loop(iterations: int) -> int:
    """The fixed pure-Python probe: integer LCG, dict stores, list churn."""
    acc = 12345
    table: dict[int, int] = {}
    window: list[int] = []
    for i in range(iterations):
        acc = (acc * 1103515245 + 12345 + i) & 0x7FFFFFFF
        table[acc & 1023] = i
        window.append(acc >> 7)
        if len(window) > 64:
            del window[:32]
    return acc + len(table)


def _idle_assertion() -> None:
    """The program under test must not run beside the probe: one thread,
    no child processes."""
    if threading.active_count() != 1:
        raise BenchError("probe with extra Python threads alive")
    tasks = Path("/proc/self/task")
    if tasks.is_dir():
        tids = list(tasks.iterdir())
        if len(tids) != 1:
            raise BenchError(f"probe with {len(tids)} OS threads alive")
        children = (tids[0] / "children").read_text().split()
        if children:
            raise BenchError(f"probe with child processes alive: {children}")


class Probe:
    """Host speed, sampled all through the run by a timer signal.

    Each vCPU of a shared host flips between a fast and a slow state about
    once a second, so probes taken between ops miss most of the changes.
    Instead, every ``interval_s`` a SIGALRM handler runs
    :func:`probe_loop` once with the GC paused.  The handler suspends the
    program's thread while it runs, so the two never run at once.  With
    ``cpus`` the handler pins the thread to each CPU in turn, so one probe
    tracks several CPUs (a daemon's and its worker's); it skips a CPU
    while another process of the program works there (:meth:`busy`).

    A timing is normalised as (raw seconds - probe time overlapping it) x
    ``ref_s`` / the mean probe seconds near it.
    """

    def __init__(self, cpus: tuple[int | None, ...] = (None,)):
        conf = CONFIG["probe"]
        self.iterations = conf["iterations"]
        self.interval_s = conf["interval_s"]
        self.min_points = conf["min_points"]
        self.ref_s = conf["probe_ref_s"]
        self.cpus = cpus
        #: cpu -> start times and durations of its probes, in time order
        self.times: dict[int | None, list[float]] = {cpu: [] for cpu in cpus}
        self.seconds: dict[int | None, list[float]] = {cpu: [] for cpu in cpus}
        self._tick = 0
        self._busy = {cpu: 0 for cpu in cpus}
        self._lock = threading.Lock()

    def start(self) -> None:
        _idle_assertion()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def busy(self, cpu: int | None) -> Iterator[None]:
        """The program works on ``cpu`` (another process or thread): no
        probe runs there meanwhile, so the two never compete."""
        with self._lock:
            self._busy[cpu] += 1
        try:
            yield
        finally:
            with self._lock:
                self._busy[cpu] -= 1

    def _sample(self, signum: int, frame: object) -> None:
        cpu = self.cpus[self._tick % len(self.cpus)]
        self._tick += 1
        if self._busy[cpu]:
            return
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_loop(self.iterations)
        self.seconds[cpu].append(time.perf_counter() - t0)
        self.times[cpu].append(t0)
        if collecting:
            gc.enable()

    def median_s(self) -> float:
        """Median probe seconds over the run (``host_probe_s``)."""
        values = [d for secs in self.seconds.values() for d in secs]
        if not values:
            raise BenchError("no probe samples")
        return statistics.median(values)

    def factor(self) -> float:
        """Run-wide factor, for span times that are not single timings."""
        return self.ref_s / self.median_s()

    def norm(self, start: float, seconds: float, cpu: int | None = None) -> float:
        """``seconds`` timed from ``start`` on ``cpu``, host-normalised."""
        end = start + seconds
        own = 0.0  # probe time overlapping the timing
        for key, times in self.times.items():
            first = bisect.bisect_left(times, start - 1.0)
            for t, d in zip(times[first:], self.seconds[key][first:]):
                if t >= end:
                    break
                own += max(0.0, min(end, t + d) - max(start, t))
        times = self.times[cpu]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_left(times, end)
        while hi - lo < self.min_points and (lo > 0 or hi < len(times)):
            lo, hi = max(0, lo - 1), min(len(times), hi + 1)
        if lo == hi:
            raise BenchError("no probe samples near a timing")
        speed = sum(self.seconds[cpu][lo:hi]) / (hi - lo)
        return (seconds - own) * self.ref_s / speed


# -- statistics -----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(values: list[float], q: float) -> int:
    """Samples strictly above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def digest(value) -> str:
    """Canonical digest of a JSON-able result."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of ``pid`` and all its descendants, in MB."""
    total = 0.0
    pending = [pid]
    while pending:
        current = pending.pop()
        proc = Path(f"/proc/{current}")
        try:
            for line in (proc / "status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
            for task in (proc / "task").iterdir():
                pending.extend(
                    int(c) for c in (task / "children").read_text().split()
                )
        except OSError:
            continue
    return total


# -- ops and results ------------------------------------------------------------


@dataclass
class Op:
    """One completed operation of a workload.

    ``start`` is a ``time.perf_counter()`` reading; ``cpu`` names the CPU
    whose probe samples normalise it (None: the unpinned samples).
    """

    key: str
    kind: str
    start: float
    latency_s: float
    ok: bool
    traced: bool = False
    cpu: int | None = None


@dataclass
class Outcome:
    """Everything a workload hands back to the reporter.

    ``setup_samples`` holds ``(start, seconds, cpu)`` of each repeated
    set-up.
    """

    ops: list[Op]
    setup_samples: list[tuple[float, float, int | None]]
    rss_mb: float
    tail_q: float
    layers: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


class Expected:
    """Expected result digests for the default seed, keyed by op key."""

    def __init__(self, workload: str, seed: int, record: bool):
        self.path = BENCH_DIR / "expected" / f"{workload}.json"
        self.record = record
        self.seed = seed
        self.digests: dict[str, str] = {}
        self.active = record or seed == CONFIG["default_seed"]
        if self.active and not record:
            try:
                self.digests = json.loads(self.path.read_text())["digests"]
            except (OSError, ValueError, KeyError) as exc:
                raise BenchError(f"cannot read {self.path}: {exc}") from None

    def check(self, key: str, value: str) -> str | None:
        """None when ``value`` is right (or unchecked), else a message."""
        if not self.active:
            return None
        if self.record:
            self.digests[key] = value
            return None
        want = self.digests.get(key)
        if want is None or want == value:
            return None
        return f"{key}: digest {value} != expected {want}"

    def save(self) -> None:
        if self.record:
            self.path.parent.mkdir(exist_ok=True)
            self.path.write_text(json.dumps(
                {"seed": self.seed, "digests": self.digests},
                indent=1, sort_keys=True,
            ) + "\n")


def summarize(outcome: Outcome, probe: Probe) -> tuple[dict, dict]:
    """(normalised, raw) end-to-end metric values of one run."""
    ops = outcome.ops
    attempted = len(ops)
    if not attempted:
        raise BenchError("no ops completed")
    values = {}
    for label, scale in (("raw", lambda start, s, cpu: s), ("norm", probe.norm)):
        latencies = [scale(op.start, op.latency_s, op.cpu) for op in ops]
        values[label] = {
            "setup_s": statistics.median(
                scale(*sample) for sample in outcome.setup_samples
            ),
            "ops_per_s": attempted / sum(latencies),
            "op_p50_s": percentile(latencies, 50),
            "op_tail_s": percentile(latencies, outcome.tail_q),
        }
    norm = values["norm"]
    norm["peak_rss_mb"] = outcome.rss_mb
    norm["success_rate"] = sum(op.ok for op in ops) / attempted
    return norm, values["raw"]
