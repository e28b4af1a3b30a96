"""Span recorder wrapped around the public functions of each layer.

The wrappers live here, in the benchmark, not in ``repro``: each layer
boundary is one public function or method, timed from outside.  A span
records its name, start, end and parent span; self time is the duration
minus the time its direct children cover.  Workloads open a ``setup``
phase span around set-up and an ``op`` span around each traced op, so
layer metrics of the ops are not mixed with set-up work.  Recording is
switched per op and per thread (:attr:`Tracer.enabled`), so one traced
run alternates traced and untraced ops and prices its own overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Iterator
from pathlib import Path
from typing import Any, Callable

#: span name -> (module, attribute).  ``Class.method`` patches the class,
#: so every caller sees it; a module function is rebound in every loaded
#: ``repro`` module that holds it (callers that imported it by name).
TARGETS: dict[str, tuple[str, str]] = {
    "minicc.compile": ("repro.minicc.driver", "compile_source"),
    "blockjit.block_table": ("repro.isa.blockjit", "block_table"),
    "ooo.run": ("repro.pipelines.ooo.core", "ComplexCore.run"),
    "inorder.run": ("repro.pipelines.inorder", "InOrderCore.run"),
    "visa.instance": ("repro.visa.runtime", "VISARuntime.run_instance"),
    "visa.reeval": ("repro.visa.runtime", "VISARuntime.reevaluate"),
    "power.energy": ("repro.power.report", "energy_of_runs"),
    "runcache.load": ("repro.snapshot.runcache", "load_runs"),
    "runcache.store": ("repro.snapshot.runcache", "store_runs"),
    "warmup.fork": ("repro.snapshot.warmup", "warm_runtime"),
    "setup.prepare": ("repro.experiments.common", "setup"),
    "setup.calibrate": ("repro.wcet.dcache_pad", "calibrate_dcache_bounds"),
    "wcet.dcache_measure": ("repro.wcet.dcache_pad", "measure_dcache_misses"),
    "wcet.analyze": ("repro.wcet.analyzer", "WCETAnalyzer.analyze"),
    "wcet.mc": ("repro.wcet.mc.engine", "ModelCheckEngine.analyze"),
    "admit.decide": ("repro.rt.admission", "decide"),
    "analysis.lint": ("repro.analysis", "lint_program"),
    "client.submit": ("repro.service.client", "ServiceClient.submit"),
}


def _cycles(result: Any) -> float:
    return result.end_cycle - result.start_cycle


#: span name -> value recorded from the wrapped call's result.
_RESULT_VALUES: dict[str, Callable[[Any], float]] = {
    "ooo.run": _cycles,
    "inorder.run": _cycles,
    "visa.instance": lambda run: float(run.mispredicted),
    "runcache.load": lambda runs: float(runs is not None),
}


class Tracer:
    """In-memory spans, written out at the end of the run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.values: dict[int, float] = {}
        self.installed = False
        self._lock = threading.Lock()
        self._local = threading.local()

    def record(self, on: bool) -> None:
        """Record spans in the calling thread (only once installed)."""
        self.enabled = on and self.installed

    @property
    def enabled(self) -> bool:
        """Whether spans record in the calling thread."""
        return getattr(self._local, "enabled", False)

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._local.enabled = value
        if not hasattr(self._local, "stack"):
            self._local.stack = []

    # -- recording --------------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._local.stack
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
        stack.append(index)
        self.starts[index] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An explicit span (the workloads' ``setup`` and ``op`` phases)."""
        if not self.enabled:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        value_of = _RESULT_VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not getattr(tracer._local, "enabled", False):
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if value_of is not None:
                tracer.values[index] = value_of(result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target.  Code that imported a target by name before
        this call keeps the bare function, which the traced-run guard
        reports as a layer that never fired."""
        self.installed = True
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "repro" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # -- aggregation ------------------------------------------------------------

    def phases(self) -> list[str]:
        """Name of each span's outermost ancestor (parents precede children)."""
        roots: list[str] = []
        for i, parent in enumerate(self.parents):
            roots.append(self.names[i] if parent < 0 else roots[parent])
        return roots

    def totals(self, phase: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, ``total`` s, ``self`` s, ``value`` sum.

        ``phase`` keeps only spans under that outermost span.
        """
        roots = self.phases()
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total": 0.0, "self": 0.0, "value": 0.0}
        )
        for i, name in enumerate(self.names):
            if phase is not None and roots[i] != phase:
                continue
            duration = self.ends[i] - self.starts[i]
            entry = out[name]
            entry["count"] += 1
            entry["total"] += duration
            entry["self"] += duration - child[i]
            entry["value"] += self.values.get(i, 0.0)
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: index, name, parent index, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "i": i, "name": name, "parent": self.parents[i],
                    "start": self.starts[i], "end": self.ends[i],
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, factor: float, codegen: dict) -> dict[str, float]:
    """Per-layer metrics; seconds are host-normalised.

    Set-up metrics come from the ``setup`` phase, op metrics from the
    ``op`` spans.  ``codegen`` is the blockjit ``disk_cache_stats()``.
    """
    setup = tracer.totals("setup")
    ops = tracer.totals("op")

    def seconds(table: dict, name: str, key: str = "total") -> float:
        return table[name][key] * factor

    ooo_s = seconds(ops, "ooo.run", "self")
    ino_s = seconds(ops, "inorder.run", "self")
    instances = ops["visa.instance"]["count"]
    loads = ops["runcache.load"]
    return {
        "minicc.compile_calls": ops["minicc.compile"]["count"],
        "minicc.compile_s": seconds(ops, "minicc.compile"),
        "blockjit.codegen_s": seconds(setup, "blockjit.block_table"),
        "blockjit.tables_built": codegen["hits"] + codegen["misses"],
        "blockjit.disk_hit_ratio": _ratio(
            codegen["hits"], codegen["hits"] + codegen["misses"]
        ),
        "ooo.sim_s": ooo_s,
        "ooo.sim_cycles": ops["ooo.run"]["value"],
        "ooo.mcyc_per_s": _ratio(ops["ooo.run"]["value"] / 1e6, ooo_s),
        "inorder.sim_s": ino_s,
        "inorder.sim_cycles": ops["inorder.run"]["value"],
        "inorder.mcyc_per_s": _ratio(ops["inorder.run"]["value"] / 1e6, ino_s),
        "visa.instances": instances,
        "visa.self_s": seconds(ops, "visa.instance", "self"),
        "visa.reeval_s": seconds(ops, "visa.reeval", "self"),
        "visa.mispredict_ratio": _ratio(
            ops["visa.instance"]["value"], instances
        ),
        "power.energy_s": seconds(ops, "power.energy"),
        "runcache.load_s": seconds(ops, "runcache.load"),
        "runcache.store_s": seconds(ops, "runcache.store"),
        "runcache.hit_ratio": _ratio(loads["value"], loads["count"]),
        "warmup.fork_s": seconds(ops, "warmup.fork", "self"),
        "setup.calibrate_s": seconds(setup, "setup.calibrate"),
        "setup.wcet_s": seconds(setup, "wcet.analyze"),
        "wcet.dcache_measure_s": seconds(ops, "wcet.dcache_measure"),
        "wcet.analyze_s": seconds(ops, "wcet.analyze", "self"),
        "wcet.mc_s": seconds(ops, "wcet.mc", "self"),
        "admit.decide_s": seconds(ops, "admit.decide", "self"),
        "analysis.lint_s": seconds(ops, "analysis.lint", "self"),
    }

