"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE``   — compile MiniC to RTP-32 assembly (stdout).
* ``asm FILE``       — assemble and hex-dump a program.
* ``disasm FILE``    — compile/assemble, then disassemble with addresses.
* ``run FILE``       — execute on a core (``--core simple|complex``),
  print console output and cycle statistics.
* ``wcet FILE``      — per-sub-task WCETs (``--freq`` selectable;
  ``--engine static|mc`` picks the paper's timing-tree analyzer or the
  bounded model-checking oracle; ``--format json`` for machine output).
* ``wcet diff``      — run both WCET engines plus both simulated cores
  and report per-sub-task ``static − mc`` precision gaps; exits non-zero
  if ``static >= mc >= observed`` is violated anywhere (soundness bug).
* ``pack FILE OUT``  — write a timed binary (program + parameterized WCET).
* ``lint FILE...``   — static analysis / ABI / WCET-soundness lint
  (``--workloads`` lints every built-in C-lab workload instead of files;
  ``--disable ID,ID`` skips checks).  Exit status 1 when any diagnostic
  is reported.
* ``experiment NAME``— run table3 / figure2 / figure3 / figure4 /
  ablations and check the paper's claims on the result (exit status 1
  when one breaks; ``--jobs N`` fans independent cells across processes;
  ``REPRO_JOBS`` is the environment equivalent; ``--no-cache`` bypasses
  the on-disk setup/run caches like ``REPRO_NO_CACHE=1``).
* ``cache``          — inspect the on-disk cache (``repro cache`` lists
  entries and sizes; ``repro cache stats`` prints one row per kind:
  entries and bytes on disk plus the in-process hit/miss/store and memo
  counters; ``repro cache clear`` deletes entries).
* ``serve``          — run the toolchain as a long-lived asyncio daemon
  (job queue, process worker pool, request coalescing, live metrics —
  see docs/service.md).
* ``submit``         — send one job (run/wcet/lint/experiment/noop/admit)
  to a running service, print its acceptance and progress events on
  stderr as they arrive, and print the result.  Only the payload flags
  given are sent; the service's normalizer fills every other field.
* ``status``         — query a running service (``--metrics`` for the
  Prometheus-style text exposition).
* ``admit``          — task-set admission control: derive WCETs, pick
  the recovery DVS setting and EQ 1 checkpoint plans, run the RM/EDF
  tests, and report admissible/not with per-task slack.  Exit status 1
  when the set is not admissible.
* ``top``            — live terminal view of a running service (queue
  depth, per-kind throughput and p50/p99, worker health; ``--once``
  prints a single frame).

MiniC files use extension ``.c`` (anything other than ``.s``/``.asm``);
assembly files use ``.s``/``.asm``.

Shared flags are declared once each (endpoint, ``--format``, WCET
engine/clock, admission flags, ``files``/``--workloads`` targets).
Payload defaults live only in the job normalizers: ``submit`` and
``admit`` leave unset flags out of the payload, and ``wcet FILE``, which
cannot go through a normalizer, reads :mod:`repro.wcet`'s defaults.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.errors import ClaimError, ProtocolError, ReproError
from repro.experiments import EXPERIMENT_NAMES
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble
from repro.jobfields import DEFAULT_SCALE, POLICIES
from repro.memory.machine import Machine
from repro.minicc import compile_source, compile_to_asm
from repro.pipelines.inorder import InOrderCore
from repro.pipelines.ooo.core import ComplexCore
from repro.visa.binary import attach_wcet, dumps
from repro.wcet.dcache_pad import measure_dcache_misses
from repro.wcet import DEFAULT_ENGINE, DEFAULT_FREQ_MHZ, ENGINES, wcet_result
from repro.workloads.suite import ALL_WORKLOAD_NAMES, SCALES, get_workload


def _load_program(path: str):
    text = pathlib.Path(path).read_text()
    if path.endswith((".s", ".asm")):
        return assemble(text)
    return compile_source(text)


def cmd_compile(args) -> int:
    """``compile``: MiniC -> assembly on stdout."""
    print(compile_to_asm(pathlib.Path(args.file).read_text()), end="")
    return 0


def cmd_asm(args) -> int:
    """``asm``: assemble and hex-dump instruction words."""
    program = _load_program(args.file)
    for i, word in enumerate(program.words):
        print(f"{program.text_base + 4 * i:#010x}  {word:08x}")
    return 0


def cmd_disasm(args) -> int:
    """``disasm``: disassemble with labels and addresses."""
    program = _load_program(args.file)
    labels = {addr: name for name, addr in program.symbols.items()}
    for i, word in enumerate(program.words):
        addr = program.text_base + 4 * i
        if addr in labels:
            print(f"{labels[addr]}:")
        print(f"  {addr:#010x}  {disassemble(word, addr)}")
    return 0


def cmd_run(args) -> int:
    """``run``: execute on a simulated core; print console + stats."""
    program = _load_program(args.file)
    machine = Machine(program)
    core_cls = ComplexCore if args.core == "complex" else InOrderCore
    core = core_cls(machine, freq_hz=args.freq * 1e6)
    result = core.run()
    for cycle, value in machine.mmio.console:
        print(f"[cycle {cycle}] {value}")
    print(
        f"# {result.reason}: {result.end_cycle} cycles, "
        f"{core.state.instret} instructions "
        f"(IPC {core.state.instret / max(1, result.end_cycle):.2f}) "
        f"on the {args.core} core @ {args.freq:.0f} MHz",
        file=sys.stderr,
    )
    print(
        f"# I-cache {machine.icache.stats.misses}/{machine.icache.stats.accesses} "
        f"misses, D-cache {machine.dcache.stats.misses}/"
        f"{machine.dcache.stats.accesses} misses",
        file=sys.stderr,
    )
    return 0


def cmd_wcet(args) -> int:
    """``wcet``: per-sub-task WCET report (static or model-checking)."""
    result = wcet_result(_load_program(args.file), args.freq_mhz, args.engine)
    engine, stall = result["engine"], result["stall_cycles"]
    if args.format == "json":
        for sub in result["subtasks"]:
            print(json.dumps({
                "type": "subtask",
                "engine": engine,
                "subtask": sub["index"],
                "cycles": sub["cycles"],
                "dmiss_bound": sub["dmiss_bound"],
                "stall": stall,
                "total_cycles": sub["total_cycles"],
            }, sort_keys=True))
        print(json.dumps({
            "type": "total",
            "engine": engine,
            "freq_mhz": result["freq_mhz"],
            "stall": stall,
            "total_cycles": result["total_cycles"],
            "total_us": round(result["total_us"], 4),
        }, sort_keys=True))
        return 0
    print(
        f"WCET @ {result['freq_mhz']:.0f} MHz ({engine} engine, "
        f"memory stall {stall} cycles):"
    )
    for sub in result["subtasks"]:
        print(
            f"  sub-task {sub['index']}: {sub['total_cycles']} cycles "
            f"({sub['cycles']} pipeline + {sub['dmiss_bound']} D-miss pad)"
        )
    print(
        f"  total: {result['total_cycles']} cycles = "
        f"{result['total_us']:.2f} us"
    )
    return 0


def _targets(args) -> list[tuple[str, object, object]]:
    """(name, program, prepare) per ``files``/``--workloads`` target,
    ``prepare`` loading a workload's inputs (None for a file); prints the
    usage error when there is none (the caller exits 2)."""
    targets: list[tuple[str, object, object]] = []
    if args.workloads:
        for name in ALL_WORKLOAD_NAMES:
            w = get_workload(name, args.scale)

            def prepare(machine, w=w):
                w.apply_inputs(machine, w.generate_inputs(0))

            targets.append((name, w.program, prepare))
    for path in args.files:
        targets.append((path, _load_program(path), None))
    if not targets:
        print(
            "repro: error: no files given (or use --workloads)",
            file=sys.stderr,
        )
    return targets


def cmd_wcet_diff(args) -> int:
    """``wcet diff``: differential soundness oracle (static vs mc).

    Runs both WCET engines (and both simulated pipelines) per target and
    reports per-sub-task ``static - mc`` gaps.  Exits 1 when any rung of
    ``static >= mc >= observed`` is violated — i.e. when the static
    analyzer under-bounds an exactly explored or actually executed path.
    """
    from repro.wcet.mc.diff import diff_program

    targets = _targets(args)
    if not targets:
        return 2

    failures = 0
    for name, program, prepare in targets:
        report = diff_program(
            program, freq_mhz=args.freq, prepare=prepare,
            state_cap=args.state_cap,
        )
        if not report.ok:
            failures += 1
        if args.format == "json":
            for sub in report.subtasks:
                print(json.dumps(
                    {"type": "subtask", "program": name, **sub.to_dict()},
                    sort_keys=True,
                ))
            print(json.dumps(
                {"type": "program", "program": name, **report.to_dict(),
                 "subtasks": len(report.subtasks)},
                sort_keys=True,
            ))
            continue
        verdict = "ok" if report.ok else "UNSOUND"
        print(
            f"{name}: {verdict} @ {report.freq_mhz:.0f} MHz — "
            f"static {report.total_static} vs mc {report.total_mc} cycles "
            f"(gap {report.gap_pct:.2f}%)"
        )
        for sub in report.subtasks:
            line = (
                f"  sub-task {sub.index}: static {sub.static_cycles} "
                f"mc {sub.mc_cycles} gap {sub.gap} ({sub.gap_pct:.2f}%) "
                f"observed simple/complex "
                f"{sub.observed_simple}/{sub.observed_complex}"
            )
            for violation in sub.violations:
                line += f"  ** {violation}"
            print(line)
    reported = f"{failures} unsound" if failures else "all sound"
    print(
        f"# wcet diff: {len(targets)} program(s), {reported}",
        file=sys.stderr,
    )
    return 1 if failures else 0


def cmd_pack(args) -> int:
    """``pack``: write a timed binary (program + WCET params)."""
    program = _load_program(args.file)
    binary = attach_wcet(
        program, dcache_bounds=measure_dcache_misses(program)
    )
    pathlib.Path(args.out).write_text(dumps(binary))
    print(
        f"wrote {args.out}: {len(program.words)} instructions, "
        f"{len(binary.params)} sub-task WCET parameters, "
        f"VISA {binary.fingerprint}"
    )
    return 0


def cmd_lint(args) -> int:
    """``lint``: run the static-analysis checks; exit 1 on any finding."""
    from repro.analysis import ALL_CHECKS, lint_program

    disable = frozenset(
        name.strip() for name in (args.disable or "").split(",") if name.strip()
    )
    unknown = disable - set(ALL_CHECKS)
    if unknown:
        print(
            f"repro: error: unknown checks: {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2

    targets = _targets(args)
    if not targets:
        return 2

    total = 0
    for name, program, _ in targets:
        diagnostics = lint_program(program, disable=disable)
        total += len(diagnostics)
        for diag in diagnostics:
            if args.format == "json":
                print(json.dumps({
                    "type": "finding",
                    "program": name,
                    "check": diag.check,
                    "severity": str(diag.severity),
                    "message": diag.message,
                    "addr": diag.addr,
                    "instruction": diag.instruction,
                    "context": diag.context,
                    "reg": diag.reg,
                    "span": diag.span,
                }, sort_keys=True))
            else:
                print(f"{name}: {diag.render()}")
    if args.format == "json":
        print(json.dumps(
            {"type": "summary", "programs": len(targets), "findings": total},
            sort_keys=True,
        ))
    reported = f"{total} diagnostic(s)" if total else "clean"
    print(f"# lint: {len(targets)} program(s), {reported}", file=sys.stderr)
    return 1 if total else 0


def cmd_trace(args) -> int:
    """``trace``: textbook pipeline diagram on the VISA pipeline."""
    from repro.tools.trace import trace_inorder

    program = _load_program(args.file)
    trace = trace_inorder(program, max_instructions=args.n)
    print(trace.render(max_width=args.width))
    print(
        f"# {len(trace.rows)} instructions over {trace.cycles} cycles "
        "on the VISA pipeline (lowercase r = register-read stall)",
        file=sys.stderr,
    )
    return 0


def cmd_experiment(args) -> int:
    """``experiment``: run one of the paper's experiments.

    Prints the experiment's output, then one ``# claims:`` line on
    stderr; a broken claim raises :class:`~repro.errors.ClaimError`
    (exit status 1).  ``--jobs`` is an explicit parameter and
    ``--no-cache`` a scoped
    :func:`~repro.snapshot.runcache.no_cache_override` (environment
    variables remain the defaults only), so concurrent in-process
    callers never race on mutated global state.
    """
    from repro.experiments import experiment_module
    from repro.experiments.common import default_scale
    from repro.snapshot import runcache

    with runcache.no_cache_override(args.no_cache or None):
        broken = experiment_module(args.name).main(jobs=args.jobs)
    if broken is None:
        print(
            f"# claims: not checked at scale {default_scale()} "
            "(the paper's shapes need REPRO_SCALE=default)",
            file=sys.stderr,
        )
    elif not broken:
        print(f"# claims: {args.name}: all hold", file=sys.stderr)
    else:
        print(
            f"# claims: {args.name}: {len(broken)} broken",
            file=sys.stderr,
        )
        raise ClaimError(f"{args.name}: " + "; ".join(broken))
    return 0


def cmd_cache(args) -> int:
    """``cache``: inspect or clear the on-disk cache entries."""
    from repro.experiments.common import format_table
    from repro.snapshot import runcache

    directory = runcache.cache_dir()
    if args.action == "stats" and args.store:
        from repro.service.store import store_stats

        stats = store_stats(
            None if args.store_dir is None else pathlib.Path(args.store_dir)
        )
        rows = [
            ["entries", str(stats["entries"])],
            ["bytes", str(stats["bytes"])],
        ]
        print(format_table(["shared-store statistic", "value"], rows))
        print(f"# directory: {stats['directory']}")
        return 0
    if args.action == "clear":
        removed, freed = runcache.clear_cache()
        print(f"removed {removed} entries ({freed} bytes) from {directory}")
        return 0
    if args.action == "stats":
        stats = runcache.cache_stats()
        columns = ("entries", "bytes", *runcache.OPS)
        rows = [
            [kind, *(str(row[column]) for column in columns)]
            for kind, row in stats["kinds"].items()
        ]
        print(format_table(
            ["kind", *(c.replace("_", " ") for c in columns)], rows
        ))
        print(f"# directory: {stats['directory']}")
        print("# counts are this process's; entries and bytes are on disk")
        return 0
    entries = runcache.cache_entries()
    if not entries:
        print(f"cache at {directory} is empty")
        return 0
    total = sum(size for _, size in entries)
    for filename, size in entries:
        print(f"{size:>10}  {filename}")
    print(f"{total:>10}  total in {len(entries)} entries ({directory})")
    return 0


def cmd_serve(args) -> int:
    """``serve``: run the async simulation service until SIGTERM."""
    import asyncio

    from repro.service.server import serve

    asyncio.run(serve(_serve_config(args)))
    return 0


#: ``repro serve`` flags that set a ``ServiceConfig`` field (besides
#: ``--host``/``--port``): flag -> (field, type, help).  No flag has a
#: default of its own; ``cmd_serve`` passes only the flags given.
_SERVE_FLAGS: dict[str, tuple[str, type, str]] = {
    "--jobs": ("workers", int, "worker processes"),
    "--queue-depth": (
        "queue_depth", int,
        "max queued jobs before submissions are rejected",
    ),
    "--timeout": (
        "default_timeout", float,
        "default per-job wall-clock budget, seconds",
    ),
    "--drain-grace": (
        "drain_grace", float,
        "SIGTERM drain budget for accepted jobs, seconds",
    ),
    "--cache-dir": (
        "cache_dir", str,
        "cache directory for workers (default: REPRO_CACHE_DIR)",
    ),
    "--store-dir": (
        "store_dir", str,
        "shared result-store directory: completed results are served "
        "from it before forking a worker (default: off)",
    ),
    "--age-seconds": (
        "age_seconds", float,
        "promote queue entries one priority level after waiting this "
        "long (default: aging off)",
    ),
    "--quota-rate": (
        "quota_rate", float,
        "per-host submissions per second (token bucket; 0 = unlimited)",
    ),
    "--quota-burst": ("quota_burst", int, "per-host token-bucket burst"),
    "--metrics-port": (
        "metrics_port", int,
        "also serve GET /metrics over plain HTTP on this port "
        "(0 picks a free port, printed on startup; default: off)",
    ),
}


def _serve_config(args):
    """The ``ServiceConfig`` of the ``serve`` flags given; the dataclass
    fills every other field."""
    import dataclasses

    from repro.service.server import ServiceConfig

    fields = tuple(f.name for f in dataclasses.fields(ServiceConfig))
    return ServiceConfig(**_given(args, fields))


def _parse_task_spec(spec: str, default_scale: str | None) -> dict:
    """Parse one ``workload:period[:deadline][@scale]`` task spec.

    A spec without ``@scale`` takes ``default_scale``; with neither, the
    task carries no ``scale`` and the normalizer fills it.
    """
    body, _, scale = spec.partition("@")
    fields = body.split(":")
    if not 2 <= len(fields) <= 3:
        raise ProtocolError(
            f"bad task spec {spec!r}: expected "
            "workload:period[:deadline][@scale] with times in seconds"
        )
    try:
        task = {"workload": fields[0], "period": float(fields[1])}
        if len(fields) == 3:
            task["deadline"] = float(fields[2])
    except ValueError:
        raise ProtocolError(
            f"bad task spec {spec!r}: period/deadline must be seconds"
        ) from None
    if scale or default_scale:
        task["scale"] = scale or default_scale
    return task


def _given(args, fields: tuple[str, ...]) -> dict:
    """The ``fields`` whose flags were given (a flag's ``dest`` is its
    field name; a field with no flag is never given); the normalizer or
    the config type fills the others."""
    return {
        field: getattr(args, field)
        for field in fields
        if getattr(args, field, None) is not None
    }


#: The payload fields of the admission flags (``admit``, ``submit admit``).
_ADMIT_FIELDS = ("policy", "background_threads", "alpha", "engine")


def _admit_payload(args, specs: list[str]) -> dict:
    """The ``admit`` payload of task specs plus the given admission flags."""
    return {
        "tasks": [_parse_task_spec(spec, args.scale) for spec in specs],
        **_given(args, _ADMIT_FIELDS),
    }


def _render_admission(decision: dict) -> str:
    """Human-readable report for one admission decision."""
    from repro.experiments.common import format_table

    lines = []
    verdict = "ADMISSIBLE" if decision["admissible"] else "NOT ADMISSIBLE"
    lines.append(
        f"{verdict} under {decision['policy'].upper()} "
        f"(engine {decision['engine']}, digest {decision['task_set_digest']})"
    )
    if decision["reason"]:
        lines.append(f"reason: {decision['reason']}")
    spec = f"{decision['f_spec_mhz']:.0f} MHz @ {decision['f_spec_volts']} V"
    if decision["f_rec_mhz"] is not None:
        lines.append(
            f"plan: speculate at {spec}, recover at "
            f"{decision['f_rec_mhz']:.0f} MHz @ {decision['f_rec_volts']} V"
        )
        lines.append(
            f"utilization {decision['utilization']:.2%}, "
            f"slack for background work {decision['slack_fraction']:.2%}"
        )
    else:
        lines.append(f"evaluated at the top setting: {spec}")
    rows = []
    for task in decision["tasks"]:
        def us(value):
            return "-" if value is None else f"{value * 1e6:.1f}"

        plan = task.get("plan")
        rows.append(
            [
                task["name"],
                f"{task['period_seconds'] * 1e3:g}",
                f"{task['deadline_seconds'] * 1e3:g}",
                us(task["wcet_top_seconds"]),
                us(task["wcet_rec_seconds"]),
                us(task["response_seconds"]),
                us(task["slack_seconds"]),
                "-" if not plan else str(len(plan["checkpoints"])),
            ]
        )
    lines.append(
        format_table(
            ["task", "T (ms)", "D (ms)", "wcet@spec (us)",
             "wcet@rec (us)", "response (us)", "slack (us)", "ckpts"],
            rows,
        )
    )
    smt = decision["smt"]
    viable = smt["speculation_viable"]
    lines.append(
        f"smt: {smt['background_threads']} background thread(s), "
        f"rt share {smt['rt_share']:.2f}, harvestable "
        f"{smt['harvestable_share']:.2%}, speculation "
        f"{'viable' if viable else '-' if viable is None else 'NOT viable'}"
    )
    if decision["simulated"]:
        sim = decision["simulated"]
        lines.append(
            f"simulated {sim['jobs']} jobs over one hyperperiod "
            f"({decision['hyperperiod_seconds']:g} s): "
            f"{'all deadlines met' if sim['all_met'] else 'DEADLINE MISS'}"
        )
    return "\n".join(lines)


def cmd_admit(args) -> int:
    """``admit``: run the admission decision locally (library path)."""
    from repro.rt.admission import cached_decide, normalize_payload
    from repro.snapshot import runcache

    payload = normalize_payload(_admit_payload(args, args.tasks))
    with runcache.no_cache_override(args.no_cache or None):
        decision = cached_decide(payload)
    if args.format == "json":
        print(json.dumps(decision, indent=2, sort_keys=True))
    else:
        print(_render_admission(decision))
    return 0 if decision["admissible"] else 1


def cmd_top(args) -> int:
    """``top``: live dashboard against a running service."""
    from repro.service.top import run_top

    try:
        run_top(args.host, args.port, interval=args.interval, once=args.once)
    except KeyboardInterrupt:
        pass
    return 0


#: Per ``repro submit`` kind: the payload field the target fills, and
#: the payload fields its flags may fill.
_SUBMIT_FIELDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "run": ("workload", ("scale", "deadline", "instances", "flush_rate")),
    "wcet": ("workload", ("scale", "freq_mhz", "engine")),
    "lint": ("workload", ("scale",)),
    "experiment": ("name", ("scale", "instances")),
    "noop": ("tag", ("sleep_ms",)),
}


def _submit_payload(args) -> dict:
    """The job payload of ``repro submit``'s target and given flags
    (``jobs.normalize`` fills the other fields)."""
    if args.kind == "admit":
        return _admit_payload(args, [args.target, *args.task])
    target, fields = _SUBMIT_FIELDS[args.kind]
    return {target: args.target, **_given(args, fields)}


def _deadline(text: str) -> float | str:
    """``--deadline``: seconds, or a deadline name the normalizer checks."""
    try:
        return float(text)
    except ValueError:
        return text


def cmd_submit(args) -> int:
    """``submit``: send one job to a running service and print the result."""
    from repro.service.client import ServiceClient
    from repro.service.protocol import Response

    def on_event(frame: Response) -> None:
        if frame.type == "accepted":
            note = "accepted (coalesced)" if frame.coalesced else "accepted"
        else:
            note = f"{frame.stage} (attempt {frame.attempts})"
        print(f"# {frame.job_id}: {note}", file=sys.stderr)

    with ServiceClient(args.host, args.port) as client:
        if args.no_wait:
            accepted = client.submit(
                args.kind, _submit_payload(args),
                priority=args.priority, wait=False,
            )
            print(accepted.job_id)
            return 0
        result = client.submit_retry(
            args.kind, _submit_payload(args),
            priority=args.priority, on_event=on_event,
        )
    value = result.value if result.value is not None else {}
    if isinstance(value, dict) and "table" in value:
        print(value["table"])
    else:
        print(json.dumps(value, indent=2, sort_keys=True))
    print(
        f"# job {result.job_id}: ok in {result.attempts} attempt(s)",
        file=sys.stderr,
    )
    return 0


def cmd_status(args) -> int:
    """``status``: query a running service (add ``--metrics`` for the text
    exposition)."""
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        if args.metrics:
            print(client.metrics_text(), end="")
            return 0
        response = client.status(args.job)
        if args.job is not None:
            summary = {
                "job_id": response.job_id,
                "state": response.stage,
                "attempts": response.attempts,
                "ok": response.ok,
                "error": response.error,
                "value": response.value,
            }
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(json.dumps(response.value, indent=2, sort_keys=True))
    return 0


def _endpoint_flags(p: argparse.ArgumentParser) -> None:
    """``--host``/``--port`` of the service (``serve``, ``submit``,
    ``status``, ``top``)."""
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=7341,
        help="TCP port (serve: 0 picks a free port, printed on startup)",
    )


def _format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json = machine-readable objects)",
    )


def _engine_flags(
    p: argparse.ArgumentParser, *, wcet_job: bool = True
) -> None:
    """``--engine`` of ``wcet``, ``submit`` and ``admit``, plus, with
    ``wcet_job``, the flags only a ``wcet`` job takes (``--freq``).

    Unset, they stay None: the normalizer fills the payload default.
    """
    p.add_argument(
        "--engine",
        choices=ENGINES,
        help=(
            "WCET engine: 'static' (paper §3.3 timing tree) or 'mc' "
            "(bounded model checking; exact on small programs)"
        ),
    )
    if wcet_job:
        p.add_argument(
            "--freq",
            type=float,
            dest="freq_mhz",
            metavar="MHZ",
            help="analysis clock, MHz",
        )


def _admit_flags(p: argparse.ArgumentParser) -> None:
    """The admission flags of ``admit`` and ``submit`` (``--engine``
    comes from :func:`_engine_flags`); unset, they stay None."""
    p.add_argument(
        "--scale",
        choices=SCALES,
        help="workload scale (admit: of task specs without @scale)",
    )
    p.add_argument("--policy", choices=POLICIES, help="scheduling policy")
    p.add_argument(
        "--threads",
        type=int,
        dest="background_threads",
        metavar="N",
        help="SMT background threads to co-schedule",
    )
    p.add_argument(
        "--alpha", type=float, help="SMT contention aggressiveness"
    )


def _target_flags(p: argparse.ArgumentParser, verb: str) -> None:
    """The ``files``/``--workloads``/``--scale`` targets of
    :func:`_targets`."""
    p.add_argument("files", nargs="*", help="MiniC or assembly files")
    p.add_argument(
        "--workloads",
        action="store_true",
        help=f"{verb} every built-in C-lab workload",
    )
    p.add_argument(
        "--scale",
        choices=SCALES,
        default=DEFAULT_SCALE,
        help=f"workload scale for --workloads (default: {DEFAULT_SCALE})",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VISA (ISCA 2003) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="MiniC -> assembly")
    p.add_argument("file")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("asm", help="assemble and hex-dump")
    p.add_argument("file")
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("disasm", help="disassemble with labels")
    p.add_argument("file")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("run", help="execute on a simulated core")
    p.add_argument("file")
    p.add_argument("--core", choices=["simple", "complex"], default="simple")
    p.add_argument("--freq", type=float, default=DEFAULT_FREQ_MHZ, help="MHz")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("wcet", help="WCET analysis (static or model-checking)")
    p.add_argument("file")
    _engine_flags(p)
    _format_flag(p)
    # A file (MiniC or assembly) cannot go through the wcet normalizer,
    # so the local command reads its defaults.
    p.set_defaults(
        func=cmd_wcet, engine=DEFAULT_ENGINE, freq_mhz=DEFAULT_FREQ_MHZ
    )

    p = sub.add_parser(
        "wcet-diff",
        help="differential WCET oracle: static vs mc vs observed "
             "(also spelled 'repro wcet diff')",
    )
    _target_flags(p, "diff")
    p.add_argument("--freq", type=float, default=DEFAULT_FREQ_MHZ, help="MHz")
    p.add_argument(
        "--state-cap",
        type=int,
        default=64,
        help="MC states kept per program point before collapsing (default 64)",
    )
    _format_flag(p)
    p.set_defaults(func=cmd_wcet_diff)

    p = sub.add_parser("pack", help="write a timed binary (WCET attached)")
    p.add_argument("file")
    p.add_argument("out")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("lint", help="static analysis / ABI / WCET lint")
    _target_flags(p, "lint")
    p.add_argument(
        "--disable",
        default="",
        help="comma-separated check ids to skip (see docs/static_analysis.md)",
    )
    _format_flag(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("trace", help="pipeline diagram on the VISA pipeline")
    p.add_argument("file")
    p.add_argument("--n", type=int, default=48, help="max instructions")
    p.add_argument("--width", type=int, default=120, help="max cycle columns")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for experiment cells (default: REPRO_JOBS or 1)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk setup/run caches (same as REPRO_NO_CACHE=1)",
    )
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("cache", help="inspect or clear the on-disk cache")
    p.add_argument(
        "action",
        nargs="?",
        choices=["show", "stats", "clear"],
        default="show",
        help=(
            "'show' lists entries and sizes (default); 'stats' prints one "
            "row per cache kind: entries and bytes on disk and the "
            "process's hit/miss/store and memo counters; "
            "'clear' deletes all entries"
        ),
    )
    p.add_argument(
        "--store",
        action="store_true",
        help=(
            "with 'stats': report the shared result store's entries and "
            "bytes (a daemon's live counters are on its /metrics)"
        ),
    )
    p.add_argument(
        "--store-dir",
        default=None,
        help="shared-store directory for --store (default: REPRO_STORE_DIR)",
    )
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the async simulation service",
        description=(
            "Run the service. An omitted flag takes the default of its "
            "field in repro.service.server.ServiceConfig."
        ),
    )
    _endpoint_flags(p)
    p.set_defaults(host=None, port=None)
    for flag, (field, kind, text) in _SERVE_FLAGS.items():
        p.add_argument(flag, type=kind, dest=field, help=text)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit one job to a running service",
        description=(
            "Submit one job. An omitted payload flag takes the job kind's "
            "default (docs/service.md, 'Job kinds and payloads')."
        ),
    )
    p.add_argument(
        "kind",
        choices=["run", "wcet", "lint", "experiment", "noop", "admit"],
        help="job kind ('noop' is a synthetic sleep+echo job for probing)",
    )
    p.add_argument(
        "target",
        help=(
            "workload name (run/wcet/lint), experiment name (experiment), "
            "tag (noop), or first task spec "
            "workload:period[:deadline][@scale] (admit)"
        ),
    )
    _endpoint_flags(p)
    _engine_flags(p)
    _admit_flags(p)
    p.add_argument(
        "--deadline",
        type=_deadline,
        help="run jobs: 'tight', 'loose', or seconds",
    )
    p.add_argument(
        "--instances", type=int, help="task instances for run/experiment jobs"
    )
    p.add_argument(
        "--flush-rate",
        type=float,
        help="run jobs: induced pipeline-flush rate in [0, 1]",
    )
    p.add_argument(
        "--sleep-ms", type=int, help="noop jobs: milliseconds the worker sleeps"
    )
    p.add_argument(
        "--task",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "admit jobs: additional task spec "
            "workload:period[:deadline][@scale] (repeatable)"
        ),
    )
    p.add_argument(
        "--priority", type=int, default=0, help="queue priority (higher first)"
    )
    p.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id immediately instead of waiting for the result",
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="query a running service")
    _endpoint_flags(p)
    p.add_argument("--job", default=None, help="job id (default: service-wide)")
    p.add_argument(
        "--metrics",
        action="store_true",
        help="print the Prometheus-style text exposition instead",
    )
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "admit",
        help="task-set admission control: WCETs + DVS/checkpoint plan "
        "+ RM/EDF tests (local library path; exit 1 = not admissible)",
    )
    p.add_argument(
        "tasks",
        nargs="+",
        metavar="TASK",
        help="task spec workload:period[:deadline][@scale], times in seconds",
    )
    _admit_flags(p)
    _engine_flags(p, wcet_job=False)
    _format_flag(p)
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk decision cache",
    )
    p.set_defaults(func=cmd_admit)

    p = sub.add_parser(
        "top", help="live terminal view of a running service"
    )
    _endpoint_flags(p)
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh interval, seconds (default 2)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (no screen clearing)",
    )
    p.set_defaults(func=cmd_top)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (compile errors, analysis failures, infeasible
    deadlines) are reported as one-line diagnostics, not tracebacks.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv[:2] == ["wcet", "diff"]:
        # `repro wcet diff` is the documented spelling of `wcet-diff`.
        argv = ["wcet-diff"] + argv[2:]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, FileNotFoundError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
