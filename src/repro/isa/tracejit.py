"""Superblock/trace tier above the basic-block JIT (:mod:`blockjit`).

The block JIT (PR 5) still re-enters the dispatch loop at every basic
block: short loop bodies pay the call/unpack/sync overhead dozens of
times per iteration.  This module adds the next tier.  The dispatchers
in :mod:`blockjit` profile per-block dispatch counts; once a block
crosses :data:`HOT_THRESHOLD`, the chain starting there is stitched
into one *superblock* function:

* chain formation follows the static BTFN prediction (``ptaken``) at
  conditional branches and the target at direct jumps, stops at
  indirect jumps, halts, and safe-break addresses (sub-task marks +
  entry — the breakpoint guarantee of the block dispatcher must keep
  holding, so those are trace barriers, never trace-interior), and
  *unrolls* loops by revisiting blocks until the instruction budget;
* chain-interior conditional branches become **side exits**: the
  branch executes in full (timing, counters, predictor training,
  watchdog check), then a mismatch with the chain's assumed direction
  syncs state and returns the off-chain pc to the block dispatcher;
* within the stitched function registers stay live in locals across
  the block boundaries (the :class:`blockjit._Regs` tracker simply
  keeps running), the per-boundary block-exit sync disappears by
  construction, and icache guaranteed-hit batching extends across the
  whole chain;
* a conservative, order-preserving textual **peephole pass**
  (:func:`_peephole`, in the spirit of the ``mini32_compiler.py``
  exemplar: if in doubt, leave the code unchanged) then removes
  redundant register writebacks across stitch points, folds trivial
  literal arithmetic, and deletes dead pure SSA stores.

Trace functions share the block functions' signature and return
protocol, so they install directly *over* the hot block's entry in
``BlockTable.blocks`` — both dispatchers consume them with no extra
lookup.  The bit-identical contract of :mod:`blockjit` carries over
unchanged.  Compiled traces persist next to the block payloads under
``.repro_cache/blockjit/`` as ``{engine}-{key}.traces.json`` with the
same format-version/digest keying.
"""

from __future__ import annotations

import base64
import json
import marshal
import re
import sys
from collections import Counter
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.isa import blockjit
from repro.isa.fastexec import K_BRANCH, K_HALT, K_INDIRECT, K_JUMP

if TYPE_CHECKING:
    from pathlib import Path

#: Bump when the emitted trace code changes shape; stale entries miss.
TRACE_CODEGEN_VERSION = 2

#: Dispatch count at which a block is promoted to a trace head.
HOT_THRESHOLD = 16

#: Instruction budget per trace (bounds codegen size and compile time).
MAX_TRACE_INSTS = 384

#: Stitched-segment budget per trace (also bounds loop unrolling).
MAX_TRACE_BLOCKS = 64

#: Trace-count budget per table (bounds total codegen work per program).
MAX_TRACES = 48

#: (start pc, [(pc, fastinst), ...], stitched successor pc or None).
Segment = tuple[int, list[tuple[int, Any]], int | None]


def _trace_fname(engine: str, pc: int) -> str:
    return f"_t{pc:x}" if engine == "inorder" else f"_u{pc:x}"


# --- chain formation ----------------------------------------------------------


def _successor(last_pc: int, fi: Any) -> int | None:
    """Statically-assumed next pc after the block ending in ``fi``.

    Conditional branches follow BTFN (the plan's ``ptaken``), direct
    jumps their target, cap-split blocks the fall-through; indirect
    jumps and halts end the chain.
    """
    kind, npc, starget, ptaken = fi[0], fi[8], fi[9], fi[10]
    if kind == K_BRANCH:
        if starget == npc:
            return npc
        return int(starget) if ptaken else int(npc)
    if kind == K_JUMP:
        return int(starget)
    if kind == K_INDIRECT or kind == K_HALT:
        return None
    return last_pc + 4


def form_chain(table: Any, head: int) -> list[Segment] | None:
    """The stitchable chain starting at ``head``, or None if unprofitable.

    Safe-break addresses are barriers: they may head a trace but never
    appear at an interior position, so the dispatcher's between-dispatch
    breakpoint check stays exact.  A successor revisiting a block
    already in the chain (including ``head`` itself) ends the chain:
    back edges return to the dispatcher, which re-enters the trace at
    its head.  Statically unrolling the loop instead looks attractive
    but loses badly in practice — the BTFN assumption holds only until
    the dynamic trip count runs out, so the loop-exit branch side-exits
    somewhere inside the unrolled body on *every* call and the trace
    never completes (the recorded ``side_exit_rate: 1.0`` pathology).
    """
    program = table.program
    barriers = table.safe_breaks
    segments: list[Segment] = []
    seen: set[int] = set()
    back_edge = False
    n_insts = 0
    pc = head
    while True:
        insts = blockjit._collect_block(program, pc, barriers)
        last_pc, last_fi = insts[-1]
        seen.add(pc)
        n_insts += len(insts)
        nxt = _successor(last_pc, last_fi)
        if (
            nxt is None
            or nxt in seen
            or nxt in barriers
            or not program.contains(nxt)
            or n_insts >= MAX_TRACE_INSTS
            or len(segments) + 1 >= MAX_TRACE_BLOCKS
        ):
            back_edge = nxt is not None and nxt in seen
            segments.append((pc, insts, None))
            break
        segments.append((pc, insts, nxt))
        pc = nxt
    if len(segments) < 2 and not back_edge:
        # A straight-line single block gains nothing over its block
        # function; a self-looping one does (watchdog-elided body, one
        # completion per iteration), so back edges keep the chain.
        return None
    return segments


# --- stitched emission --------------------------------------------------------


def _emit_segments(em: Any, segments: list[Segment]) -> None:
    """Drive an emitter's ``_inst`` across every segment, inserting side
    exits at chain-interior terminators."""
    idx = 0
    last = len(segments) - 1
    for s, (_bpc, insts, nxt) in enumerate(segments):
        n = len(insts)
        for j, (ipc, fi) in enumerate(insts):
            em._inst(idx, ipc, fi, is_last=(s == last and j == n - 1))
            idx += 1
        if s != last:
            _stitch(em, idx - 1, insts[-1][1], nxt)


def _stitch(em: Any, i: int, fi: Any, nxt: int | None) -> None:
    """Side exit (if needed) after the chain-interior terminator ``fi``.

    The terminator already executed in full (timing, counters,
    predictor training, the per-instruction watchdog check); here we
    only leave the trace when the runtime outcome disagrees with the
    chain's assumed direction.  Direct jumps and fall-throughs continue
    unconditionally.
    """
    kind, npc, starget = fi[0], fi[8], fi[9]
    if kind != K_BRANCH:
        return
    if isinstance(em, blockjit._OOOEmitter):
        # The branch may have moved the redirect: the next fetch-group
        # formation must use the fully dynamic block-entry form.
        em._dyn_group = True
    if starget == npc:
        return
    if nxt == starget:
        cond, off = f"if not k{i}:", int(npc)
    else:
        cond, off = f"if k{i}:", int(starget)
    em.emit("    ", cond)
    em.emit("        ", "_tr[1] += 1")
    em.emit("        ", f"_sx[{off}] = _sx_get({off}, 0) + 1")
    em._exit("        ", str(off), str(off))


class _InOrderTraceEmitter(blockjit._InOrderEmitter):
    """Stitched in-order superblock emitter (signature ``_t{pc:x}``)."""

    def emit_trace(self, head: int, segments: list[Segment]) -> str:
        g = self.g
        # Traces are specialized for a disabled watchdog (the common
        # case): the entry guard delegates to the head's block function
        # (per-inst checks intact) when wd is truthy, and any MMIO store
        # that may flip wd gets a guarded side exit instead.
        self._wd_elide = True
        lines = [
            f"def {_trace_fname('inorder', head)}(ir, fr, ready, st, env):",
            "    _tr[0] += 1",
            "    if st[20]:",
            f"        return {blockjit._fname('inorder', head)}"
            "(ir, fr, ready, st, env)",
            f"    ({blockjit._INORDER_ENV}) = env",
            f"    ({blockjit._INORDER_ST}) = st",
        ]
        sets_used = sorted({
            (ipc >> g.ishift) % g.insets
            for _, insts, _ in segments for ipc, _ in insts
        })
        lines += [f"    iw{setk} = isets[{setk}]" for setk in sets_used]
        _emit_segments(self, segments)
        return "\n".join(lines + _peephole(self.lines)) + "\n"


class _OOOTraceEmitter(blockjit._OOOEmitter):
    """Stitched complex-mode superblock emitter (signature ``_u{pc:x}``).

    The per-instruction bodies are inherited from
    :class:`blockjit._OOOEmitter` and the env/st unpack strings are its
    layouts, so a trace always matches its block functions.
    """

    def emit_trace(self, head: int, segments: list[Segment]) -> str:
        self._wd_elide = True
        lines = [
            f"def {_trace_fname('ooo', head)}(ir, fr, ready, st, env):",
            "    _tr[0] += 1",
            "    if st[21]:",
            f"        return {blockjit._fname('ooo', head)}"
            "(ir, fr, ready, st, env)",
            f"    ({blockjit._OOO_ENV}) = env",
            f"    ({blockjit._OOO_ST}) = st",
        ]
        _emit_segments(self, segments)
        return "\n".join(lines + _peephole(self.lines)) + "\n"


def _emit_trace(
    engine: str, geom: Any, params: Any, head: int, segments: list[Segment],
) -> str:
    if engine == "inorder":
        return _InOrderTraceEmitter(geom).emit_trace(head, segments)
    return _OOOTraceEmitter(geom, params).emit_trace(head, segments)


# --- peephole pass over the emitted source ------------------------------------

_SPILL_RE = re.compile(r"^(\s+)((?:ir|fr)\[\d+\]) = (\S+)$")
_TARGET_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*) [-+*/|&^]?= ")
_SSA_ASSIGN_RE = re.compile(r"^\s+([a-z]{1,2}\d+) = (.+)$")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CALL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\(")
_FLOATY_RE = re.compile(r"\bF\d|\bfr\[")
_ADD_ZERO_RE = re.compile(r" \+ 0\b")
_SHIFT_ZERO_RE = re.compile(r" (?:<<|>>) 0\b")
_LIT_ADD_RE = re.compile(r"(?<![\w.\])])(\d+) \+ (\d+)(?![\w.])")


def _fold_line(line: str) -> str:
    """Trivial literal arithmetic on one line (integer contexts only).

    ``X + 0`` / ``X << 0`` drop the operation and adjacent int literals
    fold; lines touching FP state are left alone (``-0.0 + 0`` is not
    ``-0.0``), as is anything the patterns don't match exactly.
    """
    if _FLOATY_RE.search(line):
        return line
    line = _ADD_ZERO_RE.sub("", line)
    line = _SHIFT_ZERO_RE.sub("", line)
    while True:
        folded = _LIT_ADD_RE.sub(
            lambda m: str(int(m.group(1)) + int(m.group(2))), line, count=1
        )
        if folded == line:
            return line
        line = folded


def _dedup_spills(lines: list[str]) -> list[str]:
    """Drop register writebacks that re-store an unchanged value.

    Tracks the last value token stored to each ``ir[k]``/``fr[k]`` home.
    Only *unconditional* stores (function-body base indent) update the
    tracked state; stores inside an arm may be dropped when they match
    it (the path to them passed the recording store) but never record —
    the not-taken path would disagree.  Any assignment to a local
    invalidates homes caching that token.
    """
    homes: dict[str, str] = {}
    out: list[str] = []
    for line in lines:
        m = _SPILL_RE.match(line)
        if m:
            ind, home, val = m.group(1), m.group(2), m.group(3)
            if homes.get(home) == val:
                continue
            if len(ind) == 4:
                homes[home] = val
            else:
                homes.pop(home, None)
            out.append(line)
            continue
        t = _TARGET_RE.match(line)
        if t:
            token = t.group(1)
            for home in [h for h, v in homes.items() if v == token]:
                del homes[home]
        out.append(line)
    return out


def _drop_adjacent_syncs(lines: list[str]) -> list[str]:
    """A state sync immediately shadowed by another (same indent, nothing
    between) is dead; keep only the later one."""
    out: list[str] = []
    for line in lines:
        stripped = line.lstrip()
        if (
            stripped.startswith("st[:] = (")
            and out
            and out[-1].lstrip().startswith("st[:] = (")
            and len(out[-1]) - len(out[-1].lstrip())
            == len(line) - len(stripped)
        ):
            out.pop()
        out.append(line)
    return out


def _drop_dead_stores(lines: list[str]) -> list[str]:
    """Remove pure assignments to SSA locals that are never read.

    Only plain ``name = expr`` lines where ``name`` matches the
    emitters' SSA shape (letters + instruction index), ``expr`` contains
    no call and no subscript (nothing that could raise or mutate), and
    ``name`` occurs nowhere else in the function.  Iterates to a
    fixpoint since a drop can orphan earlier defs.
    """
    while True:
        counts = Counter(
            word for line in lines for word in _WORD_RE.findall(line)
        )
        kept: list[str] = []
        changed = False
        for line in lines:
            m = _SSA_ASSIGN_RE.match(line)
            if (
                m
                and counts[m.group(1)] == 1
                and "[" not in m.group(2)
                and not _CALL_RE.search(m.group(2))
            ):
                changed = True
                continue
            kept.append(line)
        if not changed:
            return kept
        lines = kept


def _peephole(lines: list[str]) -> list[str]:
    """Conservative order-preserving cleanup of emitted trace source.

    Textual and order preserving, following the ``mini32_compiler.py``
    exemplar: every rule either provably preserves the generated code's
    observable behaviour or does not fire.
    """
    lines = _dedup_spills(lines)
    lines = [_fold_line(line) for line in lines]
    lines = _drop_adjacent_syncs(lines)
    lines = blockjit._tighten_max(lines)
    return _drop_dead_stores(lines)


# --- compilation, installation, and on-disk persistence -----------------------


def compile_trace(table: Any, head: int) -> Any | None:
    """Stitch, peephole, compile, and install the trace headed at ``head``.

    Returns the installed ``(function, n_insts)`` entry, or None when no
    profitable chain exists.  The entry replaces ``table.blocks[head]``
    so both dispatchers pick it up with their normal lookup.
    """
    if len(table.traces_meta) >= MAX_TRACES:
        return None
    segments = form_chain(table, head)
    if segments is None:
        return None
    source = _emit_trace(
        table.engine, table.geom, table.params, head, segments
    )
    code = compile(source, f"<tracejit:{table.engine}:{head:#x}>", "exec")
    exec(code, table._ns)  # noqa: S102 - executing our own codegen
    n_insts = sum(len(insts) for _, insts, _ in segments)
    entry = (table._ns[_trace_fname(table.engine, head)], n_insts)
    table.blocks[head] = entry
    table.traces_meta[head] = (
        _trace_fname(table.engine, head), len(segments), n_insts
    )
    table.trace_sources[head] = source
    table.trace_codes[head] = code
    _store_traces(table)
    return entry


def _trace_path(table: Any) -> "Path":
    from repro.snapshot import runcache

    return (
        runcache.cache_dir() / "blockjit"
        / f"{table.engine}-{table.disk_key}.traces.json"
    )


def _store_traces(table: Any) -> None:
    """Persist every installed trace of ``table`` (atomic full rewrite).

    Each trace's already-compiled code object is marshalled individually
    — nothing is recompiled here, so the cost of storing trace *n* is
    O(total trace bytes), not O(n * compile time).
    """
    from repro.snapshot import runcache
    from repro.snapshot.state import FORMAT_VERSION

    if runcache.cache_disabled() or table.disk_key is None:
        return
    runcache.atomic_write_json(_trace_path(table), {
        "format": FORMAT_VERSION,
        "codegen": blockjit.CODEGEN_VERSION,
        "trace_codegen": TRACE_CODEGEN_VERSION,
        "engine": table.engine,
        "python": sys.implementation.cache_tag,
        "sources": {str(h): s for h, s in table.trace_sources.items()},
        "codes": {
            str(h): base64.b64encode(marshal.dumps(c)).decode("ascii")
            for h, c in table.trace_codes.items()
        },
        "traces": {
            str(h): list(m) for h, m in table.traces_meta.items()
        },
    })
    runcache.STATS["tracejit_stores"] += 1


def load_traces(table: Any) -> None:
    """Warm-load persisted traces into ``table`` (install over blocks)."""
    from repro.snapshot import runcache
    from repro.snapshot.state import FORMAT_VERSION

    if runcache.cache_disabled() or table.disk_key is None:
        return
    try:
        payload = json.loads(_trace_path(table).read_text())
    except (OSError, ValueError):
        runcache.STATS["tracejit_misses"] += 1
        return
    if (
        not isinstance(payload, dict)
        or payload.get("format") != FORMAT_VERSION
        or payload.get("codegen") != blockjit.CODEGEN_VERSION
        or payload.get("trace_codegen") != TRACE_CODEGEN_VERSION
        or payload.get("engine") != table.engine
        or not isinstance(payload.get("sources"), dict)
        or not isinstance(payload.get("traces"), dict)
    ):
        runcache.STATS["tracejit_misses"] += 1
        return
    sources = {int(h): str(s) for h, s in payload["sources"].items()}
    marshalled = payload.get("codes")
    same_python = payload.get("python") == sys.implementation.cache_tag
    if not isinstance(marshalled, dict):
        marshalled = {}
    for shead, (fname, n_blocks, n_insts) in payload["traces"].items():
        head = int(shead)
        if head not in sources:
            continue
        if blockjit._fname(table.engine, head) not in table._ns:
            # The entry guard delegates to the head's block function by
            # name.  Heads that were dynamic dispatch targets (compiled
            # on demand, never persisted) have no function in a freshly
            # restored namespace yet — compile the block before the
            # trace is installed over its table slot.
            try:
                table.block_at(head)
            except ReproError:
                continue
        code = None
        if same_python and shead in marshalled:
            try:
                code = marshal.loads(base64.b64decode(marshalled[shead]))
            except (ValueError, EOFError, TypeError):
                code = None
        if code is None:
            code = compile(
                sources[head],
                f"<tracejit:{table.engine}:{head:#x}>", "exec",
            )
        exec(code, table._ns)  # noqa: S102 - executing our own (cached) codegen
        table.blocks[head] = (table._ns[fname], int(n_insts))
        table.traces_meta[head] = (str(fname), int(n_blocks), int(n_insts))
        table.trace_sources[head] = sources[head]
        table.trace_codes[head] = code
    runcache.STATS["tracejit_hits"] += 1


__all__ = [
    "HOT_THRESHOLD",
    "MAX_TRACE_BLOCKS",
    "MAX_TRACE_INSTS",
    "MAX_TRACES",
    "TRACE_CODEGEN_VERSION",
    "compile_trace",
    "form_chain",
    "load_traces",
]
