"""Canonical snapshot encoding: format version, digests, program identity.

Every component of the simulation dumps to plain JSON-able data (dicts
with string keys, lists, ints, floats, bools) through its own
``dump_state``/``load_state`` pair; this module defines the *encoding
contract* those payloads share:

* a single :data:`FORMAT_VERSION` that salts every digest and cache key —
  bump it whenever any component changes its dump layout, and every
  on-disk snapshot and run-cache entry invalidates at once;
* :func:`canonical_json` — the one serialization used for hashing and
  storage (sorted keys, no whitespace), so identical state always yields
  identical bytes;
* :func:`snapshot_digest` — a stable content digest of any payload;
* :func:`program_digest` — identity of a compiled program (words, data
  image, loop bounds, sub-task marks, entry point), the root of
  run-cache keys.

Floats round-trip exactly through :mod:`json` (``repr``-based encoding),
so dumping and reloading never perturbs simulated timing.
"""

from __future__ import annotations

import hashlib
import json

#: Version salt for the snapshot layout *and* everything keyed on it
#: (run-cache entries, warm-up prefix snapshots).  Bump on any change to
#: a ``dump_state`` payload or to the run/warm-up key derivation.
FORMAT_VERSION = 1


def canonical_json(payload) -> str:
    """The canonical byte representation of a JSON-able payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def snapshot_digest(payload) -> str:
    """Stable content digest (first 16 hex chars of SHA-256)."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def program_digest(program) -> str:
    """Digest of everything simulation results depend on in a program.

    Memoized on the program object (programs are never mutated once
    assembled); the memo is salted with :data:`FORMAT_VERSION` so a
    version bump still changes the digest.
    """
    memo = program._digest  # noqa: SLF001 - cooperative memo
    if memo is not None and memo[0] == FORMAT_VERSION:
        return memo[1]
    payload = repr((
        FORMAT_VERSION,
        program.words,
        sorted(program.data.items()),
        sorted(program.loop_bounds.items()),
        sorted(program.subtask_marks.items()),
        program.text_base,
        program.entry,
    ))
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    program._digest = (FORMAT_VERSION, digest)  # noqa: SLF001
    return digest
