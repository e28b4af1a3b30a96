"""Job payload fields: each check, default and the payload digest, once.

The service's job registry (:mod:`repro.service.jobs`) and the admission
library (:mod:`repro.rt.admission`) both normalize payloads with these
checks and key a normalized payload with :func:`payload_digest`, so a
field's vocabulary, its default and the bytes it hashes to are written
down in one place.  Every check raises :class:`~repro.errors.ProtocolError`;
``where`` prefixes the message with the offending element (``tasks[0]:``).
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

from repro.errors import ProtocolError
from repro.snapshot.state import FORMAT_VERSION, canonical_json
from repro.wcet import DEFAULT_ENGINE, ENGINES
from repro.workloads.suite import ALL_WORKLOAD_NAMES, SCALES

JSONDict = dict[str, Any]

#: The scale of a payload (or admission task) that names none.
DEFAULT_SCALE = "tiny"

#: Scheduling policies of an ``admit`` payload (:mod:`repro.rt.admission`).
POLICIES = ("rm", "edf")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def check_no_extras(
    payload: JSONDict, allowed: frozenset[str], where: str = ""
) -> None:
    """Reject any field of ``payload`` outside ``allowed``."""
    extras = set(payload) - allowed
    _require(not extras, f"{where}unknown payload fields: {sorted(extras)}")


def workload_field(payload: JSONDict, where: str = "") -> str:
    """The required ``workload`` name, one of the built-in workloads."""
    name = payload.get("workload")
    _require(
        isinstance(name, str), f"{where}payload requires a 'workload' name"
    )
    _require(
        name in ALL_WORKLOAD_NAMES,
        f"{where}unknown workload {name!r}; known: {list(ALL_WORKLOAD_NAMES)}",
    )
    return str(name)


def scale_field(payload: JSONDict, where: str = "") -> str:
    """The ``scale`` preset (:data:`DEFAULT_SCALE` when unnamed)."""
    scale = payload.get("scale", DEFAULT_SCALE)
    _require(scale in SCALES, f"{where}scale must be one of {list(SCALES)}")
    return str(scale)


def engine_field(payload: JSONDict) -> str:
    """The WCET engine of a payload
    (:data:`repro.wcet.DEFAULT_ENGINE` when unnamed).

    The engine is pinned into the normalized payload, so the digest — and
    the result store and decision cache keyed from it — never aliases a
    static bound with a model-checked one.
    """
    engine = payload.get("engine")
    if engine is None:
        return DEFAULT_ENGINE
    _require(
        isinstance(engine, str) and engine in ENGINES,
        f"engine must be one of {list(ENGINES)}",
    )
    return str(engine)


def int_field(payload: JSONDict, name: str, default: int, lo: int, hi: int) -> int:
    """Integer field ``name`` in ``[lo, hi]`` (``default`` when absent)."""
    value = payload.get(name, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name} must be an integer",
    )
    _require(lo <= int(value) <= hi, f"{name} must be in [{lo}, {hi}]")
    return int(value)


def number_field(
    payload: JSONDict,
    name: str,
    default: float | None,
    lo: float,
    hi: float = math.inf,
    *,
    closed: bool = False,
    where: str = "",
) -> float:
    """Number field ``name`` in ``(lo, hi]``, or ``[lo, hi]`` when
    ``closed`` (``default`` when absent; ``None``: required).  A bool is
    not a number, and neither is ``Infinity`` or ``NaN``, which
    ``json.loads`` accepts."""
    value = payload.get(name, default)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{where}{name} must be a number",
    )
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    _require(math.isfinite(number), f"{where}{name} must be finite")
    above = number >= lo if closed else number > lo
    _require(
        above and number <= hi,
        f"{where}{name} must be in {'[' if closed else '('}{lo:g}, {hi:g}]",
    )
    return number


def bool_field(payload: JSONDict, name: str, default: bool) -> bool:
    """Boolean field ``name`` (``default`` when absent)."""
    value = payload.get(name, default)
    _require(isinstance(value, bool), f"{name} must be a boolean")
    return bool(value)


def payload_digest(kind: str, payload: JSONDict) -> str:
    """Digest of a *normalized* ``kind`` payload.

    A SHA-256 over :func:`~repro.snapshot.state.canonical_json` salted
    with the snapshot ``FORMAT_VERSION`` — the service's coalesce key and
    the admission decision-cache key both.
    """
    blob = canonical_json(
        {"format": FORMAT_VERSION, "kind": kind, "payload": payload}
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]
