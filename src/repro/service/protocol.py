"""Wire protocol: line-delimited JSON over TCP, versioned schema.

Every message is one JSON object on one ``\\n``-terminated line.  Both
directions carry a ``v`` field; a peer speaking a different version is
rejected up front rather than misinterpreted (same philosophy as the
snapshot ``FORMAT_VERSION``).  Requests carry a client-chosen ``id`` that
the service echoes on every response and progress event for that request,
so one connection can correlate interleaved replies.

Request types:

* ``submit`` — enqueue a job (:class:`JobSpec`).  With ``wait`` the
  connection streams progress events and the final result; without it an
  ``accepted`` response with the job id returns immediately.
* ``status`` — one job's lifecycle state (``job_id``) or, without a
  ``job_id``, a service-wide summary (queue depth, workers, job counts).
* ``metrics`` — the Prometheus-style text exposition.
* ``ping`` — liveness probe.

Error responses carry a machine-readable ``code``:

* ``queue_full`` / ``quota`` — backpressure (the queue is full, or this
  connection's submission quota is spent); ``retry_after`` (seconds)
  suggests when to retry.
* ``draining`` — the service received SIGTERM and rejects new work.
* ``bad_request`` / ``bad_version`` — malformed or unsupported input.
* ``unknown_job`` — ``status`` named a job id the service does not hold.
* ``timeout`` / ``worker_crash`` / ``job_error`` — job outcomes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ProtocolError

#: Wire-format version.  Bump on any incompatible message-shape change;
#: peers reject mismatches with ``code="bad_version"``.
PROTOCOL_VERSION = 1

#: Request types the service understands.
REQUEST_TYPES = frozenset({"submit", "status", "metrics", "ping"})

#: Job kinds accepted at launch.  ``noop`` is a synthetic job (optional
#: sleep + payload echo) used for health probes, crash and drain tests
#: and the service smoke check — it exercises queueing and coalescing
#: without simulating anything.
JOB_KINDS = frozenset({"run", "wcet", "lint", "experiment", "noop", "admit"})

#: Response/event types the client understands.
RESPONSE_TYPES = frozenset(
    {"accepted", "result", "error", "status", "metrics", "pong", "event"}
)

JSONDict = dict[str, Any]


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: a job kind plus its JSON payload.

    ``priority`` orders the queue (higher first, FIFO within a level and
    round-robin across clients).  ``timeout`` bounds worker execution in
    seconds: a finite number above 0, or ``None`` for the service
    default.
    """

    kind: str
    payload: JSONDict = field(default_factory=dict)
    priority: int = 0
    timeout: float | None = None

    def to_wire(self) -> JSONDict:
        return {
            "kind": self.kind,
            "payload": self.payload,
            "priority": self.priority,
            "timeout": self.timeout,
        }

    @staticmethod
    def from_wire(raw: JSONDict) -> "JobSpec":
        kind = raw.get("kind")
        if kind not in JOB_KINDS:
            raise ProtocolError(
                f"unknown job kind {kind!r}; expected one of "
                f"{sorted(JOB_KINDS)}"
            )
        payload = raw.get("payload", {})
        if not isinstance(payload, dict):
            raise ProtocolError("job payload must be a JSON object")
        priority = raw.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ProtocolError("job priority must be an integer")
        timeout = raw.get("timeout")
        if timeout is not None and (
            not isinstance(timeout, (int, float))
            or isinstance(timeout, bool)
            or not math.isfinite(timeout)
            or timeout <= 0
        ):
            raise ProtocolError(
                "job timeout must be a finite number of seconds above 0, "
                "or null"
            )
        return JobSpec(
            kind=str(kind),
            payload=payload,
            priority=priority,
            timeout=None if timeout is None else float(timeout),
        )


@dataclass(frozen=True)
class Request:
    """A client request (one line on the wire)."""

    type: str
    id: str
    job: JobSpec | None = None
    wait: bool = True
    job_id: str | None = None

    def to_wire(self) -> JSONDict:
        msg: JSONDict = {"v": PROTOCOL_VERSION, "type": self.type, "id": self.id}
        if self.job is not None:
            msg["job"] = self.job.to_wire()
        if self.type == "submit":
            msg["wait"] = self.wait
        if self.job_id is not None:
            msg["job_id"] = self.job_id
        return msg


@dataclass(frozen=True)
class Response:
    """A service reply or progress event (one line on the wire).

    One shape covers every response type; unused fields stay ``None`` and
    are omitted on the wire.  ``event`` responses report job lifecycle
    transitions (``stage`` in ``queued`` / ``started`` / ``requeued`` /
    ``done``); ``result`` responses carry ``ok`` plus either ``value`` or
    ``error``/``code``.
    """

    type: str
    id: str
    job_id: str | None = None
    ok: bool | None = None
    value: Any = None
    error: str | None = None
    code: str | None = None
    retry_after: float | None = None
    attempts: int | None = None
    coalesced: bool | None = None
    stage: str | None = None
    text: str | None = None

    def to_wire(self) -> JSONDict:
        msg: JSONDict = {"v": PROTOCOL_VERSION}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None:
                msg[f.name] = value
        return msg


def encode(message: Request | Response) -> bytes:
    """One wire line (``\\n``-terminated UTF-8) for a message."""
    return (json.dumps(message.to_wire(), separators=(",", ":")) + "\n").encode()


def _parse_line(line: bytes | str) -> JSONDict:
    try:
        raw = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ProtocolError("message must be a JSON object")
    version = raw.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this peer speaks {PROTOCOL_VERSION})"
        )
    return raw


def decode_request(line: bytes | str) -> Request:
    """Parse and validate one request line."""
    raw = _parse_line(line)
    rtype = raw.get("type")
    if rtype not in REQUEST_TYPES:
        raise ProtocolError(
            f"unknown request type {rtype!r}; expected one of "
            f"{sorted(REQUEST_TYPES)}"
        )
    rid = raw.get("id")
    if not isinstance(rid, str) or not rid:
        raise ProtocolError("request id must be a non-empty string")
    job: JobSpec | None = None
    if rtype == "submit":
        raw_job = raw.get("job")
        if not isinstance(raw_job, dict):
            raise ProtocolError("submit requires a job object")
        job = JobSpec.from_wire(raw_job)
    wait = raw.get("wait", True)
    if not isinstance(wait, bool):
        raise ProtocolError("wait must be a boolean")
    job_id = raw.get("job_id")
    if job_id is not None and not isinstance(job_id, str):
        raise ProtocolError("job_id must be a string")
    return Request(
        type=str(rtype), id=rid, job=job, wait=wait, job_id=job_id
    )


def decode_response(line: bytes | str) -> Response:
    """Parse and validate one response/event line."""
    raw = _parse_line(line)
    rtype = raw.get("type")
    if rtype not in RESPONSE_TYPES:
        raise ProtocolError(f"unknown response type {rtype!r}")
    rid = raw.get("id")
    if not isinstance(rid, str):
        raise ProtocolError("response id must be a string")
    known = {f.name for f in dataclasses.fields(Response)}
    fields = {k: v for k, v in raw.items() if k in known}
    fields["type"] = str(rtype)
    fields["id"] = rid
    return Response(**fields)


__all__ = [
    "JOB_KINDS",
    "JSONDict",
    "PROTOCOL_VERSION",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "JobSpec",
    "ProtocolError",
    "Request",
    "Response",
    "decode_request",
    "decode_response",
    "encode",
]
