"""Front parity: the daemon and the cluster front answer alike.

Both fronts are one :class:`repro.service.front.JobFront` over different
executors, so one protocol conversation must produce the same response
frames from a daemon and from a one-backend cluster front, apart from
the job-id prefix and the ``backend`` field.  The conversation covers a
waited submit with a coalesced duplicate, a store hit, status by job id
and for an unknown id, a malformed request line and a submit during the
drain.  Everything runs in-process, on port 0, with one worker.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any

from repro.service.cluster import BackendLink, ClusterConfig, ClusterFront
from repro.service.front import JobFront
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import ReproService, ServiceConfig

LINT = {"source": "void main() { int x; x = 1; }"}
NOOP = {"tag": "shared", "sleep_ms": 400}


def _line(**message: Any) -> bytes:
    return (json.dumps({"v": PROTOCOL_VERSION, **message}) + "\n").encode()


def _submit(rid: str, kind: str, payload: dict[str, Any]) -> bytes:
    job = {"kind": kind, "payload": payload}
    return _line(type="submit", id=rid, wait=True, job=job)


class _Conn:
    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "_Conn":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def send(self, line: bytes) -> None:
        self.writer.write(line)
        await self.writer.drain()

    async def read(self, count: int = 1) -> list[dict[str, Any]]:
        return [
            json.loads(await asyncio.wait_for(self.reader.readline(), 30))
            for _ in range(count)
        ]

    def close(self) -> None:
        self.writer.close()


async def _converse(front: JobFront) -> list[dict[str, Any]]:
    """Drive the conversation; shuts the front down at the end."""
    a, b = await _Conn.open(front.port), await _Conn.open(front.port)
    frames: list[dict[str, Any]] = []
    await a.send(_line(type="ping", id="a0"))
    frames += await a.read()
    # A waited submit (accepted, started), then a coalesced duplicate.
    await a.send(_submit("a1", "noop", NOOP))
    frames += await a.read(2)
    await b.send(_submit("b1", "noop", NOOP))
    frames += await b.read()
    frames += await a.read() + await b.read()
    # The second identical lint job is answered from the result store.
    await a.send(_submit("a2", "lint", LINT))
    frames += await a.read(3)
    await a.send(_submit("a3", "lint", LINT))
    frames += await a.read(2)
    await a.send(_line(type="status", id="a4", job_id=frames[-1]["job_id"]))
    await a.send(_line(type="status", id="a5", job_id="x000099"))
    await a.send(b"{not json\n")
    frames += await a.read(3)
    drain = asyncio.create_task(front.shutdown(drain=True))
    await asyncio.sleep(0)  # the drain task runs up to its first await
    await a.send(_submit("a6", "noop", {"tag": "late"}))
    frames += await a.read()
    a.close()
    b.close()
    await drain
    return frames


def _normalise(frame: dict[str, Any]) -> dict[str, Any]:
    frame = {k: v for k, v in frame.items() if k != "backend"}
    if "job_id" in frame:
        frame["job_id"] = frame["job_id"][1:]
    return frame


def test_daemon_and_cluster_front_answer_alike(tmp_path: Path) -> None:
    def daemon_config(name: str) -> ServiceConfig:
        return ServiceConfig(
            port=0,
            workers=1,
            cache_dir=str(tmp_path / name / "cache"),
            store_dir=str(tmp_path / name / "store"),
        )

    async def daemon() -> list[dict[str, Any]]:
        service = ReproService(daemon_config("daemon"))
        await service.start()
        try:
            return await _converse(service)
        finally:
            await service.shutdown(drain=False)  # no-op once drained

    async def cluster() -> list[dict[str, Any]]:
        backend = ReproService(daemon_config("cluster"))
        await backend.start()
        front = ClusterFront(
            ClusterConfig(port=0, store_dir=str(tmp_path / "cluster" / "store")),
            [BackendLink("b0", "127.0.0.1", backend.port)],
        )
        try:
            await front.start()
            return await _converse(front)
        finally:
            await front.shutdown(drain=False)
            await backend.shutdown(drain=False)

    single = [_normalise(f) for f in asyncio.run(daemon())]
    fleet = [_normalise(f) for f in asyncio.run(cluster())]
    assert [(f["type"], f.get("id")) for f in single] == [
        ("pong", "a0"),
        ("accepted", "a1"),
        ("event", "a1"),
        ("accepted", "b1"),
        ("result", "a1"),
        ("result", "b1"),
        ("accepted", "a2"),
        ("event", "a2"),
        ("result", "a2"),
        ("accepted", "a3"),
        ("result", "a3"),
        ("status", "a4"),
        ("error", "a5"),
        ("error", "?"),
        ("error", "a6"),
    ]
    assert single[3]["coalesced"] is True
    assert single[9]["stage"] == "done"  # served from the store
    assert [f.get("code") for f in single[12:]] == [
        "unknown_job", "bad_request", "draining",
    ]
    assert fleet == single
