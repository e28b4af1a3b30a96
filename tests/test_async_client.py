"""Client-side protocol tests: streamed frames, no-wait submits, retry,
status and metrics, all through :class:`ServiceClient`.

The daemon runs in-process on the test's event loop; the blocking client
runs in a worker thread (``asyncio.to_thread``) so both share one
process without a subprocess start per test.  ``ping()`` against an
unreachable port is checked in ``tests/test_service.py``.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Callable

import pytest

from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.protocol import Response
from repro.service.server import ReproService, ServiceConfig


def _against_service(tmp_path, body: Callable[[ServiceClient], Any]) -> Any:
    """Run ``body(client)`` in a thread against a one-worker daemon."""

    def call(port: int) -> Any:
        with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
            return body(client)

    async def main() -> Any:
        service = ReproService(
            ServiceConfig(port=0, workers=1, cache_dir=str(tmp_path))
        )
        await service.start()
        try:
            return await asyncio.to_thread(call, service.port)
        finally:
            await service.shutdown(drain=False)

    return asyncio.run(main())


class TestLifecycle:
    def test_ping_and_context_manager(self, tmp_path):
        def body(client: ServiceClient) -> ServiceClient:
            assert client.ping() is True
            return client

        client = _against_service(tmp_path, body)
        assert client._sock is None  # the context manager closed it


class TestStream:
    def test_stream_yields_accepted_then_result(self, tmp_path, capsys):
        """``on_event`` sees ``accepted`` then progress events, in wire
        order, before ``submit`` returns the result; ``repro submit``
        prints the same frames on stderr."""
        from repro.cli import main

        def body(client: ServiceClient) -> tuple[list[Response], Response]:
            frames: list[Response] = []
            result = client.submit("noop", {}, on_event=frames.append)
            assert main(
                ["submit", "noop", "cli", "--port", str(client.port)]
            ) == 0
            return frames, result

        frames, result = _against_service(tmp_path, body)
        assert result.type == "result" and result.ok
        assert [f.type for f in frames][:1] == ["accepted"]
        assert {f.type for f in frames[1:]} == {"event"}
        assert "started" in [f.stage for f in frames[1:]]
        assert {f.job_id for f in frames} == {result.job_id}
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("# ") and err[0].endswith(": accepted")
        assert any(line.endswith(": started (attempt 1)") for line in err)

    def test_failed_job_yields_terminal_frame(self, tmp_path):
        """A job that dies at execution (wall-clock timeout) raises
        :class:`ServiceError` with the result frame's ``code`` after its
        progress frames were delivered."""

        def body(client: ServiceClient) -> tuple[list[Response], Any]:
            frames: list[Response] = []
            with pytest.raises(ServiceError) as info:
                client.submit(
                    "run",
                    {"workload": "srt", "instances": 90, "no_cache": True},
                    timeout=0.3,
                    on_event=frames.append,
                )
            return frames, info.value

        frames, exc = _against_service(tmp_path, body)
        assert exc.code == "timeout"
        assert frames[0].type == "accepted"

    def test_bad_kind_raises_immediately(self, tmp_path):
        def body(client: ServiceClient) -> None:
            seen: list[Response] = []
            with pytest.raises(ServiceError) as info:
                client.submit("no-such-kind", {}, on_event=seen.append)
            assert info.value.code == "bad_request"
            assert seen == []  # raised on the first frame

        _against_service(tmp_path, body)


class TestSubmit:
    def test_submit_wait_matches_blocking_client(self, tmp_path):
        def body(client: ServiceClient) -> tuple[Response, list[str | None]]:
            events: list[str | None] = []
            response = client.submit(
                "noop", {}, on_event=lambda r: events.append(r.stage)
            )
            return response, events

        response, events = _against_service(tmp_path, body)
        assert response.ok is True
        assert "started" in events

    def test_submit_nowait_returns_accepted(self, tmp_path):
        def body(client: ServiceClient) -> tuple[Response, Response]:
            accepted = client.submit("noop", {}, wait=False)
            # The job id is immediately pollable.
            return accepted, client.status(accepted.job_id)

        accepted, status = _against_service(tmp_path, body)
        assert accepted.type == "accepted"
        assert accepted.job_id
        assert status.type == "status"
        assert status.stage in ("queued", "running", "done")

    def test_bad_payload_raises_with_code(self, tmp_path):
        def body(client: ServiceClient) -> None:
            seen: list[Response] = []
            with pytest.raises(ServiceError) as info:
                client.submit(
                    "run", {"workload": "no-such-workload"},
                    on_event=seen.append,
                )
            assert info.value.code == "bad_request"
            assert seen == []

        _against_service(tmp_path, body)


class TestSubmitRetry:
    def test_retry_gives_up_after_max_attempts(self, monkeypatch):
        """Backpressure triggers jittered backoff, then the last
        rejection is re-raised."""
        client = ServiceClient(jitter=random.Random(7))
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        exc = ServiceError("full", code="queue_full", retry_after=0.1)

        def always_reject(*args: Any, **kwargs: Any) -> Response:
            raise exc

        monkeypatch.setattr(client, "submit", always_reject)
        with pytest.raises(ServiceError) as info:
            client.submit_retry("noop", max_attempts=3)
        assert info.value.code == "queue_full"
        assert len(sleeps) == 3
        assert all(0.05 <= s <= 0.15 for s in sleeps)

    def test_non_retryable_error_propagates(self, tmp_path):
        def body(client: ServiceClient) -> None:
            with pytest.raises(ServiceError) as info:
                client.submit_retry("no-such-kind", {})
            assert info.value.code == "bad_request"

        _against_service(tmp_path, body)


class TestIntrospection:
    def test_status_and_metrics_text(self, tmp_path):
        def body(client: ServiceClient) -> tuple[Response, str]:
            client.submit("noop", {})
            return client.status(), client.metrics_text()

        status, text = _against_service(tmp_path, body)
        assert status.value["workers"]
        assert "repro_job_seconds" in text
        assert "repro_job_phase_seconds" in text
