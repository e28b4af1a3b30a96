"""HTTP metrics exposition tests.

The handler shares the daemon's event loop, so every scrape in these
tests runs in a thread (``asyncio.to_thread``) — a synchronous
``urllib`` call *on* the loop would deadlock against the server it is
trying to reach.
"""

from __future__ import annotations

import asyncio
import urllib.error
import urllib.request

import pytest

from repro.service.httpexpo import CONTENT_TYPE, MetricsHTTPServer


def _get(url: str) -> tuple[int, str, str]:
    """(status, content-type, body) — raises nothing for HTTP errors."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode(),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Content-Type", ""), ""


async def _with_server(render):
    server = MetricsHTTPServer("127.0.0.1", 0, render)
    await server.start()
    return server


class TestHandler:
    def test_get_metrics_content_type_and_body(self):
        async def main() -> None:
            def render() -> str:
                return "repro_test_metric 42\n"

            server = await _with_server(render)
            try:
                status, ctype, body = await asyncio.to_thread(
                    _get, f"http://127.0.0.1:{server.port}/metrics"
                )
                assert status == 200
                assert ctype == CONTENT_TYPE
                assert body == "repro_test_metric 42\n"
            finally:
                await server.close()

        asyncio.run(main())

    def test_healthz_404_and_405(self):
        async def main() -> None:
            def render() -> str:
                return "x 1\n"

            server = await _with_server(render)
            base = f"http://127.0.0.1:{server.port}"
            try:
                status, _, body = await asyncio.to_thread(_get, f"{base}/healthz")
                assert (status, body) == (200, "ok\n")
                status, _, _ = await asyncio.to_thread(_get, f"{base}/nope")
                assert status == 404

                def post() -> int:
                    request = urllib.request.Request(
                        f"{base}/metrics", data=b"x", method="POST"
                    )
                    try:
                        with urllib.request.urlopen(request, timeout=10) as r:
                            return r.status
                    except urllib.error.HTTPError as exc:
                        return exc.code

                assert await asyncio.to_thread(post) == 405
            finally:
                await server.close()

        asyncio.run(main())

    def test_head_has_length_but_no_body(self):
        async def main() -> None:
            def render() -> str:
                return "abc\n"

            server = await _with_server(render)
            try:
                def head() -> tuple[str, bytes]:
                    request = urllib.request.Request(
                        f"http://127.0.0.1:{server.port}/metrics",
                        method="HEAD",
                    )
                    with urllib.request.urlopen(request, timeout=10) as r:
                        return r.headers.get("Content-Length", ""), r.read()

                length, body = await asyncio.to_thread(head)
                assert length == "4"
                assert body == b""
            finally:
                await server.close()

        asyncio.run(main())

    def test_render_errors_do_not_kill_the_server(self):
        async def main() -> None:
            calls = {"n": 0}

            def render() -> str:
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("collector blew up")
                return "ok_metric 1\n"

            server = await _with_server(render)
            base = f"http://127.0.0.1:{server.port}"
            try:
                # First scrape dies mid-handler; the listener must survive.
                with pytest.raises(Exception):
                    await asyncio.to_thread(_get, f"{base}/metrics")
                status, _, body = await asyncio.to_thread(
                    _get, f"{base}/metrics"
                )
                assert status == 200
                assert body == "ok_metric 1\n"
            finally:
                await server.close()

        asyncio.run(main())


class TestServiceIntegration:
    def test_daemon_serves_real_exposition(self, tmp_path):
        from repro.service.server import ReproService, ServiceConfig

        async def main() -> None:
            service = ReproService(
                ServiceConfig(
                    port=0, workers=1, metrics_port=0,
                    cache_dir=str(tmp_path),
                )
            )
            await service.start()
            try:
                assert service.http is not None

                def scrape() -> tuple[int, str, str]:
                    return _get(
                        f"http://127.0.0.1:{service.http.port}/metrics"
                    )

                status, ctype, body = await asyncio.to_thread(scrape)
                assert status == 200
                assert ctype == CONTENT_TYPE
                for family in (
                    "repro_job_seconds",
                    "repro_job_phase_seconds",
                    "repro_store_hit_ratio",
                    "repro_codegen_entries",
                    "repro_queue_depth",
                ):
                    assert family in body, family
            finally:
                await service.shutdown(drain=False)

        asyncio.run(main())

    def test_scrapes_succeed_mid_drain(self, tmp_path):
        """The exposition socket closes last: a scrape landing while the
        daemon drains still gets a full 200 with ``repro_draining 1``."""
        from repro.service.server import ReproService, ServiceConfig

        async def main() -> None:
            service = ReproService(
                ServiceConfig(
                    port=0, workers=1, metrics_port=0, drain_grace=5.0,
                    cache_dir=str(tmp_path),
                )
            )
            await service.start()
            assert service.http is not None
            port = service.http.port

            # Hold the exposition socket open until our scrapes finish so
            # the "mid-drain" window is deterministic, not a race.
            scraped = asyncio.Event()
            real_close = service.http.close

            async def gated_close() -> None:
                await scraped.wait()
                await real_close()

            service.http.close = gated_close  # type: ignore[method-assign]

            shutdown = asyncio.create_task(service.shutdown(drain=True))
            # Give shutdown a tick to set the draining gauge and close
            # the job listener before we scrape.
            while not service._draining:
                await asyncio.sleep(0.01)

            results = await asyncio.gather(
                *(
                    asyncio.to_thread(
                        _get, f"http://127.0.0.1:{port}/metrics"
                    )
                    for _ in range(4)
                )
            )
            scraped.set()
            await shutdown

            for status, ctype, body in results:
                assert status == 200
                assert ctype == CONTENT_TYPE
                assert "repro_draining 1" in body

        asyncio.run(main())
