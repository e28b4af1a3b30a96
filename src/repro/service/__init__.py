"""``repro serve`` — the repro toolchain as a long-lived asyncio service.

Every capability of the toolkit (``run``, ``wcet``, ``lint``, experiment
cells) is otherwise a one-shot CLI invocation: each caller pays full
process startup and nothing is shared between callers.  This package
turns the toolchain into a resident daemon so many small queries hit one
warm process tree — the access pattern interactive WCET estimation
implies (PAPERS.md: Becker et al., arXiv:1802.09239; Lee et al.,
arXiv:2302.10288).

Components:

* :mod:`~repro.service.protocol` — line-delimited JSON over TCP with
  typed request/response/progress-event dataclasses and a versioned
  schema.
* :mod:`~repro.service.queue` — bounded priority queue with per-client
  round-robin fairness and explicit backpressure (reject with a
  ``retry_after`` hint when full).
* :mod:`~repro.service.workers` — process worker pool reusing the same
  fork model as :mod:`repro.experiments.parallel` and the shared
  ``.repro_cache/`` run cache, with per-job timeouts and crash recovery.
* :mod:`~repro.service.jobs` — the job-type registry (validation,
  coalesce-key derivation, worker-side execution).
* :mod:`~repro.service.metrics` — counters/gauges/histograms served on a
  ``/metrics``-style text endpoint.
* :mod:`~repro.service.server` — the daemon: listener, admission
  (quota, single-flight coalescing, result-store lookup), the queue and
  its dispatcher over the worker pool, job records, result fan-out and
  the SIGTERM drain.
* :mod:`~repro.service.store` — the shared content-addressed result
  store (``--store-dir``).
* :mod:`~repro.service.client` — the blocking client library
  (``ServiceClient``) used by the ``repro submit`` / ``repro status``
  CLI subcommands.
* :mod:`~repro.service.httpexpo` — plain-HTTP ``GET /metrics``
  exposition for Prometheus-style scraping (``--metrics-port``).
* :mod:`~repro.service.top` — the ``repro top`` live terminal view.

See ``docs/service.md`` for the protocol spec and job lifecycle, and
``docs/observability.md`` for the metric families and scraping story.
"""

from __future__ import annotations

from repro.service.client import ServiceClient
from repro.service.protocol import PROTOCOL_VERSION, JobSpec, Request, Response
from repro.service.server import ReproService, ServiceConfig

__all__ = [
    "PROTOCOL_VERSION",
    "JobSpec",
    "ReproService",
    "Request",
    "Response",
    "ServiceClient",
    "ServiceConfig",
]
