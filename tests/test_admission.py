"""Admission-control tests: the library decision and its service wiring.

The load-bearing property is determinism: the decision digest for a
normalized task set must be byte-identical whether computed by the
library (``repro admit``), a single daemon worker, or any cluster
backend — that is what makes fleet-wide coalescing and the shared
result store sound for the ``admit`` kind.  The round-trip tests here
pin exactly that.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import ProtocolError
from repro.rt import admission
from repro.service import jobs
from tests.conftest import serve_daemon

TASKS_OK = {
    "tasks": [
        {"workload": "cnt", "scale": "tiny", "period": 0.01},
        {"workload": "crc", "scale": "tiny", "period": 0.02, "deadline": 0.015},
    ],
    "policy": "rm",
}

# A period so short even the top DVS setting cannot meet it.
TASKS_BAD = {
    "tasks": [
        {"workload": "cnt", "scale": "tiny", "period": 1e-5, "deadline": 5e-6}
    ],
}


# -- normalization ----------------------------------------------------------------


def test_normalize_fills_defaults():
    norm = admission.normalize_payload(TASKS_OK)
    assert norm["policy"] == "rm"
    assert norm["engine"] in ("static", "mc")
    assert norm["background_threads"] == 0
    assert norm["alpha"] == 1.0
    t0, t1 = norm["tasks"]
    assert t0["name"] == "t0-cnt"
    assert t0["deadline"] == t0["period"] == 0.01
    assert t1["deadline"] == 0.015


def test_normalize_is_idempotent():
    norm = admission.normalize_payload(TASKS_OK)
    assert admission.normalize_payload(norm) == norm


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({}, "tasks"),
        ({"tasks": []}, "tasks"),
        ({"tasks": [{"workload": "nope", "period": 1.0}]}, "workload"),
        ({"tasks": [{"workload": "cnt", "period": 0}]}, "period"),
        ({"tasks": [{"workload": "cnt", "period": 1e9}]}, "period"),
        (
            {"tasks": [{"workload": "cnt", "period": 0.1, "deadline": 0.2}]},
            "deadline",
        ),
        (
            {"tasks": [{"workload": "cnt", "period": 1.0, "bogus": 1}]},
            "bogus",
        ),
        ({"tasks": TASKS_OK["tasks"], "policy": "fifo"}, "policy"),
        ({"tasks": TASKS_OK["tasks"], "engine": "magic"}, "engine"),
        ({"tasks": TASKS_OK["tasks"], "background_threads": -1}, "background"),
        ({"tasks": TASKS_OK["tasks"], "alpha": 0.0}, "alpha"),
        ({"tasks": TASKS_OK["tasks"], "surprise": True}, "surprise"),
    ],
)
def test_normalize_rejects(payload, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        admission.normalize_payload(payload)


def test_normalize_rejects_duplicate_names():
    with pytest.raises(ProtocolError, match="duplicate"):
        admission.normalize_payload(
            {
                "tasks": [
                    {"workload": "cnt", "period": 0.01, "name": "x"},
                    {"workload": "crc", "period": 0.02, "name": "x"},
                ]
            }
        )


def test_normalize_caps_task_count():
    many = [
        {"workload": "cnt", "period": 0.01 * (i + 1)}
        for i in range(admission.MAX_TASKS + 1)
    ]
    with pytest.raises(ProtocolError, match="at most"):
        admission.normalize_payload({"tasks": many})


# -- digests ----------------------------------------------------------------------


def test_task_set_digest_matches_service_coalesce_key():
    """The one-canonicalizer contract: library digest == service digest."""
    norm = admission.normalize_payload(TASKS_OK)
    assert admission.task_set_digest(norm) == jobs.coalesce_key("admit", norm)
    # And the service normalizer is literally the library normalizer.
    assert jobs.normalize("admit", TASKS_OK) == norm


def test_decision_is_deterministic():
    norm = admission.normalize_payload(TASKS_OK)
    first = admission.decide(norm)
    second = admission.decide(norm)
    assert first == second
    assert first["digest"] == second["digest"]
    assert first["task_set_digest"] == admission.task_set_digest(norm)


def test_digest_sensitive_to_payload():
    base = admission.normalize_payload(TASKS_OK)
    edf = admission.normalize_payload({**TASKS_OK, "policy": "edf"})
    assert admission.task_set_digest(base) != admission.task_set_digest(edf)


# -- decisions --------------------------------------------------------------------


def test_admissible_decision_shape():
    decision = admission.decide(admission.normalize_payload(TASKS_OK))
    assert decision["admissible"] is True
    assert decision["reason"] is None
    assert decision["f_rec_mhz"] is not None
    assert decision["f_rec_mhz"] <= decision["f_spec_mhz"] == 1000.0
    assert 0.0 < decision["utilization"] < 1.0
    for task in decision["tasks"]:
        assert task["slack_seconds"] > 0
        plan = task["plan"]
        assert plan["checkpoints"] == sorted(plan["checkpoints"])
        assert len(plan["watchdog_increments"]) == len(plan["checkpoints"])
        assert task["response_seconds"] <= task["deadline_seconds"]
    # JSON-safe end to end (no inf/nan anywhere).
    json.dumps(decision, allow_nan=False)


def test_inadmissible_decision_names_the_reason():
    decision = admission.decide(admission.normalize_payload(TASKS_BAD))
    assert decision["admissible"] is False
    assert "deadline" in decision["reason"]
    assert decision["f_rec_mhz"] is None
    assert decision["tasks"][0]["plan"] is None
    json.dumps(decision, allow_nan=False)


def test_edf_policy_decides():
    decision = admission.decide(
        admission.normalize_payload({**TASKS_OK, "policy": "edf"})
    )
    assert decision["admissible"] is True
    assert decision["policy"] == "edf"
    assert decision["simulated"]["all_met"] is True


def test_smt_contention_shrinks_harvest():
    solo = admission.decide(admission.normalize_payload(TASKS_OK))
    busy = admission.decide(
        admission.normalize_payload(
            {**TASKS_OK, "background_threads": 4, "alpha": 2.0}
        )
    )
    assert busy["smt"]["rt_share"] < solo["smt"]["rt_share"]
    assert busy["smt"]["rt_share"] == pytest.approx(1.0 / 9.0)


def test_cached_decide_hits_disk(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    norm = admission.normalize_payload(TASKS_OK)
    first = admission.cached_decide(norm)
    digest = admission.task_set_digest(norm)
    entry = tmp_path / f"admit-{digest}.json"
    assert entry.exists()
    # Corrupt-proof: a second call returns the cached decision verbatim.
    assert admission.cached_decide(norm) == first
    # Poisoned entries are recomputed, not trusted.
    entry.write_text("{not json")
    assert admission.cached_decide(norm) == first


# -- service round trips ----------------------------------------------------------


def test_admit_roundtrip_single_daemon(tmp_path, monkeypatch):
    """Library, library-cached, and daemon answers are byte-identical."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.service.client import ServiceClient
    from repro.service.server import ReproService, ServiceConfig

    lib = admission.cached_decide(admission.normalize_payload(TASKS_OK))

    async def run() -> tuple[dict, dict]:
        service = ReproService(
            ServiceConfig(port=0, workers=1, cache_dir=str(tmp_path))
        )
        await service.start()
        try:
            def call() -> tuple[dict, dict]:
                with ServiceClient("127.0.0.1", service.port) as client:
                    good = client.submit("admit", TASKS_OK)
                    bad = client.submit("admit", TASKS_BAD)
                    return good.value, bad.value
            return await asyncio.to_thread(call)
        finally:
            await service.shutdown(drain=False)

    good, bad = asyncio.run(run())
    assert good == lib
    assert good["digest"] == lib["digest"]
    assert bad["admissible"] is False


def test_admit_roundtrip_cluster(tmp_path):
    """--cluster N serves the same digest-cached decision as the library."""
    from repro.service.client import ServiceClient

    with serve_daemon(
        tmp_path, "--cluster", "2", "--jobs", "1", "--drain-grace", "5",
        "--store-dir", str(tmp_path / "store"),
    ) as (_proc, port):
        with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
            first = client.submit("admit", TASKS_OK).value
            second = client.submit("admit", TASKS_OK).value

    lib = admission.decide(admission.normalize_payload(TASKS_OK))
    assert first == lib
    assert second == lib  # served from the shared store, still identical
    assert first["digest"] == lib["digest"]


def test_admit_kind_is_cacheable_everywhere():
    from repro.service import store
    from repro.service.protocol import JOB_KINDS

    assert "admit" in JOB_KINDS
    assert "admit" in jobs.CACHEABLE_KINDS
    assert "admit" in store.CACHEABLE_KINDS
