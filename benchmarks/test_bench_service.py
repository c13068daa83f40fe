"""Benchmark: the sweep service's duplicate-work elimination layers.

The contract checked here mirrors the store benchmark one level up: a
cold request through the HTTP service costs one evaluation, while the
warm paths — store-served bodies and fingerprint-ETag ``304``
revalidation — must be answered in well under the cost of a simulation,
and a thundering herd of identical concurrent requests must cost exactly
one evaluation (singleflight).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import run_once
from repro.api import EvaluationRequest
from repro.service import SweepService, create_server

HERD = 8


@pytest.fixture
def live_service(tmp_path):
    service = SweepService(store=tmp_path / "store")
    service.start()
    server = create_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield service, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


def post_evaluate(base_url, payload, etag=None):
    request = urllib.request.Request(
        f"{base_url}/v1/evaluate",
        data=json.dumps(payload).encode("utf-8"),
        headers={"If-None-Match": etag} if etag else {},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            body = response.read()
            return (
                response.status,
                response.headers.get("ETag"),
                json.loads(body) if body else None,
            )
    except urllib.error.HTTPError as error:
        if error.code == 304:  # urllib models not-modified as an error
            return 304, error.headers.get("ETag"), None
        raise AssertionError(f"HTTP {error.code}: {error.read()!r}")


def test_bench_cold_evaluate_over_http(benchmark, live_service):
    """Timing baseline: one evaluation through the full HTTP stack."""
    _, base_url = live_service
    payload = EvaluationRequest(method="linear", capacity=4).to_dict()
    status, etag, body = run_once(benchmark, post_evaluate, base_url, payload)
    assert status == 200
    assert body["source"] == "evaluated"
    assert etag == f'"{body["fingerprint"]}"'


def test_bench_etag_revalidation_is_cheap(benchmark, live_service):
    """A 304 costs no evaluation, no store read — HTTP overhead only."""
    service, base_url = live_service
    payload = EvaluationRequest(method="linear", capacity=4).to_dict()
    _, etag, _ = post_evaluate(base_url, payload)
    reads_before = service.store.counters()

    def revalidate_many(rounds=50):
        for _ in range(rounds):
            status, _, _ = post_evaluate(base_url, payload, etag=etag)
            assert status == 304

    run_once(benchmark, revalidate_many)
    assert service.store.counters() == reads_before
    assert service.status()["evaluate"]["evaluations"] == 1
    assert service.counters.not_modified == 50


def test_bench_coalesced_herd_costs_one_evaluation(benchmark, live_service):
    """HERD identical concurrent requests -> exactly one simulation."""
    service, base_url = live_service
    payload = EvaluationRequest(method="linear", capacity=6).to_dict()
    barrier = threading.Barrier(HERD)

    def one_client(_):
        barrier.wait()
        return post_evaluate(base_url, payload)

    def herd():
        with ThreadPoolExecutor(max_workers=HERD) as pool:
            return list(pool.map(one_client, range(HERD)))

    responses = run_once(benchmark, herd)
    assert [status for status, _, _ in responses] == [200] * HERD
    bodies = [json.dumps(body["result"], sort_keys=True) for _, _, body in responses]
    assert len(set(bodies)) == 1
    # The herd cost one evaluation; everyone else coalesced or hit the
    # store the leader had just populated.
    assert service.status()["evaluate"]["evaluations"] == 1
    sources = [body["source"] for _, _, body in responses]
    assert sources.count("evaluated") == 1
    assert service.counters.coalesced_hits == sources.count("coalesced")
