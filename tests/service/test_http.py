"""The HTTP front end: routes, status codes, backpressure headers."""

from __future__ import annotations

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.server import PartitionService, start_http_server


@pytest.fixture
def live():
    """A started service with its HTTP server on an ephemeral port."""
    service = PartitionService(queue_depth=4, executor_threads=2).start()
    httpd = start_http_server(service)
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    yield service, client
    service.shutdown(drain=False, timeout=5.0)
    httpd.shutdown()
    httpd.server_close()


class TestSolve:
    def test_sync_solve_round_trip(self, live, request_doc):
        _, client = live
        payload = client.solve(request_doc)
        assert payload["format"] == "service-result-v1"
        assert payload["stop_reason"] == "completed"

    def test_second_solve_is_served_from_cache(self, live, request_doc):
        service, client = live
        first = client.solve(request_doc)
        second = client.solve(request_doc)
        assert first == second
        assert service.cache.stats()["hits"] == 1

    def test_malformed_request_is_a_400(self, live):
        _, client = live
        with pytest.raises(ServiceError) as err:
            client.solve({"circuit": {"name": "x"}, "solver": "nope"})
        assert err.value.status == 400
        assert "nope" in str(err.value)

    def test_top_level_iterations_is_a_400_naming_it(self, live, request_doc):
        _, client = live
        with pytest.raises(ServiceError) as err:
            client.solve({**request_doc, "iterations": 5})
        assert err.value.status == 400
        assert "iterations" in str(err.value)

    def test_unknown_path_is_a_404(self, live):
        _, client = live
        with pytest.raises(ServiceError) as err:
            client._call("GET", "/v2/everything")
        assert err.value.status == 404


class TestJobs:
    def test_submit_then_poll_result(self, live, request_doc):
        _, client = live
        handle = client.submit(request_doc)
        assert handle["status"] in ("queued", "coalesced")
        payload = client.result(handle["job_id"], wait=True, timeout=60)
        assert payload["format"] == "service-result-v1"
        status = client.status(handle["job_id"])
        assert status["state"] == "done"

    def test_submit_of_cached_problem_returns_the_result(self, live, request_doc):
        _, client = live
        client.solve(request_doc)
        handle = client.submit(request_doc)
        assert handle["status"] == "cached"
        assert handle["result"]["format"] == "service-result-v1"

    def test_unknown_job_is_a_404(self, live):
        _, client = live
        with pytest.raises(ServiceError) as err:
            client.status("job-999999")
        assert err.value.status == 404


class TestBackpressure:
    def test_full_queue_is_a_429_with_retry_after(self, request_doc):
        # Executor deliberately NOT started: submitted jobs stay queued,
        # so the bound is hit deterministically.
        service = PartitionService(queue_depth=1, executor_threads=1)
        httpd = start_http_server(service)
        client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
        try:
            first = client.submit({**request_doc, "seed": 1})
            assert first["status"] == "queued"
            with pytest.raises(ServiceError) as err:
                client.submit({**request_doc, "seed": 2})
            assert err.value.status == 429
            assert err.value.retry_after is not None
            metrics = client.metrics()
            assert metrics["snapshot"]["counters"]["service.rejected"] == 1
        finally:
            service.shutdown(drain=False, timeout=1.0)
            httpd.shutdown()
            httpd.server_close()


class TestIntrospection:
    def test_metrics_document_shape(self, live, request_doc):
        _, client = live
        client.solve(request_doc)
        metrics = client.metrics()
        assert metrics["snapshot"]["format"] == "metrics-snapshot-v1"
        assert metrics["cache"]["entries"] == 1
        assert metrics["queue"]["max_depth"] == 4
        assert metrics["uptime_seconds"] >= 0

    def test_healthz(self, live):
        _, client = live
        health = client.health()
        assert health["status"] == "ok"
        assert "version" in health
