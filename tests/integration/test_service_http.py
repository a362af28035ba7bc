"""End-to-end tests of the advisor HTTP service (repro.service).

The centrepiece is the PR's acceptance scenario: two concurrent HTTP clients
submit an identical tiny grid spec; exactly one computation runs (the obs
counters prove it), both receive identical results via job polling, and a
third submission after a server restart is a pure result-cache hit.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import metrics as obs_metrics
from repro.service import create_service

#: A one-cell grid: cheap enough for CI, real enough to exercise the whole
#: submit -> schedule -> run_grid -> cache -> poll pipeline.
TINY_COMPARE = {
    "algorithms": ["hillclimb"],
    "workloads": ["telemetry:small"],
    "cost_models": ["hdd"],
}


def _post(base: str, path: str, body: dict):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def _delete(base: str, path: str):
    request = urllib.request.Request(base + path, method="DELETE")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _poll_until_done(base: str, job_id: str, timeout: float = 120.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, document = _get(base, f"/v1/jobs/{job_id}")
        if document["state"] in ("done", "failed", "cancelled"):
            return document
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} did not finish within {timeout:g}s")


@pytest.fixture
def service(tmp_path):
    instance = create_service(
        port=0, cache_dir=str(tmp_path / "cache"), workers=2
    )
    instance.serve_in_thread()
    yield instance
    instance.stop()


class TestAcceptance:
    def test_concurrent_identical_submissions_one_computation_then_cached_restart(
        self, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        service = create_service(port=0, cache_dir=cache_dir, workers=2)
        service.serve_in_thread()
        base = service.url
        baseline = obs_metrics.registry().snapshot()
        responses = []

        def submit() -> None:
            responses.append(_post(base, "/v1/compare", TINY_COMPARE))

        clients = [threading.Thread(target=submit) for _ in range(2)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()

        assert [status for status, _ in responses] == [202, 202]
        ids = {document["job"]["id"] for _, document in responses}
        assert len(ids) == 1, "identical specs must share one job"
        job_id = ids.pop()
        # Exactly one submission created the job; the other deduped onto it.
        assert sorted(document["deduped"] for _, document in responses) == [
            False,
            True,
        ]

        polled = [_poll_until_done(base, job_id) for _ in range(2)]
        assert all(document["state"] == "done" for document in polled)
        results = [document["result"] for document in polled]
        assert results[0] == results[1]
        assert results[0]["cells"][0]["ok"] is True
        assert results[0]["cache"]["computed"] == 1
        service.stop()

        # The obs counters prove exactly one computation ran for two clients.
        delta = obs_metrics.registry().delta(baseline)["counters"]
        assert delta.get("grid.cells.computed") == 1
        assert delta.get("service.jobs.submitted") == 1
        assert delta.get("service.jobs.deduped") == 1
        assert delta.get("service.jobs.completed") == 1
        assert delta.get("service.http.requests", 0) >= 4

        # Restart: a fresh service over the same cache dir replays the job
        # journal, so the finished job is restored — result included — and a
        # resubmission dedups onto it without touching the grid at all.
        baseline = obs_metrics.registry().snapshot()
        revived = create_service(port=0, cache_dir=cache_dir, workers=2)
        revived.serve_in_thread()
        try:
            _, document = _post(revived.url, "/v1/compare", TINY_COMPARE)
            assert document["deduped"] is True
            final = _poll_until_done(revived.url, document["job"]["id"])
            result = final["result"]
            assert result["cells"][0]["ok"] is True
            assert result["cells"][0]["estimated_cost"] == pytest.approx(
                results[0]["cells"][0]["estimated_cost"]
            )
            # Journal-less restart over the same cache dir: the job is fresh
            # again, but every cell is a pure persistent-cache hit.
            bare = create_service(
                port=0, cache_dir=cache_dir, workers=2, journal=False
            )
            bare.serve_in_thread()
            try:
                _, document = _post(bare.url, "/v1/compare", TINY_COMPARE)
                assert document["deduped"] is False
                final = _poll_until_done(bare.url, document["job"]["id"])
                result = final["result"]
                assert result["cache"]["hits"] == 1
                assert result["cache"]["computed"] == 0
                assert result["cells"][0]["cached"] is True
            finally:
                bare.stop()
        finally:
            revived.stop()
        delta = obs_metrics.registry().delta(baseline)["counters"]
        assert delta.get("grid.cells.computed") is None
        assert delta.get("grid.cache.hits") == 1


class TestEndpoints:
    def test_health_reports_jobs_and_configuration(self, service):
        status, document = _get(service.url, "/health")
        assert status == 200
        assert document["status"] == "ok"
        assert set(document["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled"
        }
        assert document["job_workers"] == 2

    def test_recommend_job_end_to_end(self, service):
        _, document = _post(
            service.url,
            "/v1/recommend",
            {"workload": "telemetry:small", "algorithms": ["hillclimb", "navathe"]},
        )
        final = _poll_until_done(service.url, document["job"]["id"])
        assert final["state"] == "done"
        result = final["result"]
        assert result["best"]["algorithm"] in ("hillclimb", "navathe")
        assert result["best"]["layout"], "layout groups must be present"
        assert len(result["recommendations"]) == 2
        assert result["row_cost"] > 0

    def test_job_listing_paginates(self, service):
        first, _ = _post(service.url, "/v1/compare", TINY_COMPARE)
        _, listing = _get(service.url, "/v1/jobs?offset=0&limit=10")
        assert listing["total"] == 1
        assert listing["jobs"][0]["kind"] == "compare"
        assert "result" not in listing["jobs"][0]

    def test_error_envelopes(self, service):
        base = service.url
        # Unknown job id.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/v1/jobs/compare-doesnotexist")
        assert excinfo.value.code == 404
        envelope = json.loads(excinfo.value.read())
        assert envelope["error"]["type"] == "NotFound"
        # Unknown path.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/v2/nope")
        assert excinfo.value.code == 404
        # Unknown job kind.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/v1/optimize", {})
        assert excinfo.value.code == 404
        # Malformed JSON body.
        request = urllib.request.Request(
            base + "/v1/compare",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read())
        assert envelope["error"]["status"] == 400
        # Invalid spec.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/v1/compare", {"grid": "tiny", "algorithms": ["nope"]})
        assert excinfo.value.code == 400
        assert "unknown algorithm" in json.loads(excinfo.value.read())["error"][
            "message"
        ]

    def test_invalid_sqlite_page_size_is_a_400_at_submission(self, service):
        # Regression: only page_size >= 512 was checked at submission, so a
        # non-power-of-two size became a job that ran every algorithm and
        # then failed (counting towards the circuit breaker).
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                service.url,
                "/v1/validate",
                {"workload": "telemetry:small", "backend": "sqlite", "page_size": 1000},
            )
        assert excinfo.value.code == 400
        assert "page_size" in json.loads(excinfo.value.read())["error"]["message"]
        _, health = _get(service.url, "/health")
        assert sum(health["jobs"].values()) == 0

    def test_submissions_rejected_while_shutting_down(self, tmp_path):
        service = create_service(port=0, cache_dir=str(tmp_path), workers=1)
        service.serve_in_thread()
        base = service.url
        service.registry.shutdown(wait=True)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/v1/compare", TINY_COMPARE)
        assert excinfo.value.code == 503
        envelope = json.loads(excinfo.value.read())
        assert envelope["error"]["type"] == "ServiceUnavailable"
        service.stop()


class TestRobustnessEndpoints:
    """PR 10: liveness/readiness, backpressure, cancellation, paging 400s."""

    def test_health_live_and_ready_when_idle(self, service):
        status, document = _get(service.url, "/health/live")
        assert status == 200 and document == {"status": "live"}
        status, document = _get(service.url, "/health/ready")
        assert status == 200
        assert document["status"] == "ready"
        assert document["draining"] is False and document["saturated"] is False

    def test_health_reports_journal_and_queue(self, service):
        _, document = _get(service.url, "/health")
        assert document["journal"] is not None
        assert document["journal"]["path"].endswith("service-journal.jsonl")
        assert document["queue"]["max_depth"] is None
        assert document["recovered_jobs"] == 0

    @pytest.mark.parametrize(
        "query", ["offset=-1", "limit=0", "limit=-3", "offset=abc", "limit=1.5"]
    )
    def test_paging_rejects_invalid_values_with_400(self, service, query):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(service.url, f"/v1/jobs?{query}")
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read())
        assert envelope["error"]["type"] == "BadRequest"

    def test_saturated_queue_sheds_429_with_retry_after(self, tmp_path):
        from repro.service import faults as service_faults

        service = create_service(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1,
            max_queue_depth=1,
        )
        service.serve_in_thread()
        try:
            # Slow the worker down so the first job pins it while the queue
            # fills (the service threads share this process's environment).
            with service_faults.injected(
                {"job.start": {"kind": "slow", "seconds": 1.0}}
            ):
                _post(service.url, "/v1/compare", TINY_COMPARE)
                _post(service.url, "/v1/compare",
                      {**TINY_COMPARE, "cost_models": ["mainmemory"]})
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(service.url, "/v1/compare",
                          {**TINY_COMPARE, "algorithms": ["navathe"]})
                assert excinfo.value.code == 429
                retry_after = excinfo.value.headers["Retry-After"]
                assert retry_after is not None and int(retry_after) >= 1
                envelope = json.loads(excinfo.value.read())
                assert envelope["error"]["type"] == "TooManyRequests"
                assert envelope["error"]["retry_after"] == int(retry_after)
                # Readiness flips while saturated; liveness does not.
                status, document = _get_allow_error(service.url, "/health/ready")
                assert status == 503 and document["saturated"] is True
                status, _ = _get(service.url, "/health/live")
                assert status == 200
        finally:
            service.stop()

    def test_delete_cancels_queued_job(self, tmp_path):
        from repro.service import faults as service_faults

        service = create_service(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1
        )
        service.serve_in_thread()
        try:
            with service_faults.injected(
                {"job.start": {"kind": "slow", "seconds": 1.0}}
            ):
                _post(service.url, "/v1/compare", TINY_COMPARE)
                _, queued = _post(service.url, "/v1/compare",
                                  {**TINY_COMPARE, "cost_models": ["mainmemory"]})
                queued_id = queued["job"]["id"]
                status, document = _delete(service.url, f"/v1/jobs/{queued_id}")
                assert status == 202 and document["cancelled"] is True
                assert document["job"]["state"] == "cancelled"
                final = _poll_until_done(service.url, queued_id)
                assert final["state"] == "cancelled"
                assert final["result"] is None
        finally:
            service.stop()

    def test_delete_cancels_running_job_cooperatively(self, tmp_path):
        from repro.service import faults as service_faults

        service = create_service(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1
        )
        service.serve_in_thread()
        try:
            # The injected slow fault holds the job at its pre-execution
            # checkpoint; the cancel must land within that window and the
            # job must come out `cancelled`, with nothing cached or served.
            with service_faults.injected(
                {"job.start": {"kind": "slow", "seconds": 1.5}}
            ):
                _, submitted = _post(service.url, "/v1/compare", TINY_COMPARE)
                job_id = submitted["job"]["id"]
                registry_job = service.registry.get(job_id)
                import time as _time
                deadline = _time.monotonic() + 5
                while registry_job.state != "running":
                    assert _time.monotonic() < deadline
                    _time.sleep(0.01)
                status, document = _delete(service.url, f"/v1/jobs/{job_id}")
                assert status == 202 and document["cancelled"] is True
                assert document["job"]["cancel_requested"] is True
                final = _poll_until_done(service.url, job_id)
                assert final["state"] == "cancelled"
                assert final["result"] is None
        finally:
            service.stop()

    def test_delete_unknown_and_finished_jobs(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _delete(service.url, "/v1/jobs/compare-doesnotexist")
        assert excinfo.value.code == 404
        _, submitted = _post(service.url, "/v1/compare", TINY_COMPARE)
        job_id = submitted["job"]["id"]
        final = _poll_until_done(service.url, job_id)
        assert final["state"] == "done"
        status, document = _delete(service.url, f"/v1/jobs/{job_id}")
        assert status == 200 and document["cancelled"] is False
        assert document["job"]["state"] == "done"  # undisturbed

    def test_ready_flips_unready_while_draining(self, tmp_path):
        service = create_service(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1
        )
        service.serve_in_thread()
        stopper = threading.Thread(target=lambda: service.stop(drain=True))
        try:
            _, submitted = _post(service.url, "/v1/compare", TINY_COMPARE)
            stopper.start()
            import time as _time
            deadline = _time.monotonic() + 10
            status = 200
            while _time.monotonic() < deadline:
                try:
                    status, document = _get_allow_error(
                        service.url, "/health/ready"
                    )
                except (urllib.error.URLError, ConnectionError, OSError):
                    break  # socket already closed: drained and gone
                if status == 503 and document["draining"]:
                    break
                _time.sleep(0.01)
            assert status == 503 or service.registry.get(
                submitted["job"]["id"]
            ).finished
        finally:
            stopper.join(timeout=30)


def _get_allow_error(base: str, path: str):
    try:
        return _get(base, path)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestTracing:
    def test_compare_job_writes_a_parseable_trace(self, tmp_path):
        from repro.obs.trace import read_trace

        trace_dir = tmp_path / "traces"
        service = create_service(
            port=0,
            cache_dir=str(tmp_path / "cache"),
            workers=2,
            trace_dir=str(trace_dir),
        )
        service.serve_in_thread()
        try:
            _, document = _post(service.url, "/v1/compare", TINY_COMPARE)
            final = _poll_until_done(service.url, document["job"]["id"])
            assert final["state"] == "done"
            trace_path = final["result"]["trace_path"]
            assert trace_path == str(trace_dir / f"{document['job']['id']}.jsonl")
            _, records = read_trace(trace_path)
            names = {record.get("name") for record in records}
            assert "grid.execute" in names
        finally:
            service.stop()


class TestGracefulShutdown:
    def test_stop_drains_in_flight_jobs(self, tmp_path):
        service = create_service(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1
        )
        service.serve_in_thread()
        # Two distinct jobs on one worker: the second queues behind the first.
        _, first = _post(service.url, "/v1/compare", TINY_COMPARE)
        _, second = _post(
            service.url,
            "/v1/compare",
            {**TINY_COMPARE, "cost_models": ["mainmemory"]},
        )
        assert first["job"]["id"] != second["job"]["id"]
        service.stop(drain=True)
        # Both jobs finished before the workers exited.
        for document in (first, second):
            job = service.registry.get(document["job"]["id"])
            assert job is not None and job.state == "done"
