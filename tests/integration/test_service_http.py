"""End-to-end tests of the advisor HTTP service (repro.service).

The centrepiece is the PR's acceptance scenario: two concurrent HTTP clients
submit an identical tiny grid spec; exactly one computation runs (the obs
counters prove it), both receive identical results via job polling, and a
third submission after a server restart is a pure result-cache hit.
"""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import metrics as obs_metrics
from repro.service import create_service
from repro.service.app import MAX_BODY_BYTES, ServiceHandler

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
        from repro import faults

        service = create_service(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1,
            max_queue_depth=1,
        )
        service.serve_in_thread()
        try:
            # Slow the worker down so the first job pins it while the queue
            # fills (the service threads share this process's environment).
            with faults.injected(
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
        from repro import faults

        service = create_service(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1
        )
        service.serve_in_thread()
        try:
            with faults.injected(
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
        from repro import faults

        service = create_service(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1
        )
        service.serve_in_thread()
        try:
            # The injected slow fault holds the job at its pre-execution
            # checkpoint; the cancel must land within that window and the
            # job must come out `cancelled`, with nothing cached or served.
            with faults.injected(
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


def _connection(service) -> http.client.HTTPConnection:
    host, port = service.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=30)


class TestTransport:
    def test_accepted_sockets_have_tcp_nodelay(self, service, monkeypatch):
        nodelay = []
        setup = ServiceHandler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(ServiceHandler, "setup", recording_setup)
        _get(service.url, "/health/live")
        assert len(nodelay) == 1 and nodelay[0] != 0

    @pytest.mark.parametrize(
        "path, headers, status",
        [
            ("/v1/optimize", {}, 404),
            ("/health", {}, 404),
            ("/v1/compare", {"Content-Length": str(MAX_BODY_BYTES + 1)}, 413),
        ],
    )
    def test_error_does_not_desync_a_kept_alive_connection(
        self, service, path, headers, status
    ):
        # Regression: these errors left the request body unread on a
        # kept-alive connection, so the next request line was parsed from it
        # and answered with the stdlib's HTML 400 page.
        connection = _connection(service)
        try:
            body = json.dumps(TINY_COMPARE).encode("utf-8")
            connection.request("POST", path, body=body, headers=headers)
            response = connection.getresponse()
            assert response.status == status
            assert json.loads(response.read())["error"]["status"] == status
            connection.request("GET", "/health/live")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "live"}
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "method, headers, status",
        [
            ("PUT", {}, 501),
            ("GET", {f"X-Filler-{index}": "1" for index in range(101)}, 431),
        ],
    )
    def test_protocol_errors_are_json_envelopes(self, service, method, headers, status):
        connection = _connection(service)
        try:
            connection.request(method, "/v1/jobs", headers=headers)
            response = connection.getresponse()
            assert response.status == status
            assert response.getheader("Content-Type") == "application/json"
            assert json.loads(response.read())["error"]["status"] == status
        finally:
            connection.close()


class TestLongPoll:
    def test_wait_returns_the_finished_job(self, service):
        from repro import faults

        with faults.injected({"job.start": {"kind": "slow", "seconds": 0.5}}):
            _, submitted = _post(service.url, "/v1/compare", TINY_COMPARE)
            status, document = _get(
                service.url, f"/v1/jobs/{submitted['job']['id']}?wait=30"
            )
        assert status == 200
        assert document["state"] == "done"
        assert document["result"]["cells"][0]["ok"] is True

    def test_short_wait_returns_the_unfinished_document(self, service):
        from repro import faults

        with faults.injected({"job.start": {"kind": "slow", "seconds": 1.0}}):
            _, submitted = _post(service.url, "/v1/compare", TINY_COMPARE)
            job_id = submitted["job"]["id"]
            status, document = _get(service.url, f"/v1/jobs/{job_id}?wait=0.05")
            assert status == 200
            assert document["state"] in ("queued", "running")
            assert document["result"] is None
            _, final = _get(service.url, f"/v1/jobs/{job_id}?wait=30")
        assert final["state"] == "done"

    @pytest.mark.parametrize("wait", ["abc", "-1", "nan", "inf"])
    def test_invalid_wait_is_a_400(self, service, wait):
        _, submitted = _post(service.url, "/v1/compare", TINY_COMPARE)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(service.url, f"/v1/jobs/{submitted['job']['id']}?wait={wait}")
        assert excinfo.value.code == 400
        assert "'wait'" in json.loads(excinfo.value.read())["error"]["message"]

    def test_wait_on_an_unknown_job_is_a_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(service.url, "/v1/jobs/compare-doesnotexist?wait=5")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]["type"] == "NotFound"

    def test_pending_long_poll_does_not_delay_stop(self):
        from repro import faults

        service = create_service(port=0, cache_dir=None, workers=1)
        service.serve_in_thread()
        # The slow fault holds the job in its job process for the whole test.
        with faults.injected({"job.run": {"kind": "slow", "seconds": 3.0}}):
            _, submitted = _post(service.url, "/v1/compare", TINY_COMPARE)
            path = f"/v1/jobs/{submitted['job']['id']}?wait=30"
            requests = obs_metrics.counter("service.http.requests")
            handled = requests.value
            answers = []
            poller = threading.Thread(
                target=lambda: answers.append(_get(service.url, path))
            )
            poller.start()
            try:
                import time as _time
                deadline = _time.monotonic() + 10
                while requests.value == handled:  # the long-poll reached its handler
                    assert _time.monotonic() < deadline
                    _time.sleep(0.01)
                service.stop(drain=False)
                assert poller.is_alive(), "stop() must not wait for the long-poll"
            finally:
                poller.join(timeout=30)
        assert not poller.is_alive()
        status, document = answers[0]
        assert status == 200 and document["state"] == "done"


class TestJobProcesses:
    """Jobs run in one persistent job process per worker (``job.run`` site)."""

    RECOMMEND = {"workload": "telemetry:small", "algorithms": ["navathe"]}
    VALIDATE = {"workload": "telemetry:small", "backend": "measured", "rows": 2000}

    def test_job_process_crash_fails_the_job_and_a_resubmission_runs(self):
        from repro import faults

        service = create_service(port=0, cache_dir=None, workers=1)
        service.serve_in_thread()
        try:
            with faults.injected({"job.run": {"kind": "die", "times": 1}}):
                _, submitted = _post(service.url, "/v1/recommend", self.RECOMMEND)
                job_id = submitted["job"]["id"]
                _, crashed = _get(service.url, f"/v1/jobs/{job_id}?wait=30")
                assert crashed["state"] == "failed"
                assert crashed["error"]["type"] == "WorkerCrash"
                assert "exit code 86" in crashed["error"]["message"]
                assert service.registry.get(job_id).consecutive_failures == 1
                # times: 1 is counted by the service, so the fresh job process
                # that takes the resubmission runs it.
                _, retried = _post(service.url, "/v1/recommend", self.RECOMMEND)
                assert retried["deduped"] is False
                _, final = _get(service.url, f"/v1/jobs/{job_id}?wait=30")
            assert final["state"] == "done"
            assert final["result"]["best"]["algorithm"] == "navathe"
        finally:
            service.stop()

    @pytest.mark.parametrize("kind", ["recommend", "validate"])
    def test_delete_kills_a_running_job_at_once(self, kind):
        import time as _time
        from repro import faults

        body = self.RECOMMEND if kind == "recommend" else self.VALIDATE
        service = create_service(port=0, cache_dir=None, workers=1)
        service.serve_in_thread()
        try:
            with faults.injected({"job.run": {"kind": "slow", "seconds": 30, "times": 1}}):
                _, submitted = _post(service.url, f"/v1/{kind}", body)
                job_id = submitted["job"]["id"]
                deadline = _time.monotonic() + 10
                while service.registry.get(job_id).state != "running":
                    assert _time.monotonic() < deadline
                    _time.sleep(0.01)
                started = _time.monotonic()
                status, document = _delete(service.url, f"/v1/jobs/{job_id}")
                assert status == 202 and document["cancelled"] is True
                _, final = _get(service.url, f"/v1/jobs/{job_id}?wait=10")
                assert final["state"] == "cancelled"
                assert _time.monotonic() - started < 1.0
                assert final["result"] is None
                # The worker is free: the next job runs on a fresh process.
                _, following = _post(
                    service.url, "/v1/recommend", {**self.RECOMMEND, "cost_model": "mainmemory"}
                )
                _, done = _get(service.url, f"/v1/jobs/{following['job']['id']}?wait=30")
            assert done["state"] == "done"
        finally:
            service.stop()

    def test_timeout_kills_the_held_job_and_frees_its_worker(self):
        import time as _time
        from repro import faults

        service = create_service(port=0, cache_dir=None, workers=1, job_timeout=1.0)
        service.serve_in_thread()
        try:
            with faults.injected({"job.run": {"kind": "slow", "seconds": 30, "times": 1}}):
                started = _time.monotonic()
                _, held = _post(service.url, "/v1/recommend", self.RECOMMEND)
                _, second = _post(
                    service.url, "/v1/recommend", {**self.RECOMMEND, "cost_model": "mainmemory"}
                )
                _, timed_out = _get(service.url, f"/v1/jobs/{held['job']['id']}?wait=30")
                _, done = _get(service.url, f"/v1/jobs/{second['job']['id']}?wait=30")
                finished = _time.monotonic() - started
            assert timed_out["state"] == "failed"
            assert timed_out["error"]["type"] == "JobTimeout"
            assert done["state"] == "done"
            assert finished < 15.0  # the held job's fault sleeps for 30 s
        finally:
            service.stop()

    def test_compare_job_with_grid_workers_runs(self, service):
        # A job process is not daemonic, so its grid runs may start workers.
        _, submitted = _post(service.url, "/v1/compare", {"grid": "tiny", "workers": 2})
        _, final = _get(service.url, f"/v1/jobs/{submitted['job']['id']}?wait=30")
        assert final["state"] == "done", final["error"]
        assert all(cell["ok"] for cell in final["result"]["cells"])

    def test_job_process_metrics_reach_the_service_registry(self, service):
        baseline = obs_metrics.registry().snapshot()
        _, submitted = _post(
            service.url, "/v1/recommend", {**self.RECOMMEND, "algorithms": ["hillclimb"]}
        )
        _, final = _get(service.url, f"/v1/jobs/{submitted['job']['id']}?wait=30")
        assert final["state"] == "done"
        counters = obs_metrics.registry().delta(baseline)["counters"]
        assert counters.get("cost.evaluator.memo.hits", 0) > 0
        assert counters.get("cost.evaluator.memo.misses", 0) > 0

    def test_concurrent_jobs_merge_every_count(self):
        # More job processes than cores and a short switch interval: the
        # counts the jobs' processes send back must still add up exactly.
        import sys

        bodies = [
            {
                "algorithms": algorithms,
                "workloads": ["telemetry:small"],
                "cost_models": [cost_model],
            }
            for algorithms in (["navathe"], ["hillclimb"], ["navathe", "hillclimb"])
            for cost_model in ("hdd", "hdd:small-buffer", "mainmemory")
        ]
        service = create_service(port=0, cache_dir=None, workers=4)
        service.serve_in_thread()
        interval = sys.getswitchinterval()
        baseline = obs_metrics.registry().snapshot()
        sys.setswitchinterval(1e-5)
        try:
            ids = [_post(service.url, "/v1/compare", body)[1]["job"]["id"] for body in bodies]
            finals = [_get(service.url, f"/v1/jobs/{job_id}?wait=30")[1] for job_id in ids]
        finally:
            sys.setswitchinterval(interval)
            service.stop()
        assert [final["state"] for final in finals] == ["done"] * len(bodies)
        counters = obs_metrics.registry().delta(baseline)["counters"]
        assert counters["grid.cells.computed"] == sum(len(body["algorithms"]) for body in bodies)
