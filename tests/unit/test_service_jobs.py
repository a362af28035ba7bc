"""Unit tests for the service job layer: normalisation, dedup, scheduling."""

import queue
import random
import threading
import time

import pytest

import repro.service.jobs as jobs_module
from repro import faults
from repro.obs import metrics as obs_metrics
from repro.service.jobs import (
    JOB_KINDS,
    JOB_STATES,
    Job,
    JobCancelled,
    JobRegistry,
    ServiceError,
    job_id_for,
    normalize_request,
)
from repro.service.journal import JobJournal, snapshot_record


class TestNormalizeRequest:
    def test_compare_from_builtin_grid_resolves_axes(self):
        normalized = normalize_request("compare", {"grid": "tiny"})
        spec = normalized["spec"]
        assert spec["algorithms"] == ["hillclimb", "navathe"]
        assert spec["workloads"] == ["tpch:partsupp@0.1", "telemetry:small"]
        assert spec["cost_models"] == ["hdd"]
        assert normalized["run"]["workers"] == 1
        assert normalized["run"]["refresh"] is False

    def test_compare_grid_overrides_apply(self):
        normalized = normalize_request(
            "compare",
            {"grid": "tiny", "algorithms": ["hillclimb"], "workers": 4},
        )
        assert normalized["spec"]["algorithms"] == ["hillclimb"]
        assert normalized["run"]["workers"] == 4

    def test_compare_explicit_axes(self):
        normalized = normalize_request(
            "compare",
            {
                "algorithms": ["hillclimb"],
                "workloads": ["telemetry:small"],
                "cost_models": ["hdd", "mainmemory"],
                "retries": 2,
                "cell_timeout": 30,
            },
        )
        assert normalized["spec"]["cost_models"] == ["hdd", "mainmemory"]
        assert normalized["run"]["retries"] == 2
        assert normalized["run"]["cell_timeout"] == 30.0

    @pytest.mark.parametrize(
        "body",
        [
            [],  # not an object
            {},  # neither grid nor axes
            {"workloads": ["telemetry:small"]},  # incomplete axes
            {"grid": "no-such-grid"},
            {"grid": "tiny", "algorithms": ["nope"]},
            {"grid": "tiny", "workloads": ["nope:x"]},
            {"grid": "tiny", "cost_models": ["nope"]},
            {"grid": "tiny", "algorithms": "hillclimb"},  # not a list
            {"grid": "tiny", "workers": 0},
            {"grid": "tiny", "retries": -1},
            {"grid": "tiny", "cell_timeout": 0},
            {"grid": "tiny", "cell_timeout": "fast"},
            {"grid": "tiny", "measurement": [1, 2]},
            {"grid": "tiny", "backend": "warp-drive"},
        ],
    )
    def test_compare_rejects_bad_bodies_with_400(self, body):
        with pytest.raises(ServiceError) as excinfo:
            normalize_request("compare", body)
        assert excinfo.value.status == 400

    def test_recommend_defaults_and_validation(self):
        normalized = normalize_request(
            "recommend", {"workload": "telemetry:small"}
        )
        assert normalized["cost_model"] == "hdd"
        assert "hillclimb" in normalized["algorithms"]
        with pytest.raises(ServiceError):
            normalize_request("recommend", {"workload": "nope:x"})
        with pytest.raises(ServiceError):
            normalize_request(
                "recommend", {"workload": "telemetry:small", "algorithms": ["nope"]}
            )

    def test_validate_backend_rules(self):
        normalized = normalize_request(
            "validate", {"workload": "telemetry:small", "rows": 2000}
        )
        assert normalized["backend"] == "measured"
        assert normalized["rows"] == 2000
        # The main-memory model has no measured counterpart: reject at
        # submission, not as a failed job later.
        with pytest.raises(ServiceError) as excinfo:
            normalize_request(
                "validate",
                {"workload": "telemetry:small", "cost_model": "mainmemory"},
            )
        assert excinfo.value.status == 400
        # ... but it validates fine on the sqlite backend (ranking only).
        normalized = normalize_request(
            "validate",
            {
                "workload": "telemetry:small",
                "cost_model": "mainmemory",
                "backend": "sqlite",
            },
        )
        assert normalized["backend"] == "sqlite"
        with pytest.raises(ServiceError):
            normalize_request(
                "validate",
                {"workload": "telemetry:small", "page_size": 4096},
            )  # page_size is sqlite-only

    @pytest.mark.parametrize("page_size", [1000, 256, 131072])
    def test_validate_rejects_invalid_sqlite_page_size(self, page_size):
        # The backend's page-size check runs at submission: an invalid size
        # is a 400, never a job that fails after running every algorithm.
        with pytest.raises(ServiceError) as excinfo:
            normalize_request(
                "validate",
                {"workload": "telemetry:small", "backend": "sqlite",
                 "page_size": page_size},
            )
        assert excinfo.value.status == 400
        assert "page_size" in str(excinfo.value)
        normalized = normalize_request(
            "validate",
            {"workload": "telemetry:small", "backend": "sqlite", "page_size": 8192},
        )
        assert normalized["page_size"] == 8192

    def test_unknown_kind_is_404(self):
        with pytest.raises(ServiceError) as excinfo:
            normalize_request("optimize", {})
        assert excinfo.value.status == 404

    def test_error_envelope_shape(self):
        error = ServiceError(400, "boom")
        assert error.to_envelope() == {
            "error": {"status": 400, "type": "BadRequest", "message": "boom"}
        }


class TestJobIdentity:
    def test_equivalent_submissions_share_one_id(self):
        via_grid = normalize_request(
            "compare",
            {"grid": "tiny", "algorithms": ["hillclimb"],
             "workloads": ["telemetry:small"], "cost_models": ["hdd"]},
        )
        explicit = normalize_request(
            "compare",
            {"algorithms": ["hillclimb"], "workloads": ["telemetry:small"],
             "cost_models": ["hdd"]},
        )
        assert job_id_for("compare", via_grid) == job_id_for("compare", explicit)

    def test_workers_do_not_change_identity(self):
        one = normalize_request("compare", {"grid": "tiny", "workers": 1})
        four = normalize_request("compare", {"grid": "tiny", "workers": 4})
        assert job_id_for("compare", one) == job_id_for("compare", four)

    def test_refresh_and_axes_do_change_identity(self):
        base = normalize_request("compare", {"grid": "tiny"})
        for variation in (
            {"grid": "tiny", "refresh": True},
            {"grid": "tiny", "algorithms": ["hillclimb"]},
            {"grid": "small"},
        ):
            other = normalize_request("compare", variation)
            assert job_id_for("compare", other) != job_id_for("compare", base)

    def test_kind_prefixes_the_id(self):
        normalized = normalize_request("recommend", {"workload": "telemetry:small"})
        assert job_id_for("recommend", normalized).startswith("recommend-")


class TestJobRegistry:
    def _registry(self, runner, workers=2):
        return JobRegistry(runner=runner, workers=workers)

    def test_submit_runs_and_completes(self):
        registry = self._registry(lambda job: {"ok": True, "kind": job.kind})
        try:
            job, deduped = registry.submit("compare", {"grid": "tiny"})
            assert not deduped
            finished = registry.wait_for(job.id, timeout=10)
            assert finished.state == "done"
            assert finished.result == {"ok": True, "kind": "compare"}
            assert finished.wall_seconds is not None
        finally:
            registry.shutdown()

    def test_duplicate_submission_dedups_onto_one_job(self):
        calls = []

        def runner(job):
            calls.append(job.id)
            return {"n": len(calls)}

        registry = self._registry(runner)
        try:
            before = obs_metrics.registry().snapshot()
            first, deduped_first = registry.submit("compare", {"grid": "tiny"})
            registry.wait_for(first.id, timeout=10)
            second, deduped_second = registry.submit(
                "compare", {"grid": "tiny", "workers": 8}
            )
            assert second is first
            assert not deduped_first and deduped_second
            assert first.submissions == 2
            assert calls == [first.id]  # one computation, two submissions
            delta = obs_metrics.registry().delta(before)
            assert delta["counters"].get("service.jobs.submitted") == 1
            assert delta["counters"].get("service.jobs.deduped") == 1
        finally:
            registry.shutdown()

    def test_failed_job_is_reset_and_retried_on_resubmission(self):
        attempts = []

        def runner(job):
            attempts.append(job.id)
            if len(attempts) == 1:
                raise RuntimeError("transient blowup")
            return {"attempt": len(attempts)}

        registry = self._registry(runner)
        try:
            job, _ = registry.submit("compare", {"grid": "tiny"})
            failed = registry.wait_for(job.id, timeout=10)
            assert failed.state == "failed"
            assert failed.error == {
                "type": "RuntimeError",
                "message": "transient blowup",
            }
            retried, deduped = registry.submit("compare", {"grid": "tiny"})
            assert retried is job and not deduped
            done = registry.wait_for(job.id, timeout=10)
            assert done.state == "done"
            assert done.result == {"attempt": 2}
            assert done.error is None
            assert done.submissions == 2
        finally:
            registry.shutdown()

    def test_concurrent_identical_submissions_yield_one_computation(self):
        release = threading.Event()
        calls = []

        def runner(job):
            calls.append(job.id)
            release.wait(10)
            return {"done": True}

        registry = self._registry(runner)
        try:
            outcomes = []

            def submit():
                outcomes.append(registry.submit("compare", {"grid": "tiny"}))

            threads = [threading.Thread(target=submit) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            release.set()
            ids = {job.id for job, _ in outcomes}
            assert len(ids) == 1
            # Exactly one submission was the first; the rest deduped.
            assert sum(1 for _, deduped in outcomes if not deduped) == 1
            registry.wait_for(ids.pop(), timeout=10)
            assert calls and len(calls) == 1
        finally:
            registry.shutdown()

    def test_listing_and_counts(self):
        registry = self._registry(lambda job: {})
        try:
            first, _ = registry.submit("compare", {"grid": "tiny"})
            second, _ = registry.submit("recommend", {"workload": "telemetry:small"})
            registry.wait_for(first.id, timeout=10)
            registry.wait_for(second.id, timeout=10)
            page, total = registry.jobs(offset=0, limit=1)
            assert total == 2 and [job.id for job in page] == [first.id]
            page, _ = registry.jobs(offset=1, limit=10)
            assert [job.id for job in page] == [second.id]
            counts = registry.counts()
            assert counts["done"] == 2
            assert set(counts) == set(JOB_STATES)
        finally:
            registry.shutdown()

    def test_shutdown_drains_queued_jobs_then_rejects(self):
        started = threading.Event()

        def runner(job):
            started.set()
            time.sleep(0.05)
            return {"drained": True}

        registry = self._registry(runner, workers=1)
        jobs = [
            registry.submit("compare", {"grid": "tiny", "retries": n})[0]
            for n in range(4)
        ]
        started.wait(5)
        registry.shutdown(wait=True)
        # Every queued job finished before the workers exited.
        assert all(job.state == "done" for job in jobs)
        with pytest.raises(ServiceError) as excinfo:
            registry.submit("compare", {"grid": "tiny"})
        assert excinfo.value.status == 503

    def test_wait_for_unknown_and_timeout(self):
        block = threading.Event()
        registry = self._registry(lambda job: block.wait(10) and {} or {})
        try:
            with pytest.raises(KeyError):
                registry.wait_for("compare-i-do-not-exist", timeout=0.1)
            job, _ = registry.submit("compare", {"grid": "tiny"})
            with pytest.raises(TimeoutError):
                registry.wait_for(job.id, timeout=0.1)
            block.set()
            assert registry.wait_for(job.id, timeout=10).state == "done"
        finally:
            registry.shutdown()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            JobRegistry(runner=lambda job: {}, workers=0)

    def test_job_to_dict_shape(self):
        job = Job(id="compare-abc", kind="compare", request={"spec": {}})
        record = job.to_dict()
        assert record["id"] == "compare-abc"
        assert record["state"] == "queued"
        assert record["result"] is None
        listing = job.to_dict(include_result=False)
        assert "result" not in listing

    def test_job_kinds_are_the_public_api(self):
        assert JOB_KINDS == ("recommend", "compare", "validate")

    @pytest.mark.parametrize(
        ("offset", "limit"),
        [(-1, 10), (0, 0), (0, -5), (True, 10), (0, True), ("3", 10), (0, "9")],
    )
    def test_paging_rejects_invalid_values_with_400(self, offset, limit):
        registry = self._registry(lambda job: {})
        try:
            with pytest.raises(ServiceError) as excinfo:
                registry.jobs(offset=offset, limit=limit)
            assert excinfo.value.status == 400
        finally:
            registry.shutdown()


class TestRegistryRobustness:
    """Backpressure, timeouts, cancellation, the breaker, finalisation."""

    def test_generation_guard_discards_stale_finalisation(self):
        release = threading.Event()
        registry = JobRegistry(
            runner=lambda job: release.wait(10) and {"ok": True} or {"ok": True}
        )
        try:
            before = obs_metrics.registry().snapshot()
            job, _ = registry.submit("compare", {"grid": "tiny"})
            while job.state != "running":
                time.sleep(0.005)
            # Simulate the race: a stale worker (older generation) finalising
            # after the registry moved the job on.
            registry._finalize(job, job.generation - 1, "done", {"stale": 1}, None)
            assert job.state == "running"  # the stale outcome did not land
            assert job.result is None
            delta = obs_metrics.registry().delta(before)["counters"]
            assert delta.get("service.jobs.discarded") == 1
            release.set()
            assert registry.wait_for(job.id, timeout=10).result == {"ok": True}
        finally:
            release.set()
            registry.shutdown()

    def test_requeue_race_newer_run_wins(self):
        """A job requeued while an old run is still in flight: the old run's
        outcome must be discarded, the requeued run's outcome kept."""
        gate = threading.Event()
        runs = []

        def runner(job):
            runs.append(len(runs))
            if len(runs) == 1:
                gate.wait(10)  # the first (stale-to-be) run hangs here
                return {"run": 1}
            return {"run": 2}

        registry = JobRegistry(runner=runner, workers=2)
        try:
            job, _ = registry.submit("compare", {"grid": "tiny"})
            while job.state != "running":
                time.sleep(0.005)
            # Take the job away exactly like the watchdog does, then requeue
            # it via the public resubmission path.
            with registry._changed:
                job.generation += 1
                job.state = "failed"
                job.error = {"type": "JobTimeout", "message": "forced"}
                job.finished_at = time.time()
            retried, deduped = registry.submit("compare", {"grid": "tiny"})
            assert retried is job and not deduped
            done = registry.wait_for(job.id, timeout=10)
            gate.set()  # release the stale run *after* the new one finished
            time.sleep(0.05)  # give the stale finalisation a chance to race
            assert done.state == "done"
            assert done.result == {"run": 2}
        finally:
            gate.set()
            registry.shutdown()

    def test_worker_survives_base_exception_and_respawns(self, monkeypatch):
        # The dying worker's exception is expected: record it instead of
        # letting it reach the default hook, and join the thread before the
        # hook is restored so the death cannot land on a later test.
        deaths = []
        monkeypatch.setattr(threading, "excepthook", deaths.append)
        registry = JobRegistry(runner=lambda job: {"ok": True}, workers=1)
        dying = registry._threads[0]
        try:
            plan = {"job.start": {"kind": "die", "times": 1}}
            with faults.injected(plan):
                job, _ = registry.submit("compare", {"grid": "tiny"})
                failed = registry.wait_for(job.id, timeout=10)
                assert failed.state == "failed"
                assert failed.error["type"] == "WorkerThreadDeath"
                dying.join(10)
                assert not dying.is_alive()
                assert [death.exc_type for death in deaths] == [
                    faults.WorkerThreadDeath
                ]
                # The worker thread died, but the next submission respawns it
                # and the new job completes.
                second, _ = registry.submit("recommend",
                                            {"workload": "telemetry:small"})
                assert registry.wait_for(second.id, timeout=10).state == "done"
        finally:
            registry.shutdown()

    def test_backpressure_sheds_with_retry_after(self):
        release = threading.Event()
        registry = JobRegistry(
            runner=lambda job: release.wait(10) and {} or {},
            workers=1,
            max_queue_depth=1,
        )
        try:
            first, _ = registry.submit("compare", {"grid": "tiny"})
            while first.state != "running":
                time.sleep(0.005)
            registry.submit("compare", {"grid": "tiny", "retries": 1})  # queued
            before = obs_metrics.registry().snapshot()
            with pytest.raises(ServiceError) as excinfo:
                registry.submit("compare", {"grid": "tiny", "retries": 2})
            error = excinfo.value
            assert error.status == 429
            assert error.error_type == "TooManyRequests"
            assert error.retry_after >= 1
            assert error.to_envelope()["error"]["retry_after"] == error.retry_after
            delta = obs_metrics.registry().delta(before)["counters"]
            assert delta.get("service.shed") == 1
            assert registry.saturated
        finally:
            release.set()
            registry.shutdown()

    def test_job_timeout_force_fails_and_discards_late_result(self):
        def runner(job):
            time.sleep(0.4)
            return {"late": True}

        registry = JobRegistry(runner=runner, workers=1, job_timeout=0.1)
        try:
            before = obs_metrics.registry().snapshot()
            job, _ = registry.submit("compare", {"grid": "tiny"})
            failed = registry.wait_for(job.id, timeout=10)
            assert failed.state == "failed"
            assert failed.error["type"] == "JobTimeout"
            assert job.cancel_event.is_set()
            # Wait out the runner: its late result must not overwrite.
            time.sleep(0.5)
            assert job.state == "failed"
            assert job.result is None
            delta = obs_metrics.registry().delta(before)["counters"]
            assert delta.get("service.jobs.timeouts") == 1
            assert delta.get("service.jobs.discarded") == 1
        finally:
            registry.shutdown()

    def test_cancel_queued_job_immediately(self):
        release = threading.Event()
        ran = []

        def runner(job):
            ran.append(job.id)
            release.wait(10)
            return {}

        registry = JobRegistry(runner=runner, workers=1)
        try:
            first, _ = registry.submit("compare", {"grid": "tiny"})
            while first.state != "running":
                time.sleep(0.005)
            queued, _ = registry.submit("compare", {"grid": "tiny", "retries": 1})
            cancelled_job, accepted = registry.cancel(queued.id)
            assert accepted and cancelled_job.state == "cancelled"
            release.set()
            registry.wait_for(first.id, timeout=10)
            registry.shutdown(wait=True)
            assert queued.state == "cancelled"
            assert ran == [first.id]  # the cancelled job never ran
        finally:
            release.set()
            registry.shutdown()

    def test_cancel_running_job_cooperatively(self):
        def runner(job):
            # A cooperative executor: waits, then honours the cancel event.
            job.cancel_event.wait(10)
            raise JobCancelled(job.id)

        registry = JobRegistry(runner=runner, workers=1)
        try:
            job, _ = registry.submit("compare", {"grid": "tiny"})
            while job.state != "running":
                time.sleep(0.005)
            _, accepted = registry.cancel(job.id)
            assert accepted
            assert job.cancel_requested
            finished = registry.wait_for(job.id, timeout=10)
            assert finished.state == "cancelled"
            assert finished.result is None and finished.error is None
        finally:
            registry.shutdown()

    def test_cancelled_job_result_is_never_served_even_if_run_completes(self):
        def runner(job):
            job.cancel_event.wait(10)
            return {"secret": "must not escape"}  # ignores the cancel

        registry = JobRegistry(runner=runner, workers=1)
        try:
            job, _ = registry.submit("compare", {"grid": "tiny"})
            while job.state != "running":
                time.sleep(0.005)
            registry.cancel(job.id)
            finished = registry.wait_for(job.id, timeout=10)
            assert finished.state == "cancelled"
            assert finished.result is None
        finally:
            registry.shutdown()

    def test_cancelled_job_is_retryable_by_resubmission(self):
        first_run = threading.Event()

        def runner(job):
            if not first_run.is_set():
                first_run.set()
                job.cancel_event.wait(10)
                raise JobCancelled(job.id)
            return {"second": True}

        registry = JobRegistry(runner=runner, workers=1)
        try:
            job, _ = registry.submit("compare", {"grid": "tiny"})
            first_run.wait(5)
            registry.cancel(job.id)
            assert registry.wait_for(job.id, timeout=10).state == "cancelled"
            retried, deduped = registry.submit("compare", {"grid": "tiny"})
            assert retried is job and not deduped
            done = registry.wait_for(job.id, timeout=10)
            assert done.state == "done" and done.result == {"second": True}
        finally:
            registry.shutdown()

    def test_cancel_unknown_and_finished(self):
        registry = JobRegistry(runner=lambda job: {"ok": True})
        try:
            with pytest.raises(ServiceError) as excinfo:
                registry.cancel("compare-missing")
            assert excinfo.value.status == 404
            job, _ = registry.submit("compare", {"grid": "tiny"})
            registry.wait_for(job.id, timeout=10)
            same, accepted = registry.cancel(job.id)
            assert same is job and not accepted
            assert job.state == "done"  # a finished job is not disturbed
        finally:
            registry.shutdown()

    def test_circuit_breaker_quarantines_until_forced(self):
        calls = []

        def runner(job):
            calls.append(1)
            if len(calls) <= 2:
                raise RuntimeError(f"boom {len(calls)}")
            return {"recovered": True}

        registry = JobRegistry(runner=runner, workers=1, breaker_threshold=2)
        try:
            job, _ = registry.submit("compare", {"grid": "tiny"})
            assert registry.wait_for(job.id, timeout=10).state == "failed"
            registry.submit("compare", {"grid": "tiny"})
            assert registry.wait_for(job.id, timeout=10).state == "failed"
            assert job.consecutive_failures == 2
            # Tripped: plain resubmission is rejected ...
            with pytest.raises(ServiceError) as excinfo:
                registry.submit("compare", {"grid": "tiny"})
            assert excinfo.value.status == 409
            assert excinfo.value.error_type == "Quarantined"
            # ... but force punches through and resets the breaker.
            forced, deduped = registry.submit(
                "compare", {"grid": "tiny", "force": True}
            )
            assert forced is job and not deduped
            done = registry.wait_for(job.id, timeout=10)
            assert done.state == "done" and done.result == {"recovered": True}
            assert job.consecutive_failures == 0
        finally:
            registry.shutdown()

    def test_force_does_not_change_the_job_id(self):
        normalized = normalize_request("compare", {"grid": "tiny"})
        registry = JobRegistry(runner=lambda job: {})
        try:
            job, _ = registry.submit("compare", {"grid": "tiny", "force": True})
            assert job.id == job_id_for("compare", normalized)
        finally:
            registry.shutdown()

    def test_success_resets_consecutive_failures(self):
        outcomes = iter([RuntimeError("x"), {"ok": 1}])

        def runner(job):
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        registry = JobRegistry(runner=runner, workers=1)
        try:
            job, _ = registry.submit("compare", {"grid": "tiny"})
            registry.wait_for(job.id, timeout=10)
            assert job.consecutive_failures == 1
            registry.submit("compare", {"grid": "tiny"})
            done = registry.wait_for(job.id, timeout=10)
            assert done.state == "done"
            assert job.consecutive_failures == 0
        finally:
            registry.shutdown()

    def test_constructor_validation(self):
        for kwargs in (
            {"max_queue_depth": 0},
            {"job_timeout": 0},
            {"job_timeout": -1},
            {"breaker_threshold": 0},
        ):
            with pytest.raises(ValueError):
                JobRegistry(runner=lambda job: {}, **kwargs)


class TestRegistryDurability:
    """Journal integration: transitions recorded, restarts recovered."""

    def _journal(self, tmp_path):
        return JobJournal(str(tmp_path / "journal.jsonl"))

    def test_restart_restores_terminal_jobs_with_results(self, tmp_path):
        journal = self._journal(tmp_path)
        registry = JobRegistry(runner=lambda job: {"answer": 42}, journal=journal)
        job, _ = registry.submit("compare", {"grid": "tiny"})
        registry.wait_for(job.id, timeout=10)
        registry.shutdown()

        revived = JobRegistry(
            runner=lambda job: {"answer": 42},
            journal=self._journal(tmp_path),
        )
        try:
            restored = revived.get(job.id)
            assert restored is not None
            assert restored.state == "done"
            assert restored.result == {"answer": 42}
            # Resubmission dedups onto the restored job: no recomputation.
            same, deduped = revived.submit("compare", {"grid": "tiny"})
            assert same is restored and deduped
        finally:
            revived.shutdown()

    def test_quarantine_survives_a_restart_until_forced(self, tmp_path):
        def failing(job):
            raise RuntimeError("boom")

        registry = JobRegistry(
            runner=failing, workers=1, breaker_threshold=2,
            journal=self._journal(tmp_path),
        )
        job, _ = registry.submit("compare", {"grid": "tiny"})
        registry.wait_for(job.id, timeout=10)
        registry.submit("compare", {"grid": "tiny"})
        registry.wait_for(job.id, timeout=10)
        registry.shutdown()

        revived = JobRegistry(
            runner=lambda job: {"recovered": True}, workers=1,
            breaker_threshold=2, journal=self._journal(tmp_path),
        )
        try:
            assert revived.get(job.id).consecutive_failures == 2
            with pytest.raises(ServiceError) as excinfo:
                revived.submit("compare", {"grid": "tiny"})
            assert excinfo.value.status == 409
            forced, _ = revived.submit("compare", {"grid": "tiny", "force": True})
            assert revived.wait_for(forced.id, timeout=10).state == "done"
        finally:
            revived.shutdown()

        # A forced requeue replays as a reset breaker, even if the process
        # died before the forced run finished.
        journal = self._journal(tmp_path)
        journal.append("failed", job.id, error={"type": "E", "message": "m"})
        journal.append("requeued", job.id, force=True)
        assert journal.replay().jobs[job.id].consecutive_failures == 0
        journal.close()

    def test_restart_reenqueues_interrupted_jobs(self, tmp_path):
        # Simulate a crash: journal says submitted+running, no terminal event
        # (the process never got to write one).
        journal = self._journal(tmp_path)
        journal.append(
            "submitted", "compare-crashed", kind="compare",
            request={"grid": "tiny"},
        )
        journal.append("running", "compare-crashed")
        journal.close()

        registry = JobRegistry(
            runner=lambda job: {"rerun": True}, journal=self._journal(tmp_path)
        )
        try:
            assert registry.recovered == 1
            done = registry.wait_for("compare-crashed", timeout=10)
            assert done.state == "done"
            assert done.result == {"rerun": True}
        finally:
            registry.shutdown()

    def test_restart_after_torn_tail_still_recovers(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append(
            "submitted", "compare-x", kind="compare", request={"grid": "tiny"}
        )
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "runn')  # torn mid-crash

        registry = JobRegistry(
            runner=lambda job: {"ok": True}, journal=self._journal(tmp_path)
        )
        try:
            assert registry.wait_for("compare-x", timeout=10).state == "done"
        finally:
            registry.shutdown()

    def test_journal_failures_degrade_but_jobs_still_run(self, tmp_path):
        journal = self._journal(tmp_path)
        plan = {"journal.append": {"kind": "raise"}}
        with faults.injected(plan):
            with pytest.warns(RuntimeWarning, match="journal degraded"):
                registry = JobRegistry(
                    runner=lambda job: {"ok": True}, journal=journal
                )
                try:
                    job, _ = registry.submit("compare", {"grid": "tiny"})
                    done = registry.wait_for(job.id, timeout=10)
                    assert done.state == "done"
                    assert journal.append_failures > 0
                finally:
                    registry.shutdown()

    def test_recovery_compacts_the_journal(self, tmp_path):
        journal = self._journal(tmp_path)
        registry = JobRegistry(runner=lambda job: {"n": 1}, journal=journal)
        job, _ = registry.submit("compare", {"grid": "tiny"})
        registry.wait_for(job.id, timeout=10)
        registry.shutdown()

        revived = JobRegistry(
            runner=lambda job: {"n": 1}, journal=self._journal(tmp_path)
        )
        revived.shutdown()
        # After recovery the journal is one snapshot per job, not the full
        # transition history.
        with open(journal.path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 1
        assert '"event":"snapshot"' in lines[0]


class _Clock:
    """The jobs module's ``time``: a wall clock that ticks one microsecond per
    reading and otherwise moves only when the test moves it.

    Moving it by ``job_timeout`` makes the watchdog time out exactly the job
    running at that moment, and no job ever times out on its own.
    """

    monotonic = staticmethod(time.monotonic)

    def __init__(self):
        self.now = time.time()

    def time(self):
        self.now += 1e-6
        return self.now


class _GatedRunner:
    """Holds each run until the test releases it with an outcome."""

    def __init__(self):
        self.entered = queue.Queue()
        self.release = queue.Queue()

    def __call__(self, job):
        self.entered.put(job.id)
        outcome = self.release.get(timeout=30)
        if outcome == "fail":
            raise RuntimeError(f"{job.id} failed")
        return {"job": job.id}


class TestLiveMatchesReplay:
    """A restart serves the job documents the live registry served."""

    JOB_TIMEOUT = 0.05  # the watchdog checks every 10 ms

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sequences_replay_to_the_live_jobs(
        self, tmp_path, monkeypatch, seed
    ):
        rng = random.Random(seed)
        clock = _Clock()
        monkeypatch.setattr(jobs_module, "time", clock)
        runner = _GatedRunner()
        path = str(tmp_path / "journal.jsonl")
        # One worker: at most one job runs, so every queued job stays queued
        # until the test releases the running one.
        registry = JobRegistry(
            runner=runner, workers=1, job_timeout=self.JOB_TIMEOUT,
            breaker_threshold=2,
            journal=JobJournal(path, compact_every=rng.choice((3, 512))),
        )
        running = None  # the job the runner holds

        def settle():
            # After every step the worker either holds a job in the runner or
            # has nothing queued, so the next step sees a fixed state.
            nonlocal running
            counts = registry.counts()
            if running is None and (counts["queued"] or counts["running"]):
                running = runner.entered.get(timeout=10)

        def finish(outcome):
            nonlocal running
            runner.release.put(outcome)
            registry.wait_for(running, timeout=10)
            running = None

        try:
            for _ in range(50):
                step = rng.choice(
                    ("submit", "submit", "cancel", "finish", "fail", "timeout")
                )
                if step == "submit":
                    # Ids 0-3 repeat: dedup hits, retries of failed and
                    # cancelled jobs, quarantine, forced resubmissions.
                    body = {"grid": "tiny", "retries": rng.randrange(4)}
                    if rng.random() < 0.3:
                        body["force"] = True
                    if rng.random() < 0.3:
                        body["workers"] = 2  # same job id, other request
                    try:
                        registry.submit("compare", body)
                    except ServiceError as error:
                        assert error.status == 409  # quarantined
                elif step == "cancel":
                    jobs, total = registry.jobs(limit=10)
                    if total:
                        registry.cancel(rng.choice(jobs).id)
                elif running is None:
                    continue
                elif step == "timeout":
                    clock.now += self.JOB_TIMEOUT
                    timed_out = registry.wait_for(running, timeout=10)
                    assert timed_out.error["type"] == "JobTimeout"
                    finish("done")  # the late result is discarded
                else:
                    finish(step)
                settle()
            while running is not None:
                finish("done")
                settle()
        finally:
            for _ in range(50):  # unblock a run a failed assertion left held
                runner.release.put("done")
            registry.shutdown(timeout=10)

        live, total = registry.jobs(limit=100)
        assert total and all(job.finished for job in live)
        replayed = JobJournal(path).replay().jobs
        assert list(replayed) == [job.id for job in live]
        for job in live:
            assert snapshot_record(replayed[job.id]) == snapshot_record(job)
        revived = JobRegistry(runner=runner, workers=1, journal=JobJournal(path))
        try:
            assert revived.recovered == 0
            for job in live:
                assert revived.get(job.id).to_dict() == job.to_dict()
        finally:
            revived.shutdown()
