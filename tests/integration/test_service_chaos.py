"""Chaos tests: kill the advisor service mid-job, restart it, lose nothing.

These tests drive ``python -m repro.service`` as a real subprocess — the
same entry point operators use — and assert the PR-10 durability contract:

* SIGKILL mid-job + restart over the same cache dir converges to the same
  answers (content-hash-equal on the deterministic cell payload) with every
  accepted job reaching a terminal state;
* a saturated queue sheds submissions with 429 + ``Retry-After`` instead of
  melting down;
* injected journal I/O failures degrade durability, never availability.

Determinism comes from ``REPRO_FAULTS`` (``repro.faults``):
a ``slow`` fault at ``job.start`` holds jobs at a known checkpoint so kills
and saturation happen inside a guaranteed window, not a lucky race.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.grid.cache import canonical_json
from repro.faults import ENV_VAR as FAULTS_ENV_VAR, FaultPlan

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: Two cells (two algorithms), enough substance to survive a mid-run kill.
CHAOS_COMPARE = {
    "algorithms": ["hillclimb", "navathe"],
    "workloads": ["telemetry:small"],
    "cost_models": ["hdd"],
}


def _request(method, url, body=None, timeout=30):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), json.loads(response.read())


class ServiceProcess:
    """One ``python -m repro.service`` subprocess plus its parsed base URL."""

    def __init__(self, cache_dir, extra_args=(), faults=None):
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        env.pop(FAULTS_ENV_VAR, None)
        if faults:
            env[FAULTS_ENV_VAR] = FaultPlan.from_mapping(faults).to_json()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--cache-dir", str(cache_dir), *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        self.lines = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.url = self._await_url()

    def _drain(self):
        for line in self.process.stdout:
            self.lines.append(line.rstrip("\n"))

    def _await_url(self, timeout=30):
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"listening on (http://\S+)")
        while time.monotonic() < deadline:
            for line in list(self.lines):
                match = pattern.search(line)
                if match:
                    return match.group(1)
            if self.process.poll() is not None:
                raise RuntimeError(
                    "service exited before binding:\n" + "\n".join(self.lines)
                )
            time.sleep(0.02)
        raise TimeoutError(
            "service never printed its URL:\n" + "\n".join(self.lines)
        )

    def printed(self, text, timeout=10):
        """Whether a stdout line containing ``text`` arrives within ``timeout``.

        The startup banner is read line by line on another thread and the
        URL line comes first, so later banner lines may not be read yet when
        the URL is.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(text in line for line in list(self.lines)):
                return True
            time.sleep(0.02)
        return False

    def submit(self, kind, body):
        return _request("POST", f"{self.url}/v1/{kind}", body)

    def job(self, job_id):
        return _request("GET", f"{self.url}/v1/jobs/{job_id}")[2]

    def wait_state(self, job_id, states, timeout=60):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            document = self.job(job_id)
            if document["state"] in states:
                return document
            time.sleep(0.05)
        raise TimeoutError(
            f"job {job_id} never reached {states} "
            f"(last state {document['state']!r})"
        )

    def kill(self):
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)


def _deterministic_cells(result):
    """The run-independent portion of a compare result, canonically encoded.

    Cache hit counts, attempts and wall timings legitimately differ between
    an interrupted-and-recovered run and a clean one; the *answers* — which
    layout each algorithm chose and what it costs — must not.
    """
    return canonical_json(
        [
            {
                "label": cell["label"],
                "key": cell["key"],
                "ok": cell["ok"],
                "estimated_cost": cell.get("estimated_cost"),
                "layout": cell.get("layout"),
            }
            for cell in sorted(result["cells"], key=lambda cell: cell["label"])
        ]
    )


class TestKillAndRecover:
    def test_sigkill_mid_job_restart_converges_to_same_answers(self, tmp_path):
        cache_dir = tmp_path / "cache"

        # Reference: the same spec on an untouched service and cache.
        reference = ServiceProcess(tmp_path / "reference-cache")
        try:
            _, _, submitted = reference.submit("compare", CHAOS_COMPARE)
            final = reference.wait_state(
                submitted["job"]["id"], ("done",), timeout=120
            )
            expected = _deterministic_cells(final["result"])
        finally:
            reference.stop()

        # Chaos run: the slow fault holds the job mid-run for 3 seconds —
        # a guaranteed window in which the SIGKILL lands.
        victim = ServiceProcess(
            cache_dir,
            faults={"job.start": {"kind": "slow", "seconds": 3.0}},
        )
        _, _, submitted = victim.submit("compare", CHAOS_COMPARE)
        job_id = submitted["job"]["id"]
        victim.wait_state(job_id, ("running",), timeout=30)
        victim.kill()  # SIGKILL: no drain, no journal goodbye

        # Restart over the same cache dir, no faults: the journal replays,
        # the interrupted job is re-enqueued and runs to completion.
        revived = ServiceProcess(cache_dir)
        try:
            assert revived.printed("recovered")
            final = revived.wait_state(job_id, ("done",), timeout=120)
            assert _deterministic_cells(final["result"]) == expected
            # Every job the killed process accepted is terminal again.
            _, _, listing = _request("GET", f"{revived.url}/v1/jobs")
            assert listing["total"] == 1
            assert all(
                job["state"] in ("done", "failed", "cancelled")
                for job in listing["jobs"]
            )
            _, _, health = _request("GET", f"{revived.url}/health")
            assert health["recovered_jobs"] == 1
            assert health["journal"] is not None
        finally:
            revived.stop()

    def test_sigkill_with_queued_jobs_recovers_all_of_them(self, tmp_path):
        cache_dir = tmp_path / "cache"
        victim = ServiceProcess(
            cache_dir,
            extra_args=("--workers", "1"),
            faults={"job.start": {"kind": "slow", "seconds": 3.0}},
        )
        _, _, first = victim.submit("compare", CHAOS_COMPARE)
        _, _, second = victim.submit(
            "compare", {**CHAOS_COMPARE, "cost_models": ["mainmemory"]}
        )
        victim.wait_state(first["job"]["id"], ("running",), timeout=30)
        victim.kill()

        revived = ServiceProcess(cache_dir)
        try:
            for document in (first, second):
                final = revived.wait_state(
                    document["job"]["id"], ("done",), timeout=120
                )
                assert final["result"]["cells"], final
            _, _, health = _request("GET", f"{revived.url}/health")
            assert health["recovered_jobs"] == 2
        finally:
            revived.stop()


class TestOverloadShedding:
    def test_full_queue_sheds_429_with_retry_after(self, tmp_path):
        service = ServiceProcess(
            tmp_path / "cache",
            extra_args=("--workers", "1", "--max-queue-depth", "1"),
            faults={"job.start": {"kind": "slow", "seconds": 2.0}},
        )
        try:
            service.submit("compare", CHAOS_COMPARE)
            service.submit(
                "compare", {**CHAOS_COMPARE, "cost_models": ["mainmemory"]}
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                service.submit(
                    "compare", {**CHAOS_COMPARE, "algorithms": ["hillclimb"]}
                )
            assert excinfo.value.code == 429
            retry_after = excinfo.value.headers["Retry-After"]
            assert retry_after is not None and int(retry_after) >= 1
            envelope = json.loads(excinfo.value.read())
            assert envelope["error"]["type"] == "TooManyRequests"
            assert envelope["error"]["retry_after"] == int(retry_after)
            # Saturation flips readiness but not liveness.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _request("GET", f"{service.url}/health/ready")
            assert excinfo.value.code == 503
            status, _, _ = _request("GET", f"{service.url}/health/live")
            assert status == 200
        finally:
            service.stop()


class TestJournalDegradation:
    def test_journal_faults_degrade_durability_not_availability(self, tmp_path):
        service = ServiceProcess(
            tmp_path / "cache",
            faults={"journal.append": {"kind": "raise", "times": 2}},
        )
        try:
            _, _, submitted = service.submit("compare", CHAOS_COMPARE)
            final = service.wait_state(
                submitted["job"]["id"], ("done",), timeout=120
            )
            assert final["result"]["cells"]
            _, _, health = _request("GET", f"{service.url}/health")
            assert health["journal"]["append_failures"] >= 1
            assert health["journal"]["appends"] >= 1  # later appends landed
        finally:
            service.stop()

    def test_worker_death_fault_fails_job_but_service_survives(self, tmp_path):
        service = ServiceProcess(
            tmp_path / "cache",
            extra_args=("--workers", "1"),
            faults={"job.start": {"kind": "die", "times": 1}},
        )
        try:
            _, _, submitted = service.submit("compare", CHAOS_COMPARE)
            final = service.wait_state(
                submitted["job"]["id"], ("failed",), timeout=60
            )
            assert final["error"]["type"] == "WorkerThreadDeath"
            # The respawned worker runs the retry to completion.
            _, _, retried = service.submit("compare", CHAOS_COMPARE)
            assert retried["deduped"] is False
            final = service.wait_state(
                submitted["job"]["id"], ("done",), timeout=120
            )
            assert final["result"]["cells"]
        finally:
            service.stop()
