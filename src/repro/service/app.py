"""The HTTP layer: stdlib-only routes over the job registry.

The server is ``http.server.ThreadingHTTPServer`` — one thread per
connection, no framework, no new dependency.  Handler threads do only cheap
work (parse, validate, submit, look up); every computation runs on the
registry's worker threads, so a slow grid never blocks the accept loop.

Routes (``docs/SERVICE.md`` is the full reference):

======================  ======================================================
``POST /v1/recommend``  submit an advisor recommendation job
``POST /v1/compare``    submit a comparison-grid job (async by design)
``POST /v1/validate``   submit a cost-validation job
``GET /health``         liveness + job-state counts + uptime + durability
``GET /health/live``    bare liveness probe (200 while the process serves)
``GET /health/ready``   readiness probe (503 while draining or saturated)
``GET /v1/jobs``        paginated job listing (``offset`` / ``limit``)
``GET /v1/jobs/<id>``   one job, result included when finished;
                        ``?wait=S`` long-polls up to ``S`` seconds (capped at
                        :data:`MAX_WAIT_SECONDS`) for it to finish
``DELETE /v1/jobs/<id>``  cancel a job (queued: immediately; running:
                          cooperatively)
======================  ======================================================

Submissions answer ``202 Accepted`` with the job document and a ``poll``
path; a deduped resubmission of a finished job carries the result
immediately.  Every error — malformed JSON, invalid spec, unknown path or
method, oversized body, a full queue, a malformed request line — is a JSON
envelope ``{"error": {"status", "type", "message"}}`` with the matching
status code, sent with ``Connection: close``; 429 responses additionally
carry a ``Retry-After`` header (and ``retry_after`` envelope field) derived
from the observed job-duration histogram.

Construction switches :func:`~repro.cost.evaluator.enable_cache_sharing` on
so concurrent jobs share one memoized evaluator pool per schema (exactly
what grid pool workers do); :meth:`LayoutAdvisorService.stop` restores the
previous setting and drains in-flight jobs before closing the socket.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.cost.evaluator import clear_shared_caches, enable_cache_sharing
from repro.obs import metrics as obs_metrics
from repro.service.jobs import (
    DEFAULT_BREAKER_THRESHOLD,
    JOB_KINDS,
    JobRegistry,
    ServiceError,
    execute_job,
)
from repro.service.journal import DEFAULT_FILENAME, JobJournal

#: Default TCP port of ``python -m repro.service``.
DEFAULT_PORT = 8137

#: Largest accepted request body; grid specs are tiny, so anything bigger
#: than this is a mistake (or abuse), answered with 413.
MAX_BODY_BYTES = 1 << 20

#: Longest ``GET /v1/jobs/<id>?wait=`` long-poll; longer waits are capped.
MAX_WAIT_SECONDS = 30.0

# HTTP-level throughput counters (docs/OBSERVABILITY.md).
_HTTP_REQUESTS = obs_metrics.counter("service.http.requests")
_HTTP_ERRORS = obs_metrics.counter("service.http.errors")
_HTTP_SECONDS = obs_metrics.histogram("service.http.seconds")


@dataclass
class ServiceConfig:
    """Everything a running service instance is configured by."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: Result-cache root shared by every compare job; ``None`` disables the
    #: persistent cache (jobs still dedup in the registry).
    cache_dir: Optional[str] = ".grid-cache"
    #: Job worker threads (concurrent jobs, not HTTP connections).
    workers: int = 2
    #: Directory receiving one JSONL trace per compare job; ``None``: no
    #: tracing (traced runs are serialised — the trace sink is global).
    trace_dir: Optional[str] = None
    #: Echo one access-log line per request to stderr (off by default; the
    #: test suite and CI smoke drive the server hard).
    log_requests: bool = False
    #: Maximum queued (not yet running) jobs before submissions shed with
    #: 429 + ``Retry-After``; ``None``: unbounded (the PR-9 behaviour).
    max_queue_depth: Optional[int] = None
    #: Per-job wall-clock timeout (seconds); overrunning jobs are force-
    #: failed by the registry watchdog.  ``None``: no timeout.
    job_timeout: Optional[float] = None
    #: Whether to keep the durable job journal (requires ``cache_dir`` or an
    #: explicit ``journal_path`` for somewhere to put it).
    journal: bool = True
    #: Journal file path; defaults to ``<cache_dir>/service-journal.jsonl``.
    journal_path: Optional[str] = None
    #: Consecutive failures before a job is quarantined (circuit breaker).
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD

    def resolved_journal_path(self) -> Optional[str]:
        """Where the journal lives, or ``None`` when journalling is off."""
        if not self.journal:
            return None
        if self.journal_path is not None:
            return self.journal_path
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, DEFAULT_FILENAME)


class LayoutAdvisorService(ThreadingHTTPServer):
    """The advisor service: HTTP front end plus the job scheduling core."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, config: ServiceConfig) -> None:
        super().__init__((config.host, config.port), ServiceHandler)
        self.config = config
        self.started_at = time.time()
        if config.trace_dir is not None:
            os.makedirs(config.trace_dir, exist_ok=True)
        # One shared evaluator pool per schema for every concurrent job —
        # the service-lifetime equivalent of what each grid worker process
        # does for its own lifetime.
        self._previous_sharing = enable_cache_sharing(True)
        journal_path = config.resolved_journal_path()
        self.journal = (
            JobJournal(journal_path) if journal_path is not None else None
        )
        self.registry = JobRegistry(
            runner=lambda job: execute_job(
                job, cache_dir=config.cache_dir, trace_dir=config.trace_dir
            ),
            workers=config.workers,
            max_queue_depth=config.max_queue_depth,
            job_timeout=config.job_timeout,
            journal=self.journal,
            breaker_threshold=config.breaker_threshold,
        )
        self._serve_thread: Optional[threading.Thread] = None
        self._draining = False

    # -- lifecycle -------------------------------------------------------------

    @property
    def url(self) -> str:
        """The service's base URL (port resolved, useful with ``port=0``)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_thread(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, the CLI)."""
        if self._serve_thread is not None:
            raise RuntimeError("service is already serving")
        thread = threading.Thread(
            target=self.serve_forever, name="service-http", daemon=True
        )
        self._serve_thread = thread
        thread.start()
        return thread

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: drain jobs, stop serving, restore globals.

        ``drain=True`` (the default) blocks until queued and in-flight jobs
        finish — no accepted work is lost.  ``drain=False`` stops the
        workers at the next queue sentinel without waiting.  ``/health/ready``
        answers 503 from the moment draining begins.
        """
        self._draining = True
        self.registry.shutdown(wait=drain, timeout=timeout)
        if self._serve_thread is not None:
            self.shutdown()
            self._serve_thread.join(timeout=5)
            self._serve_thread = None
        self.server_close()
        enable_cache_sharing(self._previous_sharing)
        if not self._previous_sharing:
            # Sharing was switched on for this service alone — release the
            # memoized evaluator profiles instead of retaining them for the
            # process lifetime.
            clear_shared_caches()

    # -- health ----------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """The ``GET /health`` document (liveness plus configuration)."""
        journal_doc: Optional[Dict[str, object]] = None
        if self.journal is not None:
            journal_doc = {
                "path": self.journal.path,
                "appends": self.journal.appends,
                "append_failures": self.journal.append_failures,
                "compactions": self.journal.compactions,
            }
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "jobs": self.registry.counts(),
            "job_workers": self.registry.worker_count,
            "cache_dir": self.config.cache_dir,
            "trace_dir": self.config.trace_dir,
            "queue": {
                "depth": self.registry.queue_depth(),
                "max_depth": self.registry.max_queue_depth,
            },
            "job_timeout": self.config.job_timeout,
            "recovered_jobs": self.registry.recovered,
            "journal": journal_doc,
        }

    def readiness(self) -> Tuple[bool, Dict[str, object]]:
        """The ``GET /health/ready`` verdict and document.

        Unready (503) while draining (shutdown began) or while the job queue
        is saturated — load balancers stop routing new submissions here, but
        the process stays *live* (``/health/live`` keeps answering 200) so
        pollers can still collect results.
        """
        draining = self._draining
        saturated = self.registry.saturated
        ready = not draining and not saturated
        return ready, {
            "status": "ready" if ready else "unready",
            "draining": draining,
            "saturated": saturated,
            "queue": {
                "depth": self.registry.queue_depth(),
                "max_depth": self.registry.max_queue_depth,
            },
        }


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes one connection's requests onto the service's registry."""

    # Keep-alive + mandatory Content-Length framing (every response is a
    # fully buffered JSON document, so the length is always known).
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket.  Headers and body are two
    # writes; with Nagle's algorithm on, the body of a response that follows
    # another on a kept-alive connection waits for the client's delayed ACK
    # (~40 ms).
    disable_nagle_algorithm = True
    server: LayoutAdvisorService

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.config.log_requests:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_envelope(self, error: ServiceError) -> None:
        _HTTP_ERRORS.value += 1
        # An error can leave the request body unread; on a kept-alive
        # connection its bytes would be parsed as the next request line.
        headers = {"Connection": "close"}
        if error.retry_after is not None:
            headers["Retry-After"] = str(error.retry_after)
        self._send_json(error.status, error.to_envelope(), headers=headers)

    def send_error(self, code: int, message=None, explain=None) -> None:
        """The stdlib's own protocol errors (malformed request line, no
        ``do_<METHOD>``, oversized URI or headers), as a JSON envelope."""
        status = HTTPStatus(code)
        error_type = "".join(status.phrase.replace("-", " ").split())
        self._send_error_envelope(
            ServiceError(code, message or status.phrase, error_type)
        )

    def _read_json_body(self) -> object:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ServiceError(400, "invalid Content-Length header") from None
        if length <= 0:
            raise ServiceError(400, "request body must be a JSON object")
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes", "PayloadTooLarge"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(400, f"request body is not valid JSON: {error}") from None

    def _query(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {
            key: values[-1] for key, values in parse_qs(parsed.query).items()
        }
        return parsed.path.rstrip("/") or "/", query

    def _int_query(self, query: Dict[str, str], key: str, default: int) -> int:
        raw = query.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ServiceError(400, f"query parameter {key!r} must be an integer") from None

    def _wait_query(self, query: Dict[str, str]) -> Optional[float]:
        raw = query.get("wait")
        if raw is None:
            return None
        try:
            seconds = float(raw)
        except ValueError:
            seconds = math.nan
        if not (math.isfinite(seconds) and seconds >= 0):
            raise ServiceError(
                400,
                "query parameter 'wait' must be a finite number of seconds >= 0",
            )
        return min(seconds, MAX_WAIT_SECONDS)

    # -- routes ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        started = time.perf_counter()
        _HTTP_REQUESTS.value += 1
        try:
            path, query = self._query()
            if path == "/health":
                self._send_json(200, self.server.health())
            elif path == "/health/live":
                self._send_json(200, {"status": "live"})
            elif path == "/health/ready":
                ready, document = self.server.readiness()
                self._send_json(200 if ready else 503, document)
            elif path == "/v1/jobs":
                offset = self._int_query(query, "offset", 0)
                limit = min(self._int_query(query, "limit", 50), 500)
                jobs, total = self.server.registry.jobs(offset=offset, limit=limit)
                self._send_json(
                    200,
                    {
                        "jobs": [job.to_dict(include_result=False) for job in jobs],
                        "total": total,
                        "offset": offset,
                        "limit": limit,
                    },
                )
            elif path.startswith("/v1/jobs/"):
                job_id = path[len("/v1/jobs/") :]
                wait = self._wait_query(query)
                job = self.server.registry.get(job_id)
                if job is None:
                    raise ServiceError(404, f"unknown job {job_id!r}", "NotFound")
                if wait is not None:
                    # A wait that ends first answers the job as it is now.
                    with suppress(TimeoutError):
                        self.server.registry.wait_for(job_id, timeout=wait)
                self._send_json(200, job.to_dict())
            else:
                raise ServiceError(404, f"no such path {path!r}", "NotFound")
        except ServiceError as error:
            self._send_error_envelope(error)
        finally:
            _HTTP_SECONDS.observe(time.perf_counter() - started)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        started = time.perf_counter()
        _HTTP_REQUESTS.value += 1
        try:
            path, _ = self._query()
            if not path.startswith("/v1/"):
                raise ServiceError(404, f"no such path {path!r}", "NotFound")
            kind = path[len("/v1/") :]
            if kind not in JOB_KINDS:
                raise ServiceError(
                    404,
                    f"unknown job kind {kind!r}; available: {list(JOB_KINDS)}",
                    "NotFound",
                )
            body = self._read_json_body()
            job, deduped = self.server.registry.submit(kind, body)
            self._send_json(
                202,
                {
                    "job": job.to_dict(),
                    "deduped": deduped,
                    "poll": f"/v1/jobs/{job.id}",
                },
            )
        except ServiceError as error:
            self._send_error_envelope(error)
        finally:
            _HTTP_SECONDS.observe(time.perf_counter() - started)

    def do_DELETE(self) -> None:  # noqa: N802 (http.server naming)
        started = time.perf_counter()
        _HTTP_REQUESTS.value += 1
        try:
            path, _ = self._query()
            if not path.startswith("/v1/jobs/"):
                raise ServiceError(404, f"no such path {path!r}", "NotFound")
            job_id = path[len("/v1/jobs/") :]
            job, accepted = self.server.registry.cancel(job_id)
            self._send_json(
                202 if accepted else 200,
                {
                    "job": job.to_dict(include_result=False),
                    "cancelled": accepted,
                    "poll": f"/v1/jobs/{job.id}",
                },
            )
        except ServiceError as error:
            self._send_error_envelope(error)
        finally:
            _HTTP_SECONDS.observe(time.perf_counter() - started)


def create_service(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    cache_dir: Optional[str] = ".grid-cache",
    workers: int = 2,
    trace_dir: Optional[str] = None,
    log_requests: bool = False,
    max_queue_depth: Optional[int] = None,
    job_timeout: Optional[float] = None,
    journal: bool = True,
    journal_path: Optional[str] = None,
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
) -> LayoutAdvisorService:
    """Build a service bound to ``host:port`` (``port=0``: ephemeral port).

    The server is not serving yet: call :meth:`LayoutAdvisorService
    .serve_in_thread` (tests, embedding) or ``serve_forever`` (the CLI), and
    :meth:`LayoutAdvisorService.stop` to shut down gracefully.
    """
    return LayoutAdvisorService(
        ServiceConfig(
            host=host,
            port=port,
            cache_dir=cache_dir,
            workers=workers,
            trace_dir=trace_dir,
            log_requests=log_requests,
            max_queue_depth=max_queue_depth,
            job_timeout=job_timeout,
            journal=journal,
            journal_path=journal_path,
            breaker_threshold=breaker_threshold,
        )
    )
