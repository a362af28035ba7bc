"""Async jobs over the grid scheduling core: normalisation, dedup, scheduling.

A *job* is one submitted request (``recommend`` / ``compare`` / ``validate``)
flowing through ``queued -> running -> done | failed | cancelled``.  The
pieces:

* :func:`normalize_request` — validate a raw JSON body early (in the HTTP
  thread, so a bad spec is a 400, never a failed job) and reduce it to its
  canonical form: defaults applied, axes resolved, deterministic ordering.
* :func:`job_id_for` — the dedup key: the SHA-256 content hash of the
  canonical request (via the result cache's :func:`~repro.grid.cache
  .canonical_json`).  Two clients submitting the same spec — even one via
  ``{"grid": "tiny"}`` and one via the equivalent explicit axes — share one
  job and therefore one computation.  ``workers`` (pure parallelism, cannot
  change the result) stays out of the hash; everything else is in it.
* :class:`JobRegistry` — the scheduler: a bounded set of daemon worker
  threads draining a FIFO queue.  Submissions of an already-known job return
  it instead of enqueuing twice (*failed* and *cancelled* jobs are the
  exception: they are reset and retried — unless a repeatedly-failing job
  tripped the circuit breaker, in which case resubmission needs ``{"force":
  true}``).  Shutdown is graceful: sentinel-behind-the-queue, so queued and
  in-flight jobs drain before the workers exit.

  The registry is durable and self-protecting (this PR's tentpole;
  ``docs/SERVICE.md`` has the full model):

  - every state transition is appended to a :class:`~repro.service.journal
    .JobJournal` before it becomes client-visible, and a restarting registry
    replays the journal — terminal jobs come back with results, interrupted
    jobs are re-enqueued;
  - a bounded queue (``max_queue_depth``) sheds overload with 429 +
    ``Retry-After`` derived from the observed job-seconds histogram;
  - a watchdog thread force-fails jobs that exceed ``job_timeout``, and
    :meth:`JobRegistry.cancel` cancels queued jobs immediately and running
    jobs cooperatively — both by setting the job's ``cancel_event``, which
    ``run_grid`` polls in its supervisor loop;
  - finalisation is guarded by a per-job *generation* counter, so a stale
    worker (its job requeued, timed out, or cancelled meanwhile) can never
    stomp the newer state, and runs in a ``finally``-equivalent path even
    for ``BaseException`` — a dying worker thread records its job as failed
    before unwinding, and lost threads are respawned on the next submission.
* :func:`execute_job` — the per-kind executors.  Nothing is reimplemented:
  ``compare`` calls :func:`repro.grid.runner.run_grid` (the PR-5 supervisor,
  used here as a callable scheduling core, persistent
  :class:`~repro.grid.cache.ResultCache` included), ``recommend`` and
  ``validate`` call the :class:`~repro.core.advisor.LayoutAdvisor`.

Every state transition bumps a ``service.jobs.*`` counter and emits a
``service.job`` trace event (no-op unless a sink is active), so the service's
throughput and dedup effectiveness are observable exactly like the grid's
cache (``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import queue as queue_module
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.grid.cache import canonical_json
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service import faults as service_faults
from repro.service.journal import JobJournal, snapshot_record

#: Job kinds, one per exposed advisor entry point.
JOB_KINDS = ("recommend", "compare", "validate")

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

# Service-level throughput and dedup counters (docs/OBSERVABILITY.md).
_JOBS_SUBMITTED = obs_metrics.counter("service.jobs.submitted")
_JOBS_DEDUPED = obs_metrics.counter("service.jobs.deduped")
_JOBS_STARTED = obs_metrics.counter("service.jobs.started")
_JOBS_COMPLETED = obs_metrics.counter("service.jobs.completed")
_JOBS_FAILED = obs_metrics.counter("service.jobs.failed")
_JOBS_RETRIED = obs_metrics.counter("service.jobs.retried")
_JOBS_CANCELLED = obs_metrics.counter("service.jobs.cancelled")
_JOBS_TIMEOUTS = obs_metrics.counter("service.jobs.timeouts")
_JOBS_DISCARDED = obs_metrics.counter("service.jobs.discarded")
_JOBS_QUARANTINED = obs_metrics.counter("service.jobs.quarantined")
_JOBS_RECOVERED = obs_metrics.counter("service.jobs.recovered")
_SHED = obs_metrics.counter("service.shed")
_JOB_SECONDS = obs_metrics.histogram("service.job.seconds")

#: Fallback ``Retry-After`` (seconds) before any job has finished.
_DEFAULT_RETRY_AFTER = 5

#: Consecutive failures after which a job is quarantined (circuit breaker).
DEFAULT_BREAKER_THRESHOLD = 3

#: Serialises traced job runs: the tracing sink is process-global, so two
#: concurrently traced ``run_grid`` calls would interleave their span stacks.
_TRACE_LOCK = threading.Lock()


class ServiceError(Exception):
    """A request error that maps onto an HTTP status and a JSON envelope."""

    def __init__(
        self,
        status: int,
        message: str,
        error_type: str = "BadRequest",
        retry_after: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        #: Seconds until the client should retry (429 responses; also sent as
        #: the ``Retry-After`` header).
        self.retry_after = retry_after

    def to_envelope(self) -> Dict[str, object]:
        """The JSON error envelope body every error response carries."""
        envelope: Dict[str, object] = {
            "error": {
                "status": self.status,
                "type": self.error_type,
                "message": str(self),
            }
        }
        if self.retry_after is not None:
            envelope["error"]["retry_after"] = self.retry_after
        return envelope


class JobCancelled(Exception):
    """Raised by executors when a job's ``cancel_event`` fires mid-run."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"job {job_id} cancelled")
        self.job_id = job_id


def _jsonable(value: object) -> object:
    """Recursively coerce a result structure to plain JSON types.

    Library results carry numpy scalars (rank correlations, costs) and tuples
    (layout groups); the wire format wants floats, ints and lists.
    """
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _jsonable(value.item())
    return str(value)


# -- request normalisation -----------------------------------------------------


def _require_mapping(body: object) -> Dict[str, object]:
    if not isinstance(body, dict):
        raise ServiceError(400, "request body must be a JSON object")
    return body


def _string_list(body: Dict[str, object], key: str) -> Optional[List[str]]:
    raw = body.get(key)
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(item, str) for item in raw):
        raise ServiceError(400, f"{key!r} must be a list of strings")
    return list(raw)


def _bad_request(error: Exception) -> ServiceError:
    return ServiceError(400, str(error))


def _validate_algorithms(names: List[str]) -> None:
    from repro.core.algorithm import get_algorithm

    for name in names:
        try:
            get_algorithm(name)
        except (KeyError, ValueError) as error:
            raise _bad_request(error) from None


def _compare_spec(normalized: Dict[str, object]):
    """Rebuild the :class:`~repro.grid.spec.GridSpec` of a compare request."""
    from repro.grid.spec import GridSpec

    spec = normalized["spec"]
    return GridSpec(
        name=spec["name"],
        algorithms=spec["algorithms"],
        workloads=spec["workloads"],
        cost_models=spec["cost_models"],
        algorithm_options={
            name: dict(options) for name, options in spec["algorithm_options"]
        },
        backend=spec["backend"],
        measurement=dict(spec["measurement"]) or None,
    )


def _normalize_compare(body: Dict[str, object]) -> Dict[str, object]:
    from repro.grid.spec import GridError, GridSpec, builtin_grid

    grid_name = body.get("grid")
    algorithms = _string_list(body, "algorithms")
    workloads = _string_list(body, "workloads")
    cost_models = _string_list(body, "cost_models")
    measurement = body.get("measurement")
    if measurement is not None and not isinstance(measurement, dict):
        raise ServiceError(400, "'measurement' must be a JSON object")
    algorithm_options = body.get("algorithm_options") or {}
    if not isinstance(algorithm_options, dict):
        raise ServiceError(400, "'algorithm_options' must be a JSON object")
    try:
        if grid_name is not None:
            if not isinstance(grid_name, str):
                raise ServiceError(400, "'grid' must be a builtin grid name")
            base = builtin_grid(grid_name)
            spec = GridSpec(
                name=base.name,
                algorithms=algorithms or base.algorithms,
                workloads=workloads or base.workloads,
                cost_models=cost_models or base.cost_models,
                algorithm_options=dict(algorithm_options)
                or {name: dict(options) for name, options in base.algorithm_options},
                backend=body.get("backend", base.backend),
                measurement=measurement,
            )
        else:
            if not (algorithms and workloads and cost_models):
                raise ServiceError(
                    400,
                    "a compare request needs either 'grid' or all three of "
                    "'algorithms', 'workloads', 'cost_models'",
                )
            spec = GridSpec(
                name="service",
                algorithms=algorithms,
                workloads=workloads,
                cost_models=cost_models,
                algorithm_options=algorithm_options,
                backend=body.get("backend", "estimated"),
                measurement=measurement,
            )
    except GridError as error:
        raise _bad_request(error) from None
    # Resolve every axis value now: an unknown algorithm, workload or cost
    # model id must be a 400 at submission, not a failed job minutes later.
    from repro.grid.spec import resolve_cost_model, resolve_workload

    _validate_algorithms(list(spec.algorithms))
    try:
        for workload_id in spec.workloads:
            resolve_workload(workload_id)
        for cost_model_id in spec.cost_models:
            resolve_cost_model(cost_model_id)
    except GridError as error:
        raise _bad_request(error) from None
    run = {
        "workers": _int_field(body, "workers", default=1, minimum=1),
        "refresh": bool(body.get("refresh", False)),
        "retries": _int_field(body, "retries", default=0, minimum=0),
        "cell_timeout": _float_field(body, "cell_timeout"),
        "fail_fast": bool(body.get("fail_fast", False)),
    }
    return {
        "spec": {
            # The canonical (hash-stable) spec form: axes as lists, options
            # and measurement in the spec's own sorted-tuple canonical form.
            "name": spec.name,
            "algorithms": list(spec.algorithms),
            "workloads": list(spec.workloads),
            "cost_models": list(spec.cost_models),
            "algorithm_options": [
                [name, [[key, value] for key, value in options]]
                for name, options in spec.algorithm_options
            ],
            "backend": spec.backend,
            "measurement": [[key, value] for key, value in spec.measurement],
        },
        "run": run,
    }


def _int_field(
    body: Dict[str, object],
    key: str,
    default: Optional[int] = None,
    minimum: Optional[int] = None,
) -> Optional[int]:
    raw = body.get(key, default)
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ServiceError(400, f"{key!r} must be an integer")
    if minimum is not None and raw < minimum:
        raise ServiceError(400, f"{key!r} must be >= {minimum}")
    return raw


def _float_field(body: Dict[str, object], key: str) -> Optional[float]:
    raw = body.get(key)
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ServiceError(400, f"{key!r} must be a number")
    if raw <= 0:
        raise ServiceError(400, f"{key!r} must be > 0")
    return float(raw)


def _normalize_workload_and_model(
    body: Dict[str, object],
) -> Tuple[str, str]:
    from repro.grid.spec import GridError, resolve_cost_model, resolve_workload

    workload_id = body.get("workload")
    if not isinstance(workload_id, str) or not workload_id:
        raise ServiceError(400, "'workload' (a workload id string) is required")
    cost_model_id = body.get("cost_model", "hdd")
    if not isinstance(cost_model_id, str):
        raise ServiceError(400, "'cost_model' must be a cost model id string")
    try:
        resolve_workload(workload_id)
        resolve_cost_model(cost_model_id)
    except GridError as error:
        raise _bad_request(error) from None
    return workload_id, cost_model_id


def _normalize_recommend(body: Dict[str, object]) -> Dict[str, object]:
    from repro.core.advisor import DEFAULT_ALGORITHMS

    workload_id, cost_model_id = _normalize_workload_and_model(body)
    algorithms = _string_list(body, "algorithms") or list(DEFAULT_ALGORITHMS)
    _validate_algorithms(algorithms)
    options = body.get("algorithm_options") or {}
    if not isinstance(options, dict):
        raise ServiceError(400, "'algorithm_options' must be a JSON object")
    return {
        "workload": workload_id,
        "cost_model": cost_model_id,
        "algorithms": algorithms,
        "algorithm_options": options,
    }


def _normalize_validate(body: Dict[str, object]) -> Dict[str, object]:
    from repro.exec.backends import explicit_settings, get_backend
    from repro.grid.spec import resolve_cost_model

    workload_id, cost_model_id = _normalize_workload_and_model(body)
    rows = _int_field(body, "rows")
    data_seed = _int_field(body, "data_seed", default=0, minimum=0)
    page_size = _int_field(body, "page_size")
    algorithms = _string_list(body, "algorithms")
    if algorithms is not None:
        _validate_algorithms(algorithms)
    # The backend's own settings-and-model check (e.g. page_size is sqlite
    # only and must be a valid page size; the measured backend needs a
    # disk-based model): fail at submission, not as a failed job later.
    try:
        backend = get_backend(body.get("backend", "measured"))
        backend.check(
            explicit_settings(rows=rows, data_seed=data_seed, page_size=page_size),
            resolve_cost_model(cost_model_id),
        )
    except ValueError as error:
        raise _bad_request(error) from None
    return {
        "workload": workload_id,
        "cost_model": cost_model_id,
        "backend": backend.name,
        "rows": rows,
        "data_seed": data_seed,
        "page_size": page_size,
        "algorithms": algorithms,
        "include_baselines": bool(body.get("include_baselines", True)),
    }


_NORMALIZERS: Dict[str, Callable[[Dict[str, object]], Dict[str, object]]] = {
    "recommend": _normalize_recommend,
    "compare": _normalize_compare,
    "validate": _normalize_validate,
}


def normalize_request(kind: str, body: object) -> Dict[str, object]:
    """Validate a raw request body and return its canonical form.

    Raises :class:`ServiceError` (status 400) for anything malformed —
    unknown ids included, so submission is the only place a typo can fail.
    """
    if kind not in JOB_KINDS:
        raise ServiceError(404, f"unknown job kind {kind!r}", "NotFound")
    return _NORMALIZERS[kind](_require_mapping(body))


def job_id_for(kind: str, normalized: Dict[str, object]) -> str:
    """The job's dedup key: a content hash of the canonical request.

    ``workers`` (compare only) is excluded — it is pure parallelism and
    cannot change the result, so a 1-worker and a 4-worker submission of the
    same spec share one job.
    """
    hashed = dict(normalized)
    run = hashed.get("run")
    if isinstance(run, dict):
        run = {key: value for key, value in run.items() if key != "workers"}
        hashed["run"] = run
    spec = hashed.get("spec")
    if isinstance(spec, dict):
        # The spec *name* is display-only ("tiny" vs an explicit submission
        # of the same axes must dedup onto one job).
        hashed["spec"] = {key: value for key, value in spec.items() if key != "name"}
    digest = hashlib.sha256(
        canonical_json({"kind": kind, "request": hashed}).encode("utf-8")
    ).hexdigest()
    return f"{kind}-{digest[:16]}"


# -- jobs and the registry -----------------------------------------------------


@dataclass
class Job:
    """One submitted request and everything known about its execution."""

    id: str
    kind: str
    request: Dict[str, object]
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: How many times this job has been submitted (dedup hits included).
    submissions: int = 1
    result: Optional[Dict[str, object]] = None
    #: ``{"type": ..., "message": ...}`` for failed jobs.
    error: Optional[Dict[str, str]] = None
    #: Transition guard: bumped whenever the registry takes the job away from
    #: whatever thread last owned it (requeue, timeout, queued-cancel).  A
    #: worker finalising with a stale generation is discarded.
    generation: int = 0
    #: Set when a client cancelled a running job; the executor aborts at the
    #: next cooperative checkpoint and the outcome is recorded as cancelled.
    cancel_requested: bool = False
    #: Consecutive failed runs (circuit-breaker input; reset on success).
    consecutive_failures: int = 0
    #: Cooperative cancellation signal threaded into ``run_grid``.  Replaced
    #: with a fresh event on every requeue.
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in ("done", "failed", "cancelled")

    @property
    def wall_seconds(self) -> Optional[float]:
        """Execution wall time (``None`` until the job finishes running)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self, include_result: bool = True) -> Dict[str, object]:
        """The job's JSON form; ``include_result=False`` for listings."""
        record: Dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "request": self.request,
            "submissions": self.submissions,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
        }
        if include_result:
            record["result"] = self.result
        return record


class JobRegistry:
    """In-memory job store plus the worker threads that execute jobs.

    ``runner`` maps a :class:`Job` to its result dict (see
    :func:`execute_job`); it runs on a registry worker thread.  The registry
    is the single synchronisation point: every state transition happens under
    its lock and wakes :meth:`wait_for` pollers.

    ``journal`` (a :class:`~repro.service.journal.JobJournal`) makes the
    registry durable: it is replayed *before* the worker threads start —
    terminal jobs are restored with their results, interrupted jobs are
    re-enqueued — and every subsequent transition is appended under the
    registry lock, so the on-disk order matches the in-memory order.
    ``max_queue_depth`` bounds the number of queued jobs (excess submissions
    get a 429 with a ``Retry-After`` estimate), ``job_timeout`` arms a
    watchdog thread that force-fails overrunning jobs, and
    ``breaker_threshold`` consecutive failures quarantine a job until a
    client resubmits it with ``{"force": true}``.
    """

    def __init__(
        self,
        runner: Callable[[Job], Dict[str, object]],
        workers: int = 2,
        max_queue_depth: Optional[int] = None,
        job_timeout: Optional[float] = None,
        journal: Optional[JobJournal] = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
    ) -> None:
        if workers < 1:
            raise ValueError("a job registry needs at least one worker thread")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None: unbounded)")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be > 0 (or None: no timeout)")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        self._runner = runner
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "queue_module.Queue[Optional[str]]" = queue_module.Queue()
        self._shutting_down = False
        self.worker_count = workers
        self.max_queue_depth = max_queue_depth
        self.job_timeout = job_timeout
        self.breaker_threshold = breaker_threshold
        self._journal = journal
        #: Jobs re-enqueued from the journal at startup (health reporting).
        self.recovered = 0
        if journal is not None:
            self._recover(journal)
        self._threads = [
            threading.Thread(
                target=self._work, name=f"service-job-worker-{index}", daemon=True
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()
        self._watch_stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        if job_timeout is not None:
            self._watchdog = threading.Thread(
                target=self._watch, name="service-job-watchdog", daemon=True
            )
            self._watchdog.start()

    # -- journal recovery --------------------------------------------------------

    def _recover(self, journal: JobJournal) -> None:
        """Replay the journal into the registry (runs before workers start)."""
        replay = journal.replay()
        for replayed in replay.jobs.values():
            job = Job(
                id=replayed.id,
                kind=replayed.kind,
                request=replayed.request,
                state=replayed.state,
                submitted_at=replayed.submitted_at or time.time(),
                started_at=replayed.started_at,
                finished_at=replayed.finished_at,
                submissions=replayed.submissions,
                result=replayed.result,
                error=replayed.error,
            )
            if job.state in ("queued", "running"):
                # The process died with this job in flight; run it again.
                # (Compare jobs rehydrate completed cells from the persistent
                # ResultCache, so the re-run is incremental.)
                job.state = "queued"
                job.started_at = None
                self._queue.put(job.id)
                self.recovered += 1
                _JOBS_RECOVERED.value += 1
                obs_trace.event("service.job", job=job.id, state="recovered")
            self._jobs[job.id] = job
            self._order.append(job.id)
        # Start the new journal epoch from an authoritative snapshot: replay
        # artefacts (torn tail, pre-crash duplicates) do not survive, and the
        # re-enqueued jobs are durably recorded as queued.
        journal.compact(snapshot_record(job) for job in self._jobs.values())
        if replay.jobs or replay.torn or replay.dropped:
            obs_trace.event(
                "service.journal.replayed",
                jobs=len(replay.jobs),
                recovered=self.recovered,
                records=replay.records,
                torn=replay.torn,
                dropped=replay.dropped,
            )

    def _journal_append(self, event: str, job_id: str, **fields: object) -> None:
        if self._journal is not None:
            self._journal.append(event, job_id, **fields)

    def _maybe_compact_locked(self) -> None:
        """Compact the journal if due (caller holds the registry lock)."""
        if self._journal is not None and self._journal.should_compact:
            self._journal.compact(
                snapshot_record(job) for job in self._jobs.values()
            )

    # -- submission ------------------------------------------------------------

    def submit(self, kind: str, body: object) -> Tuple[Job, bool]:
        """Normalise, dedup and enqueue one request.

        Returns ``(job, deduped)``: ``deduped`` is True when an identical
        submission was already known (the caller polls the shared job).  A
        previously *failed* or *cancelled* job is reset and retried instead
        of being served stale — unless the circuit breaker tripped
        (``breaker_threshold`` consecutive failures), in which case the
        resubmission is rejected with 409 until the client sends
        ``{"force": true}``.  Raises :class:`ServiceError` for invalid bodies
        (400), a full queue (429, with ``retry_after``), quarantined jobs
        (409) and after shutdown began (503).
        """
        force = False
        if isinstance(body, dict) and "force" in body:
            # ``force`` is submission metadata, not part of the request: strip
            # it before normalisation so it never enters the job-id hash.
            body = {key: value for key, value in body.items() if key != "force"}
            force = True
        normalized = normalize_request(kind, body)
        job_id = job_id_for(kind, normalized)
        with self._changed:
            if self._shutting_down:
                raise ServiceError(
                    503, "service is shutting down", "ServiceUnavailable"
                )
            self._ensure_workers_locked()
            existing = self._jobs.get(job_id)
            if existing is not None:
                if (
                    existing.state == "failed"
                    and existing.consecutive_failures >= self.breaker_threshold
                    and not force
                ):
                    _JOBS_QUARANTINED.value += 1
                    obs_trace.event(
                        "service.job", job=job_id, state="quarantined",
                        consecutive_failures=existing.consecutive_failures,
                    )
                    raise ServiceError(
                        409,
                        f"job {job_id} failed {existing.consecutive_failures} "
                        f"consecutive times and is quarantined; resubmit with "
                        f'{{"force": true}} to retry it',
                        "Quarantined",
                    )
                existing.submissions += 1
                if existing.state in ("failed", "cancelled"):
                    # A failed or cancelled job is retryable: reset, requeue.
                    self._require_capacity_locked()
                    retried = existing.state == "failed"
                    existing.state = "queued"
                    existing.error = None
                    existing.result = None
                    existing.started_at = None
                    existing.finished_at = None
                    existing.cancel_requested = False
                    existing.cancel_event = threading.Event()
                    existing.generation += 1
                    if force:
                        existing.consecutive_failures = 0
                    if retried:
                        _JOBS_RETRIED.value += 1
                    obs_trace.event("service.job", job=job_id, state="requeued")
                    self._journal_append("requeued", job_id)
                    self._maybe_compact_locked()
                    self._queue.put(job_id)
                    self._changed.notify_all()
                    return existing, False
                _JOBS_DEDUPED.value += 1
                obs_trace.event("service.job", job=job_id, state="deduped")
                return existing, True
            self._require_capacity_locked()
            job = Job(id=job_id, kind=kind, request=normalized)
            self._jobs[job_id] = job
            self._order.append(job_id)
            _JOBS_SUBMITTED.value += 1
            obs_trace.event("service.job", job=job_id, state="queued")
            self._journal_append(
                "submitted", job_id, kind=kind, request=normalized
            )
            self._maybe_compact_locked()
            self._queue.put(job_id)
            self._changed.notify_all()
            return job, False

    def _require_capacity_locked(self) -> None:
        """Reject (429) when the queue is at ``max_queue_depth``."""
        if self.max_queue_depth is None:
            return
        queued = sum(1 for job in self._jobs.values() if job.state == "queued")
        if queued < self.max_queue_depth:
            return
        retry_after = self._retry_after_estimate_locked(queued)
        _SHED.value += 1
        obs_trace.event(
            "service.shed", queued=queued, depth=self.max_queue_depth,
            retry_after=retry_after,
        )
        raise ServiceError(
            429,
            f"job queue is full ({queued} queued, depth {self.max_queue_depth}); "
            f"retry in ~{retry_after}s",
            "TooManyRequests",
            retry_after=retry_after,
        )

    def _retry_after_estimate_locked(self, queued: int) -> int:
        """Seconds until capacity likely frees: mean job time x queue depth.

        Derived from the ``service.job.seconds`` histogram (this process's
        finished jobs); before any job finishes a small fixed default is
        used.  Always >= 1 so clients cannot busy-loop on ``Retry-After: 0``.
        """
        if _JOB_SECONDS.count:
            mean = _JOB_SECONDS.mean
        else:
            mean = float(_DEFAULT_RETRY_AFTER)
        estimate = mean * max(1, queued) / max(1, self.worker_count)
        return max(1, int(estimate + 0.999))

    def queue_depth(self) -> int:
        """Number of currently queued jobs (readiness reporting)."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values() if job.state == "queued"
            )

    @property
    def saturated(self) -> bool:
        """Whether the queue is at capacity (readiness reporting)."""
        if self.max_queue_depth is None:
            return False
        return self.queue_depth() >= self.max_queue_depth

    def _ensure_workers_locked(self) -> None:
        """Respawn worker threads that died (injected or real thread death).

        A worker dying through ``_work``'s BaseException path replaces itself
        (:meth:`_replace_worker`), so this is a backstop for deaths the
        handler never saw; ``is_alive`` can lag a dying thread, hence both.
        """
        if self._shutting_down:
            return
        for index, thread in enumerate(self._threads):
            if not thread.is_alive():
                self._spawn_worker_locked(index)

    def _replace_worker(self, dying: threading.Thread) -> None:
        """Called by a worker unwinding on a BaseException: respawn its slot."""
        with self._lock:
            if self._shutting_down:
                return
            for index, thread in enumerate(self._threads):
                if thread is dying:
                    self._spawn_worker_locked(index)
                    return

    def _spawn_worker_locked(self, index: int) -> None:
        replacement = threading.Thread(
            target=self._work,
            name=f"service-job-worker-{index}r",
            daemon=True,
        )
        self._threads[index] = replacement
        replacement.start()
        obs_trace.event("service.worker.respawned", worker=index)

    # -- lookup ----------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        """The job registered under ``job_id``, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, offset: int = 0, limit: int = 50) -> Tuple[List[Job], int]:
        """A page of jobs in submission order plus the total count.

        Invalid paging is the client's bug, not something to silently clamp:
        a negative ``offset`` or a non-positive ``limit`` raises a 400
        :class:`ServiceError`.
        """
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            raise ServiceError(400, "'offset' must be an integer >= 0")
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ServiceError(400, "'limit' must be an integer >= 1")
        with self._lock:
            ids = self._order[offset : offset + limit]
            return [self._jobs[job_id] for job_id in ids], len(self._order)

    def counts(self) -> Dict[str, int]:
        """Number of jobs per lifecycle state (all states always present)."""
        summary = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                summary[job.state] += 1
        return summary

    def wait_for(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until ``job_id`` reaches a terminal state (tests, CLIs)."""
        deadline = time.monotonic() + timeout
        with self._changed:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise KeyError(f"unknown job {job_id!r}")
                if job.finished:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {job.state} after {timeout:g}s"
                    )
                self._changed.wait(remaining)

    # -- cancellation ----------------------------------------------------------

    def cancel(self, job_id: str) -> Tuple[Job, bool]:
        """Cancel a job: queued jobs immediately, running jobs cooperatively.

        Returns ``(job, accepted)``: ``accepted`` is False when the job was
        already terminal (nothing to cancel — the response still carries the
        job so the client sees its final state).  A running job keeps state
        ``running`` with ``cancel_requested`` set until its executor reaches
        a cancellation checkpoint; the outcome is then recorded as
        ``cancelled`` regardless of what the run produced, and the result is
        discarded.  Raises :class:`ServiceError` 404 for unknown ids.
        """
        with self._changed:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServiceError(404, f"unknown job {job_id!r}", "NotFound")
            if job.finished:
                return job, False
            if job.state == "queued":
                job.state = "cancelled"
                job.finished_at = time.time()
                job.cancel_requested = True
                job.generation += 1  # a worker that later dequeues it: stale
                job.cancel_event.set()
                _JOBS_CANCELLED.value += 1
                obs_trace.event("service.job", job=job_id, state="cancelled")
                self._journal_append("cancelled", job_id)
                self._maybe_compact_locked()
                self._changed.notify_all()
                return job, True
            # Running: flag it and let the executor abort cooperatively.  The
            # generation is NOT bumped — the worker's own finalisation must
            # still land (as cancelled).
            if not job.cancel_requested:
                job.cancel_requested = True
                job.cancel_event.set()
                obs_trace.event(
                    "service.job", job=job_id, state="cancel-requested"
                )
                self._journal_append("cancel-requested", job_id)
                self._changed.notify_all()
            return job, True

    # -- execution -------------------------------------------------------------

    def _work(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._changed:
                job = self._jobs.get(job_id)
                if job is None or job.state != "queued":
                    continue
                job.state = "running"
                job.started_at = time.time()
                generation = job.generation
                _JOBS_STARTED.value += 1
                obs_trace.event("service.job", job=job_id, state="running")
                self._journal_append("running", job_id)
                self._changed.notify_all()
            # Everything below runs in a BaseException-tight envelope: however
            # the runner dies — including non-Exception escapes like an
            # injected WorkerThreadDeath or a KeyboardInterrupt delivered to
            # this thread — the job is finalised before the thread unwinds.
            try:
                service_faults.maybe_trigger("job.start")
                if job.cancel_event.is_set():
                    raise JobCancelled(job_id)
                result = self._runner(job)
            except JobCancelled:
                self._finalize(job, generation, "cancelled", None, None)
            except Exception as error:  # the job, not the worker, fails
                self._finalize(job, generation, "failed", None, error)
            except BaseException as error:
                # The worker thread itself is dying; record the job as failed
                # and start a replacement worker on the way out.
                self._finalize(job, generation, "failed", None, error)
                self._replace_worker(threading.current_thread())
                raise
            else:
                self._finalize(job, generation, "done", result, None)

    def _finalize(
        self,
        job: Job,
        generation: int,
        outcome: str,
        result: Optional[Dict[str, object]],
        error: Optional[BaseException],
    ) -> None:
        """Record one run's outcome, unless the registry moved on without us.

        The generation guard closes the requeue race: if the job was reset
        (resubmitted), force-failed by the watchdog, or cancelled-while-queued
        after this worker picked it up, its generation no longer matches and
        this (stale) outcome is discarded instead of stomping the newer state.
        """
        with self._changed:
            if job.generation != generation or job.state != "running":
                _JOBS_DISCARDED.value += 1
                obs_trace.event(
                    "service.job", job=job.id, state="discarded",
                    outcome=outcome, generation=generation,
                )
                return
            if job.cancel_requested:
                # The client abandoned this job mid-run; whatever the run
                # produced is discarded, never served and never cached here.
                outcome = "cancelled"
                result = None
                error = None
            job.finished_at = time.time()
            if job.started_at is not None:
                _JOB_SECONDS.observe(job.finished_at - job.started_at)
            if outcome == "done":
                job.state = "done"
                job.result = result
                job.error = None
                job.consecutive_failures = 0
                _JOBS_COMPLETED.value += 1
                self._journal_append("done", job.id, result=result)
            elif outcome == "cancelled":
                job.state = "cancelled"
                job.result = None
                job.error = None
                _JOBS_CANCELLED.value += 1
                self._journal_append("cancelled", job.id)
            else:
                job.state = "failed"
                job.result = None
                job.error = {
                    "type": type(error).__name__ if error else "UnknownError",
                    "message": str(error) if error else "job failed",
                }
                job.consecutive_failures += 1
                _JOBS_FAILED.value += 1
                self._journal_append("failed", job.id, error=job.error)
            obs_trace.event(
                "service.job", job=job.id, state=job.state,
                error=job.error["type"] if job.error else None,
            )
            self._maybe_compact_locked()
            self._changed.notify_all()

    # -- watchdog --------------------------------------------------------------

    def _watch(self) -> None:
        """Force-fail running jobs that exceed ``job_timeout`` wall seconds."""
        assert self.job_timeout is not None
        interval = min(0.25, max(0.01, self.job_timeout / 5.0))
        while not self._watch_stop.wait(interval):
            now = time.time()
            with self._changed:
                for job in self._jobs.values():
                    if job.state != "running" or job.started_at is None:
                        continue
                    if now - job.started_at < self.job_timeout:
                        continue
                    # Take the job away from its worker: the generation bump
                    # makes the worker's eventual finalisation stale, and the
                    # cancel event asks run_grid to stop burning CPU.
                    job.generation += 1
                    job.cancel_event.set()
                    job.state = "failed"
                    job.finished_at = now
                    job.error = {
                        "type": "JobTimeout",
                        "message": (
                            f"job exceeded the service job timeout "
                            f"({self.job_timeout:g}s wall)"
                        ),
                    }
                    job.consecutive_failures += 1
                    _JOBS_TIMEOUTS.value += 1
                    _JOBS_FAILED.value += 1
                    _JOB_SECONDS.observe(now - job.started_at)
                    obs_trace.event(
                        "service.job", job=job.id, state="failed",
                        error="JobTimeout",
                    )
                    self._journal_append("failed", job.id, error=job.error)
                self._maybe_compact_locked()
                self._changed.notify_all()

    # -- shutdown --------------------------------------------------------------

    def shutdown(self, wait: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting submissions and drain the queue.

        The sentinels join the queue *behind* every already-queued job, so a
        graceful shutdown finishes queued and in-flight work before the
        worker threads exit.  ``wait=False`` just flips the accepting flag
        and enqueues the sentinels.
        """
        with self._changed:
            if self._shutting_down:
                wait_needed = wait
            else:
                self._shutting_down = True
                for _ in self._threads:
                    self._queue.put(None)
                wait_needed = wait
            self._changed.notify_all()
        self._watch_stop.set()
        if wait_needed:
            for thread in self._threads:
                thread.join(timeout)
            if self._watchdog is not None:
                self._watchdog.join(timeout)
        if self._journal is not None:
            self._journal.close()


# -- per-kind executors --------------------------------------------------------


def _execute_recommend(request: Dict[str, object]) -> Dict[str, object]:
    from repro.core.advisor import LayoutAdvisor
    from repro.grid.spec import resolve_cost_model, resolve_workload

    workload = resolve_workload(request["workload"])
    advisor = LayoutAdvisor(
        cost_model=resolve_cost_model(request["cost_model"]),
        algorithms=request["algorithms"],
        algorithm_options=request["algorithm_options"],
    )
    report = advisor.recommend(workload)
    layouts = {
        recommendation.algorithm: [
            list(group) for group in recommendation.partitioning.as_names()
        ]
        for recommendation in report.recommendations
    }
    rows = report.to_rows()
    for row in rows:
        row["layout"] = layouts[row["algorithm"]]
    best = report.best
    return _jsonable(
        {
            "workload": request["workload"],
            "cost_model": report.cost_model_description,
            "row_cost": report.row_cost,
            "column_cost": report.column_cost,
            "best": {
                "algorithm": best.algorithm,
                "estimated_cost": best.estimated_cost,
                "layout": layouts[best.algorithm],
            },
            "recommendations": rows,
        }
    )


def _execute_compare(
    job: Job,
    cache_dir: Optional[str],
    trace_dir: Optional[str],
) -> Dict[str, object]:
    from repro.grid.aggregate import headline_tables
    from repro.grid.runner import run_grid
    from repro.grid.spec import GridCancelled

    spec = _compare_spec(job.request)
    run = job.request["run"]
    trace_path = None
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{job.id}.jsonl")
    lock = _TRACE_LOCK if trace_path is not None else None
    if lock is not None:
        lock.acquire()
    try:
        report = run_grid(
            spec,
            cache_dir=cache_dir,
            workers=run["workers"],
            refresh=run["refresh"],
            retries=run["retries"],
            cell_timeout=run["cell_timeout"],
            fail_fast=run["fail_fast"],
            trace=trace_path,
            cancel_event=job.cancel_event,
        )
    except GridCancelled as error:
        raise JobCancelled(job.id) from error
    finally:
        if lock is not None:
            lock.release()
    cells = []
    for result in report.results:
        row: Dict[str, object] = {
            "label": result.cell.label,
            "key": result.key,
            "backend": result.cell.backend,
            "cached": result.cached,
            "attempts": result.attempts,
            "ok": result.ok,
        }
        if result.ok:
            row["estimated_cost"] = result.estimated_cost
            row["layout"] = [list(group) for group in result.layout]
        if result.failure is not None:
            row["failure"] = {
                "error_type": result.failure.error_type,
                "message": result.failure.message,
                "attempts": result.failure.attempts,
            }
        cells.append(row)
    return _jsonable(
        {
            "spec": dict(job.request["spec"]),
            "accounting": report.accounting(),
            "cache": {
                "hits": report.cache_hits,
                "computed": report.computed,
                "failed": report.failed,
                "hit_rate": report.hit_rate,
                "store_failures": report.cache_store_failures,
                "load_failures": report.cache_load_failures,
            },
            "cells": cells,
            "tables": headline_tables(report.results),
            "telemetry": report.telemetry.to_dict()
            if report.telemetry is not None
            else None,
            "trace_path": trace_path,
        }
    )


def _execute_validate(request: Dict[str, object]) -> Dict[str, object]:
    from repro.core.advisor import LayoutAdvisor
    from repro.grid.spec import resolve_cost_model, resolve_workload

    workload = resolve_workload(request["workload"])
    advisor = LayoutAdvisor(cost_model=resolve_cost_model(request["cost_model"]))
    report = advisor.validate_costs(
        workload,
        rows=request["rows"],
        data_seed=request["data_seed"],
        include_baselines=request["include_baselines"],
        algorithms=request["algorithms"],
        backend=request["backend"],
        page_size=request["page_size"],
    )
    result: Dict[str, object] = {
        "workload": request["workload"],
        "backend": request["backend"],
        "rank_correlation": report.rank_correlation,
        "rows": report.to_rows(),
        "tables": report.describe(),
    }
    if report.backend.absolute:
        result["mean_absolute_relative_error"] = report.mean_absolute_relative_error
        result["max_absolute_relative_error"] = report.max_absolute_relative_error
    return _jsonable(result)


def execute_job(
    job: Job,
    cache_dir: Optional[str] = None,
    trace_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Execute one job on the calling thread and return its result dict.

    The dispatch target a :class:`JobRegistry` runner closes over; also
    usable directly (no HTTP, no registry) for tests and scripting.
    """
    with obs_trace.span("service.job", job=job.id, kind=job.kind):
        if job.cancel_event.is_set():
            # Cancelled between dequeue and execution (or the caller set the
            # event before running the job directly): stop before any work.
            raise JobCancelled(job.id)
        if job.kind == "recommend":
            return _execute_recommend(job.request)
        if job.kind == "compare":
            return _execute_compare(job, cache_dir, trace_dir)
        if job.kind == "validate":
            return _execute_validate(job.request)
        raise ServiceError(404, f"unknown job kind {job.kind!r}", "NotFound")
