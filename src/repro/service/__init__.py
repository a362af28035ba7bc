"""The advisor as a service: an HTTP API over the grid scheduling core.

The library's entry points — :meth:`~repro.core.advisor.LayoutAdvisor
.recommend`, :meth:`~repro.core.advisor.LayoutAdvisor.compare`,
:meth:`~repro.core.advisor.LayoutAdvisor.validate_costs` — become remotely
consumable without adding a single dependency: the server is
``http.server.ThreadingHTTPServer``, requests and responses are JSON, and
long-running grid runs become *async jobs* polled by id.  See
``docs/SERVICE.md`` for the endpoint reference; quick orientation:

* :mod:`repro.service.jobs` — request normalisation, the content-hash job
  dedup key, the :class:`JobRegistry` (worker threads over a queue) and the
  per-kind executors that call into the existing library code
  (:func:`repro.grid.runner.run_grid` is the scheduling core; nothing is
  reimplemented).
* :mod:`repro.service.journal` — the job state machine and its log: the
  :class:`Job` record, :func:`~repro.service.journal.apply` (every
  transition rule; the registry applies an event, then journals it) and the
  :class:`JobJournal`, an append-only JSONL write-ahead log replayed through
  the same ``apply`` at startup, so a crashed or killed service restarts
  serving the same job documents (interrupted jobs re-enqueued).
* :mod:`repro.service.app` — the HTTP layer: routes, JSON error envelopes,
  pagination, liveness/readiness health, backpressure (429 + Retry-After),
  job cancellation, graceful shutdown.
* ``python -m repro.service`` — the CLI (:mod:`repro.service.__main__`).

The chaos suite drives journal I/O failures, worker-thread death and slow
jobs through the ``journal.append`` and ``job.start`` sites of
:mod:`repro.faults` (``REPRO_FAULTS``).

Two layers of result reuse stack up:

1. **Job dedup** (registry lifetime): the job id is the SHA-256 content hash
   of the normalised request, so two clients submitting the same spec share
   one job — one computation, two pollers.
2. **Result cache** (persistent): compare jobs run through the grid's
   :class:`~repro.grid.cache.ResultCache`, so a resubmission after a server
   restart recomputes nothing — every cell is a cache hit.

Concurrent jobs share one :func:`~repro.cost.evaluator.enable_cache_sharing`
evaluator pool per schema (switched on at server construction), mirroring
what grid worker processes do.
"""

from repro.service.app import (
    DEFAULT_PORT,
    LayoutAdvisorService,
    ServiceConfig,
    create_service,
)
from repro.service.jobs import (
    DEFAULT_BREAKER_THRESHOLD,
    JOB_KINDS,
    JOB_STATES,
    Job,
    JobCancelled,
    JobRegistry,
    ServiceError,
    execute_job,
    job_id_for,
    normalize_request,
)
from repro.service.journal import JobJournal, JournalReplay

__all__ = [
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_PORT",
    "JOB_KINDS",
    "JOB_STATES",
    "Job",
    "JobCancelled",
    "JobJournal",
    "JobRegistry",
    "JournalReplay",
    "LayoutAdvisorService",
    "ServiceConfig",
    "ServiceError",
    "create_service",
    "execute_job",
    "job_id_for",
    "normalize_request",
]
