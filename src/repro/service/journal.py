"""The job journal: an append-only write-ahead log of job state transitions.

PR 9's :class:`~repro.service.jobs.JobRegistry` kept every job in memory, so
a crash lost all job state — clients polling a job id after a restart got a
404, and work that was queued or running simply vanished.  The journal makes
the registry durable: every transition is appended to one JSONL file before
it becomes client-visible, and on startup the registry *replays* the file —
terminal jobs come back with their results, and jobs that were ``queued`` or
``running`` when the process died are re-enqueued, so ``kill -9`` mid-job
followed by a restart converges to the same answers with no client-visible
loss (the grid's persistent :class:`~repro.grid.cache.ResultCache` makes the
re-run cheap: completed cells are cache hits).

Design points, mirroring the result cache's philosophy
(``docs/ROBUSTNESS.md``):

* **Atomic appends.**  Each record is one canonical-JSON line written with a
  single ``write`` + ``flush`` under a lock.  A crash can tear at most the
  final line.
* **Torn-tail tolerance.**  Replay parses line by line; an unparseable line
  is counted and skipped (``service.journal.torn``), never trusted and never
  fatal.  The next compaction rewrites the file clean.
* **Duplicate / out-of-order tolerance.**  Replay is a deterministic fold
  over the record sequence (rules below), so replaying a journal containing
  duplicated or re-ordered records still converges to a consistent registry
  state — the property the round-trip test suite exercises.
* **Degradation over failure.**  An ``OSError`` while appending (disk full,
  permissions, an injected ``journal.append`` fault) increments
  ``service.journal.append_failures``, warns once, and the service keeps
  running; durability degrades, availability does not.
* **Periodic compaction.**  After :attr:`compact_every` appends the registry
  snapshots every live job as one ``snapshot`` record into a temp file and
  atomically replaces the journal (``os.replace``), bounding file growth at
  roughly one record per known job.

Replay fold rules (applied in file order):

========================  =====================================================
``submitted``/``snapshot``  create the job if unknown; a duplicate
                            ``submitted`` bumps ``submissions`` and — when the
                            job is in a retryable terminal state (``failed`` /
                            ``cancelled``) — resets it to ``queued``
``requeued``                reset the job to ``queued`` (failed-job
                            resubmission); ``force: true`` also resets the
                            consecutive-failure count
``running``                 mark a ``queued`` job ``running`` (ignored
                            otherwise — terminal states are sticky)
``done``/``failed``/        force the terminal state (latest terminal record
``cancelled``               wins); ``done`` carries the result inline and
                            resets the consecutive-failure count, ``failed``
                            adds one to it (the circuit breaker's input)
``cancel-requested``        flag the job; a job still non-terminal when replay
                            ends resolves to ``cancelled`` (the client already
                            asked for it — re-running would resurrect work the
                            client abandoned)
========================  =====================================================

Records for unknown job ids (an event whose ``submitted`` line was torn) are
dropped and counted — a registry can only re-enqueue work it can rebuild the
request for.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, TextIO

from repro import faults
from repro.grid.cache import canonical_json
from repro.obs import metrics as obs_metrics

#: Bump when the record schema changes incompatibly; old journals then replay
#: only the records they can still interpret.
FORMAT_VERSION = 1

#: Journal file name placed under the service's cache/journal directory.
DEFAULT_FILENAME = "service-journal.jsonl"

#: Events a journal record may carry (see the module docstring for the fold).
EVENTS = (
    "submitted",
    "requeued",
    "running",
    "done",
    "failed",
    "cancelled",
    "cancel-requested",
    "snapshot",
)

#: Terminal job states as recorded by the journal.
_TERMINAL = ("done", "failed", "cancelled")

# Journal health counters (docs/OBSERVABILITY.md).
_APPENDS = obs_metrics.counter("service.journal.appends")
_APPEND_FAILURES = obs_metrics.counter("service.journal.append_failures")
_COMPACTIONS = obs_metrics.counter("service.journal.compactions")
_REPLAYED = obs_metrics.counter("service.journal.replayed")
_TORN = obs_metrics.counter("service.journal.torn")
_DROPPED = obs_metrics.counter("service.journal.dropped")


@dataclass
class ReplayedJob:
    """One job's state as reconstructed by :meth:`JobJournal.replay`."""

    id: str
    kind: str
    request: Dict[str, object]
    state: str = "queued"
    submissions: int = 1
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, str]] = None
    cancel_requested: bool = False
    consecutive_failures: int = 0


@dataclass
class JournalReplay:
    """Everything :meth:`JobJournal.replay` reconstructed, plus accounting."""

    #: Jobs in first-submission order (dict preserves insertion order).
    jobs: Dict[str, ReplayedJob] = field(default_factory=dict)
    #: Records successfully applied.
    records: int = 0
    #: Unparseable lines skipped (torn tail, corruption).
    torn: int = 0
    #: Parseable records dropped (unknown job id, unknown event, bad shape).
    dropped: int = 0

    @property
    def interrupted(self) -> List[ReplayedJob]:
        """Jobs that were ``queued``/``running`` at the crash — re-enqueue."""
        return [
            job for job in self.jobs.values() if job.state in ("queued", "running")
        ]


class JobJournal:
    """Append-only JSONL write-ahead log of job transitions at one path.

    Thread-safe: appends serialise on an internal lock (the registry already
    appends under its own lock, but the journal does not rely on that).  The
    file handle stays open between appends and is reopened after a failed
    write, so one bad write (injected or real) does not poison the handle.
    """

    def __init__(self, path: str, compact_every: int = 512) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.path = str(path)
        self.compact_every = compact_every
        self._lock = threading.Lock()
        self._handle: Optional[TextIO] = None
        self._appends_since_compaction = 0
        self._warned = False
        #: Instance accounting (process-global mirrors in the obs registry).
        self.appends = 0
        self.append_failures = 0
        self.compactions = 0

    # -- appending -------------------------------------------------------------

    def append(self, event: str, job_id: str, **fields: object) -> bool:
        """Append one transition record; returns whether the write landed.

        Never raises for I/O problems: a failed append is counted, warned
        about once, and the service continues (durability degrades,
        availability does not).  ``fields`` must be JSON-serialisable.
        """
        if event not in EVENTS:
            raise ValueError(f"unknown journal event {event!r}; valid: {list(EVENTS)}")
        record = {"format": FORMAT_VERSION, "event": event, "job": job_id,
                  "at": time.time(), **fields}
        line = canonical_json(record)
        with self._lock:
            try:
                faults.trigger("journal.append")
                handle = self._open()
                handle.write(line + "\n")
                handle.flush()
            except OSError as error:
                self._note_failure(error)
                return False
            self.appends += 1
            _APPENDS.value += 1
            self._appends_since_compaction += 1
            return True

    @property
    def should_compact(self) -> bool:
        """Whether enough appends accumulated to warrant a compaction."""
        with self._lock:
            return self._appends_since_compaction >= self.compact_every

    def compact(self, snapshots: Iterable[Dict[str, object]]) -> bool:
        """Atomically rewrite the journal as one ``snapshot`` record per job.

        ``snapshots`` are the *authoritative* current job states (the
        registry builds them under its lock); the journal itself never
        decides what survives compaction.  Returns whether the rewrite
        landed; failures degrade exactly like failed appends.
        """
        records = [
            canonical_json({"format": FORMAT_VERSION, "event": "snapshot",
                            **snapshot})
            for snapshot in snapshots
        ]
        with self._lock:
            try:
                self._close()
                directory = os.path.dirname(self.path) or "."
                os.makedirs(directory, exist_ok=True)
                fd, temp_path = tempfile.mkstemp(
                    prefix=".journal-", suffix=".tmp", dir=directory
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as temp:
                        for record in records:
                            temp.write(record + "\n")
                    os.replace(temp_path, self.path)
                except OSError:
                    try:
                        os.unlink(temp_path)
                    except OSError:
                        pass
                    raise
            except OSError as error:
                self._note_failure(error)
                return False
            self._appends_since_compaction = 0
            self.compactions += 1
            _COMPACTIONS.value += 1
            return True

    def close(self) -> None:
        """Close the underlying file handle (appends reopen it on demand)."""
        with self._lock:
            self._close()

    # -- replay ----------------------------------------------------------------

    def replay(self) -> JournalReplay:
        """Fold the journal file into per-job states (see module docstring).

        A missing journal file is an empty replay, not an error — first boot
        and journal-less operation look identical.
        """
        replay = JournalReplay()
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return replay
        except OSError as error:
            self._note_failure(error)
            return replay
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A torn final line is expected after a crash; garbage in the
                # middle is treated identically — skipped, counted, rewritten
                # away by the next compaction.
                replay.torn += 1
                _TORN.value += 1
                continue
            if self._apply(replay, record):
                replay.records += 1
                _REPLAYED.value += 1
            else:
                replay.dropped += 1
                _DROPPED.value += 1
        # A cancel request that never landed resolves to cancelled: the
        # client abandoned the job; re-running it would resurrect abandoned
        # work with no poller.
        for job in replay.jobs.values():
            if job.cancel_requested and job.state not in _TERMINAL:
                job.state = "cancelled"
                if job.finished_at is None:
                    job.finished_at = job.submitted_at
        return replay

    # -- internals -------------------------------------------------------------

    def _open(self) -> TextIO:
        if self._handle is None or self._handle.closed:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def _note_failure(self, error: OSError) -> None:
        self.append_failures += 1
        _APPEND_FAILURES.value += 1
        self._close()  # reopen fresh on the next append
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"job journal degraded: {type(error).__name__}: {error} "
                f"(path {self.path}; subsequent journal I/O failures are "
                f"counted but not re-warned)",
                RuntimeWarning,
                stacklevel=3,
            )

    @staticmethod
    def _apply(replay: JournalReplay, record: object) -> bool:
        """Apply one parsed record to the fold; returns whether it counted."""
        if not isinstance(record, dict):
            return False
        event = record.get("event")
        job_id = record.get("job")
        if event not in EVENTS or not isinstance(job_id, str) or not job_id:
            return False
        job = replay.jobs.get(job_id)
        if event in ("submitted", "snapshot"):
            kind = record.get("kind")
            request = record.get("request")
            if not isinstance(kind, str) or not isinstance(request, dict):
                return False
            if job is None:
                job = ReplayedJob(
                    id=job_id,
                    kind=kind,
                    request=request,
                    submitted_at=record.get("at"),
                )
                replay.jobs[job_id] = job
                if event == "snapshot":
                    job.state = str(record.get("state", "queued"))
                    if job.state not in ("queued", "running", *_TERMINAL):
                        job.state = "queued"
                    job.submissions = int(record.get("submissions", 1))
                    job.submitted_at = record.get("submitted_at", job.submitted_at)
                    job.started_at = record.get("started_at")
                    job.finished_at = record.get("finished_at")
                    result = record.get("result")
                    job.result = result if isinstance(result, dict) else None
                    error = record.get("error")
                    job.error = error if isinstance(error, dict) else None
                    job.cancel_requested = bool(
                        record.get("cancel_requested", False)
                    )
                    job.consecutive_failures = int(
                        record.get("consecutive_failures", 0)
                    )
                return True
            # Duplicate submission: mirrors the registry's resubmission
            # semantics — bump the count; reset retryable terminal states.
            job.submissions += 1
            if job.state in ("failed", "cancelled"):
                _reset_to_queued(job)
            return True
        if job is None:
            # An event for a job whose submission record was lost: there is
            # no request to re-run, so the record cannot be honoured.
            return False
        if event == "requeued":
            job.submissions += 1
            _reset_to_queued(job)
            if record.get("force"):
                job.consecutive_failures = 0
            return True
        if event == "running":
            if job.state == "queued":
                job.state = "running"
                job.started_at = record.get("at")
            return True
        if event == "cancel-requested":
            job.cancel_requested = True
            return True
        if event in _TERMINAL:
            job.state = event
            job.finished_at = record.get("at")
            if event == "done":
                result = record.get("result")
                job.result = result if isinstance(result, dict) else None
                job.error = None
                job.consecutive_failures = 0
            elif event == "failed":
                error = record.get("error")
                job.error = (
                    error
                    if isinstance(error, dict)
                    else {"type": "UnknownError", "message": "journal record "
                          "carried no error detail"}
                )
                job.result = None
                job.consecutive_failures += 1
            else:  # cancelled
                job.result = None
                job.error = None
            return True
        return False  # pragma: no cover - every EVENTS member handled above


def _reset_to_queued(job: ReplayedJob) -> None:
    job.state = "queued"
    job.started_at = None
    job.finished_at = None
    job.result = None
    job.error = None
    job.cancel_requested = False


def snapshot_record(job: "object") -> Dict[str, object]:
    """One compaction ``snapshot`` record for a registry :class:`Job`.

    Defined here (not on ``Job``) so the journal owns its on-disk schema;
    the registry passes live ``Job`` objects under its lock.
    """
    return {
        "job": job.id,
        "kind": job.kind,
        "request": job.request,
        "state": job.state,
        "submissions": job.submissions,
        "submitted_at": job.submitted_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "result": job.result,
        "error": job.error,
        "cancel_requested": job.cancel_requested,
        "consecutive_failures": job.consecutive_failures,
    }
