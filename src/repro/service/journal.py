"""The job journal and the job state machine it records.

A :class:`Job` changes state only through :func:`apply`, the one home of
every transition rule.  The live :class:`~repro.service.jobs.JobRegistry`
builds one event, applies it to its job, then appends that same event to
one JSONL file before it becomes client-visible; on startup the registry
*replays* the file by folding :func:`apply` over its records.  A restarted
service therefore serves every job document unchanged — terminal jobs with
their results — except that jobs ``queued`` or ``running`` when the process
died are re-enqueued, so ``kill -9`` mid-job followed by a restart converges
to the same answers (the grid's persistent
:class:`~repro.grid.cache.ResultCache` makes the re-run cheap: completed
cells are cache hits).

Design points, mirroring the result cache's philosophy
(``docs/ROBUSTNESS.md``):

* **Atomic appends.**  Each record is one canonical-JSON line written with a
  single ``write`` + ``flush`` under a lock.  A crash can tear at most the
  final line.
* **Torn-tail tolerance.**  Replay parses line by line; an unparseable line
  is counted and skipped (``service.journal.torn``), never trusted and never
  fatal.  The next compaction rewrites the file clean.
* **Duplicate / out-of-order tolerance.**  Replay is a deterministic fold of
  :func:`apply` over the record sequence, so replaying a journal containing
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
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, TextIO

from repro import faults
from repro.grid.cache import canonical_json
from repro.obs import metrics as obs_metrics

#: Bump when the record schema changes incompatibly; old journals then replay
#: only the records they can still interpret.
FORMAT_VERSION = 1

#: Journal file name placed under the service's cache/journal directory.
DEFAULT_FILENAME = "service-journal.jsonl"

#: Events a journal record may carry (see :func:`apply` for their rules).
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

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Terminal job states.
_TERMINAL = ("done", "failed", "cancelled")

# Journal health counters (docs/OBSERVABILITY.md).
_APPENDS = obs_metrics.counter("service.journal.appends")
_APPEND_FAILURES = obs_metrics.counter("service.journal.append_failures")
_COMPACTIONS = obs_metrics.counter("service.journal.compactions")
_REPLAYED = obs_metrics.counter("service.journal.replayed")
_TORN = obs_metrics.counter("service.journal.torn")
_DROPPED = obs_metrics.counter("service.journal.dropped")


@dataclass
class Job:
    """One submitted request and everything known about its execution.

    The durable fields — the ones :func:`snapshot_record` writes — change
    only through :func:`apply`.  ``generation`` and ``cancel_event`` are
    runtime-only: the registry owns them and the journal never sees them.
    """

    id: str
    kind: str
    request: Dict[str, object]
    state: str = "queued"
    submitted_at: Optional[float] = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: How many times this job has been submitted (dedup hits included).
    submissions: int = 1
    result: Optional[Dict[str, object]] = None
    #: ``{"type": ..., "message": ...}`` for failed jobs.
    error: Optional[Dict[str, str]] = None
    #: Set when a client cancelled the job; a running job's runner stops it
    #: (the service kills its job process) and the outcome is recorded as
    #: cancelled.
    cancel_requested: bool = False
    #: Consecutive failed runs (circuit-breaker input; reset on success).
    consecutive_failures: int = 0
    #: Transition guard: bumped whenever the registry takes the job away from
    #: whatever thread last owned it (requeue, timeout, queued-cancel).  A
    #: worker finalising with a stale generation is discarded.
    generation: int = 0
    #: Cancellation signal for the job's runner: the service kills the
    #: job's process on it.  Replaced with a fresh event on every requeue.
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in _TERMINAL

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


def apply(
    job: Optional[Job], event: str, fields: Mapping[str, object]
) -> Optional[Job]:
    """Apply one transition event to ``job``; every state rule lives here.

    ``job`` is the job before the event, ``None`` when it is not known yet.
    ``fields`` are the record's fields: ``job`` (the id, read only to create
    a job), ``at`` (when the event happened) and the event's own payload.
    Returns the job after the event — a new one for a first ``submitted`` or
    ``snapshot`` — or ``None`` when the record cannot be honoured: an
    unknown event, a submission without a kind and request, or an event for
    a job whose submission record was lost (there is no request to re-run).

    The live registry checks its own preconditions first (the generation
    guard, a ``running`` job for an outcome, queued versus running for a
    cancel), then applies one event and journals it; replay folds this
    function over the journal in file order.  The rules tolerate duplicated,
    reordered and torn records:

    ==========================  ===============================================
    ``submitted``/``snapshot``  create the job if unknown (a ``snapshot``
                                restores every durable field); a duplicate
                                (the registry journals one per dedup hit)
                                bumps ``submissions`` and resets a ``failed``
                                or ``cancelled`` job to ``queued``
    ``requeued``                bump ``submissions`` and reset the job to
                                ``queued`` (failed-job resubmission);
                                ``force: true`` also resets the
                                consecutive-failure count
    ``running``                 mark a ``queued`` job ``running`` (ignored
                                otherwise — terminal states are sticky)
    ``done``/``failed``/        force the terminal state (latest terminal
    ``cancelled``               record wins); ``done`` carries the result
                                inline and resets the consecutive-failure
                                count, ``failed`` adds one to it (the circuit
                                breaker's input), ``cancelled`` sets
                                ``cancel_requested``
    ``cancel-requested``        flag the job; a job still non-terminal when
                                replay ends resolves to ``cancelled`` (the
                                client already asked for it — re-running would
                                resurrect work the client abandoned)
    ==========================  ===============================================

    A reset to ``queued`` clears the run's timestamps, result, error and
    cancel request.
    """
    at = fields.get("at")
    if event in ("submitted", "snapshot"):
        kind, request = fields.get("kind"), fields.get("request")
        if not isinstance(kind, str) or not isinstance(request, dict):
            return None
        if job is None:
            job = Job(id=fields["job"], kind=kind, request=request, submitted_at=at)
            if event == "snapshot":
                state = fields.get("state")
                result, error = fields.get("result"), fields.get("error")
                job.state = state if state in JOB_STATES else "queued"
                job.submissions = int(fields.get("submissions", 1))
                job.submitted_at = fields.get("submitted_at", at)
                job.started_at = fields.get("started_at")
                job.finished_at = fields.get("finished_at")
                job.result = result if isinstance(result, dict) else None
                job.error = error if isinstance(error, dict) else None
                job.cancel_requested = bool(fields.get("cancel_requested", False))
                job.consecutive_failures = int(fields.get("consecutive_failures", 0))
            return job
        job.submissions += 1
        if job.state not in ("failed", "cancelled"):
            return job
    elif job is None:
        return None
    elif event == "requeued":
        job.submissions += 1
        if fields.get("force"):
            job.consecutive_failures = 0
    elif event == "running":
        if job.state == "queued":
            job.state = "running"
            job.started_at = at
        return job
    elif event == "cancel-requested":
        job.cancel_requested = True
        return job
    elif event in _TERMINAL:
        job.state = event
        job.finished_at = at
        job.result = None
        job.error = None
        if event == "done":
            result = fields.get("result")
            job.result = result if isinstance(result, dict) else None
            job.consecutive_failures = 0
        elif event == "failed":
            error = fields.get("error")
            job.error = (
                error
                if isinstance(error, dict)
                else {"type": "UnknownError", "message": "journal record "
                      "carried no error detail"}
            )
            job.consecutive_failures += 1
        else:
            job.cancel_requested = True
        return job
    else:
        return None
    # A resubmission of a failed or cancelled job: back to queued.
    job.state = "queued"
    job.started_at = None
    job.finished_at = None
    job.result = None
    job.error = None
    job.cancel_requested = False
    return job


@dataclass
class JournalReplay:
    """Everything :meth:`JobJournal.replay` reconstructed, plus accounting."""

    #: Jobs in first-submission order (dict preserves insertion order).
    jobs: Dict[str, Job] = field(default_factory=dict)
    #: Records successfully applied.
    records: int = 0
    #: Unparseable lines skipped (torn tail, corruption).
    torn: int = 0
    #: Parseable records dropped (unknown job id, unknown event, bad shape).
    dropped: int = 0

    @property
    def interrupted(self) -> List[Job]:
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
        """Fold :func:`apply` over the journal file's records, in file order.

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
            job_id = record.get("job") if isinstance(record, dict) else None
            job = None
            if isinstance(job_id, str) and job_id:
                job = apply(replay.jobs.get(job_id), record.get("event"), record)
            if job is None:
                replay.dropped += 1
                _DROPPED.value += 1
                continue
            replay.jobs[job.id] = job
            replay.records += 1
            _REPLAYED.value += 1
        # A cancel request that never landed resolves to cancelled: the
        # client abandoned the job; re-running it would resurrect abandoned
        # work with no poller.
        for job in replay.jobs.values():
            if job.cancel_requested and not job.finished:
                apply(job, "cancelled", {"at": job.finished_at or job.submitted_at})
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


def snapshot_record(job: Job) -> Dict[str, object]:
    """One compaction ``snapshot`` record: the job's durable fields.

    Applying it as a ``snapshot`` event to an unknown job restores them all;
    the registry passes live jobs under its lock.
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
