"""The grid runner: cached, resumable, fault-tolerant, optionally parallel.

:func:`run_grid` takes a :class:`~repro.grid.spec.GridSpec` and

1. resolves every workload and cost model once in the parent process to
   fingerprint each cell and derive its cache key,
2. serves every cell the cache can answer (missing/corrupt/stale entries are
   treated as misses — see :mod:`repro.grid.cache`),
3. executes the remaining cells either in-process (``workers <= 1``) or
   across a supervised set of persistent worker processes that share memoized
   :class:`~repro.cost.evaluator.CostEvaluator` caches per schema,
4. persists each fresh result (cache writes happen only in the parent, so
   concurrent workers never race on files), and
5. returns a :class:`GridReport` ordered by the spec's canonical cell order —
   independent of completion order, so serial and parallel runs produce
   identical reports.

Failure semantics (``docs/ROBUSTNESS.md`` is the full reference):

* A cell that raises is **quarantined**: after its retry budget is exhausted
  it becomes a :class:`CellFailure` carried inside its :class:`CellResult`,
  and the run continues.  Under ``fail_fast=True`` the first exhausted cell
  aborts the run with :class:`~repro.grid.spec.GridExecutionError` instead
  (already-completed cells are in the cache either way).
* Retries follow capped exponential backoff with *deterministic* jitter
  (:class:`RetryPolicy`): the delay before retrying a cell depends only on
  the cell label and the attempt number, never on a random source, so runs
  are reproducible.
* Parallel runs enforce a per-cell wall-clock ``cell_timeout``.  Each worker
  is a :class:`repro.supervised.Supervised` process, and the supervisor
  checks deadlines while waiting for answers, so a hung cell is killed and
  quarantined, and a worker that dies without answering (crash, OOM kill) is
  detected by its process sentinel rather than hanging the run the way
  ``pool.imap_unordered`` did.
  Serial runs execute cells in the calling process and cannot preempt them;
  ``cell_timeout`` is ignored there (with a warning).
* Cache degradation: an unwritable or unreadable cache never kills a run —
  see :meth:`repro.grid.cache.ResultCache.store`.

Interrupting a run loses only the cells in flight: everything already stored
is served from the cache on the next invocation, which is what makes large
grids resumable.  Deterministic fault injection for every path above lives in
:mod:`repro.faults`.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
import warnings
from collections import deque
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro import faults, supervised
from repro.cost.evaluator import clear_shared_caches, enable_cache_sharing
from repro.faults import FaultPlan, WorkerThreadDeath, injected
from repro.grid import worker as grid_worker
from repro.grid.aggregate import headline_tables
from repro.grid.cache import ResultCache, cell_inputs, content_key
from repro.grid.spec import (
    GridCell,
    GridError,
    GridExecutionError,
    GridSpec,
    resolve_cost_model,
    resolve_workload,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.summary import RunTelemetry

#: Default base delay (seconds) of the retry backoff schedule.
DEFAULT_RETRY_BACKOFF = 0.05

# Supervisor-side fault and throughput counters (docs/OBSERVABILITY.md).
_RETRY_ATTEMPTS = obs_metrics.counter("grid.retry.attempts")
_RETRY_BACKOFF = obs_metrics.histogram("grid.retry.backoff_seconds")
_WORKER_CRASHES = obs_metrics.counter("grid.worker.crashes")
_CELL_TIMEOUTS = obs_metrics.counter("grid.cell.timeouts")
_CELLS_COMPUTED = obs_metrics.counter("grid.cells.computed")
_CELLS_FAILED = obs_metrics.counter("grid.cells.failed")

#: How long the parallel supervisor blocks waiting for worker answers before
#: re-checking deadlines and pending retries.
_POLL_SECONDS = 0.05

#: Wall-clock bound (seconds) on a worker's start-up, from process start to
#: its ready message, armed when ``cell_timeout`` is set.  A spawned worker
#: needs about half a second; this bound catches only a hung start.
WORKER_START_TIMEOUT = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell retry budget and its deterministic backoff schedule.

    A cell gets ``retries`` extra attempts after its first.  The delay before
    retry ``attempt + 1`` is ``backoff_base * 2**(attempt-1)`` capped at
    ``backoff_cap``, scaled by a jitter factor in ``[0.5, 1.0]`` derived by
    hashing ``(cell label, attempt)`` — deterministic per cell and attempt
    (reruns behave identically), yet decorrelated across cells (a batch of
    failures does not retry in lockstep).
    """

    retries: int = 0
    backoff_base: float = DEFAULT_RETRY_BACKOFF
    backoff_cap: float = 5.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")

    @property
    def max_attempts(self) -> int:
        """Total attempts a cell may use (first try + retries)."""
        return self.retries + 1

    def delay(self, label: str, attempt: int) -> float:
        """Seconds to wait before retrying ``label`` after failed ``attempt``."""
        if self.backoff_base <= 0:
            return 0.0
        raw = min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 1)))
        digest = hashlib.sha256(f"{label}#{attempt}".encode("utf-8")).digest()
        jitter = 0.5 + (digest[0] / 255.0) * 0.5
        return raw * jitter


@dataclass(frozen=True)
class CellFailure:
    """Why one grid cell is quarantined: the failure as a first-class value.

    ``error_type`` is the exception class name for in-cell errors, or one of
    the supervisor's synthetic kinds: ``"WorkerCrash"`` (the worker process
    died without answering), ``"CellTimeout"`` (the cell exceeded the
    per-cell wall-clock budget and its worker was killed) and
    ``"WorkerStartTimeout"`` (the attempt's worker did not start within
    :data:`WORKER_START_TIMEOUT` and was killed).  ``attempts`` is how many
    attempts were spent before giving up.
    """

    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.error_type} after {self.attempts} attempt(s): {self.message}"
        )


@dataclass(frozen=True)
class CellResult:
    """One grid cell's outcome: a payload, a cache hit, or a quarantined failure."""

    cell: GridCell
    key: str
    payload: Optional[Dict[str, object]]
    cached: bool
    #: Attempts spent on the cell this run (1 for cache hits and first-try
    #: successes; > 1 means retries happened).
    attempts: int = 1
    #: ``None`` for successful cells; the quarantined failure otherwise.
    failure: Optional[CellFailure] = None

    @property
    def ok(self) -> bool:
        """Whether the cell produced a payload (fresh or cached)."""
        return self.failure is None

    def _require_payload(self) -> Dict[str, object]:
        if self.payload is None:
            detail = self.failure.describe() if self.failure else "no payload"
            raise ValueError(f"cell {self.cell.label} failed: {detail}")
        return self.payload

    @property
    def estimated_cost(self) -> float:
        """Estimated workload cost of the cell's layout."""
        return float(self._require_payload()["estimated_cost"])

    @property
    def layout(self) -> List[Tuple[str, ...]]:
        """The layout as tuples of attribute names (canonical order)."""
        return [tuple(group) for group in self._require_payload()["layout"]]

    @property
    def execution(self) -> Optional[Dict[str, object]]:
        """The execution-backend section (deterministic facts; wall clock is
        in ``payload["timing"]``), or ``None`` for failed or estimated cells
        and models the backend cannot execute (e.g. main-memory, measured).
        """
        if self.payload is None:
            return None
        section = self.payload.get(self.cell.backend)
        if isinstance(section, dict) and section.get("supported"):
            return section
        return None


@dataclass
class GridReport:
    """All cell results of one grid run plus the cache accounting."""

    spec: GridSpec
    results: List[CellResult]
    cache: Optional[ResultCache] = None
    #: Run-level telemetry (phase timings, fault counts, metrics delta);
    #: always attached by :func:`run_grid`, ``None`` only for hand-built
    #: reports.
    telemetry: Optional[RunTelemetry] = None

    @property
    def cache_hits(self) -> int:
        """Cells served from the cache."""
        return sum(1 for result in self.results if result.cached)

    @property
    def computed(self) -> int:
        """Cells executed fresh and successfully."""
        return sum(
            1 for result in self.results if not result.cached and result.ok
        )

    @property
    def failures(self) -> List[CellResult]:
        """The quarantined cells (empty for a fully successful run)."""
        return [result for result in self.results if result.failure is not None]

    @property
    def failed(self) -> int:
        """Number of quarantined cells."""
        return len(self.failures)

    @property
    def ok(self) -> bool:
        """Whether every cell of the grid produced a result."""
        return self.failed == 0

    @property
    def hit_rate(self) -> float:
        """Fraction of cells served from the cache."""
        return self.cache_hits / len(self.results) if self.results else 0.0

    @property
    def cache_store_failures(self) -> int:
        """Cache writes that failed with I/O errors this run (0 without a cache)."""
        return self.cache.store_failures if self.cache is not None else 0

    @property
    def cache_load_failures(self) -> int:
        """Cache reads that failed with I/O errors this run (0 without a cache)."""
        return self.cache.load_failures if self.cache is not None else 0

    @property
    def cache_degraded(self) -> bool:
        """Whether the result cache hit any I/O failure during the run."""
        return bool(self.cache_store_failures or self.cache_load_failures)

    def cell(
        self,
        algorithm: str,
        workload: str,
        cost_model: str,
        backend: Optional[str] = None,
    ) -> CellResult:
        """The result of one (algorithm, workload, cost model) combination.

        ``backend`` disambiguates reports containing both an estimated and a
        measured cell for the same combination; leaving it ``None`` is only
        valid when a single backend matches.
        """
        matches = [
            result
            for result in self.results
            if result.cell.algorithm == algorithm
            and result.cell.workload == workload
            and result.cell.cost_model == cost_model
            and (backend is None or result.cell.backend == backend)
        ]
        if not matches:
            suffix = f" [{backend}]" if backend is not None else ""
            raise KeyError(
                f"grid has no cell {algorithm}/{workload}/{cost_model}{suffix}"
            )
        backends = {result.cell.backend for result in matches}
        if backend is None and len(backends) > 1:
            raise KeyError(
                f"cell {algorithm}/{workload}/{cost_model} is ambiguous: "
                f"present under backends {sorted(backends)}; pass backend="
            )
        return matches[0]

    def accounting(self) -> str:
        """The cache-hit accounting line (also printed by the CLI)."""
        failed = f", {self.failed} failed" if self.failed else ""
        return (
            f"cells: {self.cache_hits} cached, {self.computed} computed{failed} "
            f"({self.hit_rate * 100:.1f}% cache hits)"
        )

    def describe(self) -> str:
        """Shape line, cache line, and the headline tables."""
        lines = [self.spec.describe()]
        if self.cache is not None:
            lines.append(self.cache.describe())
        lines.append(self.accounting())
        lines.append("")
        lines.append(headline_tables(self.results))
        return "\n".join(lines)


# -- execution ------------------------------------------------------------------


@dataclass
class _Worker:
    """The supervisor's view of one persistent worker process."""

    process: supervised.Supervised
    #: The in-flight ``(cell, attempt)``, or ``None`` when idle.
    task: Optional[Tuple[GridCell, int]] = None

    def assign(self, cell: GridCell, attempt: int) -> None:
        self.task = (cell, attempt)
        self.process.send(
            supervised.Task(
                grid_worker.execute_cell,
                (cell,),
                site=cell.label,
                occurrence=attempt,
                span="grid.cell",
                attrs={"cell": cell.label, "attempt": attempt},
                trace=(
                    obs_trace.task_seed(cell.label, attempt)
                    if obs_trace.enabled()
                    else None
                ),
            )
        )


class _GridExecutor:
    """Shared bookkeeping of one ``run_grid`` invocation's fresh cells."""

    def __init__(
        self,
        policy: RetryPolicy,
        fail_fast: bool,
        record: Callable[[GridCell, Optional[Dict[str, object]], int, Optional[CellFailure]], None],
        progress: Optional[Callable[[str], None]],
    ) -> None:
        self.policy = policy
        self.fail_fast = fail_fast
        self.record = record
        self.progress = progress
        self.abort: Optional[GridExecutionError] = None
        # Run-level fault accounting, surfaced through ``RunTelemetry``.
        self.retries = 0
        self.worker_crashes = 0
        self.cell_timeouts = 0

    def _progress(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def finish_success(
        self, cell: GridCell, payload: Dict[str, object], attempts: int
    ) -> None:
        _CELLS_COMPUTED.value += 1
        self.record(cell, payload, attempts, None)
        suffix = f" (attempt {attempts})" if attempts > 1 else ""
        self._progress(f"computed {cell.label}{suffix}")

    def finish_failure(
        self, cell: GridCell, error_type: str, message: str, attempts: int
    ) -> None:
        _CELLS_FAILED.value += 1
        failure = CellFailure(error_type, message, attempts)
        self.record(cell, None, attempts, failure)
        self._progress(f"failed   {cell.label}: {failure.describe()}")
        if self.fail_fast and self.abort is None:
            self.abort = GridExecutionError(cell.label, error_type, message, attempts)

    def should_retry(self, attempt: int) -> bool:
        return attempt < self.policy.max_attempts

    def note_retry(self, cell: GridCell, attempt: int, error_type: str) -> float:
        """Log a scheduled retry, returning its backoff delay."""
        delay = self.policy.delay(cell.label, attempt)
        self.retries += 1
        _RETRY_ATTEMPTS.value += 1
        _RETRY_BACKOFF.observe(delay)
        obs_trace.event(
            "grid.retry",
            cell=cell.label,
            attempt=attempt,
            error=error_type,
            delay=delay,
        )
        left = self.policy.max_attempts - attempt
        self._progress(
            f"retry    {cell.label}: attempt {attempt} failed "
            f"({error_type}); {left} attempt(s) left"
        )
        return delay

    def note_worker_crash(
        self, cell: GridCell, attempt: int, exitcode: Optional[int], wall: float
    ) -> None:
        """Attribute a worker death to its in-flight attempt.

        The attempt's real span records died with the worker, so a
        ``grid.cell`` span (error status, wall from the supervisor's clock)
        is synthesized into the trace next to the crash event — the trace
        still accounts for every attempt.
        """
        self.worker_crashes += 1
        _WORKER_CRASHES.value += 1
        obs_trace.event(
            "grid.worker-crash", cell=cell.label, attempt=attempt, exitcode=exitcode
        )
        obs_trace.emit_span(
            "grid.cell",
            wall,
            status="error",
            error=f"WorkerCrash: worker died (exit code {exitcode})",
            cell=cell.label,
            attempt=attempt,
            synthesized=True,
        )

    def note_cell_timeout(
        self, cell: GridCell, attempt: int, timeout: float, wall: float
    ) -> None:
        """Attribute a SIGKILLed over-budget attempt; see :meth:`note_worker_crash`."""
        self.cell_timeouts += 1
        _CELL_TIMEOUTS.value += 1
        obs_trace.event(
            "grid.cell-timeout", cell=cell.label, attempt=attempt, timeout=timeout
        )
        obs_trace.emit_span(
            "grid.cell",
            wall,
            status="error",
            error=f"CellTimeout: attempt exceeded {timeout:g}s",
            cell=cell.label,
            attempt=attempt,
            synthesized=True,
        )

    def note_worker_start_timeout(
        self, cell: GridCell, attempt: int, wall: float
    ) -> None:
        """Attribute an attempt whose worker never started; see
        :meth:`note_worker_crash`."""
        obs_trace.event(
            "grid.worker-start-timeout", cell=cell.label, attempt=attempt,
            timeout=WORKER_START_TIMEOUT,
        )
        obs_trace.emit_span(
            "grid.cell",
            wall,
            status="error",
            error=f"WorkerStartTimeout: no ready worker after {WORKER_START_TIMEOUT:g}s",
            cell=cell.label,
            attempt=attempt,
            synthesized=True,
        )


def _execute_serial(executor: _GridExecutor, pending: List[GridCell]) -> None:
    """Run pending cells in-process, with retries and quarantine.

    Wall-clock timeouts are not enforced here: the cell runs on the caller's
    own thread and cannot be preempted (``run_grid`` warns when a timeout is
    requested serially).  A ``die`` fault raises
    :class:`~repro.faults.WorkerThreadDeath` for the same reason, and the
    cell is quarantined like any other failure.
    """
    for cell in pending:
        attempt = 0
        while True:
            attempt += 1
            try:
                with obs_trace.span("grid.cell", cell=cell.label, attempt=attempt):
                    faults.trigger(cell.label, attempt)
                    payload = grid_worker.execute_cell(cell)
            except (Exception, WorkerThreadDeath) as error:
                error_type, message = type(error).__name__, str(error)
                if executor.should_retry(attempt):
                    delay = executor.note_retry(cell, attempt, error_type)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                executor.finish_failure(cell, error_type, message, attempt)
                break
            executor.finish_success(cell, payload, attempt)
            break
        if executor.abort is not None:
            raise executor.abort


def _execute_parallel(
    executor: _GridExecutor,
    pending: List[GridCell],
    workers: int,
    cell_timeout: Optional[float],
    mp_start_method: Optional[str],
) -> None:
    """Run pending cells across supervised persistent worker processes.

    The supervisor keeps at most one in-flight attempt per worker, so every
    answer (or death) is attributable to exactly one cell.  Each loop
    iteration: promote due retries, assign ready cells to idle workers
    (starting workers on demand up to ``workers``), block briefly on the busy
    workers, then collect each one's outcome.  A worker that died without
    answering is a ``WorkerCrash``; an attempt past its deadline gets its
    worker killed and is a ``CellTimeout`` — both feed the same
    retry-then-quarantine path as an in-cell exception.  A cell's clock
    starts once the worker reports ready, so start-up never counts against a
    cell; start-up has its own bound, :data:`WORKER_START_TIMEOUT`, armed as
    the worker starts, and a worker that misses it is killed and its attempt
    fails as a ``WorkerStartTimeout``.
    """
    context = multiprocessing.get_context(mp_start_method)
    ready: deque = deque((cell, 1) for cell in pending)
    waiting: List[Tuple[float, GridCell, int]] = []  # (not_before, cell, attempt)
    handles: List[_Worker] = []
    remaining = len(pending)
    started = 0

    def _start_worker() -> _Worker:
        nonlocal started
        started += 1
        return _Worker(
            supervised.Supervised(
                context,
                start_occurrence=started,
                start_timeout=WORKER_START_TIMEOUT if cell_timeout is not None else None,
            )
        )

    def _attempt_failed(
        handle_task: Tuple[GridCell, int], error_type: str, message: str
    ) -> None:
        nonlocal remaining
        cell, attempt = handle_task
        if executor.should_retry(attempt):
            delay = executor.note_retry(cell, attempt, error_type)
            waiting.append((time.monotonic() + delay, cell, attempt + 1))
        else:
            executor.finish_failure(cell, error_type, message, attempt)
            remaining -= 1

    def _reap(
        handle: _Worker,
        task: Tuple[GridCell, int],
        outcome: str,
        exitcode: Optional[int],
    ) -> None:
        """Fail the in-flight attempt of a dead (``outcome == "died"``) or
        over-budget worker, which is killed."""
        handles.remove(handle)
        cell, attempt = task
        wall = time.monotonic() - handle.process.clock
        handle.process.kill()
        if outcome == "died":
            executor.note_worker_crash(cell, attempt, exitcode, wall)
            error_type = "WorkerCrash"
            message = (
                f"worker process died without returning a result "
                f"(exit code {exitcode})"
            )
        elif handle.process.ready_at is None:
            executor.note_worker_start_timeout(cell, attempt, wall)
            error_type = "WorkerStartTimeout"
            message = (
                f"worker for attempt {attempt} did not start within "
                f"{WORKER_START_TIMEOUT:g}s; worker killed"
            )
        else:
            executor.note_cell_timeout(cell, attempt, cell_timeout, wall)
            error_type = "CellTimeout"
            message = (
                f"attempt {attempt} exceeded the cell timeout "
                f"({cell_timeout:g}s); worker killed"
            )
        _attempt_failed(task, error_type, message)

    try:
        while remaining > 0 and executor.abort is None:
            now = time.monotonic()
            if waiting:
                due = [item for item in waiting if item[0] <= now]
                if due:
                    waiting[:] = [item for item in waiting if item[0] > now]
                    ready.extend((cell, attempt) for _, cell, attempt in due)

            # Assign ready attempts to idle live workers, starting new ones on
            # demand; drop workers found dead while idle (already-answered).
            for handle in list(handles):
                if handle.task is None and not handle.process.alive:
                    handles.remove(handle)
                    handle.process.kill()
            for handle in handles:
                if ready and handle.task is None:
                    handle.assign(*ready.popleft())
            while ready and len(handles) < workers:
                handle = _start_worker()
                handles.append(handle)
                handle.assign(*ready.popleft())

            busy = [handle for handle in handles if handle.task is not None]
            if not busy:
                if waiting:
                    next_due = min(item[0] for item in waiting)
                    time.sleep(max(0.0, min(_POLL_SECONDS, next_due - time.monotonic())))
                continue

            by_process = {handle.process: handle for handle in busy}
            for process, (kind, detail) in supervised.wait(
                list(by_process), _POLL_SECONDS, task_timeout=cell_timeout
            ):
                handle = by_process[process]
                cell, attempt = task = handle.task
                handle.task = None
                if kind == "ok":
                    executor.finish_success(cell, detail, attempt)
                    remaining -= 1
                elif kind == "error":
                    _attempt_failed(task, *detail)
                else:
                    _reap(handle, task, kind, detail)
        if executor.abort is not None:
            raise executor.abort
    finally:
        for handle in handles:
            if handle.task is None:
                handle.process.close()
            else:
                handle.process.kill()


def run_grid(
    spec: GridSpec,
    cache_dir: Optional[str] = None,
    workers: int = 1,
    refresh: bool = False,
    mp_start_method: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    cell_timeout: Optional[float] = None,
    retries: Union[int, RetryPolicy] = 0,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    fail_fast: bool = False,
    faults: Optional[Union[FaultPlan, Mapping[str, object]]] = None,
    trace: Optional[str] = None,
) -> GridReport:
    """Execute a comparison grid, serving unchanged cells from the cache.

    Parameters
    ----------
    spec:
        The grid to run.
    cache_dir:
        Root of the persistent result cache; ``None`` disables caching.
    workers:
        Worker-process count for fresh cells; ``<= 1`` executes in-process.
    refresh:
        Recompute every cell even when a trusted cache entry exists (entries
        are overwritten with the fresh results).
    mp_start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``, ...);
        ``None`` uses the platform default.
    progress:
        Optional callback receiving one line per completed/retried/failed
        cell.
    cell_timeout:
        Per-cell wall-clock budget in seconds, counted from when the
        attempt's worker is ready (worker start-up never counts; it has its
        own bound, :data:`WORKER_START_TIMEOUT`, armed along with this one).
        Parallel runs kill the worker of an attempt that exceeds it and
        quarantine (or retry) the cell; serial runs cannot preempt a running
        cell, so the timeout is ignored there with a warning.
    retries:
        Extra attempts per failing cell (an ``int``), or a full
        :class:`RetryPolicy` for explicit backoff control.
    retry_backoff:
        Base backoff delay in seconds when ``retries`` is an ``int``
        (exponential per attempt, capped, deterministic jitter).
    fail_fast:
        Abort with :class:`~repro.grid.spec.GridExecutionError` on the first
        cell that exhausts its attempts, instead of quarantining it and
        continuing (the default, *keep going*).
    faults:
        Optional deterministic fault plan (:class:`~repro.faults.FaultPlan`
        or a plain mapping keyed by cell label) installed for the duration
        of the run — the test harness's entry point; see :mod:`repro.faults`.
    trace:
        Path of a JSONL trace file to write (``docs/OBSERVABILITY.md``) for
        the calling thread; another thread's run traces into its own file or
        not at all.  Every phase, cell attempt, retry, crash and timeout is
        recorded: each task sent to a worker process asks it to ship its
        spans back.  The run's metrics delta, worker counters included, is
        appended as the final record; it is taken from the process-global
        registry, so it also counts other threads' concurrent runs.
        ``None`` (the default) keeps tracing off — instrumented call sites
        stay no-op-cheap.

    Failed cells appear in the returned report as :class:`CellResult` rows
    with a :class:`CellFailure` (``report.failures``); failures are never
    written to the cache, so a rerun retries exactly the lost cells.  The
    report's :attr:`GridReport.telemetry` always carries a
    :class:`~repro.obs.summary.RunTelemetry` summary, traced or not.
    """
    policy = (
        retries
        if isinstance(retries, RetryPolicy)
        else RetryPolicy(retries=retries, backoff_base=retry_backoff)
    )
    if cell_timeout is not None and cell_timeout <= 0:
        raise GridError("cell_timeout must be > 0 seconds")
    if cell_timeout is not None and workers <= 1:
        warnings.warn(
            "cell_timeout is only enforced by parallel runs (workers >= 2); "
            "serial cells run in-process and cannot be preempted",
            RuntimeWarning,
            stacklevel=2,
        )

    run_started = time.perf_counter()
    baseline_metrics = obs_metrics.registry().snapshot()
    phases: Dict[str, float] = {}

    cells = spec.cells()
    cache = ResultCache(cache_dir) if cache_dir is not None else None

    with ExitStack() as stack:
        if trace is not None:
            stack.enter_context(
                obs_trace.tracing(
                    trace,
                    spec.name,
                    {
                        "cells": spec.cell_count,
                        "backend": spec.backend,
                        "workers": workers,
                    },
                )
            )

        with obs_trace.timed("grid.resolve") as timer:
            workloads = {wid: resolve_workload(wid) for wid in spec.workloads}
            cost_models = {
                cid: resolve_cost_model(cid) for cid in spec.cost_models
            }
            inputs_by_cell: Dict[GridCell, Dict[str, object]] = {}
            keys_by_cell: Dict[GridCell, str] = {}
            for cell in cells:
                inputs = cell_inputs(
                    cell.algorithm,
                    cell.options(),
                    cell.workload,
                    workloads[cell.workload],
                    cell.cost_model,
                    cost_models[cell.cost_model],
                    backend=cell.backend,
                    measurement=cell.measurement_options(),
                )
                inputs_by_cell[cell] = inputs
                keys_by_cell[cell] = content_key(inputs)
        phases["grid.resolve"] = timer.wall

        outcomes: Dict[GridCell, Tuple[Optional[Dict[str, object]], bool, int, Optional[CellFailure]]] = {}
        pending: List[GridCell] = []
        with obs_trace.timed("grid.cache-scan") as timer:
            for cell in cells:
                payload = None
                if cache is not None and not refresh:
                    payload = cache.load(keys_by_cell[cell])
                if payload is not None:
                    outcomes[cell] = (payload, True, 1, None)
                    obs_trace.event("grid.cache-hit", cell=cell.label)
                    if progress is not None:
                        progress(f"cached   {cell.label}")
                else:
                    pending.append(cell)
        phases["grid.cache-scan"] = timer.wall

        def _record(
            cell: GridCell,
            payload: Optional[Dict[str, object]],
            attempts: int,
            failure: Optional[CellFailure],
        ) -> None:
            outcomes[cell] = (payload, False, attempts, failure)
            if failure is None and payload is not None and cache is not None:
                cache.store(keys_by_cell[cell], inputs_by_cell[cell], payload)

        executor = _GridExecutor(
            policy=policy, fail_fast=fail_fast, record=_record, progress=progress
        )
        with obs_trace.timed("grid.execute") as timer:
            if pending:
                with injected(faults) if faults is not None else nullcontext():
                    if workers <= 1:
                        # Seed the worker memos with the already-resolved
                        # objects and mirror the pool workers' shared-cache
                        # behaviour, but restore both the caller's sharing
                        # setting *and* the memo contents afterwards — the
                        # serial path must not leak module-global state into
                        # the calling process.
                        saved_workloads = dict(grid_worker._workloads)
                        saved_cost_models = dict(grid_worker._cost_models)
                        grid_worker._workloads.update(workloads)
                        grid_worker._cost_models.update(cost_models)
                        previous = enable_cache_sharing(True)
                        try:
                            _execute_serial(executor, pending)
                        finally:
                            enable_cache_sharing(previous)
                            if not previous:
                                # Sharing was ours alone — release the
                                # memoized profiles rather than retaining
                                # them for the process lifetime.
                                clear_shared_caches()
                            grid_worker._workloads.clear()
                            grid_worker._workloads.update(saved_workloads)
                            grid_worker._cost_models.clear()
                            grid_worker._cost_models.update(saved_cost_models)
                    else:
                        _execute_parallel(
                            executor, pending, workers, cell_timeout,
                            mp_start_method,
                        )
        phases["grid.execute"] = timer.wall

        # The run's own metrics delta closes the trace; computed inside the
        # tracing context so the record lands in the file.
        run_metrics = obs_metrics.registry().delta(baseline_metrics)
        obs_trace.emit_metrics(run_metrics)

    results = [
        CellResult(
            cell=cell,
            key=keys_by_cell[cell],
            payload=outcomes[cell][0],
            cached=outcomes[cell][1],
            attempts=outcomes[cell][2],
            failure=outcomes[cell][3],
        )
        for cell in cells
    ]
    telemetry = RunTelemetry(
        run=spec.name,
        wall_seconds=time.perf_counter() - run_started,
        phases=phases,
        cells_total=len(results),
        cells_cached=sum(1 for result in results if result.cached),
        cells_computed=sum(
            1 for result in results if not result.cached and result.ok
        ),
        cells_failed=sum(1 for result in results if result.failure is not None),
        retries=executor.retries,
        worker_crashes=executor.worker_crashes,
        cell_timeouts=executor.cell_timeouts,
        cache_stores=cache.stores if cache is not None else 0,
        cache_store_failures=cache.store_failures if cache is not None else 0,
        cache_load_failures=cache.load_failures if cache is not None else 0,
        metrics=run_metrics,
        trace_path=trace,
    )
    return GridReport(spec=spec, results=results, cache=cache, telemetry=telemetry)
