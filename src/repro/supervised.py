"""Supervised worker processes: the one process primitive of the repository.

The grid's parallel supervisor (:func:`repro.grid.runner.run_grid`) runs its
cells on persistent worker processes, and the advisor service
(:class:`repro.service.jobs.JobProcess`) runs its jobs on persistent job
processes.  Both are a :class:`Supervised` process that takes one
:class:`Task` at a time over a duplex pipe.  The callers keep their own
duties (the grid its scheduling, retries, deadlines and quarantine; the
service every registry duty), and this module owns the process side:

Start
    The process comes from a ``multiprocessing`` context (default
    ``multiprocessing.get_context()``).  The parent's end of the pipe is
    registered with :func:`multiprocessing.util.register_after_fork`, so
    every child forked later (this one, a sibling worker) closes its copy:
    only the parent holds it, and a child sees end-of-file once its parent is
    gone.  A :class:`multiprocessing.util.Finalize` kills the process at
    interpreter exit, before ``multiprocessing`` joins its children.  The
    process is not daemonic, so it may start processes of its own (a job
    process runs a parallel grid).  With ``own_group`` it leads its own
    process group, and a kill takes its children along.
Ready
    The child turns on evaluator cache sharing, applies the fault plan of its
    start, fires the ``worker.start`` site and then sends :data:`READY`,
    once.  Starting does not wait for it; the first :func:`wait` consumes it.
Tasks
    :meth:`Supervised.send` sends a :class:`Task` together with the fault
    plan in force, and :func:`wait`, over one process or several, returns
    each outcome: the answer (``("ok", result)`` or ``("error", (type name,
    message))``), a death (``("died", exit code)``), a passed deadline
    (``("deadline", None)``) or a set cancel event (``("cancelled",
    None)``).  An answer already in the pipe is read before a death is
    reported.  Every answer carries the task's metrics delta, merged into
    this process's registry, and a traced task's spans, adopted into the
    calling thread's trace.
Kill and reap
    :meth:`Supervised.kill` SIGKILLs the process (its group, with
    ``own_group``), reaps it and closes the pipe; :meth:`Supervised.close`
    first asks an idle process to exit.

A busy process notices that its parent is gone only when its current task
ends: sending the answer fails, or the next receive reads end-of-file, and it
exits.  Until then it runs on.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from multiprocessing import util as mp_util
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro import faults
from repro.cost.evaluator import enable_cache_sharing
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Sent once by a process that finished starting up, before any answer.
READY = "ready"

#: How often a wait re-checks a cancel event; answers and deaths wake it at
#: once.
POLL_SECONDS = 0.05

#: Serialises merging answers' metrics deltas (several threads may wait).
#: Each supervised process makes its own at start (see :func:`_main`).
_MERGE_LOCK = threading.Lock()


@dataclass(frozen=True)
class Task:
    """One unit of work for a supervised process, with what it depends on.

    The process fires the fault ``site`` at ``occurrence`` (counted by the
    sender; ``None``: the sender's plan has no fault there), then calls
    ``call(*args)``; ``call`` is a module-level function, so every start
    method can pickle it.  A task with a ``trace`` seed (sent by a tracing
    thread) does both inside a span ``span`` with ``attrs``; its spans are
    buffered under the root ``root_id(trace)`` and shipped back with the
    answer.
    """

    call: Callable[..., object]
    args: Tuple = ()
    site: Optional[str] = None
    occurrence: Optional[int] = None
    span: str = "task"
    attrs: Mapping[str, object] = field(default_factory=dict)
    trace: Optional[str] = None


class Supervised:
    """The parent's handle of one supervised process.

    The child fires the ``worker.start`` fault site at ``start_occurrence``
    (counted by the caller; ``None``: not at all) before its ready message,
    with the fault plan in force here at the start.  ``start_timeout`` bounds
    start-up, from the start to the ready message; :func:`wait` reports it
    passed as a deadline.
    """

    def __init__(
        self,
        context=None,
        own_group: bool = False,
        start_occurrence: Optional[int] = None,
        start_timeout: Optional[float] = None,
    ) -> None:
        if mp_util.is_exiting():
            raise RuntimeError("no process starts while the interpreter exits")
        context = context or multiprocessing.get_context()
        parent_conn, child_conn = context.Pipe(duplex=True)
        # Registered before the fork, so the new process closes its copy too.
        mp_util.register_after_fork(parent_conn, mp_connection.Connection.close)
        process = context.Process(
            target=_main,
            args=(
                child_conn, os.environ.get(faults.ENV_VAR), start_occurrence, own_group
            ),
        )
        started_at = time.monotonic()
        process.start()
        child_conn.close()
        self._process = process
        self._conn = parent_conn
        self._kill = mp_util.Finalize(
            self, _kill, args=(process, parent_conn, own_group), exitpriority=10
        )
        self._start_deadline = (
            None if start_timeout is None else started_at + start_timeout
        )
        self._task: Optional[Task] = None
        self._sent_at = started_at
        #: Monotonic time the ready message was read (``None`` until then).
        self.ready_at: Optional[float] = None

    @property
    def alive(self) -> bool:
        """Whether the process is still running."""
        return self._process.is_alive()

    @property
    def clock(self) -> float:
        """When the in-flight task's clock started: at its send, or at the
        ready message if that came later (start-up never counts)."""
        if self.ready_at is None:
            return self._sent_at
        return max(self._sent_at, self.ready_at)

    def send(self, task: Task) -> None:
        """Send ``task`` with the fault plan in force; a process that is gone
        shows as a death in the next wait."""
        self._task = task
        self._sent_at = time.monotonic()
        try:
            self._conn.send((task, os.environ.get(faults.ENV_VAR)))
        except OSError:
            pass

    def kill(self) -> None:
        """SIGKILL the process (a no-op once it exited), reap it, close the pipe."""
        self._kill()

    def close(self) -> None:
        """Ask an idle process to exit, give it 5 s, then kill and reap it."""
        try:
            self._conn.send(None)
            self._process.join(timeout=5)
        except OSError:
            pass
        self.kill()

    def _deadline(self, task_timeout: Optional[float]) -> Optional[float]:
        if self.ready_at is None:
            return self._start_deadline
        if task_timeout is None:
            return None
        return self.clock + task_timeout

    def _outcome(
        self, ready: List[object], task_timeout: Optional[float]
    ) -> Optional[Tuple[str, object]]:
        """This process's outcome after a wait found ``ready`` readable."""
        if self._conn in ready:  # an answer in the pipe comes before a death
            try:
                message = self._conn.recv()
            except (EOFError, OSError):
                self.kill()
                return "died", self._process.exitcode
            if message != READY:
                return self._answer(message)
            self.ready_at = time.monotonic()
        elif self._process.sentinel in ready:
            self.kill()
            return "died", self._process.exitcode
        deadline = self._deadline(task_timeout)
        if deadline is not None and time.monotonic() >= deadline:
            return "deadline", None
        return None

    def _answer(self, message) -> Tuple[str, object]:
        status, detail, metrics, spans = message
        with _MERGE_LOCK:
            obs_metrics.registry().merge(metrics)
        if spans:
            obs_trace.adopt_spans(spans, self._task.trace)
        return status, detail


def wait(
    processes: List[Supervised],
    timeout: Optional[float] = None,
    task_timeout: Optional[float] = None,
    cancel: Optional[threading.Event] = None,
) -> List[Tuple[Supervised, Tuple[str, object]]]:
    """Wait for the in-flight tasks of ``processes``; ``(process, outcome)``
    for each one that has an outcome.

    Returns once any process has one, or a set ``cancel`` event gives every
    process ``("cancelled", None)`` (noticed within :data:`POLL_SECONDS`),
    or ``timeout`` passes (``[]``).  ``task_timeout`` bounds each task from
    :attr:`Supervised.clock`; until a process's ready message arrives, its
    start-up bound applies instead.  A death is reaped before it is reported.
    """
    end = None if timeout is None else time.monotonic() + timeout
    handles = [
        handle for process in processes
        for handle in (process._conn, process._process.sentinel)
    ]
    while True:
        now = time.monotonic()
        limits = [
            bound - now
            for bound in [end] + [p._deadline(task_timeout) for p in processes]
            if bound is not None
        ]
        if cancel is not None:
            limits.append(POLL_SECONDS)
        limit = max(0.0, min(limits)) if limits else None
        ready = mp_connection.wait(handles, limit)
        outcomes = []
        for process in processes:
            outcome = process._outcome(ready, task_timeout)
            if outcome is not None:
                outcomes.append((process, outcome))
        if outcomes:
            return outcomes
        if cancel is not None and cancel.is_set():
            return [(process, ("cancelled", None)) for process in processes]
        if end is not None and time.monotonic() >= end:
            return []


def _kill(process, conn, own_group: bool) -> None:
    """SIGKILL a process, with its process group, reap it and close its pipe."""
    if own_group:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except OSError:  # not a group leader yet, or the group is gone
            pass
    process.kill()  # a no-op once the process was reaped
    process.join()
    conn.close()


# -- the child's side -----------------------------------------------------------


def _apply_plan(plan: Optional[str]) -> None:
    """Install the sender's fault plan here, and for the processes this one
    starts."""
    if plan is None:
        os.environ.pop(faults.ENV_VAR, None)
    else:
        os.environ[faults.ENV_VAR] = plan


def run_task(
    task: Task, plan: Optional[str]
) -> Tuple[str, object, Dict[str, object], Optional[List[Dict]]]:
    """Run one task here: ``(status, detail, metrics delta, spans)``.

    ``plan`` is the sender's fault plan.  ``detail`` is the call's result,
    or ``(type name, message)`` of the exception it raised: exceptions do not
    cross the pipe, because a custom class may not pickle or unpickle.  The
    metrics delta covers the task alone, so counts inherited over ``fork``
    cancel out.  ``spans`` is ``None`` for an untraced task; a traced one
    ships the spans captured before an error too.
    """
    _apply_plan(plan)
    baseline = obs_metrics.registry().snapshot()
    buffer = None
    try:
        with ExitStack() as stack:
            if task.trace is not None:
                buffer = stack.enter_context(obs_trace.collecting(task.trace))
                stack.enter_context(
                    obs_trace.span(task.span, **task.attrs, pid=os.getpid())
                )
            if task.occurrence is not None:
                faults.trigger(task.site, task.occurrence, in_process=False)
            status, detail = "ok", task.call(*task.args)
    except Exception as error:
        status, detail = "error", (type(error).__name__, str(error))
    spans = buffer.records if buffer is not None else None
    return status, detail, obs_metrics.registry().delta(baseline), spans


def _main(
    conn, plan: Optional[str], start_occurrence: Optional[int], own_group: bool
) -> None:
    """Main loop of a supervised process: answer tasks until ``None`` or
    end-of-file.

    Starts no thread: a forked process with threads may deadlock its own
    children, and a job process forks grid workers.
    """
    global _MERGE_LOCK
    # A fork copies the lock as it was, and another thread of the parent may
    # have held it then; a job process merges its grid workers' metrics.
    _MERGE_LOCK = threading.Lock()
    if own_group:
        # A terminal's Ctrl-C then reaches only the parent, which drains.
        os.setpgrp()
    enable_cache_sharing(True)
    _apply_plan(plan)
    if start_occurrence is not None:
        faults.trigger("worker.start", start_occurrence, in_process=False)
    try:
        conn.send(READY)
        while True:
            message = conn.recv()
            if message is None:
                return
            conn.send(run_task(*message))
    except (EOFError, OSError):
        return  # the parent is gone
