"""Unit tests for supervised worker processes (``repro.supervised``).

Each test starts its own small processes and kills them on the way out, so
the leak guard in ``conftest.py`` sees none left behind.  Task calls are
module-level functions, so every start method can pickle them.
"""

import multiprocessing
import operator
import os
import threading
import time

import pytest

from repro import faults, supervised
from repro.faults import DIE_EXIT_CODE
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.supervised import Supervised, Task, run_task, wait

COUNTER = "test.supervised.calls"


def _count(amount):
    obs_metrics.counter(COUNTER).inc(amount)
    return amount


def _traced_work():
    with obs_trace.span("inner"):
        return os.getpid()


def _merge_lock_is_free():
    return supervised._MERGE_LOCK.acquire(timeout=1)


@pytest.fixture
def start():
    """Start supervised processes that are killed and reaped after the test."""
    started = []

    def _start(**kwargs):
        process = Supervised(**kwargs)
        started.append(process)
        return process

    yield _start
    for process in started:
        process.kill()


def _run(process, task, **kwargs):
    """Send ``task`` and return the one outcome of ``process``."""
    process.send(task)
    [(answered, outcome)] = wait([process], timeout=30, **kwargs)
    assert answered is process
    return outcome


class TestAnswers:
    def test_result_comes_back_after_the_ready_message(self, start):
        process = start()
        assert process.ready_at is None
        assert _run(process, Task(operator.add, (2, 3))) == ("ok", 5)
        assert process.ready_at is not None
        assert process.alive

    def test_one_process_answers_many_tasks(self, start):
        process = start()
        pids = {_run(process, Task(os.getpid))[1] for _ in range(3)}
        assert len(pids) == 1 and pids != {os.getpid()}

    def test_exception_crosses_as_type_name_and_message(self, start):
        process = start()
        outcome = _run(process, Task(operator.truediv, (1, 0)))
        assert outcome == ("error", ("ZeroDivisionError", "division by zero"))
        assert _run(process, Task(operator.add, (1, 1))) == ("ok", 2)

    def test_metrics_delta_is_merged_into_the_parent(self, start):
        before = obs_metrics.counter(COUNTER).value
        process = start()
        assert _run(process, Task(_count, (3,))) == ("ok", 3)
        assert _run(process, Task(_count, (4,))) == ("ok", 4)
        assert obs_metrics.counter(COUNTER).value == before + 7

    def test_traced_task_spans_are_adopted_into_the_caller_trace(self, start):
        process = start()
        with obs_trace.collecting("run") as buffer:
            parent = obs_trace.current_id()
            task = Task(_traced_work, span="unit", attrs={"n": 1}, trace="t#1")
            status, pid = _run(process, task)
        assert status == "ok"
        by_name = {record["name"]: record for record in buffer.records}
        assert by_name["unit"]["parent"] == parent
        assert by_name["unit"]["attrs"] == {"n": 1, "pid": pid}
        assert by_name["inner"]["parent"] == by_name["unit"]["id"]

    def test_run_task_in_process_reports_status_delta_and_no_spans(self):
        plan = os.environ.get(faults.ENV_VAR)
        status, detail, delta, spans = run_task(Task(_count, (2,)), plan)
        assert (status, detail, spans) == ("ok", 2, None)
        assert delta["counters"][COUNTER] == 2


class TestDeathDeadlineCancel:
    def test_exit_is_reported_as_a_death_with_its_code(self, start):
        process = start()
        assert _run(process, Task(os._exit, (7,))) == ("died", 7)
        assert not process.alive

    def test_task_deadline_passes_while_the_task_runs(self, start):
        process = start()
        began = time.monotonic()
        outcome = _run(process, Task(time.sleep, (30,)), task_timeout=0.3)
        assert outcome == ("deadline", None)
        assert 0.3 <= time.monotonic() - began < 10
        assert process.alive  # the caller decides whether to kill it

    def test_wait_timeout_returns_nothing(self, start):
        process = start()
        process.send(Task(time.sleep, (30,)))
        assert wait([process], timeout=0.2) == []

    def test_set_cancel_event_cancels_every_process(self, start):
        processes = [start(), start()]
        for process in processes:
            process.send(Task(time.sleep, (30,)))
        cancel = threading.Event()
        timer = threading.Timer(0.2, cancel.set)
        timer.start()
        outcomes = wait(processes, timeout=30, cancel=cancel)
        timer.join()
        assert outcomes == [(p, ("cancelled", None)) for p in processes]

    def test_kill_reaps_and_close_ends_an_idle_process(self, start):
        busy, idle = start(), start()
        busy.send(Task(time.sleep, (30,)))
        busy.kill()
        assert not busy.alive
        assert _run(idle, Task(operator.add, (1, 2))) == ("ok", 3)
        idle.close()
        assert not idle.alive


class TestFaultPlans:
    def test_task_carries_the_plan_in_force_at_its_send(self, start):
        process = start()
        read_plan = Task(os.getenv, (faults.ENV_VAR,))
        assert _run(process, read_plan) == ("ok", None)
        with faults.injected({"job.run": {"kind": "slow", "seconds": 0.01}}):
            plan = os.environ[faults.ENV_VAR]
            assert _run(process, read_plan) == ("ok", plan)
        assert _run(process, read_plan) == ("ok", None)

    def test_task_site_fires_at_the_occurrence_it_was_sent(self, start):
        process = start()
        with faults.injected({"job.run": {"kind": "die", "times": 1}}):
            ok = Task(operator.add, (1, 1), site="job.run", occurrence=2)
            assert _run(process, ok) == ("ok", 2)
            die = Task(operator.add, (1, 1), site="job.run", occurrence=1)
            assert _run(process, die) == ("died", DIE_EXIT_CODE)

    def test_start_site_death_comes_before_the_ready_message(self, start):
        with faults.injected({"worker.start": {"kind": "die"}}):
            process = start(start_occurrence=1)
        [(_, outcome)] = wait([process], timeout=30)
        assert outcome == ("died", DIE_EXIT_CODE)
        assert process.ready_at is None

    def test_start_timeout_is_a_deadline_before_ready(self, start):
        with faults.injected({"worker.start": {"kind": "slow", "seconds": 30}}):
            process = start(start_occurrence=1, start_timeout=0.3)
        [(_, outcome)] = wait([process], timeout=30, task_timeout=60)
        assert outcome == ("deadline", None)
        assert process.ready_at is None


class TestProcessGroup:
    def test_own_group_leads_its_own_process_group(self, start):
        process = start(own_group=True)
        pid = _run(process, Task(os.getpid))[1]
        assert _run(process, Task(os.getpgrp)) == ("ok", pid)
        assert os.getpgrp() != pid

    def test_default_process_stays_in_the_parent_group(self, start):
        process = start()
        assert _run(process, Task(os.getpgrp)) == ("ok", os.getpgrp())


class TestForkSafety:
    def test_merge_lock_held_at_the_fork_is_free_in_the_child(self, start):
        # Another thread of the parent may hold the lock while this one forks
        # (a service job worker merging while a replacement process starts);
        # the child merges its own workers' metrics and must not hang on it.
        with supervised._MERGE_LOCK:
            process = start(context=multiprocessing.get_context("fork"))
        assert _run(process, Task(_merge_lock_is_free)) == ("ok", True)


def test_no_process_starts_while_the_interpreter_exits(monkeypatch):
    monkeypatch.setattr(supervised.mp_util, "is_exiting", lambda: True)
    with pytest.raises(RuntimeError, match="exits"):
        Supervised()
