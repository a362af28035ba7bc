"""Bench-side probes: timing wrappers around each module's public callables.

The traced pass measures layers from outside the program.  :func:`installed`
replaces each probed callable *where it is looked up* — a module that
imported a function by name holds its own reference, so every such module is
patched — with a wrapper that records one row per call::

    (layer, t0 epoch seconds, wall seconds, self seconds, extra)

A layer's *self* time is its wall time minus the wall time of probed calls
nested inside it on the same thread (each wrapper keeps a per-thread stack).
Rows are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Request header the traced clients send and the handler wrapper reads, to
#: match a client round trip with the server's handler time.
REQUEST_HEADER = "X-Bench-Request"

Row = Tuple[str, float, float, float, object]


class Recorder:
    """Collects probe rows from every thread of one process."""

    def __init__(self) -> None:
        self.rows: List[Row] = []
        self._local = threading.local()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        function: Callable,
        describe: Optional[Callable[[tuple, dict, object], object]] = None,
    ) -> Callable:
        """``function`` timed as ``layer``; ``describe(args, kwargs, result)``
        adds an extra field (computed after the timed region)."""

        @functools.wraps(function)
        def probe(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.time()
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                wall = time.perf_counter() - start
                nested = stack.pop()
                extra = None
                if describe is not None:
                    try:
                        extra = describe(args, kwargs, result)
                    except Exception as error:  # a probe must never fail the call
                        extra = {"probe_error": repr(error)}
                self.rows.append((layer, t0, wall, wall - nested, extra))
                if stack:
                    # The parent's self time excludes this call and its probe.
                    stack[-1] += time.perf_counter() - start

        return probe


def _entry_kb(args: tuple, kwargs: dict, result: object) -> Dict[str, object]:
    cache, key = args[0], args[1]
    try:
        size = os.path.getsize(cache.path_for(key)) / 1e3
    except OSError:
        size = None
    return {"kb": size, "hit": result is not None}


def _store_kb(args: tuple, kwargs: dict, result: object) -> Dict[str, object]:
    return _entry_kb(args, kwargs, True)


def _algorithm(args: tuple, kwargs: dict, result) -> Dict[str, object]:
    return {
        "algorithm": result.algorithm,
        "optimization_time": result.optimization_time,
        "cost_evaluations": result.cost_evaluations,
    }


def _scanned(args: tuple, kwargs: dict, result) -> Dict[str, object]:
    return {"bytes": result.bytes_scanned}


def _grid_report(args: tuple, kwargs: dict, report) -> Dict[str, object]:
    return {
        "phases": dict(report.telemetry.phases),
        "cells": len(report.results),
        "cached": report.cache_hits,
    }


def _journal_record(args: tuple, kwargs: dict, result) -> Dict[str, object]:
    from repro.grid.cache import canonical_json

    # ``append(event, job_id, **fields)`` writes one canonical JSON line with
    # a format version and a timestamp; rebuild it to count its bytes.
    line = canonical_json(
        {"format": 1, "event": args[1], "job": args[2], "at": time.time(), **kwargs}
    )
    return {"event": args[1], "bytes": len(line) + 1}


def _handler_request(args: tuple, kwargs: dict, result) -> Dict[str, object]:
    return {"request": args[0].headers.get(REQUEST_HEADER)}


def _job_kind(args: tuple, kwargs: dict, result) -> Dict[str, object]:
    return {"kind": args[0].kind, "job": args[0].id}


def _replayed(args: tuple, kwargs: dict, replay) -> Dict[str, object]:
    return {"jobs": len(replay.jobs)}


def _targets(service: bool) -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, layer, describe) of every probed callable."""
    import repro.grid.aggregate as aggregate
    import repro.grid.runner as runner
    import repro.grid.spec as spec
    import repro.grid.worker as worker
    from repro.core.algorithm import PartitioningAlgorithm
    from repro.engine_x.executor import SQLiteExecutor
    from repro.exec.executor import VectorizedScanExecutor
    from repro.grid.cache import ResultCache

    targets = [
        (runner, "run_grid", "grid.runner", _grid_report),
        (ResultCache, "load", "grid.cache.load", _entry_kb),
        (ResultCache, "store", "grid.cache.store", _store_kb),
        (aggregate, "headline_tables", "grid.aggregate", None),
        (PartitioningAlgorithm, "run", "algorithms", _algorithm),
        (VectorizedScanExecutor, "execute_workload", "exec", _scanned),
        (SQLiteExecutor, "execute_workload", "engine_x", _scanned),
    ]
    # ``resolve_workload`` is imported by name into several modules.
    for module in (spec, runner, worker, aggregate):
        targets.append((module, "resolve_workload", "workload.resolve", None))
    if service:
        import repro.service.app as app
        from repro.service.app import ServiceHandler
        from repro.service.jobs import JobRegistry
        from repro.service.journal import JobJournal

        targets += [
            (ServiceHandler, "do_GET", "service.http", _handler_request),
            (ServiceHandler, "do_POST", "service.http", _handler_request),
            (JobRegistry, "submit", "service.submit", None),
            (app, "execute_job", "service.job", _job_kind),
            (JobJournal, "append", "service.journal.append", _journal_record),
            (JobJournal, "compact", "service.journal.compact", None),
            (JobJournal, "replay", "service.journal.replay", _replayed),
        ]
    return targets


@contextmanager
def installed(recorder: Recorder, service: bool = False) -> Iterator[Recorder]:
    """Patch every probed callable for the duration of the block."""
    originals = []
    wrapped: Dict[int, Callable] = {}
    for owner, attribute, layer, describe in _targets(service):
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        originals.append((owner, attribute, original))
        # One wrapper per original function, shared by every module that
        # imported it, so a call is recorded once.
        probe = wrapped.get(id(original))
        if probe is None:
            probe = wrapped[id(original)] = recorder.wrap(layer, original, describe)
        setattr(owner, attribute, probe)
    try:
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
