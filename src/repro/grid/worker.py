"""Grid cell execution, shared by the in-process path and pool workers.

A work item is just a :class:`~repro.grid.spec.GridCell` — strings and plain
options — so nothing heavyweight ever crosses the process boundary.  Workers
re-resolve workloads and cost models from their ids and memoize them per
process; the memoized :class:`~repro.cost.evaluator.CostEvaluator` kernel's
process-local cache sharing is switched on by :func:`initialize_worker`, so
every cell an algorithm runs on a schema the worker has seen before reuses the
already-memoized group profiles and co-read costs (cells of one workload are
adjacent in the grid order precisely to feed this).

Parallel runs are driven by :func:`worker_loop`: each worker is a long-lived
process holding one end of a duplex pipe, receiving ``(index, cell, attempt)``
tasks and answering with the payload or a captured failure description.  A
cell that raises therefore *returns* a failure instead of tearing the worker
(or, as ``pool.imap_unordered`` used to, the whole run) down; only a crashed
or killed process ever fails to answer, and the supervisor in
:mod:`repro.grid.runner` detects exactly that.

The functions here are module-level so they stay picklable under every
``multiprocessing`` start method, including ``spawn``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

from repro.core.algorithm import PartitioningResult, get_algorithm
from repro.core.partitioning import (
    Partitioning,
    column_partitioning,
    partitioning_from_names,
    row_partitioning,
)
from repro.cost.base import CostModel
from repro.cost.creation import estimate_creation_time
from repro.cost.evaluator import enable_cache_sharing
from repro.grid.spec import (
    GridCell,
    execution_backend,
    resolve_cost_model,
    resolve_workload,
)
from repro.metrics.quality import (
    average_reconstruction_joins,
    improvement_over,
    unnecessary_data_fraction,
)
from repro.workload.workload import Workload

# Per-process memos; populated lazily, valid for the worker's lifetime.  The
# baseline memo is keyed by content (the workload itself plus the model's
# parameter description), not by id, so re-registering an id with different
# content can never serve stale baseline costs.  The measured-data memo is
# keyed by (schema, requested rows, data seed) — generation is fully
# determined by those, so every algorithm cell sharing a workload reuses one
# generated dataset instead of regenerating byte-identical arrays.
_workloads: Dict[str, Workload] = {}
_cost_models: Dict[str, CostModel] = {}
_baselines: Dict[Tuple[Workload, str], Tuple[float, float]] = {}
_measured_data: Dict[Tuple[object, int, int], Dict[str, object]] = {}

#: Sent once by a worker that finished starting up, before any answer.
READY = "ready"


def initialize_worker() -> None:
    """Pool initializer: turn on process-local evaluator cache sharing."""
    enable_cache_sharing(True)


def _workload(workload_id: str) -> Workload:
    workload = _workloads.get(workload_id)
    if workload is None:
        workload = resolve_workload(workload_id)
        _workloads[workload_id] = workload
    return workload


def _cost_model(cost_model_id: str) -> CostModel:
    cost_model = _cost_models.get(cost_model_id)
    if cost_model is None:
        cost_model = resolve_cost_model(cost_model_id)
        _cost_models[cost_model_id] = cost_model
    return cost_model


def baseline_costs_for(workload: Workload, cost_model: CostModel) -> Tuple[float, float]:
    """(row cost, column cost) of one workload under one model, memoized."""
    key = (workload, cost_model.describe())
    baseline = _baselines.get(key)
    if baseline is None:
        baseline = (
            cost_model.workload_cost(workload, row_partitioning(workload.schema)),
            cost_model.workload_cost(workload, column_partitioning(workload.schema)),
        )
        _baselines[key] = baseline
    return baseline


def result_to_payload(
    result: PartitioningResult,
    workload: Workload,
    row_cost: float,
    column_cost: float,
) -> Dict[str, object]:
    """Serialise one algorithm run to the cacheable JSON payload.

    Everything outside the ``timing`` section is a deterministic function of
    the cell inputs; ``timing`` isolates the wall-clock measurement so cached
    and fresh results can be compared byte for byte (see
    :func:`repro.grid.cache.deterministic_payload`).
    """
    partitioning = result.partitioning
    return {
        "algorithm": result.algorithm,
        "workload_name": result.workload_name,
        "cost_model": result.cost_model,
        "layout": [list(group) for group in partitioning.as_names()],
        "partitions": partitioning.partition_count,
        "estimated_cost": result.estimated_cost,
        "row_cost": row_cost,
        "column_cost": column_cost,
        "improvement_over_row": improvement_over(row_cost, result.estimated_cost),
        "improvement_over_column": improvement_over(
            column_cost, result.estimated_cost
        ),
        "unnecessary_data_fraction": unnecessary_data_fraction(workload, partitioning),
        "average_reconstruction_joins": average_reconstruction_joins(
            workload, partitioning
        ),
        "creation_time": estimate_creation_time(partitioning),
        "cost_evaluations": result.cost_evaluations,
        "timing": {"optimization_time": result.optimization_time},
    }


def payload_layout(payload: Dict[str, object], workload: Workload) -> Partitioning:
    """The stored layout as a real :class:`Partitioning` over ``workload``."""
    return partitioning_from_names(workload.schema, payload["layout"])


def execute_cell(cell: GridCell) -> Tuple[GridCell, Dict[str, object]]:
    """Run one cell and return ``(cell, payload)``.

    Returning the cell alongside the payload lets callers match results back
    to cache keys without bookkeeping in the worker.  Faults installed via
    :mod:`repro.faults` are *not* applied here — this is the plain
    execution entry point; the attempt-aware :func:`execute_attempt` wraps it
    for the fault-tolerant paths.
    """
    workload = _workload(cell.workload)
    cost_model = _cost_model(cell.cost_model)
    algorithm = get_algorithm(cell.algorithm, **cell.options())
    result = algorithm.run(workload, cost_model)
    row_cost, column_cost = baseline_costs_for(workload, cost_model)
    payload = result_to_payload(result, workload, row_cost, column_cost)
    backend = execution_backend(cell.backend)
    if backend is None:
        return cell, payload
    # Executing cells run the computed layout on their backend.  The
    # deterministic section goes under the backend's name (content-hashed by
    # the cache); wall-clock entries join ``timing``.  A model the backend
    # cannot execute (e.g. main-memory on the measured backend) records why
    # instead of pretending.
    reason = backend.unsupported_reason(cost_model)
    if reason is not None:
        payload[backend.name] = {"supported": False, "reason": reason}
        return cell, payload
    settings = backend.resolve(cell.measurement_options())
    data_key = (workload.schema, settings["rows"], settings["data_seed"])
    section, timing, data = backend.execute(
        result.partitioning, workload, cost_model, settings,
        _measured_data.get(data_key),
    )
    _measured_data.setdefault(data_key, data)
    payload[backend.name] = section
    payload["timing"].update(timing)
    return cell, payload


def execute_attempt(
    cell: GridCell, attempt: int = 1, in_process: bool = False
) -> Dict[str, object]:
    """Run attempt number ``attempt`` (1-based) of one cell.

    Fires any installed fault for this cell first (see :mod:`repro.faults`),
    then executes it.  ``in_process`` marks the serial path so ``die`` faults
    raise :class:`~repro.faults.WorkerThreadDeath` instead of exiting the
    caller's interpreter.
    """
    faults.trigger(cell.label, attempt, in_process=in_process)
    _, payload = execute_cell(cell)
    return payload


def describe_error(error: BaseException) -> Tuple[str, str]:
    """``(type name, message)`` of an exception — the picklable failure form.

    Exceptions themselves never cross the process boundary: a custom
    exception class may not unpickle in the parent (or pickle in the worker),
    and the supervisor only needs the description to build a
    :class:`~repro.grid.runner.CellFailure`.
    """
    return type(error).__name__, str(error)


def run_task(cell: GridCell, attempt: int) -> Tuple[str, object, Optional[Dict]]:
    """Execute one worker task, returning ``(status, detail, telemetry)``.

    ``telemetry`` is ``None`` unless the supervisor exported
    :data:`repro.obs.trace.COLLECT_ENV_VAR` (which both ``fork`` and
    ``spawn`` children inherit): then it is ``{"spans": [...], "metrics":
    {...}}`` — the span records buffered under a deterministic per-task root
    (seeded ``"{cell}#{attempt}"``) and the *delta* of this process's metrics
    registry across the task, so fork-inherited counter values cancel out and
    the supervisor can merge attempts from any number of workers.  Spans
    captured before an in-cell exception still ship with the error answer;
    only a killed process loses its buffer (the supervisor synthesizes a span
    for those from its own clock).
    """
    if not obs_trace.collection_requested():
        try:
            return "ok", execute_attempt(cell, attempt), None
        except Exception as error:
            return "error", describe_error(error), None
    baseline = obs_metrics.registry().snapshot()
    seed = obs_trace.task_seed(cell.label, attempt)
    with obs_trace.collecting(seed) as buffer:
        try:
            with obs_trace.span(
                "grid.cell", cell=cell.label, attempt=attempt, pid=os.getpid()
            ):
                payload = execute_attempt(cell, attempt)
            status, detail = "ok", payload
        except Exception as error:
            status, detail = "error", describe_error(error)
    telemetry = {
        "spans": buffer.records,
        "metrics": obs_metrics.registry().delta(baseline),
    }
    return status, detail, telemetry


def worker_loop(conn) -> None:
    """Main loop of one persistent grid worker process.

    ``conn`` is the worker's end of a duplex :func:`multiprocessing.Pipe`.
    The worker first sends :data:`READY`, once, so the supervisor starts an
    attempt's clock only when start-up is over.  Tasks arrive as ``(index,
    cell, attempt)`` tuples; ``None`` (or a closed pipe) shuts the worker
    down.  Every task is answered with
    ``(index, "ok", payload, telemetry)`` or ``(index, "error",
    (type, message), telemetry)`` — a raising cell is an *answer*, not a dead
    worker.  Only a process that is killed (timeout enforcement, OOM, a
    ``die`` fault) fails to answer, which is exactly the signal the
    supervisor treats as a crash.  ``telemetry`` carries the task's buffered
    spans and metrics delta when the supervisor requested collection (see
    :func:`run_task`), else ``None``.
    """
    initialize_worker()
    try:
        conn.send(READY)
    except (BrokenPipeError, OSError):
        return
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        index, cell, attempt = task
        status, detail, telemetry = run_task(cell, attempt)
        try:
            conn.send((index, status, detail, telemetry))
        except (BrokenPipeError, OSError):
            return
