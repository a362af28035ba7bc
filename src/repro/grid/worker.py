"""Grid cell execution, shared by the in-process path and worker processes.

A work item is just a :class:`~repro.grid.spec.GridCell` — strings and plain
options — so nothing heavyweight ever crosses the process boundary.  Workers
re-resolve workloads and cost models from their ids and memoize them per
process; every supervised worker process turns the memoized
:class:`~repro.cost.evaluator.CostEvaluator` kernel's process-local cache
sharing on, so every cell an algorithm runs on a schema the worker has seen
before reuses the already-memoized group profiles and co-read costs (cells of
one workload are adjacent in the grid order precisely to feed this).

Parallel runs send each attempt to a persistent worker process as a
:class:`repro.supervised.Task` that calls :func:`execute_cell`; the task
fires the cell's fault site first and runs inside the attempt's
``grid.cell`` span (see :mod:`repro.supervised`).  A cell that raises
therefore *answers* with its failure instead of tearing the worker down;
only a crashed or killed process ever fails to answer, and the supervisor
in :mod:`repro.grid.runner` detects exactly that.

The functions here are module-level so they stay picklable under every
``multiprocessing`` start method, including ``spawn``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.algorithm import PartitioningResult, get_algorithm
from repro.core.partitioning import (
    Partitioning,
    column_partitioning,
    partitioning_from_names,
    row_partitioning,
)
from repro.cost.base import CostModel
from repro.cost.creation import estimate_creation_time
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


def execute_cell(cell: GridCell) -> Dict[str, object]:
    """Run one cell and return its payload.

    Faults installed via :mod:`repro.faults` are *not* applied here — this
    is the plain execution entry point; both of ``run_grid``'s paths fire
    the cell's fault site before calling it.
    """
    workload = _workload(cell.workload)
    cost_model = _cost_model(cell.cost_model)
    algorithm = get_algorithm(cell.algorithm, **cell.options())
    result = algorithm.run(workload, cost_model)
    row_cost, column_cost = baseline_costs_for(workload, cost_model)
    payload = result_to_payload(result, workload, row_cost, column_cost)
    backend = execution_backend(cell.backend)
    if backend is None:
        return payload
    # Executing cells run the computed layout on their backend.  The
    # deterministic section goes under the backend's name (content-hashed by
    # the cache); wall-clock entries join ``timing``.  A model the backend
    # cannot execute (e.g. main-memory on the measured backend) records why
    # instead of pretending.
    reason = backend.unsupported_reason(cost_model)
    if reason is not None:
        payload[backend.name] = {"supported": False, "reason": reason}
        return payload
    settings = backend.resolve(cell.measurement_options())
    data_key = (workload.schema, settings["rows"], settings["data_seed"])
    section, timing, data = backend.execute(
        result.partitioning, workload, cost_model, settings,
        _measured_data.get(data_key),
    )
    _measured_data.setdefault(data_key, data)
    payload[backend.name] = section
    payload["timing"].update(timing)
    return payload
