"""The comparison grid: the paper's systematic study as a runnable subsystem.

The paper's central artifact is not one algorithm but the *grid* — every
vertical partitioning algorithm crossed with every schema, workload and
hardware cost model.  This package makes that grid declarative, parallel and
incremental:

* :mod:`repro.grid.spec` — :class:`GridSpec` / :class:`GridCell` describe the
  cross product by id; workload and cost model resolvers turn ids into
  objects on either side of a process boundary.
* :mod:`repro.grid.cache` — :class:`ResultCache`, an on-disk JSON cache keyed
  by a content hash of each cell's resolved inputs, so re-runs and
  interrupted runs are incremental and corrupted or stale entries are
  recomputed rather than trusted.
* :mod:`repro.grid.worker` — per-process cell execution; workers rebind the
  memoized :class:`~repro.cost.evaluator.CostEvaluator` kernel per schema via
  process-local cache sharing.
* :mod:`repro.grid.runner` — :func:`run_grid`, the fault-tolerant
  serial/parallel execution loop returning a :class:`GridReport`: per-cell
  retries with deterministic backoff (:class:`RetryPolicy`), per-cell
  wall-clock timeouts, dead-worker detection and respawn, and failure
  quarantine (:class:`CellFailure`) with keep-going vs fail-fast semantics.
* :mod:`repro.grid.aggregate` — cells to headline tables (quality,
  optimisation time, pay-off, fragility, cross-model, failures).
* :mod:`repro.grid.cli` — the ``python -m repro.grid`` front end.

Every failure path of the runner is exercised reproducibly by
:mod:`repro.faults`: a plan keyed by cell label, installed with
``run_grid(faults=...)`` or the ``REPRO_FAULTS`` environment variable; every
task sent to a worker process carries the plan in force.

Every run is observable through :mod:`repro.obs`: ``run_grid(trace=PATH)``
(CLI ``--trace PATH``) writes a JSONL trace of phases, cell attempts,
retries, crashes and timeouts — worker spans travel back over the answer
pipe — and ``GridReport.telemetry`` always carries a
:class:`~repro.obs.summary.RunTelemetry` digest.

See ``docs/GRID.md`` for cell hashing, the cache layout on disk, resume
semantics and worker-pool sizing, ``docs/ROBUSTNESS.md`` for the failure
semantics, retry/timeout knobs and the fault-injection reference, and
``docs/OBSERVABILITY.md`` for the trace schema and metric names.
"""

from repro.grid.spec import (
    BACKENDS,
    BUILTIN_GRIDS,
    GridCell,
    GridError,
    GridExecutionError,
    GridSpec,
    builtin_grid,
    register_cost_model,
    register_workload,
    resolve_cost_model,
    resolve_workload,
)
from repro.grid.cache import ResultCache, content_key, deterministic_payload
from repro.grid.runner import (
    CellFailure,
    CellResult,
    GridReport,
    RetryPolicy,
    run_grid,
)
from repro.obs.summary import RunTelemetry
from repro.grid.aggregate import (
    agreement_rows,
    agreement_summary_rows,
    failure_rows,
    headline_tables,
)

__all__ = [
    "BACKENDS",
    "BUILTIN_GRIDS",
    "GridCell",
    "GridError",
    "GridExecutionError",
    "GridSpec",
    "builtin_grid",
    "register_workload",
    "register_cost_model",
    "resolve_workload",
    "resolve_cost_model",
    "ResultCache",
    "content_key",
    "deterministic_payload",
    "CellFailure",
    "CellResult",
    "GridReport",
    "RetryPolicy",
    "RunTelemetry",
    "run_grid",
    "headline_tables",
    "agreement_rows",
    "agreement_summary_rows",
    "failure_rows",
]
