"""Aggregation of grid cells into the paper's headline tables.

Each function maps a sequence of cell results to plain list-of-dict rows (the
same convention as :mod:`repro.experiments`), rendered through
:func:`repro.experiments.report.format_table` by :func:`headline_tables`.
The four headline views mirror the paper's evaluation axes:

* **layout quality** (Figures 3–5, Tables 5/6) — estimated cost, improvement
  over the row and column baselines, unnecessary data read, reconstruction
  joins;
* **optimisation time** (Figure 1) — wall clock and cost evaluations;
* **pay-off** (Figure 10 / Appendix A.1) — how many workload executions
  amortise the optimisation + creation investment, against both baselines;
* **fragility** (Figure 8) — relative cost change of the *stored* layout when
  the I/O buffer shrinks 100x after the fact (HDD cells only: the main-memory
  model has no buffer to shrink).

Runs on an execution backend (:mod:`repro.exec.backends`) add two views per
backend (Figure 3 / Table 7 in spirit), titled and columned by the backend:
per-cell **estimated vs executed** numbers, and **agreement by algorithm** —
the Spearman rank correlation between predicted and executed runtimes per
algorithm plus a pooled ``(all)`` row, with mean/max |relative error| where
the backend's units match the model's.  SQLite compares rankings only: the
model predicts the paper's testbed while the engine runs on this host
(``docs/ENGINE_X.md``).

All aggregation is computed from cached payloads (plus cheap local re-costing
for fragility), so a fully cached grid run reproduces its tables without
running a single algorithm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.cost.hdd import HDDCostModel
from repro.exec.backends import available_backends, get_backend
from repro.experiments.report import format_table
from repro.grid.spec import resolve_cost_model, resolve_workload
from repro.grid.worker import payload_layout
from repro.metrics.agreement import (
    max_absolute_relative_error,
    mean_absolute_relative_error,
    spearman_rank_correlation,
)
from repro.metrics.fragility import fragility as fragility_metric
from repro.metrics.payoff import payoff_fraction
from repro.workload.workload import Workload

if TYPE_CHECKING:  # imported for type hints only; runner imports this module
    from repro.grid.runner import CellResult

#: Shrink factor of the fragility stress (8 MB -> 80 KB, the paper's Figure 8).
FRAGILITY_BUFFER_SHRINK = 100

#: Failure messages longer than this are truncated in the failures table.
_FAILURE_MESSAGE_WIDTH = 72


def _ok(results: Sequence["CellResult"]) -> List["CellResult"]:
    """The successful cells — quarantined failures carry no payload and are
    reported by :func:`failure_rows` instead of polluting the metric views."""
    return [result for result in results if result.failure is None]


def failure_rows(results: Sequence["CellResult"]) -> List[Dict[str, object]]:
    """One row per quarantined cell: error kind, attempts spent, message."""
    rows = []
    for result in results:
        failure = result.failure
        if failure is None:
            continue
        message = failure.message
        if len(message) > _FAILURE_MESSAGE_WIDTH:
            message = message[: _FAILURE_MESSAGE_WIDTH - 3] + "..."
        rows.append(
            {
                "workload": result.cell.workload,
                "cost model": result.cell.cost_model,
                "algorithm": result.cell.algorithm,
                "error": failure.error_type,
                "attempts": failure.attempts,
                "message": message,
            }
        )
    return rows


def quality_rows(results: Sequence["CellResult"]) -> List[Dict[str, object]]:
    """One row per cell: cost, improvements, waste, reconstruction joins."""
    rows = []
    for result in _ok(results):
        payload = result.payload
        rows.append(
            {
                "workload": result.cell.workload,
                "cost model": result.cell.cost_model,
                "algorithm": result.cell.algorithm,
                "cost (s)": payload["estimated_cost"],
                "vs row %": 100.0 * payload["improvement_over_row"],
                "vs column %": 100.0 * payload["improvement_over_column"],
                "waste %": 100.0 * payload["unnecessary_data_fraction"],
                "joins": payload["average_reconstruction_joins"],
                "parts": payload["partitions"],
            }
        )
    return rows


def optimization_time_rows(results: Sequence["CellResult"]) -> List[Dict[str, object]]:
    """One row per cell: wall-clock optimisation time and effort proxy."""
    rows = []
    for result in _ok(results):
        payload = result.payload
        rows.append(
            {
                "workload": result.cell.workload,
                "cost model": result.cell.cost_model,
                "algorithm": result.cell.algorithm,
                "opt time (ms)": 1e3 * payload["timing"]["optimization_time"],
                "cost evals": payload["cost_evaluations"],
                "creation (s)": payload["creation_time"],
            }
        )
    return rows


def payoff_rows(results: Sequence["CellResult"]) -> List[Dict[str, object]]:
    """One row per cell: workload executions to amortise the investment."""
    rows = []
    for result in _ok(results):
        payload = result.payload
        optimization_time = payload["timing"]["optimization_time"]
        creation_time = payload["creation_time"]
        rows.append(
            {
                "workload": result.cell.workload,
                "cost model": result.cell.cost_model,
                "algorithm": result.cell.algorithm,
                "payoff vs row": payoff_fraction(
                    optimization_time,
                    creation_time,
                    payload["row_cost"],
                    payload["estimated_cost"],
                ),
                "payoff vs column": payoff_fraction(
                    optimization_time,
                    creation_time,
                    payload["column_cost"],
                    payload["estimated_cost"],
                ),
            }
        )
    return rows


def fragility_rows(
    results: Sequence["CellResult"],
    buffer_shrink: int = FRAGILITY_BUFFER_SHRINK,
) -> List[Dict[str, object]]:
    """Cost change of each stored layout when the buffer shrinks after the fact.

    Only cells whose cost model is an :class:`HDDCostModel` participate.  The
    stored layout is re-costed locally under a model whose buffer is
    ``buffer_shrink`` times smaller (never below one block), so this view
    needs no algorithm re-runs.
    """
    rows = []
    workloads: Dict[str, Workload] = {}
    for result in _ok(results):
        model = resolve_cost_model(result.cell.cost_model)
        if not isinstance(model, HDDCostModel):
            continue
        workload = workloads.get(result.cell.workload)
        if workload is None:
            workload = resolve_workload(result.cell.workload)
            workloads[result.cell.workload] = workload
        disk = model.disk
        shrunk = HDDCostModel(
            disk.with_buffer_size(max(disk.block_size, disk.buffer_size // buffer_shrink)),
            buffer_sharing=model.buffer_sharing,
        )
        layout = payload_layout(result.payload, workload)
        rows.append(
            {
                "workload": result.cell.workload,
                "cost model": result.cell.cost_model,
                "algorithm": result.cell.algorithm,
                f"fragility (buffer/{buffer_shrink})": fragility_metric(
                    workload, layout, model, shrunk
                ),
            }
        )
    return rows


def cross_model_rows(results: Sequence["CellResult"]) -> List[Dict[str, object]]:
    """Improvement over column per cost model — the paper's Table 6 pivot.

    One row per (workload, algorithm); one column per cost model present.
    """
    by_key: Dict[tuple, Dict[str, object]] = {}
    model_ids: List[str] = []
    for result in _ok(results):
        if result.cell.cost_model not in model_ids:
            model_ids.append(result.cell.cost_model)
        key = (result.cell.workload, result.cell.algorithm)
        row = by_key.setdefault(
            key,
            {"workload": result.cell.workload, "algorithm": result.cell.algorithm},
        )
        row[f"vs column % ({result.cell.cost_model})"] = (
            100.0 * result.payload["improvement_over_column"]
        )
    columns = ["workload", "algorithm"] + [f"vs column % ({m})" for m in model_ids]
    return [
        {name: row.get(name, "") for name in columns} for row in by_key.values()
    ]


def _executed_cells(results: Sequence["CellResult"]) -> List["CellResult"]:
    """The cells carrying a supported execution-backend section."""
    return [result for result in results if result.execution is not None]


def agreement_rows(results: Sequence["CellResult"]) -> List[Dict[str, object]]:
    """One row per executed cell: the prediction against the execution.

    The columns after the cell's identity are its backend's (see
    :meth:`repro.exec.backends.ExecutionBackend.agreement_row`).  SQLite rows
    carry no relative-error column: the model predicts the paper's testbed
    while the engine runs on this host, so only the *ranking* is meaningful
    (see :func:`agreement_summary_rows` and ``docs/ENGINE_X.md``).
    """
    return [
        {
            "workload": result.cell.workload,
            "cost model": result.cell.cost_model,
            "algorithm": result.cell.algorithm,
            **get_backend(result.cell.backend).agreement_row(
                result.execution, result.payload["timing"]
            ),
        }
        for result in _executed_cells(results)
    ]


def agreement_summary_rows(
    results: Sequence["CellResult"],
) -> List[Dict[str, object]]:
    """Per-algorithm agreement of one backend's cells.

    Each algorithm's rank correlation ranks its own cells (does the model
    order this algorithm's workloads the way execution does); the final
    ``(all)`` row pools every executed cell.  Backends whose units match the
    model's add mean/max |relative error|.
    """
    executed = _executed_cells(results)
    by_algorithm: Dict[str, List["CellResult"]] = {}
    for result in executed:
        by_algorithm.setdefault(result.cell.algorithm, []).append(result)

    def _summary(label: str, cells: Sequence["CellResult"]) -> Dict[str, object]:
        backend = get_backend(cells[0].cell.backend)
        pairs = [
            (
                c.execution["predicted_seconds"],
                backend.measured_seconds(c.execution, c.payload["timing"]),
            )
            for c in cells
        ]
        row = {
            "algorithm": label,
            "cells": len(cells),
            "rank corr": spearman_rank_correlation(
                [p for p, _ in pairs], [m for _, m in pairs]
            ),
        }
        if backend.absolute:
            row["mean |err| %"] = 100.0 * mean_absolute_relative_error(pairs)
            row["max |err| %"] = 100.0 * max_absolute_relative_error(pairs)
        return row

    rows = [_summary(name, cells) for name, cells in sorted(by_algorithm.items())]
    if len(by_algorithm) > 1:
        rows.append(_summary("(all)", executed))
    return rows


def headline_tables(results: Sequence["CellResult"]) -> str:
    """The headline tables rendered as aligned plain text.

    Quarantined cells are excluded from every metric view and reported in
    their own *Failures* table at the end, so a partially failed run still
    renders all the science its successful cells support.
    """
    sections = [
        format_table(quality_rows(results), title="Layout quality"),
        format_table(optimization_time_rows(results), title="Optimisation time"),
        format_table(payoff_rows(results), title="Pay-off (workload executions)"),
    ]
    fragility = fragility_rows(results)
    if fragility:
        sections.append(
            format_table(fragility, title="Fragility (stored layout, shrunken buffer)")
        )
    if len({result.cell.cost_model for result in results}) > 1:
        sections.append(
            format_table(cross_model_rows(results), title="Cross-model comparison")
        )
    for name in available_backends():
        executed = [result for result in results if result.cell.backend == name]
        agreement = agreement_rows(executed)
        if agreement:
            backend = get_backend(name)
            sections.append(format_table(agreement, title=backend.agreement_title))
            sections.append(
                format_table(
                    agreement_summary_rows(executed), title=backend.summary_title
                )
            )
    failures = failure_rows(results)
    if failures:
        sections.append(
            format_table(failures, title="Failures (quarantined cells)")
        )
    return "\n\n".join(sections)
