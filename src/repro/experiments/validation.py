"""Estimated-vs-measured validation: Figure 3's shape, executed.

Figure 3 of the paper plots the *measured* workload runtime of every
algorithm's layout (plus the Row and Column baselines) on its test system;
the reproduction's other drivers report the analytical estimate instead.
This driver closes the gap on synthetic TPC-H: it runs every algorithm per
table, executes each recommended layout on the vectorized scan executor
(:mod:`repro.exec`), and reports the estimated and measured runtimes side by
side — the figure's shape (which algorithms cluster at the bottom, Row at the
top, the affinity family in between) should survive measurement, and the
agreement summary quantifies how well it does.

Like every driver in this package, the functions return plain list-of-dict
rows for the benchmark harness to print and the integration tests to assert
on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.advisor import DEFAULT_ALGORITHMS, LayoutAdvisor
from repro.cost.base import CostModel
from repro.cost.hdd import HDDCostModel
from repro.exec.validation import ValidationReport
from repro.metrics.agreement import relative_error, spearman_rank_correlation
from repro.workload import tpch

#: Tables small enough to validate in seconds at the default measured scale.
DEFAULT_TABLES = ("partsupp", "customer", "supplier")


def validation_reports(
    tables: Sequence[str] = DEFAULT_TABLES,
    scale_factor: float = 0.1,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    rows: Optional[int] = None,
    data_seed: int = 0,
    cost_model: Optional[CostModel] = None,
) -> Dict[str, ValidationReport]:
    """One :class:`ValidationReport` per TPC-H table.

    Each table's report validates every algorithm's recommendation plus the
    Row and Column baselines at the executor's measured scale.
    """
    model = cost_model if cost_model is not None else HDDCostModel()
    advisor = LayoutAdvisor(cost_model=model, algorithms=algorithms)
    reports: Dict[str, ValidationReport] = {}
    for table in tables:
        workload = tpch.tpch_workload(table, scale_factor=scale_factor)
        reports[table] = advisor.validate_costs(
            workload, rows=rows, data_seed=data_seed
        )
    return reports


def estimated_vs_measured_runtimes(
    reports: Optional[Dict[str, ValidationReport]] = None,
    **kwargs,
) -> List[Dict[str, object]]:
    """Figure 3 rows, twice over: per layout, total runtime across tables.

    One row per layout label (each algorithm plus ``row`` and ``column``),
    summed over every validated table, sorted cheapest-measured first —
    the figure's bar ordering, with the estimated bars alongside.
    """
    if reports is None:
        reports = validation_reports(**kwargs)
    predicted: Dict[str, float] = {}
    measured: Dict[str, float] = {}
    for report in reports.values():
        for validation in report.validations:
            predicted[validation.label] = (
                predicted.get(validation.label, 0.0) + validation.predicted_seconds
            )
            measured[validation.label] = (
                measured.get(validation.label, 0.0) + validation.measured_seconds
            )
    rows = []
    for label in sorted(measured, key=measured.get):
        rows.append(
            {
                "layout": label,
                "estimated_runtime_s": predicted[label],
                "measured_runtime_s": measured[label],
                "rel err %": 100.0 * relative_error(predicted[label], measured[label]),
            }
        )
    return rows


def agreement_summary(
    reports: Optional[Dict[str, ValidationReport]] = None,
    **kwargs,
) -> Dict[str, object]:
    """Headline agreement numbers over a set of validation reports.

    ``rank_correlation`` pools every (predicted, measured) pair across all
    tables; ``per_table`` keeps each table's own correlation and error
    statistics so a single misbehaving schema cannot hide in the pool.
    """
    if reports is None:
        reports = validation_reports(**kwargs)
    predicted: List[float] = []
    measured: List[float] = []
    per_table: Dict[str, Dict[str, float]] = {}
    worst = 0.0
    for table, report in reports.items():
        for validation in report.validations:
            predicted.append(validation.predicted_seconds)
            measured.append(validation.measured_seconds)
        worst = max(worst, report.max_absolute_relative_error)
        per_table[table] = {
            "rank_correlation": report.rank_correlation,
            "mean_absolute_relative_error": report.mean_absolute_relative_error,
            "max_absolute_relative_error": report.max_absolute_relative_error,
        }
    return {
        "rank_correlation": spearman_rank_correlation(predicted, measured),
        "max_absolute_relative_error": worst,
        "layouts_validated": len(predicted),
        "per_table": per_table,
    }
