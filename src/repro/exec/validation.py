"""Layout-set validation: estimated costs against real execution.

:func:`validate_layouts` is the library entry point behind
:meth:`repro.core.advisor.LayoutAdvisor.validate_costs` and the
:mod:`repro.experiments.validation` driver: given one workload and a set of
named layouts (typically each algorithm's recommendation plus the Row and
Column baselines), it executes every layout on one execution backend
(:mod:`repro.exec.backends`), predicts the same runtimes with the analytical
model at the executed scale, and packages the agreement — per-layout
relative errors where the backend's units match the model's, plus the
Spearman rank correlation across layouts — into a :class:`ValidationReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.partitioning import Partitioning
from repro.cost.base import CostModel
from repro.cost.hdd import HDDCostModel
from repro.exec.backends import ExecutionBackend, explicit_settings, get_backend
from repro.exec.executor import unwrap_cost_model
from repro.metrics.agreement import (
    max_absolute_relative_error,
    mean_absolute_relative_error,
    spearman_rank_correlation,
)
from repro.workload.workload import Workload


@dataclass(frozen=True)
class LayoutValidation:
    """Predicted-vs-executed numbers of one layout."""

    label: str
    partitions: int
    predicted_seconds: float
    #: The executed time the prediction is compared against: traced I/O
    #: seconds on the measured backend, warm wall clock on SQLite.
    measured_seconds: float
    #: The backend's table columns for this layout.
    row: Mapping[str, object]


@dataclass
class ValidationReport:
    """Agreement of a whole layout set on one backend."""

    backend: ExecutionBackend
    workload_name: str
    cost_model_description: str
    rows: int
    data_seed: int
    validations: List[LayoutValidation]
    #: The engine page size (backends with a ``page_size`` setting only).
    page_size: Optional[int] = None

    @property
    def rank_correlation(self) -> float:
        """Spearman's rho between predicted and executed layout orderings."""
        return spearman_rank_correlation(
            [validation.predicted_seconds for validation in self.validations],
            [validation.measured_seconds for validation in self.validations],
        )

    @property
    def mean_absolute_relative_error(self) -> float:
        """Mean |relative error| of the predictions."""
        return mean_absolute_relative_error(self._pairs())

    @property
    def max_absolute_relative_error(self) -> float:
        """Worst |relative error| of the predictions."""
        return max_absolute_relative_error(self._pairs())

    def _pairs(self):
        return [
            (validation.predicted_seconds, validation.measured_seconds)
            for validation in self.validations
        ]

    def to_rows(self) -> List[Dict[str, object]]:
        """Tabular form, fastest executed layout first."""
        return [
            {"layout": validation.label, **validation.row}
            for validation in sorted(
                self.validations, key=lambda v: v.measured_seconds
            )
        ]

    def describe(self) -> str:
        """The agreement table plus the summary line."""
        # Imported here to avoid a circular import at package load time.
        from repro.experiments.report import format_table

        title = self.backend.validation_title.format(**vars(self))
        table = format_table(self.to_rows(), title=title)
        summary = f"rank correlation: {self.rank_correlation:.4f}"
        if self.backend.absolute:
            summary += (
                f"   mean |rel err|: {self.mean_absolute_relative_error * 100:.2f}%   "
                f"max |rel err|: {self.max_absolute_relative_error * 100:.2f}%"
            )
        return f"{table}\n{summary}"


def validate_layouts(
    workload: Workload,
    layouts: Mapping[str, Partitioning],
    cost_model: Optional[CostModel] = None,
    rows: Optional[int] = None,
    data_seed: int = 0,
    backend: str = "measured",
    page_size: Optional[int] = None,
) -> ValidationReport:
    """Execute every layout on ``backend`` and compare against the model.

    Parameters
    ----------
    workload:
        The workload to replay (full-scale; it is predicted and executed at
        the backend's measured scale).
    layouts:
        Named layouts over ``workload``'s schema, e.g. one per algorithm.
    cost_model:
        The model whose predictions are validated (defaults to the paper's
        testbed HDD model).  It must be one the backend can execute: the
        measured backend prices its traced I/O with the model's disk, so it
        needs a disk-based model; SQLite takes any model.
    rows / data_seed / page_size:
        Execution settings, checked by the backend (``page_size`` applies to
        SQLite only).  All layouts share one generated dataset, so the
        comparison is apples to apples.

    Equal layouts (``==`` on :class:`Partitioning`) execute once and share
    that execution's section and timing, so they tie in the ranking.
    """
    if not layouts:
        raise ValueError("validate_layouts needs at least one layout")
    execution_backend = get_backend(backend)
    model = cost_model if cost_model is not None else HDDCostModel()
    settings = execution_backend.resolve(
        explicit_settings(rows=rows, data_seed=data_seed, page_size=page_size), model
    )
    validations: List[LayoutValidation] = []
    data = None
    # Algorithms often agree (the paper's Lesson 1), and equal layouts
    # execute identically: run each distinct layout once.
    executed: Dict[Partitioning, Tuple[Dict[str, object], Dict[str, object]]] = {}
    for label, layout in layouts.items():
        if layout not in executed:
            section, timing, data = execution_backend.execute(
                layout, workload, model, settings, data
            )
            executed[layout] = section, timing
        section, timing = executed[layout]
        validations.append(
            LayoutValidation(
                label=label,
                partitions=layout.partition_count,
                predicted_seconds=section["predicted_seconds"],
                measured_seconds=execution_backend.measured_seconds(section, timing),
                row={
                    "parts": layout.partition_count,
                    **execution_backend.validation_row(section, timing),
                },
            )
        )
    return ValidationReport(
        backend=execution_backend,
        workload_name=workload.name,
        cost_model_description=unwrap_cost_model(model).describe(),
        rows=section["rows"],
        data_seed=settings["data_seed"],
        validations=validations,
        page_size=settings.get("page_size"),
    )
