"""Measured execution: the backend that makes the cost models falsifiable.

Everywhere else in the library a layout's "runtime" is an *estimate* — a
closed formula over block counts and seek times.  This package actually runs
the layout: :class:`~repro.exec.executor.VectorizedScanExecutor` materialises
a partitioning into numpy-backed column-group files and replays a workload
with bulk buffered scans, tracing blocks and seeks from the walk itself and
measuring the vectorized CPU work.  :mod:`repro.exec.validation` compares
those measurements with the analytical predictions (relative error per
layout, Spearman rank correlation across layouts).  Both this executor and
real SQLite are execution backends registered in :mod:`repro.exec.backends`.

Entry points, closest to farthest:

* :func:`~repro.exec.validation.validate_layouts` — one workload, a named
  set of layouts, one backend, one report.
* :meth:`repro.core.advisor.LayoutAdvisor.validate_costs` — run the
  configured algorithms and validate their recommendations in one call.
* ``python -m repro.grid --backend measured`` — every grid cell carries a
  measured section; the aggregate tables add estimated-vs-measured agreement.

See ``docs/EXECUTION.md`` for the measured/modeled split and the invariants.
"""

from repro.exec.executor import (
    DEFAULT_MEASURED_ROWS,
    MeasuredRun,
    MeasuredWorkloadRun,
    VectorizedScanExecutor,
    measured_buffer_sharing,
    measured_disk,
    unwrap_cost_model,
)
from repro.exec.validation import (
    LayoutValidation,
    ValidationReport,
    validate_layouts,
)

__all__ = [
    "DEFAULT_MEASURED_ROWS",
    "MeasuredRun",
    "MeasuredWorkloadRun",
    "VectorizedScanExecutor",
    "measured_disk",
    "measured_buffer_sharing",
    "unwrap_cost_model",
    "LayoutValidation",
    "ValidationReport",
    "validate_layouts",
]
