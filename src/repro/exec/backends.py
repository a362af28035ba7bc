"""Execution backends: the registry of ways to run a layout for real.

Each backend is one :class:`ExecutionBackend`, looked up by name with
:func:`get_backend` the way :func:`repro.core.algorithm.get_algorithm` finds
algorithms.  It owns its settings (keys, defaults, value checks), the cost
models it can execute, its grid cache fingerprint, one
:meth:`~ExecutionBackend.execute`, and its table titles and columns, so no
caller branches on a backend's name.  ``docs/EXECUTION.md`` lists the
members; adding a backend is one subclass plus one :data:`_REGISTRY` entry.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Optional, Tuple

from repro.cost.base import CostModel
from repro.engine_x.executor import DEFAULT_PAGE_SIZE, PAGE_SIZES, SQLiteExecutor
from repro.exec.executor import (
    DEFAULT_MEASURED_ROWS,
    VectorizedScanExecutor,
    measured_buffer_sharing,
    measured_disk,
    unwrap_cost_model,
)
from repro.metrics.agreement import relative_error
from repro.workload.workload import Workload


def explicit_settings(**settings: Optional[int]) -> Dict[str, int]:
    """The given execution settings minus those left at ``None`` (defaulted)."""
    return {key: value for key, value in settings.items() if value is not None}


class ExecutionBackend(abc.ABC):
    """A registered way of executing layouts; subclasses fill in the hooks."""

    #: Registry name; also the key of the backend's grid payload section.
    name: str = ""
    #: Valid settings keys, in canonical order, mapped to their defaults.
    defaults: Mapping[str, int] = {}
    #: Whether predictions and measurements share units, which makes
    #: per-layout relative errors meaningful (otherwise only the ranking is).
    absolute: bool = False
    #: Titles of the grid's per-cell agreement and per-algorithm summary
    #: tables, and the format of a validation report's title (filled from
    #: the :class:`~repro.exec.validation.ValidationReport`'s fields).
    agreement_title: str = ""
    summary_title: str = ""
    validation_title: str = ""

    def check(
        self,
        settings: Optional[Mapping[str, object]],
        cost_model: Optional[CostModel] = None,
    ) -> Dict[str, int]:
        """The passed settings as integers in canonical key order (no defaults).

        The one settings-and-model check every entry point runs before any
        algorithm does: raises ``ValueError`` for an unknown key, a bad value,
        or (when given) a cost model this backend cannot execute.
        """
        settings = settings or {}
        unknown = sorted(set(settings) - set(self.defaults))
        if unknown:
            message = (
                f"unknown measurement settings {unknown} for backend "
                f"{self.name!r}; valid: {sorted(self.defaults)}"
            )
            for key in unknown:
                owners = [repr(b.name) for b in _REGISTRY.values() if key in b.defaults]
                if owners:
                    names = " or ".join(owners)
                    message += f"; {key!r} applies to backend {names} only"
            raise ValueError(message)
        checked: Dict[str, int] = {}
        for key in self.defaults:
            if key not in settings:
                continue
            try:
                value = int(settings[key])
            except (TypeError, ValueError):
                raise ValueError(
                    f"measurement setting {key!r} must be an integer, "
                    f"got {settings[key]!r}"
                ) from None
            if key == "rows" and value < 1:
                raise ValueError("measurement setting 'rows' must be >= 1")
            if key == "page_size" and value not in PAGE_SIZES:
                raise ValueError(
                    f"measurement setting 'page_size' must be one of "
                    f"{list(PAGE_SIZES)}, got {value}"
                )
            checked[key] = value
        reason = None if cost_model is None else self.unsupported_reason(cost_model)
        if reason is not None:
            raise ValueError(
                f"the {self.name} backend cannot execute this model: {reason}"
            )
        return checked

    def resolve(
        self,
        settings: Optional[Mapping[str, object]],
        cost_model: Optional[CostModel] = None,
    ) -> Dict[str, int]:
        """Checked settings with defaults applied: the executed values.

        Cache fingerprints and executions both start from this, so an
        explicit setting equal to its default hashes like the default.
        """
        return {**self.defaults, **self.check(settings, cost_model)}

    def unsupported_reason(self, cost_model: CostModel) -> Optional[str]:
        """Why ``cost_model`` cannot be executed here, or ``None`` if it can."""
        return None

    @abc.abstractmethod
    def fingerprint(self, settings, cost_model, workload) -> Dict[str, object]:
        """What beyond the estimated inputs can change an executed cell
        (``settings`` resolved): its part of the grid cache key."""

    @abc.abstractmethod
    def execute(
        self, layout, workload, cost_model, settings, data=None
    ) -> Tuple[Dict[str, object], Dict[str, object], Dict[str, object]]:
        """Run ``layout`` at resolved ``settings``: ``(section, timing, data)``.

        ``section`` holds the run's deterministic facts (the payload section
        the grid cache content-hashes under the backend's name), ``timing``
        its wall-clock entries, and ``data`` the column arrays — pass them
        back as ``data`` to reuse them for the same schema, rows and seed.
        """

    @abc.abstractmethod
    def measured_seconds(self, section, timing) -> float:
        """The executed time an execution's prediction is compared against."""

    @abc.abstractmethod
    def agreement_row(self, section, timing) -> Dict[str, object]:
        """The grid agreement-table columns of one executed cell."""

    @abc.abstractmethod
    def validation_row(self, section, timing) -> Dict[str, object]:
        """The validation-table columns of one executed layout."""


def _effective_rows(settings: Mapping[str, int], workload: Workload) -> int:
    """The executed row count: the requested one capped at the schema's, so
    requests that execute identically share one cache entry."""
    return max(1, min(settings["rows"], workload.schema.row_count))


class MeasuredBackend(ExecutionBackend):
    """Buffered-scan replay on the vectorized executor (disk models only)."""

    name = "measured"
    defaults = {"rows": DEFAULT_MEASURED_ROWS, "data_seed": 0}
    absolute = True
    agreement_title = "Estimated vs measured agreement"
    summary_title = "Agreement by algorithm"
    validation_title = (
        "Estimated vs measured — {workload_name} "
        "({cost_model_description}, {rows:,} measured rows)"
    )

    def unsupported_reason(self, cost_model: CostModel) -> Optional[str]:
        if measured_disk(cost_model) is None:
            return (
                f"cost model {unwrap_cost_model(cost_model).describe()} "
                f"has no disk to execute against"
            )
        return None

    def fingerprint(self, settings, cost_model, workload):
        # The disk is part of a builtin model's description too, but the
        # executor reads it off the model object: a custom model whose
        # describe() omits it must not let two disks share one entry.
        disk = measured_disk(cost_model)
        return {
            "rows": _effective_rows(settings, workload),
            "data_seed": settings["data_seed"],
            "disk": disk.describe() if disk is not None else None,
        }

    def execute(self, layout, workload, cost_model, settings, data=None):
        executor = VectorizedScanExecutor(
            layout,
            disk=measured_disk(cost_model),
            rows=settings["rows"],
            buffer_sharing=measured_buffer_sharing(cost_model),
            data_seed=settings["data_seed"],
            data=data,
        )
        run = executor.execute_workload(workload)
        predicted = executor.predicted_cost(workload, unwrap_cost_model(cost_model))
        section = {
            "supported": True,
            "rows": executor.rows,
            "data_seed": settings["data_seed"],
            "predicted_seconds": predicted,
            "measured_io_seconds": run.io_seconds,
            "relative_error": relative_error(predicted, run.io_seconds),
            "blocks_read": run.blocks_read,
            "seeks": run.seeks,
            "data_checksum": run.checksum,
        }
        return section, {"measured_cpu_seconds": run.cpu_seconds}, executor.data

    def measured_seconds(self, section, timing):
        return section["measured_io_seconds"]

    def agreement_row(self, section, timing):
        return {
            "rows": section["rows"],
            "predicted (s)": section["predicted_seconds"],
            "measured (s)": section["measured_io_seconds"],
            "rel err %": 100.0 * section["relative_error"],
            "blocks": section["blocks_read"],
            "seeks": section["seeks"],
        }

    def validation_row(self, section, timing):
        return {
            "predicted (s)": section["predicted_seconds"],
            "measured io (s)": section["measured_io_seconds"],
            "rel err %": 100.0 * section["relative_error"],
            "cpu (ms)": 1e3 * timing["measured_cpu_seconds"],
            "blocks": section["blocks_read"],
            "seeks": section["seeks"],
        }


class SQLiteBackend(ExecutionBackend):
    """Real execution on embedded SQLite (any model; ranking comparison)."""

    name = "sqlite"
    defaults = {
        "rows": DEFAULT_MEASURED_ROWS,
        "data_seed": 0,
        "page_size": DEFAULT_PAGE_SIZE,
    }
    absolute = False
    agreement_title = "Estimated vs SQLite engine agreement"
    summary_title = "SQLite agreement by algorithm"
    validation_title = (
        "Estimated vs SQLite — {workload_name} "
        "({cost_model_description}, {rows:,} rows, page {page_size})"
    )

    def fingerprint(self, settings, cost_model, workload):
        # No disk and no host identity: the engine's wall clock depends on the
        # host, and a cached timing is a *sample* — rerunning on other
        # hardware resumes rather than remeasures (``refresh`` remeasures).
        return {
            "engine": "sqlite",
            "rows": _effective_rows(settings, workload),
            "data_seed": settings["data_seed"],
            "page_size": settings["page_size"],
        }

    def execute(self, layout, workload, cost_model, settings, data=None):
        with SQLiteExecutor(
            layout,
            rows=settings["rows"],
            data_seed=settings["data_seed"],
            page_size=settings["page_size"],
            data=data,
        ) as executor:
            run = executor.execute_workload(workload)
            predicted = executor.predicted_cost(workload, unwrap_cost_model(cost_model))
        section = {
            "supported": True,
            "engine": "sqlite",
            "rows": run.rows,
            "data_seed": settings["data_seed"],
            "page_size": settings["page_size"],
            "group_tables": layout.partition_count,
            "predicted_seconds": predicted,
            "rows_scanned": run.rows_scanned,
            "bytes_scanned": run.bytes_scanned,
        }
        timing = {
            "sqlite_seconds": run.elapsed_seconds,
            "sqlite_query_seconds": run.seconds_by_query(),
        }
        return section, timing, executor.data

    def measured_seconds(self, section, timing):
        return float(timing.get("sqlite_seconds", 0.0))

    def agreement_row(self, section, timing):
        return {
            "rows": section["rows"],
            "page": section["page_size"],
            "predicted (s)": section["predicted_seconds"],
            "sqlite (ms)": 1e3 * self.measured_seconds(section, timing),
            "MB scanned": section["bytes_scanned"] / 1e6,
            "tables": section["group_tables"],
        }

    def validation_row(self, section, timing):
        return {
            "predicted (s)": section["predicted_seconds"],
            "sqlite (ms)": 1e3 * self.measured_seconds(section, timing),
            "MB scanned": section["bytes_scanned"] / 1e6,
        }


#: The registered backends by name; adding a backend is one entry here.
_REGISTRY: Dict[str, ExecutionBackend] = {
    backend.name: backend for backend in (MeasuredBackend(), SQLiteBackend())
}


def available_backends() -> List[str]:
    """Names of all registered execution backends, in registration order."""
    return list(_REGISTRY)


def get_backend(name: str) -> ExecutionBackend:
    """The execution backend registered as ``name``."""
    try:
        return _REGISTRY[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown execution backend {name!r}; available: {available_backends()}"
        ) from None

