"""Declarative comparison grids: cells and their axes.

A *grid* is the paper's experimental design as a value: the cross product of
algorithms x workloads x cost models.  Each :class:`GridCell` names one
combination entirely by strings and plain options, so cells are trivially
picklable (they cross the ``multiprocessing`` boundary), hashable (they key
result dictionaries) and content-addressable (the cache hashes the *resolved*
inputs, see :mod:`repro.grid.cache`).

Workloads and cost models are referenced by id and resolved late through
:func:`resolve_workload` / :func:`resolve_cost_model`, both in the parent
process (to fingerprint cache keys) and inside worker processes (to build the
actual objects without pickling them).  Builtin id schemes:

==========================  ==================================================
``tpch:<table>@<sf>``       TPC-H table workload at a scale factor
``ssb:<table>@<sf>``        Star Schema Benchmark table workload
``star:tiny|default``       synthetic star schema (:mod:`repro.workload.star`)
``telemetry:small|wide``    wide-sparse telemetry (:mod:`repro.workload.telemetry`)
==========================  ==================================================

Cost model ids: ``hdd`` (paper testbed disk), ``hdd:equal`` (equal buffer
sharing ablation), ``hdd:small-buffer`` (80 KB buffer, the paper's fragility
stress), ``mainmemory`` (cache-miss model of Table 6).  Custom workloads and
models register via :func:`register_workload` / :func:`register_cost_model`.

Cells come in three *backends*: ``"estimated"`` (the default — the cell's
numbers are analytical cost-model outputs) or a registered execution backend
(:mod:`repro.exec.backends`: ``"measured"``, the vectorized scan executor, or
``"sqlite"``, real SQLite tables), which also executes the cell's computed
layout and records the estimated-vs-executed agreement.  Executing cells
carry ``measurement`` settings (keys, defaults and checks belong to the
backend); they are part of the cell's cache identity (see
:func:`repro.grid.cache.cell_inputs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.advisor import DEFAULT_ALGORITHMS
from repro.cost.base import CostModel
from repro.cost.disk import DEFAULT_DISK, KB
from repro.cost.hdd import HDDCostModel
from repro.cost.mainmemory import MainMemoryCostModel
from repro.exec.backends import ExecutionBackend, available_backends, get_backend
from repro.workload.workload import Workload


class GridError(ValueError):
    """Raised when a grid spec, workload id or cost model id is invalid."""


class GridExecutionError(GridError):
    """Raised under fail-fast when a cell exhausts its attempts.

    Carries the label and failure description of the cell that aborted the
    run.  Cells completed before the abort were already persisted to the
    result cache, so a later keep-going (or fixed) invocation resumes rather
    than restarts.
    """

    def __init__(self, label: str, error_type: str, message: str, attempts: int) -> None:
        self.label = label
        self.error_type = error_type
        self.message = message
        self.attempts = attempts
        super().__init__(
            f"cell {label} failed after {attempts} attempt(s) "
            f"[{error_type}: {message}] (fail-fast)"
        )


# -- cells and specs -----------------------------------------------------------

#: The purely analytical cell backend: no layout is executed.
ESTIMATED = "estimated"

#: Valid cell backends: purely analytical, or analytical plus an execution on
#: one of the registered execution backends.
BACKENDS = (ESTIMATED, *available_backends())


def execution_backend(backend: str) -> Optional[ExecutionBackend]:
    """The execution backend of a cell backend name (``None``: estimated)."""
    return None if backend == ESTIMATED else get_backend(backend)


def canonical_measurement(
    measurement: Optional[Mapping[str, object]],
    backend: str = "measured",
) -> Tuple[Tuple[str, int], ...]:
    """Validate one backend's execution settings; canonical tuple form."""
    if not measurement:
        return ()
    if backend not in available_backends():
        raise GridError(
            "measurement settings require an executing backend "
            f"({' or '.join(repr(b) for b in available_backends())})"
        )
    try:
        return tuple(get_backend(backend).check(measurement).items())
    except ValueError as error:
        raise GridError(str(error)) from None


@dataclass(frozen=True)
class GridCell:
    """One (algorithm, workload, cost model) combination of a grid."""

    algorithm: str
    workload: str
    cost_model: str
    #: Algorithm constructor options in canonical (sorted) tuple form so the
    #: cell stays hashable; use :meth:`options` for the dict view.
    algorithm_options: Tuple[Tuple[str, object], ...] = ()
    #: Cell backend: ``"estimated"``, ``"measured"`` or ``"sqlite"``.
    backend: str = ESTIMATED
    #: Execution-backend settings in canonical tuple form; use
    #: :meth:`measurement_options` for the dict view.
    measurement: Tuple[Tuple[str, int], ...] = ()

    @property
    def label(self) -> str:
        """Compact display form, e.g. ``hillclimb/tpch:partsupp@0.1/hdd``."""
        base = f"{self.algorithm}/{self.workload}/{self.cost_model}"
        if self.backend != ESTIMATED:
            return f"{base} [{self.backend}]"
        return base

    def options(self) -> Dict[str, object]:
        """The algorithm constructor options as a plain dict."""
        return dict(self.algorithm_options)

    def measurement_options(self) -> Dict[str, int]:
        """The execution-backend settings as a plain dict (without defaults)."""
        return dict(self.measurement)


@dataclass(frozen=True)
class GridSpec:
    """The cross product of algorithms x workloads x cost models.

    ``algorithm_options`` maps algorithm name to constructor options applied
    to every cell of that algorithm (the same convention as
    :class:`~repro.core.advisor.LayoutAdvisor`).  ``backend`` selects the
    cell kind for the whole grid (``"estimated"``, ``"measured"`` or
    ``"sqlite"``); ``measurement`` carries the executing backend's ``rows`` /
    ``data_seed`` (/ ``page_size`` for sqlite) settings.
    """

    name: str
    algorithms: Tuple[str, ...]
    workloads: Tuple[str, ...]
    cost_models: Tuple[str, ...]
    algorithm_options: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...] = ()
    backend: str = ESTIMATED
    measurement: Tuple[Tuple[str, int], ...] = ()

    def __init__(
        self,
        name: str,
        algorithms: Sequence[str],
        workloads: Sequence[str],
        cost_models: Sequence[str],
        algorithm_options: Optional[Mapping[str, Mapping[str, object]]] = None,
        backend: str = ESTIMATED,
        measurement: Optional[Mapping[str, object]] = None,
    ) -> None:
        if not algorithms or not workloads or not cost_models:
            raise GridError("a grid needs at least one algorithm, workload and cost model")
        for axis_name, axis in (
            ("algorithms", algorithms),
            ("workloads", workloads),
            ("cost_models", cost_models),
        ):
            if len(set(axis)) != len(axis):
                raise GridError(f"grid axis {axis_name!r} contains duplicates")
        if backend not in BACKENDS:
            raise GridError(
                f"unknown backend {backend!r}; available: {list(BACKENDS)}"
            )
        canonical_options = tuple(
            sorted(
                (algorithm, tuple(sorted(options.items())))
                for algorithm, options in (algorithm_options or {}).items()
            )
        )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "algorithms", tuple(algorithms))
        object.__setattr__(self, "workloads", tuple(workloads))
        object.__setattr__(self, "cost_models", tuple(cost_models))
        object.__setattr__(self, "algorithm_options", canonical_options)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(
            self, "measurement", canonical_measurement(measurement, backend)
        )

    @property
    def cell_count(self) -> int:
        """Number of cells in the grid."""
        return len(self.algorithms) * len(self.workloads) * len(self.cost_models)

    def options_for(self, algorithm: str) -> Tuple[Tuple[str, object], ...]:
        """Canonical options tuple for one algorithm (empty if none set)."""
        for name, options in self.algorithm_options:
            if name == algorithm:
                return options
        return ()

    def cells(self) -> List[GridCell]:
        """All cells in deterministic (workload, cost model, algorithm) order.

        Workload-major order keeps cells sharing a schema adjacent, which
        maximises evaluator-cache reuse inside pool workers.
        """
        return [
            GridCell(
                algorithm=algorithm,
                workload=workload,
                cost_model=cost_model,
                algorithm_options=self.options_for(algorithm),
                backend=self.backend,
                measurement=self.measurement,
            )
            for workload in self.workloads
            for cost_model in self.cost_models
            for algorithm in self.algorithms
        ]

    def with_backend(
        self, backend: str, measurement: Optional[Mapping[str, object]] = None
    ) -> "GridSpec":
        """The same grid under a different backend (e.g. ``"measured"``)."""
        return GridSpec(
            name=self.name,
            algorithms=self.algorithms,
            workloads=self.workloads,
            cost_models=self.cost_models,
            algorithm_options={
                name: dict(options) for name, options in self.algorithm_options
            },
            backend=backend,
            measurement=measurement,
        )

    def describe(self) -> str:
        """One-line shape summary."""
        suffix = "" if self.backend == ESTIMATED else f" ({self.backend} backend)"
        return (
            f"grid {self.name!r}: {self.cell_count} cells = "
            f"{len(self.algorithms)} algorithms x {len(self.workloads)} workloads "
            f"x {len(self.cost_models)} cost models{suffix}"
        )


# -- workload resolution -------------------------------------------------------

_WORKLOAD_REGISTRY: Dict[str, Callable[[], Workload]] = {}


def register_workload(
    workload_id: str, factory: Callable[[], Workload], replace: bool = False
) -> None:
    """Register a custom workload factory under ``workload_id``.

    The factory must be deterministic: the cache fingerprints the *content* of
    the resolved workload, so a factory returning different queries per call
    would defeat caching (every run would recompute).

    Registrations live in this module's process-local registry.  Pool workers
    re-resolve ids on their side of the boundary, so with ``workers > 1``
    under a non-``fork`` start method (``spawn`` is the default on macOS and
    Windows) the registration must happen at import time of a module the
    workers also import — otherwise they raise ``GridError`` for the custom
    id.  Builtin id schemes resolve everywhere.
    """
    if workload_id in _WORKLOAD_REGISTRY and not replace:
        raise GridError(f"workload id {workload_id!r} is already registered")
    _WORKLOAD_REGISTRY[workload_id] = factory


def _parse_table_at_scale(rest: str, workload_id: str) -> Tuple[str, float]:
    table, separator, scale = rest.partition("@")
    if not table:
        raise GridError(f"workload id {workload_id!r} names no table")
    if not separator:
        return table, 1.0
    try:
        return table, float(scale)
    except ValueError:
        raise GridError(
            f"workload id {workload_id!r} has a non-numeric scale factor {scale!r}"
        ) from None


#: Preset factories of the generator-backed schemes.
_STAR_PRESETS: Dict[str, Callable[[], Workload]] = {}
_TELEMETRY_PRESETS: Dict[str, Callable[[], Workload]] = {}


def _generator_presets() -> None:
    """Populate the preset tables lazily (keeps import time flat)."""
    if _STAR_PRESETS:
        return
    from repro.workload import star, telemetry

    _STAR_PRESETS.update(
        {"tiny": star.tiny_star_workload, "default": star.default_star_workload}
    )
    _TELEMETRY_PRESETS.update(
        {
            "small": telemetry.small_telemetry_workload,
            "wide": telemetry.wide_telemetry_workload,
        }
    )


def resolve_workload(workload_id: str) -> Workload:
    """Build the :class:`~repro.workload.workload.Workload` named by an id."""
    factory = _WORKLOAD_REGISTRY.get(workload_id)
    if factory is not None:
        return factory()
    scheme, _, rest = workload_id.partition(":")
    if scheme == "tpch":
        from repro.workload import tpch

        table, scale_factor = _parse_table_at_scale(rest, workload_id)
        return tpch.tpch_workload(table, scale_factor=scale_factor)
    if scheme == "ssb":
        from repro.workload import ssb

        table, scale_factor = _parse_table_at_scale(rest, workload_id)
        return ssb.ssb_workload(table, scale_factor=scale_factor)
    if scheme in ("star", "telemetry"):
        _generator_presets()
        presets = _STAR_PRESETS if scheme == "star" else _TELEMETRY_PRESETS
        try:
            return presets[rest]()
        except KeyError:
            raise GridError(
                f"unknown {scheme} preset {rest!r}; available: {sorted(presets)}"
            ) from None
    raise GridError(
        f"unknown workload id {workload_id!r}; use tpch:<table>@<sf>, "
        f"ssb:<table>@<sf>, star:<preset>, telemetry:<preset>, or register_workload()"
    )


# -- cost model resolution -----------------------------------------------------

_COST_MODEL_REGISTRY: Dict[str, Callable[[], CostModel]] = {
    "hdd": HDDCostModel,
    "hdd:equal": lambda: HDDCostModel(buffer_sharing="equal"),
    "hdd:small-buffer": lambda: HDDCostModel(DEFAULT_DISK.with_buffer_size(80 * KB)),
    "mainmemory": MainMemoryCostModel,
}


def register_cost_model(
    cost_model_id: str, factory: Callable[[], CostModel], replace: bool = False
) -> None:
    """Register a custom cost model factory under ``cost_model_id``."""
    if cost_model_id in _COST_MODEL_REGISTRY and not replace:
        raise GridError(f"cost model id {cost_model_id!r} is already registered")
    _COST_MODEL_REGISTRY[cost_model_id] = factory


def resolve_cost_model(cost_model_id: str) -> CostModel:
    """Build the :class:`~repro.cost.base.CostModel` named by an id."""
    try:
        factory = _COST_MODEL_REGISTRY[cost_model_id]
    except KeyError:
        raise GridError(
            f"unknown cost model id {cost_model_id!r}; "
            f"available: {sorted(_COST_MODEL_REGISTRY)}"
        ) from None
    return factory()


# -- builtin grids -------------------------------------------------------------

BUILTIN_GRIDS: Dict[str, GridSpec] = {
    # 2 x 2 x 1: the CI smoke grid — one benchmark table, one generated
    # scenario, the two algorithm families (bottom-up / top-down).
    "tiny": GridSpec(
        name="tiny",
        algorithms=("hillclimb", "navathe"),
        workloads=("tpch:partsupp@0.1", "telemetry:small"),
        cost_models=("hdd",),
    ),
    # The default interactive grid: the paper's six algorithms on four
    # scenario classes under both hardware models — small enough to finish in
    # well under a minute, wide enough that every aggregate table is populated.
    "small": GridSpec(
        name="small",
        algorithms=DEFAULT_ALGORITHMS,
        workloads=(
            "tpch:partsupp@0.1",
            "tpch:customer@0.1",
            "star:tiny",
            "telemetry:small",
        ),
        cost_models=("hdd", "mainmemory"),
    ),
    # The full cross product over both published benchmarks plus the generated
    # scenarios, under three hardware models (the paper's headline grid).
    "full": GridSpec(
        name="full",
        algorithms=DEFAULT_ALGORITHMS,
        workloads=(
            "tpch:lineitem@1",
            "tpch:orders@1",
            "tpch:partsupp@1",
            "tpch:part@1",
            "tpch:customer@1",
            "tpch:supplier@1",
            "ssb:lineorder@1",
            "ssb:customer@1",
            "ssb:part@1",
            "star:default",
            "telemetry:wide",
        ),
        cost_models=("hdd", "hdd:small-buffer", "mainmemory"),
    ),
}


def builtin_grid(name: str) -> GridSpec:
    """Look up a builtin grid by name (``tiny``, ``small``, ``full``)."""
    try:
        return BUILTIN_GRIDS[name]
    except KeyError:
        raise GridError(
            f"unknown grid {name!r}; available: {sorted(BUILTIN_GRIDS)}"
        ) from None
