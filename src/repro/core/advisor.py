"""High-level public API: the layout advisor.

:class:`LayoutAdvisor` is the entry point a downstream user calls: give it a
workload (or a whole benchmark's per-table workloads), pick a cost model and
one or more algorithms, and it returns recommended layouts together with the
comparison metrics the paper defines (optimisation time, estimated cost,
improvement over row/column, unnecessary data read, tuple reconstruction
joins, pay-off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.algorithm import PartitioningResult, get_algorithm
from repro.core.partitioning import (
    Partitioning,
    column_partitioning,
    row_partitioning,
)
from repro.cost.base import CostModel
from repro.cost.creation import estimate_creation_time
from repro.cost.disk import DEFAULT_DISK
from repro.cost.hdd import HDDCostModel
from repro.workload.workload import Workload

#: Algorithms the advisor compares when the caller does not name any —
#: the paper's six algorithms (brute force excluded by default because its
#: cost explodes beyond ~12 attributes).
DEFAULT_ALGORITHMS = ("autopart", "hillclimb", "hyrise", "navathe", "o2p", "trojan")


@dataclass
class AdvisorRecommendation:
    """One algorithm's recommendation for one workload, with derived metrics."""

    result: PartitioningResult
    improvement_over_row: float
    improvement_over_column: float
    unnecessary_data_fraction: float
    average_reconstruction_joins: float
    creation_time: float

    @property
    def partitioning(self) -> Partitioning:
        """The recommended layout."""
        return self.result.partitioning

    @property
    def algorithm(self) -> str:
        """Name of the algorithm that produced the layout."""
        return self.result.algorithm

    @property
    def estimated_cost(self) -> float:
        """Estimated workload cost of the layout."""
        return self.result.estimated_cost


@dataclass
class AdvisorReport:
    """All recommendations for one workload, sorted by estimated cost."""

    workload: Workload
    cost_model_description: str
    row_cost: float
    column_cost: float
    recommendations: List[AdvisorRecommendation] = field(default_factory=list)

    @property
    def best(self) -> AdvisorRecommendation:
        """The cheapest recommendation."""
        if not self.recommendations:
            raise ValueError("advisor report contains no recommendations")
        return min(self.recommendations, key=lambda rec: rec.estimated_cost)

    def by_algorithm(self, name: str) -> AdvisorRecommendation:
        """The recommendation produced by algorithm ``name``."""
        for recommendation in self.recommendations:
            if recommendation.algorithm == name:
                return recommendation
        raise KeyError(f"no recommendation from algorithm {name!r}")

    def to_rows(self) -> List[Dict[str, object]]:
        """Tabular form (list of dicts), handy for printing or DataFrames."""
        rows = []
        for recommendation in sorted(
            self.recommendations, key=lambda rec: rec.estimated_cost
        ):
            rows.append(
                {
                    "algorithm": recommendation.algorithm,
                    "estimated_cost_s": recommendation.estimated_cost,
                    "optimization_time_s": recommendation.result.optimization_time,
                    "partitions": recommendation.partitioning.partition_count,
                    "improvement_over_row_pct": 100.0 * recommendation.improvement_over_row,
                    "improvement_over_column_pct": 100.0
                    * recommendation.improvement_over_column,
                    "unnecessary_data_pct": 100.0
                    * recommendation.unnecessary_data_fraction,
                    "avg_reconstruction_joins": recommendation.average_reconstruction_joins,
                    "creation_time_s": recommendation.creation_time,
                }
            )
        return rows

    def describe(self) -> str:
        """Formatted comparison table."""
        header = (
            f"{'algorithm':<12s} {'cost (s)':>12s} {'opt (ms)':>10s} {'parts':>6s} "
            f"{'vs row':>8s} {'vs col':>8s} {'waste':>7s} {'joins':>6s}"
        )
        lines = [
            f"Advisor report for {self.workload.name} ({self.cost_model_description})",
            f"  row layout cost    : {self.row_cost:.4f} s",
            f"  column layout cost : {self.column_cost:.4f} s",
            "  " + header,
        ]
        for row in self.to_rows():
            lines.append(
                "  "
                + f"{row['algorithm']:<12s} {row['estimated_cost_s']:>12.4f} "
                + f"{row['optimization_time_s'] * 1e3:>10.2f} {row['partitions']:>6d} "
                + f"{row['improvement_over_row_pct']:>7.2f}% "
                + f"{row['improvement_over_column_pct']:>7.2f}% "
                + f"{row['unnecessary_data_pct']:>6.2f}% "
                + f"{row['avg_reconstruction_joins']:>6.2f}"
            )
        return "\n".join(lines)


class LayoutAdvisor:
    """Runs partitioning algorithms over workloads and derives comparison metrics."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
        algorithm_options: Optional[Mapping[str, Mapping[str, object]]] = None,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else HDDCostModel(DEFAULT_DISK)
        self.algorithm_names = tuple(algorithms)
        self.algorithm_options = dict(algorithm_options or {})

    # -- single workload -------------------------------------------------------

    def recommend(self, workload: Workload) -> AdvisorReport:
        """Run every configured algorithm on ``workload`` and compare the layouts."""
        # Imported here to avoid a circular import at package load time.
        from repro.metrics.quality import (
            average_reconstruction_joins,
            unnecessary_data_fraction,
        )

        row_layout = row_partitioning(workload.schema)
        column_layout = column_partitioning(workload.schema)
        row_cost = self.cost_model.workload_cost(workload, row_layout)
        column_cost = self.cost_model.workload_cost(workload, column_layout)

        report = AdvisorReport(
            workload=workload,
            cost_model_description=self.cost_model.describe(),
            row_cost=row_cost,
            column_cost=column_cost,
        )
        for name in self.algorithm_names:
            options = dict(self.algorithm_options.get(name, {}))
            algorithm = get_algorithm(name, **options)
            result = algorithm.run(workload, self.cost_model)
            cost = result.estimated_cost
            recommendation = AdvisorRecommendation(
                result=result,
                improvement_over_row=_relative_improvement(row_cost, cost),
                improvement_over_column=_relative_improvement(column_cost, cost),
                unnecessary_data_fraction=unnecessary_data_fraction(
                    workload, result.partitioning
                ),
                average_reconstruction_joins=average_reconstruction_joins(
                    workload, result.partitioning
                ),
                creation_time=estimate_creation_time(result.partitioning),
            )
            report.recommendations.append(recommendation)
        return report

    def recommend_layout(self, workload: Workload) -> Partitioning:
        """Just the best layout for ``workload`` (cheapest estimated cost)."""
        return self.recommend(workload).best.partitioning

    # -- online entry point ----------------------------------------------------

    def recommend_online(
        self,
        stream,
        algorithm: str = "hillclimb",
        window: int = 32,
        **adaptive_options,
    ):
        """Run the adaptive online controller over a query stream.

        The dynamic-workload counterpart of :meth:`recommend`: instead of
        optimising a workload known up front, an
        :class:`~repro.online.controller.AdaptiveAdvisor` watches the stream
        through windowed statistics, re-runs ``algorithm`` when drift is
        detected, and re-partitions only when the pay-off clears its budget.
        Returns the :class:`~repro.online.controller.OnlineRunResult` with
        the cumulative scan/creation/optimisation accounting and the final
        layout.  Extra keyword arguments go to ``AdaptiveAdvisor`` (e.g.
        ``payoff_limit``, a custom ``detector`` or ``stats``).
        """
        # Imported here to avoid a circular import at package load time.
        from repro.online.controller import AdaptiveAdvisor, run_policy

        policy = AdaptiveAdvisor(
            cost_model=self.cost_model,
            algorithm=algorithm,
            algorithm_options=self.algorithm_options.get(algorithm),
            window=window,
            **adaptive_options,
        )
        return run_policy(stream, policy, self.cost_model)

    # -- measured validation ---------------------------------------------------

    def validate_costs(
        self,
        workload: Workload,
        rows: Optional[int] = None,
        data_seed: int = 0,
        include_baselines: bool = True,
        algorithms: Optional[Sequence[str]] = None,
        backend: str = "measured",
        page_size: Optional[int] = None,
    ):
        """Validate this advisor's estimated costs against real execution.

        Runs every configured algorithm on ``workload`` (exactly as
        :meth:`recommend` does), then executes each recommended layout — plus
        the Row and Column baselines unless ``include_baselines`` is False —
        on the chosen execution backend at ``rows`` measured rows of
        seed-``data_seed`` synthetic data, and compares the execution times
        with the cost model's predictions at the same scale.

        ``backend`` names a registered execution backend
        (:mod:`repro.exec.backends`).  ``"measured"`` (the default) uses the
        vectorized scan executor (:mod:`repro.exec`) and requires a
        disk-based cost model (the main-memory model has no buffered-scan
        counterpart); ``"sqlite"`` materialises each layout as real SQLite
        tables (:mod:`repro.engine_x`, optionally at ``page_size``), takes
        any cost model, and compares rankings only.  The backend checks the
        settings and the model before any algorithm runs.  Returns the
        :class:`~repro.exec.validation.ValidationReport`; a
        ``rank_correlation`` near 1.0 means every comparative conclusion the
        estimates support survives execution.
        """
        # Imported here to avoid a circular import at package load time.
        from repro.exec.backends import explicit_settings, get_backend
        from repro.exec.validation import validate_layouts

        get_backend(backend).check(
            explicit_settings(rows=rows, data_seed=data_seed, page_size=page_size),
            self.cost_model,
        )
        names = tuple(algorithms) if algorithms is not None else self.algorithm_names
        layouts: Dict[str, Partitioning] = {}
        for name in names:
            options = dict(self.algorithm_options.get(name, {}))
            algorithm = get_algorithm(name, **options)
            layouts[name] = algorithm.run(workload, self.cost_model).partitioning
        if include_baselines:
            layouts.setdefault("row", row_partitioning(workload.schema))
            layouts.setdefault("column", column_partitioning(workload.schema))
        return validate_layouts(
            workload,
            layouts,
            cost_model=self.cost_model,
            rows=rows,
            data_seed=data_seed,
            backend=backend,
            page_size=page_size,
        )

    # -- multiple workloads ----------------------------------------------------

    def recommend_all(
        self, workloads: Mapping[str, Workload]
    ) -> Dict[str, AdvisorReport]:
        """Run the advisor for each workload of a benchmark (one per table)."""
        return {name: self.recommend(workload) for name, workload in workloads.items()}

    # -- comparison grids ------------------------------------------------------

    def compare(
        self,
        workloads: Optional[Sequence[str]] = None,
        cost_models: Sequence[str] = ("hdd", "mainmemory"),
        grid=None,
        cache_dir: Optional[str] = None,
        workers: int = 1,
        refresh: bool = False,
        cell_timeout: Optional[float] = None,
        retries: int = 0,
        fail_fast: bool = False,
        trace: Optional[str] = None,
        quiet: bool = True,
        progress: Optional[Callable[[str], None]] = None,
    ):
        """Run a comparison grid (the paper's systematic study) and return its report.

        The grid counterpart of :meth:`recommend`: instead of one workload
        under this advisor's cost model, a full (algorithm x workload x cost
        model) cross product executed through :func:`repro.grid.run_grid` —
        optionally parallel (``workers``) and incremental (``cache_dir``).

        Either pass ``workloads`` (workload ids, see
        :func:`repro.grid.resolve_workload`) and ``cost_models`` to build a
        grid from this advisor's configured algorithms and options, or pass
        ``grid`` — a :class:`~repro.grid.spec.GridSpec` or a builtin grid
        name (``"tiny"``, ``"small"``, ``"full"``) — to run it as-is.
        Returns the :class:`~repro.grid.runner.GridReport`; its
        :meth:`~repro.grid.runner.GridReport.describe` renders the headline
        tables.

        Failures are surfaced, not fatal: by default a cell that keeps
        raising (after ``retries`` extra attempts), exceeds ``cell_timeout``
        or loses its worker process is quarantined as a
        :class:`~repro.grid.runner.CellFailure` on its result — inspect
        ``report.failures`` / ``report.ok`` — while every other cell
        completes and is cached.  ``fail_fast=True`` instead aborts on the
        first exhausted cell with
        :class:`~repro.grid.spec.GridExecutionError`.  See
        ``docs/ROBUSTNESS.md``.

        Observability flows through unchanged (``docs/OBSERVABILITY.md``):
        ``trace`` writes the run's JSONL trace file, ``quiet=False`` prints
        one line per completed cell (or pass an explicit ``progress``
        callback), and the returned report carries
        :attr:`~repro.grid.runner.GridReport.telemetry` either way.
        """
        # Imported here to avoid a circular import at package load time.
        from repro.grid import GridSpec, builtin_grid, run_grid

        if grid is not None:
            spec = builtin_grid(grid) if isinstance(grid, str) else grid
        else:
            if not workloads:
                raise ValueError("compare() needs workload ids or a grid")
            spec = GridSpec(
                name="advisor",
                algorithms=self.algorithm_names,
                workloads=tuple(workloads),
                cost_models=tuple(cost_models),
                algorithm_options=self.algorithm_options,
            )
        if progress is None and not quiet:
            progress = lambda line: print(f"  {line}")  # noqa: E731
        return run_grid(
            spec,
            cache_dir=cache_dir,
            workers=workers,
            refresh=refresh,
            cell_timeout=cell_timeout,
            retries=retries,
            fail_fast=fail_fast,
            trace=trace,
            progress=progress,
        )


def _relative_improvement(baseline: float, cost: float) -> float:
    """(baseline - cost) / baseline, guarded against a zero baseline."""
    if baseline <= 0:
        return 0.0
    return (baseline - cost) / baseline
