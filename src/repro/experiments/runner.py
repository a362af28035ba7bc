"""Shared experiment runner.

Most figures of the paper need the same ingredients: every algorithm run on
every table of a benchmark under a given cost model, together with the row and
column baselines.  :func:`run_suite` produces that once and the individual
experiment drivers derive their figure/table from the returned
:class:`SuiteResult`, so a benchmark that regenerates several figures does not
re-run the algorithms for each one.

Brute force handling
--------------------

Brute force is exact only for tables whose number of enumeration units
(primary partitions) stays within ``brute_force_unit_limit``.  Wider tables —
in TPC-H only Lineitem, whose 13 primary partitions would require evaluating
27.6 million layouts — fall back to the best layout found by the heuristic
algorithms in the same suite; the corresponding :class:`TableRun` is marked
``approximate=True`` and EXPERIMENTS.md documents the substitution.  (The
paper's Lesson 1 — AutoPart and HillClimb find exactly the brute force layouts
— makes this a faithful stand-in.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.core.advisor import DEFAULT_ALGORITHMS
from repro.core.algorithm import PartitioningResult, get_algorithm
from repro.core.partitioning import (
    Partitioning,
    column_partitioning,
    row_partitioning,
)
from repro.cost.base import CostModel
from repro.cost.hdd import HDDCostModel
from repro.workload.workload import Workload

if TYPE_CHECKING:  # imported for type hints only, avoids a circular import
    from repro.grid.cache import ResultCache

#: The paper's presentation order for algorithm bars/series.
DEFAULT_ALGORITHM_ORDER = DEFAULT_ALGORITHMS + ("brute-force",)

#: Baseline layouts appended to every figure that shows them.
BASELINES = ("column", "row")


@dataclass
class TableRun:
    """One algorithm's result on one table."""

    algorithm: str
    table: str
    result: PartitioningResult
    approximate: bool = False

    @property
    def partitioning(self) -> Partitioning:
        """The produced layout."""
        return self.result.partitioning

    @property
    def estimated_cost(self) -> float:
        """Estimated workload cost of the layout."""
        return self.result.estimated_cost

    @property
    def optimization_time(self) -> float:
        """Wall-clock optimisation time in seconds."""
        return self.result.optimization_time


@dataclass
class SuiteResult:
    """All algorithms run over all tables of a benchmark."""

    cost_model: CostModel
    workloads: Dict[str, Workload]
    runs: Dict[str, Dict[str, TableRun]] = field(default_factory=dict)

    # -- access ----------------------------------------------------------------

    @property
    def algorithms(self) -> List[str]:
        """Algorithm names present in the suite, in insertion order."""
        return list(self.runs)

    @property
    def tables(self) -> List[str]:
        """Table names of the benchmark, in insertion order."""
        return list(self.workloads)

    def run(self, algorithm: str, table: str) -> TableRun:
        """The run of ``algorithm`` on ``table``."""
        return self.runs[algorithm][table]

    def layout(self, algorithm: str, table: str) -> Partitioning:
        """The layout ``algorithm`` computed for ``table``."""
        return self.run(algorithm, table).partitioning

    def layouts(self, algorithm: str) -> Dict[str, Partitioning]:
        """All layouts of one algorithm, keyed by table."""
        return {table: run.partitioning for table, run in self.runs[algorithm].items()}

    # -- aggregates --------------------------------------------------------------

    def total_cost(self, algorithm: str) -> float:
        """Summed estimated workload cost over all tables."""
        return sum(run.estimated_cost for run in self.runs[algorithm].values())

    def total_optimization_time(self, algorithm: str) -> float:
        """Summed optimisation time over all tables."""
        return sum(run.optimization_time for run in self.runs[algorithm].values())

    def is_approximate(self, algorithm: str) -> bool:
        """True if any table's run for this algorithm used the fallback."""
        return any(run.approximate for run in self.runs[algorithm].values())


def run_suite(
    workloads: Mapping[str, Workload],
    algorithms: Sequence[str] = DEFAULT_ALGORITHM_ORDER,
    cost_model: Optional[CostModel] = None,
    include_baselines: bool = True,
    brute_force_unit_limit: int = 10,
    algorithm_options: Optional[Mapping[str, Mapping[str, object]]] = None,
    cache: Optional["ResultCache"] = None,
) -> SuiteResult:
    """Run every algorithm on every workload and collect the results.

    Parameters
    ----------
    workloads:
        Per-table workloads (e.g. from :func:`repro.workload.tpch.tpch_workloads`).
    algorithms:
        Registry names to run, in presentation order.
    cost_model:
        Cost model used both for optimisation and evaluation (default: the
        paper's HDD model with the testbed disk characteristics).
    include_baselines:
        Also add the ``row`` and ``column`` baselines to the suite.
    brute_force_unit_limit:
        Maximum number of enumeration units for exact brute force; wider
        tables use the best heuristic layout and are flagged approximate.
    algorithm_options:
        Optional per-algorithm constructor keyword arguments.
    cache:
        Optional :class:`~repro.grid.cache.ResultCache`.  Runs whose inputs
        (workload content, algorithm options, cost model parameters) match a
        trusted cache entry are served from disk instead of recomputed; fresh
        runs are stored.  Brute force is exempt — its heuristic-fallback path
        depends on the other runs of the suite, not only on its own inputs.
    """
    model = cost_model if cost_model is not None else HDDCostModel()
    options = dict(algorithm_options or {})
    suite = SuiteResult(cost_model=model, workloads=dict(workloads))

    names = list(algorithms)
    if include_baselines:
        names.extend(name for name in BASELINES if name not in names)

    heuristic_names = [
        name for name in names if name not in ("brute-force", "row", "column")
    ]

    for name in names:
        suite.runs[name] = {}
        for table, workload in workloads.items():
            if name == "brute-force":
                run = _run_brute_force(
                    workload, table, model, brute_force_unit_limit, suite,
                    heuristic_names, options,
                )
            else:
                run = _run_algorithm(
                    name, table, workload, model,
                    dict(options.get(name, {})), cache,
                )
            suite.runs[name][table] = run
    return suite


def _run_algorithm(
    name: str,
    table: str,
    workload: Workload,
    cost_model: CostModel,
    options: Mapping[str, object],
    cache: Optional["ResultCache"],
) -> TableRun:
    """One algorithm on one table, served from the result cache when possible."""
    if cache is None:
        algorithm = get_algorithm(name, **dict(options))
        return TableRun(algorithm=name, table=table, result=algorithm.run(workload, cost_model))

    # Imported here to avoid a circular import at package load time.
    from repro.grid.cache import cell_inputs, content_key
    from repro.grid.worker import (
        baseline_costs_for,
        payload_to_result,
        result_to_payload,
    )

    inputs = cell_inputs(
        name, options, f"suite:{table}", workload, cost_model.name, cost_model
    )
    key = content_key(inputs)
    payload = cache.load(key)
    if payload is not None:
        return TableRun(
            algorithm=name, table=table, result=payload_to_result(payload, workload)
        )
    algorithm = get_algorithm(name, **dict(options))
    result = algorithm.run(workload, cost_model)
    row_cost, column_cost = baseline_costs_for(workload, cost_model)
    cache.store(key, inputs, result_to_payload(result, workload, row_cost, column_cost))
    return TableRun(algorithm=name, table=table, result=result)


def _run_brute_force(
    workload: Workload,
    table: str,
    cost_model: CostModel,
    unit_limit: int,
    suite: SuiteResult,
    heuristic_names: Sequence[str],
    options: Mapping[str, Mapping[str, object]],
) -> TableRun:
    """Exact brute force when feasible, best-heuristic fallback otherwise."""
    units = len(workload.primary_partitions())
    if units <= unit_limit:
        algorithm = get_algorithm(
            "brute-force",
            max_attributes=unit_limit,
            **dict(options.get("brute-force", {})),
        )
        return TableRun(
            algorithm="brute-force",
            table=table,
            result=algorithm.run(workload, cost_model),
        )

    # Fallback: cheapest layout among the heuristics already run on this table.
    best: Optional[TableRun] = None
    for name in heuristic_names:
        candidate = suite.runs.get(name, {}).get(table)
        if candidate is None:
            continue
        if best is None or candidate.estimated_cost < best.estimated_cost:
            best = candidate
    if best is None:
        # No heuristic ran before brute force; run HillClimb as the stand-in.
        algorithm = get_algorithm("hillclimb")
        result = algorithm.run(workload, cost_model)
    else:
        result = best.result
    fallback = PartitioningResult(
        algorithm="brute-force",
        workload_name=workload.name,
        partitioning=result.partitioning,
        optimization_time=result.optimization_time,
        estimated_cost=result.estimated_cost,
        cost_model=result.cost_model,
        cost_evaluations=result.cost_evaluations,
        metadata={"approximated_by": result.algorithm, "enumeration_units": units},
    )
    return TableRun(
        algorithm="brute-force", table=table, result=fallback, approximate=True
    )


def baseline_costs(
    workloads: Mapping[str, Workload], cost_model: Optional[CostModel] = None
) -> Dict[str, Dict[str, float]]:
    """Row and column layout costs per table (no algorithm involved)."""
    model = cost_model if cost_model is not None else HDDCostModel()
    costs: Dict[str, Dict[str, float]] = {"row": {}, "column": {}}
    for table, workload in workloads.items():
        costs["row"][table] = model.workload_cost(
            workload, row_partitioning(workload.schema)
        )
        costs["column"][table] = model.workload_cost(
            workload, column_partitioning(workload.schema)
        )
    return costs
