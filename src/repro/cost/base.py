"""Abstract cost model interface.

Every cost model estimates the cost of one query against one partitioning; the
workload cost is the weighted sum over queries.  Algorithms only ever call
:meth:`CostModel.workload_cost` / :meth:`CostModel.query_cost`, so swapping
the disk model for the main-memory model (Table 6 of the paper) requires no
algorithm changes.

Cost models also expose :meth:`CostModel.partition_read_cost`, the cost of
reading a single column group for a given set of co-read groups, which the
metrics module uses to attribute costs to partitions.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence

from repro.workload.query import ResolvedQuery
from repro.workload.workload import Workload

if TYPE_CHECKING:  # imported for type hints only, avoids a circular import
    from repro.core.partitioning import Partition, Partitioning
    from repro.workload.schema import TableSchema


class CostModel(abc.ABC):
    """Estimates I/O (or memory-access) cost of queries over a partitioning."""

    #: Short identifier used in reports, e.g. ``"hdd"`` or ``"main-memory"``.
    name: str = "abstract"

    #: True if the model implements the fast per-co-read-set hooks below
    #: (:meth:`group_read_profile` / :meth:`co_read_set_cost`), which the
    #: :class:`repro.cost.evaluator.CostEvaluator` uses to cost candidate
    #: layouts without materialising ``Partition``/``Partitioning`` objects.
    #: Models that leave this False are still supported — the evaluator falls
    #: back to the naive :meth:`query_cost` path.
    supports_fast_costing: bool = False

    @abc.abstractmethod
    def query_cost(self, query: ResolvedQuery, partitioning: "Partitioning") -> float:
        """Estimated cost (seconds) of one query over ``partitioning``."""

    def workload_cost(self, workload: Workload, partitioning: "Partitioning") -> float:
        """Weighted sum of per-query costs, added left to right like the evaluator.

        Never ``sum()``: it compensates float sums since Python 3.12.
        """
        total = 0.0
        for query in workload:
            total += query.weight * self.query_cost(query, partitioning)
        return total

    def per_query_costs(
        self, workload: Workload, partitioning: "Partitioning"
    ) -> Dict[str, float]:
        """Unweighted cost of each query, keyed by query name."""
        return {
            query.name: self.query_cost(query, partitioning) for query in workload
        }

    @abc.abstractmethod
    def partition_read_cost(
        self,
        partition: "Partition",
        co_read: Sequence["Partition"],
        partitioning: "Partitioning",
    ) -> float:
        """Cost of reading ``partition`` when ``co_read`` partitions are read together.

        ``co_read`` must include ``partition`` itself; the disk model uses the
        co-read set to split the I/O buffer.
        """

    # -- fast-costing hooks (used by repro.cost.evaluator.CostEvaluator) ------

    def group_read_profile(self, schema: "TableSchema", row_size: int) -> object:
        """Layout-independent, group-local data for one column group.

        Whatever this returns is cached per group bitmask by the evaluator and
        handed back to :meth:`co_read_set_cost`, so models should precompute
        here everything that depends only on the group's row width and the
        schema (e.g. block counts).  The default is the bare row size.
        """
        return row_size

    def co_read_set_cost(
        self, schema: "TableSchema", profiles: Sequence[object]
    ) -> float:
        """Cost of one query reading the groups with ``profiles`` together.

        ``profiles`` are :meth:`group_read_profile` results of the referenced
        groups, in the same canonical order :meth:`query_cost` iterates
        referenced partitions.  For exact agreement, implementations must
        share the per-group arithmetic with :meth:`query_cost` — the built-in
        models keep that arithmetic in single private helpers both paths
        call, so only the orchestration differs.  Models that support this
        hook set ``supports_fast_costing = True``.
        """
        raise NotImplementedError(
            f"cost model {self.name!r} does not implement fast co-read costing"
        )

    def describe(self) -> str:
        """Human-readable description of the model and its parameters.

        Contract: the string must spell out **every** parameter that can
        change a cost value.  The evaluator's shared cache pool and the grid
        result cache both key models by this description (plus the model
        class), so an omitted knob would let differently-behaving instances
        of one class share cached costs.
        """
        return self.name
