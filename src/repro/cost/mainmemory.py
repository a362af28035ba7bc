"""HYRISE-style main-memory (cache miss) cost model.

Table 6 of the paper re-evaluates the layouts under a main-memory cost model:
instead of seeks and disk bandwidth, the dominant cost is the number of CPU
cache misses incurred while scanning the referenced column groups.  The key
property of such a model is that *seek-like* costs (switching between
partitions) are tiny compared to the cost of streaming data, so grouping
columns can no longer amortise random I/O — it can only force queries to read
unnecessary bytes.  Consequently nothing beats a pure column layout on data
access cost, which is exactly the paper's finding (0.00% improvement for the
HillClimb-class algorithms, negative for Navathe/O2P).

The model charges, per referenced partition:

* one cache miss per cache line occupied by the partition's rows (full group
  width — a projection still streams the whole group through the cache), and
* a fixed per-partition access penalty (TLB / pointer chasing), standing in
  for the partition-switch overhead, orders of magnitude cheaper than a disk
  seek.

Costs are reported in seconds, derived from a nominal cache-miss latency, so
they can be compared and normalised exactly like the HDD model's outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.cost.base import CostModel
from repro.workload.query import ResolvedQuery

if TYPE_CHECKING:  # imported for type hints only, avoids a circular import
    from repro.core.partitioning import Partition, Partitioning


class MemoryParameterError(ValueError):
    """Raised when main-memory characteristics are physically meaningless."""


@dataclass(frozen=True)
class MainMemoryCharacteristics:
    """Parameters of the cache-miss model.

    Attributes
    ----------
    cache_line_size:
        Bytes per cache line (64 B on the paper's Xeon testbed).
    cache_miss_latency:
        Seconds per last-level cache miss (~100 ns).
    partition_access_penalty:
        Fixed cost of touching one additional column group per query
        (seconds); stands in for per-partition pointer/TLB overhead and is
        deliberately tiny relative to streaming costs.
    """

    cache_line_size: int = 64
    cache_miss_latency: float = 100e-9
    partition_access_penalty: float = 1e-6

    def __post_init__(self) -> None:
        if self.cache_line_size <= 0:
            raise MemoryParameterError("cache_line_size must be positive")
        if self.cache_miss_latency <= 0:
            raise MemoryParameterError("cache_miss_latency must be positive")
        if self.partition_access_penalty < 0:
            raise MemoryParameterError("partition_access_penalty must be non-negative")

    def with_cache_line_size(self, cache_line_size: int) -> "MainMemoryCharacteristics":
        """Copy with a different cache-line size."""
        return replace(self, cache_line_size=int(cache_line_size))


#: Sensible defaults for the paper's testbed (64 B lines, ~100 ns miss).
DEFAULT_MEMORY = MainMemoryCharacteristics()


class MainMemoryCostModel(CostModel):
    """Cache-miss based cost model for main-memory systems (HYRISE setting)."""

    name = "main-memory"
    supports_fast_costing = True

    def __init__(self, memory: MainMemoryCharacteristics = DEFAULT_MEMORY) -> None:
        self.memory = memory

    def _misses_for_row_size(self, row_count: int, row_size: int) -> int:
        """Cache misses of streaming a group of ``row_size``-byte rows."""
        line = self.memory.cache_line_size
        if row_size <= line:
            return math.ceil(row_count * row_size / line)
        return row_count * math.ceil(row_size / line)

    def cache_misses(self, partition: Partition, partitioning: Partitioning) -> int:
        """Cache misses incurred by streaming one full column group.

        Rows of a group are stored contiguously, so the group occupies
        ``ceil(N * s_i / L)`` cache lines when the row width is at most a
        line; wider rows touch ``ceil(s_i / L)`` lines per row because
        consecutive projections of a row no longer share lines.
        """
        schema = partitioning.schema
        return self._misses_for_row_size(schema.row_count, partition.row_size(schema))

    # -- fast-costing hooks (CostEvaluator) -----------------------------------

    def group_read_profile(self, schema, row_size: int):
        """Cache-miss count of the group — the only group-local quantity used."""
        return self._misses_for_row_size(schema.row_count, row_size)

    def co_read_set_cost(self, schema, profiles) -> float:
        """Streaming + access-penalty cost of a co-read set from cached misses.

        Only the fast evaluator calls this.  The naive :meth:`query_cost` adds
        the same :meth:`_read_seconds` values in the same order with ``+=``.
        """
        total = 0.0
        for misses in profiles:
            total += self._read_seconds(misses)
        return total

    def _read_seconds(self, misses: int) -> float:
        """Streaming cost of one group plus the per-group access penalty."""
        return (
            misses * self.memory.cache_miss_latency
            + self.memory.partition_access_penalty
        )

    def partition_read_cost(
        self,
        partition: Partition,
        co_read: Sequence[Partition],
        partitioning: Partitioning,
    ) -> float:
        """Streaming cost of one group plus the per-group access penalty."""
        return self._read_seconds(self.cache_misses(partition, partitioning))

    def query_cost(self, query: ResolvedQuery, partitioning: Partitioning) -> float:
        """Sum of per-group costs over the referenced groups.

        Kept as per-partition calls (the pre-kernel reference the cost-kernel
        microbenchmark compares against); the arithmetic is the same
        :meth:`_read_seconds` helper :meth:`co_read_set_cost` uses, so the
        two paths cannot diverge in value.
        """
        referenced = partitioning.referenced_partitions(query)
        total = 0.0
        for partition in referenced:
            total += self.partition_read_cost(partition, referenced, partitioning)
        return total

    def with_memory(self, memory: MainMemoryCharacteristics) -> "MainMemoryCostModel":
        """A new model over different memory characteristics."""
        return MainMemoryCostModel(memory)

    def describe(self) -> str:
        # Every behavioural knob must appear here: the cost-evaluator's shared
        # cache pool and the grid result cache key models by this string, so an
        # omitted parameter would let differently-behaving models share entries.
        return (
            f"main-memory(line={self.memory.cache_line_size}B, "
            f"miss={self.memory.cache_miss_latency * 1e9:g}ns, "
            f"penalty={self.memory.partition_access_penalty * 1e9:g}ns)"
        )
