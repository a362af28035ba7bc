"""The paper's disk (HDD) I/O cost model.

Section 4 of the paper defines the cost of a query Q over a partitioning as
follows.  Let ``P_Q`` be the set of partitions containing at least one
attribute referenced by Q (all of them must be read in full), ``s_i`` the row
size of partition i, ``S`` the sum of the row sizes of the referenced
partitions, ``Buff`` the I/O buffer size, ``b`` the block size, ``N`` the row
count, ``t_s`` the average seek time and ``BW`` the read bandwidth:

.. math::

    buff_i   &= \\lfloor Buff \\cdot s_i / S \\rfloor            \\\\
    bblk_i   &= \\lfloor buff_i / b \\rfloor                      \\\\
    blocks_i &= \\lceil N / \\lfloor b / s_i \\rfloor \\rceil      \\\\
    seek_i   &= t_s \\cdot \\lceil blocks_i / bblk_i \\rceil       \\\\
    scan_i   &= blocks_i \\cdot b / BW                            \\\\
    cost(Q)  &= \\sum_{i \\in P_Q} (seek_i + scan_i)

The buffer is shared among the co-read partitions proportionally to their row
sizes because tuples are reconstructed tuple-by-tuple, so every referenced
partition must stream through the buffer simultaneously.  Narrow partitions
therefore pay many more seeks when read together with other partitions — the
"random I/O" effect that makes column layouts lose against wider groups for
small buffers.

Two guard rails make the formulas total:

* ``rows_per_block = floor(b / s_i)`` is clamped to at least 1 (a row wider
  than a block simply spans blocks),
* ``bblk_i`` is clamped to at least 1 (a partition always gets at least one
  block of buffer; otherwise no progress could ever be made).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro.cost.base import CostModel
from repro.cost.disk import DEFAULT_DISK, DiskCharacteristics
from repro.workload.query import ResolvedQuery

if TYPE_CHECKING:  # imported for type hints only, avoids a circular import
    from repro.core.partitioning import Partition, Partitioning


class HDDCostModel(CostModel):
    """Buffered seek + scan cost model for disk-based row stores.

    ``buffer_sharing`` selects how the I/O buffer is divided among the
    partitions a query co-reads: ``"proportional"`` (the paper's model —
    shares proportional to row sizes) or ``"equal"`` (a naive even split,
    kept for the ablation benchmark that quantifies how much this design
    choice matters).
    """

    name = "hdd"
    supports_fast_costing = True

    #: Valid buffer sharing policies.
    BUFFER_SHARING_POLICIES = ("proportional", "equal")

    def __init__(
        self,
        disk: DiskCharacteristics = DEFAULT_DISK,
        buffer_sharing: str = "proportional",
    ) -> None:
        if buffer_sharing not in self.BUFFER_SHARING_POLICIES:
            raise ValueError(
                f"buffer_sharing must be one of {self.BUFFER_SHARING_POLICIES}, "
                f"got {buffer_sharing!r}"
            )
        self.disk = disk
        self.buffer_sharing = buffer_sharing

    # -- building blocks ------------------------------------------------------

    def _blocks_for_row_size(self, row_count: int, row_size: int) -> int:
        """Blocks occupied by a column-group file of ``row_size``-byte rows."""
        rows_per_block = max(1, self.disk.block_size // row_size)
        return math.ceil(row_count / rows_per_block)

    def blocks_on_disk(self, partition: Partition, partitioning: Partitioning) -> int:
        """Number of disk blocks the column-group file of ``partition`` occupies."""
        schema = partitioning.schema
        return self._blocks_for_row_size(schema.row_count, partition.row_size(schema))

    def _buffer_share_bytes(
        self, row_size: int, total_row_size: int, co_read_count: int
    ) -> int:
        """Buffer bytes for one group of a co-read set (single formula copy)."""
        if self.buffer_sharing == "equal":
            return self.disk.buffer_size // max(1, co_read_count)
        if total_row_size <= 0:
            return self.disk.buffer_size
        return int(self.disk.buffer_size * row_size / total_row_size)

    def buffer_share(
        self, partition: Partition, co_read: Sequence[Partition], partitioning: Partitioning
    ) -> int:
        """Bytes of I/O buffer allocated to ``partition`` within a co-read set."""
        schema = partitioning.schema
        return self._buffer_share_bytes(
            partition.row_size(schema),
            sum(p.row_size(schema) for p in co_read),
            len(co_read),
        )

    def _seek_seconds(self, blocks: int, buffer_bytes: int) -> float:
        """Seek time for streaming ``blocks`` through ``buffer_bytes`` of buffer."""
        buffer_blocks = max(1, buffer_bytes // self.disk.block_size)
        refills = math.ceil(blocks / buffer_blocks)
        return self.disk.seek_time * refills

    def seek_cost(
        self, partition: Partition, co_read: Sequence[Partition], partitioning: Partitioning
    ) -> float:
        """Seek component of reading ``partition`` alongside ``co_read``."""
        return self._seek_seconds(
            self.blocks_on_disk(partition, partitioning),
            self.buffer_share(partition, co_read, partitioning),
        )

    def _scan_seconds(self, blocks: int) -> float:
        """Sequential transfer time for ``blocks`` full blocks."""
        return blocks * self.disk.block_size / self.disk.read_bandwidth

    def scan_cost(self, partition: Partition, partitioning: Partitioning) -> float:
        """Sequential scan component of reading ``partition`` in full."""
        return self._scan_seconds(self.blocks_on_disk(partition, partitioning))

    # -- CostModel interface --------------------------------------------------

    def partition_read_cost(
        self,
        partition: Partition,
        co_read: Sequence[Partition],
        partitioning: Partitioning,
    ) -> float:
        """Seek + scan cost of one partition within a co-read set."""
        return self.seek_cost(partition, co_read, partitioning) + self.scan_cost(
            partition, partitioning
        )

    def query_cost(self, query: ResolvedQuery, partitioning: Partitioning) -> float:
        """Total I/O cost of one query: sum over all referenced partitions.

        Deliberately orchestrated the unoptimized way (per-partition calls
        that re-derive shares and block counts) so it stays an authentic
        pre-kernel reference for the cost-kernel microbenchmark; the
        *arithmetic* is the same ``_buffer_share_bytes`` / ``_seek_seconds``
        / ``_scan_seconds`` helpers :meth:`co_read_set_cost` uses, so the two
        paths cannot diverge in value.
        """
        referenced = partitioning.referenced_partitions(query)
        total = 0.0
        for partition in referenced:
            total += self.partition_read_cost(partition, referenced, partitioning)
        return total

    # -- fast-costing hooks (CostEvaluator) -----------------------------------

    def group_read_profile(self, schema, row_size: int):
        """(row_size, blocks_on_disk) — everything group-local the formulas need."""
        return (row_size, self._blocks_for_row_size(schema.row_count, row_size))

    def co_read_set_cost(self, schema, profiles) -> float:
        """Seek + scan cost of reading a co-read set, from cached group profiles.

        Only the fast evaluator calls this.  The naive :meth:`query_cost` adds
        the same :meth:`_buffer_share_bytes`/:meth:`_seek_seconds`/
        :meth:`_scan_seconds` values in the same order with ``+=``.
        """
        total_row_size = sum(row_size for row_size, _ in profiles)
        count = len(profiles)
        total = 0.0
        for row_size, blocks in profiles:
            buffer_bytes = self._buffer_share_bytes(row_size, total_row_size, count)
            total += self._seek_seconds(blocks, buffer_bytes) + self._scan_seconds(blocks)
        return total

    # -- introspection helpers used by metrics --------------------------------

    def bytes_read(self, query: ResolvedQuery, partitioning: Partitioning) -> int:
        """Bytes physically read for ``query`` (whole referenced partitions)."""
        referenced = partitioning.referenced_partitions(query)
        return sum(
            self.blocks_on_disk(partition, partitioning) * self.disk.block_size
            for partition in referenced
        )

    def bytes_needed(self, query: ResolvedQuery, partitioning: Partitioning) -> int:
        """Bytes the query actually needs (referenced attributes only)."""
        schema = partitioning.schema
        needed_width = sum(schema.width_of(index) for index in query.attribute_indices)
        return needed_width * schema.row_count

    def with_disk(self, disk: DiskCharacteristics) -> "HDDCostModel":
        """A new model over different disk characteristics."""
        return HDDCostModel(disk, buffer_sharing=self.buffer_sharing)

    def describe(self) -> str:
        # Every behavioural knob must appear here: the cost-evaluator's shared
        # cache pool and the grid result cache key models by this string, so an
        # omitted parameter would let differently-behaving models share entries.
        sharing = "" if self.buffer_sharing == "proportional" else f" sharing={self.buffer_sharing}"
        return f"hdd({self.disk.describe()}{sharing})"
