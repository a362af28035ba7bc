"""Vectorized measured-execution backend.

The analytical cost models *predict* workload runtimes with closed formulas;
:class:`VectorizedScanExecutor` closes the loop by *running* the layout: it
materialises a :class:`~repro.core.partitioning.Partitioning` into
numpy-backed column-group files (real arrays from
:mod:`repro.storage.data`, file/page bookkeeping from
:class:`~repro.storage.engine.StorageEngine`) and replays a
:class:`~repro.workload.workload.Workload` with bulk scans — whole
buffer-refill chunks sliced out of each column array at once — instead of the
simulator's tuple-at-a-time walk.

What is measured versus modeled
-------------------------------

There is no real spinning disk in the loop, so the split is:

* **Block and seek counts are traced, not computed**: the executor walks the
  materialised files chunk by chunk exactly as the unified system would (the
  I/O buffer shared among co-read partitions in proportion to their row
  sizes, one seek per refill per partition) and counts what the walk actually
  does.  The trace is produced by a different mechanism than the model's
  closed formulas, so it catches counting bugs (ceil/floor, buffer sharing,
  block packing) the formulas could hide.
* **I/O seconds are the traced counts priced at the disk characteristics**
  (``seeks * seek_time + blocks * block_size / read_bandwidth``) — a
  deterministic function of the trace, which is what lets grid results carry
  measured numbers through the content-addressed cache.
* **CPU seconds are genuinely measured wall clock** of the vectorized numpy
  work (slicing every column of every referenced partition and folding it
  into a checksum, which forces the memory reads).  Wall clock is not
  deterministic, so callers that persist results keep it out of
  content-hashed payload sections (the grid stores it under ``timing``).

Execution runs at a reduced *measured scale*: the schema's row count is
capped at ``rows`` (default :data:`DEFAULT_MEASURED_ROWS`) so that even
``lineitem``-sized tables materialise in milliseconds.  Predictions for the
agreement comparison must be computed over the same scaled schema —
:meth:`VectorizedScanExecutor.predicted_cost` does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.partitioning import Partitioning
from repro.cost.disk import DEFAULT_DISK, DiskCharacteristics
from repro.obs.metrics import counter as _obs_counter, histogram as _obs_histogram
from repro.obs.trace import timed
from repro.storage.data import generate_table_data
from repro.storage.engine import SimulatedDisk, StorageEngine
from repro.workload.query import ResolvedQuery
from repro.workload.workload import Workload

# Executor telemetry (docs/OBSERVABILITY.md): traced I/O volume plus the
# genuinely measured CPU seconds of the vectorized scans.
_EXEC_QUERIES = _obs_counter("exec.queries")
_EXEC_BLOCKS = _obs_counter("exec.blocks_read")
_EXEC_SEEKS = _obs_counter("exec.seeks")
_EXEC_CPU_SECONDS = _obs_histogram("exec.cpu_seconds")

#: Row count the executor scales tables down to unless told otherwise — big
#: enough that every layout occupies many blocks (the buffer-sharing effects
#: the paper studies stay visible), small enough to materialise instantly.
DEFAULT_MEASURED_ROWS = 20_000

#: Buffer-sharing policies the walk can trace (mirrors
#: :attr:`repro.cost.hdd.HDDCostModel.BUFFER_SHARING_POLICIES`).
BUFFER_SHARING_POLICIES = ("proportional", "equal")

_CHECKSUM_MASK = (1 << 64) - 1


def unwrap_cost_model(cost_model):
    """The bare model inside an instrumentation wrapper, if any.

    The library's only wrapper shape is the algorithm framework's counting
    wrapper, which exposes the wrapped model as ``inner``.  Every consumer
    that reads execution-relevant attributes off a model — the execution
    backends' fingerprints, model checks and executions
    (:mod:`repro.exec.backends`) — must unwrap through this one helper so
    they can never disagree about which model they saw.
    """
    return getattr(cost_model, "inner", cost_model)


def measured_disk(cost_model) -> Optional[DiskCharacteristics]:
    """The disk characteristics a measured execution of ``cost_model`` would
    price its trace with, or ``None`` for models with no disk (not measurable)."""
    return getattr(unwrap_cost_model(cost_model), "disk", None)


def measured_buffer_sharing(cost_model) -> str:
    """The buffer-sharing policy a measured execution must trace with.

    Models that do not define one (they have no shared buffer) default to the
    paper's proportional policy.
    """
    return getattr(unwrap_cost_model(cost_model), "buffer_sharing", "proportional")


def _array_checksum(chunk: np.ndarray) -> int:
    """A cheap order-independent checksum that forces the chunk to be read."""
    if chunk.size == 0:
        return 0
    if chunk.dtype.kind in ("S", "U", "V"):
        return int(chunk.view(np.uint8).sum(dtype=np.uint64)) & _CHECKSUM_MASK
    if chunk.dtype.kind == "f":
        # Reinterpret the (deterministic pairwise) sum's bits as an integer so
        # the checksum is exact, not subject to decimal formatting.
        return int(np.float64(chunk.sum()).view(np.uint64)) & _CHECKSUM_MASK
    return int(chunk.sum(dtype=np.int64)) & _CHECKSUM_MASK


@dataclass(frozen=True)
class MeasuredRun:
    """Counters and timings from executing one query once.

    ``io_seconds`` is the traced block/seek counts priced at the disk
    characteristics (deterministic); ``cpu_seconds`` is measured wall clock of
    the vectorized scan (not deterministic).  ``weight`` is carried along so
    workload aggregation can apply the paper's weighted-sum convention.
    """

    query: str
    weight: float
    partitions_read: int
    blocks_read: int
    seeks: int
    bytes_read: int
    rows_scanned: int
    #: Logical bytes the walk covered (rows x row size of each referenced
    #: partition) — unlike ``bytes_read`` it ignores block padding, so it is
    #: directly comparable across backends (see repro.engine_x.differential).
    bytes_scanned: int
    io_seconds: float
    cpu_seconds: float
    checksum: int

    @property
    def elapsed_seconds(self) -> float:
        """Total per-execution time: modeled I/O plus measured CPU."""
        return self.io_seconds + self.cpu_seconds


@dataclass
class MeasuredWorkloadRun:
    """All per-query runs of one workload replay plus weighted totals.

    Counter totals (``blocks_read``, ``seeks``, ...) sum each query's single
    execution — they describe the trace.  Time totals (``io_seconds``,
    ``cpu_seconds``) are weighted by query frequency, matching the convention
    of :meth:`repro.cost.base.CostModel.workload_cost` so the two are directly
    comparable.
    """

    workload_name: str
    layout_signature: List[List[int]]
    rows: int
    data_seed: int
    runs: List[MeasuredRun]

    @property
    def io_seconds(self) -> float:
        """Weighted I/O seconds — the number the cost model predicts."""
        return sum(run.weight * run.io_seconds for run in self.runs)

    @property
    def cpu_seconds(self) -> float:
        """Weighted measured CPU seconds of the vectorized scans."""
        return sum(run.weight * run.cpu_seconds for run in self.runs)

    @property
    def elapsed_seconds(self) -> float:
        """Weighted total time (I/O + CPU)."""
        return self.io_seconds + self.cpu_seconds

    @property
    def blocks_read(self) -> int:
        """Blocks read executing each query once (trace total, unweighted)."""
        return sum(run.blocks_read for run in self.runs)

    @property
    def seeks(self) -> int:
        """Seeks performed executing each query once (trace total, unweighted)."""
        return sum(run.seeks for run in self.runs)

    @property
    def bytes_scanned(self) -> int:
        """Logical bytes covered executing each query once (unweighted)."""
        return sum(run.bytes_scanned for run in self.runs)

    @property
    def checksum(self) -> int:
        """Combined data checksum over every query's scan (deterministic)."""
        total = 0
        for run in self.runs:
            total = (total + run.checksum) & _CHECKSUM_MASK
        return total

    def describe(self) -> str:
        """One-line summary of the replay."""
        return (
            f"measured {self.workload_name!r} @ {self.rows:,} rows: "
            f"{self.io_seconds:.4f}s io + {self.cpu_seconds:.4f}s cpu, "
            f"{self.blocks_read} blocks, {self.seeks} seeks"
        )


class VectorizedScanExecutor:
    """Materialises a layout at measured scale and replays workloads over it.

    Parameters
    ----------
    partitioning:
        The layout to materialise.  It may be bound to a schema of any row
        count; the executor rebinds it to the measured scale.
    disk:
        Disk characteristics pricing the traced I/O (defaults to the paper's
        testbed).
    rows:
        Measured row count; capped at the schema's row count and defaulting
        to :data:`DEFAULT_MEASURED_ROWS`.
    buffer_sharing:
        How the I/O buffer is divided among co-read partitions during the
        walk: ``"proportional"`` (the paper's policy, the default) or
        ``"equal"`` — must match the policy of the model whose predictions
        are being validated, otherwise the policy difference masquerades as
        model error (:func:`measured_buffer_sharing` reads it off a model).
    data_seed:
        Seed for the deterministic synthetic data generator; the same seed
        always produces (and therefore checksums) the same data.
    data:
        Optional pre-generated column arrays (``name -> array`` of exactly
        ``rows`` values), letting callers that execute many layouts of one
        schema (e.g. :func:`repro.exec.validation.validate_layouts`) share
        one generation pass.
    """

    def __init__(
        self,
        partitioning: Partitioning,
        disk: DiskCharacteristics = DEFAULT_DISK,
        rows: Optional[int] = None,
        buffer_sharing: str = "proportional",
        data_seed: int = 0,
        data: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        if buffer_sharing not in BUFFER_SHARING_POLICIES:
            raise ValueError(
                f"buffer_sharing must be one of {BUFFER_SHARING_POLICIES}, "
                f"got {buffer_sharing!r}"
            )
        self.buffer_sharing = buffer_sharing
        source_schema = partitioning.schema
        requested = DEFAULT_MEASURED_ROWS if rows is None else int(rows)
        if requested < 1:
            raise ValueError("rows must be >= 1")
        measured_rows = max(1, min(requested, source_schema.row_count))
        self.schema = source_schema.with_row_count(measured_rows)
        self.partitioning = Partitioning(
            self.schema, [partition.attributes for partition in partitioning.partitions]
        )
        self.data_seed = int(data_seed)
        self.engine = StorageEngine(self.partitioning, disk=SimulatedDisk(disk))
        if data is None:
            data = generate_table_data(self.schema, random_state=self.data_seed)
        for column in self.schema.columns:
            array = data.get(column.name)
            if array is None or len(array) != measured_rows:
                raise ValueError(
                    f"data for column {column.name!r} must hold exactly "
                    f"{measured_rows} values"
                )
        self.data = data
        # Per-partition column arrays, aligned with partitioning.partitions.
        self._partition_columns: List[List[np.ndarray]] = [
            [data[name] for name in partition.attribute_names(self.schema)]
            for partition in self.partitioning.partitions
        ]

    @property
    def disk(self) -> DiskCharacteristics:
        """The disk characteristics pricing the traced I/O."""
        return self.engine.disk.characteristics

    @property
    def rows(self) -> int:
        """The measured row count the table was materialised at."""
        return self.schema.row_count

    # -- execution -------------------------------------------------------------

    def execute_query(self, query: ResolvedQuery) -> MeasuredRun:
        """Execute one query: bulk scans of every referenced column group.

        The walk mirrors :meth:`repro.storage.engine.StorageEngine.scan_query`
        block for block and seek for seek — the buffer is shared among the
        referenced partitions per the configured policy (proportionally to
        their row sizes by default), each refill costs one seek — but each
        refill is one vectorized slice of every column array rather than a
        tuple-at-a-time reconstruction.
        """
        characteristics = self.disk
        referenced = [
            (file, columns)
            for partition, file, columns in zip(
                self.partitioning.partitions, self.engine.files, self._partition_columns
            )
            if partition.is_referenced_by(query)
        ]
        blocks_read = 0
        seeks = 0
        rows_scanned = 0
        bytes_scanned = 0
        checksum = 0
        cpu_seconds = 0.0
        total_row_size = sum(file.row_size for file, _ in referenced)
        for file, columns in referenced:
            if self.buffer_sharing == "equal":
                buffer_bytes = characteristics.buffer_size // max(1, len(referenced))
            else:
                buffer_bytes = int(
                    characteristics.buffer_size * file.row_size / total_row_size
                )
            buffer_blocks = max(1, buffer_bytes // characteristics.block_size)
            rows_per_page = file.rows_per_page
            page_count = file.page_count
            row_count = file.row_count
            with timed("exec.scan", query=query.name) as timer:
                position = 0
                while position < page_count:
                    chunk_blocks = min(buffer_blocks, page_count - position)
                    row_start = position * rows_per_page
                    row_stop = min(row_count, (position + chunk_blocks) * rows_per_page)
                    for array in columns:
                        checksum = (
                            checksum + _array_checksum(array[row_start:row_stop])
                        ) & _CHECKSUM_MASK
                    rows_scanned += row_stop - row_start
                    bytes_scanned += (row_stop - row_start) * file.row_size
                    seeks += 1
                    blocks_read += chunk_blocks
                    position += chunk_blocks
            cpu_seconds += timer.wall
        io_seconds = (
            seeks * characteristics.seek_time
            + blocks_read * characteristics.block_size / characteristics.read_bandwidth
        )
        _EXEC_QUERIES.value += 1
        _EXEC_BLOCKS.value += blocks_read
        _EXEC_SEEKS.value += seeks
        _EXEC_CPU_SECONDS.observe(cpu_seconds)
        return MeasuredRun(
            query=query.name,
            weight=query.weight,
            partitions_read=len(referenced),
            blocks_read=blocks_read,
            seeks=seeks,
            bytes_read=blocks_read * characteristics.block_size,
            rows_scanned=rows_scanned,
            bytes_scanned=bytes_scanned,
            io_seconds=io_seconds,
            cpu_seconds=cpu_seconds,
            checksum=checksum,
        )

    def execute_workload(self, workload: Workload) -> MeasuredWorkloadRun:
        """Replay every query of ``workload`` once and collect the runs.

        The workload may be bound to the full-scale schema; only the queries'
        attribute footprints and weights are used, so no rebinding is needed.
        """
        if workload.schema.attribute_names != self.schema.attribute_names:
            raise ValueError(
                f"workload {workload.name!r} is over different attributes than "
                f"the materialised table {self.schema.name!r}"
            )
        runs = [self.execute_query(query) for query in workload]
        return MeasuredWorkloadRun(
            workload_name=workload.name,
            layout_signature=[
                list(partition.sorted_attributes())
                for partition in self.partitioning.partitions
            ],
            rows=self.rows,
            data_seed=self.data_seed,
            runs=runs,
        )

    # -- the estimated side of the comparison ----------------------------------

    def predicted_cost(self, workload: Workload, cost_model) -> float:
        """The model's workload cost at the executor's measured scale.

        Estimated-vs-measured comparisons must predict over the *same* scaled
        schema the executor materialised, otherwise the comparison conflates
        model error with the scale difference.
        """
        scaled = (
            workload
            if workload.schema.row_count == self.schema.row_count
            else workload.with_schema(self.schema)
        )
        return cost_model.workload_cost(scaled, self.partitioning)
