"""Unit tests for the vectorized measured-execution backend."""

import pytest

from repro.core.partitioning import (
    Partitioning,
    column_partitioning,
    row_partitioning,
)
from repro.cost.disk import DiskCharacteristics, KB, MB
from repro.cost.hdd import HDDCostModel
from repro.cost.mainmemory import MainMemoryCostModel
from repro.exec.backends import get_backend
from repro.exec.executor import DEFAULT_MEASURED_ROWS, VectorizedScanExecutor
from repro.exec.validation import validate_layouts
from repro.storage.engine import SimulatedDisk, StorageEngine
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload


@pytest.fixture
def workload():
    schema = TableSchema(
        "exec_t",
        [
            Column("a", 4, "int"),
            Column("b", 8, "decimal"),
            Column("c", 25, "char(25)"),
            Column("d", 4, "date"),
            Column("e", 8, "bigint"),
        ],
        100_000,
    )
    return Workload(
        schema,
        [
            Query("Q1", ["a", "b"], weight=2.0),
            Query("Q2", ["c"]),
            Query("Q3", ["a", "c", "d", "e"], weight=0.5),
        ],
        name="exec-test",
    )


LAYOUTS = {
    "row": lambda schema: row_partitioning(schema),
    "column": lambda schema: column_partitioning(schema),
    "grouped": lambda schema: Partitioning(schema, [[0, 1], [2], [3, 4]]),
}


class TestTraceParity:
    """The vectorized walk must trace exactly what the simulator walks."""

    @pytest.mark.parametrize("layout_name", sorted(LAYOUTS))
    @pytest.mark.parametrize("buffer_kb", [64, 512, 8 * 1024])
    def test_counters_match_storage_engine(self, workload, layout_name, buffer_kb):
        disk = DiskCharacteristics(buffer_size=buffer_kb * KB)
        layout = LAYOUTS[layout_name](workload.schema)
        executor = VectorizedScanExecutor(layout, disk=disk, rows=10_000)
        engine = StorageEngine(executor.partitioning, disk=SimulatedDisk(disk))
        for query in workload:
            measured = executor.execute_query(query)
            simulated = engine.scan_query(query)
            assert measured.blocks_read == simulated.blocks_read
            assert measured.seeks == simulated.seeks
            assert measured.bytes_read == simulated.bytes_read
            assert measured.partitions_read == simulated.partitions_read
            assert measured.io_seconds == pytest.approx(
                simulated.io_seconds, rel=1e-9
            )

    @pytest.mark.parametrize("layout_name", sorted(LAYOUTS))
    def test_io_matches_analytical_model(self, workload, layout_name):
        disk = DiskCharacteristics(buffer_size=1 * MB)
        model = HDDCostModel(disk)
        layout = LAYOUTS[layout_name](workload.schema)
        executor = VectorizedScanExecutor(layout, disk=disk, rows=10_000)
        for query in workload:
            predicted = model.query_cost(query, executor.partitioning)
            assert executor.execute_query(query).io_seconds == pytest.approx(
                predicted, rel=1e-9
            )

    @pytest.mark.parametrize("layout_name", sorted(LAYOUTS))
    def test_equal_sharing_walk_matches_the_equal_sharing_model(
        self, workload, layout_name
    ):
        # Regression: the walk must trace the *model's* buffer-sharing
        # policy; with a small buffer and a skewed layout the proportional
        # and equal splits produce different refill counts, and a mismatch
        # would masquerade as model error.
        disk = DiskCharacteristics(buffer_size=80 * KB)
        model = HDDCostModel(disk, buffer_sharing="equal")
        layout = LAYOUTS[layout_name](workload.schema)
        executor = VectorizedScanExecutor(
            layout, disk=disk, rows=10_000, buffer_sharing="equal"
        )
        for query in workload:
            predicted = model.query_cost(query, executor.partitioning)
            assert executor.execute_query(query).io_seconds == pytest.approx(
                predicted, rel=1e-9
            )

    def test_unknown_buffer_sharing_rejected(self, workload):
        with pytest.raises(ValueError):
            VectorizedScanExecutor(
                row_partitioning(workload.schema), buffer_sharing="guessed"
            )


class TestExecutorSemantics:
    def test_rows_are_capped_at_the_schema(self, workload):
        executor = VectorizedScanExecutor(
            row_partitioning(workload.schema), rows=10**9
        )
        assert executor.rows == workload.schema.row_count

    def test_default_rows(self, workload):
        executor = VectorizedScanExecutor(row_partitioning(workload.schema))
        assert executor.rows == DEFAULT_MEASURED_ROWS

    def test_invalid_rows_rejected(self, workload):
        with pytest.raises(ValueError):
            VectorizedScanExecutor(row_partitioning(workload.schema), rows=0)

    def test_same_seed_is_deterministic(self, workload):
        layout = LAYOUTS["grouped"](workload.schema)
        first = VectorizedScanExecutor(layout, rows=5_000, data_seed=3)
        second = VectorizedScanExecutor(layout, rows=5_000, data_seed=3)
        run_a = first.execute_workload(workload)
        run_b = second.execute_workload(workload)
        assert run_a.checksum == run_b.checksum
        assert run_a.io_seconds == run_b.io_seconds
        assert run_a.blocks_read == run_b.blocks_read

    def test_different_seed_changes_the_data(self, workload):
        layout = LAYOUTS["grouped"](workload.schema)
        run_a = VectorizedScanExecutor(layout, rows=5_000, data_seed=0).execute_workload(
            workload
        )
        run_b = VectorizedScanExecutor(layout, rows=5_000, data_seed=1).execute_workload(
            workload
        )
        # The trace (block/seek counts) is data-independent...
        assert run_a.blocks_read == run_b.blocks_read
        assert run_a.io_seconds == run_b.io_seconds
        # ... but the scanned bytes are not.
        assert run_a.checksum != run_b.checksum

    def test_workload_totals_are_weighted(self, workload):
        layout = LAYOUTS["column"](workload.schema)
        executor = VectorizedScanExecutor(layout, rows=5_000)
        run = executor.execute_workload(workload)
        expected_io = sum(
            query.weight * executor.execute_query(query).io_seconds
            for query in workload
        )
        assert run.io_seconds == pytest.approx(expected_io, rel=1e-12)
        # Counter totals are per-execution (unweighted) trace sums.
        assert run.blocks_read == sum(
            executor.execute_query(query).blocks_read for query in workload
        )

    def test_predicted_cost_uses_the_measured_scale(self, workload):
        layout = LAYOUTS["grouped"](workload.schema)
        model = HDDCostModel()
        executor = VectorizedScanExecutor(layout, disk=model.disk, rows=5_000)
        scaled = workload.with_schema(executor.schema)
        assert executor.predicted_cost(workload, model) == pytest.approx(
            model.workload_cost(scaled, executor.partitioning), rel=1e-12
        )

    def test_mismatched_workload_rejected(self, workload):
        other_schema = TableSchema("other", [Column("x", 4)], 1_000)
        other = Workload(other_schema, [Query("Q", ["x"])])
        executor = VectorizedScanExecutor(row_partitioning(workload.schema), rows=1_000)
        with pytest.raises(ValueError):
            executor.execute_workload(other)

    def test_shared_data_must_match_measured_rows(self, workload):
        layout = LAYOUTS["column"](workload.schema)
        donor = VectorizedScanExecutor(layout, rows=5_000)
        # Reusing the donor's arrays at the same scale is fine...
        reuse = VectorizedScanExecutor(layout, rows=5_000, data=donor.data)
        assert reuse.execute_workload(workload).checksum == donor.execute_workload(
            workload
        ).checksum
        # ... but a different scale must be rejected, not silently mis-sliced.
        with pytest.raises(ValueError):
            VectorizedScanExecutor(layout, rows=2_000, data=donor.data)


class TestValidateLayouts:
    def test_report_covers_every_layout_and_agrees(self, workload):
        layouts = {name: build(workload.schema) for name, build in LAYOUTS.items()}
        report = validate_layouts(workload, layouts, HDDCostModel(), rows=5_000)
        assert {v.label for v in report.validations} == set(LAYOUTS)
        assert report.rank_correlation >= 0.9
        assert report.max_absolute_relative_error <= 0.02
        assert "rank correlation" in report.describe()

    def test_rejects_models_without_a_disk(self, workload):
        layouts = {"row": row_partitioning(workload.schema)}
        with pytest.raises(ValueError):
            validate_layouts(workload, layouts, MainMemoryCostModel(), rows=1_000)

    def test_rejects_empty_layout_set(self, workload):
        with pytest.raises(ValueError):
            validate_layouts(workload, {}, HDDCostModel())

    @pytest.mark.parametrize("backend_name", ["measured", "sqlite"])
    def test_equal_layouts_execute_once(self, workload, backend_name, monkeypatch):
        backend = get_backend(backend_name)
        model = HDDCostModel()
        executed = []
        execute = backend.execute

        def counting_execute(layout, *args, **kwargs):
            executed.append(layout)
            return execute(layout, *args, **kwargs)

        monkeypatch.setattr(backend, "execute", counting_execute)
        grouped = LAYOUTS["grouped"](workload.schema)
        layouts = {
            "a": grouped,
            "b": Partitioning(workload.schema, [[3, 4], [2], [0, 1]]),
            "c": column_partitioning(workload.schema),
        }
        report = validate_layouts(
            workload, layouts, model, rows=2_000, backend=backend_name
        )
        assert executed == [grouped, layouts["c"]]

        # Every column but the wall-clock sample is what a separate
        # execution of the layout gives.
        monkeypatch.undo()
        settings = backend.resolve({"rows": 2_000}, model)

        def deterministic(row):
            return {k: v for k, v in row.items() if k not in ("cpu (ms)", "sqlite (ms)")}

        by_label = {v.label: v for v in report.validations}
        assert by_label["a"].row == by_label["b"].row
        for label, layout in layouts.items():
            section, timing, _ = backend.execute(layout, workload, model, settings)
            alone = {
                "parts": layout.partition_count,
                **backend.validation_row(section, timing),
            }
            assert by_label[label].row.keys() == alone.keys()
            assert deterministic(by_label[label].row) == deterministic(alone)
            assert by_label[label].predicted_seconds == section["predicted_seconds"]
