"""Unit tests for the sqlite grid backend: spec validation, cache identity, CLI.

The critical invariant pinned here is cache-key compatibility: estimated and
measured cells hash exactly the same inputs as before the sqlite backend
existed (pre-existing caches stay valid), while sqlite cells add their own
execution fingerprint — engine marker, effective rows, data seed, page size —
and nothing host-specific.
"""

import pytest

from repro.cost.hdd import HDDCostModel
from repro.exec.backends import get_backend
from repro.grid.cache import cell_inputs, content_key
from repro.grid.cli import _spec_from_args, build_parser
from repro.grid.spec import GridError, GridSpec, canonical_measurement
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload


@pytest.fixture
def workload():
    schema = TableSchema("sb", [Column("a", 4), Column("b", 16)], 5_000)
    return Workload(
        schema, [Query("Q1", ["a"]), Query("Q2", ["a", "b"])], name="sqlite-unit"
    )


class TestMeasurementValidation:
    def test_sqlite_accepts_page_size(self):
        canonical = canonical_measurement(
            {"rows": 100, "page_size": 8192}, backend="sqlite"
        )
        assert dict(canonical) == {"rows": 100, "page_size": 8192}

    def test_measured_rejects_page_size(self):
        with pytest.raises(GridError):
            canonical_measurement({"page_size": 8192}, backend="measured")

    def test_invalid_page_size_rejected(self):
        with pytest.raises(GridError):
            canonical_measurement({"page_size": 1000}, backend="sqlite")

    def test_resolve_defaults_page_size(self):
        settings = get_backend("sqlite").resolve({"rows": 42})
        assert settings["page_size"] == 4096
        assert settings["rows"] == 42
        assert settings["data_seed"] == 0

    def test_spec_accepts_sqlite_measurement(self):
        spec = GridSpec(
            name="s",
            algorithms=("hillclimb",),
            workloads=("tpch:supplier@0.1",),
            cost_models=("hdd",),
            backend="sqlite",
            measurement={"rows": 500, "page_size": 512},
        )
        assert spec.cells()[0].backend == "sqlite"
        assert dict(spec.cells()[0].measurement)["page_size"] == 512

    def test_measurement_requires_an_executing_backend(self):
        with pytest.raises(GridError):
            GridSpec(
                name="bad",
                algorithms=("hillclimb",),
                workloads=("tpch:supplier@0.1",),
                cost_models=("hdd",),
                measurement={"rows": 500},
            )


class TestCacheIdentity:
    def test_estimated_inputs_unchanged(self, workload):
        inputs = cell_inputs(
            "hillclimb", {}, "w", workload, "hdd", HDDCostModel()
        )
        assert "backend" not in inputs
        assert "execution" not in inputs

    def test_measured_inputs_carry_no_page_size(self, workload):
        inputs = cell_inputs(
            "hillclimb", {}, "w", workload, "hdd", HDDCostModel(),
            backend="measured", measurement={"rows": 1_000},
        )
        assert inputs["backend"] == "measured"
        assert "page_size" not in inputs["execution"]
        assert "engine" not in inputs["execution"]

    @staticmethod
    def _fingerprint(backend, measurement, workload):
        execution = get_backend(backend)
        return execution.fingerprint(
            execution.resolve(measurement), HDDCostModel(), workload
        )

    def test_sqlite_fingerprint_content(self, workload):
        fingerprint = self._fingerprint("sqlite", {"rows": 1_000}, workload)
        assert fingerprint == {
            "engine": "sqlite", "rows": 1_000, "data_seed": 0, "page_size": 4096,
        }
        # No disk, no host identity: a cached timing is a sample.
        assert "disk" not in fingerprint

    def test_sqlite_rows_capped_at_schema(self, workload):
        fingerprint = self._fingerprint("sqlite", {"rows": 1_000_000}, workload)
        assert fingerprint["rows"] == workload.schema.row_count

    def test_backends_never_share_keys(self, workload):
        keys = {
            backend: content_key(
                cell_inputs(
                    "hillclimb", {}, "w", workload, "hdd", HDDCostModel(),
                    backend=backend,
                    measurement=None if backend == "estimated" else {"rows": 1_000},
                )
            )
            for backend in ("estimated", "measured", "sqlite")
        }
        assert len(set(keys.values())) == 3

    def test_page_size_changes_only_sqlite_keys(self, workload):
        def key(backend, measurement):
            return content_key(
                cell_inputs(
                    "hillclimb", {}, "w", workload, "hdd", HDDCostModel(),
                    backend=backend, measurement=measurement,
                )
            )

        assert key("sqlite", {"rows": 1_000}) != key(
            "sqlite", {"rows": 1_000, "page_size": 8192}
        )
        assert key("sqlite", {"rows": 1_000}) == key(
            "sqlite", {"rows": 1_000, "page_size": 4096}
        )
        # The measured fingerprint has no page-size axis at all.
        measured = self._fingerprint("measured", {"rows": 1_000}, workload)
        assert set(measured) == {"rows", "data_seed", "disk"}


class TestCli:
    def test_sqlite_backend_spec(self):
        args = build_parser().parse_args(
            ["--backend", "sqlite", "--measured-rows", "2000",
             "--sqlite-page-size", "8192", "--data-seed", "3"]
        )
        spec = _spec_from_args(args)
        assert spec.backend == "sqlite"
        assert spec.name.endswith("+sqlite")
        measurement = dict(spec.cells()[0].measurement)
        assert measurement == {"rows": 2000, "data_seed": 3, "page_size": 8192}

    def test_page_size_requires_sqlite_backend(self):
        args = build_parser().parse_args(["--sqlite-page-size", "8192"])
        with pytest.raises(GridError, match="--backend sqlite"):
            _spec_from_args(args)

    def test_rows_require_an_executing_backend(self):
        args = build_parser().parse_args(["--measured-rows", "2000"])
        with pytest.raises(GridError, match="measured or sqlite"):
            _spec_from_args(args)

    def test_invalid_page_size_is_a_grid_error(self):
        args = build_parser().parse_args(
            ["--backend", "sqlite", "--sqlite-page-size", "1000"]
        )
        with pytest.raises(GridError, match="page_size"):
            _spec_from_args(args)
