"""Integration tests: the sqlite backend through the whole grid stack.

The acceptance path end to end: a sqlite grid run attaches engine sections
and agreement tables, sqlite cells cache and resume exactly like measured
ones (and invalidate on page-size / seed / scale changes), serial and
parallel runs agree byte for byte on the deterministic payload, the CLI
drives the whole thing, and ``LayoutAdvisor.validate_costs`` accepts
``backend="sqlite"``.

Agreement bounds here are structural (sections present, timings positive),
not rank-correlation floors: at tiny grid scales SQLite's fixed per-query
overhead can legitimately reorder close layouts (``docs/ENGINE_X.md``); the
decidable-by-construction ranking claims live in
``test_engine_x_differential.py``.
"""

import pytest

from repro.core.advisor import LayoutAdvisor
from repro.exec.validation import ValidationReport
from repro.grid.aggregate import agreement_rows, agreement_summary_rows
from repro.grid.cache import canonical_json, deterministic_payload
from repro.grid.cli import main as grid_main
from repro.grid.runner import run_grid
from repro.grid.spec import GridError, GridSpec, register_workload
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload


def _engine_workload(name: str) -> Workload:
    schema = TableSchema(
        f"{name}_table",
        [Column("a", 4), Column("b", 8), Column("c", 40), Column("d", 16),
         Column("e", 8)],
        120_000,
    )
    return Workload(
        schema,
        [
            Query("Q1", ["a", "b"], weight=2.0),
            Query("Q2", ["c"]),
            Query("Q3", ["a", "d", "e"], weight=0.5),
            Query("Q4", ["b", "c", "e"]),
        ],
        name=name,
    )


for _name in ("ex_alpha", "ex_beta"):
    try:
        register_workload(f"engine:{_name}", lambda _n=_name: _engine_workload(_n))
    except GridError:
        pass

SQLITE_SPEC = GridSpec(
    name="sqlite-unit",
    algorithms=("hillclimb", "navathe"),
    workloads=("engine:ex_alpha", "engine:ex_beta"),
    cost_models=("hdd",),
    backend="sqlite",
    measurement={"rows": 2_000},
)


class TestSqliteGrid:
    def test_cells_carry_sqlite_sections(self):
        report = run_grid(SQLITE_SPEC, cache_dir=None)
        assert len(report.results) == 4
        for result in report.results:
            section = result.execution
            assert section is not None
            assert section["engine"] == "sqlite"
            assert section["rows"] == 2_000
            assert section["page_size"] == 4096
            assert section["predicted_seconds"] > 0
            assert section["rows_scanned"] > 0
            assert section["bytes_scanned"] > 0
            assert result.payload["timing"]["sqlite_seconds"] > 0
            assert len(result.payload["timing"]["sqlite_query_seconds"]) == 4
        rows = agreement_rows(report.results)
        assert len(rows) == 4
        summary = agreement_summary_rows(report.results)
        pooled = next(row for row in summary if row["algorithm"] == "(all)")
        assert -1.0 <= pooled["rank corr"] <= 1.0
        assert "Estimated vs SQLite engine agreement" in report.describe()

    def test_sqlite_runs_cache_and_resume(self, tmp_path):
        first = run_grid(SQLITE_SPEC, cache_dir=str(tmp_path))
        second = run_grid(SQLITE_SPEC, cache_dir=str(tmp_path))
        assert first.computed == 4 and second.cache_hits == 4
        for a, b in zip(first.results, second.results):
            assert canonical_json(a.payload).encode() == canonical_json(b.payload).encode()

    def test_page_size_seed_and_scale_invalidate_cells(self, tmp_path):
        run_grid(SQLITE_SPEC, cache_dir=str(tmp_path))
        repaged = SQLITE_SPEC.with_backend(
            "sqlite", {"rows": 2_000, "page_size": 8192}
        )
        assert run_grid(repaged, cache_dir=str(tmp_path)).computed == 4
        reseeded = SQLITE_SPEC.with_backend(
            "sqlite", {"rows": 2_000, "data_seed": 5}
        )
        assert run_grid(reseeded, cache_dir=str(tmp_path)).computed == 4
        rescaled = SQLITE_SPEC.with_backend("sqlite", {"rows": 3_000})
        assert run_grid(rescaled, cache_dir=str(tmp_path)).computed == 4
        # The original cells are untouched: a re-run is still fully cached.
        assert run_grid(SQLITE_SPEC, cache_dir=str(tmp_path)).cache_hits == 4

    def test_sqlite_and_measured_cells_never_share_cache_entries(self, tmp_path):
        run_grid(SQLITE_SPEC, cache_dir=str(tmp_path))
        measured = SQLITE_SPEC.with_backend("measured", {"rows": 2_000})
        assert run_grid(measured, cache_dir=str(tmp_path)).computed == 4

    def test_parallel_sqlite_run_matches_serial(self, tmp_path):
        serial = run_grid(SQLITE_SPEC, cache_dir=None, workers=1)
        parallel = run_grid(SQLITE_SPEC, cache_dir=str(tmp_path), workers=2)
        assert parallel.computed == 4
        for s, p in zip(serial.results, parallel.results):
            assert s.cell == p.cell
            det_s = canonical_json(deterministic_payload(s.payload))
            det_p = canonical_json(deterministic_payload(p.payload))
            assert det_s.encode() == det_p.encode()

    def test_every_cost_model_participates(self):
        # Unlike the measured backend, the engine comparison is a ranking,
        # meaningful for models without disk characteristics too.
        spec = GridSpec(
            name="sqlite-mm",
            algorithms=("hillclimb",),
            workloads=("engine:ex_alpha",),
            cost_models=("mainmemory",),
            backend="sqlite",
            measurement={"rows": 1_000},
        )
        report = run_grid(spec, cache_dir=None)
        section = report.results[0].execution
        assert section is not None and section["supported"] is True


class TestSqliteCli:
    def test_cli_runs_caches_and_resumes(self, tmp_path, capsys):
        argv = [
            "--grid", "tiny", "--algorithms", "hillclimb",
            "--workloads", "engine:ex_alpha",
            "--backend", "sqlite", "--measured-rows", "1000",
            "--sqlite-page-size", "8192",
            "--cache-dir", str(tmp_path),
        ]
        assert grid_main(argv) == 0
        first = capsys.readouterr().out
        assert "Estimated vs SQLite engine agreement" in first
        assert "1 computed" in first
        assert grid_main(argv) == 0
        second = capsys.readouterr().out
        assert "1 cached" in second and "0 computed" in second


class TestValidateCostsSqlite:
    def test_advisor_validates_on_the_engine(self, tmp_path):
        workload = _engine_workload("validate_engine")
        advisor = LayoutAdvisor(algorithms=("hillclimb", "navathe"))
        report = advisor.validate_costs(
            workload, rows=2_000, backend="sqlite", page_size=8192
        )
        assert isinstance(report, ValidationReport)
        labels = {validation.label for validation in report.validations}
        assert {"hillclimb", "navathe", "row", "column"} <= labels
        assert report.page_size == 8192
        assert all(v.measured_seconds > 0 for v in report.validations)
        assert -1.0 <= report.rank_correlation <= 1.0
        assert "rank correlation" in report.describe()

    def test_page_size_is_sqlite_only(self):
        advisor = LayoutAdvisor(algorithms=("hillclimb",))
        with pytest.raises(ValueError, match="sqlite"):
            advisor.validate_costs(
                _engine_workload("pz"), rows=1_000, page_size=8192
            )

    def test_invalid_page_size_is_rejected_before_any_algorithm_runs(
        self, monkeypatch
    ):
        def no_algorithms(name, **options):
            raise AssertionError(f"algorithm {name!r} ran before the settings check")

        monkeypatch.setattr("repro.core.advisor.get_algorithm", no_algorithms)
        advisor = LayoutAdvisor(algorithms=("hillclimb",))
        with pytest.raises(ValueError, match="page_size"):
            advisor.validate_costs(
                _engine_workload("bad_page"), rows=1_000, backend="sqlite",
                page_size=1000,
            )

    def test_unknown_backend_is_rejected(self):
        advisor = LayoutAdvisor(algorithms=("hillclimb",))
        with pytest.raises(ValueError, match="backend"):
            advisor.validate_costs(
                _engine_workload("ub"), rows=1_000, backend="postgres"
            )
