"""Integration tests: the measured-execution backend through the whole stack.

Covers the acceptance path end to end: a measured grid run produces an
estimated-vs-measured agreement table with high rank correlation, measured
cells cache and resume like estimated ones (and invalidate on data-seed /
scale changes), serial and parallel measured runs agree byte for byte on the
deterministic payload, ``LayoutAdvisor.validate_costs`` validates all six
algorithms plus brute force, and the Figure 3 validation experiment holds its
shape.
"""

import pytest

from repro.core.advisor import LayoutAdvisor
from repro.cost.hdd import HDDCostModel
from repro.experiments import validation as validation_experiment
from repro.grid.aggregate import agreement_rows, agreement_summary_rows
from repro.grid.cache import canonical_json, deterministic_payload
from repro.grid.runner import run_grid
from repro.grid.spec import GridError, GridSpec, register_workload
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload


def _measured_workload(name: str) -> Workload:
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


for _name in ("mb_alpha", "mb_beta"):
    try:
        register_workload(f"measured:{_name}", lambda _n=_name: _measured_workload(_n))
    except GridError:
        pass

MEASURED_SPEC = GridSpec(
    name="measured-unit",
    algorithms=("hillclimb", "navathe"),
    workloads=("measured:mb_alpha", "measured:mb_beta"),
    cost_models=("hdd",),
    backend="measured",
    measurement={"rows": 2_000},
)


class TestMeasuredGrid:
    def test_cells_carry_agreeing_measured_sections(self):
        report = run_grid(MEASURED_SPEC, cache_dir=None)
        assert len(report.results) == 4
        for result in report.results:
            measured = result.execution
            assert measured is not None
            assert measured["rows"] == 2_000
            assert measured["measured_io_seconds"] > 0
            assert abs(measured["relative_error"]) <= 0.02
        rows = agreement_rows(report.results)
        assert len(rows) == 4
        summary = agreement_summary_rows(report.results)
        pooled = next(row for row in summary if row["algorithm"] == "(all)")
        assert pooled["rank corr"] >= 0.9
        assert "Estimated vs measured agreement" in report.describe()

    def test_measured_runs_cache_and_resume(self, tmp_path):
        first = run_grid(MEASURED_SPEC, cache_dir=str(tmp_path))
        second = run_grid(MEASURED_SPEC, cache_dir=str(tmp_path))
        assert first.computed == 4 and second.cache_hits == 4
        for a, b in zip(first.results, second.results):
            assert canonical_json(a.payload).encode() == canonical_json(b.payload).encode()

    def test_changed_seed_and_scale_invalidate_measured_cells(self, tmp_path):
        run_grid(MEASURED_SPEC, cache_dir=str(tmp_path))
        reseeded = MEASURED_SPEC.with_backend(
            "measured", {"rows": 2_000, "data_seed": 5}
        )
        assert run_grid(reseeded, cache_dir=str(tmp_path)).computed == 4
        rescaled = MEASURED_SPEC.with_backend("measured", {"rows": 3_000})
        assert run_grid(rescaled, cache_dir=str(tmp_path)).computed == 4
        # The original cells are untouched: a re-run is still fully cached.
        assert run_grid(MEASURED_SPEC, cache_dir=str(tmp_path)).cache_hits == 4

    def test_parallel_measured_run_matches_serial(self, tmp_path):
        serial = run_grid(MEASURED_SPEC, cache_dir=None, workers=1)
        parallel = run_grid(MEASURED_SPEC, cache_dir=str(tmp_path), workers=2)
        assert parallel.computed == 4
        for s, p in zip(serial.results, parallel.results):
            assert s.cell == p.cell
            det_s = canonical_json(deterministic_payload(s.payload))
            det_p = canonical_json(deterministic_payload(p.payload))
            assert det_s.encode() == det_p.encode()

    def test_equal_sharing_cells_agree_under_their_own_policy(self):
        # The executor traces the model's buffer-sharing policy, so measuring
        # the hdd:equal ablation compares like with like.
        spec = GridSpec(
            name="measured-equal",
            algorithms=("hillclimb",),
            workloads=("measured:mb_alpha",),
            cost_models=("hdd:equal",),
            backend="measured",
            measurement={"rows": 2_000},
        )
        report = run_grid(spec, cache_dir=None)
        measured = report.results[0].execution
        assert measured is not None
        assert abs(measured["relative_error"]) <= 0.02

    def test_unsupported_cost_model_is_reported_not_coerced(self):
        spec = GridSpec(
            name="measured-mm",
            algorithms=("hillclimb",),
            workloads=("measured:mb_alpha",),
            cost_models=("mainmemory",),
            backend="measured",
            measurement={"rows": 2_000},
        )
        report = run_grid(spec, cache_dir=None)
        result = report.results[0]
        assert result.execution is None
        assert result.payload["measured"]["supported"] is False
        assert agreement_rows(report.results) == []

    def test_measurement_requires_measured_backend(self):
        with pytest.raises(GridError):
            GridSpec(
                name="bad",
                algorithms=("hillclimb",),
                workloads=("measured:mb_alpha",),
                cost_models=("hdd",),
                measurement={"rows": 100},
            )


class TestValidateCosts:
    def test_all_algorithms_plus_brute_force_validate(self):
        workload = _measured_workload("validate")
        advisor = LayoutAdvisor(
            algorithms=(
                "autopart", "hillclimb", "hyrise", "navathe", "o2p", "trojan",
                "brute-force",
            )
        )
        report = advisor.validate_costs(workload, rows=2_000)
        labels = {validation.label for validation in report.validations}
        assert {"brute-force", "hillclimb", "row", "column"} <= labels
        assert len(report.validations) == 9  # 7 algorithms + 2 baselines
        assert report.rank_correlation >= 0.9
        assert report.max_absolute_relative_error <= 0.02
        # Prediction and measurement are compared at the *measured* scale, so
        # they must crown the same cheapest layout there.  (Brute force's
        # full-scale optimality is the differential test's claim; at a tiny
        # measured scale block rounding can legitimately favour a different
        # layout, and the model predicts exactly that.)
        cheapest_measured = min(
            report.validations, key=lambda v: v.measured_seconds
        )
        cheapest_predicted = min(
            report.validations, key=lambda v: v.predicted_seconds
        )
        assert cheapest_measured.label == cheapest_predicted.label

    def test_validate_costs_requires_a_disk_model(self):
        from repro.cost.mainmemory import MainMemoryCostModel

        advisor = LayoutAdvisor(cost_model=MainMemoryCostModel())
        with pytest.raises(ValueError):
            advisor.validate_costs(_measured_workload("mm"), rows=1_000)


class TestValidationExperiment:
    def test_figure3_shape_survives_measurement(self):
        reports = validation_experiment.validation_reports(
            tables=("partsupp",),
            scale_factor=0.1,
            algorithms=("hillclimb", "navathe"),
            rows=2_000,
        )
        rows = validation_experiment.estimated_vs_measured_runtimes(reports)
        assert {row["layout"] for row in rows} == {
            "hillclimb", "navathe", "row", "column"
        }
        # Measured order must match estimated order (the figure's shape).
        by_estimate = sorted(rows, key=lambda row: row["estimated_runtime_s"])
        assert [row["layout"] for row in by_estimate] == [
            row["layout"] for row in rows
        ]
        summary = validation_experiment.agreement_summary(reports)
        assert summary["rank_correlation"] >= 0.9
        assert summary["layouts_validated"] == 4
        assert summary["per_table"]["partsupp"]["rank_correlation"] >= 0.9
