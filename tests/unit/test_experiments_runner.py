"""Unit tests for the shared experiment runner and report rendering."""

import pytest

from repro.experiments.report import format_percentage, format_table
from repro.experiments.runner import SuiteResult, baseline_costs, run_suite
from repro.workload import tpch


@pytest.fixture(scope="module")
def small_suite():
    workloads = {
        "partsupp": tpch.tpch_workload("partsupp", scale_factor=0.1),
        "nation": tpch.tpch_workload("nation", scale_factor=0.1),
    }
    return run_suite(workloads, algorithms=("hillclimb", "navathe", "brute-force"))


class TestRunSuite:
    def test_contains_requested_algorithms_and_baselines(self, small_suite):
        assert set(small_suite.runs) == {
            "hillclimb", "navathe", "brute-force", "row", "column",
        }
        assert small_suite.tables == ["partsupp", "nation"]

    def test_every_run_has_a_valid_layout(self, small_suite):
        for algorithm in small_suite.algorithms:
            for table in small_suite.tables:
                run = small_suite.run(algorithm, table)
                assert run.partitioning.schema.name == table
                assert run.estimated_cost > 0

    def test_totals_are_sums(self, small_suite):
        total = small_suite.total_cost("hillclimb")
        parts = sum(
            small_suite.run("hillclimb", table).estimated_cost
            for table in small_suite.tables
        )
        assert total == pytest.approx(parts)

    def test_brute_force_exact_on_small_tables(self, small_suite):
        assert not small_suite.is_approximate("brute-force")
        assert small_suite.total_cost("brute-force") <= small_suite.total_cost(
            "hillclimb"
        ) * 1.0001

    def test_brute_force_fallback_on_wide_tables(self):
        workloads = {"lineitem": tpch.tpch_workload("lineitem", scale_factor=0.1)}
        suite = run_suite(
            workloads,
            algorithms=("hillclimb", "brute-force"),
            brute_force_unit_limit=6,
        )
        assert suite.is_approximate("brute-force")
        run = suite.run("brute-force", "lineitem")
        assert run.result.metadata["approximated_by"] == "hillclimb"
        assert run.estimated_cost == pytest.approx(
            suite.run("hillclimb", "lineitem").estimated_cost
        )

    def test_layouts_accessor(self, small_suite):
        layouts = small_suite.layouts("hillclimb")
        assert set(layouts) == {"partsupp", "nation"}

    def test_baseline_costs_helper(self):
        workloads = {"partsupp": tpch.tpch_workload("partsupp", scale_factor=0.1)}
        costs = baseline_costs(workloads)
        assert costs["row"]["partsupp"] > costs["column"]["partsupp"] > 0


class TestReportRendering:
    def test_format_percentage(self):
        assert format_percentage(0.0371) == "+3.71%"
        assert format_percentage(-0.2147) == "-21.47%"

    def test_format_table_alignment(self):
        rows = [
            {"algorithm": "hillclimb", "cost": 1.2345, "ok": True},
            {"algorithm": "navathe", "cost": 10.5, "ok": False},
        ]
        text = format_table(rows, title="Figure X")
        lines = text.splitlines()
        assert lines[0] == "Figure X"
        assert "hillclimb" in text and "navathe" in text
        assert "yes" in text and "no" in text

    def test_format_table_empty(self):
        assert format_table([], title="empty") == "empty"

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "b" in text and "a" not in text.splitlines()[0]
