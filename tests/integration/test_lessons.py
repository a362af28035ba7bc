"""Integration tests asserting the paper's four key lessons (Section 7).

These run the real TPC-H workloads (at a reduced scale factor to stay fast —
the cost *ratios* the lessons are about are scale-invariant to first order)
and check the qualitative findings:

1. We don't really need brute force — the heuristics (HillClimb, AutoPart)
   find layouts with the same cost as exhaustive enumeration.
2. Watch out for the buffer size — shrinking the buffer inflates workload
   runtimes by an order of magnitude or more.
3. HillClimb is the best algorithm — best cost at modest optimisation time.
4. Column layouts are often good enough — vertical partitioning improves over
   the column layout by only a few percent on TPC-H, and Navathe/O2P are
   actually worse than Column.
"""

import pytest

from repro.core.algorithm import get_algorithm
from repro.core.partitioning import column_partitioning, row_partitioning
from repro.cost.disk import DEFAULT_DISK, MB
from repro.cost.hdd import HDDCostModel
from repro.experiments.runner import run_suite
from repro.metrics.fragility import fragility
from repro.workload import tpch

SCALE_FACTOR = 1.0


@pytest.fixture(scope="module")
def suite():
    workloads = tpch.tpch_workloads(scale_factor=SCALE_FACTOR)
    return run_suite(workloads)


class TestLesson1_NoBruteForceNeeded:
    def test_hillclimb_matches_brute_force_cost(self, suite):
        """On every table where brute force is exact, HillClimb matches it."""
        for table in suite.tables:
            brute = suite.run("brute-force", table)
            if brute.approximate:
                continue
            hillclimb = suite.run("hillclimb", table)
            assert hillclimb.estimated_cost == pytest.approx(
                brute.estimated_cost, rel=1e-6
            )

    def test_autopart_matches_brute_force_cost(self, suite):
        for table in suite.tables:
            brute = suite.run("brute-force", table)
            if brute.approximate:
                continue
            autopart = suite.run("autopart", table)
            assert autopart.estimated_cost == pytest.approx(
                brute.estimated_cost, rel=1e-6
            )

    def test_heuristics_are_orders_of_magnitude_faster_than_brute_force(self, suite):
        """Where exact brute force ran, it is at least 10x slower than HillClimb
        in total (the paper reports 4-5 orders of magnitude on the full scale).

        Effort is counted in cost evaluations, the deterministic work both
        algorithms do, so the claim holds however loaded the machine is.
        """
        exact_tables = [
            table for table in suite.tables if not suite.run("brute-force", table).approximate
        ]
        brute_evaluations = sum(
            suite.run("brute-force", table).result.cost_evaluations
            for table in exact_tables
        )
        hillclimb_evaluations = sum(
            suite.run("hillclimb", table).result.cost_evaluations
            for table in exact_tables
        )
        assert brute_evaluations > 10 * hillclimb_evaluations


class TestLesson2_BufferSizeMatters:
    def test_shrinking_the_buffer_inflates_runtimes(self):
        workload = tpch.tpch_workload("lineitem", scale_factor=SCALE_FACTOR)
        model = HDDCostModel(DEFAULT_DISK)
        layout = get_algorithm("hillclimb").run(workload, model).partitioning
        tiny_buffer = HDDCostModel(DEFAULT_DISK.with_buffer_size(int(0.08 * MB)))
        change = fragility(workload, layout, model, tiny_buffer)
        assert change > 1.0  # at least a 2x inflation; the paper sees up to 24x

    def test_growing_the_buffer_never_hurts(self):
        workload = tpch.tpch_workload("lineitem", scale_factor=SCALE_FACTOR)
        model = HDDCostModel(DEFAULT_DISK)
        layout = get_algorithm("hillclimb").run(workload, model).partitioning
        big_buffer = HDDCostModel(DEFAULT_DISK.with_buffer_size(800 * MB))
        assert fragility(workload, layout, model, big_buffer) <= 0.0

    def test_vertical_partitioning_stops_paying_off_for_huge_buffers(self):
        """Figure 9's sweet spot: with a very large buffer the column layout is
        at least as good as the HillClimb layout."""
        workload = tpch.tpch_workload("lineitem", scale_factor=SCALE_FACTOR)
        huge = HDDCostModel(DEFAULT_DISK.with_buffer_size(8_000 * MB))
        hillclimb_cost = get_algorithm("hillclimb").run(workload, huge).estimated_cost
        column_cost = huge.workload_cost(workload, column_partitioning(workload.schema))
        assert hillclimb_cost >= column_cost * 0.999


class TestLesson3_HillClimbIsBest:
    def test_hillclimb_has_the_lowest_total_cost(self, suite):
        hillclimb_cost = suite.total_cost("hillclimb")
        for name in ("navathe", "o2p", "trojan", "hyrise", "autopart"):
            assert hillclimb_cost <= suite.total_cost(name) * 1.0001

    def test_hillclimb_beats_row_layout_massively(self, suite):
        assert suite.total_cost("row") > 3 * suite.total_cost("hillclimb")

    def test_hillclimb_optimization_time_is_modest(self, suite):
        """HillClimb terminates quickly (well under a minute even in Python)."""
        assert suite.total_optimization_time("hillclimb") < 30.0


class TestLesson4_ColumnLayoutsAreOftenGoodEnough:
    def test_improvement_over_column_is_small(self, suite):
        column_cost = suite.total_cost("column")
        best_cost = suite.total_cost("hillclimb")
        improvement = (column_cost - best_cost) / column_cost
        assert 0.0 <= improvement < 0.15

    def test_navathe_and_o2p_are_worse_than_column(self, suite):
        column_cost = suite.total_cost("column")
        assert suite.total_cost("navathe") > column_cost
        assert suite.total_cost("o2p") > column_cost

    def test_row_layout_reads_mostly_unnecessary_data(self):
        from repro.metrics.quality import unnecessary_data_fraction

        workload = tpch.tpch_workload("lineitem", scale_factor=SCALE_FACTOR)
        fraction = unnecessary_data_fraction(workload, row_partitioning(workload.schema))
        assert fraction > 0.5  # the paper reports 84% across the benchmark
