"""Unit tests for the bitmask cost-evaluation kernel."""

import builtins

import pytest

from repro.core.partitioning import Partition, Partitioning, merge_group_pair
from repro.cost import base, hdd, mainmemory
from repro.cost.base import CostModel
from repro.cost.evaluator import CostEvaluator
from repro.cost.hdd import HDDCostModel
from repro.cost.mainmemory import MainMemoryCostModel
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.tpch import tpch_workload
from repro.workload.workload import Workload


@pytest.fixture
def workload():
    schema = TableSchema(
        "t",
        [Column("a", 4), Column("b", 8), Column("c", 100), Column("d", 25)],
        100_000,
    )
    return Workload(
        schema,
        [
            Query("Q1", ["a", "b"], weight=2.0),
            Query("Q2", ["c"]),
            Query("Q3", ["a", "c", "d"], weight=0.5),
        ],
    )


class TestCostEvaluator:
    def test_matches_naive_workload_cost(self, workload):
        model = HDDCostModel()
        evaluator = CostEvaluator(workload, model)
        groups = [frozenset({0, 1}), frozenset({2}), frozenset({3})]
        naive = model.workload_cost(workload, Partitioning(workload.schema, groups))
        assert evaluator.evaluate(groups) == naive

    def test_accepts_masks_partitions_and_sets(self, workload):
        evaluator = CostEvaluator(workload, HDDCostModel())
        uniform = [frozenset({0, 1}), frozenset({2}), frozenset({3})]
        mixed = [0b0011, Partition([2]), frozenset({3})]
        assert evaluator.evaluate(mixed) == evaluator.evaluate(uniform)

    def test_evaluate_merge_matches_from_scratch(self, workload):
        evaluator = CostEvaluator(workload, MainMemoryCostModel())
        groups = [frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})]
        merged = merge_group_pair(groups, 1, 3)
        assert evaluator.evaluate_merge(groups, 1, 3) == evaluator.evaluate(merged)

    def test_evaluate_merge_with_duplicate_groups(self, workload):
        """Regression: the delta path must drop exactly one occurrence of each
        merged group, not every equal bitmask, when duplicates are present."""
        model = HDDCostModel()
        evaluator = CostEvaluator(workload, model)
        groups = [frozenset({0}), frozenset({0}), frozenset({1})]
        delta = evaluator.evaluate_merge(groups, 0, 2)
        from_scratch = evaluator.evaluate([frozenset({0}), frozenset({0, 1})])
        assert delta == from_scratch

    def test_evaluate_merge_of_equal_groups(self, workload):
        evaluator = CostEvaluator(workload, HDDCostModel())
        groups = [frozenset({0}), frozenset({0}), frozenset({1})]
        assert evaluator.evaluate_merge(groups, 0, 1) == evaluator.evaluate(
            [frozenset({0}), frozenset({1})]
        )

    def test_unsupported_model_falls_back_to_naive(self, workload):
        class FlatModel(CostModel):
            name = "flat"

            def query_cost(self, query, partitioning):
                return float(len(partitioning.referenced_partitions(query)))

            def partition_read_cost(self, partition, co_read, partitioning):
                return 1.0

        model = FlatModel()
        evaluator = CostEvaluator(workload, model)
        assert evaluator.naive
        groups = [frozenset({0, 1}), frozenset({2, 3})]
        expected = model.workload_cost(workload, Partitioning(workload.schema, groups))
        assert evaluator.evaluate(groups) == expected

    def test_kernel_counts_candidate_evaluations(self, workload):
        evaluator = CostEvaluator(workload, HDDCostModel())
        groups = [frozenset({0, 1}), frozenset({2}), frozenset({3})]
        evaluator.evaluate(groups)
        evaluator.evaluate_merge(groups, 0, 1)
        assert evaluator.evaluations == 2


class TestSingleQueryCosting:
    def test_query_cost_matches_model(self, workload):
        model = HDDCostModel()
        evaluator = CostEvaluator(workload, model)
        groups = [frozenset({0, 1}), frozenset({2}), frozenset({3})]
        partitioning = Partitioning(workload.schema, groups)
        for query in workload:
            assert evaluator.query_cost(query.index_mask, groups) == model.query_cost(
                query, partitioning
            )

    def test_query_cost_naive_path_matches(self, workload):
        model = HDDCostModel()
        fast = CostEvaluator(workload, model)
        naive = CostEvaluator(workload, model, naive=True)
        groups = [frozenset({0}), frozenset({1, 2, 3})]
        for query in workload:
            assert naive.query_cost(query.index_mask, groups) == fast.query_cost(
                query.index_mask, groups
            )

    def test_workload_cost_is_weighted_query_cost_sum(self, workload):
        model = HDDCostModel()
        evaluator = CostEvaluator(workload, model)
        groups = [frozenset({0, 1, 2}), frozenset({3})]
        total = sum(
            query.weight * evaluator.query_cost(query.index_mask, groups)
            for query in workload
        )
        assert evaluator.evaluate(groups) == pytest.approx(total)


class TestRebind:
    def test_rebind_shares_caches_and_matches(self, workload):
        model = HDDCostModel()
        evaluator = CostEvaluator(workload, model)
        groups = [frozenset({0, 1}), frozenset({2}), frozenset({3})]
        evaluator.evaluate(groups)
        window = Workload(
            workload.schema,
            [Query("W1", ["a", "b"], weight=3.0), Query("W2", ["d"])],
            name="window",
        )
        rebound = evaluator.rebind(window)
        assert rebound._signature_costs is evaluator._signature_costs
        assert rebound._group_profiles is evaluator._group_profiles
        expected = model.workload_cost(window, Partitioning(workload.schema, groups))
        assert rebound.evaluate(groups) == expected

    def test_rebind_rejects_different_schema(self, workload):
        other = TableSchema("other", [Column("x", 4), Column("y", 8)], 10)
        evaluator = CostEvaluator(workload, HDDCostModel())
        with pytest.raises(ValueError):
            evaluator.rebind(Workload(other, [Query("Q", ["x"])]))


def _compensated_sum(iterable, start=0):
    """``sum`` as Python 3.12 computes it: Neumaier-compensated for floats."""
    items = list(iterable)
    if not any(isinstance(item, float) for item in items):
        return builtins.sum(items, start)
    total = float(start)
    compensation = 0.0
    for item in items:
        step = total + item
        if abs(total) >= abs(item):
            compensation += (total - step) + item
        else:
            compensation += (item - step) + total
        total = step
    return total + compensation


class TestLeftToRightSums:
    """Regression: the naive path added floats with ``sum()``, which is
    compensated since Python 3.12, while the kernel adds left to right, so
    the two disagreed in the last bits on most layouts under 3.12.
    Shadowing ``sum`` in the cost modules replays that on any interpreter."""

    @pytest.mark.parametrize(
        "model", [HDDCostModel(), MainMemoryCostModel()], ids=["hdd", "mainmemory"]
    )
    def test_naive_path_does_not_depend_on_sum(self, monkeypatch, model):
        for module in (base, hdd, mainmemory):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
        workload = tpch_workload("lineitem", scale_factor=1)
        n = workload.attribute_count
        layouts = [
            [frozenset([index]) for index in range(n)],
            [frozenset(range(n))],
            [frozenset(range(8)), frozenset(range(8, n))],
            [frozenset({index, index + 1}) for index in range(0, n, 2)],
            list(workload.primary_partitions()),
            [frozenset(range(start, n, 3)) for start in range(3)],
        ]
        evaluator = CostEvaluator(workload, model)
        for groups in layouts:
            naive = model.workload_cost(workload, Partitioning(workload.schema, groups))
            assert evaluator.evaluate(groups) == naive
