"""Property-based tests for the bitmask cost-evaluation kernel.

The :class:`~repro.cost.evaluator.CostEvaluator` claims to be *exact*: its
memoized bitmask costing must agree with the naive
``CostModel.workload_cost`` path on every layout, for both cost models, and
the delta paths (:meth:`evaluate_merge` and the :meth:`greedy_merge` search)
must agree with evaluating the merged layouts from scratch.  These tests
drive randomized schemas, workloads and layouts through both paths.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.core.partitioning import Partitioning, merge_group_pair
from repro.cost.disk import DiskCharacteristics, KB, MB
from repro.cost.evaluator import CostEvaluator
from repro.cost.hdd import HDDCostModel
from repro.cost.mainmemory import MainMemoryCostModel
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload


@st.composite
def workload_layout_and_model(draw, max_attributes=8, max_queries=6):
    n = draw(st.integers(min_value=2, max_value=max_attributes))
    widths = draw(
        st.lists(st.integers(min_value=1, max_value=200), min_size=n, max_size=n)
    )
    rows = draw(st.integers(min_value=100, max_value=2_000_000))
    schema = TableSchema(
        "t", [Column(f"a{i}", width) for i, width in enumerate(widths)], rows
    )
    query_count = draw(st.integers(min_value=1, max_value=max_queries))
    queries = []
    for q in range(query_count):
        footprint = draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
        )
        weight = draw(st.floats(min_value=0.1, max_value=10.0))
        queries.append(
            Query(f"Q{q}", [schema.attribute_names[i] for i in footprint], weight=weight)
        )
    workload = Workload(schema, queries)

    labels = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)
    )
    groups_by_label = {}
    for attribute, label in enumerate(labels):
        groups_by_label.setdefault(label, set()).add(attribute)
    groups = [frozenset(group) for group in groups_by_label.values()]

    if draw(st.booleans()):
        model = HDDCostModel(
            DiskCharacteristics(
                block_size=draw(st.sampled_from([1 * KB, 4 * KB, 8 * KB, 64 * KB])),
                buffer_size=draw(st.sampled_from([256 * KB, 1 * MB, 8 * MB])),
                read_bandwidth=draw(st.floats(min_value=10 * MB, max_value=500 * MB)),
                seek_time=draw(st.floats(min_value=1e-4, max_value=2e-2)),
            ),
            buffer_sharing=draw(st.sampled_from(["proportional", "equal"])),
        )
    else:
        model = MainMemoryCostModel()
    return workload, groups, model


class TestCostEvaluatorExactness:
    @given(workload_layout_and_model())
    @settings(max_examples=120, deadline=None)
    def test_evaluate_agrees_with_naive_workload_cost(self, case):
        workload, groups, model = case
        evaluator = CostEvaluator(workload, model)
        naive = model.workload_cost(
            workload, Partitioning(workload.schema, list(groups))
        )
        fast = evaluator.evaluate(groups)
        # The kernel's invariant is bit-identity, well inside the 1e-9 budget.
        assert fast == naive
        assert abs(fast - naive) <= 1e-9 * max(1.0, abs(naive))

    @given(workload_layout_and_model())
    @settings(max_examples=120, deadline=None)
    def test_evaluate_merge_agrees_with_from_scratch_evaluation(self, case):
        workload, groups, model = case
        evaluator = CostEvaluator(workload, model)
        naive_evaluator = CostEvaluator(workload, model, naive=True)
        for a, b in combinations(range(len(groups)), 2):
            merged = [g for i, g in enumerate(groups) if i not in (a, b)]
            merged.append(groups[a] | groups[b])
            delta = evaluator.evaluate_merge(groups, a, b)
            assert delta == evaluator.evaluate(merged)
            assert delta == naive_evaluator.evaluate(merged)

    @given(workload_layout_and_model())
    @settings(max_examples=60, deadline=None)
    def test_naive_flag_matches_fast_path(self, case):
        """The benchmark's comparison flag really computes the same numbers."""
        workload, groups, model = case
        fast = CostEvaluator(workload, model).evaluate(groups)
        naive = CostEvaluator(workload, model, naive=True).evaluate(groups)
        assert fast == naive

    @given(workload_layout_and_model())
    @settings(max_examples=60, deadline=None)
    def test_caches_are_layout_independent(self, case):
        """Re-evaluating after other layouts were costed must not drift."""
        workload, groups, model = case
        evaluator = CostEvaluator(workload, model)
        first = evaluator.evaluate(groups)
        # Pollute the caches with different layouts: column + row.
        n = workload.attribute_count
        evaluator.evaluate([frozenset([i]) for i in range(n)])
        evaluator.evaluate([frozenset(range(n))])
        assert evaluator.evaluate(groups) == first


@st.composite
def merge_search_case(draw):
    """A workload case whose disjoint groups split into mergeable + fixed tail."""
    workload, groups, model = draw(
        workload_layout_and_model(max_attributes=10, max_queries=8)
    )
    fixed_count = draw(st.integers(min_value=0, max_value=len(groups) - 1))
    return workload, groups[fixed_count:], groups[:fixed_count], model


def reference_greedy_merge(evaluator, groups, fixed):
    """The search costed from scratch: every candidate is one ``evaluate``."""
    cost = evaluator.evaluate(groups + fixed)
    iterations = merges = 0
    while len(groups) > 1:
        iterations += 1
        best_pair, best_cost = None, cost
        for a, b in combinations(range(len(groups)), 2):
            candidate_cost = evaluator.evaluate(merge_group_pair(groups, a, b) + fixed)
            if candidate_cost < best_cost:
                best_pair, best_cost = (a, b), candidate_cost
        if best_pair is None:
            break
        groups = merge_group_pair(groups, *best_pair)
        cost = best_cost
        merges += 1
    return groups, cost, iterations, merges


class TestGreedyMergeSearch:
    @given(merge_search_case())
    @settings(max_examples=120, deadline=None)
    def test_search_matches_reference_loop(self, case):
        """Same groups (in order), cost (``==``), iteration and merge counts and
        ``evaluations`` as re-costing every candidate from scratch, on the
        kernel and on the naive path."""
        workload, groups, fixed, model = case
        outcomes = []
        for naive in (False, True):
            search = CostEvaluator(workload, model, naive=naive)
            reference = CostEvaluator(workload, model, naive=naive)
            outcome = search.greedy_merge(groups, fixed)
            assert outcome == reference_greedy_merge(reference, list(groups), list(fixed))
            assert search.evaluations == reference.evaluations
            outcomes.append(outcome)
        assert outcomes[0] == outcomes[1]
