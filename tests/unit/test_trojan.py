"""Unit tests for the Trojan layouts algorithm."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.hillclimb import HillClimbAlgorithm
from repro.algorithms.support.interestingness import column_group_interestingness
from repro.algorithms.support.knapsack import KnapsackItem, solve_knapsack
from repro.algorithms.trojan import TrojanAlgorithm
from repro.core.partitioning import Partition, Partitioning
from repro.cost.hdd import HDDCostModel
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload


class TestTrojanParameters:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            TrojanAlgorithm(interestingness_threshold=1.5)

    def test_rejects_bad_group_size(self):
        with pytest.raises(ValueError):
            TrojanAlgorithm(max_group_size=0)

    def test_rejects_bad_candidate_cap(self):
        with pytest.raises(ValueError):
            TrojanAlgorithm(max_candidates=0)

    def test_rejects_bad_enumeration_limit(self):
        with pytest.raises(ValueError):
            TrojanAlgorithm(exhaustive_enumeration_limit=0)


class TestTrojan:
    def test_produces_valid_partitioning(self, lineitem_workload, hdd_model):
        layout = TrojanAlgorithm().compute(lineitem_workload, hdd_model)
        Partitioning(layout.schema, layout.partitions)

    def test_groups_always_co_accessed_attributes(self, intro_workload, hdd_model):
        layout = TrojanAlgorithm().compute(intro_workload, hdd_model)
        names = set(layout.as_names())
        assert ("partkey", "suppkey") in names
        assert ("availqty", "supplycost") in names

    def test_threshold_one_keeps_only_identical_access_groups(
        self, partsupp_workload, hdd_model
    ):
        """With the threshold at 1.0 only perfectly co-accessed groups survive,
        so the layout equals the primary partitions."""
        layout = TrojanAlgorithm(interestingness_threshold=1.0).compute(
            partsupp_workload, hdd_model
        )
        expected = {frozenset(f) for f in partsupp_workload.primary_partitions()}
        assert set(layout.as_sets()) == expected

    def test_lower_threshold_allows_more_grouping(self, lineitem_workload, hdd_model):
        strict = TrojanAlgorithm(interestingness_threshold=0.95).compute(
            lineitem_workload, hdd_model
        )
        loose = TrojanAlgorithm(interestingness_threshold=0.1).compute(
            lineitem_workload, hdd_model
        )
        assert loose.partition_count <= strict.partition_count

    def test_close_to_hillclimb_class_on_lineitem(self, lineitem_workload, hdd_model):
        """The paper reports Trojan within a fraction of a percent of optimal."""
        trojan = TrojanAlgorithm().run(lineitem_workload, hdd_model)
        hillclimb = HillClimbAlgorithm().run(lineitem_workload, hdd_model)
        assert trojan.estimated_cost <= hillclimb.estimated_cost * 1.10

    def test_metadata_reports_pruning(self, lineitem_workload, hdd_model):
        algorithm = TrojanAlgorithm()
        algorithm.run(lineitem_workload, hdd_model)
        metadata = algorithm.last_run_metadata()
        assert metadata["candidates_enumerated"] > 0
        assert metadata["candidates_after_pruning"] <= metadata["candidates_enumerated"]

    def test_seeded_enumeration_for_very_wide_tables(self, hdd_model):
        """Beyond the exhaustive limit the candidate set is query-seeded but the
        algorithm still returns a valid layout."""
        from repro.workload import synthetic

        schema = synthetic.synthetic_table(24, row_count=10_000, random_state=3)
        workload = synthetic.clustered_workload(
            schema, num_clusters=4, queries_per_cluster=3, random_state=3
        )
        layout = TrojanAlgorithm(exhaustive_enumeration_limit=16).compute(
            workload, hdd_model
        )
        Partitioning(layout.schema, layout.partitions)


def reference_trojan(workload, threshold, max_group_size, max_candidates):
    """Trojan spelled out: score every group of 2..max_group_size attributes
    with the public interestingness measure, then threshold, sort, cut,
    knapsack-merge and cover leftovers with primary partitions."""
    n = workload.attribute_count
    enumerated = 0
    scored = []
    for size in range(2, min(n, max_group_size) + 1):
        for group in combinations(range(n), size):
            enumerated += 1
            score = column_group_interestingness(workload, group)
            if score >= threshold:
                scored.append((frozenset(group), score))
    scored.sort(key=lambda item: (-item[1], -len(item[0]), sorted(item[0])))
    scored = scored[:max_candidates]
    chosen = solve_knapsack([
        KnapsackItem(attributes=group, benefit=score * (len(group) - 1) + 1e-9)
        for group, score in scored
    ])
    groups = [item.attributes for item in chosen]
    covered = set().union(*groups)
    for fragment in workload.primary_partitions():
        remainder = fragment - covered
        if remainder:
            groups.append(frozenset(remainder))
            covered.update(remainder)
    layout = Partitioning(workload.schema, [Partition(group) for group in groups])
    metadata = {
        "candidates_enumerated": enumerated,
        "candidates_after_pruning": len(scored),
        "groups_selected_by_knapsack": len(chosen),
        "interestingness_threshold": threshold,
    }
    return layout, metadata


@st.composite
def tied_workloads(draw):
    """Workloads whose queries mostly repeat a few footprints, so many
    attributes share an access pattern and group scores tie."""
    n = draw(st.integers(min_value=2, max_value=12))
    schema = TableSchema("t", [Column(f"a{i}", 4) for i in range(n)], row_count=1_000)
    footprint = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)
    shared = draw(st.lists(footprint, min_size=1, max_size=3))
    queries = []
    for position in range(draw(st.integers(min_value=1, max_value=6))):
        attributes = draw(st.sampled_from(shared) | footprint)
        weight = draw(st.sampled_from((1.0, 1.0, 0.25, 2.0, 3.7)))
        names = [schema.attribute_names[i] for i in sorted(attributes)]
        queries.append(Query(f"Q{position}", names, weight=weight))
    return Workload(schema, queries)


class TestTrojanExactness:
    @given(
        tied_workloads(),
        st.sampled_from((0.0, 0.4, 1.0)),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_scoring_every_group(
        self, workload, threshold, max_group_size, max_candidates
    ):
        algorithm = TrojanAlgorithm(
            interestingness_threshold=threshold,
            max_group_size=max_group_size,
            max_candidates=max_candidates,
        )
        layout = algorithm.compute(workload, HDDCostModel())
        expected_layout, expected_metadata = reference_trojan(
            workload, threshold, max_group_size, max_candidates
        )
        assert layout.as_names() == expected_layout.as_names()
        assert algorithm.last_run_metadata() == expected_metadata
