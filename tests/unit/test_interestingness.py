"""Unit tests for the mutual-information-based interestingness measure."""

import pytest

from repro.algorithms.support.interestingness import (
    column_group_interestingness,
    mutual_information,
    normalized_mutual_information,
    pairwise_normalized_mutual_information,
)
from repro.workload.query import Query
from repro.workload.schema import Column, TableSchema
from repro.workload.workload import Workload


@pytest.fixture
def schema():
    return TableSchema(
        "t", [Column(name, 4) for name in ("a", "b", "c", "d")], row_count=100
    )


@pytest.fixture
def workload(schema):
    """a and b are always co-accessed; c is accessed independently; d never."""
    return Workload(
        schema,
        [
            Query("Q1", ["a", "b"]),
            Query("Q2", ["a", "b", "c"]),
            Query("Q3", ["c"]),
            Query("Q4", ["a", "b"]),
        ],
    )


class TestMutualInformation:
    def test_identical_access_patterns_have_max_nmi(self, workload, schema):
        a, b = schema.index_of("a"), schema.index_of("b")
        assert normalized_mutual_information(workload, a, b) == pytest.approx(1.0)

    def test_independent_attributes_have_low_nmi(self, workload, schema):
        a, c = schema.index_of("a"), schema.index_of("c")
        assert normalized_mutual_information(workload, a, c) < 0.5

    def test_mutual_information_non_negative(self, workload):
        for i in range(4):
            for j in range(4):
                assert mutual_information(workload, i, j) >= 0.0

    def test_mi_symmetry(self, workload):
        assert mutual_information(workload, 0, 2) == pytest.approx(
            mutual_information(workload, 2, 0)
        )

    def test_never_accessed_attribute(self, workload, schema):
        d = schema.index_of("d")
        a = schema.index_of("a")
        # d is never accessed: entropy 0, not identical to a -> NMI 0.
        assert normalized_mutual_information(workload, a, d) == 0.0

    def test_pairwise_matrix_equals_single_pair_calls_exactly(self, schema):
        weighted = Workload(
            schema,
            [
                Query("Q1", ["a", "b"], weight=0.25),
                Query("Q2", ["a", "b", "c"], weight=3.7),
                Query("Q3", ["c", "d"]),
                Query("Q4", ["b"], weight=2.0),
            ],
        )
        matrix = pairwise_normalized_mutual_information(weighted)
        assert (matrix == matrix.T).all()
        for i in range(4):
            assert matrix[i, i] == 1.0
            for j in range(i + 1, 4):
                assert matrix[i, j] == normalized_mutual_information(weighted, i, j)


class TestGroupInterestingness:
    def test_singleton_group_is_maximally_interesting(self, workload):
        assert column_group_interestingness(workload, [0]) == 1.0

    def test_co_accessed_pair_more_interesting_than_unrelated_pair(
        self, workload, schema
    ):
        ab = column_group_interestingness(
            workload, [schema.index_of("a"), schema.index_of("b")]
        )
        ad = column_group_interestingness(
            workload, [schema.index_of("a"), schema.index_of("d")]
        )
        assert ab > ad

    def test_empty_group_rejected(self, workload):
        with pytest.raises(ValueError):
            column_group_interestingness(workload, [])

    def test_interestingness_bounded(self, workload):
        for group in ([0, 1], [0, 2], [0, 1, 2, 3]):
            value = column_group_interestingness(workload, group)
            assert 0.0 <= value <= 1.0
