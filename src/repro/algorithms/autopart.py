"""AutoPart (Papadomanolakis & Ailamaki, SSDBM 2004).

AutoPart is a bottom-up algorithm originally designed for large scientific
datasets.  Its starting point is the set of *atomic fragments* (the paper's
primary partitions): maximal groups of attributes that are always accessed
together, i.e. no query references a strict subset of the group.  In each
iteration the current fragments are extended by combining them pairwise —
either with an atomic fragment or with a fragment from the previous iteration
— and the combination with the best improvement in estimated workload cost is
kept.  The process repeats until no combination improves the cost.

The original algorithm also creates *overlapping* fragments (partial attribute
replication).  The paper's unified setting forbids replication, so — exactly
as the authors did — combinations here are disjoint merges, which makes
AutoPart behave like HillClimb seeded with atomic fragments instead of single
columns.  On TPC-H both find the brute-force-optimal layouts.
"""

from __future__ import annotations

from typing import Dict

from repro.core.algorithm import PartitioningAlgorithm, register_algorithm
from repro.core.partitioning import Partition, Partitioning
from repro.cost.base import CostModel
from repro.cost.evaluator import CostEvaluator
from repro.workload.workload import Workload


@register_algorithm("autopart")
class AutoPartAlgorithm(PartitioningAlgorithm):
    """Bottom-up merging of atomic fragments."""

    name = "autopart"
    search_strategy = "bottom-up"
    starting_point = "whole-workload"
    candidate_pruning = "none"

    def __init__(self, naive_costing: bool = False) -> None:
        self.naive_costing = naive_costing
        self._metadata: Dict[str, object] = {}

    def compute(self, workload: Workload, cost_model: CostModel) -> Partitioning:
        """Merge atomic fragments pairwise while the estimated cost improves."""
        schema = workload.schema
        atomic_fragments = workload.primary_partitions()
        evaluator = CostEvaluator(workload, cost_model, naive=self.naive_costing)
        # Candidate extensions: any current fragment combined with an atomic
        # fragment or with another current fragment.  Without replication both
        # cases reduce to merging two of the current disjoint fragments, so the
        # pairwise search covers the candidate set.
        fragments, cost, iterations, merges = evaluator.greedy_merge(atomic_fragments)
        self._metadata = {
            "atomic_fragments": [sorted(fragment) for fragment in atomic_fragments],
            "iterations": iterations,
            "merges": merges,
            "final_cost": cost,
            "candidate_evaluations": evaluator.evaluations,
        }
        return Partitioning(schema, [Partition(fragment) for fragment in fragments])

    def last_run_metadata(self) -> Dict[str, object]:
        return dict(self._metadata)
