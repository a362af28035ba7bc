"""HillClimb (Hankins & Patel, "Data Morphing", VLDB 2003).

A bottom-up algorithm: start from the column layout (each attribute in its own
partition) and, in every iteration, merge the *pair* of partitions whose merge
yields the largest improvement in estimated workload cost.  Each iteration
reduces the partition count by one; the algorithm stops as soon as no merge
improves the cost.

The original algorithm precomputes a dictionary with the cost of every
possible column group.  The paper found that the dictionary grows to gigabytes
for wide tables and that dropping it makes the algorithm dramatically faster,
so — like the paper — the *improved*, dictionary-free variant is the default.
The original dictionary-backed behaviour can be enabled with
``use_cost_dictionary=True``; the ablation benchmark compares the two.

The search is :meth:`~repro.cost.evaluator.CostEvaluator.greedy_merge`,
shared with AutoPart and HYRISE, which re-costs only the candidate pairs a
merge touched; pass ``naive_costing=True`` to cost every candidate from
scratch (the cost-kernel microbenchmark uses this as the before/after
comparison).

The paper's headline finding (Lesson 3) is that HillClimb finds the same
layouts as brute force on TPC-H while spending four orders of magnitude less
optimisation time.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.algorithm import PartitioningAlgorithm, register_algorithm
from repro.core.partitioning import Partition, Partitioning, merge_group_pair
from repro.cost.base import CostModel
from repro.cost.evaluator import CostEvaluator
from repro.workload.workload import Workload


@register_algorithm("hillclimb")
class HillClimbAlgorithm(PartitioningAlgorithm):
    """Bottom-up pairwise merging from a column layout."""

    name = "hillclimb"
    search_strategy = "bottom-up"
    starting_point = "whole-workload"
    candidate_pruning = "none"

    def __init__(
        self, use_cost_dictionary: bool = False, naive_costing: bool = False
    ) -> None:
        self.use_cost_dictionary = use_cost_dictionary
        self.naive_costing = naive_costing
        self._metadata: Dict[str, object] = {}

    def compute(self, workload: Workload, cost_model: CostModel) -> Partitioning:
        """Greedily merge partition pairs while the workload cost improves."""
        schema = workload.schema
        groups: List[FrozenSet[int]] = [
            frozenset([index]) for index in range(schema.attribute_count)
        ]
        evaluator = CostEvaluator(workload, cost_model, naive=self.naive_costing)
        dictionary: Dict[FrozenSet[FrozenSet[int]], float] = {}
        if self.use_cost_dictionary:
            search = self._merge_with_dictionary(groups, evaluator, dictionary)
        else:
            search = evaluator.greedy_merge(groups)
        groups, cost, iterations, merges = search
        self._metadata = {
            "iterations": iterations,
            "merges": merges,
            "final_cost": cost,
            "used_cost_dictionary": self.use_cost_dictionary,
            "dictionary_entries": len(dictionary),
            "candidate_evaluations": evaluator.evaluations,
        }
        return Partitioning(schema, [Partition(group) for group in groups])

    def _merge_with_dictionary(
        self,
        groups: List[FrozenSet[int]],
        evaluator: CostEvaluator,
        dictionary: Dict[FrozenSet[FrozenSet[int]], float],
    ) -> Tuple[List[FrozenSet[int]], float, int, int]:
        """The original variant: the same greedy merge, remembering every candidate.

        ``dictionary`` maps each candidate layout to its workload cost: the
        memory the paper criticises.  It never changes the chosen layout.
        """
        current_cost = evaluator.evaluate(groups)
        iterations = merges = 0
        while len(groups) > 1:
            iterations += 1
            best_pair: Optional[Tuple[int, int]] = None
            best_cost = current_cost
            for a, b in combinations(range(len(groups)), 2):
                key = frozenset(self._merge(groups, a, b))
                if key not in dictionary:
                    dictionary[key] = evaluator.evaluate_merge(groups, a, b)
                if dictionary[key] < best_cost:
                    best_cost = dictionary[key]
                    best_pair = (a, b)
            if best_pair is None:
                break
            groups = self._merge(groups, best_pair[0], best_pair[1])
            current_cost = best_cost
            merges += 1
        return groups, current_cost, iterations, merges

    #: Merges by index, never by identity or equality (see merge_group_pair).
    _merge = staticmethod(merge_group_pair)

    def last_run_metadata(self) -> Dict[str, object]:
        return dict(self._metadata)
