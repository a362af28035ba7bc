"""HYRISE layout algorithm (Grund et al., PVLDB 2010).

HYRISE computes hybrid row/column layouts for main-memory engines.  It is a
multi-level, bottom-up algorithm:

1. **Primary partitions** — maximal attribute groups always accessed together
   (identical to AutoPart's atomic fragments).
2. **Affinity graph & k-way partitioning** — primary partitions become graph
   nodes; the edge weight between two nodes is the summed weight of queries
   accessing both.  The graph is split into subgraphs of at most ``K`` nodes
   with a k-way partitioner so that the following merge step stays tractable
   even for very wide tables.
3. **Candidate merging per subgraph** — within each subgraph, repeatedly merge
   the pair of partitions with the best improvement in estimated workload
   cost (same greedy merge as HillClimb, restricted to the subgraph).
4. **Cross-subgraph combination** — finally, try merging the resulting groups
   across subgraphs while the cost keeps improving.

With ``K`` large enough to hold all primary partitions in one subgraph, HYRISE
degenerates to AutoPart; the k-way split is what makes it scale to the
150-attribute tables the HYRISE paper targets, at a small quality loss (the
paper measures 2.21% worse than brute force on TPC-H).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.algorithms.support.graph_partition import kway_partition
from repro.core.algorithm import PartitioningAlgorithm, register_algorithm
from repro.core.partitioning import Partition, Partitioning
from repro.cost.base import CostModel
from repro.cost.evaluator import CostEvaluator
from repro.workload.workload import Workload


@register_algorithm("hyrise")
class HyriseAlgorithm(PartitioningAlgorithm):
    """Primary partitions + k-way graph partitioning + candidate merging."""

    name = "hyrise"
    search_strategy = "bottom-up"
    starting_point = "attribute-subset"
    candidate_pruning = "none"

    def __init__(self, max_primary_partitions_per_subgraph: int = 4) -> None:
        if max_primary_partitions_per_subgraph < 1:
            raise ValueError("max_primary_partitions_per_subgraph must be >= 1")
        self.max_primary_partitions_per_subgraph = max_primary_partitions_per_subgraph
        self._metadata: Dict[str, object] = {}

    def compute(self, workload: Workload, cost_model: CostModel) -> Partitioning:
        """Run the four HYRISE phases and return the combined layout."""
        schema = workload.schema
        primary = workload.primary_partitions()
        evaluator = CostEvaluator(workload, cost_model)

        # Phase 2: affinity graph over primary partitions, split into subgraphs.
        edge_weights = self._affinity_edges(workload, primary)
        subgraphs = kway_partition(
            nodes=list(range(len(primary))),
            edge_weights=edge_weights,
            max_nodes_per_part=self.max_primary_partitions_per_subgraph,
        )

        # Phase 3: candidate merging inside each subgraph.
        groups: List[FrozenSet[int]] = []
        for subgraph in subgraphs:
            subgraph_groups = [primary[node] for node in sorted(subgraph)]
            groups.extend(self._greedy_merge(subgraph_groups, workload, evaluator))

        # Re-run the merge restricted to each subgraph but costed against the
        # full layout: collect all groups first, then phase 4 merges across
        # subgraphs.
        merged_across = self._greedy_merge(groups, workload, evaluator)

        self._metadata = {
            "primary_partitions": [sorted(p) for p in primary],
            "subgraphs": [sorted(s) for s in subgraphs],
            "groups_after_subgraph_merge": [sorted(g) for g in groups],
            "final_groups": [sorted(g) for g in merged_across],
            "candidate_evaluations": evaluator.evaluations,
        }
        return Partitioning(schema, [Partition(group) for group in merged_across])

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _affinity_edges(
        workload: Workload, primary: List[FrozenSet[int]]
    ) -> Dict[Tuple[int, int], float]:
        """Edge weights between primary partitions: summed co-access weight."""
        edges: Dict[Tuple[int, int], float] = {}
        for a, b in combinations(range(len(primary)), 2):
            weight = 0.0
            for query in workload:
                if query.references_any(primary[a]) and query.references_any(primary[b]):
                    weight += query.weight
            if weight > 0.0:
                edges[(a, b)] = weight
        return edges

    @staticmethod
    def _greedy_merge(
        groups: List[FrozenSet[int]], workload: Workload, evaluator: CostEvaluator
    ) -> List[FrozenSet[int]]:
        """HillClimb-style pairwise merging of ``groups``, costed on complete layouts.

        Attributes outside ``groups`` (those of other subgraphs during phase 3)
        are padded in as singletons: the search's fixed tail, costed with every
        candidate but never merged, so comparisons stay consistent.
        """
        covered: Set[int] = set().union(*groups)
        attributes = range(workload.schema.attribute_count)
        padding = [frozenset([index]) for index in attributes if index not in covered]
        merged, _, _, _ = evaluator.greedy_merge(groups, fixed=padding)
        return merged

    def last_run_metadata(self) -> Dict[str, object]:
        return dict(self._metadata)
