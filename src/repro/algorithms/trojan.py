"""Trojan layouts (Jindal, Quiané-Ruiz & Dittrich, SOCC 2011).

Trojan layouts target big-data blocks (HDFS) and are the only
threshold-pruning algorithm in the study:

1. **Column group enumeration** — enumerate candidate column groups of the
   table's attributes.
2. **Interestingness pruning** — compute each group's interestingness (a
   normalised mutual-information measure over the query-access distribution,
   see :mod:`repro.algorithms.support.interestingness`) and prune groups below
   a threshold.
3. **Knapsack merge** — pick a disjoint subset of the surviving groups that
   maximises total benefit (interestingness weighted by group size), then
   cover any remaining attributes with the primary partitions they belong to,
   producing a complete and disjoint layout.

The original algorithm additionally groups queries and produces one layout per
HDFS replica; the paper's unified setting has no replication, so — like the
paper's adaptation — a single layout is produced for the whole workload.

Trojan is by far the slowest heuristic in the study (the candidate enumeration
dominates), yet its layouts are within 0.01% of brute force on TPC-H.  Both
properties emerge naturally here: the search space is exponential in the
attribute count (bounded by ``max_group_size``), and the interesting groups on
TPC-H are exactly the co-accessed groups brute force picks.  The reproduction
scores that search space with a vectorised bitmask pre-filter (see
:meth:`TrojanAlgorithm._exhaustive_candidates`), so the exponential work is a
few numpy passes rather than one Python object per group; the reported
``candidates_enumerated`` still counts every group.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.algorithms.support.interestingness import (
    pairwise_normalized_mutual_information,
)
from repro.algorithms.support.knapsack import KnapsackItem, solve_knapsack
from repro.core.algorithm import PartitioningAlgorithm, register_algorithm
from repro.core.partitioning import Partition, Partitioning
from repro.cost.base import CostModel
from repro.workload.workload import Workload


#: Slack of the bitmask pre-filter: far above the rounding error of a mean of
#: at most a few hundred terms in [0, 1], far below any meaningful threshold.
_PREFILTER_SLACK = 1e-9


@register_algorithm("trojan")
class TrojanAlgorithm(PartitioningAlgorithm):
    """Interestingness-pruned column grouping with a knapsack merge."""

    name = "trojan"
    search_strategy = "bottom-up"
    starting_point = "query-subset"
    candidate_pruning = "threshold"

    def __init__(
        self,
        interestingness_threshold: float = 0.4,
        max_group_size: int = 16,
        max_candidates: int = 64,
        exhaustive_enumeration_limit: int = 16,
    ) -> None:
        if not 0.0 <= interestingness_threshold <= 1.0:
            raise ValueError("interestingness_threshold must be in [0, 1]")
        if max_group_size < 1:
            raise ValueError("max_group_size must be >= 1")
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if exhaustive_enumeration_limit < 1:
            raise ValueError("exhaustive_enumeration_limit must be >= 1")
        self.interestingness_threshold = interestingness_threshold
        self.max_group_size = max_group_size
        self.max_candidates = max_candidates
        self.exhaustive_enumeration_limit = exhaustive_enumeration_limit
        self._metadata: Dict[str, object] = {}

    def compute(self, workload: Workload, cost_model: CostModel) -> Partitioning:
        """Enumerate, prune, and knapsack-merge column groups."""
        schema = workload.schema
        n = schema.attribute_count

        # Pairwise normalised mutual information, computed once; the
        # interestingness of a group is the mean over its pairs.
        nmi = pairwise_normalized_mutual_information(workload)

        if n <= self.exhaustive_enumeration_limit:
            enumerated, candidates = self._exhaustive_candidates(nmi)
        else:
            candidates = self._seeded_candidates(workload)
            enumerated = len(candidates)

        # Interestingness pruning.  The sort key is a total order (no two
        # groups share their sorted members), so candidate order is irrelevant.
        scored: List[Tuple[FrozenSet[int], float]] = []
        for group in candidates:
            interestingness = self._group_interestingness(group, nmi)
            if interestingness >= self.interestingness_threshold:
                scored.append((group, interestingness))
        scored.sort(key=lambda item: (-item[1], -len(item[0]), sorted(item[0])))
        scored = scored[: self.max_candidates]

        # Knapsack merge: benefit favours larger, more interesting groups so
        # the cover prefers wide cohesive groups over singletons.
        items = [
            KnapsackItem(attributes=group, benefit=interestingness * (len(group) - 1) + 1e-9)
            for group, interestingness in scored
        ]
        chosen = solve_knapsack(items)

        groups: List[FrozenSet[int]] = [item.attributes for item in chosen]
        covered = set().union(*groups) if groups else set()
        # Cover leftovers with their primary partitions (split to exclude
        # already-covered attributes) so the layout is complete and disjoint.
        for fragment in workload.primary_partitions():
            remainder = fragment - covered
            if remainder:
                groups.append(frozenset(remainder))
                covered.update(remainder)

        self._metadata = {
            "candidates_enumerated": enumerated,
            "candidates_after_pruning": len(scored),
            "groups_selected_by_knapsack": len(chosen),
            "interestingness_threshold": self.interestingness_threshold,
        }
        return Partitioning(schema, [Partition(group) for group in groups])

    # -- helpers ---------------------------------------------------------------

    def _exhaustive_candidates(self, nmi: np.ndarray) -> Tuple[int, List[FrozenSet[int]]]:
        """Every column group that may reach the threshold, and the group count.

        Trojan enumerates *all* groups of 2..``max_group_size`` attributes
        before pruning them — the reason it is by far the slowest heuristic
        in the paper (Figure 1).  Instead of scoring each group as a Python
        object, the mean pairwise NMI of every group is first approximated
        for all ``2**n`` attribute bitmasks at once (:func:`_subset_pair_sums`).
        Only groups whose approximate mean reaches ``threshold - 1e-9`` are
        returned, for exact rescoring by the caller.  The approximation sums
        at most ``n * (n - 1) / 2`` terms in ``[0, 1]``, so its rounding
        error is below ``1e-12``: the slack never drops a group whose exact
        score passes.  Memory is ``O(2**n)`` (``n`` is bounded by
        ``exhaustive_enumeration_limit``).
        """
        n = len(nmi)
        pair_sum, size = _subset_pair_sums(nmi)
        pair_count = np.array([k * (k - 1) // 2 for k in range(n + 1)])[size]
        in_range = (size >= 2) & (size <= self.max_group_size)
        mean = pair_sum / np.maximum(pair_count, 1)
        passing = in_range & (mean >= self.interestingness_threshold - _PREFILTER_SLACK)
        groups = [
            frozenset(index for index in range(n) if mask >> index & 1)
            for mask in np.flatnonzero(passing).tolist()
        ]
        return int(np.count_nonzero(in_range)), groups

    def _seeded_candidates(self, workload: Workload) -> Set[FrozenSet[int]]:
        """Candidate groups of tables wider than ``exhaustive_enumeration_limit``.

        The enumeration is seeded with the structures the queries themselves
        induce (query footprints, their pairwise intersections/unions and the
        primary partitions), which keeps the algorithm usable on very wide
        tables.
        """
        candidates = set()
        footprints = [frozenset(query.attribute_indices) for query in workload]
        for footprint in footprints:
            if 2 <= len(footprint) <= self.max_group_size:
                candidates.add(footprint)
        for a, b in combinations(footprints, 2):
            for derived in (a & b, a | b):
                if 2 <= len(derived) <= self.max_group_size:
                    candidates.add(derived)
        for fragment in workload.primary_partitions():
            if 2 <= len(fragment) <= self.max_group_size:
                candidates.add(fragment)
        return candidates

    @staticmethod
    def _group_interestingness(group: FrozenSet[int], nmi: np.ndarray) -> float:
        """Mean pairwise normalised mutual information of a group."""
        members = sorted(group)
        if len(members) == 1:
            return 1.0
        scores = [
            nmi[a, b] for position, a in enumerate(members) for b in members[position + 1:]
        ]
        return float(np.mean(scores))

    def last_run_metadata(self) -> Dict[str, object]:
        return dict(self._metadata)


def _subset_pair_sums(nmi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Summed pairwise NMI and member count of every attribute bitmask.

    Subset-sum doubling: the masks whose highest attribute is ``a`` are the
    masks below ``2**a`` plus ``a``, so their pair sum is the smaller mask's
    plus ``a``'s NMI with each of its members (itself a doubling over the
    attributes below ``a``).  ``O(n**2)`` vectorised slice-adds, ``O(2**n)``
    memory, no per-mask Python.
    """
    n = len(nmi)
    pair_sum = np.zeros(1 << n)
    size = np.zeros(1 << n, dtype=np.int64)
    for a in range(n):
        low = 1 << a
        partner = np.zeros(low)
        for b in range(a):
            partner[1 << b: 2 << b] = partner[: 1 << b] + nmi[a, b]
        pair_sum[low: 2 * low] = pair_sum[:low] + partner
        size[low: 2 * low] = size[:low] + 1
    return pair_sum, size
