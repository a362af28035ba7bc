"""Bitmask cost-evaluation kernel: memoized, delta-aware workload costing.

The partitioning algorithms spend almost all of their time asking one
question — *what would the workload cost be under this candidate layout?* —
thousands of times per run.  Answered naively, every candidate allocates fresh
:class:`~repro.core.partitioning.Partition` / ``Partitioning`` objects,
re-sorts the groups, re-derives row sizes and block counts, and rescans all
partitions per query.  :class:`CostEvaluator` removes that overhead without
changing a single cost value:

* **Column groups are integer bitmasks** (bit ``i`` = attribute ``i``), so
  intersection tests, merges and layout signatures are single machine-word
  operations instead of frozenset algebra.
* **Everything layout-independent or group-local is memoized**: each query's
  attribute mask (precomputed on
  :class:`~repro.workload.query.ResolvedQuery`), each group's
  :meth:`~repro.cost.base.CostModel.group_read_profile` (row size, block
  count, cache misses — keyed by the group bitmask, valid across *all*
  layouts of a schema), and each *(co-read signature → query cost)* pair.
  A query's cost depends only on the ordered set of groups it must co-read,
  so layouts that differ in irrelevant groups share cache entries.
* **Merges are costed as deltas**: :meth:`greedy_merge`, the search of
  HillClimb, AutoPart and HYRISE, keeps each query's co-read signature and
  cost under the current layout and, per candidate pair, the merged costs of
  the queries the pair touches; after a merge it re-derives only the pairs
  whose queries overlap the merged pair's.  :meth:`evaluate_merge` is the
  one-pair form of the same signature merge.

Exactness invariants
--------------------

The evaluator is exact, not approximate — its results are bit-identical to
``cost_model.workload_cost`` on the equivalent ``Partitioning`` because:

1. groups are always iterated in the canonical ``Partitioning`` order
   (ascending tuple of attribute indices), and both paths add floats left to
   right with ``+=`` (never ``sum()``, which is compensated since Python
   3.12), so floating-point sums accumulate in the same order,
2. both paths run the *same* formulas: the models keep the per-group
   arithmetic in single private helpers that the naive ``query_cost`` path
   and the :meth:`~repro.cost.base.CostModel.co_read_set_cost` hook both
   call, so the models remain the single source of truth and the two paths
   cannot diverge in value — only in how much redundant orchestration they
   perform,
3. cached values are reused only where the naive path would recompute the
   same expression from the same inputs (schema and group widths are
   immutable for the evaluator's lifetime).

Models that do not implement the fast hooks (``supports_fast_costing`` is
False), and callers that pass ``naive=True`` (the benchmark's comparison
flag), fall back to building a throwaway ``Partitioning`` per candidate and
calling ``workload_cost`` — the pre-kernel behaviour.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.partitioning import (
    Partition,
    Partitioning,
    indices_of_mask,
    mask_of,
    merge_group_pair,
)
from repro.cost.base import CostModel
from repro.obs.metrics import counter as _obs_counter
from repro.workload.schema import TableSchema
from repro.workload.workload import Workload

# Memo-effectiveness counters (docs/OBSERVABILITY.md).  Module-level bound
# instruments incremented by bare attribute ops: `_signature_cost` sits on the
# hottest path in the repository and must not pay a registry lookup or method
# call per candidate layout.
_MEMO_HITS = _obs_counter("cost.evaluator.memo.hits")
_MEMO_MISSES = _obs_counter("cost.evaluator.memo.misses")
_PROFILE_HITS = _obs_counter("cost.evaluator.profile.hits")
_PROFILE_MISSES = _obs_counter("cost.evaluator.profile.misses")

#: Anything the algorithms use to describe one column group: a bitmask, a
#: ``Partition``, or an iterable of attribute indices (frozenset, list, ...).
GroupLike = Union[int, Partition, Iterable[int]]


# -- process-local cache sharing ------------------------------------------------
#
# The grid runner executes many cells (algorithm x cost model) on the *same*
# schema inside one worker process.  The evaluator's group-profile and
# co-read-cost caches depend only on the schema and the cost model — never on
# the workload or the algorithm — so cells can share them.  When sharing is
# enabled (the grid worker initializer turns it on), every evaluator
# constructed for the same ``(schema, cost-model description, naive)`` triple
# adopts one process-local set of cache dicts instead of private ones.
#
# The pool is keyed by the current PID: a forked or spawned worker never
# mutates cache dicts aliased by another process (after ``fork`` the memory is
# copy-on-write anyway, but discarding the inherited pool keeps the semantics
# identical under every start method), which is what makes the sharing
# process-safe.  Sharing never changes any cost value — the caches only ever
# hold values the exactness invariants above pin down uniquely.

_shared_pool: Dict[Tuple[TableSchema, str, str, bool], Tuple[dict, dict, dict]] = {}
_shared_pool_pid: Optional[int] = None
_sharing_enabled: bool = False


def enable_cache_sharing(enabled: bool = True) -> bool:
    """Turn process-local evaluator cache sharing on or off.

    Returns the previous setting so callers can restore it.  Intended for
    long-lived worker processes (see :mod:`repro.supervised`); the default is
    off, preserving the one-evaluator-per-run isolation of direct library use.
    """
    global _sharing_enabled
    previous = _sharing_enabled
    _sharing_enabled = bool(enabled)
    return previous


def cache_sharing_enabled() -> bool:
    """True if evaluators currently adopt the process-local shared caches."""
    return _sharing_enabled


def clear_shared_caches() -> None:
    """Drop every process-local shared cache (memory reclamation hook)."""
    _shared_pool.clear()


def _shared_caches(
    schema: TableSchema, cost_model: CostModel, naive: bool
) -> Tuple[dict, dict, dict]:
    """The process-local ``(group_keys, group_profiles, signature_costs)`` dicts.

    The pool key includes the model's *class* (unwrapping the algorithm
    framework's counting wrapper) on top of ``describe()``, so two custom
    model classes that both inherit the bare default ``describe()`` cannot
    share entries.  Two differently-parameterised instances of the *same*
    class remain indistinguishable unless ``describe()`` spells out every
    behavioural knob — which is the documented contract for fast-costing
    models (see :meth:`repro.cost.base.CostModel.describe`).
    """
    global _shared_pool, _shared_pool_pid
    pid = os.getpid()
    if _shared_pool_pid != pid:
        _shared_pool = {}
        _shared_pool_pid = pid
    inner = getattr(cost_model, "inner", cost_model)
    model_class = f"{type(inner).__module__}.{type(inner).__qualname__}"
    key = (schema, model_class, cost_model.describe(), naive)
    caches = _shared_pool.get(key)
    if caches is None:
        caches = ({}, {}, {(): 0.0})
        _shared_pool[key] = caches
    return caches


class CostEvaluator:
    """Memoized workload costing for candidate layouts of one workload.

    One evaluator is bound to a ``(workload, cost_model)`` pair; its caches
    are valid for the lifetime of that pair because both are immutable.

    Parameters
    ----------
    workload:
        The workload whose cost is evaluated.
    cost_model:
        Any :class:`~repro.cost.base.CostModel`.  Models advertising
        ``supports_fast_costing`` are accelerated through their
        ``group_read_profile`` / ``co_read_set_cost`` hooks; others are
        costed through the naive ``workload_cost`` path.
    naive:
        Force the naive path even for fast-capable models (used by the
        cost-kernel microbenchmark as the before/after comparison).
    """

    def __init__(
        self,
        workload: Workload,
        cost_model: CostModel,
        naive: bool = False,
    ) -> None:
        self.workload = workload
        self.cost_model = cost_model
        self.schema = workload.schema
        self.naive = naive or not getattr(cost_model, "supports_fast_costing", False)
        self._query_masks: Tuple[int, ...] = tuple(
            query.index_mask for query in workload
        )
        self._weights: Tuple[float, ...] = tuple(query.weight for query in workload)
        # Group-local caches, keyed by group bitmask; valid across all layouts.
        # With process-local sharing enabled they are adopted from the shared
        # pool so evaluators on the same (schema, model) reuse each other's
        # memoized profiles and co-read costs.
        if _sharing_enabled:
            caches = _shared_caches(self.schema, cost_model, self.naive)
            self._group_keys, self._group_profiles, self._signature_costs = caches
        else:
            self._group_keys = {}
            self._group_profiles = {}
            # Per-co-read-set cache: ordered tuple of group masks -> query cost.
            self._signature_costs = {(): 0.0}
        #: Number of candidate layouts costed through the memoized kernel (the
        #: algorithms' effort proxy).  The naive fallback path is excluded:
        #: those candidates already surface as one ``workload_cost`` call each
        #: on the model itself, so counting them here would double-count.
        self.evaluations = 0

    # -- group normalisation ---------------------------------------------------

    def masks_of(self, groups: Iterable[GroupLike]) -> List[int]:
        """Normalise a layout description to a list of group bitmasks."""
        masks: List[int] = []
        for group in groups:
            if isinstance(group, int):
                masks.append(group)
            elif isinstance(group, Partition):
                masks.append(group.mask)
            else:
                masks.append(mask_of(group))
        return masks

    def _key(self, mask: int) -> Tuple[int, ...]:
        """Canonical sort key of a group: its ascending attribute tuple."""
        key = self._group_keys.get(mask)
        if key is None:
            key = indices_of_mask(mask)
            self._group_keys[mask] = key
        return key

    def _ordered(self, masks: List[int]) -> List[int]:
        """Group masks in ``Partitioning``'s canonical order."""
        return sorted(masks, key=self._key)

    def _profile(self, mask: int) -> object:
        """The model's cached group-local read profile for one group."""
        profile = self._group_profiles.get(mask)
        if profile is None:
            _PROFILE_MISSES.value += 1
            row_size = self.schema.subset_row_size(self._key(mask))
            profile = self.cost_model.group_read_profile(self.schema, row_size)
            self._group_profiles[mask] = profile
        else:
            _PROFILE_HITS.value += 1
        return profile

    def _signature_cost(self, signature: Tuple[int, ...]) -> float:
        """Cost of one query whose co-read set is ``signature`` (cached)."""
        cost = self._signature_costs.get(signature)
        if cost is None:
            _MEMO_MISSES.value += 1
            profiles = [self._profile(mask) for mask in signature]
            cost = self.cost_model.co_read_set_cost(self.schema, profiles)
            self._signature_costs[signature] = cost
        else:
            _MEMO_HITS.value += 1
        return cost

    def _signatures(self, masks: List[int]) -> List[Tuple[int, ...]]:
        """Each query's co-read signature: the groups it reads, in canonical order."""
        ordered = self._ordered(masks)
        return [
            tuple(mask for mask in ordered if mask & query_mask)
            for query_mask in self._query_masks
        ]

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, groups: Iterable[GroupLike]) -> float:
        """Workload cost of the layout described by ``groups``.

        Bit-identical to ``cost_model.workload_cost(workload, Partitioning(
        schema, groups))``, without constructing the partitioning.
        """
        masks = self.masks_of(groups)
        if self.naive:
            return self._naive_cost(masks)
        self.evaluations += 1
        total = 0.0
        for weight, signature in zip(self._weights, self._signatures(masks)):
            total += weight * self._signature_cost(signature)
        return total

    def query_cost(self, query_mask: int, groups: Iterable[GroupLike]) -> float:
        """Cost of a single query (given by attribute bitmask) under a layout.

        The online subsystem charges every arriving query its scan cost under
        the currently deployed layout; going through the evaluator makes that
        a cache hit on the *(co-read signature → cost)* table for every
        repeated footprint.  Bit-identical to
        ``cost_model.query_cost(query, Partitioning(schema, groups))``.
        """
        masks = self.masks_of(groups)
        if self.naive:
            from repro.workload.query import ResolvedQuery

            query = ResolvedQuery(
                name="q", attribute_indices=indices_of_mask(query_mask)
            )
            return self.cost_model.query_cost(
                query, Partitioning.from_masks(self.schema, masks, validate=False)
            )
        ordered = self._ordered(masks)
        signature = tuple(mask for mask in ordered if mask & query_mask)
        return self._signature_cost(signature)

    def rebind(self, workload: Workload) -> "CostEvaluator":
        """A fresh evaluator for another workload over the same schema, sharing caches.

        The group-profile and co-read-cost caches are keyed by group bitmask
        and co-read signature only — they depend on the *schema* and the cost
        model, never on which queries are in the workload — so windowed/online
        callers can re-bind a sliding-window snapshot every few arrivals
        without losing anything already memoized.  The schemas must be equal
        (same attribute widths and row count); rebinding to a different table
        would poison the shared caches.
        """
        if workload.schema != self.schema:
            raise ValueError(
                "rebind requires an identical schema; got "
                f"{workload.schema.name!r} for evaluator bound to {self.schema.name!r}"
            )
        clone = CostEvaluator(workload, self.cost_model, naive=self.naive)
        clone._group_keys = self._group_keys
        clone._group_profiles = self._group_profiles
        clone._signature_costs = self._signature_costs
        return clone

    def evaluate_merge(self, groups: Iterable[GroupLike], a: int, b: int) -> float:
        """Workload cost of ``groups`` with groups at indices ``a``/``b`` merged.

        The one-pair form of :meth:`greedy_merge`'s signature merge; exact for
        duplicate groups too.
        """
        masks = self.masks_of(groups)
        if self.naive:
            return self._naive_cost(merge_group_pair(masks, a, b))
        self.evaluations += 1
        x, y = masks[a], masks[b]
        total = 0.0
        for query_mask, weight, signature in zip(
            self._query_masks, self._weights, self._signatures(masks)
        ):
            if query_mask & (x | y):
                signature = self._merged_signature(signature, x, y)
            total += weight * self._signature_cost(signature)
        return total

    def _merged_signature(
        self, signature: Tuple[int, ...], x: int, y: int
    ) -> Tuple[int, ...]:
        """A touching query's co-read ``signature`` once groups ``x`` and ``y`` merge.

        Drops one occurrence each of ``x`` and ``y`` (a layout may hold
        duplicates) and inserts ``x | y`` at its canonical position.
        """
        merged = list(signature)
        for mask in (x, y):
            if mask in merged:
                merged.remove(mask)
        union = x | y
        merged.insert(bisect_right(merged, self._key(union), key=self._key), union)
        return tuple(merged)

    def greedy_merge(
        self, groups: Sequence[GroupLike], fixed: Sequence[GroupLike] = ()
    ) -> Tuple[list, float, int, int]:
        """Merge the best pair of ``groups`` while the workload cost strictly improves.

        The search of HillClimb, AutoPart and HYRISE.  Each iteration costs the
        pairs ``combinations(range(k), 2)``; the first strictly cheapest is
        replaced by its union, appended as :func:`merge_group_pair` does.
        ``fixed`` is a tail costed with every candidate, never merged.
        :attr:`evaluations` counts the start and every candidate.  Returns
        ``(groups, cost, iterations, merges)``, the last scan included in
        ``iterations``.  Precondition: all groups, ``fixed`` included, are
        pairwise disjoint (pair costs are cached by the two group masks).
        """
        groups = list(groups)
        search = _MergeSearch(self, self.masks_of(groups), self.masks_of(fixed))
        cost = search.total
        iterations = merges = 0
        while len(groups) > 1:
            iterations += 1
            best_pair: Optional[Tuple[int, int]] = None
            best_cost = cost
            for a, b in combinations(range(len(groups)), 2):
                candidate_cost = search.pair_cost(a, b)
                if candidate_cost < best_cost:
                    best_cost = candidate_cost
                    best_pair = (a, b)
            if best_pair is None:
                break
            search.merge(*best_pair)
            groups = merge_group_pair(groups, *best_pair)
            cost = best_cost
            merges += 1
        return groups, cost, iterations, merges

    def _naive_cost(self, masks: List[int]) -> float:
        """Pre-kernel behaviour: build a real ``Partitioning`` and cost it."""
        partitioning = Partitioning.from_masks(self.schema, masks, validate=False)
        return self.cost_model.workload_cost(self.workload, partitioning)


class _MergeSearch:
    """The state one :meth:`CostEvaluator.greedy_merge` run keeps between candidates.

    Under the current layout: each query's co-read signature and weighted
    cost, and per group mask the queries reading it (bit ``q`` = query ``q``).
    Per candidate pair, keyed by its two masks: the queries it affects, with
    their merged signatures and weighted costs.  Merging ``x`` and ``y``
    changes only the queries reading either, so a cached pair whose affected
    queries avoid those stays exact; the rest are re-derived on their next
    lookup.  A candidate still adds every query's weighted cost in workload
    order with ``+=``, as :meth:`CostEvaluator.evaluate` does.
    """

    def __init__(
        self, evaluator: CostEvaluator, masks: List[int], fixed: List[int]
    ) -> None:
        self.evaluator = evaluator
        self.masks = masks
        self.fixed = fixed
        self.total = evaluator.evaluate(masks + fixed)
        if evaluator.naive:
            return
        self.signatures = evaluator._signatures(masks + fixed)
        self.weighted = [
            weight * evaluator._signature_cost(signature)
            for weight, signature in zip(evaluator._weights, self.signatures)
        ]
        queries = list(enumerate(evaluator._query_masks))
        self.touched = {
            mask: mask_of(q for q, query_mask in queries if query_mask & mask)
            for mask in masks
        }
        #: (x, y) -> (affected query bits, [(query index, signature, weighted cost)]).
        self.pairs: Dict[Tuple[int, int], tuple] = {}

    def pair_cost(self, a: int, b: int) -> float:
        """Workload cost of the current layout with groups ``a`` and ``b`` merged."""
        evaluator = self.evaluator
        if evaluator.naive:
            return evaluator._naive_cost(merge_group_pair(self.masks, a, b) + self.fixed)
        evaluator.evaluations += 1
        x, y = self.masks[a], self.masks[b]
        pair = self.pairs.get((x, y))
        if pair is None:
            affected = self.touched[x] | self.touched[y]
            changes = []
            for index in indices_of_mask(affected):
                signature = evaluator._merged_signature(self.signatures[index], x, y)
                cost = evaluator._signature_cost(signature)
                changes.append((index, signature, evaluator._weights[index] * cost))
            pair = self.pairs[(x, y)] = (affected, changes)
        values = self.weighted[:]
        for index, _, value in pair[1]:
            values[index] = value
        total = 0.0
        for value in values:
            total += value
        return total

    def merge(self, a: int, b: int) -> None:
        """Make the merge of groups ``a`` and ``b`` the current layout."""
        x, y = self.masks[a], self.masks[b]
        self.masks = merge_group_pair(self.masks, a, b)
        if self.evaluator.naive:
            return
        affected, changes = self.pairs[(x, y)]
        for index, signature, value in changes:
            self.signatures[index] = signature
            self.weighted[index] = value
        self.touched[x | y] = self.touched.pop(x) | self.touched.pop(y)
        self.pairs = {
            key: pair for key, pair in self.pairs.items()
            if not pair[0] & affected and x not in key and y not in key
        }
