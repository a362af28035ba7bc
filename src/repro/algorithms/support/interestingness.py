"""Column-group interestingness for the Trojan layouts algorithm.

Trojan prunes the exponential set of column groups with an *interestingness*
measure based on the mutual information between the attributes of a group over
the query-access distribution: a group is interesting if knowing that a query
accesses one of its attributes tells you a lot about whether it accesses the
others, i.e. the attributes tend to be co-accessed.

We treat each attribute ``a`` as a binary random variable ``X_a`` over the
(weighted) queries — ``X_a = 1`` iff the query references ``a`` — and define
the interestingness of a column group ``G`` as the average normalised mutual
information over its attribute pairs:

``I(G) = mean_{a != b in G}  NMI(X_a, X_b)``,   ``I({a}) = 1``

where ``NMI(X, Y) = MI(X, Y) / max(H(X), H(Y))`` (0 when either entropy is 0,
but 1 when the two attributes have identical access patterns).  Groups whose
interestingness falls below the threshold are pruned.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Iterable, Sequence

import numpy as np

from repro.workload.workload import Workload


def _entropy(probability: float) -> float:
    """Binary entropy in nats; 0 for degenerate probabilities."""
    if probability <= 0.0 or probability >= 1.0:
        return 0.0
    return -(
        probability * math.log(probability)
        + (1.0 - probability) * math.log(1.0 - probability)
    )


def mutual_information(workload: Workload, attr_a: int, attr_b: int) -> float:
    """Mutual information (nats) between two attributes' access indicators."""
    weights = workload.weights()
    total = float(weights.sum())
    if total <= 0.0:
        return 0.0
    usage = workload.usage_matrix()
    a = usage[:, attr_a].astype(bool)
    b = usage[:, attr_b].astype(bool)
    return _mutual_information(
        a, b, weights, total,
        _probability(weights, total, a),
        _probability(weights, total, b),
        _probability(weights, total, a & b),
    )


def normalized_mutual_information(workload: Workload, attr_a: int, attr_b: int) -> float:
    """MI normalised to [0, 1] by the larger marginal entropy.

    Two refinements make the raw information measure suitable for *column
    grouping*:

    * attributes with identical access patterns score 1 even when their
      entropy is zero (always co-accessed is maximally interesting), and
    * negatively associated attributes (accessed *instead of* each other more
      often than chance) score 0 — information about mutual exclusion is high
      MI but a terrible reason to co-locate two columns.
    """
    weights = workload.weights()
    total = float(weights.sum())
    usage = workload.usage_matrix()
    a = usage[:, attr_a].astype(bool)
    b = usage[:, attr_b].astype(bool)
    return _normalized_mutual_information(
        a, b, weights, total,
        _probability(weights, total, a),
        _probability(weights, total, b),
    )


def pairwise_normalized_mutual_information(workload: Workload) -> np.ndarray:
    """Symmetric matrix of :func:`normalized_mutual_information` (diagonal 1).

    Builds the usage matrix, the weights and each attribute's access
    probability once instead of once per pair.  Entry ``[a, b]`` (and its
    mirror ``[b, a]``) is evaluated with the same expressions as
    ``normalized_mutual_information(workload, a, b)`` for ``a < b``, so it
    equals that call bit for bit.
    """
    n = workload.attribute_count
    columns = np.ascontiguousarray(workload.usage_matrix().astype(bool).T)
    weights = workload.weights()
    total = float(weights.sum())
    marginals = [_probability(weights, total, column) for column in columns]
    matrix = np.ones((n, n), dtype=float)
    for attr_a in range(n):
        for attr_b in range(attr_a + 1, n):
            value = _normalized_mutual_information(
                columns[attr_a], columns[attr_b], weights, total,
                marginals[attr_a], marginals[attr_b],
            )
            matrix[attr_a, attr_b] = value
            matrix[attr_b, attr_a] = value
    return matrix


def _probability(weights: np.ndarray, total: float, mask: np.ndarray) -> float:
    """Weighted share of the queries selected by ``mask`` (0 without weight)."""
    if total <= 0.0:
        return 0.0
    return float(weights[mask].sum()) / total


def _mutual_information(
    a: np.ndarray,
    b: np.ndarray,
    weights: np.ndarray,
    total: float,
    p_a: float,
    p_b: float,
    p_both: float,
) -> float:
    """MI of two boolean access columns given their marginals and joint."""
    not_a = ~a
    not_b = ~b
    # (joint, product of marginals) per cell, in (a, b) order FF, FT, TF, TT.
    cells = (
        (_probability(weights, total, not_a & not_b), (1.0 - p_a) * (1.0 - p_b)),
        (_probability(weights, total, not_a & b), (1.0 - p_a) * p_b),
        (_probability(weights, total, a & not_b), p_a * (1.0 - p_b)),
        (p_both, p_a * p_b),
    )
    mi = 0.0
    for joint, denominator in cells:
        if joint > 0.0 and denominator > 0.0:
            mi += joint * math.log(joint / denominator)
    return max(0.0, mi)


def _normalized_mutual_information(
    a: np.ndarray,
    b: np.ndarray,
    weights: np.ndarray,
    total: float,
    p_a: float,
    p_b: float,
) -> float:
    """Normalised MI of two boolean access columns (see the public function)."""
    if np.array_equal(a, b):
        return 1.0
    if total <= 0.0:
        return 0.0
    p_both = _probability(weights, total, a & b)
    if p_both < p_a * p_b:
        return 0.0
    normaliser = max(_entropy(p_a), _entropy(p_b))
    if normaliser <= 0.0:
        return 0.0
    mi = _mutual_information(a, b, weights, total, p_a, p_b, p_both)
    return min(1.0, mi / normaliser)


def column_group_interestingness(
    workload: Workload, attributes: Iterable[int]
) -> float:
    """Interestingness of a column group: mean pairwise normalised MI."""
    group = sorted(set(attributes))
    if not group:
        raise ValueError("a column group must contain at least one attribute")
    if len(group) == 1:
        return 1.0
    scores = []
    for position, attr_a in enumerate(group):
        for attr_b in group[position + 1:]:
            scores.append(normalized_mutual_information(workload, attr_a, attr_b))
    return float(np.mean(scores))
