"""Outcome distribution over a model family: combos, entropy, categories.

A family of models simulated over one case population yields one KPI vector
per model, rounded (half to even) once, when its KPI file or CSV row is read.
Equal vectors group into combos; normalized Shannon entropy over the combo
frequencies measures how consistently the family behaves, and maps onto four
consistency categories.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .simulation import KpiVector


class SingleClassError(Exception):
    """Representative selection needs at least two distinct outcome classes."""


class ConsistencyCategory(str, Enum):
    VERY_HIGH = "very_high"
    HIGH = "high"
    MODERATE = "moderate"
    LOW = "low"


class DistributionCombo(NamedTuple):
    vector: KpiVector
    count: int
    models: tuple[str, ...]  # sorted


def build_distribution(entries: Iterable[tuple[str, KpiVector]]) -> list[DistributionCombo]:
    """Group (model id, vector) pairs into combos of equal vectors, sorted by
    descending count, ties broken by the vector label."""
    members: dict[KpiVector, list[str]] = {}
    for model_id, vector in entries:
        members.setdefault(vector, []).append(model_id)
    combos = [DistributionCombo(v, len(ids), tuple(sorted(ids))) for v, ids in members.items()]
    return sorted(combos, key=lambda combo: (-combo.count, combo.vector.label()))


def normalized_entropy(counts: Sequence[int]) -> float:
    """Shannon entropy of the class frequencies ``counts``, normalized by
    log2 of the class count.

    One class means zero entropy by convention.  The result is clamped to
    [0, 1] to absorb float rounding at the top end.
    """
    if len(counts) < 2:
        return 0.0
    total = sum(counts)
    h = -sum(count / total * math.log2(count / total) for count in counts)
    return max(0.0, min(1.0, h / math.log2(len(counts))))


def consistency_category(h_norm: float) -> ConsistencyCategory:
    """Category boundaries: very_high <= 0.30 < high <= 0.50 < moderate
    <= 0.70 < low."""
    if h_norm <= 0.30:
        return ConsistencyCategory.VERY_HIGH
    if h_norm <= 0.50:
        return ConsistencyCategory.HIGH
    if h_norm <= 0.70:
        return ConsistencyCategory.MODERATE
    return ConsistencyCategory.LOW


def select_representatives(members: Sequence[Sequence[str]]) -> tuple[str, str]:
    """Pick one model from each of the two most frequent combos.

    ``members`` lists the model ids of each combo, at least one each, in
    combo order (most frequent first).  Within a combo the lexicographically smallest model id
    wins, making the choice deterministic.
    """
    if len(members) < 2:
        raise SingleClassError("all models fall into a single outcome class")
    return min(members[0]), min(members[1])
