"""Outcome distribution over a model family: quantization, entropy, categories.

A family of models simulated over one case population yields one KPI vector
per model.  Vectors are quantized (round half to even) and grouped into
combos; normalized Shannon entropy over the combo frequencies measures how
consistently the family behaves, and maps onto four consistency categories.
"""

from __future__ import annotations

import math
from decimal import InvalidOperation
from enum import Enum
from typing import NamedTuple, Sequence

from .simulation import KpiVector

DEFAULT_ROUND_DECIMALS = 6


class EmptyInputError(Exception):
    pass


class OutOfRangeError(Exception):
    pass


class SingleClassError(Exception):
    """Representative selection needs at least two distinct outcome classes."""


class ConsistencyCategory(str, Enum):
    VERY_HIGH = "very_high"
    HIGH = "high"
    MODERATE = "moderate"
    LOW = "low"


class DistributionCombo(NamedTuple):
    vector: KpiVector  # quantized
    count: int
    probability: float


class EmpiricalDistribution(NamedTuple):
    combos: tuple[DistributionCombo, ...]
    total: int
    round_decimals: int
    combo_of: tuple[int, ...]  # the combo index of each input vector, in input order


def build_distribution(
    vectors: Sequence[KpiVector], round_decimals: int = DEFAULT_ROUND_DECIMALS
) -> EmpiricalDistribution:
    """Group quantized vectors into combos sorted by descending count, ties
    broken by the canonical vector label."""
    if not vectors:
        raise EmptyInputError("no KPI vectors to analyze")
    if not 0 <= round_decimals <= 12:
        raise OutOfRangeError(f"round_decimals {round_decimals} outside [0, 12]")
    counts: dict[str, tuple[KpiVector, int]] = {}
    keys = []
    for vector in vectors:
        try:
            quantized = vector.quantized(round_decimals)
        except InvalidOperation:
            # As written: label() would expand 1e999999999 to a billion digits.
            written = ";".join(f"{k}={v}" for k, v in vector.values)
            raise OutOfRangeError(
                f"KPI vector {written} has too many digits to round to {round_decimals} decimals"
            )
        key = quantized.label()
        keys.append(key)
        if key in counts:
            counts[key] = (counts[key][0], counts[key][1] + 1)
        else:
            counts[key] = (quantized, 1)
    total = len(vectors)
    ordered = sorted(counts, key=lambda key: (-counts[key][1], key))
    combos = tuple(
        DistributionCombo(vector, count, count / total)
        for vector, count in (counts[key] for key in ordered)
    )
    index = {key: position for position, key in enumerate(ordered)}
    return EmpiricalDistribution(combos, total, round_decimals, tuple(index[key] for key in keys))


def normalized_entropy(distribution: EmpiricalDistribution) -> float:
    """Shannon entropy normalized by log2 of the class count.

    One class means zero entropy by convention.  The result is clamped to
    [0, 1] to absorb float rounding at the top end.
    """
    k = len(distribution.combos)
    if k == 1:
        return 0.0
    h = -sum(c.probability * math.log2(c.probability) for c in distribution.combos)
    return max(0.0, min(1.0, h / math.log2(k)))


def consistency_category(h_norm: float) -> ConsistencyCategory:
    """Category boundaries: very_high <= 0.30 < high <= 0.50 < moderate
    <= 0.70 < low."""
    if not 0.0 <= h_norm <= 1.0:
        raise OutOfRangeError(f"normalized entropy {h_norm} outside [0, 1]")
    if h_norm <= 0.30:
        return ConsistencyCategory.VERY_HIGH
    if h_norm <= 0.50:
        return ConsistencyCategory.HIGH
    if h_norm <= 0.70:
        return ConsistencyCategory.MODERATE
    return ConsistencyCategory.LOW


def select_representatives(members: Sequence[Sequence[str]]) -> tuple[str, str]:
    """Pick one model from each of the two most frequent combos.

    ``members`` lists the model ids of each combo, in combo order (most
    frequent first).  Within a combo the lexicographically smallest model id
    wins, making the choice deterministic.
    """
    if len(members) < 2:
        raise SingleClassError("all models fall into a single outcome class")
    picks = []
    for index in (0, 1):
        if not members[index]:
            raise ValueError(f"no member model ids for combo {index}")
        picks.append(min(members[index]))
    return picks[0], picks[1]
