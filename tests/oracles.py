"""Independent oracles the tests compare the package against.

Everything here is written straight from the defining formulas with plain
floats and brute-force enumeration, on purpose not reusing any package
internals.  The KPI recount oracle is ``scripts/recount_kpis.py``.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence


def entropy_oracle(counts: Sequence[int]) -> float:
    """Normalized Shannon entropy of a count histogram."""
    total = sum(counts)
    k = len(counts)
    if k == 1:
        return 0.0
    h = 0.0
    for count in counts:
        p = count / total
        h -= p * math.log2(p)
    return h / math.log2(k)


def brute_force_hitting_sets(
    conflicts: Sequence[frozenset[str]], universe: Iterable[str]
) -> set[frozenset[str]]:
    """All subset-minimal hitting sets, by exhaustive subset enumeration."""
    elements = sorted(set(universe))
    hitting: list[frozenset[str]] = []
    for size in range(len(elements) + 1):
        for combo in combinations(elements, size):
            candidate = frozenset(combo)
            if all(candidate & conflict for conflict in conflicts):
                hitting.append(candidate)
    return {c for c in hitting if not any(other < c for other in hitting)}


def jaccard_oracle(a: Iterable[str], b: Iterable[str]) -> float:
    left, right = set(a), set(b)
    if not left and not right:
        return 0.0
    return len(left & right) / len(left | right)
