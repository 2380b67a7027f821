"""Independent oracles the tests compare the package against.

The numeric oracles are written straight from the defining formulas with
plain floats and brute-force enumeration, on purpose not reusing any
package internals.  The per-case diagnosis oracle walks every case alone
with ``execute_case`` and runs the package's per-case steps on it, so it
checks that cases sharing a pair of paths may share one run of each step.
The KPI recount oracle is ``scripts/recount_kpis.py``.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence

from bpmndiverge import diagnosis
from bpmndiverge.bpmn import NodeKind, ProcessModel
from bpmndiverge.simulation import CASE_ERRORS, CaseRecord, Trace, execute_case, kpi_sequence


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


def per_case_support(
    ref_model: ProcessModel,
    tgt_model: ProcessModel,
    problem: diagnosis.DiagnosisProblem,
    cases: Sequence[CaseRecord],
) -> dict[str, list[tuple[Trace, Trace]]]:
    """Refinement support with one (reference walk, target walk) pair per
    case of each conflict, each walked alone."""
    by_id = {case.case_id: case for case in cases}
    support: dict[str, list[tuple[Trace, Trace]]] = {}
    for conflict in problem.conflicts:
        walks = [
            (execute_case(ref_model, by_id[case_id]), execute_case(tgt_model, by_id[case_id]))
            for case_id in conflict.case_ids
        ]
        for gateway in conflict.gateways:
            support.setdefault(gateway, []).extend(walks)
    return support


def per_case_diagnosis(
    ref_model: ProcessModel, tgt_model: ProcessModel, cases: Sequence[CaseRecord]
) -> diagnosis.DiagnosisRun:
    """One orientation of the diagnosis, case by case: each case is walked
    alone on both models, and its divergence is located, windowed and
    refined alone."""
    failed: list[tuple[str, str]] = []
    walks: dict[str, tuple[Trace, Trace]] = {}
    for case in cases:
        try:
            ref_walk = execute_case(ref_model, case)
        except CASE_ERRORS as exc:
            failed.append((case.case_id, str(exc)))
            continue
        try:
            walks[case.case_id] = (ref_walk, execute_case(tgt_model, case))
        except CASE_ERRORS as exc:
            failed.append((case.case_id, str(exc)))
    conflicts: dict[tuple[str, ...], list[str]] = {}
    unattributable = []
    for case_id in sorted(walks):
        ref_walk, tgt_walk = walks[case_id]
        divergence = diagnosis.first_divergence(
            kpi_sequence(ref_walk, ref_model), kpi_sequence(tgt_walk, tgt_model)
        )
        if divergence is None:
            continue
        conflict = diagnosis.conflict_from_divergence(divergence, tgt_walk, tgt_model)
        if conflict is None:
            unattributable.append(divergence)
        else:
            conflicts.setdefault(conflict.gateways, []).append(case_id)
    problem = diagnosis.DiagnosisProblem(
        reference_model_id=ref_model.model_id,
        target_model_id=tgt_model.model_id,
        components=tuple(
            node.id for node in tgt_model.nodes if node.kind is NodeKind.EXCLUSIVE_GATEWAY
        ),
        conflicts=tuple(
            diagnosis.ConflictSet(gateways, tuple(ids))
            for gateways, ids in sorted(conflicts.items())
        ),
        unattributable=tuple(unattributable),
        failed_cases=tuple(failed),
    )
    hitting = diagnosis.minimal_hitting_sets(problem)
    support = per_case_support(ref_model, tgt_model, problem, cases)
    refined = diagnosis.refine_diagnoses(hitting.diagnoses, ref_model, tgt_model, support)
    return diagnosis.DiagnosisRun(problem, hitting, tuple(refined))
