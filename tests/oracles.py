"""Independent oracles the tests compare the package against.

The numeric oracles are written straight from the defining formulas with
plain floats and brute-force enumeration, on purpose not reusing any
package internals.  The row loader parses every cell of every row on its
own, against the package's column loader, which parses each distinct cell
once.  The per-case diagnosis oracle walks every case alone
with ``execute_case`` and runs the package's per-case steps on it, so it
checks that cases sharing a pair of paths may share one run of each step;
the conflict window oracle finds the window's bounds by two scans of the
target trace, against the package's single pass.
The loop oracle walks a case with a set of the nodes it has visited,
against the package's bound of one step per node of the model.
The KPI recount oracle is ``scripts/recount_kpis.py``.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence

from bpmndiverge import diagnosis
from bpmndiverge.bpmn import NodeKind, ProcessModel
from bpmndiverge.conditions import evaluate
from bpmndiverge.simulation import (
    CASE_ERRORS,
    CaseRecord,
    Trace,
    execute_case,
    kpi_sequence,
    parse_cell,
    read_csv_table,
)


def load_cases_per_row(text: str) -> list[CaseRecord]:
    """A case population CSV as one record per row, every cell parsed on its
    own, with the attributes in header order."""
    header, rows = read_csv_table(text, "case population", "case_id", "column names")
    names = header[1:]
    return [
        CaseRecord(row[0].strip(), {name: parse_cell(cell) for name, cell in zip(names, row[1:])})
        for row in rows
    ]


def loop_of(model: ProcessModel, case: CaseRecord) -> frozenset[str] | None:
    """The nodes of the loop that ``case`` walks into: the walk keeps the
    nodes it has visited and stops at the first one it comes back to.  None
    when the walk reaches an end event, or fails, first."""
    visited: list[str] = []
    node = model.start_node
    while node not in visited:
        visited.append(node)
        if model.node(node).kind is NodeKind.END_EVENT:
            return None
        flows = model.outgoing(node)
        default = next((flow for flow in flows if flow.is_default), None)
        try:  # the first enabled branch in document order, else the default
            taken = next(
                (
                    flow
                    for flow in flows
                    if not flow.is_default
                    and (flow.condition is None or evaluate(flow.condition, case.attributes))
                ),
                default,
            )
        except CASE_ERRORS:
            return None
        if taken is None:
            return None
        node = taken.target
    return frozenset(visited[visited.index(node) :])


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


def _step_of_emission(trace: Trace, model: ProcessModel, emission_index: int) -> int:
    """Step index at which the trace produced its emission_index-th emission."""
    count = 0
    for step_index, node_id in enumerate(trace.steps):
        node = model.node(node_id)
        if node.kind is NodeKind.TASK and node.kpi_outputs:
            count += len(node.kpi_outputs)
            if count > emission_index:
                return step_index
    raise IndexError(f"trace has no emission index {emission_index}")


def conflict_window_oracle(
    divergence: diagnosis.Divergence, tgt_trace: Trace, tgt_model: ProcessModel
) -> tuple[str, ...]:
    """The conflict window by two scans: find the steps of emissions
    ``index - 1`` and ``index`` (the trace bounds where there is none), then
    collect the gateways strictly between them, each once."""
    if divergence.index > 0:
        start = _step_of_emission(tgt_trace, tgt_model, divergence.index - 1)
    else:
        start = -1
    if divergence.t_first == diagnosis.TRACE_END:
        end = len(tgt_trace.steps)
    else:
        end = _step_of_emission(tgt_trace, tgt_model, divergence.index)
    seen: list[str] = []
    for step_index in range(start + 1, end):
        node = tgt_model.node(tgt_trace.steps[step_index])
        if node.kind is NodeKind.EXCLUSIVE_GATEWAY and node.id not in seen:
            seen.append(node.id)
    return tuple(seen)


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
        gateways = diagnosis.conflict_from_divergence(divergence, tgt_walk, tgt_model)
        if gateways:
            conflicts.setdefault(gateways, []).append(case_id)
        else:
            unattributable.append((case_id, divergence))
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
    diagnoses, truncated = diagnosis.minimal_hitting_sets(problem)
    support = per_case_support(ref_model, tgt_model, problem, cases)
    refined = diagnosis.refine_diagnoses(diagnoses, ref_model, tgt_model, support)
    return diagnosis.DiagnosisRun(problem, diagnoses, truncated, refined)
