"""Model-based diagnosis of behavioral divergence between two process models.

One model acts as reference, the other as target; the diagnosis asks which
target gateways can explain the observed differences in KPI emissions.
Cross-model matching uses task and gateway labels because independently
generated models do not share element ids.

A case diverges when its reference and target KPI sequences differ, so
order and repeated emissions count.  For each divergent case the earliest
difference between the two sequences is located, and the gateways on the
target trace strictly between the last agreeing emission and the first
diverging one form a conflict set.  Subset-minimal hitting sets over the
conflict family are the diagnosis candidates; a refinement pass removes
gateways whose exercised branch conditions are syntactically equal (after
canonicalization) to conditions exercised on the reference side, which
discharges harmless operand-order rewrites without hiding real logic
changes.

Choosing which model is reference and which is target carries no claim of
correctness; the orientation is picked only for explanatory parsimony.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .bpmn import NodeKind, ProcessModel
from .conditions import normalize
from .simulation import (
    CaseRecord,
    ConditionTables,
    DEFAULT_STEP_CAP,
    KpiConfig,
    KpiSequence,
    Trace,
    case_ids,
    execute_case,  # unused here; perfbench/tracer.py wraps diagnosis.execute_case
    kpi_sequence,
    simulate_population,
)

TRACE_END = "<end-of-trace>"

ORIENTATION_NOTE = (
    "reference/target orientation is chosen for explanatory parsimony and does not "
    "imply either model is correct"
)


class NoDivergenceError(Exception):
    """The two models produce identical observations on every case."""


class DivergenceKind(str, Enum):
    MISSING_OUTPUT = "missing_output"
    EXTRA_OUTPUT = "extra_output"
    INCORRECT_OUTPUT = "incorrect_output"


@dataclass(frozen=True)
class Observation:
    case_id: str
    task_label: str
    kpi_name: str
    ref_emitted: bool
    tgt_emitted: bool

    @property
    def discrepant(self) -> bool:
        return self.ref_emitted != self.tgt_emitted


@dataclass(frozen=True)
class Divergence:
    case_id: str
    kind: DivergenceKind
    index: int
    t_last: str | None  # target-side task label before the divergence, if any
    t_first: str  # target-side task label at the divergence, or TRACE_END


@dataclass(frozen=True)
class ConflictSet:
    """Gateways on the target trace that bound a divergence window.

    ``gateways`` keeps execution order along the trace; ``case_ids`` is the
    merged provenance of every divergent case producing this same set.
    """

    gateways: tuple[str, ...]
    case_ids: tuple[str, ...]


@dataclass(frozen=True)
class DiagnosisProblem:
    reference_model_id: str
    target_model_id: str
    components: tuple[str, ...]  # all target-model gateway ids, document order
    conflicts: tuple[ConflictSet, ...]
    unattributable: tuple[Divergence, ...]
    failed_cases: tuple[tuple[str, str], ...]  # (case id, reason)


@dataclass(frozen=True)
class Diagnosis:
    gateways: frozenset[str]

    @property
    def cardinality(self) -> int:
        return len(self.gateways)

    @property
    def sorted_gateways(self) -> tuple[str, ...]:
        return tuple(sorted(self.gateways))


@dataclass(frozen=True)
class HittingSetResult:
    diagnoses: tuple[Diagnosis, ...]
    truncated: bool


@dataclass(frozen=True)
class DiagnosisRun:
    """Everything computed for one reference/target orientation."""

    problem: DiagnosisProblem
    hitting: HittingSetResult
    refined: tuple[Diagnosis, ...]


@dataclass(frozen=True)
class DirectionResult:
    reference_model_id: str
    target_model_id: str
    chosen: DiagnosisRun
    reverse: DiagnosisRun
    observations: tuple[Observation, ...]  # of the chosen orientation
    note: str = ORIENTATION_NOTE


def compare_observations(
    pairs: Sequence[tuple[KpiSequence, KpiSequence]],
) -> list[Observation]:
    """One observation per (case, task label, kpi) seen on either side of
    each aligned (reference, target) pair of one case's KPI sequences.

    Output order follows the pairs (case-id order as ``choose_direction``
    passes them), then task label, then kpi name.
    """
    observations: list[Observation] = []
    for ref_seq, tgt_seq in pairs:
        ref_pairs, tgt_pairs = set(ref_seq.pairs), set(tgt_seq.pairs)
        for task_label, kpi in sorted(ref_pairs | tgt_pairs):
            observations.append(
                Observation(
                    ref_seq.case_id,
                    task_label,
                    kpi,
                    ref_emitted=(task_label, kpi) in ref_pairs,
                    tgt_emitted=(task_label, kpi) in tgt_pairs,
                )
            )
    return observations


def first_divergence(ref_seq: KpiSequence, tgt_seq: KpiSequence) -> Divergence | None:
    """Earliest index where the two KPI sequences differ, or None if equal.

    The bounding task labels are taken from the target side; a target
    sequence that ends early yields a missing_output whose window runs to
    the end of the target trace (t_first is the TRACE_END marker).
    """
    ref_pairs = ref_seq.pairs
    tgt_pairs = tgt_seq.pairs
    limit = min(len(ref_pairs), len(tgt_pairs))
    index = next(
        (i for i in range(limit) if ref_pairs[i] != tgt_pairs[i]),
        None,
    )
    if index is None:
        if len(ref_pairs) == len(tgt_pairs):
            return None
        index = limit
    case_id = tgt_seq.case_id
    t_last = tgt_pairs[index - 1][0] if index > 0 else None
    if index >= len(tgt_pairs):
        return Divergence(case_id, DivergenceKind.MISSING_OUTPUT, index, t_last, TRACE_END)
    if index >= len(ref_pairs):
        return Divergence(
            case_id, DivergenceKind.EXTRA_OUTPUT, index, t_last, tgt_pairs[index][0]
        )
    return Divergence(
        case_id, DivergenceKind.INCORRECT_OUTPUT, index, t_last, tgt_pairs[index][0]
    )


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


def conflict_from_divergence(
    divergence: Divergence, tgt_trace: Trace, tgt_model: ProcessModel
) -> ConflictSet | None:
    """Gateways strictly inside the divergence window on the target trace.

    Returns None when the window contains no gateway; such divergences are
    reported as unattributable rather than silently widened.
    """
    if divergence.index > 0:
        start = _step_of_emission(tgt_trace, tgt_model, divergence.index - 1)
    else:
        start = -1
    if divergence.t_first == TRACE_END:
        end = len(tgt_trace.steps)
    else:
        end = _step_of_emission(tgt_trace, tgt_model, divergence.index)
    seen: list[str] = []
    for step_index in range(start + 1, end):
        node = tgt_model.node(tgt_trace.steps[step_index])
        if node.kind is NodeKind.EXCLUSIVE_GATEWAY and node.id not in seen:
            seen.append(node.id)
    if not seen:
        return None
    return ConflictSet(tuple(seen), (divergence.case_id,))


class _Walk(NamedTuple):
    """One model's walk of the cases, keyed by case id: the walk of the path
    and the KPI sequence of each case that completes, and the error of each
    that fails."""

    traces: dict[str, Trace]
    sequences: dict[str, KpiSequence]
    errors: dict[str, str]


def _walk_models(
    models: Sequence[ProcessModel], cases: Sequence[CaseRecord], step_cap: int
) -> list[_Walk]:
    """Each model's walk from ``simulate_population`` over condition tables
    shared between the models; each path is projected once, and its cases
    share the projection."""
    tables = ConditionTables(cases)
    walks: list[_Walk] = []
    for model in models:
        result = simulate_population(model, cases, KpiConfig(), step_cap=step_cap, tables=tables)
        walk = _Walk({}, {}, dict(result.errors))
        for members, trace in result.paths:
            pairs = kpi_sequence(trace, model).pairs
            for case_id in case_ids(cases, members):
                walk.traces[case_id] = trace
                walk.sequences[case_id] = KpiSequence(case_id, pairs)
        walks.append(walk)
    return walks


def _aligned(ref_walk: _Walk, tgt_walk: _Walk) -> list[tuple[KpiSequence, KpiSequence]]:
    """(reference, target) KPI sequences of each case that completes on
    both sides, in case-id order."""
    shared = sorted(ref_walk.sequences.keys() & tgt_walk.sequences.keys())
    return [(ref_walk.sequences[case_id], tgt_walk.sequences[case_id]) for case_id in shared]


def _build_problem(
    ref_model: ProcessModel,
    tgt_model: ProcessModel,
    ref_walk: _Walk,
    tgt_walk: _Walk,
    cases: Sequence[CaseRecord],
) -> DiagnosisProblem:
    """Cases failing on either side are excluded from both and reported, in
    case order, with the reference side's error if the reference walk
    failed and the target's otherwise.  Every other case whose KPI
    sequences differ yields a conflict or an unattributable divergence."""
    ref_errors, tgt_errors = ref_walk.errors, tgt_walk.errors
    failed = [
        (case.case_id, ref_errors.get(case.case_id, tgt_errors.get(case.case_id)))
        for case in cases
        if case.case_id in ref_errors or case.case_id in tgt_errors
    ]
    conflicts: dict[tuple[str, ...], list[str]] = {}
    unattributable: list[Divergence] = []
    for ref_seq, tgt_seq in _aligned(ref_walk, tgt_walk):
        divergence = first_divergence(ref_seq, tgt_seq)
        if divergence is None:
            continue
        tgt_trace = tgt_walk.traces[tgt_seq.case_id]
        conflict = conflict_from_divergence(divergence, tgt_trace, tgt_model)
        if conflict is None:
            unattributable.append(divergence)
            continue
        conflicts.setdefault(conflict.gateways, []).append(tgt_seq.case_id)
    merged = tuple(
        ConflictSet(gateways, tuple(sorted(case_ids)))
        for gateways, case_ids in sorted(conflicts.items())
    )
    components = tuple(
        n.id for n in tgt_model.nodes if n.kind is NodeKind.EXCLUSIVE_GATEWAY
    )
    return DiagnosisProblem(
        reference_model_id=ref_model.model_id,
        target_model_id=tgt_model.model_id,
        components=components,
        conflicts=merged,
        unattributable=tuple(unattributable),
        failed_cases=tuple(failed),
    )


def collect_conflicts(
    ref_model: ProcessModel,
    tgt_model: ProcessModel,
    cases: Sequence[CaseRecord],
    *,
    step_cap: int = DEFAULT_STEP_CAP,
) -> DiagnosisProblem:
    """Simulate both models over the cases and assemble the conflict family.

    Cases failing on either side are excluded and reported.  Identical
    gateway sets arising from different cases are merged, keeping the union
    of their provenance.
    """
    return _build_problem(
        ref_model, tgt_model, *_walk_models((ref_model, tgt_model), cases, step_cap), cases
    )


def _minimal_diagnoses(candidates: Iterable[frozenset[str]]) -> tuple[Diagnosis, ...]:
    """The subset-minimal candidates, smallest first, then by sorted ids."""
    distinct = set(candidates)
    minimal = [c for c in distinct if not any(other < c for other in distinct)]
    return tuple(
        Diagnosis(c) for c in sorted(minimal, key=lambda s: (len(s), tuple(sorted(s))))
    )


def minimal_hitting_sets(
    problem: DiagnosisProblem, *, max_cardinality: int = 8
) -> HittingSetResult:
    """All subset-minimal hitting sets of the conflict family.

    Exact enumeration over the conflict tree; every element of the first
    conflict not yet hit spawns a branch.  Candidates above the cardinality
    cap are dropped and flagged rather than silently ignored.  An empty
    conflict family yields the single empty diagnosis.
    """
    conflict_sets = [frozenset(c.gateways) for c in problem.conflicts]
    complete: set[frozenset[str]] = set()
    visited: set[frozenset[str]] = set()
    truncated = False

    def search(partial: frozenset[str]) -> None:
        nonlocal truncated
        if partial in visited:
            return
        visited.add(partial)
        unhit = next((c for c in conflict_sets if not (c & partial)), None)
        if unhit is None:
            complete.add(partial)
            return
        if len(partial) >= max_cardinality:
            truncated = True
            return
        for element in sorted(unhit):
            search(partial | {element})

    search(frozenset())
    return HittingSetResult(_minimal_diagnoses(complete), truncated)


def refine_diagnoses(
    diagnoses: Sequence[Diagnosis],
    problem: DiagnosisProblem,
    ref_model: ProcessModel,
    tgt_model: ProcessModel,
    ref_by_case: Mapping[str, Trace],
    tgt_by_case: Mapping[str, Trace],
) -> list[Diagnosis]:
    """Drop gateways whose divergent-case behavior is explained by syntactic
    rewriting only.  The traces of each side are keyed by case id.

    A gateway is removed when, in every divergent case supporting it, each
    condition it exercised on the target trace is canonically equal to some
    condition exercised on the reference trace for that same case.  Emptied
    diagnoses are dropped; the survivors are deduplicated and re-checked for
    subset-minimality.
    """
    cases_for_gateway: dict[str, set[str]] = {}
    for conflict in problem.conflicts:
        for gateway in conflict.gateways:
            cases_for_gateway.setdefault(gateway, set()).update(conflict.case_ids)
    ref_normed, tgt_normed = (
        {flow.id: normalize(flow.condition) for flow in model.flows if flow.condition is not None}
        for model in (ref_model, tgt_model)
    )

    def removable(gateway: str) -> bool:
        case_ids = cases_for_gateway.get(gateway)
        if not case_ids:
            return False
        for case_id in sorted(case_ids):
            if case_id not in tgt_by_case or case_id not in ref_by_case:
                return False
            tgt_trace = tgt_by_case[case_id]
            # None marks a default branch: it has no condition to match.
            taken = [
                tgt_normed.get(flow_id)
                for node_id, flow_id in zip(tgt_trace.steps, tgt_trace.flows)
                if node_id == gateway
            ]
            reference = {ref_normed[f] for f in ref_by_case[case_id].flows if f in ref_normed}
            if not taken or not all(condition in reference for condition in taken):
                return False
        return True

    gateways = {g for diagnosis in diagnoses for g in diagnosis.gateways}
    removed = {g for g in gateways if removable(g)}
    pruned = {diagnosis.gateways - removed for diagnosis in diagnoses}
    return list(_minimal_diagnoses(pruned - {frozenset()}))


def _run_orientation(
    ref_model: ProcessModel,
    tgt_model: ProcessModel,
    ref_walk: _Walk,
    tgt_walk: _Walk,
    cases: Sequence[CaseRecord],
    max_cardinality: int,
) -> DiagnosisRun:
    problem = _build_problem(ref_model, tgt_model, ref_walk, tgt_walk, cases)
    hitting = minimal_hitting_sets(problem, max_cardinality=max_cardinality)
    refined = refine_diagnoses(
        hitting.diagnoses, problem, ref_model, tgt_model, ref_walk.traces, tgt_walk.traces
    )
    return DiagnosisRun(problem, hitting, tuple(refined))


def _ranking_key(run: DiagnosisRun) -> tuple[float, float, str]:
    """Smaller is better: (minimum refined cardinality, refined count,
    reference model id).

    An orientation with no conflicts or no surviving nonempty diagnosis
    localizes nothing and ranks behind any that does.
    """
    nonempty = [d for d in run.refined if d.cardinality > 0]
    reference = run.problem.reference_model_id
    if not run.problem.conflicts or not nonempty:
        return (math.inf, math.inf, reference)
    return (nonempty[0].cardinality, len(nonempty), reference)


def choose_direction(
    model_a: ProcessModel,
    model_b: ProcessModel,
    cases: Sequence[CaseRecord],
    *,
    step_cap: int = DEFAULT_STEP_CAP,
    max_cardinality: int = 8,
) -> DirectionResult:
    """Diagnose in both orientations and keep the more parsimonious one.

    Each model walks the cases once; both orientations are built from the
    same walks, and the observation table only for the chosen one.  Ties
    fall back to the number of minimal diagnoses, then to the
    lexicographically smaller reference model id.  Raises NoDivergenceError
    when no case that completes on both models diverges.
    """
    walk_a, walk_b = _walk_models((model_a, model_b), cases, step_cap)
    run_ab = _run_orientation(model_a, model_b, walk_a, walk_b, cases, max_cardinality)
    run_ba = _run_orientation(model_b, model_a, walk_b, walk_a, cases, max_cardinality)
    if not (run_ab.problem.conflicts or run_ab.problem.unattributable):
        raise NoDivergenceError(
            f"models {model_a.model_id!r} and {model_b.model_id!r} agree on all cases"
        )
    chosen, reverse = sorted((run_ab, run_ba), key=_ranking_key)
    pairs = _aligned(walk_a, walk_b) if chosen is run_ab else _aligned(walk_b, walk_a)
    return DirectionResult(
        reference_model_id=chosen.problem.reference_model_id,
        target_model_id=chosen.problem.target_model_id,
        chosen=chosen,
        reverse=reverse,
        observations=tuple(compare_observations(pairs)),
    )


def diagnosis_report(result: DirectionResult) -> dict:
    """JSON-ready report: orientation, conflicts with provenance, diagnoses
    before and after refinement, unattributable divergences, and the
    discrepant observation table."""
    problem = result.chosen.problem
    discrepant = [o for o in result.observations if o.discrepant]
    return {
        "reference_model": problem.reference_model_id,
        "target_model": problem.target_model_id,
        "orientation_note": result.note,
        "components": list(problem.components),
        "conflicts": [
            {"gateways": list(c.gateways), "case_ids": list(c.case_ids)}
            for c in problem.conflicts
        ],
        "diagnoses": [
            {"gateways": list(d.sorted_gateways)} for d in result.chosen.hitting.diagnoses
        ],
        "diagnoses_truncated": result.chosen.hitting.truncated,
        "refined_diagnoses": [
            {"gateways": list(d.sorted_gateways)} for d in result.chosen.refined
        ],
        "unattributable": [
            {
                "case_id": d.case_id,
                "kind": d.kind.value,
                "index": d.index,
                "t_last": d.t_last,
                "t_first": d.t_first,
            }
            for d in problem.unattributable
        ],
        "failed_cases": [
            {"case_id": case_id, "reason": reason} for case_id, reason in problem.failed_cases
        ],
        "observations": {
            "total": len(result.observations),
            "discrepant": [
                {
                    "case_id": o.case_id,
                    "task_label": o.task_label,
                    "kpi": o.kpi_name,
                    "ref_emitted": o.ref_emitted,
                    "tgt_emitted": o.tgt_emitted,
                }
                for o in discrepant
            ],
        },
        "reverse_orientation": {
            "reference_model": result.reverse.problem.reference_model_id,
            "refined_diagnoses": [
                {"gateways": list(d.sorted_gateways)} for d in result.reverse.refined
            ],
        },
    }
