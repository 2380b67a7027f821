"""Model-based diagnosis of behavioral divergence between two process models.

One model acts as reference, the other as target; the diagnosis asks which
target gateways can explain the observed differences in KPI emissions.
Cross-model matching uses task and gateway labels because independently
generated models do not share element ids.

A case diverges when its reference and target KPI sequences differ, so
order and repeated emissions count.  Cases that take the same path on both
models form a class pair (the intersection of a path class of each model)
and share one comparison: the earliest difference between the two
sequences is located once per pair, and the gateways on the target walk
strictly between the last agreeing emission and the first diverging one
form the conflict set of every case in the pair.  Subset-minimal hitting
sets over the conflict family are the diagnosis candidates; a refinement
pass, also once per class pair, removes gateways whose exercised branch
conditions are syntactically equal (after canonicalization) to conditions
exercised on the reference side, which discharges harmless operand-order
rewrites without hiding real logic changes.

Choosing which model is reference and which is target carries no claim of
correctness; the orientation is picked only for explanatory parsimony.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

DEFAULT_MAX_CARDINALITY = 8

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


class _Path(NamedTuple):
    """One path class of a model: the mask of the cases that take the path,
    its walk and the walk's KPI sequence."""

    members: int
    walk: Trace
    sequence: KpiSequence


def _class_pairs(
    model_a: ProcessModel, model_b: ProcessModel, cases: Sequence[CaseRecord], step_cap: int
) -> tuple[list[tuple[int, _Path, _Path]], dict[str, str], dict[str, str]]:
    """Each non-empty intersection of a path class of ``model_a`` with one of
    ``model_b``, as (mask of its cases, path on a, path on b), and each
    model's error of every case that fails on it.  Both models walk the
    cases once, by ``simulate_population`` over shared condition tables."""
    tables = ConditionTables(cases)
    paths, errors = [], []
    for model in (model_a, model_b):
        result = simulate_population(model, cases, KpiConfig(), step_cap=step_cap, tables=tables)
        paths.append([_Path(mask, walk, kpi_sequence(walk, model)) for mask, walk in result.paths])
        errors.append(dict(result.errors))
    pairs = [(both, a, b) for a in paths[0] for b in paths[1] if (both := a.members & b.members)]
    return pairs, *errors


def _minimal_diagnoses(candidates: Iterable[frozenset[str]]) -> tuple[Diagnosis, ...]:
    """The subset-minimal candidates, smallest first, then by sorted ids."""
    distinct = set(candidates)
    minimal = [c for c in distinct if not any(other < c for other in distinct)]
    return tuple(
        Diagnosis(c) for c in sorted(minimal, key=lambda s: (len(s), tuple(sorted(s))))
    )


def minimal_hitting_sets(
    problem: DiagnosisProblem, *, max_cardinality: int = DEFAULT_MAX_CARDINALITY
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
    ref_model: ProcessModel,
    tgt_model: ProcessModel,
    support: Mapping[str, Sequence[tuple[Trace, Trace]]],
) -> list[Diagnosis]:
    """Drop gateways whose divergent-case behavior is explained by syntactic
    rewriting only.  ``support`` maps each conflict gateway to the
    (reference walk, target walk) pairs of the divergent cases behind it;
    cases that take the same two paths may share one pair.

    A gateway is removed when, for every pair supporting it, each condition
    it exercised on the target walk is canonically equal to some condition
    exercised on the reference walk.  Emptied diagnoses are dropped; the
    survivors are deduplicated and re-checked for subset-minimality.
    """
    ref_normed, tgt_normed = (
        {flow.id: normalize(flow.condition) for flow in model.flows if flow.condition is not None}
        for model in (ref_model, tgt_model)
    )

    def removable(gateway: str) -> bool:
        walks = support.get(gateway)
        if not walks:
            return False
        for ref_walk, tgt_walk in walks:
            # None marks a default branch: it has no condition to match.
            taken = [
                tgt_normed.get(flow_id)
                for node_id, flow_id in zip(tgt_walk.steps, tgt_walk.flows)
                if node_id == gateway
            ]
            reference = {ref_normed[f] for f in ref_walk.flows if f in ref_normed}
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
    pairs: Sequence[tuple[int, _Path, _Path]],
    ref_errors: Mapping[str, str],
    tgt_errors: Mapping[str, str],
    cases: Sequence[CaseRecord],
    max_cardinality: int,
) -> DiagnosisRun:
    """The conflicts, hitting sets and refined diagnoses of one orientation,
    from its class pairs (mask, reference path, target path).

    Cases failing on either side are excluded from both and reported, in
    case order, with the reference side's error if the reference walk
    failed and the target's otherwise.  Every other case lies in one class
    pair; a pair whose KPI sequences differ is located once, and each of
    its cases joins the pair's conflict or becomes an unattributable
    divergence.  Identical gateway sets from different pairs are merged,
    keeping the union of their cases.
    """
    failed = [
        (case.case_id, ref_errors.get(case.case_id, tgt_errors.get(case.case_id)))
        for case in cases
        if case.case_id in ref_errors or case.case_id in tgt_errors
    ]
    conflicts: dict[tuple[str, ...], list[str]] = {}
    support: dict[str, list[tuple[Trace, Trace]]] = {}
    unattributable: list[Divergence] = []
    for members, ref, tgt in pairs:
        divergence = first_divergence(ref.sequence, tgt.sequence)
        if divergence is None:
            continue
        ids = case_ids(cases, members)
        conflict = conflict_from_divergence(divergence, tgt.walk, tgt_model)
        if conflict is None:
            unattributable.extend(replace(divergence, case_id=case_id) for case_id in ids)
            continue
        conflicts.setdefault(conflict.gateways, []).extend(ids)
        for gateway in conflict.gateways:
            support.setdefault(gateway, []).append((ref.walk, tgt.walk))
    merged = tuple(
        ConflictSet(gateways, tuple(sorted(ids))) for gateways, ids in sorted(conflicts.items())
    )
    problem = DiagnosisProblem(
        reference_model_id=ref_model.model_id,
        target_model_id=tgt_model.model_id,
        components=tuple(n.id for n in tgt_model.nodes if n.kind is NodeKind.EXCLUSIVE_GATEWAY),
        conflicts=merged,
        unattributable=tuple(sorted(unattributable, key=lambda d: d.case_id)),
        failed_cases=tuple(failed),
    )
    hitting = minimal_hitting_sets(problem, max_cardinality=max_cardinality)
    refined = refine_diagnoses(hitting.diagnoses, ref_model, tgt_model, support)
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
    max_cardinality: int = DEFAULT_MAX_CARDINALITY,
) -> DirectionResult:
    """Diagnose in both orientations and keep the more parsimonious one.

    Each model walks the cases once, as path classes; both orientations are
    built from the same class pairs, and the observation table only for the
    chosen one.  Ties fall back to the number of minimal diagnoses, then to
    the lexicographically smaller reference model id.  Raises
    NoDivergenceError when no case that completes on both models diverges.
    """
    pairs_ab, err_a, err_b = _class_pairs(model_a, model_b, cases, step_cap)
    pairs_ba = [(both, b, a) for both, a, b in pairs_ab]
    run_ab = _run_orientation(model_a, model_b, pairs_ab, err_a, err_b, cases, max_cardinality)
    run_ba = _run_orientation(model_b, model_a, pairs_ba, err_b, err_a, cases, max_cardinality)
    if not (run_ab.problem.conflicts or run_ab.problem.unattributable):
        raise NoDivergenceError(
            f"models {model_a.model_id!r} and {model_b.model_id!r} agree on all cases"
        )
    chosen, reverse = sorted((run_ab, run_ba), key=_ranking_key)
    aligned = sorted(
        (
            (KpiSequence(case_id, ref.sequence.pairs), KpiSequence(case_id, tgt.sequence.pairs))
            for members, ref, tgt in (pairs_ab if chosen is run_ab else pairs_ba)
            for case_id in case_ids(cases, members)
        ),
        key=lambda pair: pair[0].case_id,
    )
    return DirectionResult(
        reference_model_id=chosen.problem.reference_model_id,
        target_model_id=chosen.problem.target_model_id,
        chosen=chosen,
        reverse=reverse,
        observations=tuple(compare_observations(aligned)),
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
