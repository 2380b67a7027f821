"""Model-based diagnosis of behavioral divergence between two process models.

One model acts as reference, the other as target; the diagnosis asks which
target gateways can explain the observed differences in KPI emissions.
Cross-model matching uses task and gateway labels because independently
generated models do not share element ids.

A case diverges when its reference and target KPI sequences differ, so
order and repeated emissions count.  Cases that take the same path on both
models form a class pair (the intersection of a path class of each model)
and share one comparison: the earliest difference between the two
sequences, at emission ``index``, is located once per pair.  The conflict
set of the pair's cases is the window on the target walk: its exclusive
gateways, each once, strictly between the step that made emission
``index - 1`` (or the walk start) and the step that made emission
``index`` (or the walk end).  The window is empty, and the divergence
unattributable, when no gateway lies there, as when one task made both
emissions.  A diagnosis is a sorted tuple of target gateway ids; the
subset-minimal hitting sets of the conflict family are the candidates.  A
refinement pass, also once per class pair, removes gateways whose
exercised branch conditions are syntactically equal (after
canonicalization) to conditions exercised on the reference side, which
discharges harmless operand-order rewrites without hiding real logic
changes.

Choosing which model is reference and which is target carries no claim of
correctness; the orientation is picked only for explanatory parsimony.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .bpmn import NodeKind, ProcessModel
from .conditions import normalize
from .simulation import (
    CaseRecord,
    CaseTable,
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


class NoDivergenceError(Exception):
    """The two models produce identical observations on every case."""


class DivergenceKind(str, Enum):
    MISSING_OUTPUT = "missing_output"
    EXTRA_OUTPUT = "extra_output"
    INCORRECT_OUTPUT = "incorrect_output"


class Observation(NamedTuple):
    case_id: str
    task_label: str
    kpi_name: str
    ref_emitted: bool
    tgt_emitted: bool

    @property
    def discrepant(self) -> bool:
        return self.ref_emitted != self.tgt_emitted


class Divergence(NamedTuple):
    kind: DivergenceKind
    index: int
    t_last: str | None  # target-side task label before the divergence, if any
    t_first: str  # target-side task label at the divergence, or TRACE_END


class ConflictSet(NamedTuple):
    """Gateways on the target trace that bound a divergence window.

    ``gateways`` keeps execution order along the trace; ``case_ids`` is the
    merged provenance of every divergent case producing this same set.
    """

    gateways: tuple[str, ...]
    case_ids: tuple[str, ...]


class DiagnosisProblem(NamedTuple):
    reference_model_id: str
    target_model_id: str
    components: tuple[str, ...]  # all target-model gateway ids, document order
    conflicts: tuple[ConflictSet, ...]
    unattributable: tuple[tuple[str, Divergence], ...]  # (case id, divergence), by case id
    failed_cases: tuple[tuple[str, str], ...]  # (case id, reason)


Diagnosis = tuple[str, ...]  # sorted target gateway ids


class DiagnosisRun(NamedTuple):
    """Everything computed for one reference/target orientation."""

    problem: DiagnosisProblem
    diagnoses: tuple[Diagnosis, ...]  # the minimal hitting sets
    truncated: bool  # some hitting set exceeded the cardinality cap
    refined: tuple[Diagnosis, ...]


class DirectionResult(NamedTuple):
    chosen: DiagnosisRun
    reverse: DiagnosisRun
    observations: tuple[Observation, ...]  # of the chosen orientation


def compare_observations(
    compared: Sequence[tuple[str, KpiSequence, KpiSequence]],
) -> list[Observation]:
    """One observation per (case, task label, kpi) seen on either side, from
    one (case id, reference sequence, target sequence) per compared case.

    Output order follows ``compared`` (case-id order as ``choose_direction``
    passes it), then task label, then kpi name.
    """
    observations: list[Observation] = []
    for case_id, ref_seq, tgt_seq in compared:
        ref_pairs, tgt_pairs = set(ref_seq), set(tgt_seq)
        for task_label, kpi in sorted(ref_pairs | tgt_pairs):
            observations.append(
                Observation(
                    case_id,
                    task_label,
                    kpi,
                    ref_emitted=(task_label, kpi) in ref_pairs,
                    tgt_emitted=(task_label, kpi) in tgt_pairs,
                )
            )
    return observations


def first_divergence(ref_pairs: KpiSequence, tgt_pairs: KpiSequence) -> Divergence | None:
    """Earliest index where the two KPI sequences differ, or None if equal.

    The bounding task labels are taken from the target side; a target
    sequence that ends early yields a missing_output whose window runs to
    the end of the target trace (t_first is the TRACE_END marker).
    """
    limit = min(len(ref_pairs), len(tgt_pairs))
    index = next(
        (i for i in range(limit) if ref_pairs[i] != tgt_pairs[i]),
        None,
    )
    if index is None:
        if len(ref_pairs) == len(tgt_pairs):
            return None
        index = limit
    t_last = tgt_pairs[index - 1][0] if index > 0 else None
    if index >= len(tgt_pairs):
        return Divergence(DivergenceKind.MISSING_OUTPUT, index, t_last, TRACE_END)
    if index >= len(ref_pairs):
        return Divergence(DivergenceKind.EXTRA_OUTPUT, index, t_last, tgt_pairs[index][0])
    return Divergence(DivergenceKind.INCORRECT_OUTPUT, index, t_last, tgt_pairs[index][0])


def conflict_from_divergence(
    divergence: Divergence, tgt_trace: Trace, tgt_model: ProcessModel
) -> tuple[str, ...]:
    """The exclusive gateways, in first-visit order, that the target trace
    visits strictly between its emissions ``index - 1`` and ``index``.  An
    empty window is reported as unattributable, not silently widened."""
    window: dict[str, None] = {}
    emitted = 0
    for node_id in tgt_trace.steps:
        node = tgt_model.node(node_id)
        if node.kind is NodeKind.EXCLUSIVE_GATEWAY:
            window[node_id] = None
        elif node.kpi_outputs:
            before, emitted = emitted, emitted + len(node.kpi_outputs)
            if emitted > divergence.index:
                # This step made emission index, and index - 1 too if before < index.
                return () if before < divergence.index else tuple(window)
            window = {}
    return tuple(window)


class _Path(NamedTuple):
    """One path class of a model: the mask of the cases that take the path,
    its walk and the walk's KPI sequence."""

    members: int
    walk: Trace
    sequence: KpiSequence


def _class_pairs(
    model_a: ProcessModel, model_b: ProcessModel, cases: CaseTable
) -> tuple[list[tuple[int, _Path, _Path]], dict[str, str], dict[str, str]]:
    """Each non-empty intersection of a path class of ``model_a`` with one of
    ``model_b``, as (mask of its cases, path on a, path on b), and each
    model's error of every case that fails on it.  Both models walk the
    cases once, by ``simulate_population`` over the condition tables of ``cases``."""
    paths, errors = [], []
    for model in (model_a, model_b):
        result = simulate_population(model, cases, KpiConfig())
        paths.append([_Path(mask, walk, kpi_sequence(walk, model)) for mask, walk in result.paths])
        errors.append(dict(result.errors))
    pairs = [(both, a, b) for a in paths[0] for b in paths[1] if (both := a.members & b.members)]
    return pairs, *errors


def _minimal_diagnoses(candidates: Iterable[frozenset[str]]) -> tuple[Diagnosis, ...]:
    """The subset-minimal candidates, smallest first, then by sorted ids."""
    distinct = set(candidates)
    minimal = [tuple(sorted(c)) for c in distinct if not any(other < c for other in distinct)]
    return tuple(sorted(minimal, key=lambda d: (len(d), d)))


def minimal_hitting_sets(
    problem: DiagnosisProblem, *, max_cardinality: int = DEFAULT_MAX_CARDINALITY
) -> tuple[tuple[Diagnosis, ...], bool]:
    """All subset-minimal hitting sets of the conflict family, and whether
    any was cut off by the cardinality cap.

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
    return _minimal_diagnoses(complete), truncated


def refine_diagnoses(
    diagnoses: Sequence[Diagnosis],
    ref_model: ProcessModel,
    tgt_model: ProcessModel,
    support: Mapping[str, Sequence[tuple[Trace, Trace]]],
) -> tuple[Diagnosis, ...]:
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

    gateways = {g for diagnosis in diagnoses for g in diagnosis}
    removed = {g for g in gateways if removable(g)}
    pruned = {frozenset(diagnosis) - removed for diagnosis in diagnoses}
    return _minimal_diagnoses(pruned - {frozenset()})


def _run_orientation(
    ref_model: ProcessModel,
    tgt_model: ProcessModel,
    pairs: Sequence[tuple[int, _Path, _Path]],
    ref_errors: Mapping[str, str],
    tgt_errors: Mapping[str, str],
    cases: CaseTable,
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
    errors = {**tgt_errors, **ref_errors}  # the reference side's error where both fail
    failed = [(case_id, errors[case_id]) for case_id in cases.ids if case_id in errors]
    conflicts: dict[tuple[str, ...], list[str]] = {}
    support: dict[str, list[tuple[Trace, Trace]]] = {}
    unattributable: list[tuple[str, Divergence]] = []
    for members, ref, tgt in pairs:
        divergence = first_divergence(ref.sequence, tgt.sequence)
        if divergence is None:
            continue
        ids = case_ids(cases, members)
        gateways = conflict_from_divergence(divergence, tgt.walk, tgt_model)
        if not gateways:
            unattributable.extend((case_id, divergence) for case_id in ids)
            continue
        conflicts.setdefault(gateways, []).extend(ids)
        for gateway in gateways:
            support.setdefault(gateway, []).append((ref.walk, tgt.walk))
    merged = tuple(
        ConflictSet(gateways, tuple(sorted(ids))) for gateways, ids in sorted(conflicts.items())
    )
    problem = DiagnosisProblem(
        reference_model_id=ref_model.model_id,
        target_model_id=tgt_model.model_id,
        components=tuple(n.id for n in tgt_model.nodes if n.kind is NodeKind.EXCLUSIVE_GATEWAY),
        conflicts=merged,
        unattributable=tuple(sorted(unattributable, key=lambda pair: pair[0])),
        failed_cases=tuple(failed),
    )
    diagnoses, truncated = minimal_hitting_sets(problem, max_cardinality=max_cardinality)
    refined = refine_diagnoses(diagnoses, ref_model, tgt_model, support)
    return DiagnosisRun(problem, diagnoses, truncated, refined)


def _ranking_key(run: DiagnosisRun) -> tuple[float, float, str]:
    """Smaller is better: (minimum refined cardinality, refined count,
    reference model id).

    An orientation with no conflicts or no refined diagnosis (refinement
    drops empty ones) localizes nothing and ranks behind any that does.
    """
    reference = run.problem.reference_model_id
    if not run.problem.conflicts or not run.refined:
        return (math.inf, math.inf, reference)
    return (len(run.refined[0]), len(run.refined), reference)


def choose_direction(
    model_a: ProcessModel,
    model_b: ProcessModel,
    cases: Sequence[CaseRecord],
    *,
    max_cardinality: int = DEFAULT_MAX_CARDINALITY,
) -> DirectionResult:
    """Diagnose in both orientations and keep the more parsimonious one.

    Each model walks the cases once, as path classes; both orientations are
    built from the same class pairs, and the observation table only for the
    chosen one.  Ties fall back to the number of refined diagnoses, then to
    the lexicographically smaller reference model id.  Raises
    NoDivergenceError when no case that completes on both models diverges.
    """
    cases = CaseTable.of(cases)
    pairs_ab, err_a, err_b = _class_pairs(model_a, model_b, cases)
    pairs_ba = [(both, b, a) for both, a, b in pairs_ab]
    run_ab = _run_orientation(model_a, model_b, pairs_ab, err_a, err_b, cases, max_cardinality)
    run_ba = _run_orientation(model_b, model_a, pairs_ba, err_b, err_a, cases, max_cardinality)
    if not (run_ab.problem.conflicts or run_ab.problem.unattributable):
        raise NoDivergenceError(
            f"models {model_a.model_id!r} and {model_b.model_id!r} agree on all cases"
        )
    chosen, reverse = sorted((run_ab, run_ba), key=_ranking_key)
    compared = sorted(
        (case_id, ref.sequence, tgt.sequence)
        for members, ref, tgt in (pairs_ab if chosen is run_ab else pairs_ba)
        for case_id in case_ids(cases, members)
    )
    return DirectionResult(chosen, reverse, tuple(compare_observations(compared)))
