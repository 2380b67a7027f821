"""Divergence diagnosis: observations, conflicts, hitting sets, refinement."""

from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpmndiverge import diagnosis, simulation
from bpmndiverge.diagnosis import (
    TRACE_END,
    ConflictSet,
    DiagnosisProblem,
    DiagnosisRun,
    DivergenceKind,
    NoDivergenceError,
    choose_direction,
    compare_observations,
    conflict_from_divergence,
    first_divergence,
    minimal_hitting_sets,
    refine_diagnoses,
)
from bpmndiverge.simulation import (
    CASE_ERRORS,
    CaseRecord,
    Trace,
    execute_case,
    kpi_sequence,
)

import modelkit as mk
from oracles import (
    brute_force_hitting_sets,
    conflict_window_oracle,
    per_case_diagnosis,
    per_case_support,
)
from test_simulation import _random_models, _sharing_populations


def problem_with(conflicts: list[tuple[tuple[str, ...], tuple[str, ...]]]) -> DiagnosisProblem:
    return DiagnosisProblem(
        reference_model_id="ref",
        target_model_id="tgt",
        components=tuple(sorted({g for gateways, _ in conflicts for g in gateways})),
        conflicts=tuple(ConflictSet(g, c) for g, c in conflicts),
        unattributable=(),
        failed_cases=(),
    )


def oriented(ref, tgt, cases) -> DiagnosisRun:
    """The orientation of ``choose_direction`` with ``ref`` as reference."""
    result = choose_direction(ref, tgt, cases)
    runs = (result.chosen, result.reverse)
    return next(run for run in runs if run.problem.reference_model_id == ref.model_id)


def seq(*pairs: tuple[str, str]) -> tuple[tuple[str, str], ...]:
    return pairs


def walked_pairs(ref, tgt, cases) -> list[tuple[str, tuple, tuple]]:
    """(case id, reference, target KPI sequence) from per-case
    ``execute_case`` walks of every case that completes on both models, in
    case-id order."""
    pairs = []
    for case in sorted(cases, key=lambda c: c.case_id):
        try:
            pairs.append(
                (
                    case.case_id,
                    kpi_sequence(execute_case(ref, case), ref),
                    kpi_sequence(execute_case(tgt, case), tgt),
                )
            )
        except CASE_ERRORS:
            continue
    return pairs


class TestObservations:
    def test_city1_observation_table(self, strict_model, broad_model, population):
        obs = compare_observations(walked_pairs(strict_model, broad_model, population))
        assert len(obs) == 30
        discrepant = [o for o in obs if o.discrepant]
        assert len(discrepant) == 18
        c05 = [o for o in discrepant if o.case_id == "c05"]
        assert len(c05) == 1
        assert c05[0].task_label == "Provide Health Guidance"
        assert c05[0].kpi_name == "HC"
        assert not c05[0].ref_emitted and c05[0].tgt_emitted


class TestFirstDivergence:
    def test_equal_sequences(self):
        a = seq(("Notify", "NC"))
        assert first_divergence(a, a) is None
        assert first_divergence(seq(), seq()) is None

    def test_extra_output(self):
        d = first_divergence(
            seq(("Notify", "NC")),
            seq(("Notify", "NC"), ("Guide", "HC")),
        )
        assert d.kind is DivergenceKind.EXTRA_OUTPUT
        assert d.index == 1
        assert d.t_last == "Notify"
        assert d.t_first == "Guide"

    def test_missing_output_runs_to_trace_end(self):
        d = first_divergence(
            seq(("Notify", "NC"), ("Guide", "HC")),
            seq(("Notify", "NC")),
        )
        assert d.kind is DivergenceKind.MISSING_OUTPUT
        assert d.index == 1
        assert d.t_last == "Notify"
        assert d.t_first == TRACE_END

    def test_incorrect_output_at_start(self):
        d = first_divergence(seq(("Yes", "NC")), seq(("No", "NC")))
        assert d.kind is DivergenceKind.INCORRECT_OUTPUT
        assert d.index == 0
        assert d.t_last is None
        assert d.t_first == "No"

    def test_earliest_difference_wins(self):
        d = first_divergence(
            seq(("A", "NC"), ("B", "NC"), ("C", "NC")),
            seq(("A", "NC"), ("X", "NC"), ("Y", "NC")),
        )
        assert d.index == 1
        assert d.t_first == "X"


class TestConflictWindows:
    def test_window_from_trace_start(self, strict_model, broad_model, population):
        c09 = population[8]
        ref_seq_pairs = execute_case(strict_model, c09).emissions
        assert ref_seq_pairs == ()
        tgt_trace = execute_case(broad_model, c09)
        d = first_divergence(
            seq(),
            seq(("Send Program Notification", "NC"), ("Provide Health Guidance", "HC")),
        )
        assert conflict_from_divergence(d, tgt_trace, broad_model) == ("n3",)

    def test_window_between_emissions(self, strict_model, broad_model, population):
        c05 = population[4]
        tgt_trace = execute_case(broad_model, c05)
        d = first_divergence(
            seq(("Send Program Notification", "NC")),
            seq(("Send Program Notification", "NC"), ("Provide Health Guidance", "HC")),
        )
        assert conflict_from_divergence(d, tgt_trace, broad_model) == ("n5",)

    # Tasks with 0-3 KPIs and two gateways; a window only reads the steps,
    # so any sequence of them stands for a target trace.
    WINDOW_MODEL = mk.model(
        "window",
        [
            mk.start("s"),
            mk.gateway("g1"),
            mk.gateway("g2"),
            mk.task("t0", "Quiet"),
            mk.task("t1", "One", ("NC",)),
            mk.task("t2", "Two", ("NC", "HC")),
            mk.task("t3", "Three", ("NC", "HC", "RU")),
            mk.end("e"),
        ],
        [mk.flow(f"f_{node}", node, "e") for node in ("s", "g1", "g2", "t0", "t1", "t2", "t3")],
    )

    @given(st.lists(st.sampled_from(["g1", "g2", "t0", "t1", "t2", "t3"]), max_size=12))
    # Emissions 0 and 1 both come from t2: at index 1 the window is empty.
    @example(["g1", "t2", "g2", "t1"])
    def test_single_pass_matches_two_scan_oracle(self, steps):
        model = self.WINDOW_MODEL
        steps = ("s", *steps, "e")
        emitted = sum(len(model.node(node_id).kpi_outputs) for node_id in steps)
        trace = Trace("c", steps, (), ())
        for index in range(emitted + 1):
            t_first = TRACE_END if index == emitted else "any"
            d = diagnosis.Divergence(DivergenceKind.EXTRA_OUTPUT, index, None, t_first)
            assert conflict_from_divergence(d, trace, model) == conflict_window_oracle(
                d, trace, model
            )

    def test_one_task_making_both_emissions_leaves_no_window(self):
        trace = Trace("c", ("s", "g1", "t2", "g2", "t1", "e"), (), ())
        d = diagnosis.Divergence(DivergenceKind.EXTRA_OUTPUT, 1, "Two", "Two")
        assert conflict_from_divergence(d, trace, self.WINDOW_MODEL) == ()

    def test_gateway_free_window_is_unattributable(self):
        ref = mk.model(
            "ref",
            [mk.start("s"), mk.task("t1", "Announce", ("NC",)), mk.end("e")],
            [mk.flow("f1", "s", "t1"), mk.flow("f2", "t1", "e")],
        )
        tgt = mk.model(
            "tgt",
            [
                mk.start("s"),
                mk.task("t1", "Announce", ("NC",)),
                mk.task("t2", "Extra", ("NC",)),
                mk.end("e"),
            ],
            [mk.flow("f1", "s", "t1"), mk.flow("f2", "t1", "t2"), mk.flow("f3", "t2", "e")],
        )
        problem = oriented(ref, tgt, [CaseRecord("c1", {})]).problem
        assert problem.conflicts == ()
        [(case_id, divergence)] = problem.unattributable
        assert case_id == "c1"
        assert divergence.kind is DivergenceKind.EXTRA_OUTPUT


class TestCollectConflicts:
    def test_city1_conflict_family(self, strict_model, broad_model, population):
        problem = oriented(strict_model, broad_model, population).problem
        assert problem.reference_model_id == "city1_and_strict"
        assert problem.target_model_id == "city1_or_broad"
        assert problem.components == ("n3", "n5")
        assert problem.conflicts == (
            ConflictSet(
                ("n3",),
                ("c09", "c10", "c11", "c12", "c13", "c14", "c15", "c16", "c17"),
            ),
            ConflictSet(("n5",), ("c05", "c06")),
        )
        assert problem.unattributable == ()
        assert problem.failed_cases == ()

    def test_failing_case_excluded_from_both_sides(
        self, strict_model, broad_model, population
    ):
        cases = list(population) + [CaseRecord("cXX", {"HbA1c": Decimal("7")})]
        result = choose_direction(strict_model, broad_model, cases)
        for run in (result.chosen, result.reverse):
            assert [case_id for case_id, _reason in run.problem.failed_cases] == ["cXX"]
        assert {o.case_id for o in result.observations} <= {c.case_id for c in population}


class TestHittingSets:
    def test_empty_family_yields_empty_diagnosis(self):
        diagnoses, truncated = minimal_hitting_sets(problem_with([]))
        assert diagnoses == ((),)
        assert not truncated

    def test_two_overlapping_conflicts(self):
        diagnoses, truncated = minimal_hitting_sets(
            problem_with([(("a", "b"), ("c1",)), (("b", "c"), ("c2",))])
        )
        assert list(diagnoses) == [("b",), ("a", "c")]
        assert not truncated

    def test_matches_brute_force(self):
        families = [
            [("a",), ("b",)],
            [("a", "b"), ("a", "c"), ("b", "c")],
            [("a", "b", "c"), ("c", "d"), ("a", "d"), ("b",)],
            [("x",), ("x", "y"), ("y", "z")],
        ]
        for family in families:
            conflicts = [(g, ("c",)) for g in family]
            diagnoses, truncated = minimal_hitting_sets(problem_with(conflicts))
            got = {frozenset(d) for d in diagnoses}
            universe = {g for gateways in family for g in gateways}
            expected = brute_force_hitting_sets(
                [frozenset(g) for g in family], universe
            )
            assert got == expected, family
            assert not truncated

    def test_cardinality_cap_truncates(self):
        problem = problem_with([(("a",), ("c1",)), (("b",), ("c2",)), (("c",), ("c3",))])
        diagnoses, truncated = minimal_hitting_sets(problem, max_cardinality=2)
        assert diagnoses == ()
        assert truncated

    def test_ordering_by_size_then_lexicographic(self):
        diagnoses, _ = minimal_hitting_sets(
            problem_with([(("b", "a"), ("c1",)), (("c", "d"), ("c2",))])
        )
        assert list(diagnoses) == [
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "d"),
        ]

    def test_city1_single_diagnosis(self, strict_model, broad_model, population):
        problem = oriented(strict_model, broad_model, population).problem
        diagnoses, truncated = minimal_hitting_sets(problem)
        assert list(diagnoses) == [("n3", "n5")]
        assert not truncated


def pipeline_models(gp_ref: str, gp_tgt: str, gx_ref: str, gx_tgt: str):
    """Two-gateway pipeline: gp routes through inert prep tasks, gx decides
    which of two labeled emitting tasks runs."""

    def build(model_id: str, gp_cond: str, gx_cond: str):
        return mk.model(
            model_id,
            [
                mk.start("s"),
                mk.gateway("gp", "Prep route"),
                mk.task("r1", "Prep fast"),
                mk.task("r2", "Prep slow"),
                mk.gateway("gx", "Decide"),
                mk.task("ty", "Yes step", ("NC",)),
                mk.task("tn", "No step", ("NC",)),
                mk.end("e"),
            ],
            [
                mk.flow("f1", "s", "gp"),
                mk.flow("f2", "gp", "r1", gp_cond),
                mk.flow("f3", "gp", "r2", default=True),
                mk.flow("f4", "r1", "gx"),
                mk.flow("f5", "r2", "gx"),
                mk.flow("f6", "gx", "ty", gx_cond),
                mk.flow("f7", "gx", "tn", default=True),
                mk.flow("f8", "ty", "e"),
                mk.flow("f9", "tn", "e"),
            ],
        )

    return build("ref", gp_ref, gx_ref), build("tgt", gp_tgt, gx_tgt)


def boundary_case() -> CaseRecord:
    return CaseRecord(
        "cv", {"v": Decimal("10"), "w": Decimal("1"), "u": Decimal("0")}
    )


class TestRefinement:
    def run_refined(self, ref, tgt, cases):
        problem = oriented(ref, tgt, cases).problem
        diagnoses, _ = minimal_hitting_sets(problem)
        support = per_case_support(ref, tgt, problem, cases)
        refined = refine_diagnoses(diagnoses, ref, tgt, support)
        return problem, diagnoses, refined

    def test_operand_permutation_discharged(self):
        ref, tgt = pipeline_models(
            "(w == 1 OR u == 1)", "(u == 1 OR w == 1)", "v >= 10", "v > 10"
        )
        problem, diagnoses, refined = self.run_refined(ref, tgt, [boundary_case()])
        assert problem.conflicts == (ConflictSet(("gp", "gx"), ("cv",)),)
        assert list(diagnoses) == [("gp",), ("gx",)]
        # gp only differs by operand order; refinement discharges it.
        assert list(refined) == [("gx",)]

    def test_semantic_rewrite_not_discharged(self):
        # u >= 1 equals u == 1 on this population, but only semantically;
        # the syntactic check must keep gp on the table.
        ref, tgt = pipeline_models(
            "(w == 1 OR u == 1)", "(w == 1 OR u >= 1)", "v >= 10", "v > 10"
        )
        _, diagnoses, refined = self.run_refined(ref, tgt, [boundary_case()])
        assert list(diagnoses) == [("gp",), ("gx",)]
        assert list(refined) == [("gp",), ("gx",)]

    def test_default_branch_blocks_removal(self):
        # Identical branch condition on both sides, but the divergent case
        # takes the target default; there is no condition text to compare.
        ref = mk.branch_model("x >= 5", model_id="ref")
        tgt = mk.branch_model("x >= 6", model_id="tgt")
        case = CaseRecord("c", {"x": Decimal("5")})
        problem, _, refined = self.run_refined(ref, tgt, [case])
        assert problem.conflicts == (ConflictSet(("g",), ("c",)),)
        assert list(refined) == [("g",)]

    def test_city1_refinement_keeps_both_gateways(
        self, strict_model, broad_model, population
    ):
        _, _, refined = self.run_refined(strict_model, broad_model, list(population))
        assert list(refined) == [("n3", "n5")]


class TestDirectionChoice:
    def test_city1_frozen_orientation(self, strict_model, broad_model, population):
        result = choose_direction(strict_model, broad_model, population)
        assert result.chosen.problem.reference_model_id == "city1_and_strict"
        assert result.chosen.problem.target_model_id == "city1_or_broad"
        assert list(result.chosen.refined) == [("n3", "n5")]
        assert result.reverse.problem.reference_model_id == "city1_or_broad"
        assert list(result.reverse.refined) == [
            ("g_accept", "g_elig")
        ]

    def test_argument_order_is_irrelevant(self, strict_model, broad_model, population):
        ab = choose_direction(strict_model, broad_model, population)
        ba = choose_direction(broad_model, strict_model, population)
        assert ab.chosen.problem.reference_model_id == ba.chosen.problem.reference_model_id
        assert ab.chosen.refined == ba.chosen.refined

    def test_parsimony_beats_id_order(self):
        # tgt's mutated gx refines to a singleton, so the orientation with
        # ref as reference wins even though both ids start equal-ranked.
        ref, tgt = pipeline_models(
            "(w == 1 OR u == 1)", "(u == 1 OR w == 1)", "v >= 10", "v > 10"
        )
        result = choose_direction(tgt, ref, [boundary_case()])
        assert result.chosen.problem.reference_model_id == "ref"
        assert list(result.chosen.refined) == [("gx",)]

    def test_no_divergence(self, strict_model, population):
        with pytest.raises(NoDivergenceError):
            choose_direction(strict_model, strict_model, population)

    def test_each_model_walks_each_distinct_path_once(
        self, strict_model, broad_model, population
    ):
        # Each path is projected once, from the population walk: no case is
        # walked alone.
        paths = {
            (model.model_id, trace.steps, trace.flows)
            for model in (strict_model, broad_model)
            for trace in (execute_case(model, case) for case in population)
        }
        walk = mock.Mock(wraps=execute_case)
        with mock.patch.object(simulation, "execute_case", walk), mock.patch.object(
            diagnosis, "execute_case", walk
        ), mock.patch.object(diagnosis, "kpi_sequence", wraps=kpi_sequence) as project:
            choose_direction(strict_model, broad_model, population)
        assert walk.call_count == 0
        assert project.call_count == len(paths) < 2 * len(population)

    def test_each_case_is_projected_and_compared_once(self):
        # Projected through its path: one kpi_sequence call per model and
        # distinct path.  c1 and c_x share a path on mx; c_x fails on my, and
        # c_blank on both.
        mx = mk.branch_model("x >= 5", model_id="mx")
        my = mk.branch_model("y >= 5", model_id="my")
        cases = [
            CaseRecord("c1", {"x": Decimal("5"), "y": Decimal("0")}),
            CaseRecord("c_x", {"x": Decimal("5")}),
            CaseRecord("c_y", {"x": Decimal("0"), "y": Decimal("7")}),
            CaseRecord("c_blank", {}),
        ]
        paths = set()
        for model in (mx, my):
            for case in cases:
                try:
                    paths.add((model.model_id, execute_case(model, case).flows))
                except CASE_ERRORS:
                    continue
        with mock.patch.object(
            diagnosis, "kpi_sequence", wraps=kpi_sequence
        ) as project, mock.patch.object(
            diagnosis, "compare_observations", wraps=compare_observations
        ) as compare:
            result = choose_direction(mx, my, cases)
        projected = [(call.args[1].model_id, call.args[0].flows) for call in project.call_args_list]
        assert len(paths) == 4
        assert sorted(projected) == sorted(paths)
        assert compare.call_count == 1
        compared = [case_id for case_id, _ref, _tgt in compare.call_args.args[0]]
        assert compared == ["c1", "c_y"]
        assert {o.case_id for o in result.observations} == {"c1", "c_y"}

    def test_failed_case_reports_reference_error(self):
        mx = mk.branch_model("x >= 5", model_id="mx")
        my = mk.branch_model("y >= 5", model_id="my")
        cases = [
            CaseRecord("c1", {"x": Decimal("5"), "y": Decimal("0")}),
            CaseRecord("c_blank", {}),
        ]
        result = choose_direction(my, mx, cases)
        # Both orientations rank equal, so the smaller id is the reference.
        assert result.chosen.problem.reference_model_id == "mx"
        assert result.chosen.problem.failed_cases == (
            ("c_blank", "variable 'x' not present in case record"),
        )
        assert result.reverse.problem.failed_cases == (
            ("c_blank", "variable 'y' not present in case record"),
        )


REPEATED_CALL_CASES = [CaseRecord("c1", {"x": Decimal(1)}), CaseRecord("c2", {"x": Decimal(0)})]


class TestStageAgreement:
    """A case diverges when its KPI sequences differ, so models that the
    simulation tells apart on a case that completes on both get diagnosed."""

    # About 1 in 60 random pairs emits equal sets of (label, KPI) pairs in
    # unequal numbers or orders on some case, so the repeated-label pair
    # always runs as well.
    @settings(deadline=None)
    @given(
        _random_models("a", task_labels=("Call", "Visit")),
        _random_models("b", task_labels=("Call", "Visit")),
        _sharing_populations,
    )
    @example(*mk.repeated_call_pair(), REPEATED_CALL_CASES)
    def test_every_divergent_case_is_attributed(self, model_a, model_b, cases):
        divergent = set()
        for case in cases:
            try:
                seq_a = kpi_sequence(execute_case(model_a, case), model_a)
                seq_b = kpi_sequence(execute_case(model_b, case), model_b)
            except CASE_ERRORS:
                continue
            if seq_a != seq_b:
                divergent.add(case.case_id)
        if not divergent:
            with pytest.raises(NoDivergenceError):
                choose_direction(model_a, model_b, cases)
            return
        result = choose_direction(model_a, model_b, cases)
        for run in (result.chosen, result.reverse):
            attributed = {c for conflict in run.problem.conflicts for c in conflict.case_ids}
            attributed |= {case_id for case_id, _d in run.problem.unattributable}
            assert attributed == divergent
        a_is_ref = result.chosen.problem.reference_model_id == model_a.model_id
        ref, tgt = (model_a, model_b) if a_is_ref else (model_b, model_a)
        assert list(result.observations) == compare_observations(walked_pairs(ref, tgt, cases))

    def test_repeated_label_is_diagnosed(self):
        once, twice = mk.repeated_call_pair()
        result = choose_direction(twice, once, REPEATED_CALL_CASES)
        problem = result.chosen.problem
        assert (problem.reference_model_id, problem.target_model_id) == ("once", "twice")
        assert problem.conflicts == (ConflictSet(("g",), ("c1",)),)
        assert list(result.chosen.refined) == [("g",)]
        # Both sides emit the same set of pairs; only the sequences differ.
        assert not any(o.discrepant for o in result.observations)
        assert [d.kind for _case_id, d in result.reverse.problem.unattributable] == [
            DivergenceKind.MISSING_OUTPUT
        ]


class TestClassPairs:
    """Cases that take the same path on each model share one comparison,
    and the diagnosis equals the one built case by case."""

    @settings(deadline=None)
    @given(
        _random_models("a", task_labels=("Call", "Visit")),
        _random_models("b", task_labels=("Call", "Visit")),
        _sharing_populations,
    )
    @example(*mk.repeated_call_pair(), REPEATED_CALL_CASES)
    # gp is a rewrite on cv's pair of paths but takes the default on cd's,
    # so it stays only if refinement checks every pair behind it.
    @example(
        *pipeline_models("(w == 1 OR u == 1)", "(u == 1 OR w == 1)", "v >= 10", "v > 10"),
        [boundary_case(), CaseRecord("cd", {"v": Decimal(10), "w": Decimal(0), "u": Decimal(0)})],
    )
    def test_matches_the_per_case_oracle(self, model_a, model_b, cases):
        expected = {
            ref.model_id: per_case_diagnosis(ref, tgt, cases)
            for ref, tgt in ((model_a, model_b), (model_b, model_a))
        }
        problem = expected[model_a.model_id].problem
        if not (problem.conflicts or problem.unattributable):
            with pytest.raises(NoDivergenceError):
                choose_direction(model_a, model_b, cases)
            return
        result = choose_direction(model_a, model_b, cases)
        runs = {run.problem.reference_model_id: run for run in (result.chosen, result.reverse)}
        assert runs == expected

    def test_each_class_pair_is_located_once_per_orientation(
        self, strict_model, broad_model, population
    ):
        cases = [
            CaseRecord(f"{case.case_id}_{copy}", case.attributes)
            for copy in range(4)
            for case in population
        ]
        # Whether the cases on each pair of paths diverge.
        diverges = {}
        for case in cases:
            ref, tgt = (execute_case(model, case) for model in (strict_model, broad_model))
            ref_pairs = kpi_sequence(ref, strict_model)
            diverges[ref.flows, tgt.flows] = ref_pairs != kpi_sequence(tgt, broad_model)
        with mock.patch.object(
            diagnosis, "first_divergence", wraps=first_divergence
        ) as locate, mock.patch.object(
            diagnosis, "conflict_from_divergence", wraps=conflict_from_divergence
        ) as window:
            choose_direction(strict_model, broad_model, cases)
        assert locate.call_count == 2 * len(diverges) < len(cases)
        assert window.call_count == 2 * sum(diverges.values()) > 0

