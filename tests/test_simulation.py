"""Case loading, trace execution, KPI aggregation, and set-at-a-time
population runs checked against per-case walks."""

import importlib.util
import json
import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bpmndiverge import cli, simulation
from bpmndiverge.bpmn import SequenceFlow, parse_bpmn
from bpmndiverge.conditions import (
    BoolOp,
    Compare,
    Literal,
    MissingVariableError,
    Not,
    TypeMismatchError,
    evaluate,
    parse_condition,
    to_text,
)
from bpmndiverge.config import ConfigError, build_run_config
from bpmndiverge.simulation import (
    CASE_ERRORS,
    CaseDataError,
    CaseRecord,
    CaseTable,
    EndlessLoopError,
    KpiConfig,
    KpiVector,
    NoEnabledBranchError,
    Trace,
    _indices,
    aggregate_kpis,
    case_ids,
    execute_case,
    kpi_sequence,
    load_cases_csv,
    parse_cell,
    simulate_population,
)

import modelkit as mk
import oracles
from test_conditions import _NAMES, _asts


def _load_recount():
    """``recount`` of ``scripts/recount_kpis.py``, the KPI recount oracle."""
    spec = importlib.util.spec_from_file_location(
        "recount_kpis", Path(__file__).resolve().parent.parent / "scripts" / "recount_kpis.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.recount


recount = _load_recount()


class TestCellParsing:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("1", Decimal("1")),
            ("126", Decimal("126")),
            ("6.5", Decimal("6.5")),
            ("-0.25", Decimal("-0.25")),
            ("true", True),
            ("False", False),
            ("TRUE", True),
            ("yes", "yes"),
            ("n/a", "n/a"),
            ("", ""),
        ],
    )
    def test_parse_cell(self, raw, expected):
        got = parse_cell(raw)
        assert got == expected
        assert type(got) is type(expected)


class TestCaseLoading:
    def test_city1_population(self, population):
        assert len(population) == 20
        first = population[0]
        assert first.case_id == "c01"
        assert first.attributes["Fasting_Blood_Glucose"] == Decimal("142")
        assert first.attributes["HbA1c"] == Decimal("7.2")

    def test_empty_file(self):
        with pytest.raises(CaseDataError, match="empty"):
            load_cases_csv("")

    def test_first_column_must_be_case_id(self):
        with pytest.raises(CaseDataError, match="case_id"):
            load_cases_csv("id,x\nc1,1\n")

    def test_duplicate_case_id(self):
        with pytest.raises(CaseDataError, match="duplicate"):
            load_cases_csv("case_id,x\nc1,1\nc1,2\n")

    def test_row_width_mismatch(self):
        with pytest.raises(CaseDataError, match="line 2"):
            load_cases_csv("case_id,x,y\nc1,1\n")

    def test_empty_case_id(self):
        with pytest.raises(CaseDataError, match="empty case_id"):
            load_cases_csv("case_id,x\n,1\n")

    def test_header_only(self):
        with pytest.raises(CaseDataError, match="no rows"):
            load_cases_csv("case_id,x\n")

    @pytest.mark.parametrize("header", ["case_id,x,x", "case_id,x,", "case_id, ,x"])
    def test_column_names_must_be_distinct_and_non_empty(self, header):
        with pytest.raises(CaseDataError, match="distinct, non-empty column names"):
            load_cases_csv(f"{header}\nc1,1,2\n")

    def test_blank_lines_skipped(self):
        cases = load_cases_csv("case_id,x\nc1,1\n\nc2,2\n")
        assert [c.case_id for c in cases] == ["c1", "c2"]


def _typed(records):
    """Records as comparable rows that tell ``True`` from ``Decimal(1)`` and
    keep the attribute order."""
    return [
        (record.case_id, [(name, type(value), value) for name, value in record.attributes.items()])
        for record in records
    ]


_CSV_CELLS = st.sampled_from(
    ["1", " 1", "1.0", "-0", "1e3", "true", "TRUE", " false ", "", "abc", " x "]
)


@st.composite
def _case_csv(draw):
    """A case CSV over a few distinct cells, with blank rows now and then."""
    width = draw(st.integers(0, 4))
    lines = [",".join(["case_id", *(f"a{column}" for column in range(width))])]
    for index in range(draw(st.integers(1, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
        cells = [draw(_CSV_CELLS) for _ in range(width)]
        lines.append(",".join([f" c{index} ", *cells]))
    return "\n".join(lines) + "\n"


class TestColumnLoading:
    @given(_case_csv())
    def test_the_table_holds_the_records_of_the_per_row_parse(self, text):
        table, rows = load_cases_csv(text), oracles.load_cases_per_row(text)
        assert len(table) == len(rows)
        assert _typed(table) == _typed(rows)
        assert table.ids == [row.case_id for row in rows]

    def test_the_city1_table_holds_the_records_of_the_per_row_parse(self, city1_dir, population):
        text = (city1_dir / "population.csv").read_text()
        assert _typed(population) == _typed(oracles.load_cases_per_row(text))

    def test_equal_cells_share_one_value(self):
        table = load_cases_csv("case_id,a,b\nc1,5,5\nc2,5,x\nc3, 5,5\n")
        assert len({id(value) for column in table.columns.values() for value in column}) == 3

    def test_a_table_of_records_is_built_once(self, population):
        assert CaseTable.of(population) is population
        records = list(population)
        rebuilt = CaseTable.of(records)
        assert rebuilt is not population and list(rebuilt) == records

    def test_a_record_keeps_only_its_own_attributes(self):
        records = [CaseRecord("c0", {"x": True}), CaseRecord("c1", {"y": "s"})]
        table = CaseTable.of(records)
        assert list(table) == records and table[-1] == records[-1]
        with pytest.raises(IndexError):
            table[2]


class TestExecution:
    def test_full_walk_through_guidance(self, strict_model, population):
        trace = execute_case(strict_model, population[0])
        assert trace.case_id == "c01"
        assert trace.steps == (
            "start",
            "t_review",
            "g_elig",
            "t_notify",
            "g_accept",
            "t_guide",
            "end_guided",
        )
        assert trace.flows == (
            "f_start",
            "f_review",
            "f_eligible",
            "f_notify",
            "f_accepted",
            "f_guided",
        )
        assert trace.emissions == (("t_notify", "NC"), ("t_guide", "HC"))

    def test_not_eligible_walk(self, strict_model, population):
        c20 = population[19]
        assert c20.case_id == "c20"
        trace = execute_case(strict_model, c20)
        assert trace.steps == ("start", "t_review", "g_elig", "end_not_eligible")
        assert trace.emissions == ()

    def test_multi_kpi_emissions_sorted(self):
        m = mk.model(
            "m",
            [mk.start("s"), mk.task("t", "Both", ("NC", "HC")), mk.end("e")],
            [mk.flow("f1", "s", "t"), mk.flow("f2", "t", "e")],
        )
        trace = execute_case(m, CaseRecord("c", {}))
        assert trace.emissions == (("t", "HC"), ("t", "NC"))

    def test_gateway_takes_first_enabled_branch_in_document_order(self):
        m = mk.model(
            "m",
            [mk.start("s"), mk.gateway("g"), mk.end("e1"), mk.end("e2")],
            [
                mk.flow("f1", "s", "g"),
                mk.flow("f2", "g", "e1", "x >= 1"),
                mk.flow("f3", "g", "e2", "x >= 0"),
            ],
        )
        trace = execute_case(m, CaseRecord("c", {"x": Decimal("5")}))
        assert trace.flows[-1] == "f2"

    def test_no_enabled_branch(self):
        m = mk.model(
            "m",
            [mk.start("s"), mk.gateway("g"), mk.end("e")],
            [mk.flow("f1", "s", "g"), mk.flow("f2", "g", "e", "x == 1")],
        )
        with pytest.raises(NoEnabledBranchError) as info:
            execute_case(m, CaseRecord("c9", {"x": Decimal("2")}))
        assert info.value.case_id == "c9"
        assert info.value.gateway_id == "g"

    def test_missing_attribute_propagates(self, strict_model):
        with pytest.raises(MissingVariableError, match="Diabetes_Under_Treatment"):
            execute_case(strict_model, CaseRecord("c", {"HbA1c": Decimal("7")}))

    def test_step_cap(self):
        # A walk longer than the model's node count has come back to a node.
        with pytest.raises(EndlessLoopError) as info:
            execute_case(mk.loop_model(), CaseRecord("c1", {"Loop": Decimal("1")}))
        assert (info.value.case_id, info.value.node_id) == ("c1", "g")
        assert str(info.value) == (
            "case 'c1': loops through node 'g' and never reaches an end event"
        )

    def test_kpi_sequence_labels(self, strict_model, population):
        trace = execute_case(strict_model, population[0])
        assert kpi_sequence(trace, strict_model) == (
            ("Send Program Notification", "NC"),
            ("Provide Health Guidance", "HC"),
        )


class TestAggregation:
    def test_city1_strict_vector(self, strict_model, population, kpi_config):
        traces = [execute_case(strict_model, c) for c in population]
        v = aggregate_kpis(traces, len(population), kpi_config)._asdict()
        assert v["NC"] == Decimal("8")
        assert v["HC"] == Decimal("4")
        assert v["RU"] == Decimal("0.08")
        assert v["HI"] == Decimal("0.06")
        assert v["CS"] == Decimal("1200")

    def test_city1_broad_vector(self, broad_model, population, kpi_config):
        traces = [execute_case(broad_model, c) for c in population]
        v = aggregate_kpis(traces, len(population), kpi_config)._asdict()
        assert (v["NC"], v["HC"]) == (Decimal("17"), Decimal("13"))
        assert v["RU"] == Decimal("0.26")
        assert v["HI"] == Decimal("0.195")
        assert v["CS"] == Decimal("3900")

    @pytest.mark.parametrize("which", ["strict", "broad"])
    def test_vectors_match_independent_recount(
        self, which, strict_model, broad_model, population, kpi_config
    ):
        model = strict_model if which == "strict" else broad_model
        traces = [execute_case(model, c) for c in population]
        v = aggregate_kpis(traces, len(population), kpi_config)
        data = {
            "cases_total": len(population),
            "traces": [{"case_id": t.case_id, "emissions": t.emissions} for t in traces],
        }
        expected = recount(data, 50, Fraction(1, 2), Fraction(3, 10), Fraction(1000))
        for name, value in v._asdict().items():
            assert Fraction(value) == Fraction(expected[name]), name

    def _hc_traces(self, n: int) -> list[Trace]:
        # n distinct cases each emitting one HC.
        return [Trace(f"c{i}", ("t",), (), (("t", "HC"),)) for i in range(n)]

    def test_ru_below_capacity_is_load(self):
        cfg = KpiConfig(guidance_capacity=10)
        v = aggregate_kpis(self._hc_traces(4), 4, cfg)._asdict()
        assert v["RU"] == Decimal("0.4")

    def test_ru_at_capacity(self):
        cfg = KpiConfig(guidance_capacity=10)
        v = aggregate_kpis(self._hc_traces(10), 10, cfg)._asdict()
        assert v["RU"] == Decimal("1")

    def test_ru_overload_penalty(self):
        cfg = KpiConfig(guidance_capacity=10)
        # load 1.5, 1 - 0.5 * 0.5 -> 0.75
        v = aggregate_kpis(self._hc_traces(15), 15, cfg)._asdict()
        assert v["RU"] == Decimal("0.75")

    def test_ru_clamped_at_zero(self):
        cfg = KpiConfig(guidance_capacity=2)
        # load 5, 1 - 0.5 * 4 = -1 -> clamped
        v = aggregate_kpis(self._hc_traces(10), 10, cfg)._asdict()
        assert v["RU"] == Decimal("0")

    def test_hc_counts_distinct_cases_not_emissions(self):
        trace = Trace("c1", ("t", "t"), (), (("t", "HC"), ("t", "HC")))
        v = aggregate_kpis([trace], 1, KpiConfig())._asdict()
        assert v["HC"] == Decimal("1")

    def test_nc_counts_every_emission(self):
        trace = Trace("c1", ("t", "t"), (), (("t", "NC"), ("t", "NC")))
        v = aggregate_kpis([trace], 1, KpiConfig())._asdict()
        assert v["NC"] == Decimal("2")

    def test_nonpositive_population_rejected(self):
        with pytest.raises(ValueError):
            aggregate_kpis([], 0, KpiConfig())

    def test_vector_utilities(self):
        v = KpiVector(*map(Decimal, ("1.50", "-0", "0.080", "2E+1", "3")))
        assert KpiVector._fields == simulation.KPI_NAMES == ("NC", "HC", "RU", "HI", "CS")
        assert v.label() == "NC=1.5;HC=0;RU=0.08;HI=20;CS=3"
        assert v.as_json_dict() == {"NC": "1.5", "HC": "0", "RU": "0.08", "HI": "20", "CS": "3"}

    def test_config_rejects_bad_values(self):
        # KpiConfig is a plain record: the configuration it comes from is checked.
        for key, value, message in [
            ("guidance_capacity", "0", "guidance_capacity must be positive"),
            ("overload_penalty_alpha", "1.5", "overload_penalty_alpha must be in [0, 1]"),
            ("response_rate", "-0.1", "response_rate must be in [0, 1]"),
            ("cost_saving_per_improved_patient", "-1", "must be nonnegative"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(message)):
                build_run_config({key: value})


class TestPopulationRuns:
    def test_errors_collected_per_case(self, strict_model, population):
        broken = list(population) + [CaseRecord("cXX", {"HbA1c": Decimal("7")})]
        result = simulate_population(strict_model, broken, KpiConfig())
        assert len(expand_paths(result, broken)) == 20
        case_id, message = result.errors[0]
        assert case_id == "cXX"
        assert "Diabetes_Under_Treatment" in message
        # The failed case still widens HI's denominator.
        assert result.kpis._asdict()["HI"] == Decimal("4") * Decimal("0.30") / Decimal("21")

    def test_empty_population_rejected(self, strict_model):
        with pytest.raises(CaseDataError):
            simulate_population(strict_model, [], KpiConfig())

    def test_end_to_end_from_csv_text(self):
        cases = load_cases_csv("case_id,Flag\na,1\nb,0\n")
        m = mk.branch_model("Flag == 1")
        result = simulate_population(m, cases, KpiConfig())
        assert result.kpis._asdict()["NC"] == Decimal("2")
        assert result.errors == ()


# --- set-at-a-time runs against per-case walks --------------------------------

_CELLS = st.integers(-2, 2).map(Decimal) | st.booleans() | st.sampled_from(["", "a", "abc"])
_populations = st.lists(st.dictionaries(_NAMES, _CELLS), min_size=1, max_size=12).map(
    lambda rows: [CaseRecord(f"c{index}", row) for index, row in enumerate(rows)]
)


def walk_each_case(model, cases, config):
    """The per-case oracle: ``execute_case`` on every case, then
    ``aggregate_kpis`` over the successful traces."""
    traces, errors = [], []
    for case in cases:
        try:
            traces.append(execute_case(model, case))
        except CASE_ERRORS as exc:
            errors.append((case.case_id, str(exc)))
    return tuple(traces), aggregate_kpis(traces, len(cases), config), tuple(errors)


def expand_paths(result, cases):
    """The per-case traces that ``result.paths`` stands for, in case order.

    Checks the path rules on the way: each path's mask is a nonempty set of
    cases, the paths are ordered by their first case, and the successful and
    failed cases together are the whole population, each case once."""
    index_of = {case.case_id: index for index, case in enumerate(cases)}
    members = [_indices(path.members) for path in result.paths]
    assert all(indices and indices == sorted(set(indices)) for indices in members)
    assert [indices[0] for indices in members] == sorted(indices[0] for indices in members)
    failed = [index_of[case_id] for case_id, _reason in result.errors]
    walked = [index for indices in members for index in indices]
    assert sorted(walked + failed) == list(range(len(cases)))
    traces = {
        index: path.walk._replace(case_id=cases[index].case_id)
        for path, indices in zip(result.paths, members)
        for index in indices
    }
    assert all(path.walk == traces[indices[0]] for path, indices in zip(result.paths, members))
    return tuple(traces[index] for index in sorted(traces))


def assert_matches_walks(model, cases, config):
    """``simulate_population`` gives the per-case oracle's traces, KPIs and
    errors without calling ``execute_case``."""
    traces, kpis, errors = walk_each_case(model, cases, config)
    with mock.patch.object(simulation, "execute_case", wraps=execute_case) as walk:
        result = simulate_population(model, cases, config)
    assert walk.call_count == 0
    assert (expand_paths(result, cases), result.kpis, result.errors) == (traces, kpis, errors)


_LOOP_ERROR = re.compile(r"case '(.*)': loops through node '(.*)' and never reaches an end event")


@st.composite
def _masks_over_cases(draw):
    """A population of up to 300 cases and a mask over it."""
    size = draw(st.integers(0, 300))
    return CaseTable([f"c{index}" for index in range(size)], {}), draw(
        st.integers(0, (1 << size) - 1)
    )


_WIDE = CaseTable([f"c{index}" for index in range(100_000)], {})


class TestMasks:
    @settings(deadline=None)
    @given(_masks_over_cases())
    @example((CaseTable([], {}), 0))
    @example((_WIDE, (1 << len(_WIDE)) - 1))
    @example((_WIDE, 1 << (len(_WIDE) - 1) | 1))
    @example((_WIDE, 1))
    @example((_WIDE, random.Random(1).getrandbits(len(_WIDE))))
    @example((_WIDE, random.Random(2).getrandbits(len(_WIDE)) & random.Random(3).getrandbits(len(_WIDE))))
    def test_indices_and_case_ids_list_the_set_bits_lowest_first(self, drawn):
        cases, mask = drawn
        expected = [index for index in range(mask.bit_length()) if mask >> index & 1]
        assert _indices(mask) == expected
        assert case_ids(cases, mask) == tuple(cases[index].case_id for index in expected)


# Few distinct values over many cases, and values that compare equal across
# types (True == Decimal(1)) or within one (Decimal("1") == Decimal("1.0")).
_REPEATED = [True, False, Decimal(1), Decimal("1.0"), Decimal(0), Decimal("-0"), "1", ""]
_repeating_populations = st.lists(
    st.dictionaries(_NAMES, st.sampled_from(_REPEATED)), min_size=1, max_size=60
).map(lambda rows: [CaseRecord(f"c{index}", row) for index, row in enumerate(rows)])


class TestCaseTableConditions:
    @given(_asts, _populations | _repeating_populations)
    @example(
        parse_condition("x == 1 OR NOT x"),
        [
            CaseRecord(f"c{index}", {"x": value})
            for index, value in enumerate([True, Decimal(1), "1", Decimal("1.0"), True, "1", False])
        ],
    )
    @example(
        parse_condition("NOT (x > 0) AND beta"),
        [
            CaseRecord("c0", {"x": Decimal(1)}),
            CaseRecord("c1", {"beta": True}),
            CaseRecord("c2", {"x": Decimal(0), "beta": Decimal(2)}),
            CaseRecord("c3", {}),
            CaseRecord("c4", {"x": Decimal("0.0"), "beta": "s"}),
        ],
    )
    def test_table_matches_evaluate_on_every_case(self, ast, cases):
        true, error, messages = CaseTable.of(cases).table(ast)
        for index, case in enumerate(cases):
            bit = 1 << index
            try:
                expected = evaluate(ast, case.attributes)
            except (MissingVariableError, TypeMismatchError) as exc:
                assert error & bit and not true & bit
                assert messages[index] == str(exc)
            else:
                assert not error & bit
                assert bool(true & bit) == expected
        assert (true | error) >> len(cases) == 0
        assert set(messages) == {i for i in range(len(cases)) if error >> i & 1}

    def test_equal_asts_with_different_errors_get_their_own_tables(self):
        boolean, number = parse_condition("x == TRUE"), parse_condition("x == 1")
        assert boolean == number  # True == Decimal(1), so the records compare equal
        tables = CaseTable.of([CaseRecord("c0", {"x": "yes"}), CaseRecord("c1", {"x": True})])
        assert tables.table(boolean)[2] == {0: "variable 'x': expected boolean, found string"}
        assert tables.table(number)[2] == {0: "variable 'x': expected number, found string"}
        assert tables.table(boolean)[:2] == tables.table(number)[:2] == (0b10, 0b01)

    def test_bool_op_reports_its_first_failing_operand_in_source_order(self):
        # Both conditions normalize alike, but each reports its own first error.
        tables = CaseTable.of([CaseRecord("c0", {"b": "s"})])
        first_b = tables.table(parse_condition("b > 1 OR a == 1"))
        first_a = tables.table(parse_condition("a == 1 OR b > 1"))
        assert first_b == (0, 1, {0: "variable 'b': expected number, found string"})
        assert first_a == (0, 1, {0: "variable 'a' not present in case record"})

    def test_models_over_one_table_share_its_condition_tables(
        self, strict_model, broad_model, population, monkeypatch
    ):
        # broad_model's conditions are made of strict_model's leaves, so the
        # second model evaluates nothing; another table evaluates again.
        calls = Counter()

        def counted(*args):
            calls["evaluate"] += 1
            return evaluate(*args)

        monkeypatch.setattr(simulation, "evaluate", counted)
        cases = CaseTable.of(list(population))
        simulate_population(strict_model, cases, KpiConfig())
        first = calls["evaluate"]
        simulate_population(broad_model, cases, KpiConfig())
        assert 0 < first == calls["evaluate"]
        simulate_population(broad_model, CaseTable.of(list(population)), KpiConfig())
        assert calls["evaluate"] > first

    def test_an_ast_object_is_rendered_once_per_table(self, monkeypatch):
        rendered = []
        render = simulation.to_text
        monkeypatch.setattr(simulation, "to_text", lambda ast: rendered.append(ast) or render(ast))
        tables = CaseTable.of([CaseRecord("c0", {"x": Decimal(2)}), CaseRecord("c1", {"x": "s"})])
        shared, twin = parse_condition("x > 1"), parse_condition("x > 1")
        first = tables.table(shared)
        assert tables.table(shared) is first and rendered == [shared]
        # An equal AST that is another object is rendered, and finds the same table.
        assert tables.table(twin) is first and rendered == [shared, twin]
        assert first == (0b01, 0b10, {1: "variable 'x': expected number, found string"})

    def test_tables_never_cross_populations(self):
        ast = parse_condition("x > 1")
        low = CaseTable.of([CaseRecord("c0", {"x": Decimal(0)}), CaseRecord("c1", {})])
        high = CaseTable.of([CaseRecord("c0", {"x": Decimal(2)}), CaseRecord("c1", {"x": "s"})])
        assert low.table(ast) == (0, 0b10, {1: "variable 'x' not present in case record"})
        assert high.table(ast) == (0b01, 0b10, {1: "variable 'x': expected number, found string"})

    def test_literals_that_differ_past_28_digits_get_their_own_tables(self):
        # Rendered through the decimal context's 28 digits, both conditions
        # would read x >= 1234567890123456789012345679000 and share one table.
        cases = CaseTable.of([CaseRecord("c0", {"x": Decimal("1234567890123456789012345678900")})])
        above, at = (mk.branch_model(f"x >= 123456789012345678901234567890{d}") for d in "10")
        walks = [
            simulate_population(model, cases, KpiConfig()).paths[0].walk.steps
            for model in (above, at)
        ]
        assert walks == [("s", "g", "tn", "e"), ("s", "g", "ty", "e")]
        assert execute_case(at, cases[0]).steps == walks[1]


@st.composite
def _random_models(draw, model_id="random", task_labels=None, back_edges=False):
    """Random models: tasks with any KPI outputs (a second outgoing flow is
    never taken), and gateways with conditioned and unconditioned branches,
    with or without a default flow.  Flows lead only to later nodes unless
    ``back_edges`` is set; then they may lead to any node, so walks can loop.
    A task's first flow leads to the next node about half the time, so paths
    run long.  Task labels are drawn from ``task_labels`` when given, so they
    can repeat, and then every task emits a KPI, so that two models more
    often emit equal sets of (label, KPI) pairs in unequal numbers or orders."""
    names = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
    nodes, flows = [mk.start("s"), mk.end("e1"), mk.end("e2")], [mk.flow("fs", "s", "n0")]
    for i, name in enumerate(names):
        later = names[i + 1 :] + ["e1", "e2"]
        targets = st.sampled_from(names + ["e1", "e2"] if back_edges else later)
        if draw(st.booleans()):
            kpis = draw(
                st.lists(
                    st.sampled_from(["NC", "HC", "RU"]), min_size=bool(task_labels), unique=True
                )
            )
            label = draw(st.sampled_from(task_labels)) if task_labels else f"Task {i}"
            nodes.append(mk.task(name, label, tuple(kpis)))
            first = draw(st.just(later[0]) | targets)
            for j, target in enumerate([first, *draw(st.lists(targets, max_size=1))]):
                flows.append(SequenceFlow(f"f{i}_{j}", name, target))
            continue
        nodes.append(mk.gateway(name, f"Gateway {i}"))
        conditions = st.none() | _asts | _asts
        branches = draw(st.lists(st.tuples(targets, conditions), min_size=1, max_size=3))
        entries = [(target, condition, False) for target, condition in branches]
        default = draw(st.none() | st.integers(0, len(entries)))
        if default is not None:
            entries.insert(default, (draw(targets), None, True))
        for j, (target, condition, is_default) in enumerate(entries):
            flows.append(SequenceFlow(f"f{i}_{j}", name, target, condition, is_default))
    return mk.model(model_id, nodes, flows)


class TestSetAtATime:
    @settings(deadline=None)
    @given(_random_models(), _populations, st.integers(1, 4))
    def test_masks_match_per_case_walks(self, model, cases, capacity):
        assert_matches_walks(model, cases, KpiConfig(guidance_capacity=capacity))

    def test_failed_cases_emit_nothing(self):
        # NC and HC come before a gateway that fails: on a type error for c1
        # and with no enabled branch and no default for c2.
        m = mk.model(
            "m",
            [mk.start("s"), mk.task("t", "Both", ("NC", "HC")), mk.gateway("g"), mk.end("e")],
            [mk.flow("f1", "s", "t"), mk.flow("f2", "t", "g"), mk.flow("f3", "g", "e", "x > 0")],
        )
        cases = [
            CaseRecord("c0", {"x": Decimal(1)}),
            CaseRecord("c1", {"x": "n/a"}),
            CaseRecord("c2", {"x": Decimal(0)}),
        ]
        result = simulate_population(m, cases, KpiConfig())
        kpis = result.kpis._asdict()
        assert (kpis["NC"], kpis["HC"]) == (Decimal(1), Decimal(1))
        assert [case_id for case_id, _ in result.errors] == ["c1", "c2"]
        assert_matches_walks(m, cases, KpiConfig())

    def test_unconditioned_branch_takes_every_remaining_case(self):
        m = mk.model(
            "m",
            [
                mk.start("s"),
                mk.gateway("g"),
                mk.task("a", "A", ("NC",)),
                mk.task("b", "B", ("HC",)),
                mk.end("e"),
            ],
            [
                mk.flow("f1", "s", "g"),
                mk.flow("f2", "g", "a", "x == 1"),
                mk.flow("f3", "g", "b"),
                mk.flow("f4", "g", "e", "x == 2"),
                mk.flow("f5", "a", "e"),
                mk.flow("f6", "b", "e"),
            ],
        )
        cases = [CaseRecord(f"c{v}", {"x": Decimal(v)}) for v in range(4)]
        result = simulate_population(m, cases, KpiConfig())
        kpis = result.kpis._asdict()
        assert (kpis["NC"], kpis["HC"]) == (Decimal(1), Decimal(3))
        assert result.errors == ()
        assert_matches_walks(m, cases, KpiConfig())

    @settings(deadline=None)
    @given(_random_models(back_edges=True), _populations)
    def test_cyclic_masks_match_per_case_walks(self, model, cases):
        assert_matches_walks(model, cases, KpiConfig(guidance_capacity=2))

    @settings(deadline=None)
    @given(_random_models(back_edges=True), _populations)
    def test_the_loop_error_names_exactly_the_cases_that_revisit_a_node(self, model, cases):
        loops = {case.case_id: oracles.loop_of(model, case) for case in cases}
        looping = {}
        for case_id, message in simulate_population(model, cases, KpiConfig()).errors:
            if found := _LOOP_ERROR.fullmatch(message):
                assert found[1] == case_id
                looping[case_id] = found[2]
        assert set(looping) == {case_id for case_id, loop in loops.items() if loop}
        assert all(node in loops[case_id] for case_id, node in looping.items())

    def test_looping_case_fails_at_the_step_cap(self):
        cases = [CaseRecord("c0", {"Loop": Decimal(0)}), CaseRecord("c1", {"Loop": Decimal(1)})]
        assert_matches_walks(mk.loop_model(), cases, KpiConfig())
        result = simulate_population(mk.loop_model(), cases, KpiConfig())
        assert result.errors == (
            ("c1", "case 'c1': loops through node 'g' and never reaches an end event"),
        )

    def test_untraced_cyclic_model_walks_no_case(self):
        cases = [CaseRecord(f"c{i}", {"Loop": Decimal(i % 2)}) for i in range(20)]
        with mock.patch.object(simulation, "execute_case", wraps=execute_case) as walk:
            result = simulate_population(mk.loop_model(), cases, KpiConfig())
        assert walk.call_count == 0
        assert [message for _case_id, message in result.errors] == [
            f"case 'c{i}': loops through node 'g' and never reaches an end event"
            for i in range(1, 20, 2)
        ]
        assert result.kpis._asdict()["NC"] == Decimal(10)

    def test_a_long_acyclic_chain_walks_to_its_end(self):
        # 12,000 tasks in a row: a walk of any length ends if no node comes twice.
        count = 12_000
        nodes = [mk.start("s"), *(mk.task(f"t{i}", f"T{i}", ("NC",)) for i in range(count))]
        ids = [node.id for node in nodes] + ["e"]
        flows = [mk.flow(f"f{i}", a, b) for i, (a, b) in enumerate(zip(ids, ids[1:]))]
        chain = mk.model("chain", [*nodes, mk.end("e")], flows)
        cases = [CaseRecord("c0", {}), CaseRecord("c1", {})]
        assert len(execute_case(chain, cases[0]).steps) == count + 2
        result = simulate_population(chain, cases, KpiConfig())
        assert result.errors == ()
        assert result.kpis._asdict()["NC"] == Decimal(2 * count)

    def test_city1_and_families_match_per_case_walks(self, repo_root, population):
        for family in ("city1/models", "family_original", "family_repaired"):
            for path in sorted((repo_root / "fixtures" / family).glob("*.bpmn"))[::9]:
                assert_matches_walks(parse_bpmn(path.read_text()), population, KpiConfig())


# Few distinct cells over many cases, so that cases share paths.  Comparisons
# raise on a blank cell, so some successful cases would raise on a condition
# off their path.
_sharing_populations = st.lists(
    st.dictionaries(_NAMES, st.sampled_from([Decimal(0), Decimal(1), True, ""])),
    min_size=1,
    max_size=40,
).map(lambda rows: [CaseRecord(f"c{index}", row) for index, row in enumerate(rows)])


def assert_one_walk_per_path(model, cases):
    """One listed walk per distinct successful path, and no per-case walk."""
    traces, _kpis, _errors = walk_each_case(model, cases, KpiConfig())
    with mock.patch.object(simulation, "execute_case", wraps=execute_case) as walk:
        result = simulate_population(model, cases, KpiConfig())
    assert expand_paths(result, cases) == traces
    distinct = {(trace.steps, trace.flows) for trace in traces}
    assert walk.call_count == 0
    assert len(result.paths) == len(distinct)


class TestSharedTraces:
    @settings(deadline=None)
    @given(_random_models(), _sharing_populations)
    def test_traces_match_per_case_walks_with_one_walk_per_path(self, model, cases):
        assert_one_walk_per_path(model, cases)

    @settings(deadline=None)
    @given(_random_models(back_edges=True), _sharing_populations)
    def test_cyclic_traces_match_per_case_walks_with_one_walk_per_path(self, model, cases):
        assert_one_walk_per_path(model, cases)


def _leaves(ast):
    if isinstance(ast, Not):
        return _leaves(ast.operand)
    if isinstance(ast, BoolOp):
        return [leaf for operand in ast.operands for leaf in _leaves(operand)]
    return [ast]


def test_acyclic_simulate_evaluates_each_leaf_once_per_case(
    repo_root, population, tmp_path, monkeypatch
):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(simulation, "execute_case", counted("walks", simulation.execute_case))
    monkeypatch.setattr(simulation, "evaluate", counted("evaluate", simulation.evaluate))
    monkeypatch.chdir(repo_root)
    models_dir = repo_root / "fixtures" / "family_original"
    argv = ["--config", "fixtures/city1/config.cfg", "--models", str(models_dir)]
    argv += ["--out", str(tmp_path)]
    assert cli.main(argv + ["simulate"]) == 0
    leaves = {
        to_text(leaf)
        for path in models_dir.glob("*.bpmn")
        for flow in parse_bpmn(path.read_text()).flows
        if flow.condition is not None
        for leaf in _leaves(flow.condition)
    }
    assert calls["walks"] == 0
    assert 0 < calls["evaluate"] <= len(leaves) * len(population)
    evaluated = calls["evaluate"]
    assert cli.main(argv + ["simulate", "--traces"]) == 0
    # Traced, the same walk lists each distinct path once, and no case is
    # walked alone.
    paths = 0
    for path in (tmp_path / "kpis").glob("*.json"):
        traces = json.loads(path.read_text())["traces"]
        bodies = {(tuple(trace["steps"]), tuple(trace["flows"])) for trace in traces}
        assert len(bodies) == len(traces)
        paths += len(traces)
    assert calls["walks"] == 0
    assert calls["evaluate"] == 2 * evaluated
    assert 0 < paths < 100 * len(population)


def test_simulate_and_diagnose_evaluate_each_leaf_once_per_distinct_value(
    repo_root, city1_dir, tmp_path, monkeypatch
):
    """Ten copies of every city1 case: ten times the cases over the same
    distinct cells, so no count may grow with the cases."""
    header, *rows = [row for row in (city1_dir / "population.csv").read_text().splitlines() if row]
    text = "\n".join([header, *(f"r{copy}_{row}" for copy in range(10) for row in rows)]) + "\n"
    (tmp_path / "cases.csv").write_text(text)
    records = oracles.load_cases_per_row(text)
    models_dir = repo_root / "fixtures" / "family_original"
    leaves = {
        to_text(leaf): leaf
        for path in models_dir.glob("*.bpmn")
        for flow in parse_bpmn(path.read_text()).flows
        if flow.condition is not None
        for leaf in _leaves(flow.condition)
    }

    def groups(leaf):
        """The distinct values of the leaf's variable, keyed by type and value,
        and one more if some case lacks it; one for a literal."""
        if isinstance(leaf, Literal):
            return 1
        name = leaf.var if isinstance(leaf, Compare) else leaf.name
        cells = [record.attributes.get(name) for record in records]  # None where it lacks it
        return len({(type(cell), cell) for cell in cells})

    most_evaluations = sum(map(groups, leaves.values()))
    distinct_cells = len({cell for row in rows for cell in row.split(",")[1:]})
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(simulation, "evaluate", counted("evaluate", simulation.evaluate))
    monkeypatch.setattr(simulation, "parse_cell", counted("parse_cell", simulation.parse_cell))
    monkeypatch.chdir(repo_root)
    argv = ["--config", "fixtures/city1/config.cfg", "--models", str(models_dir)]
    argv += ["--cases", str(tmp_path / "cases.csv"), "--out", str(tmp_path / "out")]
    for stage in ("simulate", "entropy", "diagnose"):
        calls.clear()
        assert cli.main(argv + [stage]) == 0
        assert calls["evaluate"] <= most_evaluations < len(records), stage
        assert calls["parse_cell"] <= distinct_cells < len(records), stage
    assert json.loads((tmp_path / "out" / "diagnosis.json").read_text())["status"] == "diagnosed"


@pytest.mark.parametrize("family", ["family_original", "family_repaired"])
def test_traced_kpi_json_recounts_and_matches_per_case_walks(
    family, repo_root, population, tmp_path, monkeypatch
):
    monkeypatch.chdir(repo_root)
    models_dir = repo_root / "fixtures" / family
    argv = ["--config", "fixtures/city1/config.cfg", "--models", str(models_dir)]
    assert cli.main(argv + ["--out", str(tmp_path), "simulate", "--traces"]) == 0
    models = {path.name: parse_bpmn(path.read_text()) for path in models_dir.glob("*.bpmn")}
    cases = {case.case_id: case for case in population}
    kpi_files = sorted((tmp_path / "kpis").glob("*.json"))
    assert len(kpi_files) == len(models) == 100
    for path in kpi_files:
        data = json.loads(path.read_text())
        oracle = recount(data, 50, Fraction(1, 2), Fraction(3, 10), Fraction(1000))
        for name in simulation.KPI_NAMES:
            assert Fraction(Decimal(data["kpis"][name])) == Fraction(oracle[name]), path.name
        model = models[data["source"]]
        for entry in data["traces"]:
            for case_id in entry["case_ids"]:
                walk = execute_case(model, cases[case_id])
                assert entry["steps"] == list(walk.steps), (path.name, case_id)
                assert entry["flows"] == list(walk.flows), (path.name, case_id)
                assert entry["emissions"] == [list(e) for e in walk.emissions], path.name
