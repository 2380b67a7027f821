"""Condition grammar: parsing, rendering, canonicalization, evaluation."""

import sys
from contextlib import contextmanager
from decimal import Decimal

import pytest
from hypothesis import example, given, strategies as st

from bpmndiverge.conditions import (
    MAX_NESTING,
    BoolOp,
    Compare,
    ConditionParseError,
    Literal,
    MissingVariableError,
    Not,
    TypeMismatchError,
    VarRef,
    evaluate,
    format_value,
    normalize,
    parse_condition,
    to_text,
    variables,
)
from bpmndiverge.simulation import CaseRecord, CaseTable


class TestParsing:
    def test_or_of_ands_precedence(self):
        ast = parse_condition("a == 1 AND b == 2 OR c == 3")
        assert isinstance(ast, BoolOp) and ast.op == "OR"
        assert isinstance(ast.operands[0], BoolOp) and ast.operands[0].op == "AND"
        assert ast.operands[1] == Compare("c", "==", Decimal(3))

    def test_nary_collection(self):
        ast = parse_condition("a == 1 AND b == 2 AND c == 3")
        assert isinstance(ast, BoolOp) and len(ast.operands) == 3

    def test_parenthesized_subtree_keeps_own_node(self):
        ast = parse_condition("(a == 1 AND b == 2) AND c == 3")
        assert isinstance(ast, BoolOp) and len(ast.operands) == 2
        assert isinstance(ast.operands[0], BoolOp)

    def test_keywords_case_insensitive(self):
        assert parse_condition("a == 1 and NOT (b == 2)") == parse_condition(
            "a == 1 AND not (b == 2)"
        )
        assert parse_condition("true") == Literal(True)

    def test_literal_first_orientation_recorded(self):
        ast = parse_condition("126 <= Fasting_Blood_Glucose")
        assert ast == Compare("Fasting_Blood_Glucose", "<=", Decimal(126), var_on_left=False)

    def test_numeric_literals_are_decimal(self):
        ast = parse_condition("HbA1c >= 6.5")
        assert isinstance(ast.literal, Decimal)
        assert ast.literal == Decimal("6.5")

    def test_negative_number(self):
        assert parse_condition("x < -3.5") == Compare("x", "<", Decimal("-3.5"))

    def test_string_literals(self):
        assert parse_condition("status == \"open\"") == Compare("status", "==", "open")
        assert parse_condition("status != 'a b'") == Compare("status", "!=", "a b")

    def test_bare_variable_and_boolean_atoms(self):
        ast = parse_condition("Flag AND TRUE")
        assert ast == BoolOp("AND", (VarRef("Flag"), Literal(True)))

    def test_not_over_comparison_needs_parens(self):
        with pytest.raises(ConditionParseError) as info:
            parse_condition("NOT x >= 5")
        assert "parenthesized" in str(info.value)
        assert info.value.offset == 6

    def test_not_with_parenthesized_comparison(self):
        ast = parse_condition("NOT (x >= 5)")
        assert ast == Not(Compare("x", ">=", Decimal(5)))

    def test_double_not(self):
        assert parse_condition("NOT NOT Flag") == Not(Not(VarRef("Flag")))

    def test_two_variables_rejected(self):
        with pytest.raises(ConditionParseError, match="two variables"):
            parse_condition("a == b")

    def test_two_literals_rejected(self):
        with pytest.raises(ConditionParseError, match="variable on one side"):
            parse_condition("1 == 2")

    def test_standalone_literal_rejected(self):
        with pytest.raises(ConditionParseError, match="stand alone"):
            parse_condition("42")

    def test_comparison_of_parenthesized_expression_rejected(self):
        with pytest.raises(ConditionParseError):
            parse_condition("(a == 1) == 1")

    def test_trailing_input_rejected(self):
        with pytest.raises(ConditionParseError) as info:
            parse_condition("a == 1 b")
        assert info.value.expected == "end of input"

    def test_unexpected_character_offset(self):
        with pytest.raises(ConditionParseError) as info:
            parse_condition("a == $1")
        assert info.value.offset == 5

    def test_empty_input(self):
        with pytest.raises(ConditionParseError):
            parse_condition("")

    NEGAND = "variable, TRUE, FALSE, or parenthesized expression"

    @pytest.mark.parametrize(
        "text,message,offset,expected",
        [
            ("a == $1", "unexpected character '$'", 5, None),
            ("", "unexpected end of input", 0, "variable or literal"),
            ("(a == 1", "unexpected end of input", 7, "')'"),
            ("a == 1 b", "trailing input 'b'", 7, "end of input"),
            ("NOT 5", "unexpected '5'", 4, NEGAND),
            ("NOT", "unexpected end of input", 3, NEGAND),
            ("NOT TRUE == x", "comparison under NOT must be parenthesized", 9, "AND, OR, or end"),
            ("(a == 1) == 1", "comparison operands must be a variable or a literal", 9, None),
            ("'a' AND x", "literal cannot stand alone", 0, "comparison operator"),
            ("1 == 2", "comparison needs a variable on one side", 2, None),
            ("a == b", "comparison between two variables is not supported", 2, None),
            ("x AND", "unexpected end of input", 5, "variable or literal"),
            ("(" * 33 + "x" + ")" * 33, f"nested deeper than {MAX_NESTING} levels", 32, None),
            (
                "NOT (x OR " * 11 + "x" + ")" * 11,
                f"rendering nests deeper than {MAX_NESTING} levels",
                0,
                None,
            ),
        ],
    )
    def test_each_error_names_its_message_offset_and_expectation(
        self, text, message, offset, expected
    ):
        with pytest.raises(ConditionParseError) as info:
            parse_condition(text)
        assert (info.value.message, info.value.offset, info.value.expected) == (
            message,
            offset,
            expected,
        )


@contextmanager
def frames_to_spare(count: int):
    """Lower the recursion limit to ``count`` frames above the caller's."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + count)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _alternating(levels: int) -> str:
    """``levels`` parenthesized AND/OR levels that normalization cannot flatten."""
    text = "x == 1"
    for level in range(levels):
        text = f"(x {'AND' if level % 2 else 'OR'} {text})"
    return text


class TestNesting:
    DEEPEST = [
        "(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
        "NOT " * MAX_NESTING + "x",
        "NOT (" * (MAX_NESTING // 2) + "x == 1" + ")" * (MAX_NESTING // 2),
        _alternating(MAX_NESTING),
    ]

    @pytest.mark.parametrize("text", DEEPEST)
    def test_the_deepest_conditions_stay_far_below_the_recursion_limit(self, text):
        cases = [CaseRecord("c", {"x": Decimal(1)})]
        with frames_to_spare(300):
            ast = parse_condition(text)
            assert evaluate(ast, cases[0].attributes) is evaluate(normalize(ast), {"x": True})
            assert normalize(parse_condition(to_text(ast))) == normalize(ast)
            CaseTable.of(cases).table(ast)

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("(" * 300 + "x" + ")" * 300, MAX_NESTING),
            ("NOT " * 1000 + "x", 4 * MAX_NESTING),
            ("NOT (" * 300 + "x == 1" + ")" * 300, 5 * (MAX_NESTING // 2)),
            (_alternating(MAX_NESTING + 1), len("(x OR (x AND " * (MAX_NESTING // 2))),
        ],
    )
    def test_deeper_nesting_is_refused_where_it_passes_the_limit(self, text, offset):
        with pytest.raises(ConditionParseError, match=f"deeper than {MAX_NESTING}") as info:
            parse_condition(text)
        assert info.value.offset == offset

    def test_a_condition_whose_rendering_nests_too_deep_is_refused(self):
        # A level of "NOT (x OR ...)" nests twice in the text, but three times
        # rendered, where the OR gets parentheses of its own.
        ast = parse_condition("NOT (x OR " * 10 + "x" + ")" * 10)
        assert parse_condition(to_text(ast)) == ast
        for levels in (11, 16):
            with pytest.raises(ConditionParseError, match=f"deeper than {MAX_NESTING}") as info:
                parse_condition("NOT (x OR " * levels + "x" + ")" * levels)
            assert info.value.offset == 0


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "a == 1",
            "126 <= Fasting_Blood_Glucose",
            "(a == 1 AND b == 2 AND c == 3)",
            "((a == 1 OR b == 2) AND NOT (c >= 3))",
            "NOT NOT Flag",
            "status == \"open\"",
            "(Flag OR x != 0.5)",
            "x >= 1234567890123456789012345678901",
            pytest.param("x >= " + "7" * 1_000_001, id="x >= 1000001 digits"),
        ],
    )
    def test_to_text_is_faithful(self, text):
        ast = parse_condition(text)
        assert parse_condition(to_text(ast)) == ast

    def test_decimal_rendering_drops_trailing_zeros(self):
        assert format_value(Decimal("6.50")) == "6.5"
        assert format_value(Decimal("100")) == "100"
        assert format_value(Decimal("-0.0")) == "0"

    def test_boolean_and_string_rendering(self):
        assert format_value(True) == "TRUE"
        assert format_value("a'b") == "\"a'b\""
        assert format_value('say "hi"') == "'say \"hi\"'"
        with pytest.raises(ValueError):
            format_value("both\"'quotes")

    def test_not_over_compound_is_parenthesized(self):
        assert to_text(Not(Compare("x", ">", Decimal(1)))) == "NOT (x > 1)"
        assert to_text(Not(VarRef("x"))) == "NOT x"


class TestNormalization:
    def test_flattens_same_operator(self):
        ast = parse_condition("(a == 1 AND b == 2) AND c == 3")
        assert normalize(ast) == normalize(parse_condition("a == 1 AND b == 2 AND c == 3"))

    def test_sorts_operands(self):
        assert normalize(parse_condition("b == 2 OR a == 1")) == normalize(
            parse_condition("a == 1 OR b == 2")
        )

    def test_orients_variable_on_left(self):
        assert normalize(parse_condition("126 <= Fasting_Blood_Glucose")) == parse_condition(
            "Fasting_Blood_Glucose >= 126"
        )

    def test_drops_double_negation(self):
        assert normalize(parse_condition("NOT NOT Flag")) == normalize(parse_condition("Flag"))

    def test_no_de_morgan_rewriting(self):
        assert normalize(parse_condition("NOT (a == 1 AND b == 1)")) != normalize(
            parse_condition("NOT (a == 1) OR NOT (b == 1)")
        )

    def test_no_interval_reasoning(self):
        # Semantically equal on integers, canonically distinct on purpose.
        assert normalize(parse_condition("x > 5")) != normalize(parse_condition("x >= 6"))

    def test_duplicate_operands_kept(self):
        ast = normalize(parse_condition("x == 1 OR x == 1"))
        assert isinstance(ast, BoolOp) and len(ast.operands) == 2

    def test_mixed_operators_not_flattened(self):
        ast = normalize(parse_condition("a == 1 AND (b == 2 OR c == 3)"))
        assert isinstance(ast, BoolOp) and ast.op == "AND" and len(ast.operands) == 2


class TestEvaluation:
    ATTRS = {
        "Fasting_Blood_Glucose": Decimal(126),
        "HbA1c": Decimal("6.4"),
        "Flag": True,
        "status": "open",
        "zero": Decimal(0),
    }

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Fasting_Blood_Glucose >= 126", True),
            ("126 <= Fasting_Blood_Glucose", True),
            ("126 >= Fasting_Blood_Glucose", True),
            ("Fasting_Blood_Glucose > 126", False),
            ("HbA1c >= 6.5", False),
            ("HbA1c >= 6.5 OR Fasting_Blood_Glucose >= 126", True),
            ("HbA1c >= 6.5 AND Fasting_Blood_Glucose >= 126", False),
            ("NOT (HbA1c >= 6.5)", True),
            ("Flag == 1", True),
            ("Flag", True),
            ("zero", False),
            ("status == 'open'", True),
            ("status != 'closed'", True),
            ("TRUE AND NOT FALSE", True),
        ],
    )
    def test_truth_table(self, text, expected):
        assert evaluate(parse_condition(text), self.ATTRS) is expected

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError) as info:
            evaluate(parse_condition("absent == 1"), self.ATTRS)
        assert info.value.name == "absent"

    def test_string_ordering_rejected(self):
        with pytest.raises(TypeMismatchError):
            evaluate(parse_condition("status < 'z'"), self.ATTRS)

    def test_string_number_comparison_rejected(self):
        with pytest.raises(TypeMismatchError):
            evaluate(parse_condition("status == 1"), self.ATTRS)

    def test_string_truthiness_rejected(self):
        with pytest.raises(TypeMismatchError):
            evaluate(parse_condition("status"), self.ATTRS)

    def test_variables(self):
        ast = parse_condition("a == 1 AND (b >= 2 OR NOT c)")
        assert variables(ast) == {"a", "b", "c"}


# --- property tests ----------------------------------------------------------

_NAMES = st.sampled_from(["alpha", "beta", "Gamma_1", "x", "Flag_A"])
_NUMBERS = st.integers(-999, 999).map(Decimal) | st.decimals(
    min_value=-100, max_value=100, places=3, allow_nan=False, allow_infinity=False
)
_STRINGS = st.text(alphabet="abc XY_09", max_size=6)
_OPS = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])

_comparisons = st.builds(
    Compare,
    var=_NAMES,
    op=_OPS,
    literal=_NUMBERS | st.booleans() | _STRINGS,
    var_on_left=st.booleans(),
)
_leaves = _comparisons | st.builds(VarRef, _NAMES) | st.builds(Literal, st.booleans())


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.builds(Not, children)
        | st.builds(
            lambda op, operands: BoolOp(op, tuple(operands)),
            st.sampled_from(["AND", "OR"]),
            st.lists(children, min_size=2, max_size=4),
        ),
        max_leaves=8,
    )


_asts = _trees(_leaves)

_numeric_comparisons = st.builds(
    Compare,
    var=_NAMES,
    op=_OPS,
    literal=st.integers(-5, 5).map(Decimal) | st.booleans(),
    var_on_left=st.booleans(),
)
_numeric_asts = _trees(
    _numeric_comparisons | st.builds(VarRef, _NAMES) | st.builds(Literal, st.booleans())
)


@st.composite
def _numeric_ast_and_attrs(draw):
    ast = draw(_numeric_asts)
    attrs = {
        name: draw(st.integers(-5, 5).map(Decimal) | st.booleans())
        for name in sorted(variables(ast))
    }
    return ast, attrs


@given(_asts)
def test_round_trip_through_text(ast):
    assert parse_condition(to_text(ast)) == ast


_condition_texts = st.recursive(
    st.sampled_from(["x", "TRUE", "false", "x == 1", "2 < y", "s != 'a'"]),
    lambda inner: st.builds("({})".format, inner)
    | st.builds("NOT {}".format, inner)
    | st.builds("{} {} {}".format, inner, st.sampled_from(["AND", "OR"]), inner),
    max_leaves=12,
)


@given(_condition_texts)
@example("NOT (x OR " * 16 + "x" + ")" * 16)
@example("NOT (" * 16 + "x" + ")" * 16)
def test_every_accepted_condition_reparses_from_its_rendering(text):
    try:
        ast = parse_condition(text)
    except ConditionParseError:
        return
    assert parse_condition(to_text(ast)) == ast


_TOKENS = st.sampled_from(
    ["NOT", "not", "AND", "OR", "(", ")", "==", "!=", "<=", ">=", "<", ">"]
    + ["x", "Flag_A", "1", "-2.5", "'a'", '"b c"', "TRUE", "false"]
)


@given(st.lists(_TOKENS, max_size=12).map(" ".join))
def test_any_token_string_is_refused_or_reparses_from_its_rendering(text):
    try:
        ast = parse_condition(text)
    except ConditionParseError:
        return
    assert parse_condition(to_text(ast)) == ast


def _shape(ast):
    """The node type of ``ast`` at every level."""
    if isinstance(ast, Not):
        return Not, _shape(ast.operand)
    if isinstance(ast, BoolOp):
        return BoolOp, tuple(map(_shape, ast.operands))
    return type(ast)


def _subtrees(ast):
    yield ast
    for child in (ast.operand,) if isinstance(ast, Not) else getattr(ast, "operands", ()):
        yield from _subtrees(child)


@given(_asts, _asts)
def test_nodes_compare_equal_only_with_the_same_type_at_every_level(a, b):
    # Nodes are tuples and compare as tuples, so equality looks at field
    # values alone; the node types' fields never hold values that collide.
    for x in _subtrees(a):
        for y in _subtrees(b):
            assert x != y or _shape(x) == _shape(y)


@given(_asts)
def test_normalize_idempotent(ast):
    once = normalize(ast)
    assert normalize(once) == once


@given(_asts)
def test_normalized_form_round_trips(ast):
    normalized = normalize(ast)
    assert parse_condition(to_text(normalized)) == normalized


@given(st.lists(_comparisons, min_size=2, max_size=5), st.randoms())
def test_operand_permutation_is_canonical(operands, rng):
    shuffled = list(operands)
    rng.shuffle(shuffled)
    assert normalize(BoolOp("AND", tuple(operands))) == normalize(BoolOp("AND", tuple(shuffled)))


@given(_comparisons)
def test_orientation_flip_is_canonical(comparison):
    flipped = Compare(
        comparison.var, comparison.op, comparison.literal, not comparison.var_on_left
    )
    # Flipping which side the variable is written on changes the meaning, so
    # the canonical-equal counterpart mirrors the operator as well.
    mirror = {"==": "==", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}
    mirrored = Compare(
        comparison.var, mirror[comparison.op], comparison.literal, not comparison.var_on_left
    )
    assert normalize(comparison) == normalize(mirrored)
    if comparison.op in ("<", ">", "<=", ">="):
        assert normalize(comparison) != normalize(flipped)


@given(_numeric_ast_and_attrs())
def test_evaluate_agrees_with_normalized(case):
    ast, attrs = case
    assert evaluate(ast, attrs) == evaluate(normalize(ast), attrs)
