"""Gateway condition language: parsing, canonicalization, evaluation.

Branch conditions are boolean expressions over named case attributes.
The grammar, in EBNF (also documented in the README):

    expr        = or_expr ;
    or_expr     = and_expr , { OR , and_expr } ;
    and_expr    = negation , { AND , negation } ;
    negation    = NOT , negation | atom ;
    atom        = "(" , expr , ")" | comparison | var | TRUE | FALSE ;
    comparison  = operand , cmp_op , operand ;
    operand     = var | literal ;
    cmp_op      = "==" | "!=" | "<=" | ">=" | "<" | ">" ;
    literal     = number | string | TRUE | FALSE ;

Precedence is NOT > comparison > AND > OR.  Keywords are case-insensitive,
identifiers match ``[A-Za-z_][A-Za-z0-9_]*``, and numeric literals are exact
decimals (no binary floating point anywhere in the pipeline).  Exactly one
side of a comparison must be a variable; a comparison under NOT must be
parenthesized because NOT binds tighter than the comparison operators.
Parentheses and NOTs nest at most ``MAX_NESTING`` deep, counted together,
in the text and in its rendering (``to_text``).

Normalization is purely syntactic: it flattens nested same-operator
conjunctions/disjunctions, sorts operands by their canonical rendering,
drops double negation, and orients comparisons variable-on-left (mirroring
the operator when the source had the literal first).  No logical rewriting
such as De Morgan expansion or interval reasoning is performed, so two
conditions may be semantically equivalent yet canonically distinct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Callable, Iterator, Mapping, Union

Value = Union[Decimal, bool, str]

_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")
# Deep enough for any real condition, shallow enough that parsing and every
# recursive walk of the AST stay far below the default recursion limit.
MAX_NESTING = 32
_MIRROR = {"==": "==", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


class ConditionParseError(Exception):
    """Raised when condition text does not match the grammar."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        self.message = message
        self.offset = offset
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"at offset {offset}: {message}{hint}")


class MissingVariableError(Exception):
    """A condition references an attribute absent from the case record."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} not present in case record")


class TypeMismatchError(Exception):
    """A condition applies an operator to incompatible value types."""

    def __init__(self, name: str, expected: str, found: str):
        self.name = name
        self.expected = expected
        self.found = found
        super().__init__(f"variable {name!r}: expected {expected}, found {found}")


@dataclass(frozen=True)
class Literal:
    """Standalone boolean constant (TRUE or FALSE)."""

    value: bool


@dataclass(frozen=True)
class VarRef:
    """Bare variable reference, coerced to boolean at evaluation time."""

    name: str


@dataclass(frozen=True)
class Compare:
    """Single comparison between one variable and one literal.

    ``var_on_left`` records the source orientation; normalization always
    produces variable-on-left with the operator mirrored as needed.
    """

    var: str
    op: str
    literal: Value
    var_on_left: bool = True


@dataclass(frozen=True)
class Not:
    operand: "ConditionAst"


@dataclass(frozen=True)
class BoolOp:
    """N-ary AND/OR.  Parenthesized subexpressions keep their own node."""

    op: str  # "AND" | "OR"
    operands: tuple["ConditionAst", ...]


ConditionAst = Union[Literal, VarRef, Compare, Not, BoolOp]


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<op>==|!=|<=|>=|<|>)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<number>-?(?:\d+(?:\.\d+)?|\.\d+))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"]*"|'[^']*')
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "true", "false"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ConditionParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        value = m.group()
        if kind == "ident" and value.lower() in _KEYWORDS:
            kind = value.lower()
        yield _Token(kind, value, m.start())
    yield _Token("end", "", len(text))


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.depth = 0  # parentheses and NOTs open around the current token

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ConditionParseError(
                f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.offset,
                expected,
            )
        return self.advance()

    def _nested(self, parse: Callable[[], ConditionAst]) -> ConditionAst:
        """Consume the "(" or NOT that opens a level, then ``parse()`` inside it."""
        tok = self.advance()
        if self.depth == MAX_NESTING:
            raise ConditionParseError(f"nested deeper than {MAX_NESTING} levels", tok.offset)
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def parse(self) -> ConditionAst:
        ast = self.or_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ConditionParseError(
                f"trailing input {tok.text!r}", tok.offset, "end of input"
            )
        return ast

    def or_expr(self) -> ConditionAst:
        operands = [self.and_expr()]
        while self.peek().kind == "or":
            self.advance()
            operands.append(self.and_expr())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("OR", tuple(operands))

    def and_expr(self) -> ConditionAst:
        operands = [self.negation()]
        while self.peek().kind == "and":
            self.advance()
            operands.append(self.negation())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("AND", tuple(operands))

    def negation(self) -> ConditionAst:
        if self.peek().kind == "not":
            return Not(self._nested(self._negand))
        return self.atom()

    def _negand(self) -> ConditionAst:
        # NOT binds tighter than comparison, so "NOT x >= 5" is rejected
        # rather than silently negating the comparison.
        if self.peek().kind == "not":
            return Not(self._nested(self._negand))
        tok = self.peek()
        if tok.kind == "lparen":
            return self._parenthesized()
        if tok.kind in ("true", "false"):
            self.advance()
            self._reject_comparison_continuation()
            return Literal(tok.kind == "true")
        if tok.kind == "ident":
            self.advance()
            self._reject_comparison_continuation()
            return VarRef(tok.text)
        raise ConditionParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.offset,
            "variable, TRUE, FALSE, or parenthesized expression",
        )

    def _reject_comparison_continuation(self) -> None:
        tok = self.peek()
        if tok.kind == "op":
            raise ConditionParseError(
                "comparison under NOT must be parenthesized", tok.offset, "AND, OR, or end"
            )

    def _parenthesized(self) -> ConditionAst:
        inner = self._nested(self.or_expr)
        self.expect("rparen", "')'")
        if self.peek().kind == "op":
            tok = self.peek()
            raise ConditionParseError(
                "comparison operands must be a variable or a literal", tok.offset
            )
        return inner

    def atom(self) -> ConditionAst:
        tok = self.peek()
        if tok.kind == "lparen":
            return self._parenthesized()
        left = self._operand()
        if self.peek().kind != "op":
            # Standalone operand: only a variable or boolean keyword is valid.
            if left[0] == "var":
                return VarRef(left[1])
            if left[0] == "bool":
                return Literal(left[1])
            raise ConditionParseError(
                "literal cannot stand alone", tok.offset, "comparison operator"
            )
        op_tok = self.advance()
        right = self._operand()
        left_is_var = left[0] == "var"
        right_is_var = right[0] == "var"
        if left_is_var and right_is_var:
            raise ConditionParseError(
                "comparison between two variables is not supported", op_tok.offset
            )
        if not left_is_var and not right_is_var:
            raise ConditionParseError(
                "comparison needs a variable on one side", op_tok.offset
            )
        if left_is_var:
            return Compare(left[1], op_tok.text, right[1], var_on_left=True)  # type: ignore
        return Compare(right[1], op_tok.text, left[1], var_on_left=False)  # type: ignore

    def _operand(self) -> tuple[str, object]:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return ("var", tok.text)
        if tok.kind == "number":
            self.advance()
            try:
                return ("number", Decimal(tok.text))
            except InvalidOperation:  # pragma: no cover - regex precludes this
                raise ConditionParseError(f"bad number {tok.text!r}", tok.offset)
        if tok.kind == "string":
            self.advance()
            return ("string", tok.text[1:-1])
        if tok.kind in ("true", "false"):
            self.advance()
            return ("bool", tok.kind == "true")
        raise ConditionParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.offset,
            "variable or literal",
        )


def parse_condition(text: str) -> ConditionAst:
    """Parse condition text into an AST, without normalization.  An AST whose
    ``to_text`` nests past ``MAX_NESTING`` is refused, so each re-parses."""
    ast = _Parser(text).parse()
    if _rendered_depth(ast) > MAX_NESTING:
        raise ConditionParseError(f"rendering nests deeper than {MAX_NESTING} levels", 0)
    return ast


def _rendered_depth(ast: ConditionAst) -> int:
    """The parentheses and NOTs that ``to_text(ast)`` nests, as the parser counts them."""
    if isinstance(ast, Not):  # "NOT (...)" over a comparison or an AND/OR
        return 1 + isinstance(ast.operand, (Compare, BoolOp)) + _rendered_depth(ast.operand)
    return 1 + max(map(_rendered_depth, ast.operands)) if isinstance(ast, BoolOp) else 0


# --- canonical rendering -----------------------------------------------------


def format_value(value: Value) -> str:
    """Render a literal exactly; decimals drop trailing zeros."""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, Decimal):
        text = format(value.normalize(), "f")
        return "0" if text == "-0" else text
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    raise ValueError("string literal cannot contain both quote kinds")


def to_text(ast: ConditionAst) -> str:
    """Stable single-line rendering.  Faithful: re-parsing yields an equal AST
    for every condition ``parse_condition`` accepts."""
    if isinstance(ast, Literal):
        return "TRUE" if ast.value else "FALSE"
    if isinstance(ast, VarRef):
        return ast.name
    if isinstance(ast, Compare):
        lit = format_value(ast.literal)
        if ast.var_on_left:
            return f"{ast.var} {ast.op} {lit}"
        return f"{lit} {ast.op} {ast.var}"
    if isinstance(ast, Not):
        inner = to_text(ast.operand)
        if isinstance(ast.operand, (Compare, BoolOp)):
            return f"NOT ({inner})"
        return f"NOT {inner}"
    if isinstance(ast, BoolOp):
        return "(" + f" {ast.op} ".join(to_text(o) for o in ast.operands) + ")"
    raise TypeError(f"not a condition node: {ast!r}")


# --- normalization -----------------------------------------------------------


def normalize(ast: ConditionAst) -> ConditionAst:
    """Canonicalize: flatten, sort operands, drop double negation, orient
    comparisons variable-on-left.  Idempotent and purely syntactic."""
    if isinstance(ast, (Literal, VarRef)):
        return ast
    if isinstance(ast, Compare):
        if ast.var_on_left:
            return ast
        return Compare(ast.var, _MIRROR[ast.op], ast.literal, var_on_left=True)
    if isinstance(ast, Not):
        inner = normalize(ast.operand)
        if isinstance(inner, Not):
            return inner.operand
        return Not(inner)
    if isinstance(ast, BoolOp):
        flat: list[ConditionAst] = []
        for operand in ast.operands:
            norm = normalize(operand)
            if isinstance(norm, BoolOp) and norm.op == ast.op:
                flat.extend(norm.operands)
            else:
                flat.append(norm)
        flat.sort(key=to_text)
        return BoolOp(ast.op, tuple(flat))
    raise TypeError(f"not a condition node: {ast!r}")


def variables(ast: ConditionAst) -> set[str]:
    """All variable names referenced by the condition."""
    if isinstance(ast, Literal):
        return set()
    if isinstance(ast, VarRef):
        return {ast.name}
    if isinstance(ast, Compare):
        return {ast.var}
    if isinstance(ast, Not):
        return variables(ast.operand)
    if isinstance(ast, BoolOp):
        out: set[str] = set()
        for operand in ast.operands:
            out |= variables(operand)
        return out
    raise TypeError(f"not a condition node: {ast!r}")


# --- evaluation --------------------------------------------------------------


def _type_name(value: Value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, Decimal):
        return "number"
    return "string"


def _as_number(value: Value) -> Decimal | None:
    # Booleans compare equal to 1/0 numerics.
    if isinstance(value, bool):
        return Decimal(1) if value else Decimal(0)
    if isinstance(value, Decimal):
        return value
    return None


def _compare(node: Compare, actual: Value) -> bool:
    # The source may have the literal first; evaluate with the variable on
    # the left and the operator mirrored accordingly.
    op = node.op if node.var_on_left else _MIRROR[node.op]
    left = _as_number(actual)
    right = _as_number(node.literal)
    if left is not None and right is not None:
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    if isinstance(actual, str) and isinstance(node.literal, str):
        if op == "==":
            return actual == node.literal
        if op == "!=":
            return actual != node.literal
        raise TypeMismatchError(node.var, "number for ordering comparison", "string")
    raise TypeMismatchError(node.var, _type_name(node.literal), _type_name(actual))


def evaluate(ast: ConditionAst, attributes: Mapping[str, Value]) -> bool:
    """Evaluate against case attributes.  Requires every referenced variable."""
    if isinstance(ast, Literal):
        return ast.value
    if isinstance(ast, VarRef):
        if ast.name not in attributes:
            raise MissingVariableError(ast.name)
        value = attributes[ast.name]
        if isinstance(value, bool):
            return value
        if isinstance(value, Decimal):
            return value != 0
        raise TypeMismatchError(ast.name, "boolean", "string")
    if isinstance(ast, Compare):
        if ast.var not in attributes:
            raise MissingVariableError(ast.var)
        return _compare(ast, attributes[ast.var])
    if isinstance(ast, Not):
        return not evaluate(ast.operand, attributes)
    if isinstance(ast, BoolOp):
        results = [evaluate(o, attributes) for o in ast.operands]
        return all(results) if ast.op == "AND" else any(results)
    raise TypeError(f"not a condition node: {ast!r}")
