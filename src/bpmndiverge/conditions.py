"""Gateway condition language: parsing, canonicalization, evaluation.

Branch conditions are boolean expressions over named case attributes.
The grammar, in EBNF (also documented in the README):

    expr        = or_expr ;
    or_expr     = and_expr , { OR , and_expr } ;
    and_expr    = negation , { AND , negation } ;
    negation    = NOT , negand | atom ;
    negand      = NOT , negand | "(" , expr , ")" | var | TRUE | FALSE ;
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

import operator
import re
from decimal import Decimal
from typing import Callable, Iterator, Mapping, NamedTuple, NoReturn, Union

Value = Union[Decimal, bool, str]

# Deep enough for any real condition, shallow enough that parsing and every
# recursive walk of the AST stay far below the default recursion limit.
MAX_NESTING = 32
_MIRROR = {"==": "==", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}
_OPERATORS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}


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


class Literal(NamedTuple):
    """Standalone boolean constant (TRUE or FALSE)."""

    value: bool


class VarRef(NamedTuple):
    """Bare variable reference, coerced to boolean at evaluation time."""

    name: str


class Compare(NamedTuple):
    """Single comparison between one variable and one literal.

    ``var_on_left`` records the source orientation; normalization always
    produces variable-on-left with the operator mirrored as needed.
    """

    var: str
    op: str
    literal: Value
    var_on_left: bool = True


class Not(NamedTuple):
    operand: "ConditionAst"


class BoolOp(NamedTuple):
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


class _Token(NamedTuple):
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

    def fail(self, expected: str) -> NoReturn:
        tok = self.peek()
        found = f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input"
        raise ConditionParseError(found, tok.offset, expected)

    def _nested(self, parse: Callable[..., ConditionAst], *args: bool) -> ConditionAst:
        """Consume the "(" or NOT that opens a level, then ``parse(*args)`` inside it."""
        tok = self.advance()
        if self.depth == MAX_NESTING:
            raise ConditionParseError(f"nested deeper than {MAX_NESTING} levels", tok.offset)
        self.depth += 1
        inner = parse(*args)
        self.depth -= 1
        return inner

    def parse(self) -> ConditionAst:
        ast = self.or_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ConditionParseError(f"trailing input {tok.text!r}", tok.offset, "end of input")
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

    def negation(self, negated: bool = False) -> ConditionAst:
        """``negation`` of the grammar, or ``negand`` when ``negated``: NOT
        binds tighter than comparison, so "NOT x >= 5" is rejected rather than
        silently negating the comparison."""
        tok = self.peek()
        if tok.kind == "not":
            return Not(self._nested(self.negation, True))
        if tok.kind == "lparen":
            inner = self._nested(self.or_expr)
            if self.peek().kind != "rparen":
                self.fail("')'")
            self.advance()
            if self.peek().kind == "op":
                raise ConditionParseError(
                    "comparison operands must be a variable or a literal", self.peek().offset
                )
            return inner
        if negated and tok.kind not in ("ident", "true", "false"):
            self.fail("variable, TRUE, FALSE, or parenthesized expression")
        is_var, left = self._operand()
        op_tok = self.peek()
        if op_tok.kind != "op":
            # Standalone operand: only a variable or boolean keyword is valid.
            if is_var:
                return VarRef(left)  # type: ignore[arg-type]
            if isinstance(left, bool):
                return Literal(left)
            raise ConditionParseError("literal cannot stand alone", tok.offset, "comparison operator")
        if negated:
            raise ConditionParseError(
                "comparison under NOT must be parenthesized", op_tok.offset, "AND, OR, or end"
            )
        self.advance()
        right_is_var, right = self._operand()
        if is_var == right_is_var:
            both = "between two variables is not supported" if is_var else "needs a variable on one side"
            raise ConditionParseError(f"comparison {both}", op_tok.offset)
        var, literal = (left, right) if is_var else (right, left)
        return Compare(var, op_tok.text, literal, var_on_left=is_var)  # type: ignore[arg-type]

    def _operand(self) -> tuple[bool, Value]:
        """(is_variable, value) of a variable or literal token."""
        tok = self.peek()
        if tok.kind not in ("ident", "number", "string", "true", "false"):
            self.fail("variable or literal")
        self.advance()
        if tok.kind == "ident":
            return True, tok.text
        if tok.kind == "number":
            return False, Decimal(tok.text)
        if tok.kind == "string":
            return False, tok.text[1:-1]
        return False, tok.kind == "true"


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
    """Render a literal exactly, at any length; decimals drop trailing
    fractional zeros.  (``Decimal.normalize`` would round to the context's
    28 digits.)"""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, Decimal):
        text = format(value, "f")
        if "." in text:
            text = text.rstrip("0").rstrip(".")
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
        return _OPERATORS[op](left, right)
    if isinstance(actual, str) and isinstance(node.literal, str):
        if op in ("==", "!="):
            return _OPERATORS[op](actual, node.literal)
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
