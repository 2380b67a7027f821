"""Deterministic token simulation and KPI aggregation.

Each case walks the process graph from the start event.  At an exclusive
gateway the non-default branches are evaluated in document order and the
first enabled one is taken; if none is enabled the default flow is taken.
Tasks append one emission per configured KPI name, sorted lexicographically
within the task.  All numeric work uses exact decimals.

``execute_case`` walks one case and is the reference semantics.
``simulate_population`` gets the same KPIs, errors and walks for any model by
walking classes of cases, each an integer mask over the population: the cases
that have taken the same flows walk together, and a class splits at a gateway
into one class per branch its members take, so each path is walked once.
A condition leaf is evaluated once per distinct value of its variable, keyed
by the value's type and the value; ``CaseTable.table`` memoizes each
condition's masks, so every model simulated over one table shares them.
"""

from __future__ import annotations

import csv
import io
import operator
import re
from decimal import Decimal
from functools import reduce
from itertools import compress
from types import MappingProxyType
from typing import Callable, Collection, Mapping, NamedTuple, Sequence

from .bpmn import NodeKind, ProcessModel
from .conditions import (
    BoolOp,
    Compare,
    ConditionAst,
    Literal,
    MissingVariableError,
    Not,
    TypeMismatchError,
    Value,
    evaluate,
    format_value,
    to_text,
)


class SimulationError(Exception):
    pass


class NoEnabledBranchError(SimulationError):
    def __init__(self, gateway_id: str, case_id: str):
        self.gateway_id = gateway_id
        self.case_id = case_id
        super().__init__(
            f"case {case_id!r}: no enabled branch and no default at gateway {gateway_id!r}"
        )


class EndlessLoopError(SimulationError):
    """A case came back to ``node_id``.  Its attributes do not change during
    a walk and routing is deterministic, so it would go round forever."""

    def __init__(self, case_id: str, node_id: str):
        self.case_id = case_id
        self.node_id = node_id
        super().__init__(
            f"case {case_id!r}: loops through node {node_id!r} and never reaches an end event"
        )


class CaseDataError(Exception):
    """Raised for malformed case population input."""


# What a single case can fail with: it is reported, and the population goes on.
CASE_ERRORS = (SimulationError, MissingVariableError, TypeMismatchError)


class CaseRecord(NamedTuple):
    case_id: str
    attributes: Mapping[str, Value]


Table = tuple[int, int, Mapping[int, str]]


class CaseTable(Sequence[CaseRecord]):
    """A case population as columns: the ids, and each attribute's value per
    case (``None`` where a case lacks it).  Indexing builds a ``CaseRecord``.

    ``table`` gives a condition's outcomes over the population as bitmasks;
    bit ``i`` of a mask stands for case ``i``.  A condition's table is
    ``(true, error, messages)``: the cases on which it holds, the cases on
    which evaluating it raises, and the message of each such error.  A leaf is
    evaluated once per group of its variable (``_groups``), a literal once;
    ``Not`` and ``BoolOp`` tables are composed from their operands'.  Like
    ``evaluate``, a ``BoolOp`` fails wherever any operand fails, with the
    message of its first failing operand.

    Tables are memoized by the condition's source rendering.  Neither AST
    equality nor the normal form would do: ``x == TRUE`` equals ``x == 1``
    as a tuple but fails with another message on a string cell, and
    normalizing reorders operands, which changes which error comes first.
    Models built together share ASTs, so an AST is first looked up by
    identity, and kept so that its id is not reused.
    """

    def __init__(self, ids: list[str], columns: dict[str, list[Value | None]]):
        self.ids, self.columns = ids, columns
        self.everyone = (1 << len(ids)) - 1
        self._grouped: dict[str, tuple[list[dict[str, Value]], list[int]]] = {}
        self._tables: dict[str, Table] = {}
        self._by_object: dict[int, tuple[ConditionAst, Table]] = {}

    @classmethod
    def of(cls, cases: Sequence[CaseRecord]) -> "CaseTable":
        if isinstance(cases, CaseTable):
            return cases
        names = dict.fromkeys(name for case in cases for name in case.attributes)
        columns = {name: [case.attributes.get(name) for case in cases] for name in names}
        return cls([case.case_id for case in cases], columns)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> CaseRecord:  # type: ignore[override]
        cells = {name: column[index] for name, column in self.columns.items()}
        return CaseRecord(self.ids[index], {k: v for k, v in cells.items() if v is not None})

    def _groups(self, name: str) -> tuple[list[dict[str, Value]], list[int]]:
        """The distinct values of ``name``, each as the attributes to evaluate
        on ({} where ``name`` is missing), and each case's group number.  Values
        group by type and value: ``True == Decimal(1)`` fails with other
        messages, while ``Decimal("5")`` and ``Decimal("5.0")`` share."""
        if name not in self._grouped:
            numbers: dict[tuple[type, Value | None], int] = {}
            column = self.columns.get(name) or [None] * len(self.ids)
            codes = [numbers.setdefault((type(value), value), len(numbers)) for value in column]
            values = [{} if value is None else {name: value} for _type, value in numbers]
            self._grouped[name] = values, codes
        return self._grouped[name]

    def table(self, ast: ConditionAst) -> Table:
        pinned = self._by_object.get(id(ast))
        if pinned is None:
            key = to_text(ast)  # a table is a non-empty tuple, so a memoized one is true
            table = self._tables[key] = self._tables.get(key) or self._build(ast)
            pinned = self._by_object[id(ast)] = ast, table
        return pinned[1]

    def _build(self, ast: ConditionAst) -> Table:
        if isinstance(ast, Not):
            true, error, messages = self.table(ast.operand)
            return self.everyone & ~(true | error), error, messages
        if isinstance(ast, BoolOp):
            operands = [self.table(operand) for operand in ast.operands]
            combine = operator.and_ if ast.op == "AND" else operator.or_
            error = reduce(operator.or_, (e for _t, e, _m in operands))
            merged: dict[int, str] = {}
            for _true, _error, messages in operands:
                for index, message in messages.items():
                    merged.setdefault(index, message)
            return reduce(combine, (t for t, _e, _m in operands)) & ~error, error, merged
        if isinstance(ast, Literal):
            values, codes = [{}], [0] * len(self.ids)
        else:
            values, codes = self._groups(ast.var if isinstance(ast, Compare) else ast.name)
        holds, fails = bytearray(b"0") * len(values), bytearray(b"0") * len(values)
        failures: dict[int, str] = {}  # group number -> message
        for number, attributes in enumerate(values):
            try:
                if evaluate(ast, attributes):
                    holds[number] = ord("1")
            except (MissingVariableError, TypeMismatchError) as exc:
                fails[number] = ord("1")
                failures[number] = str(exc)
        error = _mask(bytes(map(fails.__getitem__, codes))) if failures else 0
        messages = {index: failures[codes[index]] for index in _indices(error)}
        return _mask(bytes(map(holds.__getitem__, codes))), error, messages


class Trace(NamedTuple):
    """One completed walk.  ``flows`` holds the taken flow ids, one per step
    transition, so branch decisions can be replayed without re-evaluation."""

    case_id: str
    steps: tuple[str, ...]
    flows: tuple[str, ...]
    emissions: tuple[tuple[str, str], ...]  # (task id, kpi name)


KpiSequence = tuple[tuple[str, str], ...]  # (task label, kpi name) pairs, in walk order


class KpiConfig(NamedTuple):
    """KPI parameters; ``config.build_run_config`` checks their ranges."""

    guidance_capacity: int = 50
    overload_penalty_alpha: Decimal = Decimal("0.5")
    response_rate: Decimal = Decimal("0.30")
    cost_saving_per_improved_patient: Decimal = Decimal("1000")
    kpi_task_tags: Mapping[str, str] = MappingProxyType({})


class KpiVector(NamedTuple):
    """A population's five KPIs, as exact decimals."""

    NC: Decimal
    HC: Decimal
    RU: Decimal
    HI: Decimal
    CS: Decimal

    def as_json_dict(self) -> dict[str, str]:
        return {k: format_value(v) for k, v in zip(self._fields, self)}

    def label(self) -> str:
        return ";".join(f"{k}={v}" for k, v in self.as_json_dict().items())


KPI_NAMES = KpiVector._fields


class CasePath(NamedTuple):
    """One distinct path through a model: the mask of the cases that take it
    (bit ``i`` stands for ``cases[i]``) and its walk, under the id of the
    first of them."""

    members: int
    walk: Trace


class PopulationResult(NamedTuple):
    paths: tuple[CasePath, ...]  # of the successful cases, by first case
    kpis: KpiVector
    errors: tuple[tuple[str, str], ...]  # (case id, message)


_NUMBER_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def parse_cell(text: str) -> Value:
    """CSV cell typing: numerics become decimals, true/false booleans,
    anything else stays a string."""
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if _NUMBER_RE.match(stripped):
        return Decimal(stripped)
    return stripped


def read_csv_table(
    text: str, source: str, key: str, rule: str, columns: Collection[str] | None = None
) -> tuple[list[str], list[list[str]]]:
    """The stripped header and the non-blank rows of a CSV table.  The header
    must be ``key`` followed by distinct, non-empty column names (exactly
    ``columns``, when given), which ``rule`` states; every row has one cell
    per column and a distinct, non-empty ``key`` cell.  Errors are
    ``CaseDataError`` messages that start with ``source``."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise CaseDataError(f"{source} line {reader.line_num}: {exc}") from None
    if not rows:
        raise CaseDataError(f"{source} is empty")
    header = [name.strip() for name in rows[0]]
    names = header[1:]
    if (
        header[:1] != [key]
        or "" in names
        or len(set(names)) != len(names)
        or (columns is not None and sorted(names) != sorted(columns))
    ):
        raise CaseDataError(f"{source} header must be {key} plus {rule}")
    table: list[list[str]] = []
    seen: set[str] = set()
    for line_no, row in enumerate(rows[1:], start=2):
        if not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise CaseDataError(
                f"{source} line {line_no}: expected {len(header)} cells, got {len(row)}"
            )
        row_key = row[0].strip()
        if not row_key:
            raise CaseDataError(f"{source} line {line_no}: empty {key}")
        if row_key in seen:
            raise CaseDataError(f"{source} row {row[0]!r}: duplicate {key}")
        seen.add(row_key)
        table.append(row)
    if not table:
        raise CaseDataError(f"{source} has a header but no rows")
    return header, table


def load_cases_csv(text: str, source: str = "case population") -> CaseTable:
    """Load a case population from CSV text whose header is ``case_id`` and
    distinct attribute names, parsing each distinct cell once; ``source``
    names the input in errors."""
    header, rows = read_csv_table(text, source, "case_id", "distinct, non-empty column names")
    ids, *cells = (list(map(operator.itemgetter(i), rows)) for i in range(len(header)))
    parsed = {cell: parse_cell(cell) for cell in set().union(*cells)}
    return CaseTable(
        [case_id.strip() for case_id in ids],
        {name: list(map(parsed.__getitem__, column)) for name, column in zip(header[1:], cells)},
    )


def _emissions(model: ProcessModel, steps: Sequence[str]) -> tuple[tuple[str, str], ...]:
    """The (task id, kpi name) emissions of a walk over ``steps``: one per KPI
    of each task, sorted within the task."""
    return tuple(
        (node_id, kpi) for node_id in steps for kpi in sorted(model.node(node_id).kpi_outputs)
    )


def execute_case(model: ProcessModel, case: CaseRecord) -> Trace:
    """Walk one case through the model.  Deterministic; raises on a gateway
    with no enabled branch and no default, or on a walk that loops."""
    steps: list[str] = [model.start_node]
    flows: list[str] = []
    current = model.node(model.start_node)
    bound = len(model.nodes)
    while current.kind is not NodeKind.END_EVENT:
        if len(steps) > bound:
            # Some node came twice; the lead-in and the loop hold at most
            # ``bound`` distinct nodes, so the current one is on the loop.
            raise EndlessLoopError(case.case_id, current.id)
        out = model.outgoing(current.id)
        if current.kind is NodeKind.EXCLUSIVE_GATEWAY:
            chosen = None
            default = None
            for flow in out:
                if flow.is_default:
                    default = flow
                    continue
                if flow.condition is None or evaluate(flow.condition, case.attributes):
                    chosen = flow
                    break
            if chosen is None:
                chosen = default
            if chosen is None:
                raise NoEnabledBranchError(current.id, case.case_id)
        else:
            chosen = out[0]
        flows.append(chosen.id)
        steps.append(chosen.target)
        current = model.node(chosen.target)
    return Trace(case.case_id, tuple(steps), tuple(flows), _emissions(model, steps))


def kpi_sequence(trace: Trace, model: ProcessModel) -> KpiSequence:
    """Project a trace onto (task label, kpi name) pairs in execution order."""
    return tuple((model.node(task_id).label, kpi) for task_id, kpi in trace.emissions)


def aggregate_kpis(
    traces: Sequence[Trace], cases_total: int, config: KpiConfig
) -> KpiVector:
    """Population-level KPI vector from per-case emissions.

    NC is the total count of NC emissions; HC the number of distinct cases
    with at least one HC emission; RU the guidance load capped by the
    overload penalty; HI and CS the improvement and cost-saving projections.
    """
    nc = 0
    hc_cases: set[str] = set()
    for trace in traces:
        for _task, kpi in trace.emissions:
            if kpi == "NC":
                nc += 1
            elif kpi == "HC":
                hc_cases.add(trace.case_id)
    return _kpi_vector(nc, len(hc_cases), cases_total, config)


def _kpi_vector(nc: int, hc: int, cases_total: int, config: KpiConfig) -> KpiVector:
    """The KPI vector of a population with ``nc`` NC emissions and ``hc``
    cases that emitted HC."""
    if cases_total <= 0:
        raise ValueError("cases_total must be positive")
    load = Decimal(hc) / Decimal(config.guidance_capacity)
    if load <= 1:
        ru = load
    else:
        ru = max(Decimal(0), Decimal(1) - config.overload_penalty_alpha * (load - Decimal(1)))
    hi = (Decimal(hc) * config.response_rate) / Decimal(cases_total)
    cs = Decimal(hc) * config.response_rate * config.cost_saving_per_improved_patient
    return KpiVector(Decimal(nc), Decimal(hc), ru, hi, cs)


def _mask(bits: bytes) -> int:
    """The int whose bit ``i`` is set where ``bits[i]`` is ``"1"``."""
    return int(b"0" + bits[::-1], 2)


def _bits(mask: int) -> bytes:
    """Byte ``i`` is bit ``i`` of ``mask`` (0 or 1), up to its highest set bit."""
    return bin(mask)[:1:-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))


def _indices(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first, picked in C from its ``_bits``."""
    return list(compress(range(mask.bit_length()), _bits(mask)))


def case_ids(cases: CaseTable, members: int) -> tuple[str, ...]:
    """The ids of the cases whose bits are set in ``members``, in case order."""
    return tuple(compress(cases.ids, _bits(members)))


def _walk_paths(model: ProcessModel, cases: CaseTable) -> tuple[list[CasePath], dict[int, str]]:
    """Each path that reaches an end event, with the mask of its cases, and
    the error of each case, by index, that fails.

    A class starts as the whole population on the start event and splits at
    a gateway into one class per branch its members take, trying the flows
    as ``execute_case`` does.  Attributes do not change during a walk, so a
    class that comes back to a gateway takes the branch it took before: it
    splits at most once per gateway, and one that comes back to any node
    goes round forever.  Like ``execute_case``, a class fails with
    ``EndlessLoopError`` once its walk is longer than the model has nodes.
    """
    ended: list[CasePath] = []
    failures: dict[int, str] = {}

    def fail(mask: int, message: Callable[[int], str]) -> None:
        for index in _indices(mask):
            failures[index] = message(index)

    ids = cases.ids
    bound = len(model.nodes)
    # (members, steps, flows) of each class still walking
    stack: list[tuple[int, list[str], list[str]]] = [(cases.everyone, [model.start_node], [])]
    while stack:
        members, steps, flows = stack.pop()
        node = model.node(steps[-1])
        if node.kind is NodeKind.END_EVENT:
            first = ids[(members & -members).bit_length() - 1]
            walk = Trace(first, tuple(steps), tuple(flows), _emissions(model, steps))
            ended.append(CasePath(members, walk))
            continue
        if len(steps) > bound:
            fail(members, lambda i: str(EndlessLoopError(ids[i], node.id)))
            continue
        # Only a gateway's flows carry conditions and defaults, so any other
        # node passes the whole class to its first flow.
        taken, rest, default = [], members, None
        for flow in model.outgoing(node.id):
            if flow.is_default:
                default = flow
            elif rest and flow.condition is None:
                taken.append((flow, rest))
                rest = 0
            elif rest:
                true, error, messages = cases.table(flow.condition)
                fail(rest & error, messages.__getitem__)
                taken.append((flow, rest & true))
                rest &= ~(true | error)
        if rest and default is not None:
            taken.append((default, rest))
        elif rest:
            fail(rest, lambda i: str(NoEnabledBranchError(node.id, ids[i])))
        taken = [(flow, mask) for flow, mask in taken if mask]
        # Only a split copies the walk so far; the first branch extends it
        # in place, so a class is not copied at every step.
        for flow, mask in taken[1:]:
            stack.append((mask, [*steps, flow.target], [*flows, flow.id]))
        if taken:
            flow, mask = taken[0]
            steps.append(flow.target)
            flows.append(flow.id)
            stack.append((mask, steps, flows))
    return ended, failures


def simulate_population(
    model: ProcessModel, cases: Sequence[CaseRecord], config: KpiConfig
) -> PopulationResult:
    """Simulate every case.  Per-case failures are collected with their case
    id, in case order; aggregation runs over the successful cases only, while
    the HI denominator stays the full population size.

    Cases walk by classes over the condition tables of ``cases``, which every
    call given the same ``CaseTable`` shares.  Each successful path is listed
    once, with the mask of its cases, and counts its NC and HC once for each.
    """
    if not cases:
        raise CaseDataError("case population is empty")
    cases = CaseTable.of(cases)
    paths, failures = _walk_paths(model, cases)
    nc = hc = 0
    for members, walk in paths:
        kpis = [kpi for _task, kpi in walk.emissions]
        nc += members.bit_count() * kpis.count("NC")
        hc += members.bit_count() if "HC" in kpis else 0
    return PopulationResult(
        # The lowest set bit of a class is its first case.
        tuple(sorted(paths, key=lambda path: path.members & -path.members)),
        _kpi_vector(nc, hc, len(cases), config),
        tuple((cases.ids[index], failures[index]) for index in sorted(failures)),
    )
