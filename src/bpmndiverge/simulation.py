"""Deterministic single-case token simulation and KPI aggregation.

Each case walks the process graph from the start event.  At an exclusive
gateway the non-default branches are evaluated in document order and the
first enabled one is taken; if none is enabled the default flow is taken.
Tasks append one emission per configured KPI name, sorted lexicographically
within the task.  All numeric work uses exact decimals.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Mapping, Sequence

from .bpmn import NodeKind, ProcessModel
from .conditions import MissingVariableError, TypeMismatchError, Value, evaluate, format_value

KPI_NAMES = ("NC", "HC", "RU", "HI", "CS")

DEFAULT_STEP_CAP = 10_000


class SimulationError(Exception):
    pass


class NoEnabledBranchError(SimulationError):
    def __init__(self, gateway_id: str, case_id: str):
        self.gateway_id = gateway_id
        self.case_id = case_id
        super().__init__(
            f"case {case_id!r}: no enabled branch and no default at gateway {gateway_id!r}"
        )


class StepLimitExceededError(SimulationError):
    def __init__(self, case_id: str, partial: "Trace"):
        self.case_id = case_id
        self.partial = partial
        super().__init__(f"case {case_id!r}: step limit exceeded after {len(partial.steps)} steps")


class CaseDataError(Exception):
    """Raised for malformed case population input."""


@dataclass(frozen=True)
class CaseRecord:
    case_id: str
    attributes: Mapping[str, Value]


@dataclass(frozen=True)
class Trace:
    """One completed walk.  ``flows`` holds the taken flow ids, one per step
    transition, so branch decisions can be replayed without re-evaluation."""

    case_id: str
    steps: tuple[str, ...]
    flows: tuple[str, ...]
    emissions: tuple[tuple[str, str], ...]  # (task id, kpi name)
    truncated: bool = False


@dataclass(frozen=True)
class KpiSequence:
    """Ordered (task label, kpi name) pairs for cross-model comparison."""

    case_id: str
    pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class KpiConfig:
    guidance_capacity: int = 50
    overload_penalty_alpha: Decimal = Decimal("0.5")
    response_rate: Decimal = Decimal("0.30")
    cost_saving_per_improved_patient: Decimal = Decimal("1000")
    kpi_task_tags: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.guidance_capacity <= 0:
            raise ValueError("guidance_capacity must be positive")
        if not Decimal(0) <= self.overload_penalty_alpha <= Decimal(1):
            raise ValueError("overload_penalty_alpha must be in [0, 1]")
        if not Decimal(0) <= self.response_rate <= Decimal(1):
            raise ValueError("response_rate must be in [0, 1]")
        if self.cost_saving_per_improved_patient < 0:
            raise ValueError("cost_saving_per_improved_patient must be nonnegative")


@dataclass(frozen=True)
class KpiVector:
    """Ordered kpi-name -> decimal map; NC, HC, RU, HI, CS by default."""

    values: tuple[tuple[str, Decimal], ...]

    def __getitem__(self, name: str) -> Decimal:
        for key, value in self.values:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.values)

    def quantized(self, round_decimals: int) -> "KpiVector":
        exponent = Decimal(1).scaleb(-round_decimals)
        return KpiVector(
            tuple((k, v.quantize(exponent, rounding=ROUND_HALF_EVEN)) for k, v in self.values)
        )

    def label(self) -> str:
        return ";".join(f"{k}={format_value(v)}" for k, v in self.values)

    def as_json_dict(self) -> dict[str, str]:
        return {k: format_value(v) for k, v in self.values}


@dataclass(frozen=True)
class PopulationResult:
    traces: tuple[Trace, ...]
    kpis: KpiVector
    errors: tuple[tuple[str, str], ...]  # (case id, message)
    cases_total: int


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


def load_cases_csv(text: str) -> list[CaseRecord]:
    """Load a case population from CSV text.  Header row required; the first
    column must be ``case_id`` and ids must be unique."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise CaseDataError("empty case population file")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "case_id":
        raise CaseDataError("first column of the header must be 'case_id'")
    cases: list[CaseRecord] = []
    seen: set[str] = set()
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise CaseDataError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
        case_id = row[0].strip()
        if not case_id:
            raise CaseDataError(f"line {line_no}: empty case_id")
        if case_id in seen:
            raise CaseDataError(f"line {line_no}: duplicate case_id {case_id!r}")
        seen.add(case_id)
        attributes = {header[i]: parse_cell(row[i]) for i in range(1, len(header))}
        cases.append(CaseRecord(case_id, attributes))
    if not cases:
        raise CaseDataError("case population has a header but no rows")
    return cases


def execute_case(
    model: ProcessModel, case: CaseRecord, *, step_cap: int = DEFAULT_STEP_CAP
) -> Trace:
    """Walk one case through the model.  Deterministic; raises on a gateway
    with no enabled branch and no default, or when the step cap is hit."""
    steps: list[str] = [model.start_node]
    flows: list[str] = []
    emissions: list[tuple[str, str]] = []
    current = model.node(model.start_node)
    while True:
        if current.kind is NodeKind.TASK and current.kpi_outputs:
            for kpi in sorted(current.kpi_outputs):
                emissions.append((current.id, kpi))
        if current.kind is NodeKind.END_EVENT:
            return Trace(case.case_id, tuple(steps), tuple(flows), tuple(emissions))
        if len(steps) > step_cap:
            partial = Trace(
                case.case_id, tuple(steps), tuple(flows), tuple(emissions), truncated=True
            )
            raise StepLimitExceededError(case.case_id, partial)
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


def kpi_sequence(trace: Trace, model: ProcessModel) -> KpiSequence:
    """Project a trace onto (task label, kpi name) pairs in execution order."""
    return KpiSequence(
        trace.case_id,
        tuple((model.node(task_id).label, kpi) for task_id, kpi in trace.emissions),
    )


def aggregate_kpis(
    traces: Sequence[Trace], cases_total: int, config: KpiConfig
) -> KpiVector:
    """Population-level KPI vector from per-case emissions.

    NC is the total count of NC emissions; HC the number of distinct cases
    with at least one HC emission; RU the guidance load capped by the
    overload penalty; HI and CS the improvement and cost-saving projections.
    """
    if cases_total <= 0:
        raise ValueError("cases_total must be positive")
    nc = 0
    hc_cases: set[str] = set()
    for trace in traces:
        for _task, kpi in trace.emissions:
            if kpi == "NC":
                nc += 1
            elif kpi == "HC":
                hc_cases.add(trace.case_id)
    hc = len(hc_cases)
    load = Decimal(hc) / Decimal(config.guidance_capacity)
    if load <= 1:
        ru = load
    else:
        ru = max(Decimal(0), Decimal(1) - config.overload_penalty_alpha * (load - Decimal(1)))
    hi = (Decimal(hc) * config.response_rate) / Decimal(cases_total)
    cs = Decimal(hc) * config.response_rate * config.cost_saving_per_improved_patient
    return KpiVector(
        (
            ("NC", Decimal(nc)),
            ("HC", Decimal(hc)),
            ("RU", ru),
            ("HI", hi),
            ("CS", cs),
        )
    )


def simulate_population(
    model: ProcessModel,
    cases: Sequence[CaseRecord],
    config: KpiConfig,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
) -> PopulationResult:
    """Simulate every case sequentially.  Per-case failures are collected with
    their case id; aggregation runs over the successful traces only, while the
    HI denominator stays the full population size."""
    if not cases:
        raise CaseDataError("case population is empty")
    traces: list[Trace] = []
    errors: list[tuple[str, str]] = []
    for case in cases:
        try:
            traces.append(execute_case(model, case, step_cap=step_cap))
        except (SimulationError, MissingVariableError, TypeMismatchError) as exc:
            errors.append((case.case_id, str(exc)))
    kpis = aggregate_kpis(traces, len(cases), config)
    return PopulationResult(tuple(traces), kpis, tuple(errors), len(cases))
