"""Executable BPMN subset: model types, XML parsing, validation.

The supported vocabulary is startEvent, endEvent, task, exclusiveGateway and
sequenceFlow.  Anything else in the BPMN model namespace is rejected; elements
from foreign namespaces (diagram interchange, vendor extensions) are ignored.
Tasks carry KPI emissions through the extension attribute ``kpi:outputs``
(semicolon-separated names, namespace ``urn:bpmndiverge:kpi``); branch
conditions live in standard ``conditionExpression`` children in the grammar
implemented by :mod:`bpmndiverge.conditions`.  ``ProcessModel`` checks its nodes and flows.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from enum import Enum
from typing import Mapping, NamedTuple
from xml.parsers import expat

from .conditions import ConditionAst, ConditionParseError, parse_condition

NS_MODEL = "http://www.omg.org/spec/BPMN/20100524/MODEL"
NS_KPI = "urn:bpmndiverge:kpi"
# What an ElementTree tag in the model namespace, or in none, has before its "}".
_MODEL_PREFIXES = ("{" + NS_MODEL, "")


class ModelError(Exception):
    """A model that cannot be read or built: bad XML, an unsupported element,
    a dangling reference, an unparsable condition or a broken invariant."""


class NodeKind(str, Enum):
    START_EVENT = "start_event"
    END_EVENT = "end_event"
    TASK = "task"
    EXCLUSIVE_GATEWAY = "exclusive_gateway"


class IssueCategory(str, Enum):
    UNREACHABLE = "unreachable"
    NO_TERMINATION = "no_termination"
    NO_DEFAULT_PATH = "no_default_path"
    UNCONDITIONED_BRANCH = "unconditioned_branch"


class Node(NamedTuple):
    id: str
    kind: NodeKind
    label: str
    kpi_outputs: tuple[str, ...] = ()


class SequenceFlow(NamedTuple):
    id: str
    source: str
    target: str
    condition: ConditionAst | None = None
    is_default: bool = False


class GatewayView(NamedTuple):
    """Per-gateway routing summary derived from the model."""

    gateway_id: str
    label: str
    branches: tuple[tuple[str, ConditionAst | None], ...]  # non-default flows, document order
    default_flow: str | None


class ProcessModel:
    """Process graph; node and flow tuples preserve document order.  Treat it
    as immutable: its nodes and flows are checked, and its indexes built, at
    construction."""

    __slots__ = ("model_id", "nodes", "flows", "start_node", "_by_id", "_outgoing")

    def __init__(self, model_id: str, nodes: tuple[Node, ...], flows: tuple[SequenceFlow, ...]):
        self.model_id, self.nodes, self.flows = model_id, nodes, flows
        by_id: dict[str, Node] = {}
        for node in self.nodes:
            if node.id in by_id:
                raise ModelError(f"duplicate node id {node.id!r}")
            if node.kpi_outputs and node.kind is not NodeKind.TASK:
                raise ModelError(f"node {node.id!r}: kpi outputs on non-task")
            if len(set(node.kpi_outputs)) != len(node.kpi_outputs):
                raise ModelError(f"node {node.id!r}: duplicate kpi outputs")
            by_id[node.id] = node
        outgoing: dict[str, list[SequenceFlow]] = {n.id: [] for n in self.nodes}
        flow_ids: set[str] = set()
        for flow in self.flows:
            if flow.is_default and flow.condition is not None:
                raise ModelError(f"flow {flow.id!r}: default flow cannot carry a condition")
            if flow.id in flow_ids:
                raise ModelError(f"duplicate flow id {flow.id!r}")
            flow_ids.add(flow.id)
            for ref in (flow.source, flow.target):
                if ref not in by_id:
                    raise ModelError(f"flow {flow.id!r} references unknown node {ref!r}")
            if flow.condition is not None and by_id[flow.source].kind is not NodeKind.EXCLUSIVE_GATEWAY:
                raise ModelError(
                    f"flow {flow.id!r}: condition on flow from non-gateway {flow.source!r}"
                )
            outgoing[flow.source].append(flow)
        starts = [n for n in self.nodes if n.kind is NodeKind.START_EVENT]
        if len(starts) != 1:
            raise ModelError(f"model {self.model_id!r}: expected exactly one start event")
        self.start_node = starts[0].id
        if not any(n.kind is NodeKind.END_EVENT for n in self.nodes):
            raise ModelError(f"model {self.model_id!r}: no end event")
        for node in self.nodes:
            if node.kind is not NodeKind.END_EVENT and not outgoing[node.id]:
                raise ModelError(f"node {node.id!r} has no outgoing flow")
        for node in self.nodes:
            defaults = [f for f in outgoing[node.id] if f.is_default]
            if defaults and node.kind is not NodeKind.EXCLUSIVE_GATEWAY:
                raise ModelError(f"default flow on non-gateway {node.id!r}")
            if len(defaults) > 1:
                raise ModelError(f"gateway {node.id!r} has multiple default flows")
        self._by_id = by_id
        self._outgoing = {k: tuple(v) for k, v in outgoing.items()}

    def _key(self) -> tuple:
        return self.model_id, self.nodes, self.flows

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is ProcessModel else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"ProcessModel{self._key()!r}"

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def outgoing(self, node_id: str) -> tuple[SequenceFlow, ...]:
        return self._outgoing[node_id]

    @property
    def end_nodes(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind is NodeKind.END_EVENT)


class Issue(NamedTuple):
    node_id: str
    category: IssueCategory
    detail: str


def _kpi_outputs(elem: ET.Element, label: str, kpi_task_tags: Mapping[str, str] | None) -> tuple[str, ...]:
    raw = elem.get(f"{{{NS_KPI}}}outputs")
    if raw is None:
        raw = elem.get("outputs")
    if raw is not None:
        outputs = tuple(filter(None, map(str.strip, raw.split(";"))))
        for name in outputs:
            if name not in ("NC", "HC"):  # the KPIs a task emits; the rest derive from HC
                raise ModelError(f"task {elem.get('id')!r}: kpi output {name!r} is not NC or HC")
        return outputs
    if kpi_task_tags:
        matched = [
            kpi for kpi, rule in sorted(kpi_task_tags.items()) if rule.lower() in label.lower()
        ]
        return tuple(matched)
    return ()


def _is_process(tag: str, depth: int) -> bool:
    """Whether ``tag`` at ``depth`` is a ``process`` root (0) or a ``process``
    child of it (1) in the model namespace or none; the first one is the model's."""
    prefix, _brace, local = tag.rpartition("}")
    return (depth == 0 or depth == 1 and prefix in _MODEL_PREFIXES) and local == "process"


def _process(xml_text: str) -> ET.Element:
    """The ``<process>`` element of BPMN XML (``_is_process``)."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise ModelError(str(exc)) from exc
    for depth, element in ((0, root), *((1, child) for child in root)):
        if _is_process(element.tag, depth):
            return element
    raise ModelError("no <process> element found")


def _process_id(process: Mapping[str, str] | ET.Element) -> str:
    return process.get("id") or "process"


def model_id(xml_text: str) -> str:
    """The id ``parse_bpmn`` gives the model in ``xml_text``, with the checks
    and errors of ``_process``: one expat pass that reads to the end, but
    stops looking at elements once it has found the ``<process>``.  An
    ``ET.XMLParser(target=...)`` pass would need no DOCTYPE branch, but calls
    its Python target per element: it read the 100 ``family_original`` ids in
    4.3-6.3 ms against this pass's 2.1-2.3 ms (best of 15, 2-core Xeon)."""
    if "<!DOCTYPE" in xml_text:  # ElementTree refuses entity references there that expat allows
        return _process_id(_process(xml_text))
    parser = expat.ParserCreate(namespace_separator="}")
    found: list[Mapping[str, str]] = []
    open_elements: list[str] = []

    def start(name: str, attributes: Mapping[str, str]) -> None:
        # expat names "namespace}local" what ElementTree tags "{namespace}local".
        if _is_process("{" + name if "}" in name else name, len(open_elements)):
            found.append(attributes)
            parser.StartElementHandler = parser.EndElementHandler = None
        open_elements.append(name)

    parser.StartElementHandler, parser.EndElementHandler = start, lambda _: open_elements.pop()
    try:
        parser.Parse(xml_text, True)
    except expat.ExpatError as exc:
        raise ModelError(str(exc)) from exc
    if not found:
        raise ModelError("no <process> element found")
    return _process_id(found[0])


_KIND_BY_TAG = {
    "startEvent": NodeKind.START_EVENT,
    "endEvent": NodeKind.END_EVENT,
    "task": NodeKind.TASK,
    "exclusiveGateway": NodeKind.EXCLUSIVE_GATEWAY,
}


def parse_bpmn(
    xml_text: str, kpi_task_tags: Mapping[str, str] | None = None, conditions: dict | None = None
) -> ProcessModel:
    """Parse BPMN XML into a ProcessModel.

    ``kpi_task_tags`` is the fallback mapping kpi-name -> label substring used
    when a task has no explicit ``kpi:outputs`` attribute.  ``conditions``
    maps condition texts to their ASTs; a text is parsed only when it is not
    there and then added, so the models parsed with one dict share ASTs.
    """
    process = _process(xml_text)
    conditions = {} if conditions is None else conditions
    nodes: list[Node] = []
    flows: list[tuple[ET.Element, str]] = []  # element, id
    defaults: dict[str, str] = {}  # gateway id -> default flow id
    for child in process:
        prefix, _brace, local = child.tag.rpartition("}")
        if prefix not in _MODEL_PREFIXES:
            continue  # foreign namespace, e.g. diagram interchange
        kind = _KIND_BY_TAG.get(local)
        if kind is None and local != "sequenceFlow":
            raise ModelError(f"unsupported element <{local}>")
        elem_id = child.get("id")
        if not elem_id:
            raise ModelError(f"<{local}> without id")
        if kind is None:
            flows.append((child, elem_id))
            continue
        label = child.get("name", "")
        kpi = _kpi_outputs(child, label, kpi_task_tags) if kind is NodeKind.TASK else ()
        nodes.append(Node(elem_id, kind, label, kpi))
        if kind is NodeKind.EXCLUSIVE_GATEWAY:
            default_ref = child.get("default")
            if default_ref:
                defaults[elem_id] = default_ref

    built_flows: list[SequenceFlow] = []
    for elem, flow_id in flows:
        source = elem.get("sourceRef")
        target = elem.get("targetRef")
        if not source or not target:
            raise ModelError(f"flow {flow_id!r} missing sourceRef/targetRef")
        condition: ConditionAst | None = None
        for sub in elem:
            if sub.tag.rpartition("}")[2] == "conditionExpression":
                text = (sub.text or "").strip()
                if not text:
                    raise ModelError(f"flow {flow_id!r}: empty condition expression")
                try:  # an AST is a non-empty tuple, so a cached one is true
                    condition = conditions[text] = conditions.get(text) or parse_condition(text)
                except ConditionParseError as exc:
                    raise ModelError(f"flow {flow_id!r} from {source!r}: {exc}") from exc
        is_default = defaults.get(source) == flow_id
        built_flows.append(SequenceFlow(flow_id, source, target, condition, is_default))

    default_sources = {flow.source for flow in built_flows if flow.is_default}
    for gateway_id, flow_ref in defaults.items():
        if gateway_id not in default_sources:
            raise ModelError(f"gateway {gateway_id!r} default references unknown flow {flow_ref!r}")

    return ProcessModel(_process_id(process), tuple(nodes), tuple(built_flows))


def gateways(model: ProcessModel) -> list[GatewayView]:
    """GatewayViews in document order; branches in document order of flows."""
    views = []
    for node in model.nodes:
        if node.kind is not NodeKind.EXCLUSIVE_GATEWAY:
            continue
        branches = []
        default_flow = None
        for flow in model.outgoing(node.id):
            if flow.is_default:
                default_flow = flow.id
            else:
                branches.append((flow.id, flow.condition))
        views.append(GatewayView(node.id, node.label, tuple(branches), default_flow))
    return views


def _reachable(model: ProcessModel, start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        for flow in model.outgoing(current):
            if flow.target not in seen:
                seen.add(flow.target)
                stack.append(flow.target)
    return seen


def validate_structure(model: ProcessModel) -> list[Issue]:
    """Structural diagnostics beyond the type invariants.  Pure; issue order
    is deterministic (document order, reachability before gateway checks)."""
    issues: list[Issue] = []
    reachable = _reachable(model, model.start_node)
    incoming: dict[str, list[str]] = {n.id: [] for n in model.nodes}
    for flow in model.flows:
        incoming[flow.target].append(flow.source)
    can_end: set[str] = set(model.end_nodes)
    frontier = list(can_end)
    while frontier:
        current = frontier.pop()
        for source in incoming[current]:
            if source not in can_end:
                can_end.add(source)
                frontier.append(source)
    for node in model.nodes:
        if node.id not in reachable:
            issues.append(Issue(node.id, IssueCategory.UNREACHABLE, "not reachable from start"))
        if node.id not in can_end:
            issues.append(Issue(node.id, IssueCategory.NO_TERMINATION, "no path to any end event"))
    for view in gateways(model):
        conditioned = [b for b in view.branches if b[1] is not None]
        unconditioned = [b for b in view.branches if b[1] is None]
        total = len(view.branches) + (1 if view.default_flow else 0)
        if total == 1 and not view.default_flow and len(unconditioned) == 1:
            continue  # pass-through gateway
        if unconditioned:
            issues.append(
                Issue(
                    view.gateway_id,
                    IssueCategory.UNCONDITIONED_BRANCH,
                    f"unconditioned non-default branches: {', '.join(b[0] for b in unconditioned)}",
                )
            )
        if conditioned and not view.default_flow:
            issues.append(
                Issue(
                    view.gateway_id,
                    IssueCategory.NO_DEFAULT_PATH,
                    "conditioned branches without a default path",
                )
            )
    return issues
