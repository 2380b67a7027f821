"""Executable BPMN subset: model types, XML parsing, serialization, validation.

The supported vocabulary is startEvent, endEvent, task, exclusiveGateway and
sequenceFlow.  Anything else in the BPMN model namespace is rejected; elements
from foreign namespaces (diagram interchange, vendor extensions) are ignored.
Tasks carry KPI emissions through the extension attribute ``kpi:outputs``
(semicolon-separated names, namespace ``urn:bpmndiverge:kpi``); branch
conditions live in standard ``conditionExpression`` children in the grammar
implemented by :mod:`bpmndiverge.conditions`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping
from xml.parsers import expat

from .conditions import ConditionAst, ConditionParseError, parse_condition, to_text

NS_MODEL = "http://www.omg.org/spec/BPMN/20100524/MODEL"
NS_KPI = "urn:bpmndiverge:kpi"

_SUPPORTED = {"startEvent", "endEvent", "task", "exclusiveGateway", "sequenceFlow"}


class ModelError(Exception):
    """Base class for model construction and parsing failures."""


class XmlSyntaxError(ModelError):
    pass


class UnsupportedElementError(ModelError):
    def __init__(self, element: str):
        self.element = element
        super().__init__(f"unsupported element <{element}>")


class DanglingReferenceError(ModelError):
    pass


class InvalidModelError(ModelError):
    pass


class GatewayConditionError(ModelError):
    """Condition text on a flow failed to parse."""

    def __init__(self, flow_id: str, source_id: str, cause: ConditionParseError):
        self.flow_id = flow_id
        self.source_id = source_id
        self.cause = cause
        super().__init__(f"flow {flow_id!r} from {source_id!r}: {cause}")


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


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    label: str
    kpi_outputs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kpi_outputs and self.kind is not NodeKind.TASK:
            raise InvalidModelError(f"node {self.id!r}: kpi outputs on non-task")
        if len(set(self.kpi_outputs)) != len(self.kpi_outputs):
            raise InvalidModelError(f"node {self.id!r}: duplicate kpi outputs")


@dataclass(frozen=True)
class SequenceFlow:
    id: str
    source: str
    target: str
    condition: ConditionAst | None = None
    is_default: bool = False

    def __post_init__(self):
        if self.is_default and self.condition is not None:
            raise InvalidModelError(f"flow {self.id!r}: default flow cannot carry a condition")


@dataclass(frozen=True)
class GatewayView:
    """Per-gateway routing summary derived from the model."""

    gateway_id: str
    label: str
    branches: tuple[tuple[str, ConditionAst | None], ...]  # non-default flows, document order
    default_flow: str | None


@dataclass(frozen=True)
class ProcessModel:
    """Immutable process graph.  Node and flow tuples preserve document order."""

    model_id: str
    nodes: tuple[Node, ...]
    flows: tuple[SequenceFlow, ...]
    start_node: str
    metadata: Mapping[str, str] = field(default_factory=dict, compare=False)
    _by_id: dict = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]
    _outgoing: dict = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        by_id: dict[str, Node] = {}
        for node in self.nodes:
            if node.id in by_id:
                raise InvalidModelError(f"duplicate node id {node.id!r}")
            by_id[node.id] = node
        outgoing: dict[str, list[SequenceFlow]] = {n.id: [] for n in self.nodes}
        flow_ids: set[str] = set()
        for flow in self.flows:
            if flow.id in flow_ids:
                raise InvalidModelError(f"duplicate flow id {flow.id!r}")
            flow_ids.add(flow.id)
            for ref in (flow.source, flow.target):
                if ref not in by_id:
                    raise DanglingReferenceError(
                        f"flow {flow.id!r} references unknown node {ref!r}"
                    )
            if flow.condition is not None and by_id[flow.source].kind is not NodeKind.EXCLUSIVE_GATEWAY:
                raise InvalidModelError(
                    f"flow {flow.id!r}: condition on flow from non-gateway {flow.source!r}"
                )
            outgoing[flow.source].append(flow)
        starts = [n for n in self.nodes if n.kind is NodeKind.START_EVENT]
        if len(starts) != 1:
            raise InvalidModelError(f"model {self.model_id!r}: expected exactly one start event")
        if self.start_node != starts[0].id:
            raise InvalidModelError(f"start_node {self.start_node!r} is not the start event")
        if not any(n.kind is NodeKind.END_EVENT for n in self.nodes):
            raise InvalidModelError(f"model {self.model_id!r}: no end event")
        for node in self.nodes:
            if node.kind is not NodeKind.END_EVENT and not outgoing[node.id]:
                raise InvalidModelError(f"node {node.id!r} has no outgoing flow")
        for node in self.nodes:
            defaults = [f for f in outgoing[node.id] if f.is_default]
            if defaults and node.kind is not NodeKind.EXCLUSIVE_GATEWAY:
                raise InvalidModelError(f"default flow on non-gateway {node.id!r}")
            if len(defaults) > 1:
                raise InvalidModelError(f"gateway {node.id!r} has multiple default flows")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_outgoing", {k: tuple(v) for k, v in outgoing.items()})

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def outgoing(self, node_id: str) -> tuple[SequenceFlow, ...]:
        return self._outgoing[node_id]

    @property
    def end_nodes(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind is NodeKind.END_EVENT)


@dataclass(frozen=True)
class Issue:
    node_id: str
    category: IssueCategory
    detail: str


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _namespace(tag: str) -> str:
    if tag.startswith("{"):
        return tag[1:].split("}", 1)[0]
    return ""


def _kpi_outputs(elem: ET.Element, label: str, kpi_task_tags: Mapping[str, str] | None) -> tuple[str, ...]:
    raw = elem.get(f"{{{NS_KPI}}}outputs")
    if raw is None:
        raw = elem.get("outputs")
    if raw is not None:
        return tuple(part for part in (p.strip() for p in raw.split(";")) if part)
    if kpi_task_tags:
        matched = [
            kpi for kpi, rule in sorted(kpi_task_tags.items()) if rule.lower() in label.lower()
        ]
        return tuple(matched)
    return ()


def _is_process(tag: str, depth: int) -> bool:
    """Whether ``tag`` at ``depth`` is a ``process`` root (0) or a ``process``
    child of it (1) in the model namespace or none; the first one is the model's."""
    ns_ok = depth == 0 or depth == 1 and _namespace(tag) in (NS_MODEL, "")
    return ns_ok and _local(tag) == "process"


def _process(xml_text: str) -> ET.Element:
    """The ``<process>`` element of BPMN XML (``_is_process``)."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise XmlSyntaxError(str(exc)) from exc
    for depth, element in ((0, root), *((1, child) for child in root)):
        if _is_process(element.tag, depth):
            return element
    raise InvalidModelError("no <process> element found")


def _process_id(process: Mapping[str, str] | ET.Element) -> str:
    return process.get("id") or "process"


def model_id(xml_text: str) -> str:
    """The id ``parse_bpmn`` gives the model in ``xml_text``, with the checks
    and errors of ``_process``: one expat pass that reads to the end, but
    stops looking at elements once it has found the ``<process>``."""
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
        raise XmlSyntaxError(str(exc)) from exc
    if not found:
        raise InvalidModelError("no <process> element found")
    return _process_id(found[0])


def parse_bpmn(xml_text: str, kpi_task_tags: Mapping[str, str] | None = None) -> ProcessModel:
    """Parse BPMN XML into a ProcessModel.

    ``kpi_task_tags`` is the fallback mapping kpi-name -> label substring used
    when a task has no explicit ``kpi:outputs`` attribute.
    """
    process = _process(xml_text)
    nodes: list[Node] = []
    flows: list[tuple[ET.Element, str]] = []  # element, id
    defaults: dict[str, str] = {}  # gateway id -> default flow id
    kind_by_tag = {tag: kind for kind, tag in _TAG_BY_KIND.items()}
    for child in process:
        ns = _namespace(child.tag)
        if ns not in (NS_MODEL, ""):
            continue  # foreign namespace, e.g. diagram interchange
        local = _local(child.tag)
        if local not in _SUPPORTED:
            raise UnsupportedElementError(local)
        elem_id = child.get("id")
        if not elem_id:
            raise InvalidModelError(f"<{local}> without id")
        if local == "sequenceFlow":
            flows.append((child, elem_id))
            continue
        label = child.get("name", "")
        kind = kind_by_tag[local]
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
            raise InvalidModelError(f"flow {flow_id!r} missing sourceRef/targetRef")
        condition: ConditionAst | None = None
        for sub in elem:
            if _local(sub.tag) == "conditionExpression":
                text = (sub.text or "").strip()
                if not text:
                    raise InvalidModelError(f"flow {flow_id!r}: empty condition expression")
                try:
                    condition = parse_condition(text)
                except ConditionParseError as exc:
                    raise GatewayConditionError(flow_id, source, exc) from exc
        is_default = defaults.get(source) == flow_id
        built_flows.append(SequenceFlow(flow_id, source, target, condition, is_default))

    for gateway_id, flow_ref in defaults.items():
        if not any(f.id == flow_ref and f.source == gateway_id for f in built_flows):
            raise DanglingReferenceError(
                f"gateway {gateway_id!r} default references unknown flow {flow_ref!r}"
            )

    starts = [n for n in nodes if n.kind is NodeKind.START_EVENT]
    if len(starts) != 1:
        raise InvalidModelError("expected exactly one start event")
    metadata: dict[str, str] = {}
    name = process.get("name")
    if name:
        metadata["name"] = name
    return ProcessModel(
        model_id=_process_id(process),
        nodes=tuple(nodes),
        flows=tuple(built_flows),
        start_node=starts[0].id,
        metadata=metadata,
    )


def escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` without its ``urllib.request`` import."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """``xml.sax.saxutils.quoteattr``: an escaped attribute value with its
    quotes, which are single when the value holds only a double quote."""
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


_TAG_BY_KIND = {
    NodeKind.START_EVENT: "startEvent",
    NodeKind.END_EVENT: "endEvent",
    NodeKind.TASK: "task",
    NodeKind.EXCLUSIVE_GATEWAY: "exclusiveGateway",
}


def serialize_bpmn(model: ProcessModel) -> str:
    """Serialize to BPMN XML.  Reparsing yields an equal model, id for id and
    condition AST for condition AST."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<bpmn:definitions xmlns:bpmn={quoteattr(NS_MODEL)} xmlns:kpi={quoteattr(NS_KPI)}'
        f' targetNamespace="urn:bpmndiverge:process">',
    ]
    name = model.metadata.get("name")
    name_attr = f" name={quoteattr(name)}" if name else ""
    lines.append(f'  <bpmn:process id={quoteattr(model.model_id)}{name_attr} isExecutable="true">')
    default_by_gateway = {
        f.source: f.id for f in model.flows if f.is_default
    }
    for node in model.nodes:
        tag = _TAG_BY_KIND[node.kind]
        attrs = [f"id={quoteattr(node.id)}"]
        if node.label:
            attrs.append(f"name={quoteattr(node.label)}")
        if node.kind is NodeKind.EXCLUSIVE_GATEWAY and node.id in default_by_gateway:
            attrs.append(f"default={quoteattr(default_by_gateway[node.id])}")
        if node.kpi_outputs:
            attrs.append(f"kpi:outputs={quoteattr(';'.join(node.kpi_outputs))}")
        lines.append(f"    <bpmn:{tag} {' '.join(attrs)}/>")
    for flow in model.flows:
        attrs = (
            f"id={quoteattr(flow.id)} sourceRef={quoteattr(flow.source)}"
            f" targetRef={quoteattr(flow.target)}"
        )
        if flow.condition is None:
            lines.append(f"    <bpmn:sequenceFlow {attrs}/>")
        else:
            lines.append(f"    <bpmn:sequenceFlow {attrs}>")
            lines.append(
                f"      <bpmn:conditionExpression>{escape(to_text(flow.condition))}"
                "</bpmn:conditionExpression>"
            )
            lines.append("    </bpmn:sequenceFlow>")
    lines.append("  </bpmn:process>")
    lines.append("</bpmn:definitions>")
    return "\n".join(lines) + "\n"


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
