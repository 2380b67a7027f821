"""Write a ``ProcessModel`` as BPMN XML in the subset ``bpmndiverge.bpmn`` reads.

The pipeline only reads models; this writer serves the family generator,
the tests and the CI steps that build models in code and need them on disk.
Reparsing its output with ``parse_bpmn`` yields an equal model.
"""

from __future__ import annotations

from bpmndiverge.bpmn import NS_KPI, NS_MODEL, NodeKind, ProcessModel
from bpmndiverge.conditions import to_text

TAG_BY_KIND = {
    NodeKind.START_EVENT: "startEvent",
    NodeKind.END_EVENT: "endEvent",
    NodeKind.TASK: "task",
    NodeKind.EXCLUSIVE_GATEWAY: "exclusiveGateway",
}


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


def serialize_bpmn(model: ProcessModel, name: str | None = None) -> str:
    """Serialize to BPMN XML, with ``name`` as the process name when given.
    Reparsing yields an equal model, id for id and condition AST for
    condition AST."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<bpmn:definitions xmlns:bpmn={quoteattr(NS_MODEL)} xmlns:kpi={quoteattr(NS_KPI)}'
        f' targetNamespace="urn:bpmndiverge:process">',
    ]
    name_attr = f" name={quoteattr(name)}" if name else ""
    lines.append(f'  <bpmn:process id={quoteattr(model.model_id)}{name_attr} isExecutable="true">')
    default_by_gateway = {
        f.source: f.id for f in model.flows if f.is_default
    }
    for node in model.nodes:
        tag = TAG_BY_KIND[node.kind]
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
