"""Small programmatic process models shared across test modules."""

from __future__ import annotations

from bpmndiverge.bpmn import Node, NodeKind, ProcessModel, SequenceFlow
from bpmndiverge.conditions import parse_condition


def start(node_id: str, label: str = "Start") -> Node:
    return Node(node_id, NodeKind.START_EVENT, label)


def end(node_id: str, label: str = "Done") -> Node:
    return Node(node_id, NodeKind.END_EVENT, label)


def task(node_id: str, label: str, kpi: tuple[str, ...] = ()) -> Node:
    return Node(node_id, NodeKind.TASK, label, kpi)


def gateway(node_id: str, label: str = "") -> Node:
    return Node(node_id, NodeKind.EXCLUSIVE_GATEWAY, label)


def flow(
    flow_id: str,
    source: str,
    target: str,
    condition: str | None = None,
    default: bool = False,
) -> SequenceFlow:
    parsed = parse_condition(condition) if condition is not None else None
    return SequenceFlow(flow_id, source, target, parsed, default)


def model(model_id: str, nodes, flows) -> ProcessModel:
    return ProcessModel(model_id, tuple(nodes), tuple(flows))


def loop_model() -> ProcessModel:
    """Loops t -> g -> t forever while Loop == 1."""
    return model(
        "looper",
        [start("s"), task("t", "Work", ("NC",)), gateway("g", "Again?"), end("e")],
        [
            flow("f1", "s", "t"),
            flow("f2", "t", "g"),
            flow("f3", "g", "t", "Loop == 1"),
            flow("f4", "g", "e", default=True),
        ],
    )


def branch_model(condition: str, *, model_id: str = "brancher") -> ProcessModel:
    """One gateway routing to a Yes or No task by the given condition."""
    return model(
        model_id,
        [
            start("s"),
            gateway("g", "Decide"),
            task("ty", "Yes step", ("NC",)),
            task("tn", "No step", ("NC",)),
            end("e"),
        ],
        [
            flow("f1", "s", "g"),
            flow("fy", "g", "ty", condition),
            flow("fn", "g", "tn", default=True),
            flow("fy2", "ty", "e"),
            flow("fn2", "tn", "e"),
        ],
    )


def repeated_call_pair() -> tuple[ProcessModel, ProcessModel]:
    """``Call`` then end, against ``Call``, a gateway on ``x == 1`` and a
    second ``Call``.  Where x == 1 the second model emits the same (Call, NC)
    pair twice, so the two emit equal sets of pairs but unequal sequences."""
    once = model(
        "once",
        [start("s"), task("t1", "Call", ("NC",)), end("e")],
        [flow("f1", "s", "t1"), flow("f2", "t1", "e")],
    )
    twice = model(
        "twice",
        [
            start("s"),
            task("t1", "Call", ("NC",)),
            gateway("g", "Again?"),
            task("t2", "Call", ("NC",)),
            end("e"),
        ],
        [
            flow("f1", "s", "t1"),
            flow("f2", "t1", "g"),
            flow("f3", "g", "t2", "x == 1"),
            flow("f4", "g", "e", default=True),
            flow("f5", "t2", "e"),
        ],
    )
    return once, twice
