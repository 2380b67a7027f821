"""Model parsing, serialization, and structural validation."""

from decimal import Decimal
from xml.sax import saxutils

import pytest
from hypothesis import example, given, strategies as st

from bpmndiverge.bpmn import (
    DanglingReferenceError,
    GatewayConditionError,
    InvalidModelError,
    IssueCategory,
    Node,
    NodeKind,
    ProcessModel,
    SequenceFlow,
    UnsupportedElementError,
    XmlSyntaxError,
    _process,
    _process_id,
    escape,
    gateways,
    model_id,
    parse_bpmn,
    quoteattr,
    serialize_bpmn,
    validate_structure,
)
from bpmndiverge.conditions import Compare

import modelkit as mk


def wrap(process_body: str, process_attrs: str = 'id="p1"') -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL"'
        ' xmlns:kpi="urn:bpmndiverge:kpi" targetNamespace="urn:x">\n'
        f"<bpmn:process {process_attrs}>\n{process_body}\n</bpmn:process>\n"
        "</bpmn:definitions>"
    )


MINIMAL = """
<bpmn:startEvent id="s" name="Go"/>
<bpmn:task id="t" name="Work" kpi:outputs="NC;HC"/>
<bpmn:endEvent id="e" name="Stop"/>
<bpmn:sequenceFlow id="f1" sourceRef="s" targetRef="t"/>
<bpmn:sequenceFlow id="f2" sourceRef="t" targetRef="e"/>
"""


def _tree_id(xml: str) -> str:
    """The model id by a whole ``ElementTree`` parse, as ``parse_bpmn`` reads it."""
    return _process_id(_process(xml))


def _id_outcome(read, xml: str):
    try:
        return read(xml)
    except (XmlSyntaxError, InvalidModelError) as exc:
        return type(exc), str(exc)


_XML_PIECES = [
    "<process", "<definitions", "<o:process", " xmlns:o='urn:o'", " id='p'", ">", "/>",
    "</process>", "</definitions>", "</o:process>", "<lane>", "</lane>", "&amp;", "&x;",
    "<!DOCTYPE d SYSTEM 'd.dtd'>", "<?xml version='1.0'?>", "text", "<!-- c -->", "<",
]


class TestParsing:
    def test_minimal_model(self):
        m = parse_bpmn(wrap(MINIMAL))
        assert m.model_id == "p1"
        assert [n.kind for n in m.nodes] == [
            NodeKind.START_EVENT,
            NodeKind.TASK,
            NodeKind.END_EVENT,
        ]
        assert m.node("t").kpi_outputs == ("NC", "HC")
        assert m.start_node == "s"
        assert m.end_nodes == ("e",)

    def test_city1_strict_structure(self, strict_model):
        assert strict_model.model_id == "city1_and_strict"
        assert strict_model.metadata["name"].startswith("City 1")
        flows = {flow.id: flow for flow in strict_model.flows}
        assert flows["f_eligible"].condition is not None and not flows["f_eligible"].is_default
        assert flows["f_not_eligible"].is_default
        assert strict_model.node("t_notify").kpi_outputs == ("NC",)
        assert strict_model.node("t_guide").label == "Provide Health Guidance"

    def test_condition_parsed_with_exact_decimals(self, strict_model):
        condition = next(f for f in strict_model.flows if f.id == "f_eligible").condition
        literals = []

        def walk(ast):
            if isinstance(ast, Compare):
                literals.append(ast.literal)
            for child in getattr(ast, "operands", ()):
                walk(child)

        walk(condition)
        assert Decimal("6.5") in literals

    def test_foreign_namespace_elements_ignored(self):
        body = MINIMAL + '<other:thing xmlns:other="urn:vendor" id="z"/>'
        m = parse_bpmn(wrap(body))
        assert len(m.nodes) == 3

    def test_unsupported_model_element_rejected(self):
        body = MINIMAL + '<bpmn:subProcess id="sub"/>'
        with pytest.raises(UnsupportedElementError) as info:
            parse_bpmn(wrap(body))
        assert info.value.element == "subProcess"

    def test_no_namespace_accepted(self):
        xml = (
            '<process id="bare">'
            '<startEvent id="s"/><task id="t" outputs="NC"/><endEvent id="e"/>'
            '<sequenceFlow id="f1" sourceRef="s" targetRef="t"/>'
            '<sequenceFlow id="f2" sourceRef="t" targetRef="e"/>'
            "</process>"
        )
        m = parse_bpmn(xml)
        assert m.model_id == "bare"
        assert m.node("t").kpi_outputs == ("NC",)

    def test_kpi_tag_fallback_by_label(self):
        xml = wrap(
            '<bpmn:startEvent id="s"/>'
            '<bpmn:task id="t" name="Send Program Notification"/>'
            '<bpmn:endEvent id="e"/>'
            '<bpmn:sequenceFlow id="f1" sourceRef="s" targetRef="t"/>'
            '<bpmn:sequenceFlow id="f2" sourceRef="t" targetRef="e"/>'
        )
        m = parse_bpmn(xml, kpi_task_tags={"NC": "notification"})
        assert m.node("t").kpi_outputs == ("NC",)
        assert parse_bpmn(xml).node("t").kpi_outputs == ()

    def test_bad_xml(self):
        with pytest.raises(XmlSyntaxError):
            parse_bpmn("<definitions><process></definitions>")

    def test_missing_process(self):
        with pytest.raises(InvalidModelError, match="process"):
            parse_bpmn('<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL"/>')

    @pytest.mark.parametrize(
        "xml,expected",
        [
            (wrap(MINIMAL), "p1"),
            (wrap(MINIMAL, 'name="no id"'), "process"),
            (
                '<process id="bare"><startEvent id="s"/><endEvent id="e"/>'
                '<sequenceFlow id="f" sourceRef="s" targetRef="e"/></process>',
                "bare",
            ),
        ],
    )
    def test_model_id_is_the_id_the_full_parse_gives(self, xml, expected):
        assert model_id(xml) == parse_bpmn(xml).model_id == expected

    def test_model_id_checks_only_the_xml_and_the_process(self):
        assert model_id(wrap(MINIMAL + '<bpmn:subProcess id="sub"/>')) == "p1"
        with pytest.raises(XmlSyntaxError):
            model_id("<definitions><process></definitions>")
        with pytest.raises(InvalidModelError, match="process"):
            model_id('<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL"/>')

    @pytest.mark.parametrize(
        "xml",
        [
            "<definitions><process id='p'>",
            "<definitions><process></definitions>",
            "<process id='p'>&undefined;</process>",
            "<!DOCTYPE process SYSTEM 'p.dtd'><process id='p'>&external;</process>",
            "<!DOCTYPE process SYSTEM 'p.dtd'><process id='p'>&amp;&#65; text</process>",
            "<!DOCTYPE process SYSTEM 'p.dtd'><process id='p'>&" + "\u00e9" * 60 + ";</process>",
            "<!DOCTYPE process [<!ENTITY e 'p'>]><process id='&e;'/>",
            '<?xml version="1.0" encoding="ISO-8859-1"?><process id="p\u00e9"/>',
            "",
            "junk",
            "<definitions></process>",
            wrap(MINIMAL),
            '<process id="bare"/>',
            '<definitions><o:process xmlns:o="urn:o" id="o"/><process id="plain"/></definitions>',
            '<o:process xmlns:o="urn:o" id="foreign_root"/>',
            wrap(MINIMAL, 'name="no id"'),
            "<definitions><lane><process id='deep'/></lane></definitions>",
            "<definitions><lane><process id='deep'/></lane><process id='child'/></definitions>",
        ],
    )
    def test_model_id_agrees_with_the_element_tree_lookup(self, xml):
        assert _id_outcome(model_id, xml) == _id_outcome(_tree_id, xml)

    @given(st.lists(st.sampled_from(_XML_PIECES), max_size=12).map("".join))
    def test_model_id_agrees_with_the_element_tree_lookup_on_any_piecing(self, xml):
        assert _id_outcome(model_id, xml) == _id_outcome(_tree_id, xml)

    def test_empty_condition_rejected(self):
        body = MINIMAL.replace(
            '<bpmn:sequenceFlow id="f2" sourceRef="t" targetRef="e"/>',
            '<bpmn:sequenceFlow id="f2" sourceRef="t" targetRef="e">'
            "<bpmn:conditionExpression>  </bpmn:conditionExpression></bpmn:sequenceFlow>",
        )
        with pytest.raises(InvalidModelError, match="empty condition"):
            parse_bpmn(wrap(body))

    def test_condition_parse_failure_carries_context(self):
        body = """
<bpmn:startEvent id="s"/>
<bpmn:exclusiveGateway id="g" default="f3"/>
<bpmn:task id="t"/>
<bpmn:endEvent id="e"/>
<bpmn:sequenceFlow id="f1" sourceRef="s" targetRef="g"/>
<bpmn:sequenceFlow id="f2" sourceRef="g" targetRef="t">
<bpmn:conditionExpression>x == == 1</bpmn:conditionExpression>
</bpmn:sequenceFlow>
<bpmn:sequenceFlow id="f3" sourceRef="g" targetRef="e"/>
<bpmn:sequenceFlow id="f4" sourceRef="t" targetRef="e"/>
"""
        with pytest.raises(GatewayConditionError) as info:
            parse_bpmn(wrap(body))
        assert info.value.flow_id == "f2"
        assert info.value.source_id == "g"
        assert info.value.cause.offset == 5

    def test_condition_nested_past_the_limit_names_its_flow(self):
        body = serialize_bpmn(mk.branch_model("x >= 5")).replace(
            "x &gt;= 5", "(" * 300 + "x &gt;= 5" + ")" * 300
        )
        with pytest.raises(GatewayConditionError, match="nested deeper than") as info:
            parse_bpmn(body)
        assert (info.value.flow_id, info.value.source_id) == ("fy", "g")

    def test_dangling_flow_reference(self):
        body = MINIMAL + '<bpmn:sequenceFlow id="f3" sourceRef="t" targetRef="ghost"/>'
        with pytest.raises(DanglingReferenceError, match="ghost"):
            parse_bpmn(wrap(body))

    def test_dangling_default_reference(self):
        body = """
<bpmn:startEvent id="s"/>
<bpmn:exclusiveGateway id="g" default="nope"/>
<bpmn:endEvent id="e"/>
<bpmn:sequenceFlow id="f1" sourceRef="s" targetRef="g"/>
<bpmn:sequenceFlow id="f2" sourceRef="g" targetRef="e"/>
"""
        with pytest.raises(DanglingReferenceError, match="nope"):
            parse_bpmn(wrap(body))

    def test_duplicate_node_id(self):
        body = MINIMAL + '<bpmn:task id="t"/>'
        with pytest.raises(InvalidModelError, match="duplicate node id"):
            parse_bpmn(wrap(body))

    def test_two_start_events(self):
        body = MINIMAL + '<bpmn:startEvent id="s2"/>'
        with pytest.raises(InvalidModelError, match="start event"):
            parse_bpmn(wrap(body))

    def test_missing_end_event(self):
        xml = wrap(
            '<bpmn:startEvent id="s"/><bpmn:task id="t"/>'
            '<bpmn:sequenceFlow id="f1" sourceRef="s" targetRef="t"/>'
            '<bpmn:sequenceFlow id="f2" sourceRef="t" targetRef="s"/>'
        )
        with pytest.raises(InvalidModelError, match="no end event"):
            parse_bpmn(xml)

    def test_condition_on_non_gateway_flow_rejected(self):
        body = MINIMAL.replace(
            '<bpmn:sequenceFlow id="f2" sourceRef="t" targetRef="e"/>',
            '<bpmn:sequenceFlow id="f2" sourceRef="t" targetRef="e">'
            "<bpmn:conditionExpression>x == 1</bpmn:conditionExpression></bpmn:sequenceFlow>",
        )
        with pytest.raises(InvalidModelError, match="non-gateway"):
            parse_bpmn(wrap(body))

    def test_element_without_id(self):
        with pytest.raises(InvalidModelError, match="without id"):
            parse_bpmn(wrap(MINIMAL + "<bpmn:task/>"))


class TestTypeInvariants:
    def test_default_flow_cannot_carry_condition(self):
        with pytest.raises(InvalidModelError, match="default"):
            mk.flow("f", "a", "b", "x == 1", default=True)

    def test_kpi_outputs_only_on_tasks(self):
        with pytest.raises(InvalidModelError, match="non-task"):
            Node("g", NodeKind.EXCLUSIVE_GATEWAY, "", ("NC",))

    def test_duplicate_kpi_outputs(self):
        with pytest.raises(InvalidModelError, match="duplicate kpi"):
            Node("t", NodeKind.TASK, "", ("NC", "NC"))

    def test_multiple_defaults_rejected(self):
        with pytest.raises(InvalidModelError, match="multiple default"):
            mk.model(
                "m",
                [mk.start("s"), mk.gateway("g"), mk.end("e1"), mk.end("e2")],
                [
                    mk.flow("f1", "s", "g"),
                    mk.flow("f2", "g", "e1", default=True),
                    mk.flow("f3", "g", "e2", default=True),
                ],
            )

    def test_node_without_outgoing_rejected(self):
        with pytest.raises(InvalidModelError, match="no outgoing"):
            mk.model(
                "m",
                [mk.start("s"), mk.task("t", "Stuck"), mk.end("e")],
                [mk.flow("f1", "s", "t")],
            )


class TestSerialization:
    def test_round_trip_city1(self, strict_model, broad_model):
        for original in (strict_model, broad_model):
            reparsed = parse_bpmn(serialize_bpmn(original))
            assert reparsed == original
            assert dict(reparsed.metadata) == dict(original.metadata)

    def test_serialize_is_stable_on_its_own_output(self, strict_model):
        once = serialize_bpmn(strict_model)
        assert serialize_bpmn(parse_bpmn(once)) == once

    def test_attribute_escaping(self):
        m = mk.model(
            "m<&>",
            [
                mk.start("s", 'He said "go"'),
                mk.task("t", "a & b < c", ("NC",)),
                mk.end("e"),
            ],
            [mk.flow("f1", "s", "t"), mk.flow("f2", "t", "e")],
        )
        assert parse_bpmn(serialize_bpmn(m)) == m

    def test_condition_operator_escaping(self):
        m = mk.branch_model("x <= 5 AND y >= 2")
        text = serialize_bpmn(m)
        assert "&lt;=" in text
        assert parse_bpmn(text) == m

    @given(st.text(alphabet=st.sampled_from("&<>\"'\n\r\ta;#é") | st.characters()))
    @example('say "hi"')
    @example("it's")
    @example("both \" and ' &lt;\n\r\t")
    def test_escaping_matches_saxutils(self, text):
        assert escape(text) == saxutils.escape(text)
        assert quoteattr(text) == saxutils.quoteattr(text)


class TestGatewayViews:
    def test_views_in_document_order(self, broad_model):
        views = gateways(broad_model)
        assert [v.gateway_id for v in views] == ["n3", "n5"]
        elig = views[0]
        assert elig.label == "Check Inclusion Eligibility"
        assert elig.default_flow == "e4"
        assert [flow_id for flow_id, _ in elig.branches] == ["e3"]


class TestValidation:
    def test_city1_models_are_clean(self, strict_model, broad_model):
        assert validate_structure(strict_model) == []
        assert validate_structure(broad_model) == []

    def test_unreachable_node(self):
        m = mk.model(
            "m",
            [mk.start("s"), mk.task("t", "A"), mk.task("island", "B"), mk.end("e")],
            [
                mk.flow("f1", "s", "t"),
                mk.flow("f2", "t", "e"),
                mk.flow("f3", "island", "e"),
            ],
        )
        issues = validate_structure(m)
        assert [(i.node_id, i.category) for i in issues] == [
            ("island", IssueCategory.UNREACHABLE)
        ]

    def test_no_termination(self):
        m = mk.model(
            "m",
            [mk.start("s"), mk.task("t1", "A"), mk.task("t2", "B"), mk.end("e")],
            [
                mk.flow("f1", "s", "t1"),
                mk.flow("f2", "t1", "t2"),
                mk.flow("f3", "t2", "t1"),
                mk.flow("f4", "s", "e"),
            ],
        )
        # s has two unconditioned outgoing flows; simulation would take the
        # first, but validation flags the trap nodes regardless.
        categories = {(i.node_id, i.category) for i in validate_structure(m)}
        assert ("t1", IssueCategory.NO_TERMINATION) in categories
        assert ("t2", IssueCategory.NO_TERMINATION) in categories

    def test_unconditioned_branch_flagged(self):
        m = mk.model(
            "m",
            [mk.start("s"), mk.gateway("g"), mk.end("e1"), mk.end("e2")],
            [
                mk.flow("f1", "s", "g"),
                mk.flow("f2", "g", "e1", "x == 1"),
                mk.flow("f3", "g", "e2"),
            ],
        )
        categories = {(i.node_id, i.category) for i in validate_structure(m)}
        assert ("g", IssueCategory.UNCONDITIONED_BRANCH) in categories
        assert ("g", IssueCategory.NO_DEFAULT_PATH) in categories

    def test_pass_through_gateway_is_fine(self):
        m = mk.model(
            "m",
            [mk.start("s"), mk.gateway("g"), mk.end("e")],
            [mk.flow("f1", "s", "g"), mk.flow("f2", "g", "e")],
        )
        assert validate_structure(m) == []

    def test_conditioned_without_default_flagged(self):
        m = mk.model(
            "m",
            [mk.start("s"), mk.gateway("g"), mk.end("e")],
            [mk.flow("f1", "s", "g"), mk.flow("f2", "g", "e", "x == 1")],
        )
        assert [i.category for i in validate_structure(m)] == [
            IssueCategory.NO_DEFAULT_PATH
        ]
