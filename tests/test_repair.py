"""Narrative segmentation, ambiguity localization, providers, and repair."""

import json
import socket
import threading
import time
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from bpmndiverge.diagnosis import choose_direction
from bpmndiverge.repair import (
    REPAIR_PROCEDURE,
    CannedRewriteProvider,
    ExcerptNotFoundError,
    HttpRewriteProvider,
    NarrativeDocument,
    ProviderMalformedResponseError,
    ProviderUnavailableError,
    RepairOutcome,
    RepairRecord,
    localize_ambiguity,
    propose_repairs,
    reconstruct_narrative,
    token_jaccard,
    tokenize,
)
import modelkit as mk
from oracles import jaccard_oracle


@pytest.fixture(scope="module")
def diagnosed(strict_model, broad_model, population):
    """(reference id, target id, refined gateway lists) of the chosen orientation."""
    chosen = choose_direction(strict_model, broad_model, population).chosen
    refined = [list(gateways) for gateways in chosen.refined]
    return chosen.problem.reference_model_id, chosen.problem.target_model_id, refined


@pytest.fixture(scope="module")
def localization(diagnosed, strict_model, broad_model, narrative_doc):
    # Chosen orientation: strict is reference, broad is target.
    assert diagnosed[:2] == ("city1_and_strict", "city1_or_broad")
    return localize_ambiguity(diagnosed[2], broad_model, strict_model, narrative_doc)


@pytest.fixture(scope="module")
def ambiguities(localization):
    """The ambiguity entries of the city1 report, as repair reads them."""
    return localization[0]


@pytest.fixture()
def supplemental_doc(city1_dir):
    return NarrativeDocument.from_text(
        "supplemental", (city1_dir / "supplemental.txt").read_text()
    )


@pytest.fixture()
def canned_provider(city1_dir):
    return CannedRewriteProvider(json.loads((city1_dir / "canned_repairs.json").read_text()))


class TestSegmentation:
    def test_city1_paragraphs(self, narrative_doc, narrative_text):
        ids = [s.segment_id for s in narrative_doc.segments]
        assert ids == [f"seg-{i}" for i in range(1, 7)]
        for segment in narrative_doc.segments:
            assert narrative_text[segment.start : segment.end] == segment.text
            assert segment.text == segment.text.strip("\n")

    def test_multi_line_paragraph_stays_one_segment(self):
        doc = NarrativeDocument.from_text("d", "line one\nline two\n\nnext para\n")
        assert [s.text for s in doc.segments] == ["line one\nline two", "next para"]

    def test_no_trailing_newline(self):
        doc = NarrativeDocument.from_text("d", "only para")
        assert doc.segments[0].text == "only para"
        assert doc.segments[0].end == len("only para")

    def test_sidecar_ranges(self):
        text = "alpha beta gamma"
        doc = NarrativeDocument.with_segments(
            "d",
            text,
            [
                {"segment_id": "a", "start": 0, "end": 5},
                {"segment_id": "b", "start": 6, "end": 10},
            ],
        )
        assert doc.segment("a").text == "alpha"
        assert doc.segment("b").text == "beta"
        with pytest.raises(KeyError):
            doc.segment("zzz")

    def test_duplicate_segment_ids_rejected(self):
        # Segment texts are keyed by id when a narrative is reconstructed,
        # so a repeated id would overwrite "alpha" with "beta".
        with pytest.raises(ValueError, match="segment id 'a' is used twice"):
            NarrativeDocument.with_segments(
                "d",
                "alpha\n\nbeta",
                [
                    {"segment_id": "a", "start": 0, "end": 5},
                    {"segment_id": "a", "start": 7, "end": 11},
                ],
            )

    def test_overlapping_segments_rejected(self):
        with pytest.raises(ValueError, match="segment 'b' overlaps its predecessor"):
            NarrativeDocument.with_segments(
                "d",
                "abcdef",
                [
                    {"segment_id": "a", "start": 0, "end": 4},
                    {"segment_id": "b", "start": 2, "end": 6},
                ],
            )

    @given(st.text(alphabet=st.sampled_from("ab \t\r\n\u00a0\u2028"), max_size=40) | st.text())
    def test_paragraphs_are_ordered_disjoint_named_ranges(self, text):
        # NarrativeDocument is a plain record: from_text makes its segments
        # valid by construction, and nothing checks them afterwards.
        doc = NarrativeDocument.from_text("d", text)
        ids = [segment.segment_id for segment in doc.segments]
        assert len(set(ids)) == len(ids)
        last_end = 0
        for segment in doc.segments:
            assert last_end <= segment.start <= segment.end <= len(text)
            assert text[segment.start : segment.end] == segment.text
            assert segment.text.strip()
            last_end = segment.end
        assert reconstruct_narrative(doc, ()) == text


class TestTokens:
    def test_tokenize_splits_underscores_and_casefolds(self):
        assert tokenize("Fasting_Blood_Glucose >= 126") == {
            "fasting",
            "blood",
            "glucose",
            "126",
        }

    def test_jaccard_matches_oracle(self):
        a = tokenize("the quick brown fox")
        b = tokenize("the lazy brown dog")
        assert token_jaccard(a, b) == jaccard_oracle(a, b)

    def test_empty_sets(self):
        assert token_jaccard(set(), set()) == 0.0
        assert token_jaccard({"a"}, set()) == 0.0


class TestLocalization:
    def test_city1_instances(self, localization):
        ambiguities, unlocalized = localization
        assert unlocalized == []
        first, second = ambiguities
        assert first["id"] == "AMB-1"
        assert first["segment_id"] == "seg-2"
        assert Fraction(first["score"]).limit_denominator(1000) == Fraction(8, 45)
        assert second["id"] == "AMB-2"
        assert second["segment_id"] == "seg-4"
        assert second["score"] == 0.16

    def test_gateway_roles(self, localization):
        first = localization[0][0]
        roles = [(ref["role"], ref["model_id"], ref["gateway_id"]) for ref in first["gateways"]]
        assert roles == [
            ("target", "city1_or_broad", "n3"),
            ("reference", "city1_and_strict", "g_elig"),
        ]
        assert all(ref["label"] == "Check Inclusion Eligibility" for ref in first["gateways"])

    def test_excerpt_is_the_segment_text(self, localization, narrative_doc):
        for entry in localization[0]:
            assert entry["excerpt"] == narrative_doc.segment(entry["segment_id"]).text

    def test_interpretations_carry_both_readings(self, localization):
        first = localization[0][0]
        by_model = {i["model_id"]: i for i in first["interpretations"]}
        assert by_model["city1_and_strict"]["exercised_condition"] == (
            "((Fasting_Blood_Glucose >= 126 OR HbA1c >= 6.5)"
            " AND Diabetes_Under_Treatment == 1)"
        )
        assert by_model["city1_or_broad"]["exercised_condition"] == (
            "(Diabetes_Under_Treatment == 1 OR Fasting_Blood_Glucose >= 126"
            " OR HbA1c >= 6.5)"
        )
        assert "routes" in by_model["city1_or_broad"]["reading"]

    def test_acceptance_interpretations(self, localization):
        second = localization[0][1]
        by_model = {i["model_id"]: i for i in second["interpretations"]}
        assert by_model["city1_and_strict"]["exercised_condition"] == (
            "(Consent_Submitted == 1 AND Health_Guidance == 1)"
        )
        assert by_model["city1_or_broad"]["exercised_condition"] == "Consent_Submitted == 1"

    def test_high_threshold_leaves_gateways_unlocalized(
        self, diagnosed, strict_model, broad_model, narrative_doc
    ):
        ambiguities, unlocalized = localize_ambiguity(
            diagnosed[2], broad_model, strict_model, narrative_doc, threshold=0.5
        )
        assert ambiguities == []
        assert unlocalized == ["n3", "n5"]


def _gateway_chain(model_id, gateways):
    """Start, then each (label, variable) gateway in turn, then the end: a
    gateway goes on when its variable is 1 and to the end otherwise."""
    ids = [f"g{i}" for i in range(1, len(gateways) + 1)] + ["e"]
    flows = [mk.flow("f0", "s", ids[0])]
    for i, (label, variable) in enumerate(gateways):
        flows.append(mk.flow(f"f{i}_on", ids[i], ids[i + 1], f"{variable} == 1"))
        flows.append(mk.flow(f"f{i}_off", ids[i], "e", default=True))
    nodes = [mk.start("s"), *(mk.gateway(ids[i], label) for i, (label, _) in enumerate(gateways))]
    return mk.model(model_id, [*nodes, mk.end("e")], flows)


_WORDS = ("age", "weight", "consent", "risk", "call")
_gateway_specs = st.lists(
    st.tuples(st.sampled_from(_WORDS).map(lambda w: f"Check {w}"), st.sampled_from(_WORDS)),
    min_size=1,
    max_size=4,
)


class TestOneAmbiguityPerSegment:
    def test_two_gateways_in_one_paragraph_give_one_ambiguity(self):
        gateways = [("Check age", "Age"), ("Check weight", "Weight")]
        target = _gateway_chain("target", gateways)
        reference = _gateway_chain("reference", gateways)
        doc = NarrativeDocument.from_text("d", "Check age and weight.\n\nSend the bill.\n")
        ambiguities, _ = localize_ambiguity([["g1", "g2"]], target, reference, doc)
        (entry,) = ambiguities
        assert (entry["id"], entry["segment_id"]) == ("AMB-1", "seg-1")
        assert entry["excerpt"] == "Check age and weight."
        assert entry["score"] == 0.5
        assert [(ref["role"], ref["gateway_id"]) for ref in entry["gateways"]] == [
            ("target", "g1"),
            ("reference", "g1"),
            ("target", "g2"),
            ("reference", "g2"),
        ]
        assert [(i["model_id"], i["exercised_condition"]) for i in entry["interpretations"]] == [
            ("reference", "Age == 1"),
            ("target", "Age == 1"),
            ("reference", "Weight == 1"),
            ("target", "Weight == 1"),
        ]
        revised = "Check age, then weight."
        record = RepairRecord("AMB-1", "seg-1", entry["excerpt"], revised, "r", ("e",))
        repaired = reconstruct_narrative(doc, [record])
        assert repaired == "Check age, then weight.\n\nSend the bill.\n"

    @settings(deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4), min_size=1, max_size=4),
        _gateway_specs,
        _gateway_specs,
        st.text(min_size=1),
    )
    def test_one_repair_per_ambiguity_always_applies(
        self, paragraphs, target_gateways, reference_gateways, revised
    ):
        doc = NarrativeDocument.from_text("d", "\n\n".join(map(" ".join, paragraphs)) + "\n")
        target = _gateway_chain("target", target_gateways)
        refined = [[f"g{i}" for i in range(1, len(target_gateways) + 1)]]
        ambiguities, unlocalized = localize_ambiguity(
            refined, target, _gateway_chain("reference", reference_gateways), doc
        )
        segment_ids = [entry["segment_id"] for entry in ambiguities]
        assert len(segment_ids) == len(set(segment_ids))
        for entry in ambiguities:
            gateways = [tuple(ref.values()) for ref in entry["gateways"]]
            interpretations = [tuple(i.values()) for i in entry["interpretations"]]
            assert len(set(gateways)) == len(gateways)
            assert len(set(interpretations)) == len(interpretations)
        localized = [
            ref["gateway_id"]
            for entry in ambiguities
            for ref in entry["gateways"]
            if ref["role"] == "target"
        ]
        assert sorted(localized + unlocalized) == sorted(refined[0])
        response = {"revised_excerpt": revised, "rationale": "r", "evidence_refs": ["e"]}
        provider = CannedRewriteProvider({entry["segment_id"]: response for entry in ambiguities})
        supplemental = NarrativeDocument.from_text("s", "")
        outcome = propose_repairs(ambiguities, doc, supplemental, provider)
        assert outcome.rejected == ()
        assert len(outcome.records) == len(ambiguities)
        # Every record applies: each ambiguity's whole segment becomes ``revised``.
        assert reconstruct_narrative(doc, outcome.records).count(revised) >= len(ambiguities)


class CapturingProvider:
    """Echoes a valid record while recording every request."""

    def __init__(self):
        self.requests = []

    def rewrite(self, request):
        self.requests.append(dict(request))
        return {
            "ambiguity_id": request["ambiguity_id"],
            "revised_excerpt": f"revised {request['ambiguity_id']}",
            "rationale": "per the supplemental answer",
            "evidence_refs": ["supplemental:Q1"],
        }


class TestProposeRepairs:
    def test_request_payload(self, ambiguities, narrative_doc, supplemental_doc):
        provider = CapturingProvider()
        outcome = propose_repairs(ambiguities, narrative_doc, supplemental_doc, provider)
        assert [r.ambiguity_id for r in outcome.records] == ["AMB-1", "AMB-2"]
        assert [(r.segment_id, r.excerpt) for r in outcome.records] == [
            (entry["segment_id"], entry["excerpt"]) for entry in ambiguities
        ]
        assert outcome.rejected == ()
        first = provider.requests[0]
        assert first["ambiguity_id"] == "AMB-1"
        assert first["segment_id"] == "seg-2"
        assert first["original_segment"] == narrative_doc.segment("seg-2").text
        assert first["excerpt"] == narrative_doc.segment("seg-2").text
        assert len(first["supplemental_excerpts"]) == 3
        assert first["procedure"] == list(REPAIR_PROCEDURE)
        assert first["interpretations"] == ambiguities[0]["interpretations"]

    def test_canned_round_trip(self, ambiguities, narrative_doc, supplemental_doc, canned_provider):
        outcome = propose_repairs(
            ambiguities, narrative_doc, supplemental_doc, canned_provider
        )
        assert len(outcome.records) == 2
        assert outcome.rejected == ()
        for record in outcome.records:
            assert record.revised_excerpt
            assert record.rationale
            assert record.evidence_refs

    def test_missing_canned_key_rejects_that_ambiguity(
        self, ambiguities, narrative_doc, supplemental_doc
    ):
        provider = CannedRewriteProvider({"seg-2": {
            "revised_excerpt": "x", "rationale": "y", "evidence_refs": ["z"],
        }})
        outcome = propose_repairs(ambiguities, narrative_doc, supplemental_doc, provider)
        assert [r.ambiguity_id for r in outcome.records] == ["AMB-1"]
        assert [r.ambiguity_id for r in outcome.rejected] == ["AMB-2"]
        assert "no canned response" in outcome.rejected[0].reason

    @pytest.mark.parametrize(
        "response,reason",
        [
            ({"rationale": "r", "evidence_refs": ["e"]}, "revised_excerpt"),
            ({"revised_excerpt": "", "rationale": "r", "evidence_refs": ["e"]}, "revised_excerpt"),
            ({"revised_excerpt": "x", "evidence_refs": ["e"]}, "rationale"),
            ({"revised_excerpt": "x", "rationale": "  ", "evidence_refs": ["e"]}, "rationale"),
            ({"revised_excerpt": "x", "rationale": "r"}, "evidence_refs"),
            ({"revised_excerpt": "x", "rationale": "r", "evidence_refs": []}, "evidence_refs"),
            ({"revised_excerpt": "x", "rationale": "r", "evidence_refs": [" "]}, "blank evidence"),
            (["x", "r", ["e"]], "canned response is not an object"),
            ({"revised_excerpt": "x", "rationale": "r", "evidence_refs": [None]}, "not a string"),
            ({"revised_excerpt": "x", "rationale": "r", "evidence_refs": ["e", 5]}, "not a string"),
        ],
    )
    def test_unsupported_records_rejected(
        self, ambiguities, narrative_doc, supplemental_doc, response, reason
    ):
        responses = {"seg-2": response, "seg-4": response}
        provider = CannedRewriteProvider(responses)
        outcome = propose_repairs(ambiguities, narrative_doc, supplemental_doc, provider)
        assert outcome.records == ()
        assert len(outcome.rejected) == 2
        assert reason in outcome.rejected[0].reason

    def test_stale_excerpt_rejected_before_provider_call(
        self, ambiguities, narrative_doc, supplemental_doc
    ):
        tampered = json.loads(json.dumps(ambiguities))
        tampered[0]["excerpt"] = "text that never occurs"
        provider = CapturingProvider()
        outcome = propose_repairs(tampered, narrative_doc, supplemental_doc, provider)
        assert [r.ambiguity_id for r in outcome.rejected] == ["AMB-1"]
        assert "anchored" in outcome.rejected[0].reason
        assert [req["ambiguity_id"] for req in provider.requests] == ["AMB-2"]

    def test_unknown_segment_rejected(self, ambiguities, narrative_doc, supplemental_doc):
        tampered = json.loads(json.dumps(ambiguities))
        tampered[1]["segment_id"] = "seg-99"
        outcome = propose_repairs(
            tampered, narrative_doc, supplemental_doc, CapturingProvider()
        )
        assert [r.ambiguity_id for r in outcome.rejected] == ["AMB-2"]
        assert "seg-99" in outcome.rejected[0].reason

    def test_report_without_ambiguities(self, narrative_doc, supplemental_doc):
        # A report that lacks the list altogether is refused by the repair
        # command, which reads it (see test_cli's malformed-artifact cases).
        provider = CapturingProvider()
        outcome = propose_repairs([], narrative_doc, supplemental_doc, provider)
        assert outcome == RepairOutcome((), ())
        assert provider.requests == []

    def test_repeated_id_is_refused_before_any_provider_call(
        self, ambiguities, narrative_doc, supplemental_doc
    ):
        tampered = json.loads(json.dumps(ambiguities))
        tampered[1]["id"] = "AMB-1"
        provider = CapturingProvider()
        with pytest.raises(
            ValueError, match="ambiguity_report.json: ambiguity id 'AMB-1' is used twice"
        ):
            propose_repairs(tampered, narrative_doc, supplemental_doc, provider)
        assert provider.requests == []

    @pytest.mark.parametrize("second", [1, "AMB-2", {"segment_id": "seg-4"}, {"id": 2}])
    def test_malformed_entry_is_refused_before_any_provider_call(
        self, ambiguities, narrative_doc, supplemental_doc, second
    ):
        entries = [ambiguities[0], second]
        provider = CapturingProvider()
        with pytest.raises(
            ValueError,
            match="ambiguity_report.json: every ambiguity must be an object with a string id",
        ):
            propose_repairs(entries, narrative_doc, supplemental_doc, provider)
        assert provider.requests == []


class _Handler(BaseHTTPRequestHandler):
    behavior = None  # set per server; callable(request_index, handler) -> None
    seen: list

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        type(self).seen.append(
            {
                "body": json.loads(raw) if length else {},
                "raw": raw,
                "content_type": self.headers.get("Content-Type"),
                "auth": self.headers.get("Authorization"),
            }
        )
        type(self).behavior(len(type(self).seen), self)

    do_GET = do_POST  # a redirected POST would arrive as a GET

    def log_message(self, *args):
        pass

    def reply(self, status: int, payload: bytes, content_type="application/json"):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture()
def http_server():
    servers = []

    def start(behavior):
        handler = type("H", (_Handler,), {"behavior": staticmethod(behavior), "seen": []})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}/rewrite", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


GOOD_BODY = json.dumps(
    {
        "revised_excerpt": "clarified text",
        "rationale": "the supplemental answer settles it",
        "evidence_refs": ["supplemental:Q1"],
    }
).encode()


class TestHttpProvider:
    def request(self):
        return {"ambiguity_id": "AMB-1", "excerpt": "x"}

    def test_success_and_auth_header(self, http_server):
        url, handler = http_server(lambda n, h: h.reply(200, GOOD_BODY))
        provider = HttpRewriteProvider(url, model="gpt-x", auth_token="sekret")
        response = provider.rewrite(self.request())
        assert response["ambiguity_id"] == "AMB-1"
        assert response["revised_excerpt"] == "clarified text"
        assert handler.seen[0]["auth"] == "Bearer sekret"
        assert handler.seen[0]["body"]["model"] == "gpt-x"
        assert handler.seen[0]["body"]["excerpt"] == "x"

    def test_no_token_no_header(self, http_server):
        url, handler = http_server(lambda n, h: h.reply(200, GOOD_BODY))
        HttpRewriteProvider(url).rewrite(self.request())
        assert handler.seen[0]["auth"] is None

    def test_retry_on_server_error(self, http_server):
        def behavior(n, h):
            h.reply(500 if n == 1 else 200, GOOD_BODY)

        url, handler = http_server(behavior)
        provider = HttpRewriteProvider(url, retries=2, backoff=0.01)
        response = provider.rewrite(self.request())
        assert response["revised_excerpt"] == "clarified text"
        assert len(handler.seen) == 2

    def test_persistent_server_error_gives_up(self, http_server):
        url, handler = http_server(lambda n, h: h.reply(503, b"{}"))
        provider = HttpRewriteProvider(url, retries=2, backoff=0.01)
        with pytest.raises(ProviderUnavailableError, match="3 attempts"):
            provider.rewrite(self.request())
        assert len(handler.seen) == 3

    def test_client_error_fails_without_retry(self, http_server):
        url, handler = http_server(lambda n, h: h.reply(404, b"{}"))
        provider = HttpRewriteProvider(url, retries=2, backoff=0.01)
        with pytest.raises(ProviderUnavailableError, match="404"):
            provider.rewrite(self.request())
        assert len(handler.seen) == 1

    def test_non_json_body(self, http_server):
        url, _ = http_server(lambda n, h: h.reply(200, b"<html>hi</html>", "text/html"))
        with pytest.raises(ProviderMalformedResponseError):
            HttpRewriteProvider(url).rewrite(self.request())

    def test_non_object_body(self, http_server):
        url, _ = http_server(lambda n, h: h.reply(200, b'["not", "an", "object"]'))
        with pytest.raises(ProviderMalformedResponseError, match="not an object"):
            HttpRewriteProvider(url).rewrite(self.request())

    def test_connection_refused(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        provider = HttpRewriteProvider(
            f"http://127.0.0.1:{dead_port}/rewrite", retries=1, backoff=0.01
        )
        with pytest.raises(ProviderUnavailableError, match="2 attempts"):
            provider.rewrite(self.request())

    def test_timeout_is_retried_then_gives_up(self, http_server):
        url, handler = http_server(lambda n, h: time.sleep(1.0))
        provider = HttpRewriteProvider(url, timeout=0.3, retries=1, backoff=0.01)
        with pytest.raises(ProviderUnavailableError, match="2 attempts.*timed out"):
            provider.rewrite(self.request())
        assert len(handler.seen) == 2

    def test_dropped_connection_is_retried(self, http_server):
        def behavior(n, h):
            if n > 1:  # the first request gets no reply at all
                h.reply(200, GOOD_BODY)

        url, handler = http_server(behavior)
        provider = HttpRewriteProvider(url, retries=1, backoff=0.01)
        assert provider.rewrite(self.request())["revised_excerpt"] == "clarified text"
        assert len(handler.seen) == 2

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, http_server, status):
        target, elsewhere = http_server(lambda n, h: h.reply(200, GOOD_BODY))

        def behavior(n, h):
            h.send_response(status)
            h.send_header("Location", target)
            h.send_header("Content-Length", "0")
            h.end_headers()

        url, handler = http_server(behavior)
        provider = HttpRewriteProvider(url, auth_token="sekret", retries=2, backoff=0.01)
        with pytest.raises(ProviderUnavailableError, match=f"status {status}"):
            provider.rewrite(self.request())
        assert len(handler.seen) == 1
        assert elsewhere.seen == []  # so the bearer token never reached it

    def test_non_ascii_excerpt_is_sent_as_utf8_json(self, http_server):
        url, handler = http_server(lambda n, h: h.reply(200, GOOD_BODY))
        request = {"ambiguity_id": "AMB-1", "excerpt": "HbA1c ≥ 7 % – naïve Größe 🩺"}
        HttpRewriteProvider(url).rewrite(request)
        assert handler.seen[0]["content_type"] == "application/json"
        assert json.loads(handler.seen[0]["raw"].decode("utf-8")) == request


class TestReconstruction:
    def test_city1_splice(
        self, ambiguities, narrative_doc, supplemental_doc, canned_provider, narrative_text
    ):
        outcome = propose_repairs(
            ambiguities, narrative_doc, supplemental_doc, canned_provider
        )
        repaired = reconstruct_narrative(narrative_doc, outcome.records)
        seg2 = narrative_doc.segment("seg-2")
        seg4 = narrative_doc.segment("seg-4")
        revised = {r.ambiguity_id: r.revised_excerpt for r in outcome.records}
        expected = (
            narrative_text[: seg2.start]
            + revised["AMB-1"]
            + narrative_text[seg2.end : seg4.start]
            + revised["AMB-2"]
            + narrative_text[seg4.end :]
        )
        assert repaired == expected
        assert [r.ambiguity_id for r in outcome.records] == ["AMB-1", "AMB-2"]

    def test_partial_excerpt_replaces_first_occurrence_only(self):
        doc = NarrativeDocument.from_text("d", "say yes or say yes\n\nother\n")
        entry = {"id": "AMB-1", "segment_id": "seg-1", "excerpt": "say yes"}
        response = {"revised_excerpt": "say NO", "rationale": "r", "evidence_refs": ["e"]}
        provider = CannedRewriteProvider({"seg-1": response})
        outcome = propose_repairs([entry], doc, NarrativeDocument.from_text("s", ""), provider)
        repaired = reconstruct_narrative(doc, outcome.records)
        assert repaired == "say NO or say yes\n\nother\n"

    def test_repairs_applied_in_id_order(self, narrative_doc, narrative_text):
        # AMB-2 rewrites what AMB-1 wrote, so it only applies after AMB-1.
        seg1 = narrative_doc.segment("seg-1")
        records = [
            RepairRecord("AMB-2", "seg-1", "one", "two", "r", ("e",)),
            RepairRecord("AMB-1", "seg-1", seg1.text, "one", "r", ("e",)),
        ]
        repaired = reconstruct_narrative(narrative_doc, records)
        assert repaired == narrative_text[: seg1.start] + "two" + narrative_text[seg1.end :]

    def test_repairs_applied_in_numeric_id_order(self):
        # Each repair rewrites the word the next one looks for, so the text
        # only comes out right when AMB-2 runs before AMB-10.
        doc = NarrativeDocument.from_text("d", "w1\n")
        records = [
            RepairRecord(f"AMB-{n}", "seg-1", f"w{n}", f"w{n + 1}", "r", ("e",))
            for n in range(11, 0, -1)
        ]
        assert reconstruct_narrative(doc, records) == "w12\n"

    def test_stale_excerpt(self, narrative_doc):
        record = RepairRecord("AMB-1", "seg-1", "never there", "x", "r", ("e",))
        with pytest.raises(ExcerptNotFoundError, match="not found"):
            reconstruct_narrative(narrative_doc, [record])

    def test_no_repairs_is_identity(self, narrative_doc, narrative_text):
        assert reconstruct_narrative(narrative_doc, []) == narrative_text
