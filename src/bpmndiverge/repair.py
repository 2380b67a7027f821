"""Ambiguity localization in the source narrative and evidence-backed repair.

Diagnosed gateways are mapped back to narrative segments by case-folded
token overlap, paired with the competing readings found in the two models,
and handed to a rewrite provider.  Providers return revised excerpts with a
rationale and at least one supplemental-document evidence reference;
unsupported assumptions are rejected at validation.  Reconstruction splices
revised excerpts back into their segments and leaves every other character
of the narrative untouched.
"""

from __future__ import annotations

import json
import re
import time
from typing import Any, Mapping, NamedTuple, Protocol, Sequence
from urllib.parse import urlsplit

from .bpmn import NodeKind, ProcessModel
from .conditions import normalize, to_text, variables

DEFAULT_LOCALIZATION_THRESHOLD = 0.15


class ExcerptNotFoundError(Exception):
    """A repair's anchor excerpt no longer occurs in its segment."""


class ProviderUnavailableError(Exception):
    """The rewrite provider cannot be reached or keeps failing."""


class ProviderMalformedResponseError(Exception):
    """The provider answered with something that is not a repair record."""

    def __init__(self, ambiguity_id: str, detail: str):
        self.ambiguity_id = ambiguity_id
        self.detail = detail
        super().__init__(f"{ambiguity_id}: {detail}")


class Segment(NamedTuple):
    segment_id: str
    start: int
    end: int
    text: str


class NarrativeDocument(NamedTuple):
    """Narrative text with ordered, non-overlapping, uniquely named segments
    that hold the text of their ranges; ``with_segments`` checks given ranges."""

    doc_id: str
    text: str
    segments: tuple[Segment, ...]

    def segment(self, segment_id: str) -> Segment:
        for segment in self.segments:
            if segment.segment_id == segment_id:
                return segment
        raise KeyError(segment_id)

    @classmethod
    def from_text(cls, doc_id: str, text: str) -> "NarrativeDocument":
        """Default segmentation: paragraphs separated by blank lines."""
        segments = []
        for index, match in enumerate(
            re.finditer(r"(?:[^\n]*\S[^\n]*\n?)+", text), start=1
        ):
            chunk = match.group()
            end = match.end()
            if chunk.endswith("\n"):
                end -= 1
                chunk = chunk[:-1]
            segments.append(Segment(f"seg-{index}", match.start(), end, chunk))
        return cls(doc_id, text, tuple(segments))

    @classmethod
    def with_segments(
        cls, doc_id: str, text: str, ranges: Sequence[Mapping[str, object]]
    ) -> "NarrativeDocument":
        """Sidecar override: explicit [{segment_id, start, end}] ranges inside
        ``text`` with string ids, integer bounds, unique ids and no overlap,
        in order.  Raises ValueError on any other input."""
        if not isinstance(ranges, (list, tuple)):
            raise ValueError("segments sidecar must be a list of {segment_id, start, end} objects")
        segments: list[Segment] = []
        seen: set[str] = set()
        for index, entry in enumerate(ranges):
            try:
                start, end = entry["start"], entry["end"]  # type: ignore[index]
                segment_id = entry["segment_id"]  # type: ignore[index]
            except (KeyError, TypeError):
                raise ValueError(
                    f"segments sidecar entry {index} needs segment_id, start and end: {entry!r}"
                )
            if not isinstance(segment_id, str):
                raise ValueError(
                    f"segments sidecar entry {index}: segment_id must be a string: {entry!r}"
                )
            if not (type(start) is int and type(end) is int):
                raise ValueError(
                    f"segments sidecar entry {index}: start and end must be integers: {entry!r}"
                )
            if segment_id in seen:
                raise ValueError(f"segment id {segment_id!r} is used twice")
            seen.add(segment_id)
            if not 0 <= start <= end <= len(text):
                raise ValueError(
                    f"segment {segment_id!r} range {start}..{end} "
                    f"is not inside the {len(text)}-character text"
                )
            if segments and start < segments[-1].end:
                raise ValueError(f"segment {segment_id!r} overlaps its predecessor")
            segments.append(Segment(segment_id, start, end, text[start:end]))
        return cls(doc_id, text, tuple(segments))


class RepairRecord(NamedTuple):
    ambiguity_id: str
    segment_id: str  # the anchor of the ambiguity this record repairs
    excerpt: str
    revised_excerpt: str
    rationale: str
    evidence_refs: tuple[str, ...]


class RejectedRepair(NamedTuple):
    ambiguity_id: str
    reason: str


class RepairOutcome(NamedTuple):
    records: tuple[RepairRecord, ...]
    rejected: tuple[RejectedRepair, ...]


def tokenize(text: str) -> set[str]:
    """Case-folded alphanumeric tokens; underscores split compound names."""
    return {token.casefold() for token in re.findall(r"[A-Za-z0-9]+", text)}


def token_jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def _gateway_condition_variables(model: ProcessModel, gateway_id: str) -> set[str]:
    names: set[str] = set()
    for flow in model.outgoing(gateway_id):
        if flow.condition is not None:
            names |= variables(flow.condition)
    return names


def _match_reference_gateway(
    ref_model: ProcessModel, label: str
) -> str | None:
    """Reference gateway matched by label, falling back to best token overlap."""
    candidates = [n for n in ref_model.nodes if n.kind is NodeKind.EXCLUSIVE_GATEWAY]
    for node in candidates:
        if node.label == label:
            return node.id
    label_tokens = tokenize(label)
    best_id, best_score = None, 0.0
    for node in candidates:
        score = token_jaccard(label_tokens, tokenize(node.label))
        if score > best_score:
            best_id, best_score = node.id, score
    return best_id


def _describe_gateway(model: ProcessModel, gateway_id: str) -> tuple[str, str]:
    """(reading, exercised_condition) for one model's version of a gateway."""
    node = model.node(gateway_id)
    clauses = []
    conditions = []
    default_clause = None
    for flow in model.outgoing(gateway_id):
        target_label = model.node(flow.target).label or flow.target
        if flow.is_default:
            default_clause = f"otherwise to '{target_label}'"
        elif flow.condition is not None:
            text = to_text(normalize(flow.condition))
            conditions.append(text)
            clauses.append(f"to '{target_label}' when {text}")
        else:
            clauses.append(f"to '{target_label}' unconditionally")
    if default_clause:
        clauses.append(default_clause)
    reading = f"'{node.label or gateway_id}' routes " + "; ".join(clauses)
    return reading, " | ".join(conditions)


def localize_ambiguity(
    refined: Sequence[Sequence[str]],
    tgt_model: ProcessModel,
    ref_model: ProcessModel,
    document: NarrativeDocument,
    *,
    threshold: float = DEFAULT_LOCALIZATION_THRESHOLD,
) -> tuple[list[dict], list[str]]:
    """Map each gateway of the refined diagnoses (sorted lists of exclusive
    gateway ids of the target model) to its best-scoring narrative segment.
    Returns the ambiguity report's entries, one per segment with every
    gateway that localized there, and the unlocalized gateway ids.

    The gateway token set is the union of its label tokens and the variable
    names (underscores split) from both models' branch conditions at the
    matched gateways.  Scoring is token Jaccard; the earliest segment wins
    ties, and gateways scoring below the threshold are reported as
    unlocalized rather than guessed.  An ambiguity lists its gateways and
    interpretations in gateway order and scores as its best gateway, so each
    paragraph is rewritten once however many gateways point at it.
    """
    ordered_gateways: list[str] = []
    for gateways in refined:
        for gateway_id in gateways:
            if gateway_id not in ordered_gateways:
                ordered_gateways.append(gateway_id)
    # segment id -> (segment, gateway scores, gateway tuples, interpretation tuples)
    found: dict[str, tuple[Segment, list[float], list[tuple], list[tuple]]] = {}
    unlocalized: list[str] = []
    for gateway_id in ordered_gateways:
        node = tgt_model.node(gateway_id)
        ref_gateway_id = _match_reference_gateway(ref_model, node.label)
        tokens = tokenize(node.label)
        for name in _gateway_condition_variables(tgt_model, gateway_id):
            tokens |= tokenize(name)
        if ref_gateway_id is not None:
            for name in _gateway_condition_variables(ref_model, ref_gateway_id):
                tokens |= tokenize(name)
        best_segment, best_score = None, -1.0
        for segment in document.segments:
            score = token_jaccard(tokens, tokenize(segment.text))
            if score > best_score:
                best_segment, best_score = segment, score
        if best_segment is None or best_score < threshold:
            unlocalized.append(gateway_id)
            continue
        _segment, scores, refs, interpretations = found.setdefault(
            best_segment.segment_id, (best_segment, [], [], [])
        )
        scores.append(best_score)
        refs.append(("target", tgt_model.model_id, gateway_id, node.label))
        if ref_gateway_id is not None:
            ref_label = ref_model.node(ref_gateway_id).label
            refs.append(("reference", ref_model.model_id, ref_gateway_id, ref_label))
            interpretations.append(
                (ref_model.model_id, *_describe_gateway(ref_model, ref_gateway_id))
            )
        interpretations.append((tgt_model.model_id, *_describe_gateway(tgt_model, gateway_id)))
    ambiguities = [
        {
            "id": f"AMB-{counter}",
            "gateways": [
                dict(zip(("role", "model_id", "gateway_id", "label"), ref))
                for ref in dict.fromkeys(refs)
            ],
            "segment_id": segment.segment_id,
            "excerpt": segment.text,
            "score": max(scores),
            "interpretations": [
                dict(zip(("model_id", "reading", "exercised_condition"), interpretation))
                for interpretation in dict.fromkeys(interpretations)
            ],
        }
        for counter, (segment, scores, refs, interpretations) in enumerate(found.values(), 1)
    ]
    return ambiguities, unlocalized


class RewriteProvider(Protocol):
    """Provider contract: one request per ambiguity, one record-shaped dict
    back.  Implementations raise ProviderUnavailableError for transport
    failures and ProviderMalformedResponseError for unusable payloads, which
    ``propose_repairs`` rejects."""

    def rewrite(self, request: Mapping[str, object]) -> Mapping[str, object]:
        ...


REPAIR_PROCEDURE = (
    "localization and mapping",
    "evidence-based interpretation selection",
    "minimal disambiguation synthesis",
    "narrative reconstruction",
)


class CannedRewriteProvider:
    """File-backed provider keyed by segment id, the stable anchor of a
    request (ambiguity ids are positional); used for offline runs and
    reproducible tests."""

    def __init__(self, responses: Mapping[str, Mapping[str, object]]):
        self._responses = dict(responses)

    def rewrite(self, request: Mapping[str, object]) -> Mapping[str, object]:
        ambiguity_id = str(request.get("ambiguity_id", ""))
        segment_id = str(request.get("segment_id", ""))
        if segment_id not in self._responses:
            raise ProviderMalformedResponseError(ambiguity_id, "no canned response")
        response = self._responses[segment_id]
        if not isinstance(response, Mapping):
            raise ProviderMalformedResponseError(ambiguity_id, "canned response is not an object")
        return {"ambiguity_id": ambiguity_id, **response}


class HttpRewriteProvider:
    """Generic JSON-over-HTTP provider: one POST per ambiguity, through the
    standard library's ``urllib.request``, which is imported on the first
    call so that offline runs never load it.

    Only ``http`` and ``https`` endpoints are accepted, and redirects are not
    followed: a 3xx status fails like any other non-200 one, so the bearer
    token never travels to another host.  The auth token is injected by the
    caller (read from an environment variable, never from config files).
    Retries cover connection errors, timeouts, dropped connections and 5xx
    responses with a short fixed backoff.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        model: str | None = None,
        auth_token: str | None = None,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.2,
    ):
        if urlsplit(endpoint).scheme not in ("http", "https"):
            raise ValueError(f"provider endpoint must be an http or https URL: {endpoint!r}")
        self.endpoint = endpoint
        self.model = model
        self.auth_token = auth_token
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._opener = None  # built on the first call, see rewrite

    def rewrite(self, request: Mapping[str, object]) -> Mapping[str, object]:
        import http.client
        import urllib.error
        import urllib.request

        if self._opener is None:
            # No redirect handler: a followed redirect would carry the bearer
            # token to whatever host it names, and would drop the POST body.
            self._opener = urllib.request.OpenerDirector()
            for handler in (
                urllib.request.ProxyHandler(),
                urllib.request.UnknownHandler(),
                urllib.request.HTTPHandler(),
                urllib.request.HTTPSHandler(),
                urllib.request.HTTPDefaultErrorHandler(),
                urllib.request.HTTPErrorProcessor(),
            ):
                self._opener.add_handler(handler)
        payload = dict(request)
        if self.model:
            payload["model"] = self.model
        headers = {"Content-Type": "application/json"}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        ambiguity_id = str(request.get("ambiguity_id", ""))
        last_error = "no attempt made"
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff)
            post = urllib.request.Request(self.endpoint, data=body, headers=headers, method="POST")
            try:
                with self._opener.open(post, timeout=self.timeout) as response:
                    status, text = response.status, response.read()
            except urllib.error.HTTPError as exc:  # every non-2xx status arrives here
                exc.close()
                status, text = exc.code, b""
            except (OSError, http.client.HTTPException) as exc:
                last_error = str(exc)
                continue
            if status >= 500:
                last_error = f"server error {status}"
                continue
            if status != 200:
                raise ProviderUnavailableError(f"provider returned status {status}")
            try:
                data = json.loads(text)
            except ValueError as exc:
                raise ProviderMalformedResponseError(ambiguity_id, f"non-JSON body: {exc}")
            if not isinstance(data, dict):
                raise ProviderMalformedResponseError(ambiguity_id, "response is not an object")
            return {"ambiguity_id": ambiguity_id, **data}
        raise ProviderUnavailableError(
            f"provider unreachable after {self.retries + 1} attempts: {last_error}"
        )


def _coerce_record(
    anchor: tuple[str, str, str], response: Mapping[str, object]
) -> tuple[RepairRecord | None, str | None]:
    revised = response.get("revised_excerpt")
    rationale = response.get("rationale")
    evidence = response.get("evidence_refs")
    if not isinstance(revised, str) or not revised:
        return None, "missing or empty revised_excerpt"
    if not isinstance(rationale, str) or not rationale.strip():
        return None, "missing or empty rationale"
    if not isinstance(evidence, (list, tuple)) or not evidence:
        return None, "missing evidence_refs"
    if not all(isinstance(ref, str) for ref in evidence):
        return None, "evidence reference is not a string"
    if any(not ref.strip() for ref in evidence):
        return None, "blank evidence reference"
    return RepairRecord(*anchor, revised, rationale, tuple(evidence)), None


def propose_repairs(
    ambiguities: Sequence[Mapping[str, Any]],
    document: NarrativeDocument,
    supplemental: NarrativeDocument,
    provider: RewriteProvider,
) -> RepairOutcome:
    """Ask the provider for one repair per entry of the ambiguity report.

    Every entry must be an object with a string id that no other entry
    repeats; otherwise ValueError is raised before the provider is called.
    Records lacking a rationale or evidence, or whose ambiguity excerpt is
    empty or no longer anchored in the document, are rejected individually;
    transport failure aborts the whole run with ProviderUnavailableError.
    """
    seen: set[str] = set()
    for entry in ambiguities:
        if not isinstance(entry, Mapping) or not isinstance(entry.get("id"), str):
            raise ValueError(
                "ambiguity_report.json: every ambiguity must be an object with a string id"
            )
        if entry["id"] in seen:
            raise ValueError(f"ambiguity_report.json: ambiguity id {entry['id']!r} is used twice")
        seen.add(entry["id"])
    records: list[RepairRecord] = []
    rejected: list[RejectedRepair] = []
    supplemental_excerpts = [segment.text for segment in supplemental.segments]
    for entry in ambiguities:
        ambiguity_id = entry["id"]
        segment_id = str(entry.get("segment_id", ""))
        excerpt = entry.get("excerpt")
        try:
            segment = document.segment(segment_id)
        except KeyError:
            rejected.append(RejectedRepair(ambiguity_id, f"unknown segment {segment_id!r}"))
            continue
        if not isinstance(excerpt, str) or not excerpt:
            rejected.append(RejectedRepair(ambiguity_id, "excerpt is not a non-empty string"))
            continue
        if excerpt not in segment.text:
            rejected.append(
                RejectedRepair(ambiguity_id, "excerpt is not anchored in its segment")
            )
            continue
        request = {
            "ambiguity_id": ambiguity_id,
            "segment_id": segment_id,
            "original_segment": segment.text,
            "excerpt": excerpt,
            "interpretations": entry.get("interpretations", []),
            "supplemental_excerpts": supplemental_excerpts,
            "procedure": list(REPAIR_PROCEDURE),
        }
        try:
            response = provider.rewrite(request)
        except ProviderMalformedResponseError as exc:
            rejected.append(RejectedRepair(ambiguity_id, exc.detail))
            continue
        record, problem = _coerce_record((ambiguity_id, segment_id, excerpt), response)
        if record is None:
            rejected.append(RejectedRepair(ambiguity_id, problem or "malformed record"))
            continue
        records.append(record)
    return RepairOutcome(tuple(records), tuple(rejected))


def _id_order(ambiguity_id: str) -> tuple[str, int, str]:
    """Sort key that puts AMB-2 before AMB-10: the prefix, then the number
    the id ends in."""
    digits = re.search(r"\d*\Z", ambiguity_id).group()  # type: ignore[union-attr]
    prefix = ambiguity_id[: len(ambiguity_id) - len(digits)]
    return prefix, int(digits) if digits else -1, ambiguity_id


def reconstruct_narrative(document: NarrativeDocument, repairs: Sequence[RepairRecord]) -> str:
    """The narrative text with each record's revised excerpt spliced over its
    anchor excerpt, in the numeric order of the ambiguity ids.

    Only the first occurrence of each excerpt in its segment changes; every
    other character of the narrative is preserved.  A stale anchor raises
    ExcerptNotFoundError.
    """
    segment_texts = {segment.segment_id: segment.text for segment in document.segments}
    for record in sorted(repairs, key=lambda r: _id_order(r.ambiguity_id)):
        segment_id, excerpt = record.segment_id, record.excerpt
        current = segment_texts[segment_id]
        if excerpt not in current:
            raise ExcerptNotFoundError(
                f"repair {record.ambiguity_id!r}: excerpt not found in segment {segment_id!r}"
            )
        segment_texts[segment_id] = current.replace(excerpt, record.revised_excerpt, 1)
    pieces: list[str] = []
    cursor = 0
    for segment in document.segments:
        pieces.append(document.text[cursor : segment.start])
        pieces.append(segment_texts[segment.segment_id])
        cursor = segment.end
    pieces.append(document.text[cursor:])
    return "".join(pieces)
