#!/usr/bin/env python3
"""Generate the two synthetic model families checked in under fixtures/.

``family_original`` holds 100 models that read the ambiguous City 1
narrative in four different ways, round-robin over the eligibility reading
(AND of treatment and lab values vs OR over all three) and the acceptance
reading (consent plus recorded request vs consent alone).  Ids and condition
operand order vary cosmetically per model, the way independently authored
models would.

``family_repaired`` holds 100 models that all follow the repaired,
disambiguated narrative.  Four of them carry a small leftover slip (HbA1c
strictly above 6.5 instead of at least 6.5), so the family is highly
consistent without being unanimous.

Regeneration is deterministic for a given seed; the checked-in files were
produced with the default seed 7.
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

from bpmndiverge.bpmn import Node, NodeKind, ProcessModel, SequenceFlow
from bpmndiverge.conditions import parse_condition

from bpmn_writer import serialize_bpmn

REPO_ROOT = Path(__file__).resolve().parent.parent

PROCESS_NAME = "City 1 Health Guidance Program"

LABELS = {
    "start": "Screening Results Received",
    "review": "Review Screening Results",
    "g_elig": "Check Inclusion Eligibility",
    "notify": "Send Program Notification",
    "g_accept": "Check Health Guidance Acceptance",
    "guide": "Provide Health Guidance",
    "end_ok": "Guidance Delivered",
    "end_dec": "Participation Declined",
    "end_ne": "Not Eligible",
}


def comparison(rng: random.Random, var: str, op: str, literal: str) -> str:
    """Render a comparison, sometimes literal-first with the operator
    mirrored; both spellings canonicalize identically."""
    if rng.random() < 0.5:
        return f"{var} {op} {literal}"
    mirrored = {"==": "==", ">=": "<=", ">": "<"}[op]
    return f"{literal} {mirrored} {var}"


def eligibility_condition(rng: random.Random, reading: str, hba1c_op: str = ">=") -> str:
    treated = comparison(rng, "Diabetes_Under_Treatment", "==", "1")
    glucose = comparison(rng, "Fasting_Blood_Glucose", ">=", "126")
    hba1c = comparison(rng, "HbA1c", hba1c_op, "6.5")
    labs = [glucose, hba1c]
    rng.shuffle(labs)
    if reading == "and":
        clauses = [treated, f"({labs[0]} OR {labs[1]})"]
        rng.shuffle(clauses)
        return " AND ".join(clauses)
    atoms = [treated, *labs]
    rng.shuffle(atoms)
    return " OR ".join(atoms)


def acceptance_condition(rng: random.Random, reading: str) -> str:
    consent = comparison(rng, "Consent_Submitted", "==", "1")
    if reading == "broad":
        return consent
    request = comparison(rng, "Health_Guidance", "==", "1")
    clauses = [consent, request]
    rng.shuffle(clauses)
    return " AND ".join(clauses)


def build_model(
    model_id: str, rng: random.Random, elig_text: str, accept_text: str
) -> ProcessModel:
    prefix = rng.choice(["n", "k", "p", "q", "s"])
    nid = {key: f"{prefix}{index}" for index, key in enumerate(LABELS, start=1)}
    fid = [f"{prefix}f{index}" for index in range(1, 9)]
    nodes = (
        Node(nid["start"], NodeKind.START_EVENT, LABELS["start"]),
        Node(nid["review"], NodeKind.TASK, LABELS["review"]),
        Node(nid["g_elig"], NodeKind.EXCLUSIVE_GATEWAY, LABELS["g_elig"]),
        Node(nid["notify"], NodeKind.TASK, LABELS["notify"], ("NC",)),
        Node(nid["g_accept"], NodeKind.EXCLUSIVE_GATEWAY, LABELS["g_accept"]),
        Node(nid["guide"], NodeKind.TASK, LABELS["guide"], ("HC",)),
        Node(nid["end_ok"], NodeKind.END_EVENT, LABELS["end_ok"]),
        Node(nid["end_dec"], NodeKind.END_EVENT, LABELS["end_dec"]),
        Node(nid["end_ne"], NodeKind.END_EVENT, LABELS["end_ne"]),
    )
    flows = (
        SequenceFlow(fid[0], nid["start"], nid["review"]),
        SequenceFlow(fid[1], nid["review"], nid["g_elig"]),
        SequenceFlow(fid[2], nid["g_elig"], nid["notify"], parse_condition(elig_text)),
        SequenceFlow(fid[3], nid["g_elig"], nid["end_ne"], is_default=True),
        SequenceFlow(fid[4], nid["notify"], nid["g_accept"]),
        SequenceFlow(fid[5], nid["g_accept"], nid["guide"], parse_condition(accept_text)),
        SequenceFlow(fid[6], nid["g_accept"], nid["end_dec"], is_default=True),
        SequenceFlow(fid[7], nid["guide"], nid["end_ok"]),
    )
    return ProcessModel(model_id, nodes, flows)


def generate(out_root: Path, seed: int, count: int) -> None:
    readings = [("and", "strict"), ("and", "broad"), ("or", "strict"), ("or", "broad")]
    original_dir = out_root / "family_original"
    repaired_dir = out_root / "family_repaired"
    original_dir.mkdir(parents=True, exist_ok=True)
    repaired_dir.mkdir(parents=True, exist_ok=True)
    for index in range(count):
        model_id = f"fam_orig_{index:03d}"
        rng = random.Random(f"{seed}:{model_id}")
        elig_reading, accept_reading = readings[index % len(readings)]
        model = build_model(
            model_id,
            rng,
            eligibility_condition(rng, elig_reading),
            acceptance_condition(rng, accept_reading),
        )
        xml = serialize_bpmn(model, PROCESS_NAME)
        (original_dir / f"{model_id}.bpmn").write_text(xml, encoding="utf-8")
    for index in range(count):
        model_id = f"fam_rep_{index:03d}"
        rng = random.Random(f"{seed}:{model_id}")
        hba1c_op = ">" if index % 25 == 12 else ">="
        model = build_model(
            model_id,
            rng,
            eligibility_condition(rng, "and", hba1c_op=hba1c_op),
            acceptance_condition(rng, "strict"),
        )
        xml = serialize_bpmn(model, PROCESS_NAME)
        (repaired_dir / f"{model_id}.bpmn").write_text(xml, encoding="utf-8")
    print(f"wrote {count} models each to {original_dir} and {repaired_dir}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--out-root", type=Path, default=REPO_ROOT / "fixtures")
    args = parser.parse_args()
    generate(args.out_root, args.seed, args.count)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
