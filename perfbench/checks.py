"""Correctness oracles the benchmark applies to the artifacts of every run.

Each check returns a list of problems; an empty list means it passed.
KPIs are recounted by ``scripts/recount_kpis.py`` (from the traces when the
KPI files carry them, otherwise from fresh per-case ``execute_case`` walks
over one model of every outcome combo), entropy is recomputed in closed
form from the combo counts, and a diagnosis must name gateways whose
canonical conditions really differ between the diagnosed pair.
"""

from __future__ import annotations

import importlib.util
import json
import math
from collections import Counter
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path

from bpmndiverge import bpmn, conditions, simulation

KPI_NAMES = ("NC", "HC", "RU", "HI", "CS")
# The KPI parameters both the configs used here and recount_kpis.py default to.
RECOUNT_ARGS = (50, Fraction(1, 2), Fraction(3, 10), Fraction(1000))
CASE_ERRORS = (simulation.SimulationError, conditions.MissingVariableError, conditions.TypeMismatchError)


def load_recount(root: Path):
    spec = importlib.util.spec_from_file_location("recount_kpis", root / "scripts" / "recount_kpis.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.recount


def _recount_problems(recount, data: dict, reported: dict, label: str) -> list[str]:
    oracle = recount(data, *RECOUNT_ARGS)
    return [
        f"{label}: {name} reported {reported[name]} but recounts to {oracle[name]}"
        for name in KPI_NAMES
        if Fraction(Decimal(reported[name])) != Fraction(oracle[name])
    ]


def scan_kpis(kpi_dir: Path, recount=None) -> tuple[list[dict], list[str]]:
    """One summary per KPI file; with ``recount``, each file's KPIs are also
    recounted from its traces.  Files are read one at a time, so traces are
    never all held at once."""
    summaries, problems = [], []
    for path in sorted(kpi_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        summaries.append(
            {
                "model_id": data["model_id"],
                "source": data["source"],
                "kpis": data["kpis"],
                "error_ids": [error["case_id"] for error in data["errors"]],
                "bytes": path.stat().st_size,
            }
        )
        if recount is not None:
            if "traces" not in data:
                problems.append(f"{path.name}: no traces to recount")
            else:
                problems += _recount_problems(recount, data, data["kpis"], path.name)
    if not summaries:
        problems.append(f"no KPI files in {kpi_dir}")
    return summaries, problems


def check_walks(recount, summaries: list[dict], models_dir: Path, cases_csv: Path) -> list[str]:
    """Re-walk every case with ``execute_case`` through the first model of
    each distinct KPI vector, and recount its KPIs and case errors."""
    cases = simulation.load_cases_csv(cases_csv.read_text(encoding="utf-8"))
    sample: dict[tuple, dict] = {}
    for summary in summaries:
        sample.setdefault(tuple(summary["kpis"][name] for name in KPI_NAMES), summary)
    problems = []
    for summary in sample.values():
        model = bpmn.parse_bpmn((models_dir / summary["source"]).read_text(encoding="utf-8"))
        traces, error_ids = [], []
        for case in cases:
            try:
                trace = simulation.execute_case(model, case)
            except CASE_ERRORS:
                error_ids.append(case.case_id)
                continue
            traces.append({"case_id": trace.case_id, "emissions": trace.emissions})
        data = {"cases_total": len(cases), "traces": traces}
        problems += _recount_problems(recount, data, summary["kpis"], summary["model_id"])
        if error_ids != summary["error_ids"]:
            problems.append(f"{summary['model_id']}: case errors differ from per-case walks")
    return problems


def closed_form(summaries: list[dict], round_decimals: int) -> tuple[list[int], float]:
    """Combo counts (descending) and normalized entropy, from the definitions."""
    exponent = Decimal(1).scaleb(-round_decimals)
    counts = Counter(
        tuple(Decimal(s["kpis"][name]).quantize(exponent, rounding=ROUND_HALF_EVEN) for name in KPI_NAMES)
        for s in summaries
    )
    total = len(summaries)
    ordered = sorted(counts.values(), reverse=True)
    if len(ordered) == 1:
        return ordered, 0.0
    h = -sum(c / total * math.log2(c / total) for c in ordered)
    return ordered, h / math.log2(len(ordered))


def check_entropy(summaries: list[dict], distribution_json: Path) -> list[str]:
    payload = json.loads(distribution_json.read_text(encoding="utf-8"))
    counts, h_norm = closed_form(summaries, payload["round_decimals"])
    problems = []
    if [combo["count"] for combo in payload["combos"]] != counts:
        problems.append(f"combo counts {[c['count'] for c in payload['combos']]} != {counts}")
    if not math.isclose(payload["h_norm"], h_norm, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"h_norm {payload['h_norm']} != closed form {h_norm}")
    return problems


def check_verify(before: list[dict], after: list[dict], verify_json: Path, round_decimals: int) -> list[str]:
    payload = json.loads(verify_json.read_text(encoding="utf-8"))
    problems = []
    for key, summaries in (("before", before), ("after", after)):
        _counts, h_norm = closed_form(summaries, round_decimals)
        if not math.isclose(payload[key]["h_norm"], h_norm, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"verify {key} h_norm {payload[key]['h_norm']} != closed form {h_norm}")
    return problems


def gateway_conditions(models_dir: Path) -> dict[str, dict[str, tuple[str, frozenset[str]]]]:
    """model id -> gateway id -> (label, canonical texts of its branch conditions)."""
    out = {}
    for path in sorted(models_dir.glob("*.bpmn")):
        model = bpmn.parse_bpmn(path.read_text(encoding="utf-8"))
        out[model.model_id] = {
            view.gateway_id: (
                view.label,
                frozenset(
                    conditions.to_text(conditions.normalize(cond))
                    for _flow, cond in view.branches
                    if cond is not None
                ),
            )
            for view in bpmn.gateways(model)
        }
    return out


def check_diagnosis(diagnosis_json: Path, models_dir: Path) -> list[str]:
    """A refined diagnosis must exist, and each gateway in it must branch on
    canonically different conditions than the reference gateway of the same
    label."""
    payload = json.loads(diagnosis_json.read_text(encoding="utf-8"))
    if payload.get("status") != "diagnosed":
        return [f"diagnosis status {payload.get('status')!r}"]
    refined = payload["refined_diagnoses"]
    if not refined or any(not d["gateways"] for d in refined):
        return [f"empty refined diagnosis {refined}"]
    family = gateway_conditions(models_dir)
    reference = dict(family[payload["reference_model"]].values())
    target = family[payload["target_model"]]
    problems = []
    for diagnosis in refined:
        for gateway in diagnosis["gateways"]:
            label, texts = target[gateway]
            if texts == reference.get(label):
                problems.append(f"gateway {gateway} ({label}) has equal canonical conditions")
    return problems


def _sub_conditions(ast) -> list:
    """The condition and every compound or comparison inside it."""
    if isinstance(ast, conditions.Not):
        return [ast, *_sub_conditions(ast.operand)]
    if isinstance(ast, conditions.BoolOp):
        return [ast, *(sub for operand in ast.operands for sub in _sub_conditions(operand))]
    return [ast]


def distinct_conditions(models_dir: Path) -> tuple[int, int]:
    """Distinct canonical branch conditions across every model in the
    directory, and distinct canonical sub-conditions inside them."""
    branches, subs = set(), set()
    for path in sorted(models_dir.glob("*.bpmn")):
        model = bpmn.parse_bpmn(path.read_text(encoding="utf-8"))
        for flow in model.flows:
            if flow.condition is not None:
                canonical = conditions.normalize(flow.condition)
                branches.add(conditions.to_text(canonical))
                subs.update(conditions.to_text(sub) for sub in _sub_conditions(canonical))
    return len(branches), len(subs)
