"""Command-line pipeline: simulate, entropy, diagnose, report, repair, verify,
validate.

Every command reads its inputs from the merged configuration (config file,
then flags) and writes deterministic artifacts into the output directory via
atomic temp-file renames, so reruns on unchanged inputs are byte-identical.
``entropy`` and ``verify`` round each KPI value once, as they read it.
Exit codes: 0 success or benign status, 1 usage error, 2 data error,
3 provider error.
"""

from __future__ import annotations

import json
import os
import re
import sys
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from json.encoder import encode_basestring as _string
from pathlib import Path
from typing import Any, Callable, Collection, NoReturn, Sequence

from . import bpmn, diagnosis, distribution, repair, simulation
from .config import ConfigError, RunConfig, build_run_config, load_config


class DataError(Exception):
    """Input artifact missing or malformed."""


# A model id names its KPI file, so it must be a plain file name.
_MODEL_ID = re.compile(r"\w[\w.-]*")


def dump_json(payload: object) -> str:
    """The text of ``json.dumps(payload, indent=2, ensure_ascii=False)`` and a
    newline.  ``json`` encodes with an indent in Python, a generator step per
    item; this encodes each string with its C ``encode_basestring`` and joins
    each container once."""
    return _json(payload, "\n") + "\n"


def _json(value: object, indent: str) -> str:
    """``value`` as ``dump_json`` writes it where its lines start with ``indent``."""
    if isinstance(value, str):
        return _string(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_string(item) if type(item) is str else _json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(value, dict):
        # json.dumps converts a key that is not a string, or raises its TypeError.
        keys = [_string(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4] for k in value]
        items = [f"{key}: {_json(item, inner)}" for key, item in zip(keys, value.values())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    return json.dumps(value)  # a number, a bool or None; anything else raises json's TypeError


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through a new temp file beside it,
    which ``open`` gives mode 0o666 less the umask; failing to is a config
    error.  The directory is made only when the temp file cannot be opened."""
    temp_name = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    try:
        try:
            handle = open(temp_name, "xb")
        except OSError:  # mkdir raises what stands in the way, or makes the directory
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(temp_name, "xb")
        try:
            with handle:
                handle.write(text.encode())
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}")


def _read_input(path: Path | None, key: str, hint: str = "") -> str:
    """The text of the UTF-8 file ``path``, configured as ``key``; ``hint``
    follows "not found" when the file cannot be opened."""
    if path is None:
        raise ConfigError(f"{key} is not configured")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}")
    except OSError:  # no such file, a directory, or a name the OS rejects
        raise DataError(f"{key} not found{hint}: {path}")


def _parse_json(text: str, source: str, parse_float: Callable[[str], Any] = float) -> Any:
    """The JSON value in ``text``, its fractions read by ``parse_float``.  The
    non-standard ``NaN``, ``Infinity`` and ``-Infinity`` tokens are rejected."""

    def non_finite(token: str) -> NoReturn:
        raise DataError(f"{source}: non-finite number {token}")

    try:
        return json.loads(text, parse_float=parse_float, parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise DataError(f"{source}: invalid JSON: {exc}")


def _read_artifact(path: Path, producer: str, parse_float: Callable[[str], Any] = float) -> Any:
    """The JSON value an earlier stage wrote to ``path``."""
    text = _read_input(path, path.name, f" (run {producer} first)")
    return _parse_json(text, path.name, parse_float)


def _field(payload: object, key: str, kind: type | tuple[type, ...], source: str):
    """``payload[key]``, required to exist and to be a ``kind`` but not a bool."""
    value = payload.get(key) if isinstance(payload, dict) else None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DataError(f"{source}: {key!r} is missing or has the wrong type")
    return value


def _model_files(config: RunConfig, names: Sequence[object] = ()) -> list[Path]:
    """The regular .bpmn and .xml files directly in ``models_dir``: all, in
    name order, or those ``names`` name."""
    models_dir = config.models_dir
    if models_dir is None:
        raise ConfigError("models_dir is not configured")
    try:
        with os.scandir(models_dir) as entries:
            found = {e.name for e in entries if e.is_file()}
    except OSError:  # no such directory, not a directory, or a name the OS rejects
        raise DataError(f"models directory not found: {models_dir}")
    named = [n for n in names if isinstance(n, str) and n in found] if names else sorted(found)
    return [p for p in map(models_dir.joinpath, named) if p.suffix.lower() in (".bpmn", ".xml")]


def _read_model(path: Path, config: RunConfig | None, conditions: dict | None = None) -> Any:
    """The model in file ``path`` built with ``config``'s KPI tags, or its id
    alone without it; ``conditions`` is ``bpmn.parse_bpmn``'s."""
    try:
        text = path.read_text(encoding="utf-8")
        if config is None:
            return bpmn.model_id(text)
        return bpmn.parse_bpmn(text, config.kpi.kpi_task_tags, conditions)
    except (UnicodeDecodeError, bpmn.ModelError) as exc:
        raise DataError(f"{path.name}: {exc}")


def _load_models(
    config: RunConfig, pair: Sequence[str] | None = None
) -> list[tuple[bpmn.ProcessModel, str]]:
    """(model, file name) pairs from the regular model files in ``models_dir``,
    for ``simulate``, ``validate`` and ``diagnose``.

    Every file must be UTF-8 XML with a ``<process>`` whose id is a plain
    file name that no other file has; sorted file order keeps the duplicate
    message deterministic.  Without ``pair`` every model is built, in model id
    order, from one XML parse per file.  With ``pair``, every file is read for
    its id alone, then the two ``_pick_pair`` chooses are built, in its order.
    The models share one ``conditions`` dict: each distinct text is parsed once."""
    files = _model_files(config)
    if not files:
        raise DataError(f"no .bpmn or .xml files in {config.models_dir}")
    conditions: dict[str, Any] = {}
    # model id -> (the model, or the id when only the id is read; its file)
    found: dict[str, tuple[Any, Path]] = {}
    for path in files:
        entry = _read_model(path, config if pair is None else None, conditions)
        model_id = entry.model_id if pair is None else entry
        if not _MODEL_ID.fullmatch(model_id):
            raise DataError(
                f"{path.name}: model id {model_id!r} is not a plain file name "
                "(a letter, digit or '_', then letters, digits, '_', '.' or '-')"
            )
        if model_id in found:
            raise DataError(
                f"duplicate model id {model_id!r} in {path.name} and {found[model_id][1].name}"
            )
        found[model_id] = (entry, path)
    if pair is None:
        return [(found[model_id][0], found[model_id][1].name) for model_id in sorted(found)]
    picked = [found[model_id][1] for model_id in _pick_pair(config, found.keys(), pair)]
    return [(_read_model(path, config, conditions), path.name) for path in picked]


def _load_cases(config: RunConfig) -> simulation.CaseTable:
    text = _read_input(config.cases_csv, "cases_csv")
    return simulation.load_cases_csv(text, str(config.cases_csv))


def _kpi_dir(config: RunConfig) -> Path:
    return config.out_dir / "kpis"


def cmd_simulate(config: RunConfig, traces: bool = False) -> int:
    models = _load_models(config)
    cases = _load_cases(config)
    out_dir = _kpi_dir(config)
    for model, source in models:
        result = simulation.simulate_population(model, cases, config.kpi)
        payload: dict[str, object] = {
            "model_id": model.model_id,
            "source": source,
            "cases_total": len(cases),
            "kpis": result.kpis.as_json_dict(),
            "errors": [
                {"case_id": case_id, "reason": reason} for case_id, reason in result.errors
            ],
        }
        if traces:
            payload["traces"] = [
                {
                    "case_ids": simulation.case_ids(cases, members),
                    "steps": walk.steps,
                    "flows": walk.flows,
                    "emissions": walk.emissions,
                }
                for members, walk in result.paths
            ]
        atomic_write(out_dir / f"{model.model_id}.json", dump_json(payload))
    # The directory holds this run's models only, so entropy reads no stale one.
    model_ids = {model.model_id for model, _ in models}
    for stale in out_dir.glob("*.json"):
        if stale.stem not in model_ids and stale.is_file():
            try:
                stale.unlink()
            except OSError as exc:
                raise ConfigError(f"cannot remove {stale}: {exc.strerror}")
    print(f"simulated {len(models)} model(s) over {len(cases)} case(s) -> {out_dir}")
    return 0


def _parse_kpis(values: dict, source: str, round_decimals: int) -> simulation.KpiVector:
    """The vector of the five KPIs in ``values``, each a finite number (a JSON
    number or text, not a bool) rounded half to even to ``round_decimals``
    places.  Errors show a value as written."""
    exponent = Decimal(1).scaleb(-round_decimals)
    rounded = []
    for name in simulation.KPI_NAMES:
        found = values.get(name)
        try:
            value = Decimal(found) if type(found) in (str, int, Decimal) else None
        except InvalidOperation:
            value = None
        if value is None or not value.is_finite():
            raise DataError(f"{source}: KPI {name} must be a finite number, found {found!r}")
        try:
            rounded.append(value.quantize(exponent, rounding=ROUND_HALF_EVEN))
        except InvalidOperation:
            shown = found if isinstance(found, Decimal) else repr(found)  # a JSON number or text
            raise DataError(
                f"{source}: KPI {name} value {shown} has too many digits to round to "
                f"{round_decimals} decimals"
            )
    return simulation.KpiVector(*rounded)


def _read_kpi_dir(path: Path, round_decimals: int) -> list[tuple[str, simulation.KpiVector]]:
    """(model_id, vector) per KPI JSON file, in file name order."""
    try:
        with os.scandir(path) as found:
            # A directory entry knows whether it is a file, so this costs no stat call.
            names = sorted(e.name for e in found if e.name.endswith(".json") and e.is_file())
    except OSError:  # no such directory, not a directory, or a name the OS rejects
        raise DataError(f"KPI directory not found: {path}")
    entries: list[tuple[str, simulation.KpiVector]] = []
    files: dict[str, str] = {}
    for file in (path / name for name in names):
        data = _read_artifact(file, "simulate", Decimal)  # a KPI number is read exactly
        model_id = _field(data, "model_id", str, file.name)
        if model_id in files:
            raise DataError(f"{file.name}: model_id {model_id!r} is also in {files[model_id]}")
        files[model_id] = file.name
        vector = _parse_kpis(_field(data, "kpis", dict, file.name), file.name, round_decimals)
        entries.append((model_id, vector))
    if not entries:
        raise DataError(f"no KPI JSON files in {path}")
    return entries


def _read_kpi_csv(path: Path, round_decimals: int) -> list[tuple[str, simulation.KpiVector]]:
    """(model_id, vector) per row of a CSV with model_id plus one column per KPI."""
    header, rows = simulation.read_csv_table(
        _read_input(path, "KPI CSV"),
        "KPI CSV",
        "model_id",
        "the five KPI names, each once",
        simulation.KPI_NAMES,
    )
    return [
        (
            row[0].strip(),
            _parse_kpis(dict(zip(header[1:], row[1:])), f"KPI CSV row {row[0]!r}", round_decimals),
        )
        for row in rows
    ]


def _distribution_payload(
    entries: Sequence[tuple[str, simulation.KpiVector]], round_decimals: int
) -> tuple[dict, list[distribution.DistributionCombo]]:
    combos = distribution.build_distribution(entries)
    h_norm = distribution.normalized_entropy([combo.count for combo in combos])
    payload = {
        "total": len(entries),
        "round_decimals": round_decimals,
        "h_norm": h_norm,
        "category": distribution.consistency_category(h_norm).value,
        "combos": [
            {
                "kpis": combo.vector.as_json_dict(),
                "count": combo.count,
                "probability": combo.count / len(entries),
                "models": combo.models,
            }
            for combo in combos
        ],
    }
    return payload, combos


def cmd_entropy(config: RunConfig, kpis: Path | None = None, from_csv: Path | None = None) -> int:
    if kpis is not None and from_csv is not None:
        raise ConfigError("entropy takes --kpis or --from-csv, not both")
    if from_csv is not None:
        entries = _read_kpi_csv(from_csv, config.round_decimals)
    else:
        entries = _read_kpi_dir(kpis or _kpi_dir(config), config.round_decimals)
    payload, combos = _distribution_payload(entries, config.round_decimals)
    atomic_write(config.out_dir / "distribution.json", dump_json(payload))
    histogram_lines = ["label,count"]
    for combo in combos:
        histogram_lines.append(f'"{combo.vector.label()}",{combo.count}')
    atomic_write(config.out_dir / "histogram.csv", "\n".join(histogram_lines) + "\n")
    print(
        f"h_norm={payload['h_norm']:.6f} category={payload['category']} "
        f"combos={len(combos)} -> {config.out_dir / 'distribution.json'}"
    )
    return 0


def _pick_pair(
    config: RunConfig, models: Collection[str], requested: Sequence[str]
) -> Sequence[str]:
    """The ids of the pair to diagnose: ``requested``, or else the
    representatives of the two largest classes in distribution.json."""
    if requested:
        missing = [m for m in requested if m not in models]
        if missing:
            raise DataError(f"model id(s) not found in models_dir: {', '.join(missing)}")
        return requested
    source = "distribution.json"
    combos = _field(_read_artifact(config.out_dir / source, "entropy"), "combos", list, source)
    members = [_field(combo, "models", list, source) for combo in combos]
    unknown = sorted(
        {str(m) for ids in members for m in ids if not (isinstance(m, str) and m in models)}
    )
    if unknown:
        raise DataError(
            f"{source} names model(s) not in models_dir: {', '.join(unknown)} "
            "(rerun simulate and entropy)"
        )
    combo_of: dict[str, int] = {}
    for index, ids in enumerate(members):
        if not ids:
            raise DataError(f"{source}: combo {index} lists no model (rerun entropy)")
        for model_id in ids:
            if combo_of.setdefault(model_id, index) != index:
                raise DataError(
                    f"{source}: model {model_id!r} is in combos {combo_of[model_id]} and {index} "
                    "(rerun entropy)"
                )
    return distribution.select_representatives(members)


def cmd_diagnose(config: RunConfig, *requested: str) -> int:
    if requested and not len(requested) == len(set(requested)) == 2:
        raise ConfigError("pass no model ids (auto-pick) or exactly two distinct model ids")
    (model_a, source_a), (model_b, source_b) = _load_models(config, requested)
    cases = _load_cases(config)
    path = config.out_dir / "diagnosis.json"
    try:
        result = diagnosis.choose_direction(
            model_a, model_b, cases, max_cardinality=config.max_diagnosis_cardinality
        )
    except diagnosis.NoDivergenceError:
        models_pair = sorted([model_a.model_id, model_b.model_id])
        atomic_write(path, dump_json({"status": "no_divergence", "models": models_pair}))
        print(f"no divergence -> {path}")
        return 0
    chosen = result.chosen
    problem = chosen.problem
    ref, tgt = problem.reference_model_id, problem.target_model_id
    sources = {model_a.model_id: source_a, model_b.model_id: source_b}
    payload = {
        "status": "diagnosed",
        "reference_model": ref,
        "target_model": tgt,
        "reference_source": sources[ref],
        "target_source": sources[tgt],
        "orientation_note": (
            "reference/target orientation is chosen for explanatory parsimony and does not "
            "imply either model is correct"
        ),
        "components": list(problem.components),
        "conflicts": [
            {"gateways": list(c.gateways), "case_ids": list(c.case_ids)}
            for c in problem.conflicts
        ],
        "diagnoses": [{"gateways": list(d)} for d in chosen.diagnoses],
        "diagnoses_truncated": chosen.truncated,
        "refined_diagnoses": [{"gateways": list(d)} for d in chosen.refined],
        "unattributable": [
            {
                "case_id": case_id,
                "kind": d.kind.value,
                "index": d.index,
                "t_last": d.t_last,
                "t_first": d.t_first,
            }
            for case_id, d in problem.unattributable
        ],
        "failed_cases": [
            {"case_id": case_id, "reason": reason} for case_id, reason in problem.failed_cases
        ],
        "observations": {
            "total": len(result.observations),
            "discrepant": [
                {
                    "case_id": o.case_id,
                    "task_label": o.task_label,
                    "kpi": o.kpi_name,
                    "ref_emitted": o.ref_emitted,
                    "tgt_emitted": o.tgt_emitted,
                }
                for o in result.observations
                if o.discrepant
            ],
        },
        "reverse_orientation": {
            "reference_model": result.reverse.problem.reference_model_id,
            "refined_diagnoses": [{"gateways": list(d)} for d in result.reverse.refined],
        },
    }
    atomic_write(path, dump_json(payload))
    refined = [list(d) for d in chosen.refined]
    print(f"reference={ref} target={tgt} refined_diagnoses={refined} -> {path}")
    return 0


def _diagnosed_pair(payload: object) -> tuple[str, str, list[list[str]]] | None:
    """(reference id, target id, refined gateway lists) from diagnosis.json,
    or None when it records no divergence."""
    source = "diagnosis.json"
    status = _field(payload, "status", str, source)
    if status == "no_divergence":
        return None
    if status != "diagnosed":
        raise DataError(f"{source}: unknown status {status!r}")
    refined = [
        _field(entry, "gateways", list, source)
        for entry in _field(payload, "refined_diagnoses", list, source)
    ]
    if not all(isinstance(gateway, str) for gateways in refined for gateway in gateways):
        raise DataError(f"{source}: gateway ids must be strings (rerun diagnose)")
    reference = _field(payload, "reference_model", str, source)
    return reference, _field(payload, "target_model", str, source), refined


def _load_narrative(config: RunConfig) -> repair.NarrativeDocument:
    text = _read_input(config.narrative, "narrative")
    doc_id = config.narrative.stem  # type: ignore[union-attr]
    sidecar = config.segments_json
    if sidecar is None:
        return repair.NarrativeDocument.from_text(doc_id, text)
    ranges = _parse_json(_read_input(sidecar, "segments_json"), str(sidecar))
    return repair.NarrativeDocument.with_segments(doc_id, text, ranges)


def cmd_report(config: RunConfig) -> int:
    """Localize diagnosis.json's refined diagnoses, each id an exclusive gateway of
    its target, reading only its two recorded model files."""
    dist_payload = _read_artifact(config.out_dir / "distribution.json", "entropy")
    diagnosis_payload = _read_artifact(config.out_dir / "diagnosis.json", "diagnose")
    diagnosed = _diagnosed_pair(diagnosis_payload)
    source = "distribution.json"
    combo_fields = (("kpis", dict), ("count", int), ("probability", (int, float)))
    entropy_summary = {
        "h_norm": _field(dist_payload, "h_norm", (int, float), source),
        "category": _field(dist_payload, "category", str, source),
        "combos": [
            {key: _field(combo, key, kind, source) for key, kind in combo_fields}
            for combo in _field(dist_payload, "combos", list, source)
        ],
    }
    document = _load_narrative(config)
    ambiguities, unlocalized = [], []
    diagnosis_block: dict[str, object] = {"status": "no_divergence"}
    if diagnosed is not None:
        reference, target, refined = diagnosed
        names = [diagnosis_payload.get(f"{role}_source") for role in ("reference", "target")]
        models = [_read_model(path, config) for path in _model_files(config, names)]
        if [model.model_id for model in models] != [reference, target]:
            raise DataError(
                f"diagnosis.json: reference_source and target_source {names} are not the files "
                f"of {reference!r} and {target!r} in {config.models_dir} (rerun diagnose)"
            )
        ref_model, tgt_model = models
        exclusive = {n.id for n in tgt_model.nodes if n.kind is bpmn.NodeKind.EXCLUSIVE_GATEWAY}
        stray = next((g for gateways in refined for g in gateways if g not in exclusive), None)
        if stray is not None:
            raise DataError(
                f"diagnosis.json: refined_diagnoses names {stray!r}, which is not an "
                f"exclusive gateway of {target!r} (rerun diagnose)"
            )
        ambiguities, unlocalized = repair.localize_ambiguity(
            refined, tgt_model, ref_model, document, threshold=config.localization_threshold
        )
        diagnosis_block = {
            "reference": reference,
            "target": target,
            "minimal_diagnoses": [{"gateways": gateways} for gateways in refined],
        }
    report_payload = {
        "doc_id": document.doc_id,
        "entropy": entropy_summary,
        "diagnosis": diagnosis_block,
        "ambiguities": ambiguities,
        "unlocalized_gateways": unlocalized,
    }
    atomic_write(config.out_dir / "ambiguity_report.json", dump_json(report_payload))
    print(f"ambiguities={len(ambiguities)} -> {config.out_dir / 'ambiguity_report.json'}")
    return 0


def _build_provider(config: RunConfig) -> repair.RewriteProvider:
    if config.provider == "canned":
        path = config.provider_canned_path
        responses = _parse_json(_read_input(path, "provider_canned_path"), str(path))
        if not isinstance(responses, dict):
            raise DataError(f"{path}: canned responses must be a JSON object")
        return repair.CannedRewriteProvider(responses)
    if config.provider == "http":
        endpoint = config.provider_endpoint
        if not endpoint:
            raise ConfigError("provider_endpoint is required for the http provider")
        secret = config.provider_auth_env  # the environment variable that holds the token
        try:
            return repair.HttpRewriteProvider(
                endpoint,
                model=config.provider_model,
                auth_token=os.environ.get(secret) if secret else None,
                timeout=config.provider_timeout,
                retries=config.provider_retries,
            )
        except ValueError as exc:
            raise ConfigError(str(exc))
    raise ConfigError("no provider configured (set provider = canned or http)")


def cmd_repair(config: RunConfig) -> int:
    report_payload = _read_artifact(config.out_dir / "ambiguity_report.json", "report")
    ambiguities = _field(report_payload, "ambiguities", list, "ambiguity_report.json")
    document = _load_narrative(config)
    supplemental_text = _read_input(config.supplemental, "supplemental")
    supplemental = repair.NarrativeDocument.from_text(
        config.supplemental.stem, supplemental_text  # type: ignore[union-attr]
    )
    provider = _build_provider(config)
    outcome = repair.propose_repairs(ambiguities, document, supplemental, provider)
    repaired_text = repair.reconstruct_narrative(document, outcome.records)
    atomic_write(
        config.out_dir / "repairs.json",
        dump_json(
            {
                "doc_id": document.doc_id,
                "records": [
                    {
                        "ambiguity_id": record.ambiguity_id,
                        "revised_excerpt": record.revised_excerpt,
                        "rationale": record.rationale,
                        "evidence_refs": list(record.evidence_refs),
                    }
                    for record in outcome.records
                ],
                "rejected": [
                    {"ambiguity_id": r.ambiguity_id, "reason": r.reason}
                    for r in outcome.rejected
                ],
            }
        ),
    )
    atomic_write(config.out_dir / "narrative_repaired.txt", repaired_text)
    print(
        f"applied {len(outcome.records)} repair(s), rejected {len(outcome.rejected)} "
        f"-> {config.out_dir / 'narrative_repaired.txt'}"
    )
    return 0


def cmd_verify(config: RunConfig, before: Path, after: Path) -> int:
    payload = {}
    for key, path in (("before", before), ("after", after)):
        entries = _read_kpi_dir(path, config.round_decimals)
        block, _combos = _distribution_payload(entries, config.round_decimals)
        payload[key] = {
            "kpi_dir": str(path),
            "total": block["total"],
            "h_norm": block["h_norm"],
            "category": block["category"],
        }
    payload["delta_h_norm"] = payload["after"]["h_norm"] - payload["before"]["h_norm"]
    atomic_write(config.out_dir / "verify.json", dump_json(payload))
    print(
        f"before={payload['before']['h_norm']:.6f} ({payload['before']['category']}) "
        f"after={payload['after']['h_norm']:.6f} ({payload['after']['category']}) "
        f"delta={payload['delta_h_norm']:+.6f} -> {config.out_dir / 'verify.json'}"
    )
    return 0


def cmd_validate(config: RunConfig) -> int:
    models = _load_models(config)
    total_issues = 0
    for model, source in models:
        issues = bpmn.validate_structure(model)
        total_issues += len(issues)
        if issues:
            print(f"{source} ({model.model_id}):")
            for issue in issues:
                print(f"  {issue.category.value}: {issue.node_id}: {issue.detail}")
    print(f"validated {len(models)} model(s), {total_issues} issue(s)")
    return 0


# The flags before the command, each to the config key it sets over the
# keys of the --config file.
_GLOBAL_FLAGS = {
    "--config": "config", "--models": "models_dir", "--cases": "cases_csv",
    "--narrative": "narrative", "--segments": "segments_json", "--supplemental": "supplemental",
    "--out": "out_dir", "--round-decimals": "round_decimals",
}

# Each command's function, help line and options: flag -> metavar, None for a
# switch.  An option reaches the function as the keyword its flag names
# (--from-csv -> from_csv), a value as a Path.  Only diagnose takes positional
# arguments, its model ids.
_COMMANDS: dict[str, tuple[Callable[..., int], str, dict[str, str | None]]] = {
    "simulate": (cmd_simulate, "simulate every model over the case population", {"--traces": None}),
    "entropy": (cmd_entropy, "KPI outcome entropy", {"--kpis": "DIR", "--from-csv": "FILE"}),
    "diagnose": (cmd_diagnose, "divergence diagnosis for a model pair (default: auto-pick)", {}),
    "report": (cmd_report, "ambiguity report for the pair diagnose chose", {}),
    "repair": (cmd_repair, "provider-backed narrative repair", {}),
    "verify": (cmd_verify, "compare two KPI directories", {"--before": "DIR", "--after": "DIR"}),
    "validate": (cmd_validate, "structural validation of every model", {}),
}
_REQUIRED = ("--before", "--after")
# What starts with "-" yet is a value, as argparse reads it: "-", a negative
# number, a word with a space; and "--", which no model id needs to escape.
_DASHED_VALUE = re.compile(r"--?|-\d+|-\d*\.\d+|.* .*")


class _UsageError(Exception):
    """args: the message, and the command whose usage to show (None: all)."""


def _is_flag(arg: str) -> bool:
    return arg[:1] == "-" and not _DASHED_VALUE.fullmatch(arg)


def _synopsis(command: str | None) -> str:
    if command is None:
        flags = " ".join(f"[{flag} {key.upper()}]" for flag, key in _GLOBAL_FLAGS.items())
        return f"[-h] {flags} COMMAND ..."
    words = [command, "[REF TGT]"] if command == "diagnose" else [command]
    for flag, metavar in _COMMANDS[command][2].items():
        word = flag if metavar is None else f"{flag} {metavar}"
        words.append(word if flag in _REQUIRED else f"[{word}]")
    return " ".join(words)


def _help() -> str:
    lines = [f"usage: bpmndiverge {_synopsis(None)}", "", "commands:"]
    for command, (_, text, _) in _COMMANDS.items():
        lines += [f"  {_synopsis(command)}", f"      {text}"]
    lines.append("\nGlobal flags go before the command, and a unique prefix stands for a flag.")
    return "\n".join(lines)


def _parse(argv: Sequence[str]) -> tuple[dict[str, str], str, list[str], dict[str, Any]] | None:
    """(config-key overrides, command, model ids, options) from ``argv``, or
    None once the help is printed.  The grammar is argparse's: --flag VALUE
    or --flag=VALUE, a unique prefix for a flag, and the last repeat wins."""
    command, flags = None, _GLOBAL_FLAGS
    given: dict[str, Any] = {}
    ids: list[str] = []
    unknown: list[str] = []
    args = iter(argv)
    for arg in args:
        if not _is_flag(arg):
            if command is None and arg not in _COMMANDS:
                raise _UsageError(f"invalid choice: {arg!r} (choose from {', '.join(_COMMANDS)})", None)
            if command is None:
                command, flags = arg, _COMMANDS[arg][2]
            else:
                (ids if command == "diagnose" else unknown).append(arg)
            continue
        name, equals, value = arg.partition("=")
        known = [*flags, "--help"]
        matches = [name] if name in known else [flag for flag in known if flag.startswith(name)]
        if name == "-h" or matches == ["--help"]:
            print(_help())
            return None
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {name} could match {', '.join(matches)}", command)
        if not matches:
            unknown.append(arg)
            continue
        flag = matches[0]
        if flags[flag] is None:
            if equals:
                raise _UsageError(f"argument {flag}: ignored explicit argument {value!r}", command)
            value = True
        elif not equals:
            value = next(args, None)
            if value is None or _is_flag(value):
                raise _UsageError(f"argument {flag}: expected one argument", command)
        given[flag] = value
    if command is None:
        raise _UsageError("the following arguments are required: command", None)
    missing = [flag for flag in flags if flag in _REQUIRED and flag not in given]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}", command)
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}", None)
    overrides = {_GLOBAL_FLAGS[flag]: v for flag, v in given.items() if flag in _GLOBAL_FLAGS}
    options = {
        flag[2:].replace("-", "_"): v if v is True else Path(v)
        for flag, v in given.items()
        if flag in flags
    }
    return overrides, command, ids, options


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        message, command = exc.args
        print(f"usage: bpmndiverge {_synopsis(command)}\nerror: {message}", file=sys.stderr)
        return 1
    if parsed is None:
        return 0
    overrides, command, ids, options = parsed
    try:
        config = RunConfig()
        if "config" in overrides:
            config = load_config(Path(overrides.pop("config")), config)
        config = build_run_config(overrides, config)
        return _COMMANDS[command][0](config, *ids, **options)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        DataError,
        bpmn.ModelError,
        simulation.CaseDataError,
        distribution.SingleClassError,
        repair.ExcerptNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except repair.ProviderUnavailableError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
