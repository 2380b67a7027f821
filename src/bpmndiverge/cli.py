"""Command-line pipeline: simulate, entropy, diagnose, report, repair, verify,
validate.

Every command reads its inputs from the merged configuration (config file,
then flags) and writes deterministic artifacts into the output directory via
atomic temp-file renames, so reruns on unchanged inputs are byte-identical.
Exit codes: 0 success or benign status, 1 usage error, 2 data error,
3 provider error.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's gettext imports it at the first parser build
import os
import re
import sys
import tempfile
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Any, Callable, Collection, NoReturn, Sequence

from . import bpmn, diagnosis, distribution, repair, simulation
from .config import KEYS, ConfigError, RunConfig, build_run_config, load_config, provider_auth_token


class DataError(Exception):
    """Input artifact missing or malformed."""


# A model id names its KPI file, so it must be a plain file name.
_MODEL_ID = re.compile(r"\w[\w.-]*")


def dump_json(payload: object) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _read_input(path: Path | None, key: str, hint: str = "") -> str:
    """The text of the UTF-8 file ``path``, configured as ``key``; ``hint``
    follows "not found" when the file is missing."""
    if path is None:
        raise ConfigError(f"{key} is not configured")
    if not path.is_file():
        raise DataError(f"{key} not found{hint}: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}")


def _parse_json(text: str, source: str) -> Any:
    """The JSON value in ``text``.  The non-standard ``NaN``, ``Infinity``
    and ``-Infinity`` tokens are rejected."""

    def non_finite(token: str) -> NoReturn:
        raise DataError(f"{source}: non-finite number {token}")

    try:
        return json.loads(text, parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise DataError(f"{source}: invalid JSON: {exc}")


def _read_artifact(path: Path, producer: str) -> Any:
    """The JSON value an earlier stage wrote to ``path``."""
    return _parse_json(_read_input(path, path.name, f" (run {producer} first)"), path.name)


def _field(payload: object, key: str, kind: type | tuple[type, ...], source: str):
    """``payload[key]``, required to exist and to be an instance of ``kind``."""
    value = payload.get(key) if isinstance(payload, dict) else None
    if not isinstance(value, kind):
        raise DataError(f"{source}: {key!r} is missing or has the wrong type")
    return value


def _load_models(
    config: RunConfig, pick: Callable[[Collection[str]], Sequence[str]] | None = None
) -> list[tuple[bpmn.ProcessModel, str]]:
    """(model, file name) pairs from the regular model files in ``models_dir``.

    Every file must be UTF-8 XML with a ``<process>`` whose id is a plain
    file name that no other file has; sorted file order keeps the duplicate
    message deterministic.  Without ``pick`` every model is built, in model id
    order, from one XML parse per file.  With ``pick``, the other files are
    parsed for their id alone: ``pick`` gets every id and names the models to
    build, in the order returned."""
    models_dir = config.models_dir
    if models_dir is None:
        raise ConfigError("models_dir is not configured")
    if not models_dir.is_dir():
        raise DataError(f"models directory not found: {models_dir}")
    files = sorted(
        p for p in models_dir.iterdir() if p.suffix.lower() in (".bpmn", ".xml") and p.is_file()
    )
    if not files:
        raise DataError(f"no .bpmn or .xml files in {models_dir}")
    tags = config.kpi.kpi_task_tags or None
    # model id -> (the model, or its text when only the id is read; file name)
    found: dict[str, tuple[Any, str]] = {}
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
            entry = bpmn.parse_bpmn(text, tags) if pick is None else text
            model_id = entry.model_id if pick is None else bpmn.model_id(text)
        except (UnicodeDecodeError, bpmn.ModelError) as exc:
            raise DataError(f"{path.name}: {exc}")
        if not _MODEL_ID.fullmatch(model_id):
            raise DataError(
                f"{path.name}: model id {model_id!r} is not a plain file name "
                "(a letter, digit or '_', then letters, digits, '_', '.' or '-')"
            )
        if model_id in found:
            raise DataError(
                f"duplicate model id {model_id!r} in {path.name} and {found[model_id][1]}"
            )
        found[model_id] = (entry, path.name)
    if pick is None:
        return [found[model_id] for model_id in sorted(found)]
    built = []
    for model_id in pick(found.keys()):
        text, name = found[model_id]
        try:
            built.append((bpmn.parse_bpmn(text, tags), name))
        except bpmn.ModelError as exc:
            raise DataError(f"{name}: {exc}")
    return built


def _load_cases(config: RunConfig) -> simulation.CaseTable:
    text = _read_input(config.cases_csv, "cases_csv")
    return simulation.load_cases_csv(text, str(config.cases_csv))


def _kpi_dir(config: RunConfig) -> Path:
    return config.out_dir / "kpis"


def cmd_simulate(config: RunConfig, include_traces: bool) -> int:
    models = _load_models(config)
    cases = _load_cases(config)
    out_dir = _kpi_dir(config)
    tables = simulation.ConditionTables(cases)
    for model, source in models:
        result = simulation.simulate_population(
            model, cases, config.kpi, step_cap=config.step_cap, tables=tables
        )
        payload: dict[str, object] = {
            "model_id": model.model_id,
            "source": source,
            "cases_total": len(cases),
            "kpis": result.kpis.as_json_dict(),
            "errors": [
                {"case_id": case_id, "reason": reason} for case_id, reason in result.errors
            ],
        }
        if include_traces:
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
            stale.unlink()
    print(f"simulated {len(models)} model(s) over {len(cases)} case(s) -> {out_dir}")
    return 0


def _parse_kpis(values: dict, source: str) -> simulation.KpiVector:
    """The vector of the five KPIs in ``values``, each a finite decimal."""
    pairs = []
    for name in simulation.KPI_NAMES:
        try:
            value = Decimal(values[name])
        except (KeyError, TypeError, InvalidOperation):
            value = None
        if value is None or not value.is_finite():
            found = values.get(name)
            raise DataError(f"{source}: KPI {name} must be a finite number, found {found!r}")
        pairs.append((name, value))
    return simulation.KpiVector(tuple(pairs))


def _read_kpi_dir(path: Path) -> list[tuple[str, simulation.KpiVector, str]]:
    """(model_id, vector, source file) per KPI JSON file, sorted by model id."""
    if not path.is_dir():
        raise DataError(f"KPI directory not found: {path}")
    entries: list[tuple[str, simulation.KpiVector, str]] = []
    files: dict[str, str] = {}
    # A directory entry knows whether it is a file, so skipping subdirectories
    # costs no stat call.
    names = (e.name for e in os.scandir(path) if e.name.endswith(".json") and e.is_file())
    for file in (path / name for name in sorted(names)):
        data = _read_artifact(file, "simulate")
        model_id = _field(data, "model_id", str, file.name)
        if model_id in files:
            raise DataError(f"{file.name}: model_id {model_id!r} is also in {files[model_id]}")
        files[model_id] = file.name
        vector = _parse_kpis(_field(data, "kpis", dict, file.name), file.name)
        entries.append((model_id, vector, str(data.get("source", ""))))
    if not entries:
        raise DataError(f"no KPI JSON files in {path}")
    return entries


def _read_kpi_csv(path: Path) -> list[tuple[str, simulation.KpiVector, str]]:
    """KPI vectors from a CSV with model_id plus one column per KPI."""
    header, rows = simulation.read_csv_table(
        _read_input(path, "KPI CSV"),
        "KPI CSV",
        "model_id",
        "the five KPI names, each once",
        simulation.KPI_NAMES,
    )
    vectors = {
        row[0].strip(): _parse_kpis(dict(zip(header[1:], row[1:])), f"KPI CSV row {row[0]!r}")
        for row in rows
    }
    return [(model_id, vectors[model_id], "") for model_id in sorted(vectors)]


def _distribution_payload(
    entries: Sequence[tuple[str, simulation.KpiVector, str]], round_decimals: int
) -> tuple[dict, distribution.EmpiricalDistribution]:
    vectors = [vector for _, vector, _ in entries]
    dist = distribution.build_distribution(vectors, round_decimals)
    members: list[list[str]] = [[] for _ in dist.combos]
    for (model_id, _, _), index in zip(entries, dist.combo_of):
        members[index].append(model_id)
    h_norm = distribution.normalized_entropy(dist)
    category = distribution.consistency_category(h_norm)
    payload = {
        "total": dist.total,
        "round_decimals": dist.round_decimals,
        "h_norm": h_norm,
        "category": category.value,
        "combos": [
            {
                "kpis": combo.vector.as_json_dict(),
                "count": combo.count,
                "probability": combo.probability,
                "models": sorted(models),
            }
            for combo, models in zip(dist.combos, members)
        ],
    }
    return payload, dist


def cmd_entropy(config: RunConfig, kpis_path: Path | None, from_csv: Path | None) -> int:
    if from_csv is not None:
        entries = _read_kpi_csv(from_csv)
    else:
        entries = _read_kpi_dir(kpis_path or _kpi_dir(config))
    payload, dist = _distribution_payload(entries, config.round_decimals)
    atomic_write(config.out_dir / "distribution.json", dump_json(payload))
    histogram_lines = ["label,count"]
    for combo in dist.combos:
        histogram_lines.append(f'"{combo.vector.label()}",{combo.count}')
    atomic_write(config.out_dir / "histogram.csv", "\n".join(histogram_lines) + "\n")
    print(
        f"h_norm={payload['h_norm']:.6f} category={payload['category']} "
        f"combos={len(dist.combos)} -> {config.out_dir / 'distribution.json'}"
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
    return distribution.select_representatives(members)


def cmd_diagnose(config: RunConfig, requested: Sequence[str]) -> int:
    (model_a, _), (model_b, _) = _load_models(
        config, lambda ids: _pick_pair(config, ids, requested)
    )
    cases = _load_cases(config)
    path = config.out_dir / "diagnosis.json"
    try:
        result = diagnosis.choose_direction(
            model_a,
            model_b,
            cases,
            step_cap=config.step_cap,
            max_cardinality=config.max_diagnosis_cardinality,
        )
    except diagnosis.NoDivergenceError:
        models_pair = sorted([model_a.model_id, model_b.model_id])
        atomic_write(path, dump_json({"status": "no_divergence", "models": models_pair}))
        print(f"no divergence -> {path}")
        return 0
    atomic_write(path, dump_json({"status": "diagnosed", **diagnosis.diagnosis_report(result)}))
    problem = result.chosen.problem
    refined = [list(d) for d in result.chosen.refined]
    print(
        f"reference={problem.reference_model_id} target={problem.target_model_id} "
        f"refined_diagnoses={refined} -> {path}"
    )
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
        raise DataError(f"{source}: gateway ids must be strings")
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
    dist_payload = _read_artifact(config.out_dir / "distribution.json", "entropy")
    diagnosed = _diagnosed_pair(_read_artifact(config.out_dir / "diagnosis.json", "diagnose"))
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
    if diagnosed is not None:
        reference, target, refined = diagnosed
        (ref_model, _), (tgt_model, _) = _load_models(
            config, lambda ids: _pick_pair(config, ids, (reference, target))
        )
        ambiguities, unlocalized = repair.localize_ambiguity(
            refined,
            tgt_model,
            ref_model,
            document,
            threshold=config.localization_threshold,
        )
    report_payload = repair.build_ambiguity_report(
        document.doc_id, ambiguities, unlocalized, entropy_summary, diagnosed
    )
    atomic_write(config.out_dir / "ambiguity_report.json", dump_json(report_payload))
    print(
        f"ambiguities={len(report_payload['ambiguities'])} "
        f"-> {config.out_dir / 'ambiguity_report.json'}"
    )
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
        try:
            return repair.HttpRewriteProvider(
                endpoint,
                model=config.provider_model,
                auth_token=provider_auth_token(config),
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
        entries = _read_kpi_dir(path)
        block, _dist = _distribution_payload(entries, config.round_decimals)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bpmndiverge", description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, help="key=value configuration file")
    parser.add_argument("--models", type=Path, dest="models_dir")
    parser.add_argument("--cases", type=Path, dest="cases_csv")
    parser.add_argument("--narrative", type=Path)
    parser.add_argument("--segments", type=Path, dest="segments_json")
    parser.add_argument("--supplemental", type=Path)
    parser.add_argument("--out", type=Path, dest="out_dir")
    parser.add_argument("--round-decimals", type=int, dest="round_decimals")
    sub = parser.add_subparsers(dest="command", required=True)

    p_simulate = sub.add_parser("simulate", help="simulate every model over the case population")
    p_simulate.add_argument("--traces", action="store_true", help="include traces in KPI JSON")

    p_entropy = sub.add_parser("entropy", help="outcome distribution and normalized entropy")
    p_entropy.add_argument("--kpis", type=Path, help="KPI JSON directory (default OUT/kpis)")
    p_entropy.add_argument("--from-csv", type=Path, help="read vectors from a CSV instead")

    p_diagnose = sub.add_parser("diagnose", help="divergence diagnosis for a model pair")
    p_diagnose.add_argument("models", nargs="*", help="two model ids (default: auto-pick)")

    sub.add_parser("report", help="ambiguity report for the pair diagnose chose")

    sub.add_parser("repair", help="provider-backed narrative repair")

    p_verify = sub.add_parser("verify", help="compare entropy of two KPI directories")
    p_verify.add_argument("--before", type=Path, required=True)
    p_verify.add_argument("--after", type=Path, required=True)

    sub.add_parser("validate", help="structural validation of every model")
    return parser


def _merged_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        config = load_config(args.config, config)
    overrides = {
        key: str(value) for key in KEYS if (value := getattr(args, key, None)) is not None
    }
    return build_run_config(overrides, config)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _merged_config(args)
        if args.command == "simulate":
            return cmd_simulate(config, args.traces)
        if args.command == "entropy":
            return cmd_entropy(config, args.kpis, args.from_csv)
        if args.command == "diagnose":
            if args.models and len(args.models) != 2:
                raise ConfigError("pass either no model ids (auto-pick) or exactly two")
            return cmd_diagnose(config, args.models)
        if args.command == "report":
            return cmd_report(config)
        if args.command == "repair":
            return cmd_repair(config)
        if args.command == "verify":
            return cmd_verify(config, args.before, args.after)
        if args.command == "validate":
            return cmd_validate(config)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        DataError,
        bpmn.ModelError,
        simulation.CaseDataError,
        simulation.SimulationError,
        distribution.EmptyInputError,
        distribution.OutOfRangeError,
        distribution.SingleClassError,
        repair.ExcerptNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (repair.ProviderUnavailableError, repair.ProviderMalformedResponseError) as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
