"""Golden digests: every artifact of the full pipeline, byte for byte.

The pipeline (``simulate --traces``, untraced ``simulate``, ``entropy``,
``diagnose``, ``report``, ``repair`` and ``verify``) runs on City 1, on both
generated families over the City 1 population, and on a population written
here with blank and non-numeric cells, so that case errors and failed cases
show in the artifacts.  Each artifact's sha256 must equal the one recorded
in ``golden_digests.json``, keyed by its path under the output root.

After a deliberate change to an artifact, rewrite the digests with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from bpmndiverge import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("golden_digests.json")
FIXTURES = ROOT / "fixtures"
CITY1 = FIXTURES / "city1"

# City 1's population with blank cells and cells that are neither numbers
# nor booleans, on columns that every model reads.
MALFORMED_CELLS = {
    "c03": {"HbA1c": ""},
    "c07": {"Fasting_Blood_Glucose": "n/a"},
    "c12": {"Diabetes_Under_Treatment": ""},
    "c16": {"Consent_Submitted": "yes"},
    "c19": {"Health_Guidance": ""},
}


def _malformed_population() -> str:
    lines = (CITY1 / "population.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        cells.update(MALFORMED_CELLS.get(cells["case_id"], {}))
        rows.append(",".join(cells[name] for name in header))
    return "\n".join([lines[0], *rows]) + "\n"


def _run(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise AssertionError(f"exit {code}: {' '.join(argv)}")


def _pipeline(config: Path, name: str, models: Path, cases: Path) -> None:
    """Every stage over one model directory and population, into ``name``."""
    base = ["--config", str(config), "--models", str(models), "--cases", str(cases)]
    _run(base + ["--out", name, "simulate", "--traces"])
    _run(base + ["--out", f"{name}/untraced", "simulate"])
    for stage in ("entropy", "diagnose", "report", "repair"):
        _run(base + ["--out", name, stage])
    verify = ["verify", "--before", f"{name}/kpis", "--after", f"{name}/untraced/kpis"]
    _run(base + ["--out", name, *verify])


def artifact_digests(work: Path) -> dict[str, str]:
    """Run every pipeline with ``work`` as the working directory; returns the
    sha256 of each artifact under ``work/out``, keyed by its path there."""
    inputs = work / "inputs"
    inputs.mkdir()
    config = inputs / "config.cfg"
    config.write_text(
        "\n".join(
            [
                f"narrative = {CITY1 / 'narrative.txt'}",
                f"supplemental = {CITY1 / 'supplemental.txt'}",
                "provider = canned",
                f"provider_canned_path = {CITY1 / 'canned_repairs.json'}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    malformed = inputs / "malformed.csv"
    malformed.write_text(_malformed_population(), encoding="utf-8")
    population = CITY1 / "population.csv"
    previous = Path.cwd()
    os.chdir(work)
    try:
        _pipeline(config, "out/city1", CITY1 / "models", population)
        for family in ("family_original", "family_repaired"):
            _pipeline(config, f"out/{family}", FIXTURES / family, population)
        _run(
            ["--config", str(config), "--out", "out/families", "verify"]
            + ["--before", "out/family_original/kpis", "--after", "out/family_repaired/kpis"]
        )
        _pipeline(config, "out/malformed_city1", CITY1 / "models", malformed)
        _pipeline(config, "out/malformed_family", FIXTURES / "family_original", malformed)
    finally:
        os.chdir(previous)
    out = work / "out"
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """The working directory of one run of every pipeline, and its digests."""
    path = tmp_path_factory.mktemp("golden")
    return path, artifact_digests(path)


def test_every_artifact_matches_its_golden_digest(work):
    _path, digests = work
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(golden)
    assert [key for key in golden if digests[key] != golden[key]] == []


def test_malformed_population_yields_case_errors_and_failed_cases(work):
    out = work[0] / "out" / "malformed_city1"
    errors = json.loads((out / "kpis" / "city1_and_strict.json").read_text())["errors"]
    assert errors and all(error["case_id"] in MALFORMED_CELLS for error in errors)
    diagnosed = json.loads((out / "diagnosis.json").read_text())
    assert diagnosed["status"] == "diagnosed" and diagnosed["failed_cases"]


def test_report_accounts_for_every_refined_gateway_once(work):
    """``report`` places each gateway of the refined diagnoses in exactly one
    ambiguity, as the target's, or lists it as unlocalized."""
    pipelines = sorted(path.parent for path in (work[0] / "out").glob("*/diagnosis.json"))
    assert [path.name for path in pipelines] == [
        "city1", "family_original", "family_repaired", "malformed_city1", "malformed_family"
    ]
    for out in pipelines:
        diagnosed = json.loads((out / "diagnosis.json").read_text())
        report = json.loads((out / "ambiguity_report.json").read_text())
        assert diagnosed["status"] == "diagnosed", out.name
        refined = {g for entry in diagnosed["refined_diagnoses"] for g in entry["gateways"]}
        placed = [
            ref["gateway_id"]
            for ambiguity in report["ambiguities"]
            for ref in ambiguity["gateways"]
            if ref["role"] == "target" and ref["model_id"] == diagnosed["target_model"]
        ]
        assert sorted(placed + report["unlocalized_gateways"]) == sorted(refined), out.name
        assert report["diagnosis"] == {
            "reference": diagnosed["reference_model"],
            "target": diagnosed["target_model"],
            "minimal_diagnoses": diagnosed["refined_diagnoses"],
        }, out.name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        fresh = artifact_digests(Path(scratch))
    DIGESTS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fresh)} digests to {DIGESTS}", file=sys.stderr)
