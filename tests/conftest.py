from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

from bpmndiverge.bpmn import parse_bpmn
from bpmndiverge.repair import NarrativeDocument
from bpmndiverge.simulation import KpiConfig, load_cases_csv

ROOT = Path(__file__).resolve().parent.parent
# The model writer and the family generator live in scripts/, outside the package.
sys.path.insert(0, str(ROOT / "scripts"))

# A longer search for CI (``--hypothesis-profile=ci``); plain runs keep the
# default profile.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return ROOT


@pytest.fixture(scope="session")
def city1_dir() -> Path:
    return ROOT / "fixtures" / "city1"


@pytest.fixture(scope="session")
def strict_model(city1_dir):
    return parse_bpmn((city1_dir / "models" / "city1_and_strict.bpmn").read_text())


@pytest.fixture(scope="session")
def broad_model(city1_dir):
    return parse_bpmn((city1_dir / "models" / "city1_or_broad.bpmn").read_text())


@pytest.fixture(scope="session")
def population(city1_dir):
    return load_cases_csv((city1_dir / "population.csv").read_text())


@pytest.fixture(scope="session")
def kpi_config() -> KpiConfig:
    return KpiConfig()


@pytest.fixture(scope="session")
def narrative_text(city1_dir) -> str:
    return (city1_dir / "narrative.txt").read_text()


@pytest.fixture(scope="session")
def narrative_doc(narrative_text) -> NarrativeDocument:
    return NarrativeDocument.from_text("narrative", narrative_text)
