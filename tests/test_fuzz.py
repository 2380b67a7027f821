"""Every command on damaged versions of each input it can read: each run
ends with an exit code of 0, 1, 2 or 3, never with a traceback.  A KPI CSV
that still parses but is malformed is a data error (exit 2)."""

import json
import re
import shutil

import pytest

from bpmndiverge import cli
from bpmndiverge.repair import NarrativeDocument

INPUTS = [
    "models/city1_and_strict.bpmn",
    "population.csv",
    "narrative.txt",
    "segments.json",
    "canned.json",
    "out/kpis/city1_and_strict.json",
    "kpis.csv",
    "out/distribution.json",
    "out/diagnosis.json",
    "out/ambiguity_report.json",
]

COMMANDS = [
    ["simulate", "--traces"],
    ["entropy"],
    ["entropy", "--from-csv", "kpis.csv"],
    ["diagnose"],
    ["diagnose", "city1_and_strict", "city1_or_broad"],
    ["report"],
    ["repair"],
    ["verify", "--before", "out/kpis", "--after", "out/kpis"],
    ["validate"],
]

# A number standing alone, not part of an identifier such as c01.
_NUMBER = re.compile(rb"(?<![\w.])\d+(\.\d+)?(?![\w.])")


def damaged(data: bytes, damage: str) -> bytes:
    """``data`` emptied, cut at half, given a byte that is not UTF-8, or with
    every standalone number replaced by ``damage`` (NaN, Infinity, 9e99, or
    a JSON value of another type, a bare word or -1)."""
    half = len(data) // 2
    if damage == "empty":
        return b""
    if damage == "truncated":
        return data[:half]
    if damage == "non-UTF-8 byte":
        return data[:half] + b"\xff" + data[half:]
    return _NUMBER.sub(damage.encode(), data)


def run(*command: str) -> int:
    """One command on the inputs in the current directory."""
    return cli.main(["--config", "config.cfg", "--segments", "segments.json", *command])


@pytest.fixture(scope="module")
def intact(tmp_path_factory, repo_root):
    """City 1 inputs and every artifact of a traced pipeline run over them."""
    work = tmp_path_factory.mktemp("intact")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        _prepare(work, repo_root)
    return work


def _prepare(work, repo_root):
    city1 = repo_root / "fixtures" / "city1"
    shutil.copytree(city1 / "models", work / "models")
    for name in ("population.csv", "narrative.txt", "supplemental.txt"):
        shutil.copy(city1 / name, work / name)
    shutil.copy(city1 / "canned_repairs.json", work / "canned.json")
    (work / "config.cfg").write_text(
        "models_dir = models\ncases_csv = population.csv\nnarrative = narrative.txt\n"
        "supplemental = supplemental.txt\nout_dir = out\n"
        "provider = canned\nprovider_canned_path = canned.json\n"
    )
    document = NarrativeDocument.from_text("narrative", (work / "narrative.txt").read_text())
    (work / "segments.json").write_text(
        json.dumps(
            [
                {"segment_id": segment.segment_id, "start": segment.start, "end": segment.end}
                for segment in document.segments
            ]
        )
    )
    for command in (["simulate", "--traces"], ["entropy"], ["diagnose"], ["report"], ["repair"]):
        assert run(*command) == 0
    rows = ["model_id,NC,HC,RU,HI,CS"]
    for path in sorted((work / "out" / "kpis").glob("*.json")):
        payload = json.loads(path.read_text())
        rows.append(",".join([payload["model_id"], *payload["kpis"].values()]))
    (work / "kpis.csv").write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize(
    "damage",
    [
        "empty", "truncated", "non-UTF-8 byte", "NaN", "Infinity", "9e99",
        "true", "null", "[]", "many", "-1",
    ],
)
@pytest.mark.parametrize("name", INPUTS)
def test_damaged_input_never_raises(intact, tmp_path, monkeypatch, capsys, name, damage):
    original = (intact / name).read_bytes()
    broken = damaged(original, damage)
    assert broken != original
    for index, command in enumerate(COMMANDS):
        work = tmp_path / str(index)
        shutil.copytree(intact, work)
        (work / name).write_bytes(broken)
        monkeypatch.chdir(work)
        code = run(*command)
        assert code in (0, 1, 2, 3), (command, code)
        if code:
            assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "fault,message",
    [
        ("empty model_id", "KPI CSV line 2: empty model_id"),
        ("extra cell", "KPI CSV line 2: expected 6 cells, got 7"),
        ("KPI named twice", "KPI CSV header must be model_id plus the five KPI names, each once"),
        ("no rows", "KPI CSV has a header but no rows"),
    ],
)
def test_malformed_kpi_csv_is_a_data_error(intact, tmp_path, monkeypatch, capsys, fault, message):
    header, first, *rest = (intact / "kpis.csv").read_text().splitlines()
    if fault == "empty model_id":
        first = first[first.index(",") :]
    elif fault == "extra cell":
        first += ",0"
    elif fault == "no rows":
        first, rest = "", []
    else:
        header, first, rest = header + ",NC", first + ",0", [row + ",0" for row in rest]
    work = tmp_path / "work"
    shutil.copytree(intact, work)
    (work / "kpis.csv").write_text("\n".join([header, first, *rest]) + "\n")
    monkeypatch.chdir(work)
    assert run("entropy", "--from-csv", "kpis.csv") == 2
    assert message in capsys.readouterr().err
