"""End-to-end command-line behavior against the bundled City 1 fixtures."""

import json
import os
import re
import shutil
import socket
import stat
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

import pytest
from hypothesis import example, given, strategies as st

from bpmndiverge import bpmn, cli, repair
from bpmndiverge.config import KEYS, ConfigError, RunConfig, build_run_config
from bpmndiverge.repair import NarrativeDocument
from bpmndiverge.simulation import KpiConfig

import modelkit as mk
from bpmn_writer import serialize_bpmn

CONFIG = "fixtures/city1/config.cfg"

STRICT_KPIS = {"NC": "8", "HC": "4", "RU": "0.08", "HI": "0.06", "CS": "1200"}
BROAD_KPIS = {"NC": "17", "HC": "13", "RU": "0.26", "HI": "0.195", "CS": "3900"}
BROAD_LABEL = "NC=17;HC=13;RU=0.26;HI=0.195;CS=3900"
STRICT_LABEL = "NC=8;HC=4;RU=0.08;HI=0.06;CS=1200"


@pytest.fixture(autouse=True)
def in_repo_root(repo_root, monkeypatch):
    # The fixture config uses repository-relative paths.
    monkeypatch.chdir(repo_root)


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


def run(*argv: str) -> int:
    return cli.main(list(argv))


def run_city1(out, *argv: str) -> int:
    return run("--config", CONFIG, "--out", str(out), *argv)


def read_json(path):
    return json.loads(path.read_text())


class TestSimulate:
    def test_frozen_kpi_files(self, out, capsys):
        assert run_city1(out, "simulate") == 0
        strict = read_json(out / "kpis" / "city1_and_strict.json")
        assert strict == {
            "model_id": "city1_and_strict",
            "source": "city1_and_strict.bpmn",
            "cases_total": 20,
            "kpis": STRICT_KPIS,
            "errors": [],
        }
        broad = read_json(out / "kpis" / "city1_or_broad.json")
        assert broad["kpis"] == BROAD_KPIS
        assert "simulated 2 model(s) over 20 case(s)" in capsys.readouterr().out

    def test_traces_flag(self, out):
        assert run_city1(out, "simulate", "--traces") == 0
        strict = read_json(out / "kpis" / "city1_and_strict.json")
        # One entry per distinct path, listing the cases that take it.
        paths = strict["traces"]
        assert [sorted(path) for path in paths] == [["case_ids", "emissions", "flows", "steps"]] * 3
        assert [path["case_ids"][0] for path in paths] == ["c01", "c05", "c09"]
        case_ids = [case_id for path in paths for case_id in path["case_ids"]]
        assert case_ids == [f"c{i:02d}" for i in range(1, 21)]
        by_case = {case_id: path for path in paths for case_id in path["case_ids"]}
        assert by_case["c01"]["steps"][-1] == "end_guided"
        assert by_case["c01"]["emissions"] == [["t_notify", "NC"], ["t_guide", "HC"]]
        assert by_case["c20"]["emissions"] == []

    def test_rerun_is_byte_identical(self, out):
        assert run_city1(out, "simulate") == 0
        first = (out / "kpis" / "city1_and_strict.json").read_bytes()
        assert run_city1(out, "simulate") == 0
        assert (out / "kpis" / "city1_and_strict.json").read_bytes() == first

    def test_a_rerun_leaves_only_its_own_kpi_files(self, out, tmp_path):
        assert run_city1(out, "simulate") == 0
        (out / "kpis" / "notes.txt").write_text("kept")
        (out / "kpis" / "folder.json").mkdir()
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        for model in mk.repeated_call_pair():
            (models_dir / f"{model.model_id}.bpmn").write_text(serialize_bpmn(model))
        cases = tmp_path / "cases.csv"
        cases.write_text("case_id,x\nc1,1\nc2,0\n")
        assert run_city1(out, "--models", str(models_dir), "--cases", str(cases), "simulate") == 0
        names = sorted(path.name for path in (out / "kpis").iterdir())
        assert names == ["folder.json", "notes.txt", "once.json", "twice.json"]
        assert run_city1(out, "entropy") == 0
        assert read_json(out / "distribution.json")["total"] == 2

    @pytest.mark.parametrize("where", ["absolute", "relative"])
    def test_a_model_id_that_is_a_path_is_a_data_error(self, out, tmp_path, capsys, where):
        escaped = str(tmp_path / "escaped") if where == "absolute" else "../../escaped"
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        model = mk.branch_model("x >= 5", model_id=escaped)
        (models_dir / "m.bpmn").write_text(serialize_bpmn(model))
        cases = tmp_path / "cases.csv"
        cases.write_text("case_id,x\nc1,1\n")
        code = run_city1(out, "--models", str(models_dir), "--cases", str(cases), "simulate")
        assert code == 2
        assert f"error: m.bpmn: model id {escaped!r} is not a plain file name" in (
            capsys.readouterr().err
        )
        written = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*"))
        assert written == ["cases.csv", "models", "models/m.bpmn"]

    def test_kpi_tags_in_the_config_file_give_untagged_tasks_their_kpis(self, out, tmp_path):
        untagged = mk.model(
            "untagged",
            [mk.start("s"), mk.task("t", "Give guidance"), mk.end("e")],
            [mk.flow("f1", "s", "t"), mk.flow("f2", "t", "e")],
        )
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        (models_dir / "untagged.bpmn").write_text(serialize_bpmn(untagged))
        for tags in ([], ["kpi_tag.HC = guidance", "kpi_tag.NC = notify"]):
            cfg = tmp_path / "tags.cfg"
            cfg.write_text("\n".join([Path(CONFIG).read_text(), *tags]) + "\n")
            argv = ["--config", str(cfg), "--out", str(out), "--models", str(models_dir)]
            assert run(*argv, "simulate") == 0
            kpis = read_json(out / "kpis" / "untagged.json")["kpis"]
            assert (kpis["NC"], kpis["HC"]) == (("0", "20") if tags else ("0", "0"))

    @pytest.mark.parametrize(
        "line", ["kpi_tag.FOO = guidance", "kpi_tag. = guidance", "kpi_tag.HC ="]
    )
    def test_a_meaningless_kpi_tag_is_a_config_error(self, out, tmp_path, capsys, line):
        # Only NC and HC are emitted by tasks, and an empty fragment would tag every task.
        cfg = tmp_path / "tags.cfg"
        cfg.write_text("\n".join([Path(CONFIG).read_text(), line]) + "\n")
        assert run("--config", str(cfg), "--out", str(out), "simulate") == 1
        key = line.partition("=")[0].strip()
        assert capsys.readouterr().err == (
            f"error: {key}: expected NC or HC and a non-empty label fragment\n"
        )
        assert not out.exists()

    def test_a_kpi_output_other_than_nc_or_hc_is_a_model_error(self, out, tmp_path, capsys):
        # A task's "nc" would count toward no KPI, and the model's NC would read 0.
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        strict = Path("fixtures/city1/models/city1_and_strict.bpmn").read_text()
        (models_dir / "strict.bpmn").write_text(strict.replace('outputs="NC"', 'outputs="nc"'))
        assert run_city1(out, "--models", str(models_dir), "simulate") == 2
        assert capsys.readouterr().err == (
            "error: strict.bpmn: task 't_notify': kpi output 'nc' is not NC or HC\n"
        )
        assert not out.exists()

    def test_a_cell_over_the_csv_field_limit_is_a_data_error(self, out, tmp_path, capsys):
        cases = tmp_path / "cases.csv"
        cases.write_text(f"case_id,HbA1c\nc1,{'7' * 140_000}\n")
        assert run_city1(out, "--cases", str(cases), "simulate") == 2
        assert f"error: {cases} line 2: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()


class TestKpiJson:
    def test_simulate_writes_what_dump_json_would(self, out, tmp_path):
        # The strict model fails every case on a population without its variables.
        cases = tmp_path / "cases.csv"
        cases.write_text("case_id,Other\nc1,1\nc2,2\n")
        for extra in ([], ["--cases", str(cases)]):
            assert run_city1(out, *extra, "simulate", "--traces") == 0
            for path in (out / "kpis").glob("*.json"):
                text = path.read_text()
                assert text == cli.dump_json(json.loads(text))
        strict = read_json(out / "kpis" / "city1_and_strict.json")
        assert (strict["cases_total"], strict["traces"]) == (2, [])

    def test_a_kpi_number_is_read_exactly(self, out):
        # As a binary float 2.675 is 2.67499..., which would round to 2.67.
        assert run_city1(out, "simulate") == 0
        path = out / "kpis" / "city1_and_strict.json"
        path.write_text(json.dumps({**read_json(path), "kpis": {**STRICT_KPIS, "NC": 2.675}}))
        assert '"NC": 2.675,' in path.read_text()
        assert run_city1(out, "--round-decimals", "2", "entropy") == 0
        combos = read_json(out / "distribution.json")["combos"]
        assert sorted(combo["kpis"]["NC"] for combo in combos) == ["17", "2.68"]

    def test_artifacts_get_the_mode_the_umask_leaves(self, out):
        previous = os.umask(0o022)
        try:
            assert run_city1(out, "simulate") == 0
            assert run_city1(out, "entropy") == 0
        finally:
            os.umask(previous)
        for path in [*(out / "kpis").iterdir(), out / "distribution.json", out / "histogram.csv"]:
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path


class _Pair(NamedTuple):
    first: object
    second: object


# Every key type json accepts; floats include -0.0, the infinities and NaN.
_json_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 5e-324]),
    st.text(),  # any character but a surrogate: non-ASCII, quotes, backslashes, controls
    st.sampled_from(bpmn.NodeKind),  # a str-valued Enum member
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_json_keys, inner, max_size=4),
        st.builds(_Pair, inner, inner),
    ),
    max_leaves=20,
)


class TestDumpJson:
    @given(_json_values)
    @example({"q\"b\\\n\x00\x1f\u2028é€😀": ["\x7f", "", ("\t",)], -0.0: {}, 1e16: [], 5e-324: ()})
    @example({True: None, False: 1, None: 2.5, 7: float("inf"), float("nan"): -float("inf")})
    @example(bpmn.Node("n1", bpmn.NodeKind.TASK, "Notify", ("NC", "HC")))
    def test_dump_json_writes_what_json_dumps_would(self, value):
        assert cli.dump_json(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize("value", [{(1, 2): 0}, {b"k": 0}, [{1, 2}], {"x": object()}])
    def test_dump_json_raises_the_type_error_json_raises(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2, ensure_ascii=False)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            cli.dump_json(value)


class TestEntropy:
    def test_distribution_and_histogram(self, out, capsys):
        run_city1(out, "simulate")
        assert run_city1(out, "entropy") == 0
        dist = read_json(out / "distribution.json")
        assert dist["total"] == 2
        assert dist["round_decimals"] == 6
        assert dist["h_norm"] == 1.0
        assert dist["category"] == "low"
        assert dist["combos"] == [
            {
                "kpis": BROAD_KPIS,
                "count": 1,
                "probability": 0.5,
                "models": ["city1_or_broad"],
            },
            {
                "kpis": STRICT_KPIS,
                "count": 1,
                "probability": 0.5,
                "models": ["city1_and_strict"],
            },
        ]
        histogram = (out / "histogram.csv").read_text()
        assert histogram == (
            "label,count\n"
            f'"{BROAD_LABEL}",1\n'
            f'"{STRICT_LABEL}",1\n'
        )
        assert "h_norm=1.000000 category=low" in capsys.readouterr().out

    def test_from_csv(self, out, tmp_path):
        csv_path = tmp_path / "vectors.csv"
        csv_path.write_text(
            "model_id,NC,HC,RU,HI,CS\n"
            "m1,1,1,0.1,0.1,100\n"
            "m2,1,1,0.1,0.1,100\n"
            "m3,2,1,0.1,0.1,100\n"
            "m4,2,1,0.1,0.1,100\n"
        )
        assert run_city1(out, "entropy", "--from-csv", str(csv_path)) == 0
        dist = read_json(out / "distribution.json")
        assert dist["h_norm"] == 1.0
        assert [c["count"] for c in dist["combos"]] == [2, 2]

    def test_kpis_and_from_csv_exclude_each_other(self, out, tmp_path, capsys):
        csv_path = tmp_path / "vectors.csv"
        csv_path.write_text("model_id,NC,HC,RU,HI,CS\nm1,1,1,0.1,0.1,100\nm2,2,1,0.1,0.1,100\n")
        argv = ("entropy", "--kpis", str(tmp_path / "nonexistent"), "--from-csv", str(csv_path))
        assert run_city1(out, *argv) == 1
        assert capsys.readouterr().err == "error: entropy takes --kpis or --from-csv, not both\n"
        assert not out.exists()

    def test_from_csv_bad_header(self, out, tmp_path, capsys):
        csv_path = tmp_path / "vectors.csv"
        csv_path.write_text("model_id,NC\nm1,1\n")
        assert run_city1(out, "entropy", "--from-csv", str(csv_path)) == 2
        assert "five KPI names" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cell,message",
        [
            ("Infinity", "KPI CSV row 'm2': KPI NC must be a finite number, found 'Infinity'"),
            ("sNaN", "KPI CSV row 'm2': KPI NC must be a finite number, found 'sNaN'"),
            ("1e30", "too many digits to round to 6 decimals"),
            (
                "1e999999999",
                "KPI CSV row 'm2': KPI NC value '1e999999999' has too many digits to round to 6",
            ),
        ],
    )
    def test_from_csv_rejects_values_it_cannot_round(self, out, tmp_path, capsys, cell, message):
        csv_path = tmp_path / "vectors.csv"
        csv_path.write_text(f"model_id,NC,HC,RU,HI,CS\nm1,1,0,0,0,0\nm2,{cell},0,0,0,0\n")
        assert run_city1(out, "entropy", "--from-csv", str(csv_path)) == 2
        assert message in capsys.readouterr().err
        assert not (out / "distribution.json").exists()

    def test_from_csv_rejects_a_cell_over_the_field_limit(self, out, tmp_path, capsys):
        csv_path = tmp_path / "vectors.csv"
        csv_path.write_text(f"model_id,NC,HC,RU,HI,CS\nm1,1,0,0,0,0\nm2,{'1' * 140_000},0,0,0,0\n")
        assert run_city1(out, "entropy", "--from-csv", str(csv_path)) == 2
        assert "error: KPI CSV line 3: field larger than field limit" in capsys.readouterr().err
        assert not (out / "distribution.json").exists()

    def test_from_csv_rejects_a_duplicate_model_id(self, out, tmp_path, capsys):
        csv_path = tmp_path / "vectors.csv"
        csv_path.write_text("model_id,NC,HC,RU,HI,CS\nm1,1,0,0,0,0\nm1,2,0,0,0,0\n")
        assert run_city1(out, "entropy", "--from-csv", str(csv_path)) == 2
        assert "KPI CSV row 'm1': duplicate model_id" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("kpis", {**STRICT_KPIS, "CS": "NaN"}, "KPI CS must be a finite number, found 'NaN'"),
            ("kpis", {**STRICT_KPIS, "NC": True}, "KPI NC must be a finite number, found True"),
            ("kpis", ["8"], "'kpis' is missing or has the wrong type"),
            ("model_id", ["x"], "'model_id' is missing or has the wrong type"),
            *(
                ("kpis", {**STRICT_KPIS, "CS": big}, f"KPI CS value {big!r} has too many digits")
                for big in ("1e999999999", "1e5000")
            ),
            ("kpis", {**STRICT_KPIS, "CS": 1e300}, "KPI CS value 1E+300 has too many digits"),
            ("kpis", {**STRICT_KPIS, "HC": "many"}, "KPI HC must be a finite number, found 'many'"),
            # Decimal() reads a (sign, digits, exponent) list as the number 8.
            (
                "kpis",
                {**STRICT_KPIS, "HC": [0, [8], 0]},
                "KPI HC must be a finite number, found [0, [8], 0]",
            ),
        ],
    )
    def test_malformed_kpi_json_is_a_data_error(self, out, capsys, key, value, message):
        assert run_city1(out, "simulate") == 0
        path = out / "kpis" / "city1_and_strict.json"
        path.write_text(json.dumps({**read_json(path), key: value}))
        assert run_city1(out, "entropy") == 2
        assert f"city1_and_strict.json: {message}" in capsys.readouterr().err
        assert not (out / "distribution.json").exists()

    def test_kpi_files_with_one_model_id_are_a_data_error(self, out, capsys):
        assert run_city1(out, "simulate") == 0
        kpis = out / "kpis"
        (kpis / "copy.json").write_text((kpis / "city1_and_strict.json").read_text())
        assert run_city1(out, "entropy") == 2
        message = "copy.json: model_id 'city1_and_strict' is also in city1_and_strict.json"
        assert message in capsys.readouterr().err

    def test_round_decimals_override_reaches_quantizer(self, out, tmp_path):
        csv_path = tmp_path / "vectors.csv"
        csv_path.write_text(
            "model_id,NC,HC,RU,HI,CS\nm1,1.2,0,0,0,0\nm2,1.4,0,0,0,0\n"
        )
        assert run_city1(out, "entropy", "--from-csv", str(csv_path)) == 0
        assert read_json(out / "distribution.json")["h_norm"] == 1.0
        assert (
            run_city1(out, "--round-decimals", "0", "entropy", "--from-csv", str(csv_path))
            == 0
        )
        merged = read_json(out / "distribution.json")
        assert merged["round_decimals"] == 0
        assert merged["h_norm"] == 0.0
        assert merged["category"] == "very_high"

    def test_a_directory_named_like_a_kpi_file_is_skipped(self, out):
        assert run_city1(out, "simulate") == 0
        (out / "kpis" / "x.json").mkdir()
        assert run_city1(out, "entropy") == 0
        assert read_json(out / "distribution.json")["total"] == 2

    def test_entropy_without_simulate(self, out, capsys):
        assert run_city1(out, "entropy") == 2
        assert "KPI directory not found" in capsys.readouterr().err


class TestDiagnose:
    def test_auto_pick_matches_explicit_pair(self, out):
        run_city1(out, "simulate")
        run_city1(out, "entropy")
        assert run_city1(out, "diagnose") == 0
        auto = (out / "diagnosis.json").read_bytes()
        assert run_city1(out, "diagnose", "city1_and_strict", "city1_or_broad") == 0
        assert (out / "diagnosis.json").read_bytes() == auto

    def test_diagnosis_payload(self, out, capsys):
        run_city1(out, "simulate")
        run_city1(out, "entropy")
        run_city1(out, "diagnose")
        payload = read_json(out / "diagnosis.json")
        assert payload["status"] == "diagnosed"
        assert payload["reference_model"] == "city1_and_strict"
        assert payload["target_model"] == "city1_or_broad"
        assert payload["refined_diagnoses"] == [{"gateways": ["n3", "n5"]}]
        assert payload["observations"]["total"] == 30
        text = capsys.readouterr().out
        assert "reference=city1_and_strict target=city1_or_broad" in text

    def test_diagnosis_json_shape(self, out):
        assert run_city1(out, "diagnose", "city1_and_strict", "city1_or_broad") == 0
        report = read_json(out / "diagnosis.json")
        assert list(report) == [
            "status", "reference_model", "target_model", "reference_source", "target_source",
            "orientation_note", "components", "conflicts", "diagnoses", "diagnoses_truncated",
            "refined_diagnoses", "unattributable", "failed_cases", "observations",
            "reverse_orientation",
        ]
        assert report["reference_model"] == "city1_and_strict"
        assert report["target_model"] == "city1_or_broad"
        assert report["components"] == ["n3", "n5"]
        assert report["conflicts"][0] == {
            "gateways": ["n3"],
            "case_ids": ["c09", "c10", "c11", "c12", "c13", "c14", "c15", "c16", "c17"],
        }
        assert report["diagnoses"] == [{"gateways": ["n3", "n5"]}]
        assert report["diagnoses_truncated"] is False
        assert report["refined_diagnoses"] == [{"gateways": ["n3", "n5"]}]
        assert report["unattributable"] == []
        assert report["failed_cases"] == []
        assert report["observations"]["total"] == 30
        assert len(report["observations"]["discrepant"]) == 18
        assert report["reverse_orientation"] == {
            "reference_model": "city1_or_broad",
            "refined_diagnoses": [{"gateways": ["g_accept", "g_elig"]}],
        }
        assert "parsimony" in report["orientation_note"]

    def test_repeated_label_is_diagnosed(self, out, tmp_path):
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        for model in mk.repeated_call_pair():
            (models_dir / f"{model.model_id}.bpmn").write_text(serialize_bpmn(model))
        cases = tmp_path / "cases.csv"
        cases.write_text("case_id,x\nc1,1\nc2,0\n")
        for command in ("simulate", "entropy", "diagnose"):
            assert run_city1(out, "--models", str(models_dir), "--cases", str(cases), command) == 0
        payload = read_json(out / "diagnosis.json")
        assert payload["status"] == "diagnosed"
        assert (payload["reference_model"], payload["target_model"]) == ("once", "twice")
        assert payload["conflicts"] == [{"gateways": ["g"], "case_ids": ["c1"]}]

    def test_no_divergence(self, out, tmp_path, repo_root):
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        original = (
            repo_root / "fixtures" / "city1" / "models" / "city1_and_strict.bpmn"
        ).read_text()
        (models_dir / "a.bpmn").write_text(original)
        (models_dir / "b.bpmn").write_text(
            original.replace('id="city1_and_strict"', 'id="city1_twin"')
        )
        assert (
            run_city1(
                out, "--models", str(models_dir), "diagnose", "city1_and_strict", "city1_twin"
            )
            == 0
        )
        payload = read_json(out / "diagnosis.json")
        assert payload == {
            "status": "no_divergence",
            "models": ["city1_and_strict", "city1_twin"],
        }

    def test_auto_pick_needs_two_outcome_classes(self, out, tmp_path, repo_root, capsys):
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        original = (
            repo_root / "fixtures" / "city1" / "models" / "city1_and_strict.bpmn"
        ).read_text()
        (models_dir / "a.bpmn").write_text(original)
        (models_dir / "b.bpmn").write_text(
            original.replace('id="city1_and_strict"', 'id="city1_twin"')
        )
        run_city1(out, "--models", str(models_dir), "simulate")
        run_city1(out, "--models", str(models_dir), "entropy")
        assert run_city1(out, "--models", str(models_dir), "diagnose") == 2
        assert "single outcome class" in capsys.readouterr().err

    def test_auto_pick_requires_distribution(self, out, capsys):
        run_city1(out, "simulate")
        assert run_city1(out, "diagnose") == 2
        assert "run entropy first" in capsys.readouterr().err

    def test_auto_pick_reads_the_distribution_not_the_kpis(self, out):
        run_city1(out, "simulate")
        run_city1(out, "entropy")
        for path in (out / "kpis").glob("*.json"):
            path.unlink()
        assert run_city1(out, "diagnose") == 0
        assert read_json(out / "diagnosis.json")["target_model"] == "city1_or_broad"

    def test_auto_pick_rejects_a_model_missing_from_models_dir(
        self, out, tmp_path, repo_root, capsys
    ):
        run_city1(out, "simulate")
        run_city1(out, "entropy")
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        strict = repo_root / "fixtures" / "city1" / "models" / "city1_and_strict.bpmn"
        (models_dir / strict.name).write_text(strict.read_text())
        assert run_city1(out, "--models", str(models_dir), "diagnose") == 2
        assert "not in models_dir: city1_or_broad" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "models,message",
        [
            (
                [["city1_or_broad"], ["city1_or_broad", "city1_and_strict"]],
                "model 'city1_or_broad' is in combos 0 and 1",
            ),
            ([["city1_or_broad"], []], "combo 1 lists no model"),
        ],
        ids=["model in two combos", "empty combo"],
    )
    def test_auto_pick_rejects_a_malformed_distribution(self, out, capsys, models, message):
        run_city1(out, "simulate")
        run_city1(out, "entropy")
        path = out / "distribution.json"
        payload = read_json(path)
        for combo, ids in zip(payload["combos"], models):
            combo["models"] = ids
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_city1(out, "diagnose") == 2
        assert capsys.readouterr().err == f"error: distribution.json: {message} (rerun entropy)\n"
        assert not (out / "diagnosis.json").exists()

    def test_outputs_that_differ_without_a_gateway_are_unattributable(self, out, tmp_path):
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        for model_id, kpis in (("notify_nc", ("NC",)), ("notify_hc_nc", ("HC", "NC"))):
            model = mk.model(
                model_id,
                [mk.start("s"), mk.task("t", "Notify", kpis), mk.end("e")],
                [mk.flow("f1", "s", "t"), mk.flow("f2", "t", "e")],
            )
            (models_dir / f"{model_id}.bpmn").write_text(serialize_bpmn(model))
        pair = ("notify_nc", "notify_hc_nc")
        assert run_city1(out, "--models", str(models_dir), "diagnose", *pair) == 0
        diagnosis = read_json(out / "diagnosis.json")
        assert diagnosis["status"] == "diagnosed"
        assert diagnosis["conflicts"] == []
        row = {"kind": "incorrect_output", "index": 0, "t_last": None, "t_first": "Notify"}
        case_ids = [f"c{i:02}" for i in range(1, 21)]
        assert diagnosis["unattributable"] == [{"case_id": c, **row} for c in case_ids]

    def test_single_model_id_is_usage_error(self, out, capsys):
        assert run_city1(out, "diagnose", "city1_and_strict") == 1
        assert "exactly two" in capsys.readouterr().err

    def test_one_model_id_twice_is_usage_error(self, out, capsys):
        assert run_city1(out, "diagnose", "city1_and_strict", "city1_or_broad") == 0
        before = (out / "diagnosis.json").read_bytes()
        assert run_city1(out, "diagnose", "city1_and_strict", "city1_and_strict") == 1
        assert "two distinct model ids" in capsys.readouterr().err
        assert (out / "diagnosis.json").read_bytes() == before

    def test_unknown_model_id(self, out, capsys):
        assert run_city1(out, "diagnose", "nope_a", "nope_b") == 2
        assert "nope_a" in capsys.readouterr().err


class TestReport:
    def test_report_payload(self, out, capsys):
        run_city1(out, "simulate")
        run_city1(out, "entropy")
        run_city1(out, "diagnose")
        assert run_city1(out, "report") == 0
        payload = read_json(out / "ambiguity_report.json")
        assert payload["doc_id"] == "narrative"
        assert payload["entropy"]["h_norm"] == 1.0
        assert payload["entropy"]["category"] == "low"
        assert [a["id"] for a in payload["ambiguities"]] == ["AMB-1", "AMB-2"]
        assert [a["segment_id"] for a in payload["ambiguities"]] == ["seg-2", "seg-4"]
        assert payload["unlocalized_gateways"] == []
        assert "ambiguities=2" in capsys.readouterr().out

    def test_ambiguity_report_shape(self, out):
        jsonschema = pytest.importorskip("jsonschema")
        full_pipeline(out)
        report = read_json(out / "ambiguity_report.json")
        schema = {
            "type": "object",
            "required": ["doc_id", "entropy", "diagnosis", "ambiguities", "unlocalized_gateways"],
            "properties": {
                "doc_id": {"type": "string"},
                "entropy": {"type": "object"},
                "diagnosis": {
                    "type": "object",
                    "required": ["reference", "target", "minimal_diagnoses"],
                },
                "ambiguities": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": [
                            "id",
                            "gateways",
                            "segment_id",
                            "excerpt",
                            "score",
                            "interpretations",
                        ],
                        "properties": {
                            "gateways": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["role", "model_id", "gateway_id", "label"],
                                },
                                "minItems": 1,
                            },
                            "interpretations": {"type": "array", "minItems": 1},
                        },
                    },
                },
                "unlocalized_gateways": {"type": "array"},
            },
        }
        jsonschema.validate(report, schema)
        assert [a["id"] for a in report["ambiguities"]] == ["AMB-1", "AMB-2"]
        assert report["diagnosis"]["minimal_diagnoses"] == [{"gateways": ["n3", "n5"]}]

    def test_report_requires_distribution(self, out, capsys):
        run_city1(out, "simulate")
        assert run_city1(out, "report") == 2
        assert "run entropy first" in capsys.readouterr().err

    def test_report_requires_diagnosis(self, out, capsys):
        run_city1(out, "simulate")
        run_city1(out, "entropy")
        assert run_city1(out, "report") == 2
        assert "run diagnose first" in capsys.readouterr().err

    def test_report_reads_the_diagnosis_instead_of_redoing_it(self, out, tmp_path):
        run_city1(out, "simulate")
        run_city1(out, "entropy")
        run_city1(out, "diagnose")
        assert run_city1(out, "--cases", str(tmp_path / "missing.csv"), "report") == 0
        payload = read_json(out / "ambiguity_report.json")
        assert payload["diagnosis"] == {
            "reference": "city1_and_strict",
            "target": "city1_or_broad",
            "minimal_diagnoses": [{"gateways": ["n3", "n5"]}],
        }

    def test_report_takes_no_model_ids(self, out, capsys):
        assert run_city1(out, "report", "city1_and_strict", "city1_or_broad") == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_divergence_report(self, out, tmp_path, repo_root):
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        original = (
            repo_root / "fixtures" / "city1" / "models" / "city1_and_strict.bpmn"
        ).read_text()
        (models_dir / "a.bpmn").write_text(original)
        (models_dir / "b.bpmn").write_text(
            original.replace('id="city1_and_strict"', 'id="city1_twin"')
        )
        twin = ("--models", str(models_dir))
        run_city1(out, *twin, "simulate")
        run_city1(out, *twin, "entropy")
        run_city1(out, *twin, "diagnose", "city1_and_strict", "city1_twin")
        assert run_city1(out, *twin, "report") == 0
        payload = read_json(out / "ambiguity_report.json")
        assert list(payload) == [
            "doc_id", "entropy", "diagnosis", "ambiguities", "unlocalized_gateways"
        ]
        assert payload["doc_id"] == "narrative"
        assert payload["diagnosis"] == {"status": "no_divergence"}
        assert payload["ambiguities"] == []
        assert payload["unlocalized_gateways"] == []

    def test_segments_sidecar(self, out, tmp_path, repo_root):
        narrative = (repo_root / "fixtures" / "city1" / "narrative.txt").read_text()
        doc = NarrativeDocument.from_text("narrative", narrative)
        sidecar = tmp_path / "segments.json"
        sidecar.write_text(
            json.dumps(
                [
                    {
                        "segment_id": f"para-{i}",
                        "start": segment.start,
                        "end": segment.end,
                    }
                    for i, segment in enumerate(doc.segments, start=1)
                ]
            )
        )
        run_city1(out, "simulate")
        run_city1(out, "entropy")
        run_city1(out, "diagnose")
        assert (
            run(
                "--config",
                CONFIG,
                "--out",
                str(out),
                "--segments",
                str(sidecar),
                "report",
            )
            == 0
        )
        payload = read_json(out / "ambiguity_report.json")
        assert [a["segment_id"] for a in payload["ambiguities"]] == ["para-2", "para-4"]

    @pytest.mark.parametrize(
        "ranges,message",
        [
            ([{"segment_id": "para-1", "end": 5}], "entry 0 needs segment_id, start and end"),
            (5, "must be a list"),
            ([{"segment_id": "para-1", "start": 50, "end": 10}], "range 50..10 is not inside"),
            ([{"segment_id": "para-1", "start": 0, "end": 10**6}], "is not inside the"),
            (
                [
                    {"segment_id": "p1", "start": 0, "end": 5},
                    {"segment_id": "p2", "start": 0, "end": 2.7},
                ],
                "entry 1: start and end must be integers",
            ),
            ([{"segment_id": "p1", "start": "3", "end": 9}], "entry 0: start and end must be"),
            ([{"segment_id": "p1", "start": True, "end": 9}], "entry 0: start and end must be"),
            (
                [
                    {"segment_id": "p1", "start": 0, "end": 5},
                    {"segment_id": "p1", "start": 7, "end": 11},
                ],
                "segment id 'p1' is used twice",
            ),
            *(
                (
                    [
                        {"segment_id": "p1", "start": 0, "end": 5},
                        {"segment_id": bad, "start": 6, "end": 9},
                    ],
                    "entry 1: segment_id must be a string",
                )
                for bad in (None, True, 5)
            ),
        ],
    )
    def test_malformed_segments_sidecar_is_a_data_error(
        self, out, tmp_path, capsys, ranges, message
    ):
        sidecar = tmp_path / "segments.json"
        sidecar.write_text(json.dumps(ranges))
        full_pipeline(out)
        assert run_city1(out, "--segments", str(sidecar), "report") == 2
        assert message in capsys.readouterr().err


def http_config(tmp_path, *lines: str):
    """A city1 config file for the http provider, with ``lines`` appended."""
    cfg = tmp_path / "http.cfg"
    cfg.write_text(
        "models_dir = fixtures/city1/models\n"
        "cases_csv = fixtures/city1/population.csv\n"
        "narrative = fixtures/city1/narrative.txt\n"
        "supplemental = fixtures/city1/supplemental.txt\n"
        "provider = http\n" + "".join(f"{line}\n" for line in lines)
    )
    return cfg


def dead_endpoint() -> str:
    """An http URL on a local port that nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{probe.getsockname()[1]}/rewrite"


@contextmanager
def serving(answer):
    """The endpoint of a local server that answers each POST with the bytes
    ``answer(headers, body)`` returns, where ``body`` is the request text."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = answer(self.headers, self.rfile.read(length).decode())
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    ).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/rewrite"
    finally:
        server.shutdown()
        server.server_close()


def full_pipeline(out) -> None:
    run_city1(out, "simulate")
    run_city1(out, "entropy")
    run_city1(out, "diagnose")
    run_city1(out, "report")


class TestRepair:
    def test_canned_repair_outputs(self, out, repo_root, capsys):
        full_pipeline(out)
        assert run_city1(out, "repair") == 0
        repairs = read_json(out / "repairs.json")
        assert repairs["doc_id"] == "narrative"
        assert [r["ambiguity_id"] for r in repairs["records"]] == ["AMB-1", "AMB-2"]
        assert repairs["rejected"] == []
        repaired = (out / "narrative_repaired.txt").read_text()
        original = (repo_root / "fixtures" / "city1" / "narrative.txt").read_text()
        assert repaired != original
        assert "must be under treatment for diabetes and must," in repaired
        assert "have also checked the" in repaired
        # Untouched paragraphs survive byte for byte.
        assert original.split("\n\n")[0] in repaired
        assert "applied 2 repair(s), rejected 0" in capsys.readouterr().out

    def test_canned_repair_lands_on_the_segment_it_answers(self, out, repo_root, capsys):
        # On the family the report's only ambiguity, AMB-1, is the acceptance
        # paragraph; city1's AMB-1 is the eligibility paragraph.
        for stage in ("simulate", "entropy", "diagnose", "report", "repair"):
            assert run_city1(out, "--models", "fixtures/family_original", stage) == 0
        report = read_json(out / "ambiguity_report.json")
        assert [(a["id"], a["segment_id"]) for a in report["ambiguities"]] == [("AMB-1", "seg-4")]
        original = NarrativeDocument.from_text(
            "narrative", (repo_root / "fixtures" / "city1" / "narrative.txt").read_text()
        )
        repaired = NarrativeDocument.from_text(
            "narrative", (out / "narrative_repaired.txt").read_text()
        )
        assert repaired.segment("seg-2").text == original.segment("seg-2").text
        assert "health guidance request box" in repaired.segment("seg-4").text
        assert "applied 1 repair(s), rejected 0" in capsys.readouterr().out

    @pytest.mark.parametrize("excerpt", ["", None, 7])
    def test_excerpt_that_is_not_a_non_empty_string_is_rejected(self, out, repo_root, excerpt):
        full_pipeline(out)
        path = out / "ambiguity_report.json"
        report = read_json(path)
        for entry in report["ambiguities"]:
            entry["excerpt"] = excerpt
        path.write_text(json.dumps(report))
        assert run_city1(out, "repair") == 0
        repairs = read_json(out / "repairs.json")
        assert repairs["records"] == []
        assert repairs["rejected"] == [
            {"ambiguity_id": ambiguity_id, "reason": "excerpt is not a non-empty string"}
            for ambiguity_id in ("AMB-1", "AMB-2")
        ]
        original = (repo_root / "fixtures" / "city1" / "narrative.txt").read_text()
        assert (out / "narrative_repaired.txt").read_text() == original

    def test_repair_requires_report(self, out, capsys):
        assert run_city1(out, "repair") == 2
        assert "run report first" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda entry: {**entry, "id": "AMB-1"}, "ambiguity id 'AMB-1' is used twice"),
            (
                lambda entry: {key: entry[key] for key in entry if key != "id"},
                "every ambiguity must be an object with a string id",
            ),
            (lambda entry: 1, "every ambiguity must be an object with a string id"),
        ],
        ids=["repeated id", "no id", "not an object"],
    )
    def test_bad_second_ambiguity_is_refused_before_any_provider_call(
        self, out, capsys, monkeypatch, damage, message
    ):
        full_pipeline(out)
        path = out / "ambiguity_report.json"
        report = read_json(path)
        report["ambiguities"][1] = damage(report["ambiguities"][1])
        path.write_text(json.dumps(report))
        calls = []
        rewrite = repair.CannedRewriteProvider.rewrite

        def spy(self, request):
            calls.append(request["ambiguity_id"])
            return rewrite(self, request)

        monkeypatch.setattr(repair.CannedRewriteProvider, "rewrite", spy)
        capsys.readouterr()
        assert run_city1(out, "repair") == 2
        assert capsys.readouterr().err == f"error: ambiguity_report.json: {message}\n"
        assert calls == []
        assert not (out / "repairs.json").exists()

    def test_http_provider_receives_env_token(self, out, tmp_path, monkeypatch):
        seen = []

        def answer(headers, text):
            body = json.loads(text)
            seen.append({"auth": headers.get("Authorization"), "body": body})
            return json.dumps(
                {
                    "revised_excerpt": f"rewritten {body['ambiguity_id']}",
                    "rationale": "confirmed by the office",
                    "evidence_refs": ["supplemental:Q1"],
                }
            ).encode()

        with serving(answer) as endpoint:
            cfg = http_config(
                tmp_path,
                f"provider_endpoint = {endpoint}",
                "provider_model = rewriter-1",
                "provider_auth_env = REWRITE_TOKEN",
            )
            monkeypatch.setenv("REWRITE_TOKEN", "hunter2")
            full_pipeline(out)
            assert run("--config", str(cfg), "--out", str(out), "repair") == 0
        assert len(seen) == 2
        assert all(item["auth"] == "Bearer hunter2" for item in seen)
        assert seen[0]["body"]["model"] == "rewriter-1"
        repairs = read_json(out / "repairs.json")
        assert repairs["records"][0]["revised_excerpt"] == "rewritten AMB-1"

    def test_a_body_that_is_not_json_is_a_rejection_not_exit_3(self, out, tmp_path, capsys):
        with serving(lambda headers, text: b"<html>hi</html>") as endpoint:
            cfg = http_config(tmp_path, f"provider_endpoint = {endpoint}")
            full_pipeline(out)
            assert run("--config", str(cfg), "--out", str(out), "repair") == 0
        reason = "non-JSON body: Expecting value: line 1 column 1 (char 0)"
        assert read_json(out / "repairs.json")["rejected"] == [
            {"ambiguity_id": ambiguity_id, "reason": reason} for ambiguity_id in ("AMB-1", "AMB-2")
        ]
        assert "applied 0 repair(s), rejected 2" in capsys.readouterr().out

    def test_unreachable_http_provider_exits_3(self, out, tmp_path, capsys):
        cfg = http_config(tmp_path, f"provider_endpoint = {dead_endpoint()}", "provider_retries = 0")
        full_pipeline(out)
        assert run("--config", str(cfg), "--out", str(out), "repair") == 3
        assert "provider error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting,message",
        [
            ("provider_timeout = -1", "provider_timeout must be a finite number"),
            ("provider_timeout = 0", "provider_timeout must be a finite number"),
            ("provider_timeout = nan", "provider_timeout must be a finite number"),
            ("provider_timeout = inf", "provider_timeout must be a finite number"),
            ("provider_retries = -1", "provider_retries must be 0 or more"),
            ("provider_endpoint = file:///etc/hostname", "http or https"),
            ("provider_endpoint = ftp://127.0.0.1/rewrite", "http or https"),
            ('provider_endpoint = data:application/json,{"rationale": "x"}', "http or https"),
            ("provider_endpoint =", "provider_endpoint is required for the http provider"),
        ],
    )
    def test_invalid_http_provider_setting_is_a_config_error(
        self, out, tmp_path, capsys, setting, message
    ):
        cfg = http_config(tmp_path, f"provider_endpoint = {dead_endpoint()}", setting)
        full_pipeline(out)
        capsys.readouterr()
        assert run("--config", str(cfg), "--out", str(out), "repair") == 1
        assert message in capsys.readouterr().err

    def test_missing_provider_config(self, out, tmp_path, capsys):
        cfg = tmp_path / "none.cfg"
        cfg.write_text(
            "models_dir = fixtures/city1/models\n"
            "cases_csv = fixtures/city1/population.csv\n"
            "narrative = fixtures/city1/narrative.txt\n"
            "supplemental = fixtures/city1/supplemental.txt\n"
        )
        full_pipeline(out)
        assert run("--config", str(cfg), "--out", str(out), "repair") == 1
        assert "no provider configured" in capsys.readouterr().err


@pytest.mark.parametrize(
    "artifact,command,list_key",
    [
        ("distribution.json", "report", "combos"),
        ("diagnosis.json", "report", "refined_diagnoses"),
        ("ambiguity_report.json", "repair", "ambiguities"),
    ],
)
@pytest.mark.parametrize("damage", ["empty object", "truncated", "wrong-typed entry"])
def test_malformed_artifact_is_a_data_error(out, capsys, artifact, command, list_key, damage):
    full_pipeline(out)
    path = out / artifact
    text = path.read_text()
    if damage == "empty object":
        path.write_text("{}")
    elif damage == "truncated":
        path.write_text(text[: len(text) // 2])
    else:
        payload = json.loads(text)
        payload[list_key][0] = 1
        path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_city1(out, command) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("reference_model", "gone_model", "gone_model"),
        ("refined_diagnoses", [{"gateways": ["n99"]}], "n99"),
        ("status", "pending", "pending"),
        ("refined_diagnoses", [{"gateways": [5]}], "diagnosis.json: gateway ids must be strings"),
        ("reference_source", "../x.bpmn", "['../x.bpmn', 'city1_or_broad.bpmn']"),
        (
            "reference_source",
            "../models/city1_and_strict.bpmn",
            "['../models/city1_and_strict.bpmn', 'city1_or_broad.bpmn']",
        ),
        ("target_source", "missing.bpmn", "['city1_and_strict.bpmn', 'missing.bpmn']"),
        ("target_source", 5, "['city1_and_strict.bpmn', 5]"),
        ("reference_source", None, "[None, 'city1_or_broad.bpmn']"),
        ("reference_source", "city1_or_broad.bpmn", "not the files of 'city1_and_strict'"),
        (
            "refined_diagnoses",
            [{"gateways": ["n3"]}, {"gateways": ["n1", "n5"]}],
            "names 'n1', which is not an exclusive gateway of 'city1_or_broad'",
        ),
    ],
)
def test_stale_diagnosis_is_a_data_error(out, capsys, key, value, message):
    """A ``None`` source leaves the key out, as a diagnosis.json written
    before the sources were recorded does."""
    full_pipeline(out)
    payload = read_json(out / "diagnosis.json")
    payload[key] = value
    if value is None:
        del payload[key]
    (out / "diagnosis.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_city1(out, "report") == 2
    err = capsys.readouterr().err
    assert message in err
    if key != "status":
        assert err.startswith("error: diagnosis.json: ") and err.endswith(" (rerun diagnose)\n")


@pytest.mark.parametrize("key", ["count", "h_norm"])
def test_a_boolean_in_an_artifact_is_not_a_number(out, capsys, key):
    full_pipeline(out)
    path = out / "distribution.json"
    payload = read_json(path)
    (payload["combos"][0] if key == "count" else payload)[key] = True
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_city1(out, "report") == 2
    assert f"distribution.json: {key!r} is missing or has the wrong type" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,number,token", [("h_norm", "1.0", "NaN"), ("probability", "0.5", "Infinity")]
)
def test_non_finite_number_in_an_artifact_is_a_data_error(out, capsys, key, number, token):
    full_pipeline(out)
    path = out / "distribution.json"
    path.write_text(path.read_text().replace(f'"{key}": {number}', f'"{key}": {token}', 1))
    capsys.readouterr()
    assert run_city1(out, "report") == 2
    assert f"distribution.json: non-finite number {token}" in capsys.readouterr().err


class TestVerify:
    def test_self_comparison_is_zero_delta(self, out, capsys):
        run_city1(out, "simulate")
        kpis = str(out / "kpis")
        assert run_city1(out, "verify", "--before", kpis, "--after", kpis) == 0
        payload = read_json(out / "verify.json")
        assert payload["before"]["h_norm"] == 1.0
        assert payload["after"]["h_norm"] == 1.0
        assert payload["delta_h_norm"] == 0.0
        assert "delta=+0.000000" in capsys.readouterr().out

    def test_a_directory_named_like_a_kpi_file_is_skipped(self, out, tmp_path):
        assert run_city1(out, "simulate") == 0
        after = tmp_path / "after"
        shutil.copytree(out / "kpis", after)
        (after / "x.json").mkdir()
        kpis = str(out / "kpis")
        assert run_city1(out, "verify", "--before", kpis, "--after", str(after)) == 0
        assert read_json(out / "verify.json")["after"]["total"] == 2

    def test_a_kpi_it_cannot_round_is_a_data_error(self, out, tmp_path, capsys):
        assert run_city1(out, "simulate") == 0
        after = tmp_path / "after"
        shutil.copytree(out / "kpis", after)
        path = after / "city1_or_broad.json"
        path.write_text(json.dumps({**read_json(path), "kpis": {**STRICT_KPIS, "HI": "-1e5000"}}))
        kpis = str(out / "kpis")
        assert run_city1(out, "verify", "--before", kpis, "--after", str(after)) == 2
        message = "city1_or_broad.json: KPI HI value '-1e5000' has too many digits to round to 6"
        assert message in capsys.readouterr().err
        assert not (out / "verify.json").exists()

    def test_missing_before_flag(self, out, capsys):
        assert run_city1(out, "verify", "--after", str(out)) == 1
        assert "required" in capsys.readouterr().err


class TestValidate:
    def test_clean_models(self, out, capsys):
        assert run_city1(out, "validate") == 0
        assert "validated 2 model(s), 0 issue(s)" in capsys.readouterr().out

    def test_structural_issues_listed(self, out, tmp_path, capsys):
        bad = mk.model(
            "wonky",
            [mk.start("s"), mk.gateway("g"), mk.end("e1"), mk.end("e2")],
            [
                mk.flow("f1", "s", "g"),
                mk.flow("f2", "g", "e1", "x == 1"),
                mk.flow("f3", "g", "e2"),
            ],
        )
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        (models_dir / "wonky.bpmn").write_text(serialize_bpmn(bad))
        assert (
            run("--config", CONFIG, "--out", str(out), "--models", str(models_dir), "validate")
            == 0
        )
        text = capsys.readouterr().out
        assert "wonky.bpmn (wonky):" in text
        assert "no_default_path: g" in text
        assert "unconditioned_branch: g" in text
        assert "validated 1 model(s), 2 issue(s)" in text


    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_a_condition_nested_too_deep_is_a_model_error(self, out, tmp_path, capsys, command):
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        text = serialize_bpmn(mk.branch_model("x >= 5", model_id="deep"))
        deep = text.replace("x &gt;= 5", "NOT " * 1000 + "x")
        (models_dir / "deep.bpmn").write_text(deep)
        assert run_city1(out, "--models", str(models_dir), command) == 2
        err = capsys.readouterr().err
        assert "flow 'fy' from 'g': at offset 128: nested deeper than 32 levels" in err

    @pytest.mark.parametrize(
        "old,new,message",
        [
            (
                "x &gt;= 5",
                "(x &gt;= 5",
                "flow 'fy' from 'g': at offset 7: unexpected end of input (expected ')')",
            ),
            ('id="fy2"', 'id="fy"', "duplicate flow id 'fy'"),
            (' sourceRef="s"', "", "flow 'f1' missing sourceRef/targetRef"),
        ],
        ids=["unclosed parenthesis", "duplicate flow id", "no sourceRef"],
    )
    def test_a_malformed_model_is_a_data_error(self, out, tmp_path, capsys, old, new, message):
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        text = serialize_bpmn(mk.branch_model("x >= 5", model_id="bad"))
        (models_dir / "bad.bpmn").write_text(text.replace(old, new, 1))
        assert run_city1(out, "--models", str(models_dir), "validate") == 2
        assert capsys.readouterr().err == f"error: bad.bpmn: {message}\n"


class TestExitCodes:
    def test_unknown_subcommand(self, out, capsys):
        assert run("definitely-not-a-command") == 1
        assert "error" in capsys.readouterr().err

    def test_no_subcommand(self):
        assert run() == 1

    def test_global_flag_after_subcommand(self, capsys):
        assert run("simulate", "--config", CONFIG) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key(self, out, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("modles_dir = somewhere\n")
        assert run("--config", str(cfg), "simulate") == 1
        assert "unknown key" in capsys.readouterr().err

    def test_step_cap_is_an_unknown_key(self, out, tmp_path, capsys):
        # Walks are bounded by the model's node count, not by a setting.
        cfg = config_with(tmp_path, "step_cap", "5")
        assert run("--config", str(cfg), "--out", str(out), "simulate") == 1
        assert "unknown key 'step_cap'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_that_is_not_utf8_is_a_config_error(self, out, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9\nmodels_dir = fixtures/city1/models\n")
        assert run("--config", str(cfg), "--out", str(out), "simulate") == 1
        assert f"error: {cfg}: not UTF-8 text" in capsys.readouterr().err

    def test_missing_models_dir_config(self, out, tmp_path, capsys):
        cfg = tmp_path / "nomodels.cfg"
        cfg.write_text("cases_csv = fixtures/city1/population.csv\n")
        assert run("--config", str(cfg), "--out", str(out), "simulate") == 1
        assert "models_dir is not configured" in capsys.readouterr().err

    def test_nonexistent_models_dir(self, out, capsys):
        assert (
            run(
                "--models",
                "no/such/dir",
                "--cases",
                "fixtures/city1/population.csv",
                "--out",
                str(out),
                "simulate",
            )
            == 2
        )
        assert "models directory not found" in capsys.readouterr().err

    def test_malformed_model_file(self, out, tmp_path, capsys):
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        (models_dir / "broken.bpmn").write_text("<definitions><oops")
        assert (
            run(
                "--models",
                str(models_dir),
                "--cases",
                "fixtures/city1/population.csv",
                "--out",
                str(out),
                "simulate",
            )
            == 2
        )
        assert "error" in capsys.readouterr().err


# Command lines as argparse read them, each with its exit code, the stream it
# writes to ("usage": stderr, starting with a usage line) and phrases of it.
# OUT stands for the output directory.
COMMAND_LINES = {
    "flag=value": (
        ["--config", CONFIG, "--round-decimals=13", "validate"],
        1, "err", "error: round_decimals must be in [0, 12]",
    ),
    "global flag prefix": (
        ["--config", CONFIG, "--round-dec", "13", "validate"],
        1, "err", "error: round_decimals must be in [0, 12]",
    ),
    "command flag prefix": (
        ["--config", CONFIG, "--out", "OUT", "simulate", "--tr"], 0, "out", "simulated 2 model(s)"
    ),
    "last repeat wins": (
        ["--config", CONFIG, "--out", "x", "--out=OUT", "simulate"], 0, "out", "-> OUT/kpis"
    ),
    "ambiguous prefix": (
        ["--s", "x", "validate"],
        1, "usage", "error: ambiguous option: --s could match --segments, --supplemental",
    ),
    "missing global value": (["--out"], 1, "usage", "error: argument --out: expected one argument"),
    "missing command value": (
        ["--config", CONFIG, "entropy", "--kpis"],
        1, "usage", "error: argument --kpis: expected one argument",
    ),
    "flag as a value": (
        ["--out", "--models", "x", "validate"],
        1, "usage", "error: argument --out: expected one argument",
    ),
    "unknown flag": (["--bogus", "validate"], 1, "usage", "error: unrecognized arguments: --bogus"),
    "flag of another command": (
        ["--config", CONFIG, "report", "--traces"],
        1, "usage", "error: unrecognized arguments: --traces",
    ),
    "command flag before the command": (
        ["--traces", "simulate"], 1, "usage", "error: unrecognized arguments: --traces"
    ),
    "global flag after the command": (
        ["validate", "--config", CONFIG],
        1, "usage", f"error: unrecognized arguments: --config {CONFIG}",
    ),
    "switch with a value": (
        ["simulate", "--traces=1"],
        1, "usage", "error: argument --traces: ignored explicit argument '1'",
    ),
    "unknown command": (["nope"], 1, "usage", "invalid choice: 'nope'"),
    "no command": ([], 1, "usage", "error: the following arguments are required: command"),
    "verify without its options": (
        ["--config", CONFIG, "verify"],
        1, "usage", "error: the following arguments are required: --before, --after",
    ),
    "verify without --after": (
        ["verify", "--before", "x"],
        1, "usage", "error: the following arguments are required: --after",
    ),
    "help": (
        ["-h"],
        0, "out", "simulate", "entropy", "diagnose", "report", "repair", "verify", "validate",
    ),
    "command help": (["simulate", "--help"], 0, "out", "simulate", "--traces"),
    "help prefix": (["--he"], 0, "out", "--round-decimals", "simulate"),
    # build_run_config, not the parser, converts a global flag's value.
    "non-integer round_decimals": (
        ["--config", CONFIG, "--round-decimals", "1e3", "validate"],
        1, "err", "error: round_decimals: expected integer, got '1e3'",
    ),
    "negative round_decimals": (
        ["--config", CONFIG, "--round-decimals", "-1", "validate"],
        1, "err", "error: round_decimals must be in [0, 12]",
    ),
    "missing config file": (
        ["--config", "no/such.cfg", "validate"],
        1, "err", "error: config file not found: no/such.cfg",
    ),
    "models dir without models": (
        ["--config", CONFIG, "--models", "fixtures", "validate"],
        2, "err", "error: no .bpmn or .xml files in fixtures",
    ),
    "entropy with both KPI sources": (
        ["--config", CONFIG, "--out", "OUT", "entropy", "--kpis", "/nonexistent"]
        + ["--from-csv", "k.csv"],
        1, "err", "error: entropy takes --kpis or --from-csv, not both",
    ),
    "KPI dir without KPI files": (
        ["--config", CONFIG, "--out", "OUT", "entropy", "--kpis", "fixtures"],
        2, "err", "error: no KPI JSON files in fixtures",
    ),
}


@pytest.mark.parametrize("case", COMMAND_LINES)
def test_command_line_grammar(out, capsys, case):
    argv, code, stream, *phrases = COMMAND_LINES[case]
    assert run(*[arg.replace("OUT", str(out)) for arg in argv]) == code
    captured = capsys.readouterr()
    text = captured.out if stream == "out" else captured.err
    if stream == "usage":
        assert text.startswith("usage: bpmndiverge")
    for phrase in phrases:
        assert phrase.replace("OUT", str(out)) in text
    if code:
        assert not out.exists()


# One path component longer than a file system allows (ENAMETOOLONG).
LONG_NAME = "x" * 300

# Each input flag given an over-long path: the command line (OUT the output
# directory, KPIS a KPI directory that simulate wrote), exit code and message.
LONG_PATHS = {
    "--config": (["--config", LONG_NAME, "validate"], 1, "config file not found"),
    "--cases": (["--cases", LONG_NAME, "simulate"], 2, "cases_csv not found"),
    "--models": (["--models", LONG_NAME, "simulate"], 2, "models directory not found"),
    "--kpis": (["entropy", "--kpis", LONG_NAME], 2, "KPI directory not found"),
    "--before": (["verify", "--before", LONG_NAME, "--after", "KPIS"], 2, "KPI directory not found"),
    "--after": (["verify", "--before", "KPIS", "--after", LONG_NAME], 2, "KPI directory not found"),
}


@pytest.mark.parametrize("flag", LONG_PATHS)
def test_an_over_long_input_path_is_an_error_that_names_it(out, capsys, flag):
    assert run_city1(out, "simulate") == 0
    argv, code, message = LONG_PATHS[flag]
    argv = [str(out / "kpis") if arg == "KPIS" else arg for arg in argv]
    capsys.readouterr()
    assert run(*(argv if flag == "--config" else ["--config", CONFIG, "--out", str(out), *argv])) == code
    assert capsys.readouterr().err == f"error: {message}: {LONG_NAME}\n"


class TestUnwritableOutput:
    """An output path that cannot be written is a configuration error (exit
    1) that names it, not a traceback."""

    def test_out_is_a_file(self, out, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_city1(taken, "simulate") == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {taken}/kpis/city1_and_strict.json: Not a directory\n"
        )
        assert run_city1(out, "simulate") == 0
        capsys.readouterr()
        assert run_city1(taken, "entropy", "--kpis", str(out / "kpis")) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {taken}/distribution.json: File exists\n"
        )

    def test_a_directory_in_place_of_an_artifact(self, out, capsys):
        assert run_city1(out, "simulate") == 0
        (out / "distribution.json").mkdir()
        assert run_city1(out, "entropy") == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out}/distribution.json: Is a directory\n"
        )
        assert sorted(path.name for path in out.iterdir()) == ["distribution.json", "kpis"]


# The command that reads each input file.
INPUT_KEYS = {
    "models_dir": "simulate",
    "cases_csv": "simulate",
    "narrative": "report",
    "supplemental": "repair",
    "provider_canned_path": "repair",
}


def config_with(tmp_path, key: str, value: str | None):
    """The city1 config with ``key`` set to ``value``, or left out for None."""
    lines = [
        line for line in Path(CONFIG).read_text().splitlines()
        if line.partition("=")[0].strip() != key
    ]
    if value is not None:
        lines.append(f"{key} = {value}")
    cfg = tmp_path / "input.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


class TestInputFiles:
    @pytest.mark.parametrize("key", sorted(INPUT_KEYS))
    def test_unconfigured_input_is_a_config_error(self, out, tmp_path, capsys, key):
        full_pipeline(out)
        capsys.readouterr()
        cfg = config_with(tmp_path, key, None)
        assert run("--config", str(cfg), "--out", str(out), INPUT_KEYS[key]) == 1
        assert f"{key} is not configured" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(INPUT_KEYS))
    def test_missing_input_file_is_a_data_error(self, out, tmp_path, capsys, key):
        full_pipeline(out)
        capsys.readouterr()
        missing = tmp_path / "no-such-input"
        cfg = config_with(tmp_path, key, str(missing))
        assert run("--config", str(cfg), "--out", str(out), INPUT_KEYS[key]) == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["case_id,HbA1c,HbA1c", "case_id,HbA1c,", "case_id,,HbA1c"])
    def test_case_csv_column_names_must_be_distinct_and_named(
        self, out, tmp_path, capsys, header
    ):
        cases = tmp_path / "cases.csv"
        cases.write_text(f"{header}\nc1,1,2\n")
        assert run_city1(out, "--cases", str(cases), "simulate") == 2
        assert f"{cases} header must be case_id plus distinct" in capsys.readouterr().err

    def test_case_csv_that_is_not_utf8_names_the_file(self, out, tmp_path, capsys):
        cases = tmp_path / "cases.csv"
        cases.write_bytes(b"case_id,HbA1c\nc1,\xff\n")
        assert run_city1(out, "--cases", str(cases), "simulate") == 2
        assert f"{cases}: not UTF-8 text" in capsys.readouterr().err

    def test_broken_model_beside_good_ones_is_named(self, out, tmp_path, capsys, repo_root):
        models = tmp_path / "models"
        shutil.copytree(repo_root / "fixtures" / "city1" / "models", models)
        (models / "broken.bpmn").write_text("<definitions><oops")
        assert run_city1(out, "--models", str(models), "simulate") == 2
        assert "error: broken.bpmn: unclosed token" in capsys.readouterr().err

    def test_a_directory_named_like_a_model_is_skipped(self, out, tmp_path, capsys, repo_root):
        models = tmp_path / "models"
        shutil.copytree(repo_root / "fixtures" / "city1" / "models", models)
        (models / "x.bpmn").mkdir()
        for command in ("simulate", "validate"):
            assert run_city1(out, "--models", str(models), command) == 0
        printed = capsys.readouterr().out
        assert "simulated 2 model(s)" in printed and "validated 2 model(s)" in printed

    @pytest.mark.parametrize(
        "text,message",
        [("[1, 2]", "canned responses must be a JSON object"), ("{bad", "invalid JSON")],
    )
    def test_malformed_canned_file_is_a_data_error(self, out, tmp_path, capsys, text, message):
        canned = tmp_path / "canned.json"
        canned.write_text(text)
        full_pipeline(out)
        capsys.readouterr()
        cfg = config_with(tmp_path, "provider_canned_path", str(canned))
        assert run("--config", str(cfg), "--out", str(out), "repair") == 2
        assert f"{canned}: {message}" in capsys.readouterr().err


@pytest.fixture()
def parse_calls(monkeypatch):
    """One entry per ``bpmn.parse_bpmn`` call."""
    calls = []
    parse = bpmn.parse_bpmn

    def counting(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(bpmn, "parse_bpmn", counting)
    return calls


@pytest.fixture()
def city1_models(out, tmp_path, repo_root):
    """A copy of the city1 models, after simulate, entropy and diagnose."""
    models = tmp_path / "models"
    shutil.copytree(repo_root / "fixtures" / "city1" / "models", models)
    for command in ("simulate", "entropy", "diagnose"):
        assert run_city1(out, "--models", str(models), command) == 0
    return models


DIAGNOSE_COMMANDS = [("diagnose",), ("diagnose", "city1_and_strict", "city1_or_broad")]
PAIR_COMMANDS = [*DIAGNOSE_COMMANDS, ("report",)]

STRICT_XML = (
    Path(__file__).resolve().parent.parent / "fixtures/city1/models/city1_and_strict.bpmn"
).read_bytes()

# A file beside the pair that fails the id scan, and the error it gives.
UNSCANNABLE = {
    "malformed XML": (b"<definitions><oops", "zz.bpmn: unclosed token"),
    "non-UTF-8 text": (b"<definitions>\xff</definitions>", "zz.bpmn: 'utf-8' codec"),
    "no process": (
        f'<definitions xmlns="{bpmn.NS_MODEL}"/>'.encode(),
        "zz.bpmn: no <process> element found",
    ),
    "id that is a path": (
        STRICT_XML.replace(b'id="city1_and_strict"', b'id="../x"'),
        "zz.bpmn: model id '../x' is not a plain file name",
    ),
    "duplicate id": (
        STRICT_XML,
        "duplicate model id 'city1_and_strict' in zz.bpmn and city1_and_strict.bpmn",
    ),
}


class TestModelLoading:
    def test_diagnose_and_report_build_only_the_pair(self, out, parse_calls, monkeypatch):
        id_reads = []
        model_id = bpmn.model_id
        monkeypatch.setattr(bpmn, "model_id", lambda text: id_reads.append(text) or model_id(text))
        family = ("--models", "fixtures/family_original")
        counts = {}
        for command in (
            ("simulate",),
            ("validate",),
            ("entropy",),
            ("diagnose", "fam_orig_000", "fam_orig_001"),
            ("diagnose",),
            ("report",),
        ):
            parse_calls.clear()
            id_reads.clear()
            assert run_city1(out, *family, *command) == 0
            counts[" ".join(command)] = (len(parse_calls), len(id_reads))
        assert counts == {
            "simulate": (100, 0),
            "validate": (100, 0),
            "entropy": (0, 0),
            "diagnose fam_orig_000 fam_orig_001": (2, 100),
            "diagnose": (2, 100),
            "report": (2, 0),
        }
        assert read_json(out / "diagnosis.json")["status"] == "diagnosed"
        diagnosis = {"status": "no_divergence", "models": ["fam_orig_000", "fam_orig_001"]}
        (out / "diagnosis.json").write_text(json.dumps(diagnosis))
        parse_calls.clear()
        id_reads.clear()
        assert run_city1(out, *family, "report") == 0
        assert parse_calls == id_reads == []

    @pytest.mark.parametrize("command", DIAGNOSE_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("kind", sorted(UNSCANNABLE))
    def test_every_file_is_still_scanned(self, out, city1_models, capsys, command, kind):
        content, message = UNSCANNABLE[kind]
        (city1_models / "zz.bpmn").write_bytes(content)
        capsys.readouterr()
        assert run_city1(out, "--models", str(city1_models), *command) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(UNSCANNABLE))
    def test_report_reads_only_the_recorded_pair(self, out, city1_models, kind):
        models = ("--models", str(city1_models))
        assert run_city1(out, *models, "report") == 0
        report = (out / "ambiguity_report.json").read_bytes()
        (city1_models / "zz.bpmn").write_bytes(UNSCANNABLE[kind][0])
        assert run_city1(out, *models, "report") == 0
        assert (out / "ambiguity_report.json").read_bytes() == report

    @pytest.mark.parametrize("suffix,code", [(".txt", 2), ("", 2), (".XML", 0)])
    def test_report_reads_a_recorded_file_only_by_the_listing_rule(
        self, out, city1_models, capsys, suffix, code
    ):
        # _load_models lists .bpmn and .xml files in any case, so report reads no other.
        shutil.copy(city1_models / "city1_or_broad.bpmn", city1_models / f"broad{suffix}")
        payload = read_json(out / "diagnosis.json")
        payload["target_source"] = f"broad{suffix}"
        (out / "diagnosis.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_city1(out, "--models", str(city1_models), "report") == code
        err = capsys.readouterr().err
        assert err.endswith(" (rerun diagnose)\n") if code else err == ""

    @pytest.mark.parametrize("command", PAIR_COMMANDS, ids=" ".join)
    def test_a_pair_model_that_fails_to_parse_is_named(self, out, city1_models, capsys, command):
        broad = city1_models / "city1_or_broad.bpmn"
        broad.write_text(broad.read_text().replace("Consent_Submitted == 1", "Consent_Submitted =="))
        capsys.readouterr()
        assert run_city1(out, "--models", str(city1_models), *command) == 2
        assert "error: city1_or_broad.bpmn: flow 'e6' from 'n5'" in capsys.readouterr().err

    def test_simulate_parses_each_distinct_condition_text_once(self, out, monkeypatch, repo_root):
        calls = []
        parse = bpmn.parse_condition
        monkeypatch.setattr(bpmn, "parse_condition", lambda text: calls.append(text) or parse(text))
        models = repo_root / "fixtures" / "family_original"
        tag = f"{{{bpmn.NS_MODEL}}}conditionExpression"
        texts = [e.text.strip() for path in models.iterdir() for e in ET.parse(path).iter(tag)]
        assert run_city1(out, "--models", str(models), "simulate") == 0
        assert (len(texts), len(calls)) == (200, 68)
        assert sorted(calls) == sorted(set(texts))

    def test_a_bad_condition_in_a_later_model_names_its_file_and_flow(
        self, out, tmp_path, repo_root, capsys
    ):
        models = tmp_path / "family"
        shutil.copytree(repo_root / "fixtures" / "family_original", models)
        last = models / "fam_orig_099.bpmn"
        # Earlier models parse this text; the last one breaks it.
        text = ">1 == Consent_Submitted<"
        assert text in (models / "fam_orig_001.bpmn").read_text() and text in last.read_text()
        last.write_text(last.read_text().replace(text, ">1 == == Consent_Submitted<"))
        assert run_city1(out, "--models", str(models), "simulate") == 2
        assert capsys.readouterr().err == (
            "error: fam_orig_099.bpmn: flow 'qf6' from 'q5': at offset 5: unexpected '==' "
            "(expected variable or literal)\n"
        )

    def test_an_invalid_model_outside_the_pair_fails_only_the_stages_that_build_it(
        self, out, city1_models, capsys
    ):
        unsupported = STRICT_XML.replace(b'id="city1_and_strict"', b'id="city1_extra"').replace(
            b"<bpmn:task ", b'<bpmn:parallelGateway id="p"/>\n    <bpmn:task ', 1
        )
        (city1_models / "zz.bpmn").write_bytes(unsupported)
        diagnosis = (out / "diagnosis.json").read_bytes()
        models = ("--models", str(city1_models))
        for command in PAIR_COMMANDS:
            assert run_city1(out, *models, *command) == 0
        assert (out / "diagnosis.json").read_bytes() == diagnosis
        capsys.readouterr()
        for command in ("simulate", "validate"):
            assert run_city1(out, *models, command) == 2
            assert "error: zz.bpmn: unsupported element <parallelGateway>" in (
                capsys.readouterr().err
            )


@pytest.mark.parametrize(
    "line,message",
    [
        ("models_dir fixtures/city1/models", "line 1: expected 'key = value'"),
        ("= fixtures/city1/models", "line 1: empty key"),
        ("max_diagnosis_cardinality = 0", "max_diagnosis_cardinality must be positive"),
        ("localization_threshold = 2", "localization_threshold must be in [0, 1]"),
        ("provider = other", "provider must be 'canned' or 'http'"),
    ],
)
def test_a_bad_config_line_is_a_config_error(out, tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\n")
    assert run("--config", str(cfg), "--out", str(out), "validate") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_run_config_field_is_a_key():
    fields = set(RunConfig._fields) - {"kpi"}
    kpi_fields = set(KpiConfig._fields) - {"kpi_task_tags"}
    assert set(KEYS) == fields | kpi_fields


@pytest.mark.parametrize("key", [key for key, kind in KEYS.items() if kind not in (str, Path)])
def test_a_number_key_rejects_text(key):
    with pytest.raises(ConfigError, match=f"{key}: expected"):
        build_run_config({key: "many"})


@pytest.mark.parametrize("token", ["nan", "sNaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "key", ["overload_penalty_alpha", "response_rate", "cost_saving_per_improved_patient"]
)
def test_a_non_finite_decimal_is_a_config_error(out, tmp_path, capsys, key, token):
    cfg = config_with(tmp_path, key, token)
    assert run("--config", str(cfg), "--out", str(out), "simulate") == 1
    assert f"{key}: expected a finite decimal, got {token!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("guidance_capacity", "0", "guidance_capacity must be positive"),
        ("response_rate", "1.5", "response_rate must be in [0, 1]"),
        (
            "cost_saving_per_improved_patient",
            "1e999999999",
            "cost_saving_per_improved_patient must be below 10^9, got 1E+999999999",
        ),
        (
            "cost_saving_per_improved_patient",
            "1e400000",
            "cost_saving_per_improved_patient must be below 10^9, got 1E+400000",
        ),
        (
            "cost_saving_per_improved_patient",
            "1e-400000",
            "cost_saving_per_improved_patient must have at most 12 digits after the point, "
            "got 1E-400000",
        ),
    ],
)
def test_an_out_of_range_kpi_parameter_is_a_config_error(
    out, tmp_path, capsys, key, value, message
):
    # KpiConfig is a plain record, so build_run_config checks its parameters
    # whether they come from the file or the base configuration.
    cfg = config_with(tmp_path, key, value)
    assert run("--config", str(cfg), "--out", str(out), "simulate") == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_the_benchmark_tracer_finds_every_function_it_wraps(repo_root):
    """``perfbench/tracer.py`` wraps the package's layer functions by name
    (``diagnosis.execute_case``, ``simulation.aggregate_kpis``, ``cli.dump_json``
    ...), so renaming one breaks the traced benchmark.  ``install`` patches
    package modules and ``pathlib.Path.read_text``, so it runs in a child."""
    paths = [str(repo_root / "perfbench"), str(repo_root / "src")]
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer('probe'))"],
        cwd=repo_root,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
