"""Acceptance gate: nine criteria, one test (and one PASS/FAIL line) each.

``pytest tests/test_acceptance.py -v`` shows one line per criterion; each
test additionally prints ``criterion N (<title>): PASS|FAIL`` so the gate
reads the same way under ``-s`` or in captured failure output.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from bpmndiverge import cli
from bpmndiverge.bpmn import parse_bpmn
from bpmndiverge.diagnosis import (
    ConflictSet,
    DiagnosisProblem,
    NoDivergenceError,
    choose_direction,
    minimal_hitting_sets,
)
from bpmndiverge.distribution import (
    ConsistencyCategory,
    build_distribution,
    consistency_category,
    normalized_entropy,
)
from bpmndiverge.simulation import CaseRecord, KpiConfig, KpiVector, simulate_population

import generate_families
import modelkit as mk
from bpmn_writer import serialize_bpmn
from oracles import brute_force_hitting_sets, entropy_oracle


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def vec(tag: int) -> KpiVector:
    return KpiVector(Decimal(tag), *[Decimal(0)] * 4)


def entropy(vectors) -> float:
    """The normalized entropy of ``vectors``, each under its own model id."""
    combos = build_distribution((f"m{index}", vector) for index, vector in enumerate(vectors))
    return normalized_entropy([combo.count for combo in combos])


def test_criterion_1_entropy_arithmetic():
    with criterion(1, "entropy arithmetic"):
        started = time.perf_counter()
        skewed = [vec(0)] * 90 + [vec(1)] * 5 + [vec(2)] * 5
        h_skewed = entropy(skewed)
        uniform = ([vec(0)] + [vec(1)] + [vec(2)] + [vec(3)]) * 25
        h_uniform = entropy(uniform)
        h_single = entropy([vec(0)] * 100)
        elapsed = time.perf_counter() - started
        assert abs(h_skewed - entropy_oracle([90, 5, 5])) <= 1e-12
        assert h_uniform == 1.0
        assert h_single == 0.0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_category_boundaries():
    with criterion(2, "category boundaries"):
        epsilon = 1e-9
        assert consistency_category(0.30) is ConsistencyCategory.VERY_HIGH
        assert consistency_category(0.30 + epsilon) is ConsistencyCategory.HIGH
        assert consistency_category(0.50) is ConsistencyCategory.HIGH
        assert consistency_category(0.50 + epsilon) is ConsistencyCategory.MODERATE
        assert consistency_category(0.70) is ConsistencyCategory.MODERATE
        assert consistency_category(0.70 + epsilon) is ConsistencyCategory.LOW


def test_criterion_3_hitting_set_oracle_equivalence():
    with criterion(3, "hitting-set oracle equivalence"):
        rng = random.Random(3)
        started = time.perf_counter()
        for round_no in range(500):
            components = [f"gw{i}" for i in range(rng.randint(1, 10))]
            conflicts = tuple(
                ConflictSet(
                    tuple(rng.sample(components, rng.randint(1, min(4, len(components))))),
                    (f"case{i}",),
                )
                for i in range(rng.randint(1, 6))
            )
            problem = DiagnosisProblem(
                reference_model_id="ref",
                target_model_id="tgt",
                components=tuple(components),
                conflicts=conflicts,
                unattributable=(),
                failed_cases=(),
            )
            diagnoses, truncated = minimal_hitting_sets(problem)
            assert not truncated, round_no
            got = {frozenset(d) for d in diagnoses}
            families = [frozenset(c.gateways) for c in conflicts]
            universe = set().union(*families)
            assert got == brute_force_hitting_sets(families, universe), round_no
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def chain_model(model_id: str, thetas: list[int], ops: list[str]):
    """Gateways g1..gk in sequence; each routes its own variable through a
    'Step k yes' or 'Step k no' emitting task, both converging forward."""
    k = len(thetas)
    nodes = [mk.start("s")]
    flows = [mk.flow("f0", "s", "g1")]
    for i in range(1, k + 1):
        nodes += [
            mk.gateway(f"g{i}", f"Checkpoint {i}"),
            mk.task(f"ty{i}", f"Step {i} yes", ("NC",)),
            mk.task(f"tn{i}", f"Step {i} no", ("NC",)),
        ]
        following = f"g{i + 1}" if i < k else "e"
        flows += [
            mk.flow(f"fy{i}", f"g{i}", f"ty{i}", f"v{i} {ops[i - 1]} {thetas[i - 1]}"),
            mk.flow(f"fn{i}", f"g{i}", f"tn{i}", default=True),
            mk.flow(f"fy{i}x", f"ty{i}", following),
            mk.flow(f"fn{i}x", f"tn{i}", following),
        ]
    nodes.append(mk.end("e"))
    return mk.model(model_id, nodes, flows)


def test_criterion_4_single_fault_localization():
    with criterion(4, "single-fault localization"):
        rng = random.Random(4)
        started = time.perf_counter()
        divergent_pairs = 0
        for pair_no in range(50):
            k = rng.randint(2, 4)
            thetas = [rng.randint(2, 18) for _ in range(k)]
            ops = [rng.choice([">=", ">"]) for _ in range(k)]
            mutated_index = rng.randrange(k)
            mutated_thetas = list(thetas)
            mutated_ops = list(ops)
            if rng.random() < 0.5:
                mutated_ops[mutated_index] = ">" if ops[mutated_index] == ">=" else ">="
            else:
                mutated_thetas[mutated_index] += rng.choice([-1, 1])
            reference = chain_model("m_ref", thetas, ops)
            mutated = chain_model("m_tgt", mutated_thetas, mutated_ops)
            cases = [
                CaseRecord(
                    f"c{i:02d}",
                    {f"v{j}": Decimal(rng.randint(0, 20)) for j in range(1, k + 1)},
                )
                for i in range(50)
            ]
            try:
                result = choose_direction(reference, mutated, cases)
            except NoDivergenceError:
                continue  # no case sat on the mutated boundary
            divergent_pairs += 1
            assert (f"g{mutated_index + 1}",) in result.chosen.refined, pair_no
        elapsed = time.perf_counter() - started
        assert divergent_pairs > 0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def bystander_pair(rng: random.Random, perturb: bool):
    """Reference/variant pair where gp differs only cosmetically (operand
    order) or inertly (one operator perturbed) and gx carries a real change."""
    variables = ["w"] + rng.sample(["u", "z"], rng.randint(1, 2))
    ref_atoms = [f"{name} == 1" for name in variables]
    rng.shuffle(ref_atoms)
    tgt_atoms = list(ref_atoms)
    while len(tgt_atoms) > 1 and tgt_atoms == ref_atoms:
        rng.shuffle(tgt_atoms)
    if perturb:
        slot = rng.randrange(len(tgt_atoms))
        tgt_atoms[slot] = tgt_atoms[slot].replace("== 1", ">= 1")
    theta = rng.randint(2, 18)

    def build(model_id: str, gp_cond: str, gx_cond: str):
        return mk.model(
            model_id,
            [
                mk.start("s"),
                mk.gateway("gp", "Prepare route"),
                mk.task("r1", "Prepare fast"),
                mk.task("r2", "Prepare slow"),
                mk.gateway("gx", "Decide"),
                mk.task("ty", "Step yes", ("NC",)),
                mk.task("tn", "Step no", ("NC",)),
                mk.end("e"),
            ],
            [
                mk.flow("f1", "s", "gp"),
                mk.flow("f2", "gp", "r1", gp_cond),
                mk.flow("f3", "gp", "r2", default=True),
                mk.flow("f4", "r1", "gx"),
                mk.flow("f5", "r2", "gx"),
                mk.flow("f6", "gx", "ty", gx_cond),
                mk.flow("f7", "gx", "tn", default=True),
                mk.flow("f8", "ty", "e"),
                mk.flow("f9", "tn", "e"),
            ],
        )

    reference = build("m_ref", " OR ".join(ref_atoms), f"v >= {theta}")
    variant = build("m_var", " OR ".join(tgt_atoms), f"v > {theta}")
    cases = []
    for i in range(30):
        attributes = {
            "v": Decimal(rng.randint(0, 20)),
            "w": Decimal(rng.randint(0, 1)),
            "u": Decimal(rng.randint(0, 1)),
            "z": Decimal(rng.randint(0, 1)),
        }
        if attributes["v"] == theta:
            attributes["w"] = Decimal(1)  # keep gp on its conditioned branch
        cases.append(CaseRecord(f"c{i:02d}", attributes))
    cases.append(
        CaseRecord(
            "c_edge",
            {"v": Decimal(theta), "w": Decimal(1), "u": Decimal(0), "z": Decimal(0)},
        )
    )
    return reference, variant, cases


def test_criterion_5_refinement_correctness():
    with criterion(5, "refinement correctness"):
        rng = random.Random(5)
        for trial in range(200):
            reference, variant, cases = bystander_pair(rng, perturb=False)
            result = choose_direction(reference, variant, cases)
            for run in (result.chosen, result.reverse):
                assert all("gp" not in d for d in run.refined), trial
            assert ("gx",) in result.chosen.refined, trial
        for trial in range(200):
            reference, variant, cases = bystander_pair(rng, perturb=True)
            result = choose_direction(reference, variant, cases)
            for run in (result.chosen, result.reverse):
                assert any("gp" in d for d in run.refined), trial


PIPELINE_ARTIFACTS = (
    "distribution.json",
    "histogram.csv",
    "diagnosis.json",
    "ambiguity_report.json",
    "repairs.json",
    "narrative_repaired.txt",
)


def run_city1_pipeline(repo_root: Path, out_dir: Path) -> None:
    base = ["--config", "fixtures/city1/config.cfg", "--out", str(out_dir)]
    for command in (["simulate"], ["entropy"], ["diagnose"], ["report"], ["repair"]):
        assert cli.main(base + command) == 0, command


def test_criterion_6_pipeline_determinism(repo_root, tmp_path, monkeypatch):
    with criterion(6, "pipeline determinism"):
        monkeypatch.chdir(repo_root)
        first, second = tmp_path / "run1", tmp_path / "run2"
        run_city1_pipeline(repo_root, first)
        run_city1_pipeline(repo_root, second)
        kpi_names = sorted(p.name for p in (first / "kpis").glob("*.json"))
        assert kpi_names == sorted(p.name for p in (second / "kpis").glob("*.json"))
        for name in kpi_names:
            assert (first / "kpis" / name).read_bytes() == (second / "kpis" / name).read_bytes()
        for name in PIPELINE_ARTIFACTS:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


def family_entropy(repo_root: Path, family: str, population) -> tuple[float, int]:
    files = sorted((repo_root / "fixtures" / family).glob("*.bpmn"))
    vectors = []
    for path in files:
        model = parse_bpmn(path.read_text())
        kpis = simulate_population(model, population, KpiConfig()).kpis
        # Rounded as entropy rounds a KPI file when it reads it.
        vectors.append(cli._parse_kpis(kpis._asdict(), path.name, 6))
    return entropy(vectors), len(files)


def test_criterion_7_family_consistency_shift(repo_root, population, tmp_path):
    with criterion(7, "family consistency shift"):
        h_original, n_original = family_entropy(repo_root, "family_original", population)
        h_repaired, n_repaired = family_entropy(repo_root, "family_repaired", population)
        assert n_original == 100 and n_repaired == 100
        assert h_original > 0.70
        assert consistency_category(h_original) is ConsistencyCategory.LOW
        assert h_repaired <= 0.30
        assert consistency_category(h_repaired) is ConsistencyCategory.VERY_HIGH
        # Frozen values for the checked-in families.
        assert h_original == 1.0
        assert abs(h_repaired - 0.24229218908241482) <= 1e-12
        # The committed families are what the generator writes at seed 7.
        generate_families.generate(tmp_path, 7, 100)
        for family in ("family_original", "family_repaired"):
            checked_in = sorted((repo_root / "fixtures" / family).iterdir())
            assert sorted(p.name for p in (tmp_path / family).iterdir()) == [
                p.name for p in checked_in
            ]
            for path in checked_in:
                regenerated = (tmp_path / family / path.name).read_bytes()
                assert regenerated == path.read_bytes(), f"{family}/{path.name}"


def test_criterion_8_simulation_oracle(repo_root, tmp_path, monkeypatch):
    with criterion(8, "simulation oracle"):
        monkeypatch.chdir(repo_root)
        out_dir = tmp_path / "out"
        assert (
            cli.main(
                [
                    "--config",
                    "fixtures/city1/config.cfg",
                    "--out",
                    str(out_dir),
                    "simulate",
                    "--traces",
                ]
            )
            == 0
        )
        kpi_files = sorted((out_dir / "kpis").glob("*.json"))
        assert len(kpi_files) == 2
        for path in kpi_files:
            recounted = subprocess.run(
                [sys.executable, "scripts/recount_kpis.py", str(path)],
                check=True,
                cwd=repo_root,
                capture_output=True,
                text=True,
            )
            oracle = json.loads(recounted.stdout)
            reported = json.loads(path.read_text())["kpis"]
            for name in ("NC", "HC", "RU", "HI", "CS"):
                assert Fraction(Decimal(reported[name])) == Fraction(oracle[name]), (
                    path.name,
                    name,
                )


def test_the_recount_fails_on_a_kpi_that_its_traces_do_not_give(repo_root, tmp_path):
    config = str(repo_root / "fixtures" / "city1" / "config.cfg")
    assert cli.main(["--config", config, "--out", str(tmp_path), "simulate", "--traces"]) == 0
    path = tmp_path / "kpis" / "city1_or_broad.json"
    recount = [sys.executable, str(repo_root / "scripts" / "recount_kpis.py"), str(path)]
    agreed = subprocess.run(recount, capture_output=True, text=True)
    assert (agreed.returncode, agreed.stderr) == (0, "")
    data = json.loads(path.read_text())
    data["kpis"]["HI"] = str(Decimal(data["kpis"]["HI"]) + Decimal("0.001"))
    path.write_text(json.dumps(data))
    differs = subprocess.run(recount, capture_output=True, text=True)
    assert (differs.returncode, differs.stdout) == (1, agreed.stdout)
    assert differs.stderr.splitlines() == [
        f"{path}: HI is {data['kpis']['HI']} but recounts to {json.loads(agreed.stdout)['HI']}"
    ]


def test_criterion_9_model_round_trip(repo_root):
    with criterion(9, "model round-trip"):
        paths = sorted((repo_root / "fixtures" / "city1" / "models").glob("*.bpmn"))
        paths += sorted((repo_root / "fixtures" / "family_original").glob("*.bpmn"))[:9]
        paths += sorted((repo_root / "fixtures" / "family_repaired").glob("*.bpmn"))[:9]
        assert len(paths) == 20
        for path in paths:
            model = parse_bpmn(path.read_text())
            serialized = serialize_bpmn(model)
            reparsed = parse_bpmn(serialized)
            assert reparsed == model, path.name
            assert serialize_bpmn(reparsed) == serialized, path.name
