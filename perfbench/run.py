#!/usr/bin/env python3
"""Benchmark of the bpmndiverge CLI pipeline, stage by stage.

Usage (from the repository root):

    python3 perfbench/run.py --workload family --seed 1 --seconds 60 --trace 0

Each pass starts a fresh interpreter that imports the package under
``src/`` (its start is a ``setup_s`` sample) and runs every stage of the
workload in a child forked from it, in order (``stage.py``).  Untraced
passes run every stage but ``simulate`` ``REPEATS`` times, so the short
stages get as many samples as the long one.  A run repeats passes until
``--seconds`` have elapsed, with at least two, so every stage is rerun.
Every rerun's artifacts must be byte-identical to its step's first run, and
the first pass's artifacts are checked against the repo's oracles.  With
``--trace 1`` the passes alternate between untraced and traced (traced
passes run each step once), and the run reports per-layer metrics and the
tracing overhead instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in turn and names its metrics ``workload:metric``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("src/bpmndiverge/cli.py", "scripts/recount_kpis.py", "fixtures/city1/config.cfg")

FAMILY_CASES = 1000
FAMILY_TRACES_CASES = 125
# No pass starts when it would likely end after this many seconds of the run.
RUN_CAP_S = 140
IMPORT_PROBES = 3
# Untraced runs of each step per pass, for every stage but simulate.
REPEATS = 3
# Share of samples dropped at each end before a timing is averaged.
TRIM = 0.1

STAGES = ("simulate", "entropy", "diagnose", "report", "repair", "verify")


@dataclass
class Step:
    stage: str
    argv: list[str]


@dataclass
class Plan:
    """What one pass runs, and where the checks find its artifacts."""

    cases_csv: Path
    cases: int
    out: Path  # removed before each pass
    simulated: list[tuple[Path, Path]]  # (models dir, KPI dir) per simulate step
    analysed: tuple[Path, Path]  # (models dir, out dir of entropy/diagnose/report/repair)
    verified: tuple[Path, Path, Path]  # (before KPI dir, after KPI dir, out dir of verify)
    steps: list[Step]


@dataclass
class StageRun:
    stage: str
    step: int  # index into Plan.steps
    code: int
    main_s: float | None = None
    rss_mib: float | None = None
    trace: dict | None = None
    artifacts: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


@dataclass
class Pass:
    setup_s: float  # the worker's start, until bpmndiverge.cli is imported
    runs: list[StageRun]


def _city1_plan(work: Path, seed: int) -> Plan:
    out = work / "out"
    base = ["--config", "fixtures/city1/config.cfg", "--out", str(out)]
    models = Path("fixtures/city1/models")
    return Plan(
        cases_csv=Path("fixtures/city1/population.csv"),
        cases=20,
        out=out,
        simulated=[(models, out / "kpis")],
        analysed=(models, out),
        verified=(out / "kpis", out / "kpis", out),
        steps=[Step(stage, base + [stage]) for stage in STAGES[:-1]]
        + [Step("verify", base + ["verify", "--before", str(out / "kpis"), "--after", str(out / "kpis")])],
    )


def _generated_cases(work: Path, seed: int, cases: int) -> Path:
    from population import population_csv

    path = work / "cases.csv"
    path.write_text(population_csv(seed, cases), encoding="utf-8")
    return path


def _family_plan(work: Path, seed: int) -> Plan:
    cases_csv = _generated_cases(work, seed, FAMILY_CASES)
    out = work / "out"
    models = Path("fixtures/family_original")
    base = ["--config", "fixtures/city1/config.cfg", "--models", str(models), "--cases", str(cases_csv), "--out", str(out)]
    return Plan(
        cases_csv=cases_csv,
        cases=FAMILY_CASES,
        out=out,
        simulated=[(models, out / "kpis")],
        analysed=(models, out),
        verified=(out / "kpis", out / "kpis", out),
        steps=[Step(stage, base + [stage]) for stage in STAGES[:-1]]
        + [Step("verify", base + ["verify", "--before", str(out / "kpis"), "--after", str(out / "kpis")])],
    )


def _family_traces_plan(work: Path, seed: int) -> Plan:
    cases_csv = _generated_cases(work, seed, FAMILY_TRACES_CASES)
    out = work / "out"
    families = {name: (Path(f"fixtures/family_{name}"), out / name) for name in ("original", "repaired")}

    def base(name: str) -> list[str]:
        models, family_out = families[name]
        return ["--config", "fixtures/city1/config.cfg", "--models", str(models), "--cases", str(cases_csv), "--out", str(family_out)]

    before, after = families["original"][1] / "kpis", families["repaired"][1] / "kpis"
    return Plan(
        cases_csv=cases_csv,
        cases=FAMILY_TRACES_CASES,
        out=out,
        simulated=[(models, family_out / "kpis") for models, family_out in families.values()],
        analysed=families["repaired"],
        verified=(before, after, out),
        steps=[Step("simulate", base(name) + ["simulate", "--traces"]) for name in families]
        + [Step(stage, base("repaired") + [stage]) for stage in ("entropy", "diagnose", "report", "repair")]
        + [
            Step(
                "verify",
                ["--config", "fixtures/city1/config.cfg", "--out", str(out), "verify", "--before", str(before), "--after", str(after)],
            )
        ],
    )


WORKLOADS = {"city1": _city1_plan, "family": _family_plan, "family-traces": _family_traces_plan}


# --- running stages -----------------------------------------------------------


def _env() -> dict[str, str]:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


class Worker:
    """A ``stage.py`` worker: one fresh interpreter per pass."""

    def __init__(self, work: Path):
        self.log = work / "stage.log"
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stage.py")], env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("the stage worker could not import bpmndiverge.cli")
        self.setup_s = json.loads(line)["ready"] - start

    def run(self, plan: Plan, index: int, trace_id: str | None) -> StageRun:
        step = plan.steps[index]
        try:
            self.proc.stdin.write(json.dumps({"argv": step.argv, "log": str(self.log), "trace": trace_id}) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:  # the worker has died
            line = ""
        else:
            line = self.proc.stdout.readline()
        if not line:
            return StageRun(step.stage, index, 1, problems=["stage worker failed"])
        result = json.loads(line)
        if result["code"] != 0:
            sys.stderr.write(self.log.read_text(encoding="utf-8", errors="replace")[-2000:])
        return StageRun(
            step.stage,
            index,
            result["code"],
            main_s=result["main_s"],
            rss_mib=result["maxrss_kib"] / 1024,
            trace=result["trace"],
        )

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _snapshot(out: Path) -> dict[str, tuple[int, int]]:
    if not out.is_dir():
        return {}
    return {str(p): (p.stat().st_size, p.stat().st_mtime_ns) for p in out.rglob("*") if p.is_file()}


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_pass(plan: Plan, work: Path, pass_no: int, traced: bool = False) -> Pass:
    shutil.rmtree(plan.out, ignore_errors=True)
    worker = Worker(work)
    runs = []
    try:
        for index, step in enumerate(plan.steps):
            repeats = 1 if traced or step.stage == "simulate" else REPEATS
            for _ in range(repeats):
                before = _snapshot(plan.out)
                run = worker.run(plan, index, f"{pass_no}.{index}.{step.stage}" if traced else None)
                after = _snapshot(plan.out)
                run.artifacts = {path: _digest(path) for path, stat in after.items() if before.get(path) != stat}
                runs.append(run)
    finally:
        worker.close()
    return Pass(worker.setup_s, runs)


# --- checks and workload properties ---------------------------------------------


def check_pass(plan: Plan, runs: list[StageRun]) -> dict[str, object]:
    """Check the first pass's artifacts against the oracles; problems are
    attached to the stage run they indict.  Returns the workload properties."""
    import checks

    recount = checks.load_recount(ROOT)
    first = {stage: next(r for r in runs if r.stage == stage) for stage in STAGES}
    kpis: dict[Path, list[dict]] = {}
    for (models_dir, kpi_dir), run in zip(plan.simulated, [r for r in runs if r.stage == "simulate"]):
        traced = "--traces" in plan.steps[run.step].argv
        summaries, problems = checks.scan_kpis(kpi_dir, recount if traced else None)
        if not traced:
            problems += checks.check_walks(recount, summaries, models_dir, plan.cases_csv)
        kpis[kpi_dir] = summaries
        run.problems += problems
    models_dir, out = plan.analysed
    analysed = kpis[out / "kpis"]
    first["entropy"].problems += checks.check_entropy(analysed, out / "distribution.json")
    first["diagnose"].problems += checks.check_diagnosis(out / "diagnosis.json", models_dir)
    before, after, verify_out = plan.verified
    round_decimals = json.loads((out / "distribution.json").read_text(encoding="utf-8"))["round_decimals"]
    first["verify"].problems += checks.check_verify(kpis[before], kpis[after], verify_out / "verify.json", round_decimals)

    diagnosis = json.loads((out / "diagnosis.json").read_text(encoding="utf-8"))
    compared = plan.cases - len(diagnosis["failed_cases"])
    discrepant = {o["case_id"] for o in diagnosis["observations"]["discrepant"]}
    summaries = [s for family in kpis.values() for s in family]
    return {
        "models": len(summaries),
        "cases": plan.cases,
        "distinct_conditions (branch, sub)": {str(m): checks.distinct_conditions(m) for m, _k in plan.simulated},
        "case_error_share": sum(len(s["error_ids"]) for s in summaries) / (len(summaries) * plan.cases),
        "pair": [diagnosis["reference_model"], diagnosis["target_model"]],
        "discrepant_share": len(discrepant) / compared,
        "kpi_bytes": sum(s["bytes"] for s in summaries),
    }


def check_rerun(first_pass: Pass, pass_: Pass) -> None:
    """Every rerun of a step must write the artifacts of its first run."""
    first: dict[int, StageRun] = {}
    for run in first_pass.runs:
        first.setdefault(run.step, run)
    for run in pass_.runs:
        if run.artifacts != first[run.step].artifacts:
            run.problems.append("artifacts differ from the step's first run")


def _safe_check_pass(plan: Plan, runs: list[StageRun]) -> dict[str, object]:
    try:
        return check_pass(plan, runs)
    except (OSError, KeyError, ValueError, StopIteration) as exc:  # a missing or malformed artifact
        runs[-1].problems.append(f"check could not run: {exc!r}")
        return {}


# --- metrics --------------------------------------------------------------------


def _stage_samples(passes: list[Pass]) -> dict[str, list[float]]:
    """Per stage, one sample per repeat in each pass: the summed main time
    of the stage's steps (both families' ``simulate`` on family-traces)."""
    samples: dict[str, list[float]] = {}
    for pass_ in passes:
        by_step: dict[int, list[StageRun]] = {}
        for run in pass_.runs:
            by_step.setdefault(run.step, []).append(run)
        for stage in STAGES:
            steps = [runs for runs in by_step.values() if runs[0].stage == stage]
            for repeat in zip(*steps):
                times = [r.main_s for r in repeat]
                if None not in times:
                    samples.setdefault(stage, []).append(sum(times))
    return samples


def _trimmed_mean(values: list[float]) -> float:
    """Mean of the samples left after dropping ``TRIM`` of them at each end.

    The shared host switches between a fast and a slow speed (about 1.5x
    apart) every few seconds.  A run's median lands on one speed or the
    other as their mix shifts by a few samples; a trimmed mean moves only
    as much as the mix does, and still ignores rare stalls."""
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut : len(values) - cut])


def _tail(values: list[float]) -> str:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for share in (0.999, 0.99, 0.9):
        if len(values) * (1 - share) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(share * 1000) - 1]
            return f", p{share * 100:g} {cut:.6f}"
    return ""


def _describe(name: str, values: list[float], what: str) -> str:
    return f"{name}: trimmed mean of {len(values)} {what}, median {statistics.median(values):.6f}{_tail(values)}"


def end_to_end(plan: Plan, passes: list[Pass], lines: list[str]) -> dict[str, tuple[float, str]]:
    """Timings leave out the first pass, which warms the file cache and
    whose artifacts are checked; peak RSS counts every pass."""
    metrics: dict[str, tuple[float, str]] = {}
    timed = passes[1:]
    setups = [p.setup_s for p in timed]
    metrics["setup_s"] = (_trimmed_mean(setups), "s")
    lines.append(_describe("setup_s", setups, "interpreter starts"))
    samples = _stage_samples(timed)
    for stage, values in samples.items():
        metrics[f"{stage}_s"] = (_trimmed_mean(values), "s")
        lines.append(_describe(f"{stage}_s", values, "samples"))
    metrics["pipeline_s"] = (sum(metrics[f"{stage}_s"][0] for stage in samples), "s")
    walks = sum(len(list(models.glob("*.bpmn"))) for models, _k in plan.simulated) * plan.cases
    metrics["case_walks_per_s"] = (walks / metrics["simulate_s"][0], "1/s")
    metrics["peak_rss_mb"] = (max(r.rss_mib for p in passes for r in p.runs if r.rss_mib is not None), "MiB")
    return metrics


def _pass_seconds(pass_: Pass) -> float:
    """One pass's pipeline time: the sum of its mean stage samples."""
    return sum(statistics.fmean(values) for values in _stage_samples([pass_]).values())


def per_layer(
    untraced: list[Pass], traced: list[Pass], probes: list[dict[str, float]]
) -> dict[str, tuple[float, str]]:
    """Layer metrics from the first traced pass; the tracing overhead is the
    median traced pass minus the median untraced pass."""
    from tracer import calls_under, self_times

    traces = [r.trace for r in traced[0].runs if r.trace is not None]
    totals = self_times(traces)
    counters: dict[str, float] = {}
    for trace in traces:
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def calls(name: str) -> tuple[float, str]:
        return (totals.get(name, [0, 0.0])[0], "count")

    def self_s(name: str) -> tuple[float, str]:
        return (totals.get(name, [0, 0.0])[1], "s")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    untraced_s = statistics.median(_pass_seconds(p) for p in untraced)
    traced_s = statistics.median(_pass_seconds(p) for p in traced)
    metrics = {
        "import.requests_s": (statistics.median(p["requests"] for p in probes), "s"),
        "import.bpmndiverge_s": (statistics.median(p["bpmndiverge"] for p in probes), "s"),
        "config.load_config.self_s": self_s("config.load_config"),
        "config.build_run_config.self_s": self_s("config.build_run_config"),
        "bpmn.parse_bpmn.calls": calls("bpmn.parse_bpmn"),
        "bpmn.parse_bpmn.self_s": self_s("bpmn.parse_bpmn"),
        "conditions.evaluate.calls": calls("conditions.evaluate"),
        "conditions.evaluate.self_s": self_s("conditions.evaluate"),
        "conditions.normalize.calls": calls("conditions.normalize"),
        "simulation.load_cases_csv.calls": calls("simulation.load_cases_csv"),
        "simulation.load_cases_csv.self_s": self_s("simulation.load_cases_csv"),
        "simulation.execute_case.calls": calls("simulation.execute_case"),
        "simulation.execute_case.self_s": self_s("simulation.execute_case"),
        "simulation.steps": (counters.get("simulation.steps", 0), "count"),
        "simulation.case_errors": (counters.get("simulation.case_errors", 0), "count"),
        "simulation.aggregate_kpis.self_s": self_s("simulation.aggregate_kpis"),
        "simulation.simulate_population.self_s": self_s("simulation.simulate_population"),
        "distribution.build_distribution.self_s": self_s("distribution.build_distribution"),
        "distribution.select_representatives.self_s": self_s("distribution.select_representatives"),
        "diagnosis.choose_direction.self_s": self_s("diagnosis.choose_direction"),
        "diagnosis.walks_per_case": (
            ratio(calls_under(traces, "diagnosis.choose_direction", "simulation.execute_case"), counters.get("diagnosis.cases", 0)),
            "walks/case",
        ),
        "diagnosis.compare_observations.self_s": self_s("diagnosis.compare_observations"),
        "diagnosis.observations": (counters.get("diagnosis.observations", 0), "count"),
        "diagnosis.discrepant_share": (
            ratio(counters.get("diagnosis.discrepant_cases", 0), counters.get("diagnosis.compared_cases", 0)),
            "ratio",
        ),
        "diagnosis.conflicts": (counters.get("diagnosis.conflicts", 0), "count"),
        "diagnosis.minimal_hitting_sets.self_s": self_s("diagnosis.minimal_hitting_sets"),
        "diagnosis.refine_diagnoses.self_s": self_s("diagnosis.refine_diagnoses"),
        "repair.localize_ambiguity.self_s": self_s("repair.localize_ambiguity"),
        "repair.propose_repairs.self_s": self_s("repair.propose_repairs"),
        "repair.provider_calls": calls("repair.provider_rewrite"),
        "repair.rejected": (counters.get("repair.rejected", 0), "count"),
        "repair.reconstruct_narrative.self_s": self_s("repair.reconstruct_narrative"),
        "cli.load_models.calls": calls("cli.load_models"),
        "cli.dump_json.self_s": self_s("cli.dump_json"),
        "cli.atomic_write.self_s": self_s("cli.atomic_write"),
        "cli.read_kpis.self_s": self_s("cli.read_kpis"),
        "io.bytes_written": (counters.get("io.bytes_written", 0), "B"),
        "io.bytes_read": (counters.get("io.bytes_read", 0), "B"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": (ratio(traced_s - untraced_s, untraced_s), "ratio"),
    }
    return metrics


def import_probe() -> dict[str, float]:
    """Cumulative import seconds of ``requests`` and of the whole package,
    from ``-X importtime`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import bpmndiverge.cli"],
        env=_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    found = {"requests": 0.0, "bpmndiverge": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name, cumulative_s = parts[2].strip(), int(parts[1]) / 1e6
        if name == "requests":
            found["requests"] = cumulative_s
        elif name.split(".")[0] == "bpmndiverge":
            found["bpmndiverge"] = max(found["bpmndiverge"], cumulative_s)
    return found


# --- the run --------------------------------------------------------------------


def _artifact_mib(out: Path) -> float:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) / 2**20


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    """Run one workload, print its properties and metrics, and return the
    result object."""
    started = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir="."))
    try:
        plan = WORKLOADS[workload](work, seed)
        pass_started = time.perf_counter()
        passes = [run_pass(plan, work, 0)]
        durations = [time.perf_counter() - pass_started]
        artifact_mib = _artifact_mib(plan.out)
        properties = _safe_check_pass(plan, passes[0].runs)
        check_rerun(passes[0], passes[0])
        # A traced run alternates untraced and traced passes.
        deadline = started + min(seconds, RUN_CAP_S)
        while len(passes) < 2 or time.perf_counter() + max(durations[-2:]) <= deadline:
            pass_started = time.perf_counter()
            passes.append(run_pass(plan, work, len(passes), traced and len(passes) % 2 == 1))
            durations.append(time.perf_counter() - pass_started)
            check_rerun(passes[0], passes[-1])
        lines: list[str] = []
        if traced:
            probes = [import_probe() for _ in range(IMPORT_PROBES)]
            metrics = per_layer(passes[2::2] or passes[:1], passes[1::2], probes)
            spans = {"workload": workload, "seed": seed, "stage_runs": [r.trace for r in passes[1].runs]}
            Path(f".perfbench-trace-{workload}.json").write_text(json.dumps(spans), encoding="utf-8")
        else:
            metrics = end_to_end(plan, passes, lines)
            metrics["artifact_mb"] = (artifact_mib, "MiB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runs = [r for p in passes for r in p.runs]
    failed = sum(r.failed for r in runs)
    print(f"workload {workload}, seed {seed}, {len(passes)} passes, {'traced' if traced else 'untraced'}")
    for key, value in properties.items():
        print(f"property {key}: {value}")
    for run_ in runs:
        for problem in run_.problems:
            print(f"FAILED {run_.stage}: {problem}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_share = {failed}/{len(runs)} = {failed / len(runs):g} ratio")
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"error: not a bpmndiverge checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload != "all":
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        # One object over every workload, with metrics named workload:metric.
        results = {name: run(name, args.seed, args.seconds, bool(args.trace)) for name in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
