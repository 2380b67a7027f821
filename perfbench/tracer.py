"""In-memory span tracer wrapped around the public functions of each layer.

Every wrapper is installed at the attribute its caller looks up, so a
function that another module imported by name (``simulation.evaluate``,
``diagnosis.execute_case``) is wrapped in that module.  Ordinary calls
become spans: name, start, end, parent and self time.  The hot calls
(``execute_case``, ``evaluate``, ``normalize``) are folded into a count,
total time and self time per parent span instead of one span each.  Hooks
add work counters from a wrapped call's arguments and result.
"""

from __future__ import annotations

import os
import pathlib
from time import perf_counter


class Tracer:
    def __init__(self, stage_run: str):
        self.stage_run = stage_run
        self.spans: list[list] = []  # [id, parent id, name, start, end, self_s]
        self.folded: dict[tuple[int, str], list] = {}  # (span id, name) -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        # Open frames: [time covered by children, id of the innermost span].
        self._stack: list[list] = [[0.0, -1]]

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name, fn, hook=None):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            record = [len(spans), parent[1], name, 0.0, 0.0, 0.0]
            spans.append(record)
            frame = [0.0, record[0]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent[0] += end - start
                record[3], record[4], record[5] = start, end, end - start - frame[0]
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def fold(self, name, fn, hook=None):
        stack, folded = self._stack, self.folded

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[0] += elapsed
                entry = folded.get((frame[1], name))
                if entry is None:
                    entry = folded[(frame[1], name)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def export(self) -> dict:
        return {
            "stage_run": self.stage_run,
            "spans": self.spans,
            "folded": [[span, name, *entry] for (span, name), entry in self.folded.items()],
            "counters": self.counters,
        }


# --- counters taken from arguments and results --------------------------------


def _steps(tracer, args, trace):
    tracer.count("simulation.steps", len(trace.steps))


def _case_errors(tracer, args, result):
    tracer.count("simulation.case_errors", len(result.errors))


def _observations(tracer, args, observations):
    tracer.count("diagnosis.observations", len(observations))
    tracer.count("diagnosis.compared_cases", len(args[0]))
    tracer.count("diagnosis.discrepant_cases", len({o.case_id for o in observations if o.discrepant}))


def _conflicts(tracer, args, result):
    tracer.count("diagnosis.conflicts", len(args[0].conflicts))


def _diagnosed_cases(tracer, args, result):
    tracer.count("diagnosis.cases", len(args[2]))


def _rejected(tracer, args, outcome):
    tracer.count("repair.rejected", len(outcome.rejected))


def _bytes_written(tracer, args, result):
    tracer.count("io.bytes_written", os.path.getsize(args[0]))


def install(tracer: Tracer) -> None:
    """Wrap every layer function the CLI reaches; call before ``cli.main``."""
    from bpmndiverge import bpmn, cli, diagnosis, distribution, repair, simulation

    spans = [
        (cli, "load_config", "config.load_config", None),
        (cli, "build_run_config", "config.build_run_config", None),
        (bpmn, "parse_bpmn", "bpmn.parse_bpmn", None),
        (simulation, "load_cases_csv", "simulation.load_cases_csv", None),
        (simulation, "simulate_population", "simulation.simulate_population", _case_errors),
        (simulation, "aggregate_kpis", "simulation.aggregate_kpis", None),
        (distribution, "build_distribution", "distribution.build_distribution", None),
        (distribution, "select_representatives", "distribution.select_representatives", None),
        (diagnosis, "choose_direction", "diagnosis.choose_direction", _diagnosed_cases),
        (diagnosis, "compare_observations", "diagnosis.compare_observations", _observations),
        (diagnosis, "minimal_hitting_sets", "diagnosis.minimal_hitting_sets", _conflicts),
        (diagnosis, "refine_diagnoses", "diagnosis.refine_diagnoses", None),
        (repair, "localize_ambiguity", "repair.localize_ambiguity", None),
        (repair, "propose_repairs", "repair.propose_repairs", _rejected),
        (repair, "reconstruct_narrative", "repair.reconstruct_narrative", None),
        (repair.CannedRewriteProvider, "rewrite", "repair.provider_rewrite", None),
        (cli, "_load_models", "cli.load_models", None),
        (cli, "_read_kpi_dir", "cli.read_kpis", None),
        (cli, "dump_json", "cli.dump_json", None),
        (cli, "atomic_write", "cli.atomic_write", _bytes_written),
    ]
    folds = [
        (simulation, "execute_case", "simulation.execute_case", _steps),
        (diagnosis, "execute_case", "simulation.execute_case", _steps),
        (simulation, "evaluate", "conditions.evaluate", None),
        (diagnosis, "normalize", "conditions.normalize", None),
        (repair, "normalize", "conditions.normalize", None),
    ]
    for owner, attr, name, hook in spans:
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), hook))
    for owner, attr, name, hook in folds:
        setattr(owner, attr, tracer.fold(name, getattr(owner, attr), hook))
    read_text = pathlib.Path.read_text

    def counted_read_text(path, *args, **kwargs):
        text = read_text(path, *args, **kwargs)
        tracer.count("io.bytes_read", os.path.getsize(path))
        return text

    pathlib.Path.read_text = counted_read_text


def self_times(traces: list[dict]) -> dict[str, list[float]]:
    """name -> [calls, self seconds], summed over the given stage traces."""
    totals: dict[str, list[float]] = {}
    for trace in traces:
        for _id, _parent, name, _start, _end, self_s in trace["spans"]:
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        for _span, name, calls, _total, self_s in trace["folded"]:
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
    return totals


def calls_under(traces: list[dict], ancestor: str, name: str) -> int:
    """Folded ``name`` calls whose span chain passes through ``ancestor``."""
    total = 0
    for trace in traces:
        spans = trace["spans"]

        def inside(span_id: int) -> bool:
            while span_id >= 0:
                if spans[span_id][2] == ancestor:
                    return True
                span_id = spans[span_id][1]
            return False

        total += sum(
            calls for span, folded_name, calls, _total, _self in trace["folded"]
            if folded_name == name and inside(span)
        )
    return total
