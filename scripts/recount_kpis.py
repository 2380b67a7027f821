#!/usr/bin/env python3
"""Recount population KPIs from the traces in a ``simulate --traces`` JSON.

Independent cross-check for the aggregation pipeline: each trace entry is one
distinct path with the ``case_ids`` of the cases that took it, and the
emissions of the path are counted once for each of those cases.  An entry
may instead name a single ``case_id``.  The KPI arithmetic is redone in
exact rational numbers, and each KPI is printed as a fraction string.
The exit status is 1, with each KPI whose recount differs from the file's
own ``kpis`` named on stderr, unless every KPI agrees exactly.
Deliberately does not import the package's aggregation code.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction


def recount(data: dict, capacity: int, alpha: Fraction, response_rate: Fraction,
            cost_saving: Fraction) -> dict[str, str]:
    nc = 0
    hc_cases: set[str] = set()
    for trace in data["traces"]:
        case_ids = trace["case_ids"] if "case_ids" in trace else [trace["case_id"]]
        for case_id in case_ids:
            for _task, kpi in trace["emissions"]:
                if kpi == "NC":
                    nc += 1
                elif kpi == "HC":
                    hc_cases.add(case_id)
    hc = len(hc_cases)
    cases_total = int(data["cases_total"])
    load = Fraction(hc, capacity)
    if load <= 1:
        ru = load
    else:
        ru = max(Fraction(0), 1 - alpha * (load - 1))
    hi = Fraction(hc) * response_rate / cases_total
    cs = Fraction(hc) * response_rate * cost_saving
    return {
        "NC": str(Fraction(nc)),
        "HC": str(Fraction(hc)),
        "RU": str(ru),
        "HI": str(hi),
        "CS": str(cs),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kpi_json", help="output of simulate --traces for one model")
    parser.add_argument("--capacity", type=int, default=50)
    parser.add_argument("--alpha", default="0.5")
    parser.add_argument("--response-rate", default="0.30")
    parser.add_argument("--cost-saving", default="1000")
    args = parser.parse_args()
    with open(args.kpi_json, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if "traces" not in data:
        parser.error("file has no traces; rerun simulate with --traces")
    result = recount(
        data,
        args.capacity,
        Fraction(args.alpha),
        Fraction(args.response_rate),
        Fraction(args.cost_saving),
    )
    print(json.dumps(result, indent=2))
    wrong = [name for name, value in result.items() if Fraction(data["kpis"][name]) != Fraction(value)]
    for name in wrong:
        print(f"{args.kpi_json}: {name} is {data['kpis'][name]} but recounts to {result[name]}",
              file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
