"""Seeded case-population generator for the benchmark workloads.

The columns are the ones the City 1 models and both generated families
read.  Each case belongs to a category: treated or not, each lab value
below, exactly on or above its threshold (fasting glucose 126, HbA1c 6.5),
consent and guidance request given or not, and at most one blank cell.  A
case's path through every model depends only on its category, so the
multiset of categories is fixed for a given population size, drawn once
from ``LAYOUT_SEED``.  The benchmark seed shuffles the cases and draws the
concrete lab values inside each category.  Different seeds therefore give
different inputs with the same KPIs, case-error counts and artifact sizes,
and runs on different seeds measure the same amount of work.

Values exactly on a threshold make the repaired family's leftover slip
(HbA1c > 6.5 instead of >= 6.5) decide some cases.  A blank cell parses as
an empty string, so a gateway that compares it with a number raises the
per-case ``TypeMismatchError`` that the simulation reports as a case error.
"""

from __future__ import annotations

import random

COLUMNS = (
    "case_id",
    "Diabetes_Under_Treatment",
    "Fasting_Blood_Glucose",
    "HbA1c",
    "Consent_Submitted",
    "Health_Guidance",
)

LAYOUT_SEED = 20260
# Share of cases with exactly one blank attribute cell.
BLANK_SHARE = 0.01
# Share of lab values exactly on their threshold; the rest split evenly
# between below and above.
ON_THRESHOLD_SHARE = 0.15

# (threshold, units below, units above, units per displayed unit)
GLUCOSE = (126, range(80, 126), range(127, 220), 1)
HBA1C = (65, range(45, 65), range(66, 120), 10)


def _side(rng: random.Random) -> int:
    draw = rng.random()
    if draw < ON_THRESHOLD_SHARE:
        return 0
    return -1 if draw < (1 + ON_THRESHOLD_SHARE) / 2 else 1


def _category(rng: random.Random) -> tuple:
    blank = rng.randrange(1, len(COLUMNS)) if rng.random() < BLANK_SHARE else None
    return (rng.random() < 0.6, _side(rng), _side(rng), rng.random() < 0.7, rng.random() < 0.6, blank)


def _lab(rng: random.Random, side: int, lab: tuple) -> str:
    threshold, below, above, scale = lab
    units = threshold if side == 0 else rng.choice(below if side < 0 else above)
    return str(units) if scale == 1 else f"{units / scale:.1f}"


def generate_rows(seed: int, cases: int) -> list[list[str]]:
    layout = random.Random(LAYOUT_SEED)
    categories = [_category(layout) for _ in range(cases)]
    rng = random.Random(seed)
    rng.shuffle(categories)
    rows = []
    for index, (treated, glucose, hba1c, consent, guidance, blank) in enumerate(categories):
        row = [
            f"c{index:06d}",
            "1" if treated else "0",
            _lab(rng, glucose, GLUCOSE),
            _lab(rng, hba1c, HBA1C),
            "1" if consent else "0",
            "1" if guidance else "0",
        ]
        if blank is not None:
            row[blank] = ""
        rows.append(row)
    return rows


def population_csv(seed: int, cases: int) -> str:
    lines = [",".join(COLUMNS)]
    lines.extend(",".join(row) for row in generate_rows(seed, cases))
    return "\n".join(lines) + "\n"
