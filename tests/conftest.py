"""Shared generators for the test suite; its fixtures live in ``_fixtures``.

The benchmark imports this module too, so it imports no ``pytest``: a
fresh interpreter that imports it loads only ``mtckit`` and the standard
library (``tests/test_conftest.py`` checks this).
"""

from __future__ import annotations

import random
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

from mtckit import Dug, adherence, grammar

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracles` and `_fixtures` importable

pytest_plugins = ["_fixtures"]


def make_dug(dug_id: str, text: str, labels: list[str], source: str = "fda") -> Dug:
    return Dug(dug_id, source, text, tuple(grammar.parse_mtc(label) for label in labels))


#: Small labeled pool covering all strata: every constraint type, an
#: empty-label guideline, multi-label guidelines, easy and hard cases.
def stratified_pool() -> list[Dug]:
    return [
        make_dug("p01", "Take your dose 30 minute before eating.", ["30 minute before eating"]),
        make_dug("p02", "Take this medication three times daily.", ["3 times day"], "medscape"),
        make_dug("p03", "Doses should be at least 6 hours apart.", ["6 hour apart"], "medscape"),
        make_dug("p04", "Do not take a dose before exercise.", ["not before exercise"]),
        make_dug("p05", "If one dose per day, take it before 9 AM.", ["before 9 am"]),
        make_dug("p06", "Use it at the same time each day.", ["at the same time each day"], "medscape"),
        make_dug("p07", "Take it in the morning with water.", ["in morning"]),
        make_dug("p08", "Store below 25 degrees away from light.", []),
        make_dug(
            "p09",
            "Take 2 hours before eating, 3 times daily, doses 4 hours apart.",
            ["2 hour before eating", "3 times day", "4 hour apart"],
            "medscape",
        ),
        make_dug("p10", "She was put on Effexor two tablets h.s.", ["before sleep"], "ehr"),
        make_dug("p11", "Currently on Plaquenil 200-mg b.i.d.", ["2 times day"], "ehr"),
        make_dug("p12", "Take 1 times day with breakfast.", ["1 times day"], "ehr"),
    ]


# ---------------------------------------------------------------- generators

CANONICAL_LABEL_POOL = (
    "1 times day",
    "2 times day",
    "3 times day",
    "6 hour apart",
    "before eating",
    "after eating",
    "before sleep",
    "in morning",
    "at the same time each day",
    "before 9 am",
)

NONVALID_CANDIDATES = (
    "2 times day OR 3 times day",
    "banana",
    "purple monkey dishwasher",
    "1-30 minute before eating",
    "times day",
)

VALID_OUT_OF_SPACE = (
    "9 times week",
    "11 hour apart",
    "not before sleep",
    "in evening",
)

_ACTIVITY_WORDS = (
    "eating", "sleep", "exercise", "breakfast", "dinner", "walking",
    "running", "swimming", "taking", "medication", "school", "work",
)


def random_activity(rng: random.Random) -> str:
    return " ".join(rng.sample(_ACTIVITY_WORDS, rng.randint(1, 3)))


def random_clock(rng: random.Random) -> grammar.ClockTime:
    return grammar.ClockTime(rng.randint(1, 12), rng.randint(0, 59), rng.choice(("am", "pm")))


def random_mtc(rng: random.Random) -> grammar.Mtc:
    variant = rng.randint(1, 7)
    n = rng.randint(1, 60)
    unit = rng.choice(list(grammar.TimeUnit))
    dp = rng.choice(list(grammar.DependencyPrep))
    p = rng.choice(list(grammar.OccurrencePrep))
    if variant == 1:
        mtc = grammar.DefinitiveDependency(n, unit, dp, random_activity(rng))
    elif variant == 2:
        mtc = grammar.Frequency(n, unit)
    elif variant == 3:
        mtc = grammar.Interval(n, unit, rng.choice(list(grammar.IntervalPrep)))
    elif variant == 4:
        mtc = grammar.ImpreciseDependency(dp, random_activity(rng))
    elif variant == 5:
        mtc = grammar.TimeDependency(dp, random_clock(rng))
    elif variant == 6:
        timestamp = grammar.SAME_TIME if rng.random() < 0.5 else random_clock(rng)
        mtc = grammar.Consistency(p, timestamp, unit)
    else:
        mtc = grammar.TimeOfDay(p, rng.choice(list(grammar.DayPart)))
    return grammar.with_negated(mtc, rng.random() < 0.3)


def random_eval_corpus(rng: random.Random, max_dugs: int = 20):
    """(gold dugs, prediction records) with a mix of hits, misses, junk."""
    n = rng.randint(1, max_dugs)
    gold: list[Dug] = []
    records: list[dict] = []
    candidate_pool = CANONICAL_LABEL_POOL + NONVALID_CANDIDATES + VALID_OUT_OF_SPACE
    for i in range(n):
        labels = rng.sample(CANONICAL_LABEL_POOL, rng.randint(0, 3))
        gold.append(make_dug(f"g{i:03d}", f"synthetic guideline {i}", labels))
        candidates = [rng.choice(candidate_pool) for _ in range(rng.randint(0, 4))]
        records.append({"dug_id": f"g{i:03d}", "candidates": candidates})
    return gold, records


def random_annotation_matrix(rng: random.Random):
    """Units x coders nominal grid with missing entries, always pairable."""
    while True:
        units = rng.randint(1, 10)
        coders = rng.randint(2, 4)
        matrix = [
            [rng.choice(("a", "b", "c")) if rng.random() > 0.3 else None for _ in range(coders)]
            for _ in range(units)
        ]
        if any(sum(v is not None for v in row) >= 2 for row in matrix):
            return matrix


BASE_TS = datetime(2026, 3, 2, 0, 0, tzinfo=timezone.utc)


def random_timeline(rng: random.Random) -> adherence.Timeline:
    """A few days of intakes and activities around a fixed base date."""
    events = []
    for _ in range(rng.randint(1, 6)):
        events.append(
            adherence.TimelineEvent(
                "intake", "medication", BASE_TS + timedelta(minutes=rng.randint(0, 3 * 1440))
            )
        )
    for _ in range(rng.randint(0, 6)):
        events.append(
            adherence.TimelineEvent(
                "activity",
                rng.choice(("eating", "sleep", "exercise")),
                BASE_TS + timedelta(minutes=rng.randint(0, 3 * 1440)),
            )
        )
    return adherence.Timeline.build(events, (BASE_TS, BASE_TS + timedelta(days=3)))
