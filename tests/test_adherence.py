"""Verdict semantics for constraints over event timelines."""

from __future__ import annotations

import json
import pickle
import random
import re
import time
import zoneinfo
from dataclasses import fields
from datetime import datetime, time as dt_time, timedelta, timezone, tzinfo

import pytest
from hypothesis import given, settings, strategies as st

from mtckit import grammar
from mtckit.adherence import (
    DEFAULT_TOLERANCES,
    EVENT_KINDS,
    Timeline,
    TimelineEvent,
    ToleranceConfig,
    VerdictStatus,
    check,
    load_timeline,
)
from mtckit.grammar import DayPart, mtc_type, parse_mtc, with_negated
from mtckit.normalize import normalize_activity

from conftest import BASE_TS, random_mtc, random_timeline
from oracles import oracle_check

UTC = timezone.utc
DAY0 = datetime(2026, 3, 2, tzinfo=UTC)


def ts(day: int, hour: int, minute: int = 0) -> datetime:
    return DAY0 + timedelta(days=day, hours=hour, minutes=minute)


def intake(day: int, hour: int, minute: int = 0) -> TimelineEvent:
    return TimelineEvent("intake", "medication", ts(day, hour, minute))


def activity(name: str, day: int, hour: int, minute: int = 0) -> TimelineEvent:
    return TimelineEvent("activity", name, ts(day, hour, minute))


def timeline(events, start=None, end=None) -> Timeline:
    return Timeline.build(events, (start, end))


# ------------------------------------------------------- worked examples


def test_frequency_two_per_day_satisfied():
    line = timeline([intake(0, 8), intake(0, 20)], start=ts(0, 0), end=ts(1, 0))
    verdict = check(parse_mtc("2 times day"), line)
    assert verdict.status is VerdictStatus.SATISFIED


def test_interval_six_hours_apart_violated():
    line = timeline([intake(0, 8), intake(0, 12)], start=ts(0, 0), end=ts(1, 0))
    verdict = check(parse_mtc("6 hour apart"), line)
    assert verdict.status is VerdictStatus.VIOLATED
    assert "4:00:00" in verdict.explanation  # the observed gap


def test_consistency_spread_of_150_minutes():
    events = [intake(0, 8, 0), intake(1, 8, 30), intake(2, 10, 30)]
    # brute-force pairwise spread of the intake clock times
    minutes = [e.minutes_into_day() for e in events]
    spread = max(abs(a - b) for a in minutes for b in minutes)
    assert spread == 150

    line = timeline(events, start=ts(0, 0), end=ts(3, 0))
    mtc = parse_mtc("at the same time each day")
    tight = ToleranceConfig(consistency_tolerance=timedelta(minutes=60))
    loose = ToleranceConfig(consistency_tolerance=timedelta(minutes=180))
    assert check(mtc, line, tight).status is VerdictStatus.VIOLATED
    assert check(mtc, line, loose).status is VerdictStatus.SATISFIED


# -------------------------------------------------------- per-variant


def test_frequency_counts_every_complete_period():
    events = [intake(0, 8), intake(0, 20), intake(1, 9)]
    line = timeline(events, start=ts(0, 0), end=ts(2, 0))
    verdict = check(parse_mtc("2 times day"), line)
    assert verdict.status is VerdictStatus.VIOLATED
    assert "1 intake(s)" in verdict.explanation


def test_frequency_short_window_indeterminate():
    line = timeline([intake(0, 8)], start=ts(0, 0), end=ts(0, 12))
    assert check(parse_mtc("1 times day"), line).status is VerdictStatus.INDETERMINATE


def test_frequency_partial_trailing_period_ignored():
    events = [intake(0, 8), intake(0, 20), intake(1, 9)]  # day 2 partial
    line = timeline(events, start=ts(0, 0), end=ts(1, 12))
    assert check(parse_mtc("2 times day"), line).status is VerdictStatus.SATISFIED


def test_interval_apart_satisfied_and_within():
    line = timeline([intake(0, 8), intake(0, 16)], start=ts(0, 0), end=ts(1, 0))
    assert check(parse_mtc("6 hour apart"), line).status is VerdictStatus.SATISFIED
    assert check(parse_mtc("12 hour within"), line).status is VerdictStatus.SATISFIED
    assert check(parse_mtc("4 hour within"), line).status is VerdictStatus.VIOLATED
    # a gap equal to the bound is at least and at most the bound
    assert check(parse_mtc("8 hour apart"), line).status is VerdictStatus.SATISFIED
    assert check(parse_mtc("8 hour within"), line).status is VerdictStatus.SATISFIED
    assert check(parse_mtc("481 minute apart"), line).status is VerdictStatus.VIOLATED
    assert check(parse_mtc("479 minute within"), line).status is VerdictStatus.VIOLATED


def test_interval_for_and_single_intake_indeterminate():
    line = timeline([intake(0, 8), intake(0, 16)], start=ts(0, 0), end=ts(1, 0))
    assert check(parse_mtc("3 day for"), line).status is VerdictStatus.INDETERMINATE
    solo = timeline([intake(0, 8)], start=ts(0, 0), end=ts(1, 0))
    assert check(parse_mtc("6 hour apart"), solo).status is VerdictStatus.INDETERMINATE


def test_no_intakes_is_indeterminate():
    line = timeline([activity("eating", 0, 12)], start=ts(0, 0), end=ts(1, 0))
    assert check(parse_mtc("3 times day"), line).status is VerdictStatus.INDETERMINATE


def test_check_refuses_a_value_that_is_not_an_mtc():
    with_intakes = timeline([intake(0, 8)], start=ts(0, 0), end=ts(1, 0))
    without_intakes = timeline([activity("eating", 0, 12)], start=ts(0, 0), end=ts(1, 0))
    for line in (with_intakes, without_intakes):
        for value in ("3 times day", None, 5):
            with pytest.raises(TypeError, match="^not an MTC value: "):
                check(value, line)


def test_every_constraint_type_reaches_its_own_check():
    rng = random.Random(15)
    seen = set()
    for _ in range(300):
        mtc, line = random_mtc(rng), random_timeline(rng)
        verdict = check(mtc, line)
        assert (verdict.status.value, verdict.explanation) == oracle_check(mtc, line, DEFAULT_TOLERANCES)
        seen.add(mtc_type(mtc))
    assert seen == set(range(1, 8))


def test_definitive_dependency_before():
    mtc = parse_mtc("30 minute before eating")
    ok = timeline([intake(0, 8), activity("eating", 0, 8, 30)], start=ts(0, 0), end=ts(1, 0))
    assert check(mtc, ok).status is VerdictStatus.SATISFIED
    late = timeline([intake(0, 8), activity("eating", 0, 8, 45)], start=ts(0, 0), end=ts(1, 0))
    assert check(mtc, late).status is VerdictStatus.VIOLATED
    unseen = timeline([intake(0, 8), activity("exercise", 0, 8, 30)], start=ts(0, 0), end=ts(1, 0))
    assert check(mtc, unseen).status is VerdictStatus.INDETERMINATE


def test_definitive_dependency_after():
    mtc = parse_mtc("2 hour after eating")
    ok = timeline([activity("eating", 0, 7), intake(0, 9)], start=ts(0, 0), end=ts(1, 0))
    assert check(mtc, ok).status is VerdictStatus.SATISFIED
    bad = timeline([activity("eating", 0, 7), intake(0, 10)], start=ts(0, 0), end=ts(1, 0))
    assert check(mtc, bad).status is VerdictStatus.VIOLATED


def test_definitive_dependency_tolerance_is_configurable():
    mtc = parse_mtc("30 minute before eating")
    line = timeline([intake(0, 8), activity("eating", 0, 8, 45)], start=ts(0, 0), end=ts(1, 0))
    wide = ToleranceConfig(dependency_tolerance=timedelta(minutes=20))
    assert check(mtc, line, wide).status is VerdictStatus.SATISFIED


def test_imprecise_dependency_directions():
    before_sleep = parse_mtc("before sleep")
    ok = timeline([intake(0, 21), activity("sleep", 0, 22)], start=ts(0, 0), end=ts(1, 0))
    assert check(before_sleep, ok).status is VerdictStatus.SATISFIED
    far = timeline([intake(0, 18), activity("sleep", 0, 23)], start=ts(0, 0), end=ts(1, 0))
    assert check(before_sleep, far).status is VerdictStatus.VIOLATED  # beyond 2 h horizon
    after_eating = parse_mtc("after eating")
    ok2 = timeline([activity("eating", 0, 12), intake(0, 12, 30)], start=ts(0, 0), end=ts(1, 0))
    assert check(after_eating, ok2).status is VerdictStatus.SATISFIED
    none_seen = timeline([intake(0, 12)], start=ts(0, 0), end=ts(1, 0))
    assert check(after_eating, none_seen).status is VerdictStatus.INDETERMINATE


def test_dependency_window_edges():
    def status(text, *events):
        return check(parse_mtc(text), timeline([intake(0, 8), *events], start=ts(0, 0), end=ts(1, 0))).status

    S, V = VerdictStatus.SATISFIED, VerdictStatus.VIOLATED
    assert status("30 minute before eating", activity("eating", 0, 8, 40)) is S  # tolerance is inclusive
    assert status("30 minute before eating", activity("eating", 0, 8, 20)) is S
    assert status("30 minute before eating", activity("eating", 0, 8, 41)) is V
    assert status("before sleep", activity("sleep", 0, 10)) is S  # horizon end is inclusive
    assert status("before sleep", activity("sleep", 0, 8), activity("sleep", 0, 10, 1)) is V
    assert status("after eating", activity("eating", 0, 6)) is S  # horizon start is inclusive
    assert status("after eating", activity("eating", 0, 8), activity("eating", 0, 5, 59)) is V


def test_time_dependency_strict():
    mtc = parse_mtc("before 9 am")
    early = timeline([intake(0, 8, 59)], start=ts(0, 0), end=ts(1, 0))
    assert check(mtc, early).status is VerdictStatus.SATISFIED
    exact = timeline([intake(0, 9, 0)], start=ts(0, 0), end=ts(1, 0))
    assert check(mtc, exact).status is VerdictStatus.VIOLATED  # strictly before
    verdict = check(parse_mtc("after 9 am"), exact)
    assert verdict.status is VerdictStatus.VIOLATED  # strictly after
    assert verdict.explanation == f"intake 'medication' at {ts(0, 9).isoformat()} is not strictly after 9 am"
    late = timeline([intake(0, 9, 1)], start=ts(0, 0), end=ts(1, 0))
    assert check(parse_mtc("after 9 am"), late).status is VerdictStatus.SATISFIED


def test_consistency_single_intake_is_trivially_consistent():
    line = timeline([intake(0, 8)], start=ts(0, 0), end=ts(1, 0))
    assert check(parse_mtc("at the same time each day"), line).status is VerdictStatus.SATISFIED


def test_consistency_clock_anchor_is_checked():
    line = timeline([intake(day, 15) for day in range(3)], start=ts(0, 0), end=ts(3, 0))
    verdict = check(parse_mtc("at 9 am each day"), line)
    assert verdict.status is VerdictStatus.VIOLATED
    assert verdict.explanation.startswith(f"intake 'medication' at {ts(0, 15).isoformat()}")
    assert check(parse_mtc("at 3 pm each day"), line).status is VerdictStatus.SATISFIED


def test_consistency_each_week_compares_weekdays():
    # one intake a week at 9 am, on a different weekday each week
    events = [intake(0, 9), intake(9, 9, 10), intake(18, 8, 50)]
    line = timeline(events, start=ts(0, 0), end=ts(21, 0))
    assert check(parse_mtc("at the same time each week"), line).status is VerdictStatus.VIOLATED
    assert check(parse_mtc("at the same time each day"), line).status is VerdictStatus.SATISFIED
    assert check(parse_mtc("at 9 am each week"), line).status is VerdictStatus.SATISFIED
    same_day = timeline([intake(0, 9), intake(7, 9, 20)], start=ts(0, 0), end=ts(14, 0))
    assert check(parse_mtc("at the same time each week"), same_day).status is VerdictStatus.SATISFIED


def test_consistency_anchor_wraps_around_midnight():
    line = timeline([intake(day, 0, 10) for day in range(3)], start=ts(0, 0), end=ts(3, 0))
    assert check(parse_mtc("at 11.50 pm each day"), line).status is VerdictStatus.SATISFIED
    edge = ToleranceConfig(consistency_tolerance=timedelta(minutes=20))
    assert check(parse_mtc("at 11.50 pm each day"), line, edge).status is VerdictStatus.SATISFIED
    tight = ToleranceConfig(consistency_tolerance=timedelta(minutes=19))
    verdict = check(parse_mtc("at 11.50 pm each day"), line, tight)
    assert verdict.status is VerdictStatus.VIOLATED
    assert "0:20:00 from 11.50 pm" in verdict.explanation


def test_time_of_day_windows():
    morning = parse_mtc("in morning")
    assert check(morning, timeline([intake(0, 8)], start=ts(0, 0), end=ts(1, 0))).status is VerdictStatus.SATISFIED
    assert check(morning, timeline([intake(0, 13)], start=ts(0, 0), end=ts(1, 0))).status is VerdictStatus.VIOLATED
    evening = parse_mtc("in evening")
    assert check(evening, timeline([intake(0, 21, 59)], start=ts(0, 0), end=ts(1, 0))).status is VerdictStatus.SATISFIED
    assert check(evening, timeline([intake(0, 22, 0)], start=ts(0, 0), end=ts(1, 0))).status is VerdictStatus.VIOLATED
    noon = parse_mtc("at noon")
    assert check(noon, timeline([intake(0, 12, 30)], start=ts(0, 0), end=ts(1, 0))).status is VerdictStatus.SATISFIED
    # half-open: a window's start is inside it
    for mtc, hour in ((morning, 5), (noon, 11), (evening, 17)):
        at_start = timeline([intake(0, hour)], start=ts(0, 0), end=ts(1, 0))
        assert check(mtc, at_start).status is VerdictStatus.SATISFIED, mtc
        just_before = timeline([intake(0, hour - 1, 59)], start=ts(0, 0), end=ts(1, 0))
        assert check(mtc, just_before).status is VerdictStatus.VIOLATED, mtc


# ------------------------------------------------------------- properties


def test_negation_inverts_determinate_verdicts():
    line = timeline([intake(0, 8), intake(0, 12)], start=ts(0, 0), end=ts(1, 0))
    mtc = parse_mtc("6 hour apart")
    assert check(mtc, line).status is VerdictStatus.VIOLATED
    assert check(with_negated(mtc), line).status is VerdictStatus.SATISFIED


def test_negation_inversion_random_pairs():
    rng = random.Random(4242)
    determinate = 0
    attempts = 0
    while determinate < 250 and attempts < 8000:
        attempts += 1
        mtc = with_negated(random_mtc(rng), False)
        line = random_timeline(rng)
        verdict = check(mtc, line)
        if verdict.status is VerdictStatus.INDETERMINATE:
            assert check(with_negated(mtc), line).status is VerdictStatus.INDETERMINATE
            continue
        determinate += 1
        flipped = check(with_negated(mtc), line)
        assert {verdict.status, flipped.status} == {
            VerdictStatus.SATISFIED,
            VerdictStatus.VIOLATED,
        }
    assert determinate == 250


def test_window_monotonicity_for_apart():
    inside = [intake(0, 8), intake(0, 16)]
    line = timeline(inside, start=ts(0, 0), end=ts(1, 0))
    extended = timeline(inside + [intake(5, 8)], start=ts(0, 0), end=ts(1, 0))
    mtc = parse_mtc("6 hour apart")
    assert check(mtc, line) == check(mtc, extended)


def test_determinism():
    line = timeline([intake(0, 8), intake(0, 20)], start=ts(0, 0), end=ts(1, 0))
    mtc = parse_mtc("2 times day")
    assert check(mtc, line) == check(mtc, line)


ZONES = (
    UTC,
    timezone(timedelta(hours=5, minutes=30)),
    timezone(timedelta(hours=-8)),
    timezone(timedelta(hours=14)),
)
ALIASES = {"eating": ("eating", "meal"), "sleep": ("sleep", "bedtime"), "exercise": ("exercise",)}

_units = st.sampled_from(list(grammar.TimeUnit))
_dps = st.sampled_from(list(grammar.DependencyPrep))
_ops = st.sampled_from(list(grammar.OccurrencePrep))
_activities = st.sampled_from(sorted(ALIASES))
_clocks = st.builds(
    grammar.ClockTime, st.integers(1, 12), st.sampled_from((0, 10, 50)), st.sampled_from(("am", "pm"))
)
_offsets = st.sampled_from(
    ((10, grammar.TimeUnit.MINUTE), (30, grammar.TimeUnit.MINUTE), (1, grammar.TimeUnit.HOUR),
     (2, grammar.TimeUnit.HOUR), (1, grammar.TimeUnit.DAY))
)
_mtcs = st.one_of(
    st.builds(lambda nu, dp, a: grammar.DefinitiveDependency(*nu, dp, a), _offsets, _dps, _activities),
    st.builds(grammar.Frequency, st.integers(1, 4),
              st.sampled_from((grammar.TimeUnit.HOUR, grammar.TimeUnit.DAY, grammar.TimeUnit.WEEK))),
    st.builds(grammar.Interval, st.integers(1, 12), _units, st.sampled_from(list(grammar.IntervalPrep))),
    st.builds(grammar.ImpreciseDependency, _dps, _activities),
    st.builds(grammar.TimeDependency, _dps, _clocks),
    st.builds(grammar.Consistency, _ops, st.one_of(st.just(grammar.SAME_TIME), _clocks), _units),
    st.builds(grammar.TimeOfDay, _ops, st.sampled_from(list(grammar.DayPart))),
).flatmap(lambda mtc: st.booleans().map(lambda negated: with_negated(mtc, negated)))
_configs = st.builds(
    ToleranceConfig,
    dependency_tolerance=st.sampled_from((0, 10, 20)).map(lambda m: timedelta(minutes=m)),
    imprecision_horizon=st.sampled_from((0, 60, 120)).map(lambda m: timedelta(minutes=m)),
    consistency_tolerance=st.sampled_from((0, 60, 180)).map(lambda m: timedelta(minutes=m)),
)
_MINUTES = {grammar.TimeUnit.MINUTE: 1, grammar.TimeUnit.HOUR: 60, grammar.TimeUnit.DAY: 1440,
            grammar.TimeUnit.WEEK: 7 * 1440}


def _edges(mtc, cfg) -> list[int]:
    """Minutes from an intake at which a matching activity decides a dependency."""
    if isinstance(mtc, grammar.DefinitiveDependency):
        sign = 1 if mtc.dp is grammar.DependencyPrep.BEFORE else -1
        tolerance = cfg.dependency_tolerance // timedelta(minutes=1)
        return [sign * mtc.n * _MINUTES[mtc.unit] + t for t in (-tolerance, 0, tolerance)]
    if isinstance(mtc, grammar.ImpreciseDependency):
        sign = 1 if mtc.dp is grammar.DependencyPrep.BEFORE else -1
        return [0, sign * (cfg.imprecision_horizon // timedelta(minutes=1))]
    return [0]


def _local_edges(mtc, cfg) -> list[int]:
    """Minutes into an intake's local day at which a clock or day-part verdict turns."""
    if isinstance(mtc, grammar.TimeDependency):
        return [mtc.time.minutes_into_day()]
    if isinstance(mtc, grammar.TimeOfDay):
        return [t.hour * 60 + t.minute for t in cfg.day_part_windows[mtc.day_part]]
    return []


@st.composite
def cases(draw):
    """(constraint, timeline, tolerances) with timestamps that collide and sit
    on the tolerance, horizon and period edges the verdict turns on.

    Intakes lie on a 10-minute, hourly or half-day grid from the window start,
    sometimes as a regular schedule; most intakes get an activity a minute
    either side of, or exactly on, an edge of the constraint. Some timelines
    pin the boundaries the module docstring names: intakes exactly one
    interval bound apart, and intakes whose local clock is exactly a
    ``before``/``after`` clock time or a day-part window's start or end.
    Events carry mixed UTC offsets, and half the timelines are built
    directly, unsorted and unclipped."""
    mtc, cfg = draw(_mtcs), draw(_configs)
    step = draw(st.sampled_from((10, 60, 720)))
    # (minute from the window start, UTC offset or None to draw one) of each intake
    if isinstance(mtc, grammar.Interval) and draw(st.booleans()):
        first, bound = step * draw(st.integers(0, 3)), mtc.n * _MINUTES[mtc.unit]
        intakes = [(first + k * bound, None) for k in range(draw(st.integers(2, 4)))]
    elif _local_edges(mtc, cfg) and draw(st.booleans()):
        intakes = []
        for local in draw(st.lists(st.sampled_from(_local_edges(mtc, cfg)), min_size=1, max_size=3)):
            zone = draw(st.sampled_from(ZONES))
            minute = 1440 * draw(st.integers(1, 3)) + local - zone.utcoffset(None) // timedelta(minutes=1)
            intakes.append((minute, zone))
    elif draw(st.booleans()):
        first = draw(st.integers(0, 3))
        intakes = [(step * slot, None) for slot in range(first, first + draw(st.integers(0, 8)))]
    else:
        intakes = [(step * slot, None) for slot in draw(st.lists(st.integers(0, 72), max_size=8))]
    names = ALIASES[getattr(mtc, "activity", "eating")]
    placed = [("intake", "medication", minute, zone) for minute, zone in intakes]
    for minute, _ in intakes:
        if draw(st.integers(0, 4)):
            edge = draw(st.sampled_from(_edges(mtc, cfg))) + draw(st.sampled_from((-1, 0, 0, 1)))
            placed.append(("activity", draw(st.sampled_from(names)), minute + edge, None))
    for _ in range(draw(st.integers(0, 2))):
        placed.append(("activity", "exercise", 10 * draw(st.integers(0, 432)), None))
    events = [
        TimelineEvent(kind, name, (DAY0 + timedelta(minutes=minute)).astimezone(zone or draw(st.sampled_from(ZONES))))
        for kind, name, minute, zone in draw(st.permutations(placed))
    ]
    end = step * draw(st.integers(0, 72))
    if draw(st.booleans()):  # a window that holds every intake
        end = max([end] + [minute + 1 for minute, _ in intakes])
    window = (DAY0, DAY0 + timedelta(minutes=end))
    if draw(st.booleans()):
        return mtc, Timeline(tuple(events), window), cfg
    return mtc, Timeline.build(events, window), cfg


@settings(max_examples=400, deadline=None)
@given(cases())
def test_check_equals_exhaustive_oracle(case):
    mtc, line, cfg = case
    verdict = check(mtc, line, cfg)
    assert (verdict.status.value, verdict.explanation) == oracle_check(mtc, line, cfg)


@pytest.fixture(scope="module")
def year_long_hourly():
    """Intakes every hour for a year, each 30 minutes after sleep and 30 before eating."""
    events = []
    for hour in range(365 * 24):
        events.append(intake(0, hour, 40))
        events.append(activity("sleep", 0, hour, 10))
        events.append(activity("eating", 0, hour + 1, 10))
    return timeline(events, start=ts(0, 0), end=ts(365, 1))


@pytest.mark.parametrize(
    "text",
    ["30 minute before eating", "30 minute after sleep", "24 times day", "1 hour apart",
     "before eating", "after sleep"],
)
def test_year_long_hourly_timeline_is_fast(year_long_hourly, text):
    began = time.perf_counter()
    verdict = check(parse_mtc(text), year_long_hourly)
    elapsed = time.perf_counter() - began
    assert verdict.status is VerdictStatus.SATISFIED, verdict.explanation
    assert elapsed <= 1.0, f"{text!r} took {elapsed:.2f} s on a year-long hourly timeline"


def test_explanations_are_nonempty():
    rng = random.Random(7)
    for _ in range(100):
        verdict = check(random_mtc(rng), random_timeline(rng))
        assert verdict.explanation.strip()


# --------------------------------------------------------- configuration


@pytest.mark.parametrize(
    "fields, error, message",
    [
        ({"dependency_tolerance": 5}, TypeError, "^dependency_tolerance must be a timedelta, got 5$"),
        ({"imprecision_horizon": 120.0}, TypeError, "^imprecision_horizon must be a timedelta"),
        ({"consistency_tolerance": None}, TypeError, "^consistency_tolerance must be a timedelta"),
        ({"dependency_tolerance": timedelta(minutes=-5)}, ValueError, "^dependency_tolerance must not be negative"),
        ({"imprecision_horizon": timedelta(microseconds=-1)}, ValueError, "^imprecision_horizon must not be negative"),
        ({"consistency_tolerance": timedelta(days=-1)}, ValueError, "^consistency_tolerance must not be negative"),
        ({"day_part_windows": {"morning": 5}}, TypeError, "^day_part_windows must map DayPart"),
        ({"day_part_windows": {"morning": (dt_time(5), dt_time(12))}}, TypeError, "^day_part_windows must"),
        ({"day_part_windows": {DayPart.MORNING: 5}}, TypeError, "^day_part_windows must"),
        ({"day_part_windows": {DayPart.MORNING: (dt_time(5),)}}, TypeError, "^day_part_windows must"),
        ({"day_part_windows": {DayPart.MORNING: (dt_time(5), "12:00")}}, TypeError, "^day_part_windows must"),
        ({"day_part_windows": {DayPart.MORNING: (dt_time(5, tzinfo=UTC), dt_time(12))}}, TypeError,
         "^day_part_windows must"),
        ({"day_part_windows": [(DayPart.MORNING, (dt_time(5), dt_time(12)))]}, TypeError, "^day_part_windows must"),
    ],
)
def test_tolerance_config_checks_its_fields(fields, error, message):
    with pytest.raises(error, match=message):
        ToleranceConfig(**fields)


# ------------------------------------------------------ zones with rules

try:
    BERLIN = zoneinfo.ZoneInfo("Europe/Berlin")
except zoneinfo.ZoneInfoNotFoundError:
    BERLIN = None
needs_berlin = pytest.mark.skipif(BERLIN is None, reason="the tz database lacks Europe/Berlin")
#: Clocks in Berlin jump from 02:00 to 03:00 at the first, and fall back from
#: 03:00 to 02:00 at the second.
DST_CHANGES = (datetime(2026, 3, 29, 1, tzinfo=UTC), datetime(2026, 10, 25, 1, tzinfo=UTC))


def berlin(month: int, day: int, hour: int, minute: int = 0, fold: int = 0) -> datetime:
    return datetime(2026, month, day, hour, minute, tzinfo=BERLIN, fold=fold)


@needs_berlin
def test_gap_across_spring_forward_is_elapsed_time():
    line = Timeline.build([TimelineEvent("intake", "m", at) for at in (berlin(3, 28, 22), berlin(3, 29, 4))])
    verdict = check(parse_mtc("6 hour apart"), line)
    assert verdict.status is VerdictStatus.VIOLATED
    assert verdict.explanation == (
        "gap of 5:00:00 between intake 'm' at 2026-03-28T22:00:00+01:00 "
        "and intake 'm' at 2026-03-29T04:00:00+02:00 is under 6:00:00"
    )
    assert check(parse_mtc("before 5 am"), line).status is VerdictStatus.VIOLATED  # 22:00 local
    assert check(parse_mtc("5 hour apart"), line).status is VerdictStatus.SATISFIED


@needs_berlin
def test_dependency_offset_across_spring_forward_is_elapsed_time():
    meal = TimelineEvent("activity", "eating", berlin(3, 29, 3))  # 30 minutes after the intake
    line = Timeline.build([TimelineEvent("intake", "m", berlin(3, 29, 1, 30)), meal])
    verdict = check(parse_mtc("90 minute before eating"), line)
    assert verdict.status is VerdictStatus.VIOLATED
    assert verdict.explanation == (
        "intake 'm' at 2026-03-29T01:30:00+01:00 has no 'eating' event near "
        "2026-03-29T03:00:00+01:00 (tolerance 0:10:00)"
    )
    assert check(parse_mtc("30 minute before eating"), line).status is VerdictStatus.SATISFIED


@needs_berlin
def test_gap_in_the_repeated_fall_back_hour_is_elapsed_time():
    first, second = berlin(10, 25, 2, 45), berlin(10, 25, 2, 15, fold=1)  # 00:45 and 01:15 UTC
    line = Timeline((TimelineEvent("intake", "m", second), TimelineEvent("intake", "m", first)))
    assert check(parse_mtc("20 minute apart"), line).status is VerdictStatus.SATISFIED
    verdict = check(parse_mtc("40 minute apart"), line)
    assert verdict.explanation == (
        "gap of 0:30:00 between intake 'm' at 2026-10-25T02:45:00+02:00 "
        "and intake 'm' at 2026-10-25T02:15:00+01:00 is under 0:40:00"
    )


@needs_berlin
def test_day_periods_are_elapsed_hours_from_the_window_start_across_spring_forward():
    intakes = [TimelineEvent("intake", "m", berlin(3, day, hour, 30)) for day in (28, 29, 30) for hour in (0, 12)]
    line = Timeline(tuple(intakes), (berlin(3, 28, 0), berlin(3, 31, 0)))
    verdict = check(parse_mtc("2 times day"), line)
    # The second period is 24 h from 00:00 on 29 March, so it ends at 01:00 local on
    # 30 March and holds that day's 00:30 intake; a calendar day would hold two.
    assert verdict.status is VerdictStatus.VIOLATED
    assert verdict.explanation == "period starting 2026-03-29T00:00:00+01:00 has 3 intake(s), expected 2"


@needs_berlin
def test_timestamps_and_window_bounds_keep_their_wall_clock_at_a_fixed_offset():
    event = TimelineEvent("intake", "m", berlin(3, 29, 4))
    assert type(event.timestamp.tzinfo) is timezone and event.timestamp.isoformat() == "2026-03-29T04:00:00+02:00"
    line = Timeline((event,), (berlin(3, 28, 22), None))
    assert [bound.isoformat() for bound in line.window] == ["2026-03-28T22:00:00+01:00", "2026-03-29T04:00:00+02:00"]
    assert all(type(bound.tzinfo) is timezone for bound in line.window)


#: The periods a clock change falls inside.
_LONG_UNITS = (grammar.TimeUnit.DAY, grammar.TimeUnit.WEEK)
_dst_mtcs = st.one_of(
    st.builds(lambda nu, dp, a: grammar.DefinitiveDependency(*nu, dp, a), _offsets, _dps, _activities),
    st.builds(grammar.Frequency, st.integers(1, 3), st.sampled_from((grammar.TimeUnit.HOUR, *_LONG_UNITS))),
    st.builds(grammar.Interval, st.integers(1, 6), st.just(grammar.TimeUnit.HOUR),
              st.sampled_from((grammar.IntervalPrep.APART, grammar.IntervalPrep.WITHIN))),
    st.builds(grammar.ImpreciseDependency, _dps, _activities),
    st.builds(grammar.Consistency, _ops, st.one_of(st.just(grammar.SAME_TIME), _clocks),
              st.sampled_from(_LONG_UNITS)),
)


def _dst_schedule(draw, mtc) -> tuple[list, tuple[int, int]]:
    """Intakes every period / n minutes (every period for a consistency),
    each moved by the hour the clocks jump and a minute either way or not,
    one of two or more perhaps left out, the first before the change, and
    a window of two or three periods whose first holds the change; all in
    minutes from the change."""
    period = _MINUTES[mtc.unit]
    spacing = period // mtc.n if isinstance(mtc, grammar.Frequency) else period
    start = -10 * draw(st.integers(1, period // 10))
    window = (start, start + period * draw(st.integers(2, 3)) + 10 * draw(st.integers(0, 6)))
    first = start + 10 * draw(st.integers(0, min(spacing, -start) // 10 - 1))
    shifts = st.sampled_from((-60, 0, 60)).flatmap(lambda hour: st.sampled_from((hour - 1, hour, hour + 1)))
    times = range(first, window[1], spacing)
    skipped = draw(st.sets(st.integers(0, len(times) - 1), max_size=min(1, len(times) - 1)))
    placed = [("intake", "medication", minute + draw(shifts)) for i, minute in enumerate(times) if i not in skipped]
    return placed, window


@st.composite
def _dst_cases(draw):
    """A type 1-4 constraint, or a day or week frequency or consistency, its
    tolerances, and the UTC instants of events about a daylight-saving change
    and of a window about them.

    Type 1-4 events lie within six hours of the change, and most intakes get
    a second event on an edge of the constraint, moved by the hour the clocks
    jump and a minute either way. Day and week constraints get a schedule
    (see :func:`_dst_schedule`)."""
    mtc, cfg = draw(_dst_mtcs), draw(_configs)
    change = draw(st.sampled_from(DST_CHANGES))

    def at(minute: int) -> datetime:
        return change + timedelta(minutes=minute)

    if isinstance(mtc, (grammar.Frequency, grammar.Consistency)) and mtc.unit in _LONG_UNITS:
        placed, window = _dst_schedule(draw, mtc)
        return mtc, cfg, [(kind, name, at(minute)) for kind, name, minute in placed], tuple(map(at, window))
    minutes = st.integers(-36, 36).map(lambda m: 10 * m)
    if isinstance(mtc, grammar.Interval):
        kind, names, edges = "intake", ("medication",), [mtc.n * 60]
    else:
        kind, names, edges = "activity", ALIASES[getattr(mtc, "activity", "eating")], _edges(mtc, cfg)
    placed = []
    for minute in draw(st.lists(minutes, min_size=1, max_size=6)):
        placed.append(("intake", "medication", minute))
        if draw(st.integers(0, 3)):
            shift = draw(st.sampled_from(edges)) + draw(st.sampled_from((-60, 0, 60))) + draw(st.sampled_from((-1, 0, 1)))
            placed.append((kind, draw(st.sampled_from(names)), minute + shift))
    window = (10 * draw(st.integers(-42, -30)), 10 * draw(st.integers(30, 42)))
    return mtc, cfg, [(kind, name, at(minute)) for kind, name, minute in placed], tuple(map(at, window))


@needs_berlin
@settings(max_examples=500, deadline=None)
@given(_dst_cases())
def test_events_in_a_zone_with_rules_check_as_the_oracle_and_as_their_instants_in_utc(case):
    mtc, cfg, events, window = case
    in_utc = Timeline.build([TimelineEvent(*event) for event in events], window)
    zoned = Timeline.build(
        [TimelineEvent(kind, name, at.astimezone(BERLIN)) for kind, name, at in events],
        tuple(bound.astimezone(BERLIN) for bound in window),
    )
    verdict = check(mtc, zoned, cfg)
    assert (verdict.status.value, verdict.explanation) == oracle_check(mtc, zoned, cfg)
    # A consistency reads local clock times, which the zone moves; every
    # other check reads elapsed time only.
    if not isinstance(mtc, grammar.Consistency):
        assert verdict.status is check(mtc, in_utc, cfg).status


# ------------------------------------------------------------ timeline io


def test_event_validation_and_name_normalization():
    event = TimelineEvent("activity", "Sleeping", ts(0, 22))
    assert event.name == "sleep"
    with pytest.raises(ValueError):
        TimelineEvent("nap", "sleep", ts(0, 22))
    for name in (5, ["sleep"], None):
        with pytest.raises(TypeError, match=f"^event name must be a string, got {type(name).__name__}$"):
            TimelineEvent("activity", name, ts(0, 22))


class _NoOffset(tzinfo):
    def utcoffset(self, dt):
        return None


def test_event_rejects_naive_timestamp():
    at = datetime(2026, 3, 2, 8, 0)
    for naive in (at, at.replace(tzinfo=_NoOffset())):
        with pytest.raises(ValueError, match="must be a datetime with a timezone"):
            TimelineEvent("intake", "m", naive)


def test_build_rejects_window_bound_without_timezone():
    event = TimelineEvent("intake", "m", datetime(2026, 3, 2, 8, 0, tzinfo=timezone.utc))
    naive = datetime(2026, 3, 2)
    for window in ((naive, None), (None, naive), (naive.replace(tzinfo=_NoOffset()), None)):
        with pytest.raises(ValueError, match="window bound must be a datetime with a timezone"):
            Timeline.build([event], window)
        with pytest.raises(ValueError, match="window bound must be a datetime with a timezone"):
            Timeline((event,), window)


@pytest.mark.parametrize(
    "kind, name, timestamp, message",
    [
        ("intake", 5, ts(0, 8), "event name must be a string, got int"),
        ("activity", None, ts(0, 8), "event name must be a string, got NoneType"),
        (5, "m", ts(0, 8), "event kind must be a string, got int"),
        (["intake"], "m", ts(0, 8), "event kind must be a string, got list"),
        ("intake", "m", "2026-03-02T08:00:00+00:00", "event timestamp must be a datetime, got str"),
        ("intake", "m", ts(0, 8).timestamp(), "event timestamp must be a datetime, got float"),
        ("intake", "m", ts(0, 8).date(), "event timestamp must be a datetime, got date"),
    ],
)
def test_wrong_typed_event_field_raises_type_error_naming_it(kind, name, timestamp, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        TimelineEvent(kind, name, timestamp)


@pytest.mark.parametrize(
    "window, got",
    [((1, 2), "int"), (("2026-03-02", None), "str"), ((None, BASE_TS.date()), "date"), ((BASE_TS, 0.5), "float")],
)
def test_wrong_typed_window_bound_raises_type_error(window, got):
    events = [TimelineEvent("intake", "m", BASE_TS)] if None in window else []  # an open bound needs events
    with pytest.raises(TypeError, match=f"^window bound must be a datetime, got {got}$"):
        Timeline(events, window)


def test_event_is_slotted_and_keeps_value_semantics():
    event = TimelineEvent("activity", "Meal", ts(0, 12))
    assert not hasattr(event, "__dict__")
    same = TimelineEvent("activity", "eating", ts(0, 12))
    assert event == same and hash(event) == hash(same)
    first = TimelineEvent("activity", "Garden  Walk", ts(1, 12))
    again = TimelineEvent("activity", "".join(["Garden ", " Walk"]), ts(2, 12))
    assert again.name == "garden walk" and again.name is first.name  # one shared string
    assert event != TimelineEvent("activity", "eating", ts(0, 13))
    assert pickle.loads(pickle.dumps(event)) == event
    with pytest.raises(AttributeError):
        event.name = "sleep"


def test_timeline_clips_and_sorts():
    events = [intake(2, 8), intake(0, 8), intake(9, 8)]
    for line in (Timeline.build(events, (ts(0, 0), ts(3, 0))), Timeline(tuple(events), (ts(0, 0), ts(3, 0)))):
        assert [e.timestamp for e in line.events] == [ts(0, 8), ts(2, 8)]
        assert line.window == (ts(0, 0), ts(3, 0))


def test_window_start_after_end_is_rejected():
    for window in ((ts(1, 0), ts(0, 0)), (ts(1, 0), None), (None, ts(0, 0))):
        with pytest.raises(ValueError, match="window start is after window end"):
            Timeline((intake(0, 8),), window)
        with pytest.raises(ValueError, match="window start is after window end"):
            Timeline.build([intake(0, 8)], window)


def test_direct_timeline_is_sorted_before_gaps_are_measured():
    line = Timeline((intake(0, 12), intake(0, 0)), (ts(0, 0), ts(1, 0)))
    verdict = check(parse_mtc("6 hour apart"), line)
    assert verdict.status is VerdictStatus.SATISFIED, verdict.explanation


def test_direct_timeline_drops_intakes_outside_its_window():
    line = Timeline((intake(3, 8),), (ts(0, 0), ts(1, 0)))
    assert line.events == ()
    verdict = check(parse_mtc("before 9 am"), line)
    assert (verdict.status, verdict.explanation) == (VerdictStatus.INDETERMINATE, "no intake events in window")


def test_events_at_one_instant_explain_alike_in_any_input_order():
    # 08:00+00:00 and 13:00+05:00 are one instant; the earlier offset sorts first.
    first = TimelineEvent("intake", "m", datetime(2026, 3, 2, 8, 0, tzinfo=UTC))
    second = TimelineEvent("intake", "m", datetime(2026, 3, 2, 13, 0, tzinfo=timezone(timedelta(hours=5))))
    verdicts = [check(parse_mtc("6 hour apart"), Timeline(events)) for events in ((first, second), (second, first))]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].status is VerdictStatus.VIOLATED
    assert "between intake 'm' at 2026-03-02T08:00:00+00:00 and intake 'm' at 2026-03-02T13:00:00+05:00" in (
        verdicts[0].explanation
    )


def test_direct_timeline_defaults_an_open_window_to_the_event_span():
    events = (intake(1, 8), intake(0, 8), intake(0, 20))
    for line in (Timeline(events), Timeline(events, (None, None))):
        assert line.window == (ts(0, 8), ts(1, 8))
        assert check(parse_mtc("2 times day"), line).status is VerdictStatus.SATISFIED


_bounds = st.one_of(st.none(), st.integers(-60, 3000).map(lambda m: DAY0 + timedelta(minutes=m)))
_events = st.lists(
    st.builds(
        lambda kind, name, minute, zone: TimelineEvent(kind, name, (DAY0 + timedelta(minutes=minute)).astimezone(zone)),
        st.sampled_from(("intake", "intake", "activity")),
        st.sampled_from(("medication", "eating", "sleep")),
        st.integers(0, 96).map(lambda m: 30 * m),
        st.sampled_from(ZONES),
    ),
    max_size=10,
)


def _outcome(make):
    try:
        return make()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(events=_events, window=st.tuples(_bounds, _bounds), mtc=_mtcs, cfg=_configs, data=st.data())
def test_constructor_and_build_agree_for_any_event_order(events, window, mtc, cfg, data):
    built = _outcome(lambda: Timeline.build(events, window))
    direct = _outcome(lambda: Timeline(tuple(data.draw(st.permutations(events))), window))
    assert direct == built
    if isinstance(built, Timeline):
        assert check(mtc, direct, cfg) == check(mtc, built, cfg)


def _reference_sort_and_clip(events, window):
    """The events a timeline keeps, sorted and clipped by comparing aware datetimes."""
    ordered = sorted(events, key=lambda e: (e.timestamp, e.timestamp.utcoffset(), e.kind, e.name))
    start = window[0] if window[0] is not None else ordered[0].timestamp
    end = window[1] if window[1] is not None else ordered[-1].timestamp
    return [e for e in ordered if start <= e.timestamp <= end]


def _shown(event):
    return event.kind, event.name, event.timestamp.isoformat()


#: Instants one microsecond apart this far out round to one float timestamp.
FAR = datetime(9000, 1, 1, tzinfo=UTC)


@st.composite
def _timelines_in_many_offsets(draw):
    base, step = draw(st.sampled_from([(DAY0, timedelta(minutes=30)), (FAR, timedelta(microseconds=1))]))

    def at(n, zone):
        return (base + n * step).astimezone(zone)

    events = draw(st.lists(
        st.builds(lambda kind, name, n, zone: TimelineEvent(kind, name, at(n, zone)),
                  st.sampled_from(("intake", "activity")), st.sampled_from(("eating", "sleep")),
                  st.integers(0, 8), st.sampled_from(ZONES)),
        max_size=12,
    ))
    bound = st.one_of(st.none(), st.builds(at, st.integers(-1, 9), st.sampled_from(ZONES)))
    return events, draw(st.tuples(bound, bound))


@settings(max_examples=300, deadline=None)
@given(_timelines_in_many_offsets())
def test_timeline_sorts_and_clips_as_comparing_datetimes_would(case):
    events, window = case
    line = _outcome(lambda: Timeline(tuple(events), window))
    if isinstance(line, Timeline):
        # isoformat keeps the offset, which equality of aware datetimes ignores
        assert [_shown(e) for e in line.events] == [_shown(e) for e in _reference_sort_and_clip(events, window)]


#: Asked-for names: canonical ones, aliases, other spellings, and names never observed.
_ASKED = ("eating", "meal", "Eating ", "sleep", "bedtime", "exercise", "medication", "swimming", "")


@st.composite
def _indexed_timelines(draw):
    """A ``random_timeline``, or intakes and activities under alias names in mixed
    UTC offsets (some intakes named like an activity), with an open or closed window."""
    if draw(st.booleans()):
        return random_timeline(draw(st.randoms(use_true_random=False)))
    events = draw(st.lists(
        st.builds(lambda kind, name, minute, zone: TimelineEvent(kind, name, (DAY0 + timedelta(minutes=minute)).astimezone(zone)),
                  st.sampled_from(EVENT_KINDS), st.sampled_from(("medication", "eating", "meal", "Sleep", "bedtime")),
                  st.integers(0, 3 * 1440), st.sampled_from(ZONES)),
        min_size=1, max_size=12,
    ))
    bounds = st.lists(st.integers(-60, 4000).map(lambda m: DAY0 + timedelta(minutes=m)), min_size=2, max_size=2)
    window = draw(st.one_of(st.just((None, None)), bounds.map(lambda pair: tuple(sorted(pair)))))
    return Timeline(tuple(draw(st.permutations(events))), window)


def _same_events(got, want) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def _answers_as_a_scan(line: Timeline) -> None:
    assert _same_events(line.intakes(), tuple(e for e in line.events if e.kind == "intake"))
    for name in _ASKED:
        wanted = normalize_activity(name)
        scan = tuple(e for e in line.events if e.kind == "activity" and e.name == wanted)
        assert _same_events(line.activities(name), scan), name


@settings(max_examples=300, deadline=None)
@given(_indexed_timelines(), st.data())
def test_the_index_answers_as_a_scan_of_the_events_and_stays_out_of_equality(line, data):
    _answers_as_a_scan(line)
    twin = Timeline(tuple(data.draw(st.permutations(line.events))), line.window)
    assert twin == line and hash(twin) == hash(line) and repr(twin) == repr(line)
    assert repr(line) == f"Timeline(events={line.events!r}, window={line.window!r})"
    assert [f.name for f in fields(Timeline)] == ["events", "window"]
    back = pickle.loads(pickle.dumps(line))
    assert back == line and hash(back) == hash(line)
    _answers_as_a_scan(back)


def test_events_in_two_offsets_build_nearly_as_fast_as_in_one():
    plus2 = timezone(timedelta(hours=2))
    instants = [DAY0 + timedelta(minutes=7 * i) for i in range(50_000)]
    random.Random(0).shuffle(instants)
    one_zone = tuple(TimelineEvent("intake", "m", t) for t in instants)
    two_zones = tuple(TimelineEvent("intake", "m", t.astimezone(plus2) if i % 2 else t) for i, t in enumerate(instants))

    def fastest(events):
        times = []
        for _ in range(3):
            began = time.perf_counter()
            Timeline(events)
            times.append(time.perf_counter() - began)
        return min(times)

    one, two = fastest(one_zone), fastest(two_zones)
    assert two < 3 * one, f"two offsets took {two:.3f} s, one offset {one:.3f} s"


def test_empty_timeline_needs_window():
    for make in (lambda: Timeline.build([]), lambda: Timeline(()), lambda: Timeline((), (ts(0, 0), None))):
        with pytest.raises(ValueError, match="an empty timeline needs an explicit window"):
            make()
    line = Timeline.build([], (ts(0, 0), ts(1, 0)))
    assert line.events == ()


def test_load_timeline(tmp_path):
    path = tmp_path / "events.jsonl"
    rows = [
        {"kind": "intake", "name": "metformin", "timestamp": "2026-03-02T08:00:00+00:00"},
        {"kind": "activity", "name": "eating", "timestamp": "2026-03-02T08:30:00Z"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    line = load_timeline(path)
    assert len(line.events) == 2
    assert line.events[1].timestamp == datetime(2026, 3, 2, 8, 30, tzinfo=UTC)


def test_load_timeline_requires_timezone(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        json.dumps({"kind": "intake", "name": "x", "timestamp": "2026-03-02T08:00:00"}),
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="timezone"):
        load_timeline(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ('["x"]', "must be a JSON object"),
        ('{"kind": "intake", "name": "m", "timestamp": 5}', "ISO-8601 string"),
        ('{"kind": 5, "name": "m", "timestamp": "2026-03-02T08:00:00Z"}', "kind must be"),
        ('{"kind": ["intake"], "name": "m", "timestamp": "2026-03-02T08:00:00Z"}', "kind must be"),
        ('{"kind": "intake", "name": 7, "timestamp": "2026-03-02T08:00:00Z"}', "name must be a string"),
        ('{"kind": "intake", "name": ["m"], "timestamp": "2026-03-02T08:00:00Z"}', "name must be a string"),
        pytest.param("[" * 100_000, "maximum recursion depth", id="deep-nesting"),
    ],
)
def test_load_timeline_rejects_malformed_records(tmp_path, line, message):
    path = tmp_path / "events.jsonl"
    good = json.dumps({"kind": "intake", "name": "m", "timestamp": "2026-03-02T07:00:00Z"})
    path.write_text(good + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{path}:2: bad timeline record: .*{message}"):
        load_timeline(path)


def test_random_timeline_generator_respects_window():
    rng = random.Random(1)
    line = random_timeline(rng)
    start, end = line.window
    assert start == BASE_TS
    assert all(start <= e.timestamp <= end for e in line.events)
