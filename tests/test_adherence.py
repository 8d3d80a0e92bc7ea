"""Verdict semantics for constraints over event timelines."""

from __future__ import annotations

import json
import pickle
import random
import time
from datetime import datetime, timedelta, timezone, tzinfo

import pytest
from hypothesis import given, settings, strategies as st

from mtckit import grammar
from mtckit.adherence import (
    Timeline,
    TimelineEvent,
    ToleranceConfig,
    VerdictStatus,
    check,
    load_timeline,
)
from mtckit.grammar import parse_mtc, with_negated

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


def test_interval_for_and_single_intake_indeterminate():
    line = timeline([intake(0, 8), intake(0, 16)], start=ts(0, 0), end=ts(1, 0))
    assert check(parse_mtc("3 day for"), line).status is VerdictStatus.INDETERMINATE
    solo = timeline([intake(0, 8)], start=ts(0, 0), end=ts(1, 0))
    assert check(parse_mtc("6 hour apart"), solo).status is VerdictStatus.INDETERMINATE


def test_no_intakes_is_indeterminate():
    line = timeline([activity("eating", 0, 12)], start=ts(0, 0), end=ts(1, 0))
    assert check(parse_mtc("3 times day"), line).status is VerdictStatus.INDETERMINATE


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
_MINUTES = {grammar.TimeUnit.MINUTE: 1, grammar.TimeUnit.HOUR: 60, grammar.TimeUnit.DAY: 1440}


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


@st.composite
def cases(draw):
    """(constraint, timeline, tolerances) with timestamps that collide and sit
    on the tolerance, horizon and period edges the verdict turns on.

    Intakes lie on a 10-minute, hourly or half-day grid from the window start,
    sometimes as a regular schedule; most intakes get an activity a minute
    either side of, or exactly on, an edge of the constraint. Events carry
    mixed UTC offsets, and half the timelines are built directly, unsorted
    and unclipped."""
    mtc, cfg = draw(_mtcs), draw(_configs)
    step = draw(st.sampled_from((10, 60, 720)))
    if draw(st.booleans()):
        first = draw(st.integers(0, 3))
        slots = list(range(first, first + draw(st.integers(0, 8))))
    else:
        slots = draw(st.lists(st.integers(0, 72), max_size=8))
    names = ALIASES[getattr(mtc, "activity", "eating")]
    placed = [("intake", "medication", step * slot) for slot in slots]
    for slot in slots:
        if draw(st.integers(0, 4)):
            edge = draw(st.sampled_from(_edges(mtc, cfg))) + draw(st.sampled_from((-1, 0, 0, 1)))
            placed.append(("activity", draw(st.sampled_from(names)), step * slot + edge))
    for _ in range(draw(st.integers(0, 2))):
        placed.append(("activity", "exercise", 10 * draw(st.integers(0, 432))))
    events = [
        TimelineEvent(kind, name, (DAY0 + timedelta(minutes=minute)).astimezone(draw(st.sampled_from(ZONES))))
        for kind, name, minute in draw(st.permutations(placed))
    ]
    window = (DAY0, DAY0 + timedelta(minutes=step * draw(st.integers(0, 72))))
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


# ------------------------------------------------------------ timeline io


def test_event_validation_and_name_normalization():
    event = TimelineEvent("activity", "Sleeping", ts(0, 22))
    assert event.name == "sleep"
    with pytest.raises(ValueError):
        TimelineEvent("nap", "sleep", ts(0, 22))
    for name in (5, ["sleep"], None):
        with pytest.raises(ValueError, match="name must be a string"):
            TimelineEvent("activity", name, ts(0, 22))


class _NoOffset(tzinfo):
    def utcoffset(self, dt):
        return None


def test_event_rejects_naive_timestamp():
    at = datetime(2026, 3, 2, 8, 0)
    for naive in (at, at.replace(tzinfo=_NoOffset()), at.isoformat() + "+00:00"):
        with pytest.raises(ValueError, match="must be a datetime with a timezone"):
            TimelineEvent("intake", "m", naive)


def test_build_rejects_window_bound_without_timezone():
    event = TimelineEvent("intake", "m", datetime(2026, 3, 2, 8, 0, tzinfo=timezone.utc))
    naive = datetime(2026, 3, 2)
    for window in ((naive, None), (None, naive), (naive.replace(tzinfo=_NoOffset()), None), ("2026-03-02", None)):
        with pytest.raises(ValueError, match="window bound must be a datetime with a timezone"):
            Timeline.build([event], window)


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
    line = Timeline.build(events, (ts(0, 0), ts(3, 0)))
    assert [e.timestamp for e in line.events] == [ts(0, 8), ts(2, 8)]


def test_empty_timeline_needs_window():
    with pytest.raises(ValueError):
        Timeline.build([])
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
