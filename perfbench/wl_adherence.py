"""The ``adherence-cohort`` workload: ``adherence.check`` over a patient cohort.

Each patient has a timeline of intakes plus the activity events its
regimen needs, and a regimen of 2-4 constraints covering all seven forms.
Most timelines span 1-3 weeks; every twentieth spans 60-90 days with three
or four doses a day. Each constraint's expected verdict is planted when
the constraint is made: its parameters are chosen from the generated
intakes so that every quantity the verdict depends on stays well clear of
its threshold (at least 15 minutes from a clock-window edge, 30 minutes
from an interval bound, 40 minutes beyond the dependency tolerance).

Consistency constraints (type 6) follow the semantics the roadmap asks
for: an intake must fall within the consistency tolerance of its clock
anchor, and ``each week`` compares intakes week by week. The package
checks only the spread of clock times, so a clock-anchored or ``each
week`` constraint can come out wrong at the seed commit. Such checks carry
``known_defect``; a wrong verdict on one of them is counted in
``wrong_share`` and attributed to that defect, a wrong verdict anywhere
else makes the run incorrect.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import mtckit.adherence as adherence
from mtckit import grammar
from mtckit.adherence import TimelineEvent
from mtckit.grammar import (
    SAME_TIME,
    ClockTime,
    Consistency,
    DayPart,
    DefinitiveDependency,
    DependencyPrep,
    Frequency,
    ImpreciseDependency,
    Interval,
    IntervalPrep,
    OccurrencePrep,
    TimeDependency,
    TimeOfDay,
    TimeUnit,
)

from harness import Pass, latency_summary, timed_call
from tracing import NullTracer

#: A Monday, so weekly periods start on Mondays.
BASE = datetime(2026, 1, 5, tzinfo=timezone.utc)
#: The window runs this far past the last day, so late activity events stay
#: inside it; it is shorter than a day, so no extra period is complete.
TAIL = timedelta(hours=4)
COHORT = {"full": 2000, "small": 21}
LONG_EVERY = 20
LONG_DAYS = (60, 75, 90)
#: Constraint types on long timelines, cycled so every seed has the same mix.
LONG_TYPES = (1, 2, 3, 4, 5, 7)

EVENT_NAMES = {
    "eating": ("eating", "meal", "food"),
    "sleep": ("sleep", "bedtime", "sleeping"),
    "exercise": ("exercise", "exercising"),
}
UNOBSERVED = ("swimming", "walking", "school")
DAY_PART_WINDOWS = {DayPart.MORNING: (300, 720), DayPart.NOON: (660, 780), DayPart.EVENING: (1020, 1320)}

SATISFIED, VIOLATED, INDETERMINATE = "satisfied", "violated", "indeterminate"


@dataclass
class Plan:
    kind: str  # daily | erratic | weekly | weekly-erratic
    days: int
    per_day: int
    slots: list[int]  # planned clock minutes of the daily doses (daily kinds)
    intakes: list[datetime]

    @property
    def weekly(self) -> bool:
        return self.kind.startswith("weekly")


@dataclass
class Check:
    id: str
    patient: int
    mtc: grammar.Mtc
    expected: str
    known_defect: bool
    long: bool


def _minutes(ts: datetime) -> int:
    return ts.hour * 60 + ts.minute


def _clock(minutes: int) -> ClockTime:
    hour24, minute = divmod(minutes, 60)
    hour = hour24 % 12 or 12
    return ClockTime(hour, minute, "am" if hour24 < 12 else "pm")


def _grid(lo: float, hi: float, step: int = 5) -> list[int]:
    """Multiples of ``step`` within [lo, hi]."""
    return list(range(math.ceil(lo / step) * step, math.floor(hi / step) * step + 1, step))


def make_plan(rng: random.Random, kind: str, per_day: int, days: int) -> Plan:
    intakes = []
    slots: list[int] = []
    if kind in ("daily", "erratic"):
        if per_day == 1:
            lo, hi = (570, 1110) if kind == "erratic" else (360, 1260)
            slots = [rng.choice(_grid(lo, hi))]
        else:
            first = rng.choice(_grid(360, 1305 - 240 * (per_day - 1)))
            spacing = rng.choice(_grid(240, min(360, (1305 - first) // (per_day - 1))))
            slots = [first + j * spacing for j in range(per_day)]
        shifts = [0] * days
        if kind == "erratic":
            shifts = [rng.choice((-180, -90, 0, 90, 180)) for _ in range(days)]
            shifts[0] = -180
            shifts[rng.randrange(1, days)] = 180
        for day in range(days):
            for slot in slots:
                minute = slot + shifts[day] + rng.randint(-10, 10)
                intakes.append(BASE + timedelta(days=day, minutes=minute))
    else:
        slot = rng.choice(_grid(420, 1200))
        slots = [slot]
        weekday = rng.randrange(7)
        weekdays = [weekday] * (days // 7)
        if kind == "weekly-erratic":
            weekdays = [rng.randrange(7) for _ in range(days // 7)]
            weekdays[0] = rng.randrange(3)
            weekdays[1] = rng.randrange(weekdays[0] + 2, 7)
        for week, day in enumerate(weekdays):
            intakes.append(BASE + timedelta(days=7 * week + day, minutes=slot + rng.randint(-10, 10)))
    return Plan(kind, days, per_day, slots, sorted(intakes))


def _events(rng: random.Random, activity: str, times: list[datetime]) -> list[TimelineEvent]:
    return [TimelineEvent("activity", rng.choice(EVENT_NAMES[activity]), at) for at in times]


def plant(rng, mtc_type: int, target: str, plan: Plan, free: list[str], events: list):
    """(constraint, expected verdict, known_defect) of one type, or None if infeasible.

    Activity events a dependency constraint needs are appended to ``events``.
    """
    intakes = plan.intakes
    if mtc_type in (1, 4):
        dp = rng.choice((DependencyPrep.BEFORE, DependencyPrep.AFTER))
        sign = 1 if dp is DependencyPrep.BEFORE else -1
        if target == INDETERMINATE or not free:
            activity = rng.choice(UNOBSERVED)
            if mtc_type == 1:
                return DefinitiveDependency(30, TimeUnit.MINUTE, dp, activity), INDETERMINATE, False
            return ImpreciseDependency(dp, activity), INDETERMINATE, False
        activity = free.pop()
        # The unmatched intake sits in the last quarter, so a violated check
        # scans about as far as a satisfied one whatever the seed.
        bad = rng.randrange(len(intakes) * 3 // 4, len(intakes)) if target == VIOLATED else None
        if mtc_type == 1:
            unit, n = rng.choice(((TimeUnit.MINUTE, 15), (TimeUnit.MINUTE, 30), (TimeUnit.MINUTE, 45),
                                  (TimeUnit.MINUTE, 90), (TimeUnit.HOUR, 1), (TimeUnit.HOUR, 2)))
            offset = n * (60 if unit is TimeUnit.HOUR else 1)
            times = []
            for j, ts in enumerate(intakes):
                minutes = sign * offset + rng.randint(-3, 3)
                if j == bad:
                    minutes += rng.choice((-1, 1)) * rng.randint(40, 80)
                times.append(ts + timedelta(minutes=minutes))
            events += _events(rng, activity, times)
            return DefinitiveDependency(n, unit, dp, activity), target, False
        times = [ts + timedelta(minutes=sign * rng.randint(20, 100))
                 for j, ts in enumerate(intakes) if j != bad]
        events += _events(rng, activity, times)
        return ImpreciseDependency(dp, activity), target, False

    if mtc_type == 2:
        if plan.weekly:
            options = {SATISFIED: [(1, TimeUnit.WEEK)], VIOLATED: [(2, TimeUnit.WEEK), (1, TimeUnit.DAY)]}
        else:
            k = plan.per_day
            options = {
                SATISFIED: [(k, TimeUnit.DAY), (7 * k, TimeUnit.WEEK)],
                VIOLATED: [(k + 1, TimeUnit.DAY), (7 * k + 1, TimeUnit.WEEK), (7 * k - 1, TimeUnit.WEEK)]
                + ([(k - 1, TimeUnit.DAY)] if k > 1 else []),
            }
        if plan.days > 30:  # long timelines count per day, the costly scan
            options = {t: [o for o in opts if o[1] is TimeUnit.DAY] for t, opts in options.items()}
        n, unit = rng.choice(options[target])
        return Frequency(n, unit), target, False

    if mtc_type == 3:
        if target == INDETERMINATE:
            return Interval(rng.choice((7, 10, 14)), TimeUnit.DAY, IntervalPrep.FOR), INDETERMINATE, False
        gaps = [(b - a).total_seconds() / 60 for a, b in zip(intakes, intakes[1:])]
        g_min, g_max = min(gaps), max(gaps)
        unit, size, margin = (TimeUnit.DAY, 1440, 720) if plan.weekly else (TimeUnit.HOUR, 60, 30)
        ranges = {
            (IntervalPrep.APART, SATISFIED): (1, math.floor((g_min - margin) / size)),
            (IntervalPrep.APART, VIOLATED): (math.ceil((g_min + margin) / size), math.ceil((g_min + margin) / size) + 3),
            (IntervalPrep.WITHIN, SATISFIED): (math.ceil((g_max + margin) / size), math.ceil((g_max + margin) / size) + 3),
            (IntervalPrep.WITHIN, VIOLATED): (1, math.floor((g_max - margin) / size)),
        }
        choices = [(ip, lo, hi) for (ip, t), (lo, hi) in ranges.items() if t == target and 1 <= lo <= hi]
        if not choices:
            return None
        ip, lo, hi = rng.choice(choices)
        return Interval(rng.randint(lo, hi), unit, ip), target, False

    minutes = [_minutes(ts) for ts in intakes]
    lo, hi = min(minutes), max(minutes)
    if mtc_type == 5:
        ranges = {
            (DependencyPrep.BEFORE, SATISFIED): (hi + 30, min(hi + 180, 1435)),
            (DependencyPrep.BEFORE, VIOLATED): (max(5, hi - 180), hi - 30),
            (DependencyPrep.AFTER, SATISFIED): (max(0, lo - 180), lo - 30),
            (DependencyPrep.AFTER, VIOLATED): (lo + 30, min(1435, lo + 180)),
        }
        choices = [(dp, _grid(a, b)) for (dp, t), (a, b) in ranges.items() if t == target and _grid(a, b)]
        if not choices:
            return None
        dp, grid = rng.choice(choices)
        return TimeDependency(dp, _clock(rng.choice(grid))), target, False

    if mtc_type == 6:
        # Only single-dose-a-day and weekly plans: with several doses a day
        # "the same time each day" has no unambiguous verdict.
        if plan.per_day > 1:
            return None
        p = rng.choice((OccurrencePrep.AT, OccurrencePrep.IN))
        unit = TimeUnit.WEEK if plan.weekly else TimeUnit.DAY
        slot = plan.slots[0]
        near = _clock(rng.choice(_grid(max(0, slot - 15), min(1435, slot + 15))))
        far_grid = _grid(max(0, slot - 300), slot - 180) + _grid(slot + 180, min(1435, slot + 300))
        far = _clock(rng.choice(far_grid))
        options = {SATISFIED: [], VIOLATED: [far]}
        if plan.kind == "erratic":
            options[VIOLATED] = [SAME_TIME, near]
        elif plan.kind == "weekly-erratic":
            options = {SATISFIED: [near], VIOLATED: [SAME_TIME, far]}
        else:
            options[SATISFIED] = [SAME_TIME, near]
        if not options[target]:
            return None
        anchor = rng.choice(options[target])
        return Consistency(p, anchor, unit), target, anchor is not SAME_TIME or unit is TimeUnit.WEEK

    choices = []
    for part, (start, end) in DAY_PART_WINDOWS.items():
        inside = lo >= start + 15 and hi <= end - 15
        outside = lo <= start - 15 or hi >= end + 15
        if (target == SATISFIED and inside) or (target == VIOLATED and outside):
            choices.append(part)
    if not choices:
        return None
    return TimeOfDay(rng.choice((OccurrencePrep.AT, OccurrencePrep.IN)), rng.choice(choices)), target, False


def _flip(status: str) -> str:
    return {SATISFIED: VIOLATED, VIOLATED: SATISFIED}.get(status, status)


@dataclass
class Cohort:
    checks: list[Check]
    timelines: list[adherence.Timeline]
    plans: list[Plan]
    events: list[list]


def make_cohort(seed: int, scale: str) -> Cohort:
    """Plans, planted constraints and events for the whole cohort (no timelines yet)."""
    rng = random.Random(seed)
    checks: list[Check] = []
    plans: list[Plan] = []
    all_events: list[list] = []
    position = 0
    long_seen = 0
    for patient in range(COHORT[scale]):
        long = patient % LONG_EVERY == LONG_EVERY - 1
        if long:
            types = [LONG_TYPES[(2 * long_seen + c) % len(LONG_TYPES)] for c in range(3)]
            plan = make_plan(rng, "daily", 3 + long_seen % 2, LONG_DAYS[long_seen % len(LONG_DAYS)])
            long_seen += 1
        else:
            size = 2 + patient % 3
            types = [1 + (position + c) % 7 for c in range(size)]
            position += size
            if 6 in types:
                kind = rng.choice(("daily", "daily", "erratic", "weekly", "weekly-erratic"))
            else:
                kind = rng.choice(("daily", "daily", "daily", "erratic", "weekly"))
            per_day = rng.choice((1, 2, 3)) if kind == "daily" and 6 not in types else 1
            days = rng.choice((14, 21)) if kind.startswith("weekly") else rng.randint(7, 14)
            plan = make_plan(rng, kind, per_day, days)
        events = [TimelineEvent("intake", "medication", ts) for ts in plan.intakes]
        free = list(EVENT_NAMES)
        rng.shuffle(free)
        for index, mtc_type in enumerate(types):
            target = (SATISFIED, VIOLATED)[(len(checks)) % 2]
            if not long and mtc_type in (1, 3, 4) and rng.random() < 0.15:
                target = INDETERMINATE
            planted = plant(rng, mtc_type, target, plan, free, events)
            if planted is None:
                planted = plant(rng, mtc_type, _flip(target), plan, free, events)
            if planted is None:
                planted = plant(rng, 2, target if target != INDETERMINATE else SATISFIED, plan, free, events)
            mtc, expected, defect = planted
            if rng.random() < 0.2:
                mtc = grammar.with_negated(mtc)
                expected = _flip(expected)
            checks.append(Check(f"p{patient:04d}-c{index}", patient, mtc, expected, defect, long))
        plans.append(plan)
        all_events.append(events)
    return Cohort(checks, [], plans, all_events)


def window(plan: Plan, days: int | None = None):
    return (BASE, BASE + timedelta(days=plan.days if days is None else days) + TAIL)


def build_timelines(cohort: Cohort) -> None:
    cohort.timelines = [
        adherence.Timeline.build(events, window(plan)) for plan, events in zip(cohort.plans, cohort.events)
    ]


def setup(seed: int, scale: str, _directory) -> Cohort:
    cohort = make_cohort(seed, scale)
    build_timelines(cohort)
    return cohort


def sweep(cohort: Cohort, tracer, timelines=None, only_long=False) -> Pass:
    """Run every check once, timing each call; the observed verdicts are the pass data."""
    timelines = timelines or cohort.timelines
    latencies: list[int] = []
    observed: list[str] = []
    failed = 0
    check = adherence.check
    begin = time.perf_counter_ns()
    for item in cohort.checks:
        if only_long and not item.long:
            continue
        span = tracer.open("harness.check", item.id)
        start = time.perf_counter_ns()
        try:
            status = check(item.mtc, timelines[item.patient]).status.value
        except Exception as exc:  # reported as a failed check
            status = f"raised {type(exc).__name__}"
            failed += 1
        latencies.append(time.perf_counter_ns() - start)
        tracer.close(span)
        observed.append(status)
    return Pass(time.perf_counter_ns() - begin, len(observed), failed, latencies, observed)


def half_length_timelines(cohort: Cohort) -> list:
    """The same timelines cut to half their days (long patients only are used)."""
    return [
        adherence.Timeline.build(events, window(plan, plan.days // 2))
        for plan, events in zip(cohort.plans, cohort.events)
    ]


def traffic(cohort: Cohort) -> dict:
    days = [plan.days for plan in cohort.plans]
    intakes = [len(plan.intakes) for plan in cohort.plans]
    expected = {}
    for item in cohort.checks:
        expected[item.expected] = expected.get(item.expected, 0) + 1
    types = {}
    for item in cohort.checks:
        t = grammar.mtc_type(item.mtc)
        types[t] = types.get(t, 0) + 1
    return {
        "patients": len(cohort.plans),
        "checks_per_sweep": len(cohort.checks),
        "long_patients": sum(1 for d in days if d >= 60),
        "long_check_share": sum(1 for c in cohort.checks if c.long) / len(cohort.checks),
        "median_days": sorted(days)[len(days) // 2],
        "max_days": max(days),
        "median_intakes": sorted(intakes)[len(intakes) // 2],
        "max_intakes": max(intakes),
        "events_total": sum(len(t.events) for t in cohort.timelines),
        "checks_by_type": dict(sorted(types.items())),
        "expected_verdicts": dict(sorted(expected.items())),
        "known_defect_checks": sum(1 for c in cohort.checks if c.known_defect),
        "waits_on_service": False,
    }


class AdherenceCohort:
    name = "adherence-cohort"
    roots = {"harness.check"}
    scaled = True

    def setup(self, seed, scale, directory):
        return setup(seed, scale, directory)

    def clients(self, inputs):
        return []

    def run_pass(self, inputs, tracer, tag, directory):
        return sweep(inputs, tracer)

    def oracle_jobs(self, inputs, passes, corrupt):
        return []

    def record_checks(self, cohort, passes, corrupt):
        """Compare every observed verdict with its planted expectation."""
        checked = wrong = explained = 0
        problems = []
        for index, p in enumerate(passes):
            observed = p.data
            if corrupt and index == 0:
                first = cohort.checks[0]
                observed[0] = VIOLATED if first.expected != VIOLATED else SATISFIED
            for item, status in zip(cohort.checks, observed):
                if status.startswith("raised"):
                    continue  # counted as failed
                checked += 1
                if status != item.expected:
                    wrong += 1
                    explained += item.known_defect
                    if index == 0 and (not item.known_defect or len(problems) < 3):
                        problems.append(
                            f"{item.id} {grammar.serialize(item.mtc)!r}: {status}, expected {item.expected}"
                            + (" (known consistency defect)" if item.known_defect else "")
                        )
        return checked, wrong, explained, problems

    def summarize(self, cohort, passes, outcome):
        latency = latency_summary(passes)
        checks_per_s = statistics.median(p.ops / (p.scaled(p.ns) / 1e9) for p in passes)
        outcome.detail["checks_per_s"] = (checks_per_s, "1/s")
        outcome.detail["check_p50_ms"] = (latency["p50_ms"], "ms")
        outcome.detail["check_p99_ms"] = (latency["tail_ms"], "ms")
        outcome.detail["check_samples"] = (latency["samples"], "count")
        outcome.end_to_end["throughput_per_s"] = checks_per_s
        outcome.end_to_end["latency_p50_ms"] = latency["p50_ms"]
        outcome.end_to_end["latency_tail_ms"] = latency["tail_ms"]
        outcome.traffic.update(traffic(cohort))
        outcome.traffic["sweeps"] = len(passes)

    def trace_extra(self, cohort, passes):
        """``adherence.scaling_exponent``: long-timeline checks, full against half length."""
        half = half_length_timelines(cohort)
        full_ns = statistics.median(timed_call(lambda: sweep(cohort, NullTracer(), only_long=True)) for _ in range(3))
        half_ns = statistics.median(
            timed_call(lambda: sweep(cohort, NullTracer(), half, only_long=True)) for _ in range(3)
        )
        return {"adherence.scaling_exponent": math.log2(full_ns / half_ns)}

    def traced_extra(self, cohort, traced):
        return {}
