"""Checking a constraint against a timestamped intake/activity timeline.

Given a parsed constraint and a patient timeline (medication intakes and
recognized activities within an evaluation window), :func:`check` returns
``satisfied``, ``violated``, or ``indeterminate`` with a human-readable
explanation naming the witnessing events or the missing data.

These verdict semantics are this toolkit's interpretation of constraint
violation; the constraint grammar itself does not define them. Every
threshold is configuration with stated defaults (:class:`ToleranceConfig`),
and anything not decidable from the timeline alone (regimen duration,
unobserved activities, windows shorter than one period) is reported as
``indeterminate`` rather than guessed.

Clock-time comparisons use each event's own local wall clock, so a
traveling patient's 9 am intake stays a 9 am intake. A consistency
constraint with a clock anchor (``at 9 am each day``) requires every
intake's clock time within the consistency tolerance of the anchor,
measured around the 24-hour dial; ``the same time each day`` bounds the
spread of the intakes' clock times, and ``the same time each week`` the
spread of their weekday-and-clock times.

Every check costs O(n log m) for n intakes and m matching events: it sorts
the timestamps it searches once (linear on the sorted events that
:meth:`Timeline.build` yields) and bisects them per intake or per period.
Intakes are walked in timeline order, so the first violating intake named
in an explanation does not depend on how the search is done.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, time, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable

from .grammar import (
    ClockTime,
    Consistency,
    DayPart,
    DefinitiveDependency,
    DependencyPrep,
    Frequency,
    ImpreciseDependency,
    Interval,
    IntervalPrep,
    Mtc,
    TimeDependency,
    TimeOfDay,
    TimeUnit,
    serialize,
)
from .normalize import normalize_activity

EVENT_KINDS = ("intake", "activity")

MINUTES_PER_DAY = 24 * 60

UNIT_DURATION = {
    TimeUnit.MINUTE: timedelta(minutes=1),
    TimeUnit.HOUR: timedelta(hours=1),
    TimeUnit.DAY: timedelta(days=1),
    TimeUnit.WEEK: timedelta(weeks=1),
}


class VerdictStatus(str, Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    explanation: str

    def __post_init__(self) -> None:
        if not self.explanation:
            raise ValueError("verdict explanation must be nonempty")


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """A medication intake or a recognized patient activity.

    Slotted, and its name comes from the memoized :func:`normalize_activity`,
    so events with the same activity share one name string.
    """

    kind: str
    name: str
    timestamp: datetime

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"kind must be one of {EVENT_KINDS}, got {self.kind!r}")
        if not isinstance(self.name, str):
            raise ValueError(f"event name must be a string, got {self.name!r}")
        ts = self.timestamp
        # A fixed-offset ``timezone`` always has an offset; the utcoffset() call costs more.
        if not isinstance(ts, datetime) or type(ts.tzinfo) is not timezone and ts.utcoffset() is None:
            raise ValueError(f"event timestamp must be a datetime with a timezone, got {ts!r}")
        object.__setattr__(self, "name", normalize_activity(self.name))

    def minutes_into_day(self) -> int:
        return self.timestamp.hour * 60 + self.timestamp.minute


@dataclass(frozen=True)
class Timeline:
    """Events sorted ascending, clipped to the evaluation window."""

    events: tuple[TimelineEvent, ...]
    window: tuple[datetime, datetime]

    @classmethod
    def build(
        cls,
        events: Iterable[TimelineEvent],
        window: tuple[datetime | None, datetime | None] = (None, None),
    ) -> "Timeline":
        """Sort events, default the window to their span, drop events outside it.

        Raises ``ValueError`` for a window bound without a timezone.
        """
        ordered = sorted(events, key=lambda e: e.timestamp)
        if not ordered and (window[0] is None or window[1] is None):
            raise ValueError("an empty timeline needs an explicit window")
        for bound in window:
            if bound is not None and (not isinstance(bound, datetime) or bound.utcoffset() is None):
                raise ValueError(f"window bound must be a datetime with a timezone, got {bound!r}")
        start = window[0] if window[0] is not None else ordered[0].timestamp
        end = window[1] if window[1] is not None else ordered[-1].timestamp
        if start > end:
            raise ValueError("window start is after window end")
        kept = tuple(e for e in ordered if start <= e.timestamp <= end)
        return cls(kept, (start, end))

    def intakes(self) -> tuple[TimelineEvent, ...]:
        return tuple(e for e in self.events if e.kind == "intake")

    def activities(self, name: str) -> tuple[TimelineEvent, ...]:
        wanted = normalize_activity(name)
        return tuple(e for e in self.events if e.kind == "activity" and e.name == wanted)


def parse_timestamp(value: str) -> datetime:
    """An ISO-8601 timestamp (``Z`` allowed) that must carry a timezone."""
    if not isinstance(value, str):
        raise ValueError(f"timestamp must be an ISO-8601 string, got {value!r}")
    parsed = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if parsed.tzinfo is None:
        raise ValueError(f"timestamp {value!r} has no timezone")
    return parsed


def load_timeline(
    path: str | Path, window: tuple[datetime | None, datetime | None] = (None, None)
) -> Timeline:
    """Read a timeline file: one JSON object per line with ``kind``, ``name``,
    and ``timestamp`` (ISO-8601 with timezone)."""
    events = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record must be a JSON object")
            events.append(
                TimelineEvent(record["kind"], record["name"], parse_timestamp(record["timestamp"]))
            )
        except (KeyError, ValueError, RecursionError) as exc:
            raise ValueError(f"{path}:{lineno}: bad timeline record: {exc}") from None
    return Timeline.build(events, window)


def _default_day_parts() -> dict[DayPart, tuple[time, time]]:
    return {
        DayPart.MORNING: (time(5, 0), time(12, 0)),
        DayPart.NOON: (time(11, 0), time(13, 0)),
        DayPart.EVENING: (time(17, 0), time(22, 0)),
    }


@dataclass(frozen=True)
class ToleranceConfig:
    """All adherence thresholds, with the documented defaults."""

    #: allowed slack around the exact offset of a definitive dependency
    dependency_tolerance: timedelta = timedelta(minutes=10)
    #: how far before/after an intake a matching activity may occur (type 4)
    imprecision_horizon: timedelta = timedelta(hours=2)
    #: maximum spread of intake clock times for ``the same time`` consistency,
    #: and maximum distance from the anchor for clock-anchored consistency
    consistency_tolerance: timedelta = timedelta(minutes=60)
    #: half-open local-time windows for the named day parts
    day_part_windows: dict[DayPart, tuple[time, time]] = field(default_factory=_default_day_parts)


DEFAULT_TOLERANCES = ToleranceConfig()


def _fmt(event: TimelineEvent) -> str:
    return f"{event.kind} {event.name!r} at {event.timestamp.isoformat()}"


def _check_frequency(mtc: Frequency, timeline: Timeline, intakes) -> Verdict:
    period = UNIT_DURATION[mtc.unit]
    times = sorted(e.timestamp for e in intakes)
    start, end = timeline.window
    period_start = start
    checked = 0
    while period_start + period <= end:
        period_end = period_start + period
        count = bisect_left(times, period_end) - bisect_left(times, period_start)
        if count != mtc.n:
            return Verdict(
                VerdictStatus.VIOLATED,
                f"period starting {period_start.isoformat()} has {count} intake(s), expected {mtc.n}",
            )
        checked += 1
        period_start = period_end
    if checked == 0:
        return Verdict(
            VerdictStatus.INDETERMINATE,
            f"window shorter than one full {mtc.unit.value}; no complete period to count",
        )
    return Verdict(
        VerdictStatus.SATISFIED,
        f"all {checked} complete {mtc.unit.value} period(s) have exactly {mtc.n} intake(s)",
    )


def _check_interval(mtc: Interval, intakes) -> Verdict:
    if mtc.ip is IntervalPrep.FOR:
        return Verdict(
            VerdictStatus.INDETERMINATE,
            "regimen duration ('for') is not derivable from an intake timeline",
        )
    if len(intakes) < 2:
        return Verdict(
            VerdictStatus.INDETERMINATE,
            f"{len(intakes)} intake(s) in window; need at least two to measure gaps",
        )
    bound = mtc.n * UNIT_DURATION[mtc.unit]
    for earlier, later in zip(intakes, intakes[1:]):
        gap = later.timestamp - earlier.timestamp
        if mtc.ip is IntervalPrep.APART and gap < bound:
            return Verdict(
                VerdictStatus.VIOLATED,
                f"gap of {gap} between {_fmt(earlier)} and {_fmt(later)} is under {bound}",
            )
        if mtc.ip is IntervalPrep.WITHIN and gap > bound:
            return Verdict(
                VerdictStatus.VIOLATED,
                f"gap of {gap} between {_fmt(earlier)} and {_fmt(later)} exceeds {bound}",
            )
    relation = "at least" if mtc.ip is IntervalPrep.APART else "at most"
    return Verdict(
        VerdictStatus.SATISFIED,
        f"all {len(intakes) - 1} consecutive gap(s) are {relation} {bound}",
    )


def _activity_times(timeline: Timeline, activity: str) -> list[datetime]:
    return sorted(e.timestamp for e in timeline.activities(activity))


def _check_definitive_dependency(
    mtc: DefinitiveDependency, timeline: Timeline, intakes, cfg: ToleranceConfig
) -> Verdict:
    times = _activity_times(timeline, mtc.activity)
    if not times:
        return Verdict(
            VerdictStatus.INDETERMINATE,
            f"no {mtc.activity!r} activity events observed in window",
        )
    offset = mtc.n * UNIT_DURATION[mtc.unit]
    tolerance = cfg.dependency_tolerance
    for intake in intakes:
        # "before eating" means the intake precedes the activity by the offset
        expected = (
            intake.timestamp + offset
            if mtc.dp is DependencyPrep.BEFORE
            else intake.timestamp - offset
        )
        # some activity lies in [expected - tolerance, expected + tolerance]
        i = bisect_left(times, expected - tolerance)
        if i == len(times) or times[i] > expected + tolerance:
            return Verdict(
                VerdictStatus.VIOLATED,
                f"{_fmt(intake)} has no {mtc.activity!r} event near {expected.isoformat()} "
                f"(tolerance {tolerance})",
            )
    return Verdict(
        VerdictStatus.SATISFIED,
        f"every intake has a {mtc.activity!r} event at the expected offset",
    )


def _check_imprecise_dependency(
    mtc: ImpreciseDependency, timeline: Timeline, intakes, cfg: ToleranceConfig
) -> Verdict:
    times = _activity_times(timeline, mtc.activity)
    if not times:
        return Verdict(
            VerdictStatus.INDETERMINATE,
            f"no {mtc.activity!r} activity events observed in window",
        )
    horizon = cfg.imprecision_horizon
    for intake in intakes:
        ts = intake.timestamp
        if mtc.dp is DependencyPrep.BEFORE:
            # some activity lies in (ts, ts + horizon]
            i = bisect_right(times, ts)
            ok = i < len(times) and times[i] <= ts + horizon
        else:
            # some activity lies in [ts - horizon, ts)
            i = bisect_left(times, ts - horizon)
            ok = i < len(times) and times[i] < ts
        if not ok:
            side = "after" if mtc.dp is DependencyPrep.BEFORE else "before"
            return Verdict(
                VerdictStatus.VIOLATED,
                f"{_fmt(intake)} has no {mtc.activity!r} event within {horizon} {side} it",
            )
    return Verdict(
        VerdictStatus.SATISFIED,
        f"every intake is {mtc.dp.value} a {mtc.activity!r} event within {horizon}",
    )


def _check_time_dependency(mtc: TimeDependency, intakes) -> Verdict:
    bound = mtc.time.minutes_into_day()
    for intake in intakes:
        minutes = intake.minutes_into_day()
        ok = minutes < bound if mtc.dp is DependencyPrep.BEFORE else minutes > bound
        if not ok:
            return Verdict(
                VerdictStatus.VIOLATED,
                f"{_fmt(intake)} is not strictly {mtc.dp.value} {mtc.time}",
            )
    return Verdict(
        VerdictStatus.SATISFIED,
        f"all {len(intakes)} intake(s) are strictly {mtc.dp.value} {mtc.time}",
    )


def _check_consistency(mtc: Consistency, intakes, cfg: ToleranceConfig) -> Verdict:
    tolerance = cfg.consistency_tolerance
    if isinstance(mtc.time, ClockTime):
        anchor = mtc.time.minutes_into_day()
        for intake in intakes:
            gap = abs(intake.minutes_into_day() - anchor)
            distance = timedelta(minutes=min(gap, MINUTES_PER_DAY - gap))
            if distance > tolerance:
                return Verdict(
                    VerdictStatus.VIOLATED,
                    f"{_fmt(intake)} is {distance} from {mtc.time}, beyond {tolerance}",
                )
        return Verdict(
            VerdictStatus.SATISFIED,
            f"all {len(intakes)} intake(s) are within {tolerance} of {mtc.time}",
        )
    if mtc.unit is TimeUnit.WEEK:
        what = "weekday and clock times"
        minutes = [e.timestamp.weekday() * MINUTES_PER_DAY + e.minutes_into_day() for e in intakes]
    else:
        what = "clock times"
        minutes = [e.minutes_into_day() for e in intakes]
    spread = timedelta(minutes=max(minutes) - min(minutes))
    if spread > tolerance:
        return Verdict(
            VerdictStatus.VIOLATED,
            f"intake {what} spread over {spread}, beyond {tolerance}",
        )
    return Verdict(
        VerdictStatus.SATISFIED,
        f"intake {what} spread over {spread}, within {tolerance}",
    )


def _check_time_of_day(mtc: TimeOfDay, intakes, cfg: ToleranceConfig) -> Verdict:
    window = cfg.day_part_windows.get(mtc.day_part)
    if window is None:
        return Verdict(
            VerdictStatus.INDETERMINATE,
            f"no configured clock window for {mtc.day_part.value!r}",
        )
    start, end = window
    for intake in intakes:
        local = time(intake.timestamp.hour, intake.timestamp.minute)
        if not start <= local < end:
            return Verdict(
                VerdictStatus.VIOLATED,
                f"{_fmt(intake)} falls outside the {mtc.day_part.value} window "
                f"[{start.isoformat('minutes')}, {end.isoformat('minutes')})",
            )
    return Verdict(
        VerdictStatus.SATISFIED,
        f"all {len(intakes)} intake(s) fall in the {mtc.day_part.value} window",
    )


def check(mtc: Mtc, timeline: Timeline, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Verdict:
    """Verdict for one constraint over one timeline.

    A negated constraint inverts satisfied and violated; indeterminate
    stays indeterminate.
    """
    intakes = timeline.intakes()
    if not intakes:
        verdict = Verdict(VerdictStatus.INDETERMINATE, "no intake events in window")
    elif isinstance(mtc, Frequency):
        verdict = _check_frequency(mtc, timeline, intakes)
    elif isinstance(mtc, Interval):
        verdict = _check_interval(mtc, intakes)
    elif isinstance(mtc, DefinitiveDependency):
        verdict = _check_definitive_dependency(mtc, timeline, intakes, cfg)
    elif isinstance(mtc, ImpreciseDependency):
        verdict = _check_imprecise_dependency(mtc, timeline, intakes, cfg)
    elif isinstance(mtc, TimeDependency):
        verdict = _check_time_dependency(mtc, intakes)
    elif isinstance(mtc, Consistency):
        verdict = _check_consistency(mtc, intakes, cfg)
    elif isinstance(mtc, TimeOfDay):
        verdict = _check_time_of_day(mtc, intakes, cfg)
    else:
        raise TypeError(f"not an MTC value: {mtc!r}")

    if mtc.negated and verdict.status is not VerdictStatus.INDETERMINATE:
        flipped = (
            VerdictStatus.VIOLATED
            if verdict.status is VerdictStatus.SATISFIED
            else VerdictStatus.SATISFIED
        )
        return Verdict(flipped, f"negated {serialize(mtc)!r}: {verdict.explanation}")
    return verdict
