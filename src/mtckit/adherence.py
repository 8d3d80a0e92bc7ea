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

Gaps, offsets, horizons and frequency periods (types 1-4) are elapsed
time. Every timestamp and window bound is kept at the fixed UTC offset it
has, with its wall clock unchanged, because datetime arithmetic inside one
zone with rules (a ``zoneinfo.ZoneInfo``) counts wall-clock time: 22:00 to
04:00 across a spring-forward night is five hours, not six. So a ``day``
(``week``) frequency period is 24 (168) elapsed hours counted from the
window start, not a calendar day: after a clock change inside the window,
periods no longer begin at local midnight, and an intake just after
midnight may count in the period before. The clock rules
(types 5-7) use each event's own local wall clock, so a
traveling patient's 9 am intake stays a 9 am intake. A consistency
constraint with a clock anchor (``at 9 am each day``) requires every
intake's clock time within the consistency tolerance of the anchor,
measured around the 24-hour dial; ``the same time each day`` bounds the
spread of the intakes' clock times, and ``the same time each week`` the
spread of their weekday-and-clock times.

Three boundaries, each pinned by a test:

* an ``apart`` gap equal to its bound is satisfied (at least the bound),
  and so is a ``within`` gap equal to its bound (at most the bound);
* ``before`` and ``after`` a clock time are strict, so an intake at exactly
  09:00 violates both ``before 9 am`` and ``after 9 am``;
* a day-part window is half-open, ``[start, end)``: an intake at exactly its
  start is inside it, and one at exactly its end is outside.

Every timeline is sorted, clipped and indexed when built: it keeps its
intakes, and each activity name's events, in timeline order. So a check
reads only the n intakes and the m events of the activity it names, and
sorts nothing: it lists their timestamps, O(n + m), and bisects them per
intake or per period, O(n log m) (a frequency check, O(p log n) over p
periods). Events at one instant sort by UTC offset, kind, then name, and
intakes are walked in timeline order, so the first violating intake named
depends neither on the input order nor on the search.
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
    mtc_type,
    serialize,
)
from .normalize import normalize_activity
from .tables import read_lines

EVENT_KINDS = ("intake", "activity")

MINUTES_PER_DAY = 24 * 60

UNIT_DURATION = {
    TimeUnit.MINUTE: timedelta(minutes=1),
    TimeUnit.HOUR: timedelta(hours=1),
    TimeUnit.DAY: timedelta(days=1),
    TimeUnit.WEEK: timedelta(weeks=1),
}

Window = tuple[datetime | None, datetime | None]

#: Timelines sort and clip on ``timestamp - _EPOCH``: a timedelta is exact, and
#: comparing two costs no ``utcoffset()`` call, which comparing aware datetimes
#: with different ``tzinfo`` objects makes every time.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _instant(event: "TimelineEvent") -> timedelta:
    return event.timestamp - _EPOCH


def _fixed_offset(value: datetime, what: str) -> datetime:
    """``value``'s wall clock at the fixed ``timezone`` of its UTC offset, so
    that subtracting and comparing it measure elapsed time."""
    if not isinstance(value, datetime):
        raise TypeError(f"{what} must be a datetime, got {type(value).__name__}")
    offset = value.utcoffset()
    if offset is None:
        raise ValueError(f"{what} must be a datetime with a timezone, got {value!r}")
    return value if type(value.tzinfo) is timezone else value.replace(tzinfo=timezone(offset))


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
    so events with the same activity share one name string. A timestamp whose
    ``tzinfo`` is not a fixed ``datetime.timezone`` is stored at its UTC offset.
    A ``kind``, ``name`` or ``timestamp`` of the wrong type raises
    ``TypeError`` naming it; an unknown kind or a timestamp without a
    timezone, ``ValueError``.
    """

    kind: str
    name: str
    timestamp: datetime

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            if not isinstance(self.kind, str):
                raise TypeError(f"event kind must be a string, got {type(self.kind).__name__}")
            raise ValueError(f"kind must be one of {EVENT_KINDS}, got {self.kind!r}")
        if not isinstance(self.name, str):
            raise TypeError(f"event name must be a string, got {type(self.name).__name__}")
        ts = self.timestamp
        if not isinstance(ts, datetime) or type(ts.tzinfo) is not timezone:
            object.__setattr__(self, "timestamp", _fixed_offset(ts, "event timestamp"))
        object.__setattr__(self, "name", normalize_activity(self.name))

    def minutes_into_day(self) -> int:
        return self.timestamp.hour * 60 + self.timestamp.minute


@dataclass(frozen=True)
class Timeline:
    """Events sorted ascending, clipped to the evaluation window, however built.

    Each event is keyed once by its exact instant and the window is found by
    bisection, so events in several UTC offsets build as fast as events in
    one. The intakes and each activity name's events are indexed in the same
    build, so :meth:`intakes` and :meth:`activities` scan nothing. An open
    window bound defaults to the events' span. Raises ``TypeError`` for a
    bound that is not a ``datetime``, and ``ValueError`` for a bound without
    a timezone, a start after the end, or no events and an open bound.
    """

    events: tuple[TimelineEvent, ...]
    window: Window = (None, None)

    def __post_init__(self) -> None:
        ordered = sorted(self.events, key=lambda e: (e.timestamp - _EPOCH, e.timestamp.utcoffset(), e.kind, e.name))
        start, end = self.window
        if not ordered and (start is None or end is None):
            raise ValueError("an empty timeline needs an explicit window")
        start = ordered[0].timestamp if start is None else _fixed_offset(start, "window bound")
        end = ordered[-1].timestamp if end is None else _fixed_offset(end, "window bound")
        earliest, latest = start - _EPOCH, end - _EPOCH
        if earliest > latest:
            raise ValueError("window start is after window end")
        first = bisect_left(ordered, earliest, key=_instant)
        events = tuple(ordered[first:bisect_right(ordered, latest, key=_instant)])
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "window", (start, end))
        # The index: attributes, not fields, so ==, hash and repr ignore them.
        intakes, by_name = [], {}
        for event in events:
            if event.kind == "intake":
                intakes.append(event)
            else:
                by_name.setdefault(event.name, []).append(event)
        object.__setattr__(self, "_intakes", tuple(intakes))
        object.__setattr__(self, "_by_name", {name: tuple(group) for name, group in by_name.items()})

    @classmethod
    def build(cls, events: Iterable[TimelineEvent], window: Window = (None, None)) -> "Timeline":
        """The timeline of any iterable of events, as the constructor builds it."""
        return cls(tuple(events), window)

    def intakes(self) -> tuple[TimelineEvent, ...]:
        return self._intakes

    def activities(self, name: str) -> tuple[TimelineEvent, ...]:
        return self._by_name.get(normalize_activity(name), ())


def parse_timestamp(value: str) -> datetime:
    """An ISO-8601 timestamp (``Z`` allowed) that must carry a timezone."""
    if not isinstance(value, str):
        raise ValueError(f"timestamp must be an ISO-8601 string, got {value!r}")
    parsed = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if parsed.tzinfo is None:
        raise ValueError(f"timestamp {value!r} has no timezone")
    return parsed


def _event_row(line: str) -> TimelineEvent:
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("record must be a JSON object")
        kind, name = record["kind"], record["name"]
        # Checked here, not left to TimelineEvent's TypeError: a bad line must stay a ValueError.
        if not isinstance(kind, str):
            raise ValueError(f"event kind must be a string, got {kind!r}")
        if not isinstance(name, str):
            raise ValueError(f"event name must be a string, got {name!r}")
        return TimelineEvent(kind, name, parse_timestamp(record["timestamp"]))
    except (KeyError, ValueError, RecursionError) as exc:
        raise ValueError(f"bad timeline record: {exc}") from None


def load_timeline(path: str | Path, window: Window = (None, None)) -> Timeline:
    """Read a timeline file: one JSON object per line with ``kind``, ``name``,
    and ``timestamp`` (ISO-8601 with timezone); a bad one is a problem."""
    return Timeline.build(read_lines(path, _event_row), window)


def _default_day_parts() -> dict[DayPart, tuple[time, time]]:
    return {
        DayPart.MORNING: (time(5, 0), time(12, 0)),
        DayPart.NOON: (time(11, 0), time(13, 0)),
        DayPart.EVENING: (time(17, 0), time(22, 0)),
    }


@dataclass(frozen=True)
class ToleranceConfig:
    """All adherence thresholds, with the documented defaults. A field of the
    wrong type raises ``TypeError`` naming it; a negative duration, ``ValueError``."""

    #: allowed slack around the exact offset of a definitive dependency
    dependency_tolerance: timedelta = timedelta(minutes=10)
    #: how far before/after an intake a matching activity may occur (type 4)
    imprecision_horizon: timedelta = timedelta(hours=2)
    #: maximum spread of intake clock times for ``the same time`` consistency,
    #: and maximum distance from the anchor for clock-anchored consistency
    consistency_tolerance: timedelta = timedelta(minutes=60)
    #: half-open local-time windows for the named day parts
    day_part_windows: dict[DayPart, tuple[time, time]] = field(default_factory=_default_day_parts)

    def __post_init__(self) -> None:
        for name in ("dependency_tolerance", "imprecision_horizon", "consistency_tolerance"):
            value = getattr(self, name)
            if not isinstance(value, timedelta):
                raise TypeError(f"{name} must be a timedelta, got {value!r}")
            if value < timedelta(0):
                raise ValueError(f"{name} must not be negative, got {value}")
        windows = self.day_part_windows
        if not isinstance(windows, dict) or not all(
            isinstance(part, DayPart) and isinstance(pair, tuple) and len(pair) == 2
            and all(isinstance(clock, time) and clock.tzinfo is None for clock in pair)
            for part, pair in windows.items()
        ):
            raise TypeError(f"day_part_windows must map DayPart to a pair of naive datetime.time, got {windows!r}")


DEFAULT_TOLERANCES = ToleranceConfig()


def _fmt(event: TimelineEvent) -> str:
    return f"{event.kind} {event.name!r} at {event.timestamp.isoformat()}"


def _check_frequency(mtc: Frequency, timeline: Timeline, intakes, cfg: ToleranceConfig) -> Verdict:
    period = UNIT_DURATION[mtc.unit]
    times = [e.timestamp for e in intakes]
    period_start, end = timeline.window
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


def _check_interval(mtc: Interval, timeline: Timeline, intakes, cfg: ToleranceConfig) -> Verdict:
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
    apart = mtc.ip is IntervalPrep.APART
    for earlier, later in zip(intakes, intakes[1:]):
        gap = later.timestamp - earlier.timestamp
        if gap < bound if apart else gap > bound:
            return Verdict(
                VerdictStatus.VIOLATED,
                f"gap of {gap} between {_fmt(earlier)} and {_fmt(later)} {'is under' if apart else 'exceeds'} {bound}",
            )
    return Verdict(
        VerdictStatus.SATISFIED,
        f"all {len(intakes) - 1} consecutive gap(s) are {'at least' if apart else 'at most'} {bound}",
    )


#: Timestamps count whole microseconds, so an open window bound is the
#: closed bound one microsecond inside it.
_TICK = timedelta(microseconds=1)


def _check_dependency(
    mtc: DefinitiveDependency | ImpreciseDependency, timeline: Timeline, intakes, cfg: ToleranceConfig
) -> Verdict:
    """Types 1 and 4: every intake has a matching activity in its window
    ``[ts + low, ts + high]``, with ``low`` and ``high`` fixed per constraint."""
    times = [e.timestamp for e in timeline.activities(mtc.activity)]
    if not times:
        return Verdict(
            VerdictStatus.INDETERMINATE,
            f"no {mtc.activity!r} activity events observed in window",
        )
    before = mtc.dp is DependencyPrep.BEFORE
    if isinstance(mtc, DefinitiveDependency):
        # "before eating" means the intake precedes the activity by the offset;
        # some activity lies within the tolerance of ts + offset
        offset = mtc.n * UNIT_DURATION[mtc.unit] * (1 if before else -1)
        tolerance = cfg.dependency_tolerance
        low, high = offset - tolerance, offset + tolerance
        missing = lambda ts: f"near {(ts + offset).isoformat()} (tolerance {tolerance})"
        satisfied = f"every intake has a {mtc.activity!r} event at the expected offset"
    else:
        # before: some activity lies in (ts, ts + horizon]; after: in [ts - horizon, ts)
        horizon = cfg.imprecision_horizon
        low, high = (_TICK, horizon) if before else (-horizon, -_TICK)
        missing = lambda ts: f"within {horizon} {'after' if before else 'before'} it"
        satisfied = f"every intake is {mtc.dp.value} a {mtc.activity!r} event within {horizon}"
    for intake in intakes:
        ts = intake.timestamp
        i = bisect_left(times, ts + low)
        if i == len(times) or times[i] > ts + high:
            return Verdict(
                VerdictStatus.VIOLATED,
                f"{_fmt(intake)} has no {mtc.activity!r} event {missing(ts)}",
            )
    return Verdict(VerdictStatus.SATISFIED, satisfied)


def _check_time_dependency(mtc: TimeDependency, timeline: Timeline, intakes, cfg: ToleranceConfig) -> Verdict:
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


def _check_consistency(mtc: Consistency, timeline: Timeline, intakes, cfg: ToleranceConfig) -> Verdict:
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
    beyond = spread > tolerance
    return Verdict(
        VerdictStatus.VIOLATED if beyond else VerdictStatus.SATISFIED,
        f"intake {what} spread over {spread}, {'beyond' if beyond else 'within'} {tolerance}",
    )


def _check_time_of_day(mtc: TimeOfDay, timeline: Timeline, intakes, cfg: ToleranceConfig) -> Verdict:
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


#: The check of each constraint type, as :func:`grammar.mtc_type` numbers them.
_CHECKS = {
    1: _check_dependency,
    2: _check_frequency,
    3: _check_interval,
    4: _check_dependency,
    5: _check_time_dependency,
    6: _check_consistency,
    7: _check_time_of_day,
}


def check(mtc: Mtc, timeline: Timeline, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Verdict:
    """Verdict for one constraint over one timeline.

    A negated constraint inverts satisfied and violated; indeterminate
    stays indeterminate. Raises ``TypeError`` if ``mtc`` is not an MTC value.
    """
    rule = _CHECKS[mtc_type(mtc)]
    intakes = timeline.intakes()
    if intakes:
        verdict = rule(mtc, timeline, intakes, cfg)
    else:
        verdict = Verdict(VerdictStatus.INDETERMINATE, "no intake events in window")

    if mtc.negated and verdict.status is not VerdictStatus.INDETERMINATE:
        flipped = VerdictStatus.VIOLATED if verdict.status is VerdictStatus.SATISFIED else VerdictStatus.SATISFIED
        return Verdict(flipped, f"negated {serialize(mtc)!r}: {verdict.explanation}")
    return verdict
