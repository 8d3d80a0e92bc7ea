"""Typed medical temporal constraints (MTCs) and their canonical surface grammar.

An MTC is one of seven constraint forms, optionally negated, each a value
class that declares its type number, name, canonical form and example.

Every form has exactly one canonical surface string (digits, singular
units, lowercase; negation as a leading ``not``). :func:`parse_mtc` accepts
the canonical form plus these lenient rewrites, and no others:

* mixed case and runs of whitespace ("3  Times Day" -> "3 times day");
* plural units ("6 hours apart" -> "6 hour apart");
* number words one..twelve for a count or a clock hour ("three times day",
  "before nine am" -> "before 9 am");
* a count article before a frequency's unit: "a", "an", "per", "each" or
  "in a" ("3 times a day" -> "3 times day");
* "daily" for a frequency's unit, with or without "times" ("3 times daily"
  and "3 daily" -> "3 times day");
* "a.m."/"p.m." (the last dot optional), no space before the meridiem, and
  ":" before the minutes ("after 10:30p.m." -> "after 10.30 pm");
* "the" before a day part ("in the morning" -> "in morning");
* repeated leading "not" folded into one ("not not before eating" ->
  "not before eating").

:func:`serialize` always emits the canonical form, so
``parse_mtc(serialize(m)) == m`` for every well-formed value.
Counts and clock times take ASCII digits only. Input that is not a ``str``
(``None`` included) is a ``TypeError`` naming the parameter, never a
:class:`NonvalidMtcError`.

:func:`parse_mtc` keeps the outcome of the last ``PARSE_CACHE_SIZE``
distinct strings in an LRU cache: the (immutable) value, or the rejection
reason, from which each call raises a fresh :class:`NonvalidMtcError`. It
pays only when fewer than that many distinct strings recur, as gold labels do.
No other exception leaves the parser, so nothing else can be cached.

:func:`serialize` renders each value's canonical string once and keeps it
on the value, outside the dataclass fields, so a label read on every
scoring pass is one shared string, not a new one per call.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Callable, ClassVar, Iterable, Union, get_args, get_type_hints


class NonvalidMtcError(ValueError):
    """A string does not parse as a single MTC under the grammar."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class TimeUnit(str, Enum):
    MINUTE = "minute"
    HOUR = "hour"
    DAY = "day"
    WEEK = "week"


class DependencyPrep(str, Enum):
    BEFORE = "before"
    AFTER = "after"


class IntervalPrep(str, Enum):
    WITHIN = "within"
    FOR = "for"
    APART = "apart"


class OccurrencePrep(str, Enum):
    AT = "at"
    IN = "in"


class DayPart(str, Enum):
    MORNING = "morning"
    EVENING = "evening"
    NOON = "noon"


@dataclass(frozen=True)
class SameTime:
    """The recurring anchor written ``the same time`` (consistency only)."""

    def __str__(self) -> str:
        return "the same time"
    value = property(__str__)  # the text, as an enum member's ``.value`` is


SAME_TIME = SameTime()


@dataclass(frozen=True)
class ClockTime:
    """A 12-hour clock time such as ``9 am`` or ``10.30 pm``. An ``hour`` or
    ``minute`` that is not a plain ``int`` (a ``bool`` or a ``float`` would
    render as another time) raises ``TypeError``."""

    hour: int
    minute: int = 0
    meridiem: str = "am"

    def __post_init__(self) -> None:
        for name, value in (("hour", self.hour), ("minute", self.minute)):
            if type(value) is not int:
                raise TypeError(f"clock {name} must be an int, got {type(value).__name__}")
        if not 1 <= self.hour <= 12:
            raise ValueError(f"clock hour must be 1..12, got {self.hour}")
        if not 0 <= self.minute <= 59:
            raise ValueError(f"clock minute must be 0..59, got {self.minute}")
        if self.meridiem not in ("am", "pm"):
            raise ValueError(f"meridiem must be 'am' or 'pm', got {self.meridiem!r}")

    def minutes_into_day(self) -> int:
        """Minutes after midnight (0..1439), for time comparisons."""
        return (self.hour % 12 + (12 if self.meridiem == "pm" else 0)) * 60 + self.minute

    def __str__(self) -> str:
        minute = f".{self.minute:02d}" if self.minute else ""
        return f"{self.hour}{minute} {self.meridiem}"
    value = property(__str__)  # the text, as an enum member's ``.value`` is


TimeStamp = Union[SameTime, ClockTime]


def _check_count(n: object) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"n must be an int, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return n


def _check_activity(name: object) -> str:
    if type(name) is not str:  # a str enum member would format as another text
        raise TypeError(f"activity must be a str, got {type(name).__name__}")
    if not name or name != " ".join(name.split()):
        raise ValueError(f"activity must be a nonempty single-spaced phrase, got {name!r}")
    if name != name.lower():
        raise ValueError(f"activity must be lowercase, got {name!r}")
    # The only slot that could hold the list separator; one there would
    # split the canonical string into two segments.
    if SEGMENT_SEPARATOR.search(name):
        raise ValueError(f"activity must not contain ';', got {name!r}")
    # Keep dependency forms unambiguous: a phrase that reads as a clock
    # time belongs to the time-dependency form, never to an activity slot.
    if _parse_clock(name) is not None:
        raise ValueError(f"activity must not be a clock time, got {name!r}")
    return name


def _check_negated(flag: object) -> bool:
    if flag is True or flag is False:
        return flag
    raise TypeError(f"negated must be a bool, got {type(flag).__name__}")


def _field_check(name: str, kind) -> Callable[[object], object]:
    """The check of the field ``name`` annotated ``kind``; it returns the value to keep."""
    if kind in (int, str, bool):
        return {int: _check_count, str: _check_activity, bool: _check_negated}[kind]
    if isinstance(kind, type) and issubclass(kind, Enum):
        def check_member(value):
            if type(value) is kind:
                return value
            if not isinstance(value, str):
                raise TypeError(f"{name} must be a {kind.__name__} or a str, got {type(value).__name__}")
            try:
                return kind(value)
            except ValueError:
                raise ValueError(f"{name} must name a {kind.__name__}, got {value!r}") from None
        return check_member
    allowed = get_args(kind) or (kind,)  # ClockTime, or either kind of TimeStamp

    def check_time(value):
        if not isinstance(value, allowed):
            error = ValueError if isinstance(value, get_args(TimeStamp)) else TypeError
            raise error(f"{name} must be a {' or '.join(t.__name__ for t in allowed)}, got {value!r}")
        return value
    return check_time


class _Constraint:
    """Base of the seven MTC value classes. Each declares its type number,
    name, canonical form and example, and writes its canonical string,
    negation aside, in ``_body``: an enum field or a time stamp by its ``.value``.

    A new value's field of the wrong type raises ``TypeError``, and a bad value
    ``ValueError``, naming the field:

    - an enum field takes a member, or a ``str`` naming one, kept as the member;
    - ``n`` is a positive ``int``, never a ``bool``;
    - ``activity`` is a plain ``str``: nonempty, lowercase, single-spaced, no ``;``, not a clock time;
    - ``negated`` is a ``bool``;
    - ``time`` is a :class:`ClockTime`, or for a consistency also :data:`SAME_TIME`.
    """

    TYPE: ClassVar[int]
    NAME: ClassVar[str]
    FORM: ClassVar[str]
    EXAMPLE: ClassVar[str]

    def __init_subclass__(cls) -> None:
        kinds = get_type_hints(cls)  # once per class, never per value
        cls._CHECKS = tuple((name, _field_check(name, kinds[name])) for name in cls.__annotations__)

    def __post_init__(self) -> None:
        for name, check in self._CHECKS:
            value = getattr(self, name)
            if (checked := check(value)) is not value:  # an enum member named by a str
                object.__setattr__(self, name, checked)


@dataclass(frozen=True)
class DefinitiveDependency(_Constraint):
    """Intake a fixed offset before/after another activity (type 1)."""

    TYPE, NAME = 1, "definitive dependency"
    FORM, EXAMPLE = "{n} {unit} {before|after} {activity}", "30 minute before eating"
    n: int
    unit: TimeUnit
    dp: DependencyPrep
    activity: str
    negated: bool = False

    def _body(self) -> str:
        return f"{self.n} {self.unit.value} {self.dp.value} {self.activity}"


@dataclass(frozen=True)
class Frequency(_Constraint):
    """Number of intakes per time unit (type 2)."""

    TYPE, NAME = 2, "frequency"
    FORM, EXAMPLE = "{n} times {unit}", "3 times day"
    n: int
    unit: TimeUnit
    negated: bool = False

    def _body(self) -> str:
        return f"{self.n} times {self.unit.value}"


@dataclass(frozen=True)
class Interval(_Constraint):
    """Spacing between consecutive intakes (type 3)."""

    TYPE, NAME = 3, "interval"
    FORM, EXAMPLE = "{n} {unit} {within|for|apart}", "6 hour apart"
    n: int
    unit: TimeUnit
    ip: IntervalPrep
    negated: bool = False

    def _body(self) -> str:
        return f"{self.n} {self.unit.value} {self.ip.value}"


@dataclass(frozen=True)
class ImpreciseDependency(_Constraint):
    """Intake before/after another activity, no offset given (type 4)."""

    TYPE, NAME = 4, "imprecise dependency"
    FORM, EXAMPLE = "{before|after} {activity}", "before eating"
    dp: DependencyPrep
    activity: str
    negated: bool = False

    def _body(self) -> str:
        return f"{self.dp.value} {self.activity}"


@dataclass(frozen=True)
class TimeDependency(_Constraint):
    """Intake before/after a concrete clock time (type 5)."""

    TYPE, NAME = 5, "time dependency"
    FORM, EXAMPLE = "{before|after} {clock time}", "before 9 am"
    dp: DependencyPrep
    time: ClockTime
    negated: bool = False

    def _body(self) -> str:
        return f"{self.dp.value} {self.time.value}"


@dataclass(frozen=True)
class Consistency(_Constraint):
    """Intake at a recurring time each period (type 6)."""

    TYPE, NAME = 6, "consistency"
    FORM, EXAMPLE = "{at|in} {time} each {unit}", "at the same time each day"
    p: OccurrencePrep
    time: TimeStamp
    unit: TimeUnit
    negated: bool = False

    def _body(self) -> str:
        return f"{self.p.value} {self.time.value} each {self.unit.value}"


@dataclass(frozen=True)
class TimeOfDay(_Constraint):
    """Intake within a named part of the day (type 7)."""

    TYPE, NAME = 7, "time of day"
    FORM, EXAMPLE = "{at|in} {morning|evening|noon}", "in morning"
    p: OccurrencePrep
    day_part: DayPart
    negated: bool = False

    def _body(self) -> str:
        return f"{self.p.value} {self.day_part.value}"


Mtc = Union[DefinitiveDependency, Frequency, Interval, ImpreciseDependency, TimeDependency, Consistency, TimeOfDay]

_TYPE_BY_CLASS = {cls: cls.TYPE for cls in get_args(Mtc)}
MTC_TYPE_NAMES = {cls.TYPE: cls.NAME for cls in get_args(Mtc)}
#: Canonical shape of each constraint form, used by prompt builders and docs.
CANONICAL_FORMS = {cls.TYPE: (cls.FORM, cls.EXAMPLE) for cls in get_args(Mtc)}

#: Terminal vocabularies of the constraint grammar, for prompt builders and docs.
TERMINALS = [
    ("natural number", "1 | 2 | 3 | ..."),
    ("activity", "sleeping | eating | taking medication | ... (open vocabulary)"),
    ("dependency preposition", " | ".join(v.value for v in DependencyPrep)),
    ("interval preposition", " | ".join(v.value for v in IntervalPrep)),
    ("occurrence preposition", " | ".join(v.value for v in OccurrencePrep)),
    ("time unit", " | ".join(v.value for v in TimeUnit)),
    ("time stamp", "the same time | 9 am | 10.30 pm | ..."),
    ("day part", " | ".join(v.value for v in DayPart)),
]


def mtc_type(mtc: Mtc) -> int:
    """Constraint type 1..7 of ``mtc``, ignoring negation."""
    try:
        return _TYPE_BY_CLASS[type(mtc)]
    except KeyError:
        raise TypeError(f"not an MTC value: {mtc!r}") from None


def with_negated(mtc: Mtc, negated: bool = True) -> Mtc:
    """Copy of ``mtc`` with its negation flag set to ``negated``."""
    return replace(mtc, negated=negated)


#: Key of a value's canonical string in its ``__dict__``. It is not a
#: dataclass field, so equality, hashing, ``repr`` and ``fields()`` ignore it.
_CANONICAL = "_canonical"


def serialize(mtc: Mtc) -> str:
    """Canonical surface string for ``mtc`` (deterministic, re-parses to ``mtc``).

    The string is rendered on the first call for a value and kept in the
    value's ``__dict__``; later calls return that same string. Values are
    frozen, so it never goes stale: ``with_negated`` and ``replace`` build
    new values, which render their own. Two threads racing on a first call
    store equal strings.
    """
    try:
        return mtc.__dict__[_CANONICAL]
    except (AttributeError, KeyError):
        pass
    text = _render(mtc)
    mtc.__dict__[_CANONICAL] = text
    return text


def _render(mtc: Mtc) -> str:
    """:func:`serialize` without the cache."""
    if type(mtc) not in _TYPE_BY_CLASS:
        raise TypeError(f"not an MTC value: {mtc!r}")
    body = mtc._body()
    return f"not {body}" if mtc.negated else body


#: Number words the grammar accepts for a count or a clock hour; ``normalize``
#: and the rule baseline's ``{num}`` placeholder use this same table.
NUMBER_WORDS = dict(zip("one two three four five six seven eight nine ten eleven twelve".split(), range(1, 13)))

_UNIT_ALIASES = {alias: u for u in TimeUnit for alias in (u.value, u.value + "s")}

_DP_WORDS = {v.value: v for v in DependencyPrep}
_IP_WORDS = {v.value: v for v in IntervalPrep}
_P_WORDS = {v.value: v for v in OccurrencePrep}
_DAY_PARTS = {v.value: v for v in DayPart}

# Only ASCII digits count: ``\d`` and ``str.isdigit`` also accept digits
# such as "²" or "٣", which ``int()`` rejects or which no guideline means.
_RANGE_RE = re.compile(r"^[0-9]+\s*-\s*[0-9]+$")
_CLOCK_RE = re.compile(
    r"^(?P<hour>[0-9]{1,2}|[a-z]+)(?:[.:](?P<minute>[0-9]{1,2}))?\s*(?P<mer>am|pm|a\.m\.?|p\.m\.?)$"
)


def _parse_clock(text: str) -> ClockTime | None:
    """Clock time from a phrase like ``9 am`` / ``10.30 pm`` / ``9:30pm``, else None."""
    m = _CLOCK_RE.match(text.strip())
    if not m:
        return None
    raw_hour = m.group("hour")
    hour = int(raw_hour) if raw_hour.isdigit() else NUMBER_WORDS.get(raw_hour)
    minute = int(m.group("minute")) if m.group("minute") else 0
    meridiem = "am" if m.group("mer").startswith("a") else "pm"
    if hour is None or not 1 <= hour <= 12 or not 0 <= minute <= 59:
        return None
    return ClockTime(hour, minute, meridiem)


def _parse_count(token: str) -> int:
    if _RANGE_RE.match(token):
        raise NonvalidMtcError(f"numeric range not allowed as a count: {token!r}")
    n = int(token) if token.isascii() and token.isdigit() else NUMBER_WORDS.get(token)
    if n is None:
        raise NonvalidMtcError(f"expected a number, got {token!r}")
    if n < 1:
        raise NonvalidMtcError(f"count must be at least 1, got {n}")
    return n


def _parse_unit(token: str) -> TimeUnit:
    unit = _UNIT_ALIASES.get(token)
    if unit is None:
        raise NonvalidMtcError(f"unknown time unit {token!r}")
    return unit


def _skip_article(tokens: list[str]) -> list[str]:
    # Count articles: "3 times (a|an|per|each|in a) day".
    if tokens and tokens[0] in ("a", "an", "per", "each"):
        return tokens[1:]
    if len(tokens) >= 2 and tokens[0] == "in" and tokens[1] == "a":
        return tokens[2:]
    return tokens


def _parse_numeric_family(tokens: list[str], negated: bool) -> Mtc:
    n = _parse_count(tokens[0])
    rest = tokens[1:]
    if not rest:
        raise NonvalidMtcError("a number alone is not a constraint")
    if rest[0] == "times":
        unit_tokens = _skip_article(rest[1:])
        if len(unit_tokens) != 1:
            raise NonvalidMtcError("frequency must end with a single time unit")
        unit = TimeUnit.DAY if unit_tokens[0] == "daily" else _parse_unit(unit_tokens[0])
        return Frequency(n, unit, negated)
    if rest == ["daily"]:
        return Frequency(n, TimeUnit.DAY, negated)
    unit = _parse_unit(rest[0])
    rest = rest[1:]
    if not rest:
        raise NonvalidMtcError("number and unit need a preposition (before/after/within/for/apart)")
    prep = rest[0]
    if prep in _DP_WORDS:
        activity = " ".join(rest[1:])
        if not activity:
            raise NonvalidMtcError(f"missing activity after {prep!r}")
        try:
            return DefinitiveDependency(n, unit, _DP_WORDS[prep], activity, negated)
        except ValueError as exc:
            raise NonvalidMtcError(str(exc)) from None
    if prep in _IP_WORDS:
        if rest[1:]:
            raise NonvalidMtcError(f"unexpected text after interval preposition: {' '.join(rest[1:])!r}")
        return Interval(n, unit, _IP_WORDS[prep], negated)
    raise NonvalidMtcError(f"expected a dependency or interval preposition, got {prep!r}")


def _parse_dependency_family(tokens: list[str], negated: bool) -> Mtc:
    dp = _DP_WORDS[tokens[0]]
    tail = " ".join(tokens[1:])
    if not tail:
        raise NonvalidMtcError(f"{tokens[0]!r} needs an activity or clock time after it")
    if (clock := _parse_clock(tail)) is not None:
        return TimeDependency(dp, clock, negated)
    try:
        return ImpreciseDependency(dp, tail, negated)
    except ValueError as exc:
        raise NonvalidMtcError(str(exc)) from None


def _parse_occurrence_family(tokens: list[str], negated: bool) -> Mtc:
    p = _P_WORDS[tokens[0]]
    rest = tokens[1:]
    if not rest:
        raise NonvalidMtcError(f"{tokens[0]!r} needs a time or day part after it")
    timestamp: TimeStamp | None = None
    if rest[:3] == ["the", "same", "time"]:
        timestamp = SAME_TIME
        rest = rest[3:]
    elif len(rest) >= 2 and (timestamp := _parse_clock(" ".join(rest[:2]))) is not None:
        rest = rest[2:]
    elif (timestamp := _parse_clock(rest[0])) is not None:
        rest = rest[1:]
    if timestamp is not None:
        if len(rest) != 2 or rest[0] != "each":
            raise NonvalidMtcError("consistency needs 'each <unit>' after the time")
        return Consistency(p, timestamp, _parse_unit(rest[1]), negated)
    if rest and rest[0] == "the":
        rest = rest[1:]
    if len(rest) == 1 and rest[0] in _DAY_PARTS:
        return TimeOfDay(p, _DAY_PARTS[rest[0]], negated)
    raise NonvalidMtcError(f"expected a day part or 'time each unit', got {' '.join(rest)!r}")


#: Distinct strings whose parse (value or rejection reason) is kept.
PARSE_CACHE_SIZE = 1024


def parse_mtc(text: str) -> Mtc:
    """Parse a single candidate string into a typed MTC.

    Accepts canonical strings and the lenient variants listed in the module
    docstring. Raises :class:`NonvalidMtcError` when no constraint form
    matches the whole string, when a numeric range stands where a count
    belongs, or when the input is empty, and ``TypeError`` when ``text`` is
    not a ``str``. Results are memoized per string (see :func:`_parse_memo`);
    every rejection raises a fresh error.
    """
    if not isinstance(text, str):
        raise TypeError(f"text must be a string, got {type(text).__name__}")
    result = _parse_memo(text)
    if isinstance(result, str):
        raise NonvalidMtcError(result)
    return result


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_memo(text: str) -> Mtc | str:
    """The parsed value of ``text``, or the reason it was rejected.

    MTC values are frozen, so one value can be handed to every caller;
    exceptions are not cached, since a raised exception carries its
    traceback.
    """
    try:
        return _parse(text)
    except NonvalidMtcError as exc:
        return exc.reason


def _parse(text: str) -> Mtc:
    """:func:`parse_mtc` without the memo."""
    if not text.strip():
        raise NonvalidMtcError("empty string")
    tokens = text.lower().split()
    negated = False
    while tokens and tokens[0] == "not":
        negated = True
        tokens = tokens[1:]
    if not tokens:
        raise NonvalidMtcError("nothing after 'not'")
    if tokens[0] in _DP_WORDS:
        return _parse_dependency_family(tokens, negated)
    if tokens[0] in _P_WORDS:
        return _parse_occurrence_family(tokens, negated)
    return _parse_numeric_family(tokens, negated)


def is_valid(text: str) -> bool:
    """True iff ``text`` parses as a single MTC; ``TypeError`` when it is not a ``str``."""
    try:
        parse_mtc(text)
        return True
    except NonvalidMtcError:
        return False


@dataclass(frozen=True)
class InvalidSegment:
    """A list segment that failed to parse, with the parser's reason."""

    segment: str
    reason: str


@dataclass(frozen=True)
class MtcListResult:
    """Valid constraints of a compound string plus its rejected segments."""

    mtcs: tuple[Mtc, ...]
    invalid: tuple[InvalidSegment, ...] = ()


def dedup_mtcs(items: Iterable[Mtc]) -> tuple[Mtc, ...]:
    """Drop duplicates under canonical-string equality, keeping first occurrence."""
    kept: dict[str, Mtc] = {}
    for item in items:
        kept.setdefault(serialize(item), item)
    return tuple(kept.values())


#: What separates the constraints of a compound string: ``;`` or a newline.
SEGMENT_SEPARATOR = re.compile(r"[;\n]")


def parse_mtc_list(text: str) -> MtcListResult:
    """Parse a compound string (segments separated by ``;`` or newlines).

    Each segment is parsed independently; valid ones are deduplicated in
    first-occurrence order, invalid ones are reported alongside.
    Whitespace-only segments (e.g. from a trailing separator) are ignored.
    """
    mtcs: list[Mtc] = []
    invalid: list[InvalidSegment] = []
    for segment in SEGMENT_SEPARATOR.split(text or ""):
        stripped = segment.strip()
        if not stripped:
            continue
        try:
            mtcs.append(parse_mtc(stripped))
        except NonvalidMtcError as exc:
            invalid.append(InvalidSegment(stripped, exc.reason))
    return MtcListResult(dedup_mtcs(mtcs), tuple(invalid))


def mtc_to_dict(mtc: Mtc) -> dict:
    """Flat JSON-friendly view of an MTC (type number, fields, canonical string)."""
    out: dict = {"type": mtc_type(mtc), "canonical": serialize(mtc)}
    for f in fields(mtc):
        value = getattr(mtc, f.name)
        out[f.name] = getattr(value, "value", value)  # the text _body writes for an enum or a time
    return out
