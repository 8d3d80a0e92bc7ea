"""Grammar: parsing, canonical serialization, validity, list handling."""

from __future__ import annotations

import dataclasses
import enum
import pickle
import random
import typing

import pytest
from hypothesis import given, strategies as st

from mtckit import adherence, grammar
from mtckit.grammar import (
    PARSE_CACHE_SIZE,
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
    NonvalidMtcError,
    OccurrencePrep,
    TimeDependency,
    TimeOfDay,
    TimeUnit,
    is_valid,
    mtc_to_dict,
    mtc_type,
    parse_mtc,
    parse_mtc_list,
    serialize,
    with_negated,
)
from mtckit.icl import type_guides

from conftest import random_mtc

#: Canonical fixture strings: parse(s) then serialize gives back s exactly.
CANONICAL_FIXTURES = [
    # type 1
    "30 minute before taking sucralfate",
    "1 hour before eating",
    "2 hour after exercise",
    "45 minute before sleep",
    "1 week after vaccination",
    "10 minute after breakfast",
    "2 day before surgery",
    # type 2
    "2 times day",
    "1 times day",
    "1 times hour",
    "4 times day",
    "3 times day",
    "3 times week",
    "12 times hour",
    "2 times minute",
    # type 3
    "6 hour apart",
    "4 hour apart",
    "12 hour apart",
    "30 minute within",
    "2 week for",
    "1 day apart",
    # type 4
    "before eating",
    "after eating",
    "before sleep",
    "after exercise",
    "before taking medication",
    "after taking insulin",
    # type 5
    "before 9 am",
    "after 10.30 pm",
    "before 12 pm",
    "after 6.05 am",
    "before 11 pm",
    # type 6
    "at the same time each day",
    "at the same time each week",
    "at 9 am each day",
    "at 7.15 am each day",
    "in the same time each week",
    # type 7
    "in morning",
    "at noon",
    "in evening",
    "at morning",
    "in noon",
    # negation
    "not before exercise",
    "not 3 times day",
    "not in evening",
    "not at the same time each day",
    "not 2 hour before eating",
]

EXPECTED_TYPES = {
    "30 minute before taking sucralfate": 1,
    "3 times day": 2,
    "6 hour apart": 3,
    "before eating": 4,
    "before 9 am": 5,
    "at the same time each day": 6,
    "in morning": 7,
    "not before exercise": 4,
}

#: Strings that must be rejected (mutations of the canonical fixtures).
NONVALID_FIXTURES = [
    "",
    "   ",
    "2 times day OR 3 times day",
    "banana",
    "purple monkey dishwasher",
    "1-30 minute before eating",
    "1-2 times day",
    "times day",
    "3 times",
    "3 day",
    "3 times month",
    "0 times day",
    "6 hour around",
    "6 hour apart extra",
    "before",
    "at",
    "at midnight",
    "at the same time",
    "at the same time each",
    "at 9 am each month",
    "at 13 pm each day",
    "not",
    "30 minute before",
    "2 hour before 9 am",
    "9 am",
    # Digits other than ASCII: ``str.isdigit`` accepts "²" and ``int()``
    # does not; ``int()`` accepts "٣", which no guideline means.
    "² times day",
    "٣ times day",
    "²",
    "3² times day",
    "at ٣ am each day",
    "in ١٠.٣٠ pm each day",
    "٣-٤ times day",
    "٣٠ minute before eating",
]


def test_fixture_battery_covers_requirements():
    assert len(CANONICAL_FIXTURES) >= 40
    assert {mtc_type(parse_mtc(s)) for s in CANONICAL_FIXTURES} == {1, 2, 3, 4, 5, 6, 7}
    assert any(parse_mtc(s).negated for s in CANONICAL_FIXTURES)
    assert len(NONVALID_FIXTURES) >= 21  # the OR case plus >= 20 mutations


@pytest.mark.parametrize("text", CANONICAL_FIXTURES)
def test_canonical_round_trip(text):
    mtc = parse_mtc(text)
    assert serialize(mtc) == text
    assert parse_mtc(serialize(mtc)) == mtc


@pytest.mark.parametrize("text", NONVALID_FIXTURES)
def test_nonvalid_fixtures(text):
    assert not is_valid(text)
    with pytest.raises(NonvalidMtcError):
        parse_mtc(text)


def test_parse_definitive_dependency_from_task_description():
    mtc = parse_mtc("30 minute before taking Sucralfate")
    assert mtc == DefinitiveDependency(
        30, TimeUnit.MINUTE, DependencyPrep.BEFORE, "taking sucralfate"
    )


def test_parse_frequency():
    assert parse_mtc("2 times day") == Frequency(2, TimeUnit.DAY)


def test_parse_consistency_same_time():
    mtc = parse_mtc("at the same time each day")
    assert mtc == Consistency(OccurrencePrep.AT, SAME_TIME, TimeUnit.DAY)


def test_consistency_accepts_clock_time():
    mtc = parse_mtc("at 9 am each day")
    assert mtc == Consistency(OccurrencePrep.AT, ClockTime(9, 0, "am"), TimeUnit.DAY)


def test_or_joined_alternatives_are_nonvalid():
    assert not is_valid("2 times day OR 3 times day")


def test_numeric_range_is_nonvalid_with_reason():
    with pytest.raises(NonvalidMtcError, match="range"):
        parse_mtc("1-30 minutes before each main meal")


@pytest.mark.parametrize(
    "lenient, canonical",
    [
        ("three times daily", "3 times day"),
        ("3 times a day", "3 times day"),
        ("3 times per day", "3 times day"),
        ("3 times in a day", "3 times day"),
        ("3 times each day", "3 times day"),
        ("3 daily", "3 times day"),
        ("two times a day", "2 times day"),
        ("6 hours apart", "6 hour apart"),
        ("30 minutes before eating", "30 minute before eating"),
        ("Before 9 AM", "before 9 am"),
        ("after 10:30 pm", "after 10.30 pm"),
        ("AT THE SAME TIME EACH DAY", "at the same time each day"),
        ("in the morning", "in morning"),
        ("NOT BEFORE EXERCISE", "not before exercise"),
        ("before 9am", "before 9 am"),
        ("after nine pm", "after 9 pm"),
        ("before 9 a.m.", "before 9 am"),
        ("after 10:30p.m.", "after 10.30 pm"),
        ("at 8 a.m each day", "at 8 am each day"),
        ("1 times an hour", "1 times hour"),
        ("3  times\tday", "3 times day"),
        ("not not before eating", "not before eating"),
    ],
)
def test_lenient_variants_normalize_to_canonical(lenient, canonical):
    assert serialize(parse_mtc(lenient)) == canonical


@pytest.mark.parametrize(
    "mtc, expected",
    [
        (Interval(6, TimeUnit.HOUR, IntervalPrep.APART), 3),
        (TimeOfDay(OccurrencePrep.IN, DayPart.MORNING), 7),
        (with_negated(ImpreciseDependency(DependencyPrep.BEFORE, "exercise")), 4),
    ],
)
def test_mtc_type(mtc, expected):
    assert mtc_type(mtc) == expected


def test_serialize_examples():
    assert serialize(Frequency(3, TimeUnit.DAY)) == "3 times day"
    assert serialize(TimeDependency(DependencyPrep.BEFORE, ClockTime(9, 0, "am"))) == "before 9 am"
    assert serialize(with_negated(Frequency(3, TimeUnit.DAY))) == "not 3 times day"


def test_serialize_clock_minutes_zero_padded():
    assert serialize(TimeDependency(DependencyPrep.AFTER, ClockTime(10, 5, "pm"))) == "after 10.05 pm"


@pytest.mark.parametrize(
    ("args", "field", "kind"),
    [((9.5,), "hour", "float"), ((True,), "hour", "bool"), (("9",), "hour", "str"),
     ((9, 5.0), "minute", "float"), ((9, False), "minute", "bool")],
)
def test_clock_time_refuses_a_field_that_is_not_an_int(args, field, kind):
    with pytest.raises(TypeError, match=f"^clock {field} must be an int, got {kind}$"):
        ClockTime(*args)


def test_time_dependency_requires_clock_time():
    with pytest.raises(ValueError):
        TimeDependency(DependencyPrep.BEFORE, SAME_TIME)


def test_activity_validation():
    with pytest.raises(ValueError):
        ImpreciseDependency(DependencyPrep.BEFORE, "")
    with pytest.raises(ValueError):
        ImpreciseDependency(DependencyPrep.BEFORE, "Eating")
    with pytest.raises(ValueError):
        ImpreciseDependency(DependencyPrep.BEFORE, "9 am")  # clock-shaped


@pytest.mark.parametrize(
    "text", ["before a;b", "not after eating; sleep", "30 minute before a;b", "2 hour after a;b", "before ;"]
)
def test_parse_rejects_an_activity_holding_the_list_separator(text):
    with pytest.raises(NonvalidMtcError, match="must not contain ';'"):
        parse_mtc(text)
    assert not is_valid(text)


def test_activity_value_rejects_the_list_separator():
    with pytest.raises(ValueError):
        ImpreciseDependency(DependencyPrep.BEFORE, "a;b")
    with pytest.raises(ValueError):
        DefinitiveDependency(30, TimeUnit.MINUTE, DependencyPrep.BEFORE, "eating;")


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        Frequency(0, TimeUnit.DAY)


# ----------------------------------------------------------- field checks


def test_an_enum_field_given_as_its_string_becomes_the_member():
    mtc = Frequency(3, "day")
    assert mtc.unit is TimeUnit.DAY
    assert mtc == Frequency(3, TimeUnit.DAY)
    assert serialize(mtc) == "3 times day"


@pytest.mark.parametrize(
    "build, field",
    [(lambda: Frequency(3, "fortnight"), "unit"), (lambda: TimeOfDay(OccurrencePrep.IN, "night"), "day_part")],
    ids=["unit", "day_part"],
)
def test_a_string_naming_no_member_is_a_value_error_naming_the_field(build, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        build()


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Frequency(3, 7), "unit"),
        (lambda: Frequency(3, TimeUnit.DAY, negated="yes"), "negated"),
        (lambda: ImpreciseDependency(DependencyPrep.BEFORE, 5), "activity"),
        (lambda: ImpreciseDependency(DependencyPrep.BEFORE, TimeUnit.DAY), "activity"),
        (lambda: Frequency(True, TimeUnit.DAY), "n"),
        (lambda: Interval("3", TimeUnit.HOUR, IntervalPrep.APART), "n"),
        (lambda: Consistency(OccurrencePrep.AT, "9 am", TimeUnit.DAY), "time"),
    ],
    ids=["unit", "negated", "activity", "enum-activity", "bool-n", "str-n", "time"],
)
def test_a_field_of_the_wrong_type_is_a_type_error_naming_it(build, field):
    with pytest.raises(TypeError, match=f"^{field} "):
        build()


def test_declarations_number_the_seven_types_once_and_their_examples_round_trip():
    classes = typing.get_args(grammar.Mtc)
    assert sorted(cls.TYPE for cls in classes) == list(range(1, 8))
    assert len({cls.NAME for cls in classes}) == len(classes)
    for cls in classes:
        example = parse_mtc(cls.EXAMPLE)
        assert type(example) is cls and mtc_type(example) == cls.TYPE
        assert serialize(example) == cls.EXAMPLE
        assert grammar.MTC_TYPE_NAMES[cls.TYPE] == cls.NAME
        assert grammar.CANONICAL_FORMS[cls.TYPE] == (cls.FORM, cls.EXAMPLE)


def test_every_table_keyed_by_type_holds_exactly_the_declared_types():
    declared = {cls.TYPE for cls in typing.get_args(grammar.Mtc)}
    assert set(adherence._CHECKS) == declared
    assert set(type_guides()) == declared
    assert {t: guide.name for t, guide in type_guides().items()} == grammar.MTC_TYPE_NAMES


def test_mtc_to_dict_writes_enum_fields_and_time_stamps_as_text():
    assert mtc_to_dict(parse_mtc("not at 9.30 am each week")) == {
        "type": 6, "canonical": "not at 9.30 am each week", "p": "at", "time": "9.30 am", "unit": "week",
        "negated": True,
    }
    assert mtc_to_dict(parse_mtc("2 hour before eating")) == {
        "type": 1, "canonical": "2 hour before eating", "n": 2, "unit": "hour", "dp": "before",
        "activity": "eating", "negated": False,
    }


@pytest.mark.parametrize("token", ["dozen", "many", "0", "-3", "3.5", "²", "٣", "1²"])
@pytest.mark.parametrize("form", ["{} times day", "{} hour apart", "{} minute before eating"])
def test_parse_rejects_a_count_that_is_not_a_positive_ascii_integer(token, form):
    with pytest.raises(NonvalidMtcError):
        parse_mtc(form.format(token))


def test_parse_mtc_list_compound():
    result = parse_mtc_list("2 hour before eating; 3 times day; 4 hour apart")
    assert [mtc_type(m) for m in result.mtcs] == [1, 2, 3]
    assert result.invalid == ()


def test_parse_mtc_list_deduplicates():
    result = parse_mtc_list("3 times day\n3 times day")
    assert result.mtcs == (Frequency(3, TimeUnit.DAY),)


def test_parse_mtc_list_mixed_validity():
    result = parse_mtc_list("3 times day; banana")
    assert result.mtcs == (Frequency(3, TimeUnit.DAY),)
    assert len(result.invalid) == 1
    assert result.invalid[0].segment == "banana"


def test_parse_mtc_list_ignores_blank_segments():
    result = parse_mtc_list("3 times day; ;\n")
    assert result.mtcs == (Frequency(3, TimeUnit.DAY),)
    assert result.invalid == ()


def test_dedup_keeps_first_occurrence_order():
    result = parse_mtc_list("6 hour apart; 3 times day; 6 hours apart")
    assert [serialize(m) for m in result.mtcs] == ["6 hour apart", "3 times day"]


# ------------------------------------------------------------- properties

_activities = st.lists(
    st.sampled_from(
        ["eating", "sleep", "exercise", "breakfast", "dinner", "walking", "medication"]
    ),
    min_size=1,
    max_size=3,
    unique=True,
).map(" ".join)
_units = st.sampled_from(list(TimeUnit))
_dps = st.sampled_from(list(DependencyPrep))
_ps = st.sampled_from(list(OccurrencePrep))
_clocks = st.builds(
    ClockTime,
    hour=st.integers(1, 12),
    minute=st.integers(0, 59),
    meridiem=st.sampled_from(["am", "pm"]),
)
_counts = st.integers(1, 120)

_mtcs = st.one_of(
    st.builds(DefinitiveDependency, _counts, _units, _dps, _activities),
    st.builds(Frequency, _counts, _units),
    st.builds(Interval, _counts, _units, st.sampled_from(list(IntervalPrep))),
    st.builds(ImpreciseDependency, _dps, _activities),
    st.builds(TimeDependency, _dps, _clocks),
    st.builds(Consistency, _ps, st.one_of(st.just(SAME_TIME), _clocks), _units),
    st.builds(TimeOfDay, _ps, st.sampled_from(list(DayPart))),
).flatmap(lambda m: st.booleans().map(lambda neg: with_negated(m, neg)))


@given(_mtcs)
def test_a_value_built_from_its_field_texts_is_the_same_value(mtc):
    texts = {f.name: getattr(mtc, f.name) for f in dataclasses.fields(mtc)}
    spelled = type(mtc)(**{name: v.value if isinstance(v, enum.Enum) else v for name, v in texts.items()})
    assert spelled == mtc and serialize(spelled) == serialize(mtc)


@given(_mtcs)
def test_round_trip_property(mtc):
    assert parse_mtc(serialize(mtc)) == mtc


@given(_mtcs)
def test_canonical_strings_are_valid_and_type_stable(mtc):
    text = serialize(mtc)
    assert is_valid(text)
    assert mtc_type(parse_mtc(text)) == mtc_type(mtc)
    assert serialize(parse_mtc(text)) == text


@given(_mtcs)
def test_negation_sets_flag(mtc):
    text = serialize(with_negated(mtc, False))
    assert parse_mtc("not " + text).negated


def test_negation_flag_on_already_negated_string():
    # repeated "not" collapses onto the single boolean
    assert parse_mtc("not not before eating").negated


@given(st.lists(_mtcs, min_size=1, max_size=6))
def test_list_round_trip_and_dedup(mtcs):
    text = "; ".join(serialize(m) for m in mtcs)
    result = parse_mtc_list(text)
    assert result.invalid == ()
    canon = [serialize(m) for m in result.mtcs]
    assert len(set(canon)) == len(canon)
    seen = []
    for m in mtcs:
        if serialize(m) not in seen:
            seen.append(serialize(m))
    assert canon == seen


def test_seeded_fuzz_round_trip_quick():
    rng = random.Random(20260810)
    for _ in range(2000):
        mtc = random_mtc(rng)
        assert parse_mtc(serialize(mtc)) == mtc


# ------------------------------------------------------------------ memo


def _outcome(parse, text):
    try:
        return "parsed", parse(text)
    except NonvalidMtcError as exc:
        return "rejected", exc.reason


_grammar_tokens = st.lists(
    st.sampled_from(
        ["not", "3", "12", "0", "²", "٣", "three", "times", "a", "day", "daily", "hours",
         "before", "after", "eating", "at", "in", "the", "same", "time", "each", "9", "9:30",
         "10.30", "am", "p.m.", "pm", "morning", "apart", "for", "within", "1-2", "or"]
    ),
    max_size=7,
).map(" ".join)
_texts = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40),
    _grammar_tokens,
    st.randoms(use_true_random=False).map(lambda rng: serialize(random_mtc(rng))),
)


@given(_texts)
def test_memoized_parse_equals_uncached_parse(text):
    expected = _outcome(grammar._parse, text)
    assert _outcome(parse_mtc, text) == expected  # cold or warm
    assert _outcome(parse_mtc, text) == expected  # warm
    assert is_valid(text) == (expected[0] == "parsed")


_separator_texts = st.lists(
    st.sampled_from(
        ["not", "3", "times", "day", "30", "minute", "hour", "apart", "before", "after", "in",
         "eating", "sleep", "morning", "9", "am", ";", "eating;sleep", "a;", ";b", "\n"]
    ),
    min_size=1,
    max_size=6,
).map(" ".join)


@given(st.one_of(_texts, _separator_texts))
def test_every_accepted_string_serializes_to_one_list_segment(text):
    try:
        mtc = parse_mtc(text)
    except NonvalidMtcError:
        return
    result = parse_mtc_list(serialize(mtc))
    assert result.mtcs == (mtc,)
    assert result.invalid == ()


def test_each_rejection_raises_a_fresh_error():
    errors = []
    for _ in range(2):
        with pytest.raises(NonvalidMtcError) as caught:
            parse_mtc("2 times day OR 3 times day")
        errors.append(caught.value)
    assert errors[0] is not errors[1]
    assert errors[0].reason == errors[1].reason == "frequency must end with a single time unit"


def test_parse_cache_is_bounded():
    assert PARSE_CACHE_SIZE == 1024
    assert grammar._parse_memo.cache_info().maxsize == PARSE_CACHE_SIZE
    for i in range(PARSE_CACHE_SIZE + 10):
        parse_mtc(f"{i + 1} times day")
    assert grammar._parse_memo.cache_info().currsize == PARSE_CACHE_SIZE


# ------------------------------------------------------- canonical string cache

_random_mtcs = st.randoms(use_true_random=False).map(random_mtc)


def _fresh(mtc):
    """An equal value that has never been serialized."""
    return dataclasses.replace(mtc)


@given(st.one_of(_mtcs, _random_mtcs))
def test_cached_serialize_equals_uncached_render(mtc):
    expected = grammar._render(mtc)
    first = serialize(mtc)  # renders and keeps the string
    assert first == expected
    assert serialize(mtc) is first  # later calls return the kept string
    assert serialize(_fresh(mtc)) == expected


@given(st.one_of(_mtcs, _random_mtcs))
def test_cached_string_is_invisible_to_the_value(mtc):
    plain = _fresh(mtc)
    serialize(mtc)
    assert "_canonical" in vars(mtc) and "_canonical" not in vars(plain)
    assert mtc == plain and plain == mtc
    assert hash(mtc) == hash(plain)
    assert repr(mtc) == repr(plain)
    assert "_canonical" not in repr(mtc)
    assert [f.name for f in dataclasses.fields(mtc)] == [f.name for f in dataclasses.fields(plain)]
    assert mtc_to_dict(mtc) == mtc_to_dict(plain)
    for value in (mtc, plain):
        loaded = pickle.loads(pickle.dumps(value))
        assert loaded == value and repr(loaded) == repr(value)
        assert serialize(loaded) == grammar._render(value)


@given(st.one_of(_mtcs, _random_mtcs))
def test_with_negated_of_a_serialized_value_gets_its_own_string(mtc):
    text = serialize(mtc)
    flipped = with_negated(mtc, not mtc.negated)
    assert serialize(flipped) == grammar._render(flipped) != text
    assert serialize(with_negated(flipped, mtc.negated)) == text
    assert serialize(mtc) is text


def test_serialize_of_a_non_mtc_raises_type_error():
    for value in ("3 times day", 3, SAME_TIME, ClockTime(9), None):
        with pytest.raises(TypeError, match="not an MTC value"):
            serialize(value)
