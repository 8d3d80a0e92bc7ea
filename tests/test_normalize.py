"""Post-processing pipeline: candidates, aliases, numbers."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from mtckit import grammar, normalize, rulebase, tables
from mtckit.normalize import (
    NORMALIZE_CACHE_SIZE,
    default_activity_aliases,
    normalize_activity,
    normalize_raw_output,
)

from conftest import random_mtc
from test_grammar import CANONICAL_FIXTURES


def candidates(raw: str) -> tuple[str, ...]:
    return normalize_raw_output(raw).candidates


def test_number_word_and_daily_rewrite():
    assert candidates("Three times daily") == ("3 times day",)


def test_none_maps_to_no_candidates():
    assert candidates("NONE") == ()
    assert candidates("  none  ") == ()
    assert candidates('"NONE."') == ()


def test_activity_alias_after_preposition():
    assert candidates("before bedtime") == ("before sleep",)
    assert candidates("30 minutes before a meal") == ("30 minute before eating",)


def test_splits_on_newline_and_semicolon():
    assert candidates("2 times day; 6 hours apart\nbefore sleeping") == (
        "2 times day",
        "6 hour apart",
        "before sleep",
    )


def test_or_alternatives_stay_joined():
    assert candidates("2 times day OR 3 times day") == ("2 times day or 3 times day",)
    assert not grammar.is_valid(candidates("2 times day OR 3 times day")[0])


def test_strips_quotes_and_terminal_punctuation():
    assert candidates('"3 times day."') == ("3 times day",)
    assert candidates("'before eating!'") == ("before eating",)


def test_instruction_stub_stripped():
    assert candidates("Take 2 times day") == ("2 times day",)
    assert candidates("use before sleep") == ("before sleep",)
    assert candidates("taken after eating") == ("after eating",)


def test_do_not_becomes_negation():
    assert candidates("Do not take before exercise") == ("not before exercise",)


def test_segment_level_none_is_dropped_with_reason():
    result = normalize_raw_output("3 times day; NONE")
    assert result.candidates == ("3 times day",)
    assert result.dropped[0].reason == "empty answer token"


def test_no_empty_candidates():
    result = normalize_raw_output("3 times day;;\n\n ; ")
    assert result.candidates == ("3 times day",)
    assert all(result.candidates)


def test_unit_singularization():
    assert candidates("6 hours apart") == ("6 hour apart",)
    assert candidates("two weeks for") == ("2 week for",)


@pytest.mark.parametrize(
    "activity, expected",
    [
        ("sleeping", "sleep"),
        ("bedtime", "sleep"),
        ("going to bed", "sleep"),
        ("meal", "eating"),
        ("meals", "eating"),
        ("a meal", "eating"),
        ("food", "eating"),
        ("each main meal", "eating"),
        ("exercising", "exercise"),
        ("taking Sucralfate", "taking sucralfate"),
        ("eating", "eating"),
        ("  Taking   Medication ", "taking medication"),
    ],
)
def test_normalize_activity(activity, expected):
    assert normalize_activity(activity) == expected


def _read_alias_table(path):
    return tables.read_table(path, "alias<TAB>canonical", lambda *row: row)


def test_alias_table_rejects_malformed(tmp_path):
    path = tmp_path / "aliases.txt"
    path.write_text("justoneword\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: expected 'alias<TAB>canonical'"):
        _read_alias_table(path)


@pytest.mark.parametrize("row", ["justoneword", "supper\t", "supper\teating\textra", "\teating"])
def test_alias_table_error_names_path_and_line(tmp_path, row):
    path = tmp_path / "aliases.txt"
    path.write_text(f"# comment\n\nsupper\teating\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: expected 'alias<TAB>canonical'"):
        _read_alias_table(path)


def test_default_aliases_read_once_and_copied():
    normalize._default_aliases.cache_clear()
    first = default_activity_aliases()
    first["supper"] = "eating"
    assert "supper" not in default_activity_aliases()
    assert normalize._default_aliases.cache_info().misses == 1


def test_default_aliases_cover_published_mappings():
    table = default_activity_aliases()
    for alias, canonical in [
        ("bedtime", "sleep"),
        ("sleeping", "sleep"),
        ("going to bed", "sleep"),
        ("meal", "eating"),
        ("meals", "eating"),
        ("a meal", "eating"),
        ("food", "eating"),
        ("each main meal", "eating"),
        ("exercising", "exercise"),
    ]:
        assert table[alias] == canonical


# ------------------------------------------------------------- properties


@pytest.mark.parametrize("text", CANONICAL_FIXTURES)
def test_valid_strings_stay_valid(text):
    result = normalize_raw_output(text)
    assert len(result.candidates) == 1
    assert grammar.is_valid(result.candidates[0])


def test_idempotence_on_own_candidates():
    raws = [
        "Three times daily; before bedtime",
        "Take 2 times day.\n'6 hours apart'",
        "do not take before exercising",
        "banana OR kiwi; purple monkey",
    ]
    for raw in raws:
        once = normalize_raw_output(raw).candidates
        again = normalize_raw_output("; ".join(once)).candidates
        assert once == again


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200))
def test_never_crashes_and_no_empty_candidates(raw):
    result = normalize_raw_output(raw)
    assert all(c.strip() for c in result.candidates)
    assert all(d.reason for d in result.dropped)


@given(st.sampled_from(["none", "NONE", "None", " none ", "NONE.", '"none"']))
def test_none_totality(raw):
    assert normalize_raw_output(raw).candidates == ()


# ------------------------------------------------------- memo and vocabulary

_raw_outputs = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80),
    st.lists(
        st.sampled_from(
            ["Take", "do not", "NONE", "three", "times", "daily", "hours", "before", "after",
             "bedtime", "meals", "eating", "apart", ";", "\n", '"', ".", "OR", "in", "morning"]
        ),
        max_size=10,
    ).map(" ".join),
    st.randoms(use_true_random=False).map(lambda rng: grammar.serialize(random_mtc(rng))),
)


@given(_raw_outputs)
def test_memoized_normalization_equals_uncached(raw):
    expected = normalize_raw_output.__wrapped__(raw)
    assert normalize_raw_output(raw) == expected  # cold or warm
    assert normalize_raw_output(raw) == expected  # warm


_activity_phrases = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30),
    st.lists(
        st.sampled_from(["Meals", "bedtime", "EATING", "sleeping", "food", "exercise", "  ", "\t"]),
        max_size=4,
    ).map(" ".join),
)


@given(_activity_phrases)
def test_memoized_activity_equals_uncached(phrase):
    expected = normalize_activity.__wrapped__(phrase)
    assert normalize_activity(phrase) == expected  # cold or warm
    assert normalize_activity(phrase) is normalize_activity(phrase)  # one shared string


def test_normalize_cache_is_bounded():
    assert NORMALIZE_CACHE_SIZE == 1024
    assert normalize_raw_output.cache_info().maxsize == NORMALIZE_CACHE_SIZE
    assert normalize_activity.cache_info().maxsize == NORMALIZE_CACHE_SIZE


def test_number_words_come_from_the_grammar():
    assert list(grammar.NUMBER_WORDS) == [
        "one", "two", "three", "four", "five", "six",
        "seven", "eight", "nine", "ten", "eleven", "twelve",
    ]
    for word, value in grammar.NUMBER_WORDS.items():
        assert grammar.parse_mtc(f"{word} times day").n == value
        assert candidates(f"{word} times daily") == (f"{value} times day",)
        assert rulebase.compile_pattern("{num} times").search(f"take {word} times a day")
