"""Phrase-pattern type classifier and its scorer."""

from __future__ import annotations

import random
import re

import pytest

from mtckit import rulebase
from mtckit.evaluation import MismatchedIdsError
from mtckit.rulebase import (
    TypePrediction,
    TypeRule,
    classify_corpus,
    classify_types,
    default_type_rules,
    evaluate_type_classifier,
    load_type_rules,
)

from conftest import make_dug
from oracles import oracle_type_metrics


@pytest.mark.parametrize(
    "text, expected",
    [
        ("Plaquenil 200-mg b.i.d.", {2}),
        ("take it in the morning before 9 AM", {5, 7}),
        ("", set()),
        ("Take this medication three times daily.", {2}),
        ("doses at least 6 hours apart", {3}),
        ("use it at the same time each day", {6}),
        ("take 30 minutes before eating", {1, 4}),
        ("nothing temporal in here", set()),
    ],
)
def test_classify_types(text, expected):
    assert set(classify_types(text)) == expected


def test_abbreviation_patterns_cover_all_eight():
    for text, t in [
        ("on Plaquenil b.i.d. daily", 2),
        ("aspirin q.d. as needed", 2),
        ("morphine q.h. for pain", 2),
        ("antibiotic q.i.d. with food", 2),
        ("Wellbutrin t.i.d. by mouth", 2),
        ("Effexor h.s. at home", 4),
        ("antacid p.c. after food", 4),
        ("omeprazole a.c. each time", 4),
    ]:
        assert t in classify_types(text)


def test_rule_validation():
    with pytest.raises(ValueError):
        TypeRule(0, "x")
    with pytest.raises(ValueError):
        TypeRule(8, "x")
    with pytest.raises(ValueError):
        TypeRule(2, "   ")


def test_load_rules_file(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("# comment\n2\tnightly dose\n5\tbefore {clock}\n", encoding="utf-8")
    rules = load_type_rules(path)
    assert [(r.mtc_type, r.pattern) for r in rules] == [(2, "nightly dose"), (5, "before {clock}")]
    assert classify_types("a nightly dose before 9 pm", rules) == {2, 5}


def test_load_rules_rejects_malformed(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("two\tno numeric type\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_type_rules(path)


@pytest.mark.parametrize(
    "row, reason",
    [
        ("two\tno numeric type", "invalid literal"),
        ("9\tbefore {clock}", "type must be 1..7"),
        ("2\tonce daily\textra", "expected 'type<TAB>pattern'"),
        ("2", "expected 'type<TAB>pattern'"),
    ],
)
def test_rule_table_error_names_path_and_line(tmp_path, row, reason):
    path = tmp_path / "rules.tsv"
    path.write_text(f"# comment\n2\tnightly dose\n\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: {reason}"):
        load_type_rules(path)


def test_default_rules_read_once_and_copied():
    rulebase._default_rules.cache_clear()
    first = default_type_rules()
    first.clear()
    assert len(default_type_rules()) == 70
    assert rulebase._default_rules.cache_info().misses == 1


def test_placeholders_and_boundaries():
    rules = [TypeRule(3, "{num} hours apart"), TypeRule(5, "after {clock}")]
    assert classify_types("wait 12 hours apart", rules) == {3}
    assert classify_types("after 10:30 pm only", rules) == {5}
    assert classify_types("xafter 9 amx", rules) == set()
    assert classify_types("hours apart", rules) == set()  # {num} must be present


def test_monotonicity_adding_patterns():
    rng = random.Random(7)
    texts = ["take 3 times a day before meals", "at noon", "no match at all today"]
    base = default_type_rules()
    extra = base + [TypeRule(6, "same hour")]
    for text in texts:
        assert classify_types(text, base) <= classify_types(text, extra)
    shuffled = list(base)
    rng.shuffle(shuffled)
    for text in texts:
        assert classify_types(text, base) == classify_types(text, shuffled)


FIXTURE = [
    ("r1", "Take 2 times a day", ["2 times day"]),
    ("r2", "at least 6 hours apart", ["6 hour apart"]),
    ("r3", "take before 9 am in the morning", ["before 9 am", "in morning"]),
    ("r4", "before meals", ["before eating"]),
    ("r5", "at the same time each day", ["at the same time each day"]),
    ("r6", "30 minutes before eating", ["30 minute before eating"]),
]


def _fixture_dugs():
    return [make_dug(i, text, labels) for i, text, labels in FIXTURE]


_GOLD_TYPES = {
    "r1": {2}, "r2": {3}, "r3": {5, 7}, "r4": {4}, "r5": {6}, "r6": {1},
}


def test_six_dug_fixture_against_hand_computation():
    dugs = _fixture_dugs()
    preds = classify_corpus(dugs)
    assert {p.dug_id: set(p.types) for p in preds} == {
        "r1": {2}, "r2": {3}, "r3": {5, 7}, "r4": {4}, "r5": {6}, "r6": {1, 4},
    }
    report = evaluate_type_classifier(dugs, preds)
    # hand computation: six exact type hits, one extra type-4 prediction on r6
    assert report.per_type[4].precision == pytest.approx(0.5)
    assert report.per_type[4].recall == pytest.approx(1.0)
    assert report.per_type[4].f1 == pytest.approx(2 / 3)
    assert report.macro.precision == pytest.approx(6.5 / 7)
    assert report.macro.recall == pytest.approx(1.0)
    assert report.macro.f1 == pytest.approx(20 / 21)

    oracle = oracle_type_metrics(
        [(d.id, _GOLD_TYPES[d.id]) for d in dugs],
        {p.dug_id: set(p.types) for p in preds},
    )
    assert report.macro.precision == pytest.approx(oracle["macro"]["precision"], abs=1e-12)
    assert report.macro.f1 == pytest.approx(oracle["macro"]["f1"], abs=1e-12)


def test_identical_predictions_score_one():
    dugs = _fixture_dugs()
    preds = [TypePrediction(d.id, frozenset(_GOLD_TYPES[d.id])) for d in dugs]
    report = evaluate_type_classifier(dugs, preds)
    assert report.macro.precision == report.macro.recall == report.macro.f1 == 1.0


def test_empty_predictions_zero_recall():
    dugs = _fixture_dugs()
    preds = [TypePrediction(d.id, frozenset()) for d in dugs]
    report = evaluate_type_classifier(dugs, preds)
    assert report.macro.recall == 0.0
    assert report.macro.f1 == 0.0


def test_mismatched_ids_raise():
    dugs = _fixture_dugs()
    preds = [TypePrediction("zz", frozenset({1}))]
    with pytest.raises(MismatchedIdsError):
        evaluate_type_classifier(dugs, preds)


def test_mismatched_ids_error_names_missing_and_unmatched_ids():
    dugs = _fixture_dugs()
    preds = [TypePrediction(d.id, frozenset()) for d in dugs if d.id != "r2"]
    with pytest.raises(MismatchedIdsError, match=r"missing predictions for \['r2'\], unmatched predictions \['zz'\]"):
        evaluate_type_classifier(dugs, preds + [TypePrediction("zz", frozenset())])
    with pytest.raises(MismatchedIdsError, match=r"duplicate prediction for 'r1'"):
        evaluate_type_classifier(dugs, preds + [TypePrediction("r1", frozenset())])
    with pytest.raises(MismatchedIdsError, match=r"unmatched predictions \[5, 'zz'\]"):
        evaluate_type_classifier(dugs, preds + [TypePrediction(i, frozenset()) for i in ("zz", 5)])


def test_random_corpora_match_oracle():
    rng = random.Random(99)
    for _ in range(25):
        dugs = [
            make_dug(f"d{i}", f"text {i}", rng.sample(
                ["2 times day", "6 hour apart", "before eating", "in morning", "before 9 am"],
                rng.randint(0, 2),
            ))
            for i in range(rng.randint(1, 12))
        ]
        preds = [
            TypePrediction(d.id, frozenset(rng.sample(range(1, 8), rng.randint(0, 3))))
            for d in dugs
        ]
        report = evaluate_type_classifier(dugs, preds)
        from mtckit.grammar import mtc_type
        oracle = oracle_type_metrics(
            [(d.id, {mtc_type(m) for m in d.labels}) for d in dugs],
            {p.dug_id: set(p.types) for p in preds},
        )
        assert report.macro.precision == pytest.approx(oracle["macro"]["precision"], abs=1e-12)
        assert report.macro.recall == pytest.approx(oracle["macro"]["recall"], abs=1e-12)
        assert report.macro.f1 == pytest.approx(oracle["macro"]["f1"], abs=1e-12)
