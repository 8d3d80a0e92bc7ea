"""Corpus loading, EHR statement mining, dataset statistics."""

from __future__ import annotations

import json

import pytest

from mtckit import grammar
from mtckit.dataset import (
    DEFAULT_ABBREVIATION_RULES,
    AbbreviationRule,
    CorpusFormatError,
    Dug,
    dataset_stats,
    dump_dugs,
    extract_ehr_statements,
    load_dugs,
)

from conftest import make_dug


def test_load_well_formed(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "a", "source": "fda", "text": "Take 3 times daily.", "labels": ["3 times day"]},
        {"id": "b", "source": "ehr", "text": "On Effexor h.s.", "labels": ["before sleep"]},
        {"id": "c", "source": "medscape", "text": "No constraint here.", "labels": []},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    dugs = load_dugs(path)
    assert len(dugs) == 3
    assert dugs[1].labels[0] == grammar.ImpreciseDependency(grammar.DependencyPrep.BEFORE, "sleep")


def test_load_canonicalizes_gold(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        json.dumps({"id": "a", "source": "fda", "text": "x y", "labels": ["6 hours apart"]}),
        encoding="utf-8",
    )
    (dug,) = load_dugs(path)
    assert dug.label_strings == ("6 hour apart",)


def test_load_reports_all_bad_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        json.dumps({"id": "a", "source": "fda", "text": "ok", "labels": ["3 times day"]}),
        "not json at all",
        json.dumps({"id": "b", "source": "fda", "text": "bad gold", "labels": ["sometimes maybe"]}),
        json.dumps({"id": "c", "source": "venus", "text": "bad source", "labels": []}),
        json.dumps({"id": "a", "source": "fda", "text": "dupe id", "labels": []}),
    ]
    path.write_text("\n".join(rows), encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_dugs(path)
    assert sorted(line for line, _ in err.value.problems) == [2, 3, 4, 5]


def test_dug_validation():
    with pytest.raises(ValueError):
        Dug("x", "fda", "")
    with pytest.raises(ValueError):
        Dug("x", "nope", "text")
    with pytest.raises(ValueError):
        Dug("", "fda", "text")
    for dug_id, text in ((5, "text"), ({"k": 1}, "text"), ("x", 5), ("x", None)):
        with pytest.raises(ValueError, match="dug id and text must be strings"):
            Dug(dug_id, "fda", text)


def test_load_reports_non_string_id_or_text_by_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "a", "source": "fda", "text": "ok", "labels": []},
        {"id": "b", "source": "fda", "text": 5, "labels": []},
        {"id": {"k": 1}, "source": "fda", "text": "ok", "labels": []},
        {"id": 7, "source": "fda", "text": "ok", "labels": []},
    ]
    path.write_text("\n".join(json.dumps(row) for row in rows), encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_dugs(path)
    assert [line for line, _ in err.value.problems] == [2, 3, 4]
    assert all("must be strings" in reason for _, reason in err.value.problems)


def test_load_reports_deep_nesting_by_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("[" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_dugs(path)
    assert [line for line, _ in err.value.problems] == [1]


def test_dug_labels_deduplicate():
    dug = make_dug("x", "text", ["3 times day", "3 times day"])
    assert dug.label_strings == ("3 times day",)


def test_dump_load_round_trip(tmp_path, pool):
    path = tmp_path / "corpus.jsonl"
    dump_dugs(pool, path)
    assert load_dugs(path) == pool


def test_default_rules_are_the_published_eight():
    mapping = {r.abbrev: (r.label, r.mtc_type) for r in DEFAULT_ABBREVIATION_RULES}
    assert mapping == {
        "b.i.d.": ("2 times day", 2),
        "q.d.": ("1 times day", 2),
        "q.h.": ("1 times hour", 2),
        "q.i.d.": ("4 times day", 2),
        "t.i.d.": ("3 times day", 2),
        "h.s.": ("before sleep", 4),
        "p.c.": ("after eating", 4),
        "a.c.": ("before eating", 4),
    }


def test_abbreviation_rule_validation():
    with pytest.raises(grammar.NonvalidMtcError):
        AbbreviationRule("x.y.", "garbage label")


def test_extract_plaquenil_statement():
    report = (
        "The patient has a history of lupus, currently on Plaquenil 200-mg b.i.d. "
        "She denies any fever."
    )
    dugs = extract_ehr_statements(report)
    assert len(dugs) == 1
    assert dugs[0].label_strings == ("2 times day",)
    assert "Plaquenil" in dugs[0].text
    assert dugs[0].source == "ehr"


def test_extract_multiple_abbreviations_union():
    report = "Take omeprazole h.s. and the antacid a.c. with a full glass of water."
    (dug,) = extract_ehr_statements(report)
    assert dug.label_strings == ("before sleep", "before eating")


def test_sentences_without_abbreviations_are_excluded():
    report = "The patient feels fine today. Follow up in two weeks."
    assert extract_ehr_statements(report) == []


def test_length_bounds_filter():
    report = "Metformin b.i.d. now."  # 3 tokens
    assert extract_ehr_statements(report) == []  # default min_tokens=4
    assert len(extract_ehr_statements(report, min_tokens=1)) == 1
    long_report = "Take this " + "very " * 60 + "long statement with aspirin q.d. daily."
    assert extract_ehr_statements(long_report) == []  # over max_tokens=60


def test_min_tokens_must_not_exceed_max():
    with pytest.raises(ValueError):
        extract_ehr_statements("x", min_tokens=5, max_tokens=4)


@pytest.mark.parametrize("rule", DEFAULT_ABBREVIATION_RULES, ids=lambda r: r.abbrev)
def test_splitting_is_abbreviation_safe(rule):
    # one sentence per rule: the dotted abbreviation must not split it
    text = f"Patient remains on the medication {rule.abbrev} per pharmacy."
    dugs = extract_ehr_statements(text, min_tokens=1)
    assert len(dugs) == 1
    assert dugs[0].label_strings == (rule.label,)


def test_guard_list_protects_common_dotted_tokens():
    report = "Dose was 200 mg. of Plaquenil b.i.d. as before."
    (dug,) = extract_ehr_statements(report, min_tokens=1)
    assert "mg." in dug.text and "b.i.d." in dug.text


def test_matching_is_case_insensitive_and_bounded():
    (dug,) = extract_ehr_statements("PLAQUENIL 200-MG B.I.D. AS DIRECTED HERE.", min_tokens=1)
    assert dug.label_strings == ("2 times day",)
    # "h.s." must not fire inside an unrelated token sequence
    assert extract_ehr_statements("The paths. were walked daily by them.", min_tokens=1) == []


def test_stats_counts_and_distribution(pool):
    stats = dataset_stats(pool)
    assert stats.n_dugs == len(pool)
    assert stats.n_mtcs == sum(len(d.labels) for d in pool)  # conservation
    assert sum(stats.dugs_per_source.values()) == stats.n_dugs
    for source, dist in stats.type_distribution.items():
        assert sum(dist.values()) == pytest.approx(100.0, abs=0.01)


def test_stats_type_shares():
    dugs = [
        make_dug("e1", "a b", ["2 times day"], "ehr"),
        make_dug("e2", "a b", ["3 times day"], "ehr"),
        make_dug("e3", "a b", ["1 times day"], "ehr"),
        make_dug("e4", "a b", ["before sleep"], "ehr"),
    ]
    stats = dataset_stats(dugs)
    assert stats.type_distribution["ehr"][2] == pytest.approx(75.0)
    assert stats.type_distribution["ehr"][4] == pytest.approx(25.0)


def test_stats_empty_corpus():
    stats = dataset_stats([])
    assert stats.n_dugs == 0 and stats.n_mtcs == 0
    assert stats.dugs_per_source == {} and stats.type_distribution == {}
