"""Label space, multilabel metrics, validity rate, annotation agreement."""

from __future__ import annotations

import pickle
import random
import time
from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from mtckit import Dug, grammar
from mtckit.evaluation import (
    UNDEFINED_LABEL,
    LabelTally,
    MismatchedIdsError,
    Scores,
    align_ids,
    build_label_space,
    evaluate,
    krippendorff_alpha,
    map_to_label,
)
from mtckit.rulebase import TypePrediction, evaluate_type_classifier

from conftest import (
    NONVALID_CANDIDATES,
    VALID_OUT_OF_SPACE,
    make_dug,
    random_annotation_matrix,
    random_eval_corpus,
    random_mtc,
)
from oracles import oracle_evaluate, oracle_krippendorff, oracle_type_metrics


def test_label_space_union_plus_undefined():
    gold = [
        make_dug("a", "t", ["2 times day", "before sleep"]),
        make_dug("b", "t", ["before sleep"]),
    ]
    assert build_label_space(gold) == ("2 times day", "before sleep", "undefined")


def test_label_space_empty_gold():
    assert build_label_space([]) == ("undefined",)


def test_map_to_label():
    space = ("2 times day", "before sleep", "undefined")
    assert map_to_label("2 times day", space) == "2 times day"
    assert map_to_label("2 times day OR 3 times day", space) == UNDEFINED_LABEL
    assert map_to_label("9 times week", space) == UNDEFINED_LABEL  # valid, out of space
    assert map_to_label("6 hours apart", ("6 hour apart", "undefined")) == "6 hour apart"


def test_identity_predictions_score_one(pool):
    records = [{"dug_id": d.id, "candidates": list(d.label_strings)} for d in pool]
    report = evaluate(pool, records)
    assert report.macro.precision == report.macro.recall == report.macro.f1 == 1.0
    assert report.example.precision == report.example.recall == report.example.f1 == 1.0
    assert report.positive.precision == report.positive.recall == report.positive.f1 == 1.0
    assert report.validity_rate == 1.0
    assert report.undefined_predictions == 0


def test_validity_rate_three_of_four():
    gold = [make_dug("a", "t", ["2 times day"])]
    records = [
        {"dug_id": "a", "candidates": ["2 times day", "6 hour apart", "banana", "before sleep"]}
    ]
    report = evaluate(gold, records)
    assert report.validity_rate == pytest.approx(0.75)
    assert report.n_candidates == 4


def test_mismatched_ids():
    gold = [make_dug("a", "t", [])]
    with pytest.raises(MismatchedIdsError):
        evaluate(gold, [{"dug_id": "zz", "candidates": []}])
    with pytest.raises(MismatchedIdsError):
        evaluate(gold, [{"dug_id": "a", "candidates": []}, {"dug_id": "a", "candidates": []}])


def test_align_ids_names_duplicate_missing_and_unmatched_ids():
    gold = [make_dug("a", "t", []), make_dug("b", "t", [])]
    assert align_ids(gold, [("b", 2), ("a", 1)]) == {"a": 1, "b": 2}
    with pytest.raises(MismatchedIdsError, match=r"duplicate prediction for 'a'"):
        align_ids(gold, [("a", 1), ("a", 1)])
    with pytest.raises(MismatchedIdsError, match=r"missing predictions for \['b'\], unmatched predictions \['z'\]"):
        align_ids(gold, [("a", 1), ("z", 1)])


@pytest.mark.parametrize(
    "record",
    [
        {"dug_id": "a", "candidates": 5},
        {"dug_id": "a", "predictions": "1 times day"},
        {"dug_id": "a", "candidates": "1 times day"},
        {"dug_id": "a", "candidates": [5]},
        {"dug_id": "a", "candidates": [{"valid": True}]},
        {"dug_id": "a", "candidates": [{"text": 5}]},
        {"dug_id": "a", "predictions": [None]},
        {"dug_id": "a", "predictions": [{"text": "1 times day"}]},
        {"dug_id": "a", "candidates": {"1 times day"}},
    ],
)
def test_malformed_prediction_fields_raise_value_error(record):
    gold = [make_dug("a", "t", ["1 times day"])]
    with pytest.raises(ValueError, match="must be a list of strings"):
        evaluate(gold, [record])


@pytest.mark.parametrize("dug_id", [5, None, ["a"]])
def test_prediction_dug_id_must_be_a_string(dug_id):
    gold = [make_dug("5", "t", ["1 times day"])]
    for record in ({"dug_id": dug_id, "candidates": []}, SimpleNamespace(dug_id=dug_id, candidates=[])):
        with pytest.raises(ValueError, match="with a dug_id string"):
            evaluate(gold, [record])


def test_prediction_record_shapes_score_alike():
    gold = [make_dug("a", "t", ["1 times day"])]
    text = SimpleNamespace(text="1 times day")
    shapes = [
        {"dug_id": "a", "candidates": ["1 times day"]},
        {"dug_id": "a", "candidates": [{"text": "1 times day", "valid": True, "reason": None}]},
        {"dug_id": "a", "predictions": ("1 times day",)},
        SimpleNamespace(dug_id="a", candidates=(text,), predictions=("1 times day",)),
    ]
    reports = [evaluate(gold, [record]).to_dict() for record in shapes]
    assert all(report == reports[0] for report in reports)
    assert reports[0]["macro"]["f1"] == 1.0


# 12 guidelines with a designed confusion: exact hits, one swap, a lenient
# surface variant, an extra prediction, a miss, empty-vs-empty, a false
# positive on empty gold, a partial multi-label, a nonvalid output, an
# out-of-space output, and an invalid+hit mix.
CONFUSION_FIXTURE = [
    ("e01", ["2 times day"], ["2 times day"]),
    ("e02", ["3 times day"], ["2 times day"]),
    ("e03", ["6 hour apart"], ["6 hours apart"]),
    ("e04", ["before eating"], ["before eating", "before sleep"]),
    ("e05", ["before sleep"], []),
    ("e06", [], []),
    ("e07", [], ["3 times day"]),
    ("e08", ["in morning", "before 9 am"], ["in morning"]),
    ("e09", ["at the same time each day"], ["2 times day OR 3 times day"]),
    ("e10", ["2 times day", "6 hour apart"], ["2 times day", "6 hour apart"]),
    ("e11", ["before eating"], ["9 times week"]),
    ("e12", ["3 times day"], ["banana", "3 times day"]),
]


def _confusion_inputs():
    gold = [make_dug(i, f"synthetic {i}", labels) for i, labels, _ in CONFUSION_FIXTURE]
    records = [{"dug_id": i, "candidates": cands} for i, _, cands in CONFUSION_FIXTURE]
    return gold, records


def test_confusion_fixture_frozen_values():
    gold, records = _confusion_inputs()
    report = evaluate(gold, records)
    # values computed with the brute-force oracle before the implementation
    assert report.validity_rate == pytest.approx(11 / 13)
    assert report.undefined_predictions == 3
    assert report.macro.precision == pytest.approx(0.46296296296296297, abs=1e-9)
    assert report.macro.recall == pytest.approx(0.4444444444444444, abs=1e-9)
    assert report.macro.f1 == pytest.approx(0.44074074074074077, abs=1e-9)
    assert report.example.precision == pytest.approx(0.5, abs=1e-9)
    assert report.example.recall == pytest.approx(6.5 / 12, abs=1e-9)
    assert report.example.f1 == pytest.approx(0.5, abs=1e-9)
    assert report.positive.precision == pytest.approx(0.5, abs=1e-9)
    assert report.positive.recall == pytest.approx(0.55, abs=1e-9)
    assert report.positive_n_dugs == 10
    assert report.per_label["2 times day"].precision == pytest.approx(2 / 3)
    assert report.per_label["before eating"].recall == pytest.approx(0.5)
    assert report.per_label[UNDEFINED_LABEL].predicted == 3
    assert UNDEFINED_LABEL in report.macro_labels


def test_confusion_fixture_matches_oracle_everywhere():
    gold, records = _confusion_inputs()
    space = build_label_space(gold)
    report = evaluate(gold, records, space).to_dict()
    oracle = oracle_evaluate(
        [(i, labels) for i, labels, _ in CONFUSION_FIXTURE],
        [(i, c) for i, _, c in CONFUSION_FIXTURE],
        space,
    )
    for family in ("macro", "example_averaged", "positive_class"):
        for key in ("precision", "recall", "f1"):
            assert report[family][key] == pytest.approx(oracle[family][key], abs=1e-12)
    for label in space:
        for key in ("precision", "recall", "f1", "support", "predicted"):
            assert report["per_label"][label][key] == pytest.approx(
                oracle["per_label"][label][key], abs=1e-12
            )


def test_random_corpora_match_oracle():
    for seed in range(30):
        rng = random.Random(1000 + seed)
        gold, records = random_eval_corpus(rng)
        space = build_label_space(gold)
        report = evaluate(gold, records, space).to_dict()
        oracle = oracle_evaluate(
            [(d.id, list(d.label_strings)) for d in gold],
            [(r["dug_id"], r["candidates"]) for r in records],
            space,
        )
        for family in ("macro", "example_averaged", "positive_class"):
            for key in ("precision", "recall", "f1"):
                assert report[family][key] == pytest.approx(oracle[family][key], abs=1e-9)
        assert report["validity_rate"] == pytest.approx(oracle["validity_rate"], abs=1e-9)
        assert report["undefined_predictions"] == oracle["undefined_predictions"]


def test_removing_invalid_output_never_lowers_validity():
    gold = [make_dug("a", "t", ["2 times day"])]
    with_junk = [{"dug_id": "a", "candidates": ["2 times day", "banana"]}]
    without = [{"dug_id": "a", "candidates": ["2 times day"]}]
    assert (
        evaluate(gold, without).validity_rate
        >= evaluate(gold, with_junk).validity_rate
    )


def test_report_table_and_dict_shapes():
    gold, records = _confusion_inputs()
    report = evaluate(gold, records)
    table = report.format_table()
    assert "label-macro" in table and "validity rate" in table
    d = report.to_dict()
    assert set(d) == {
        "n_dugs", "n_candidates", "validity_rate", "undefined_predictions",
        "macro", "example_averaged", "positive_class", "per_label",
    }
    for metrics in d["per_label"].values():
        for key in ("precision", "recall", "f1"):
            assert 0.0 <= metrics[key] <= 1.0


def test_report_dicts_keep_the_oracle_keys_and_scores_is_a_value():
    # perfbench/oracle_check.py and tests/oracles.py read exactly these keys.
    prf = {"precision", "recall", "f1"}
    gold, records = _confusion_inputs()
    report = evaluate(gold, records)
    d = report.to_dict()
    assert set(d["macro"]) == prf | {"labels"} and d["macro"]["labels"] == list(report.macro_labels)
    assert set(d["example_averaged"]) == prf
    assert set(d["positive_class"]) == prf | {"n_dugs"} and d["positive_class"]["n_dugs"] == report.positive_n_dugs
    assert all(set(row) == prf | {"support", "predicted"} for row in d["per_label"].values())
    types = evaluate_type_classifier(gold, [TypePrediction(dug.id, frozenset({2})) for dug in gold])
    assert [f.name for f in fields(types)] == ["per_type", "macro"]
    t = types.to_dict()
    assert set(t) == {"per_type", "macro"} and t["macro"] == types.macro.to_dict()
    assert all(set(row) == prf | {"support"} for row in t["per_type"].values())

    scores = Scores(0.5, 0.25, 1 / 3)
    assert scores == Scores(0.5, 0.25, 1 / 3) and hash(scores) == hash(Scores(0.5, 0.25, 1 / 3))
    assert scores != Scores(0.5, 0.25, 0.0)
    assert scores.to_dict() == {"precision": 0.5, "recall": 0.25, "f1": 1 / 3}
    with pytest.raises(AttributeError):
        scores.f1 = 1.0
    copy = pickle.loads(pickle.dumps(scores))
    assert copy == scores and type(copy) is Scores
    assert isinstance(report.macro, Scores) and isinstance(report.example, Scores)
    assert isinstance(report.positive, Scores)


# ------------------------------------------------------- wide label spaces


def _wide_corpus(rng: random.Random, n: int, empty_share: float):
    """About one distinct label per guideline; candidates mix hits (some
    upper-cased, some repeated), nonvalid strings and valid strings that
    are mostly outside the space."""
    gold, records = [], []
    for i in range(n):
        labels = () if rng.random() < empty_share else tuple(random_mtc(rng) for _ in range(rng.randint(1, 3)))
        dug = Dug(f"w{i:04d}", "fda", f"guideline {i}", labels)
        candidates = [
            label.upper() if rng.random() < 0.3 else label
            for label in dug.label_strings
            if rng.random() < 0.7
        ]
        if rng.random() < 0.4:
            candidates.append(grammar.serialize(random_mtc(rng)))
        if rng.random() < 0.3:
            candidates.append(rng.choice(VALID_OUT_OF_SPACE))
        if rng.random() < 0.3:
            candidates.append(rng.choice(NONVALID_CANDIDATES))
        if candidates and rng.random() < 0.3:
            candidates.append(rng.choice(candidates))
        gold.append(dug)
        records.append({"dug_id": dug.id, "candidates": candidates})
    return gold, records


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(100, 250),  # hundreds of labels
    empty_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_wide_label_spaces_match_oracles(seed, n, empty_share):
    # A seeded generator, not st.randoms(): a corpus takes thousands of
    # draws, more than one Hypothesis example may hold.
    rng = random.Random(seed)
    gold, records = _wide_corpus(rng, n, empty_share)
    space = build_label_space(gold)
    report = evaluate(gold, records).to_dict()
    oracle = oracle_evaluate(
        [(d.id, list(d.label_strings)) for d in gold],
        [(r["dug_id"], r["candidates"]) for r in records],
        space,
    )
    for family in ("macro", "example_averaged", "positive_class"):
        for key in ("precision", "recall", "f1"):
            assert report[family][key] == pytest.approx(oracle[family][key], abs=1e-9)
    assert report["macro"]["labels"] == oracle["macro_labels"]
    assert report["positive_class"]["n_dugs"] == oracle["positive_n_dugs"]
    assert report["validity_rate"] == pytest.approx(oracle["validity_rate"], abs=1e-9)
    assert report["undefined_predictions"] == oracle["undefined_predictions"]
    assert list(report["per_label"]) == list(space)
    for label, expected in oracle["per_label"].items():
        for key, value in expected.items():
            assert report["per_label"][label][key] == pytest.approx(value, abs=1e-9)

    gold_types = [(d.id, {grammar.mtc_type(m) for m in d.labels}) for d in gold]
    preds = [TypePrediction(d.id, frozenset(rng.sample(range(1, 8), rng.randint(0, 3)))) for d in gold]
    types = evaluate_type_classifier(gold, preds).to_dict()
    type_oracle = oracle_type_metrics(gold_types, {p.dug_id: set(p.types) for p in preds})
    assert list(types["per_type"]) == [str(t) for t in type_oracle["per_type"]]
    for t, expected in type_oracle["per_type"].items():
        for key, value in expected.items():
            assert types["per_type"][str(t)][key] == pytest.approx(value, abs=1e-9)
    for key in ("precision", "recall", "f1"):
        assert types["macro"][key] == pytest.approx(type_oracle["macro"][key], abs=1e-9)


def test_no_guidelines_matches_oracle():
    report = evaluate([], []).to_dict()
    oracle = oracle_evaluate([], [], build_label_space([]))
    assert report["per_label"] == oracle["per_label"]
    for family in ("macro", "example_averaged", "positive_class"):
        for key in ("precision", "recall", "f1"):
            assert report[family][key] == oracle[family][key] == 1.0
    types = evaluate_type_classifier([], []).to_dict()
    assert types["per_type"] == {} and types["macro"] == oracle_type_metrics([], {})["macro"]


def test_labels_with_equal_counts_share_metrics_and_rows():
    gold_sets = [{"a", "b"}, {"c"}, set()]
    pred_sets = [{"a", "b"}, {"d"}, {"e"}]
    tally = LabelTally()
    for g, p in zip(gold_sets, pred_sets):
        tally.add(g, p)
    per_label = tally.per_label(["a", "b", "c", "d", "e", "z"])
    assert per_label["a"] is per_label["b"]  # tp 1, support 1, predicted 1
    assert per_label["d"] is per_label["e"]  # tp 0, support 0, predicted 1
    assert per_label["c"] is not per_label["d"]
    assert (per_label["z"].support, per_label["z"].predicted, per_label["z"].f1) == (0, 0, 0.0)

    gold = [make_dug("x", "t", ["2 times day", "before sleep"]), make_dug("y", "t", ["in morning"])]
    records = [{"dug_id": "x", "candidates": ["2 times day", "before sleep"]}, {"dug_id": "y", "candidates": []}]
    rows = evaluate(gold, records).to_dict()["per_label"]
    assert rows["2 times day"] is rows["before sleep"]
    assert rows["2 times day"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "support": 1, "predicted": 1}
    assert rows["in morning"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 1, "predicted": 0}


def test_evaluate_is_linear_on_sixteen_thousand_guidelines():
    # About one distinct label per guideline: a scan over every guideline
    # for each label takes tens of seconds at this size, one pass over the
    # sets well under a second.
    gold, records = _wide_corpus(random.Random(16000), 16_000, 0.1)
    start = time.perf_counter()
    report = evaluate(gold, records)
    elapsed = time.perf_counter() - start
    assert len(report.per_label) > 10_000
    assert elapsed < 3.0, f"evaluate took {elapsed:.2f} s"


# --------------------------------------------------------------- alpha


def test_alpha_perfect_agreement():
    assert krippendorff_alpha([["a", "a"], ["b", "b"], ["c", "c"]]) == 1.0


def test_alpha_systematic_disagreement():
    # two coders, two values, four units, always opposite: computed -0.75
    matrix = [["a", "b"], ["a", "b"], ["b", "a"], ["b", "a"]]
    assert krippendorff_alpha(matrix) == pytest.approx(-0.75, abs=1e-12)
    assert oracle_krippendorff(matrix) == pytest.approx(-0.75, abs=1e-12)


def test_alpha_single_unit_degenerate():
    assert krippendorff_alpha([["x", "x"]]) == 1.0  # expected disagreement 0
    assert krippendorff_alpha([["x", "y"]]) == pytest.approx(0.0)


def test_alpha_classic_missing_data_example():
    coder_a = "* * * * * 3 4 1 2 1 1 3 3 * 3".split()
    coder_b = "1 * 2 1 3 3 4 3 * * * * * * *".split()
    coder_c = "* * 2 1 3 4 4 * 2 1 1 3 3 * 4".split()
    matrix = [
        [None if v == "*" else v for v in unit] for unit in zip(coder_a, coder_b, coder_c)
    ]
    assert krippendorff_alpha(matrix) == pytest.approx(0.691358024691358, abs=1e-12)
    assert oracle_krippendorff(matrix) == pytest.approx(0.691358024691358, abs=1e-12)


def test_alpha_input_validation():
    with pytest.raises(ValueError):
        krippendorff_alpha([])
    with pytest.raises(ValueError):
        krippendorff_alpha([["only-one-coder"]])
    with pytest.raises(ValueError):
        krippendorff_alpha([["a", None], [None, "b"]])  # nothing pairable
    with pytest.raises(ValueError):
        krippendorff_alpha([["a", "b"], ["a"]])  # ragged


def test_alpha_random_matrices_bounds_and_permutation():
    for seed in range(40):
        rng = random.Random(2000 + seed)
        matrix = random_annotation_matrix(rng)
        alpha = krippendorff_alpha(matrix)
        assert -1.0 - 1e-9 <= alpha <= 1.0 + 1e-9
        assert alpha == pytest.approx(oracle_krippendorff(matrix), abs=1e-9)
        permuted = [list(reversed(row)) for row in matrix]
        assert krippendorff_alpha(permuted) == pytest.approx(alpha, abs=1e-12)
