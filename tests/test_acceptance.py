"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

from __future__ import annotations

import functools
import json
import os
import random
import time
from pathlib import Path

import pytest

from mtckit import cli, grammar
from mtckit.dataset import (
    DEFAULT_ABBREVIATION_RULES,
    dataset_stats,
    extract_ehr_statements,
    load_dugs,
)
from mtckit.evaluation import build_label_space, evaluate, krippendorff_alpha
from mtckit.icl import FewShotLeakageError, PromptStrategy, ReplayClient, extract, select_fewshot
from mtckit.icl.fewshot import exclude_fewshot

from conftest import (
    make_dug,
    random_annotation_matrix,
    random_eval_corpus,
    random_mtc,
    random_timeline,
    stratified_pool,
)
from oracles import oracle_evaluate, oracle_krippendorff
from replay_scenario import prepare
from test_grammar import CANONICAL_FIXTURES, NONVALID_FIXTURES


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"[ACCEPTANCE] criterion {number:02d} SKIP - {title} ({exc})")
                raise
            except BaseException:
                print(f"[ACCEPTANCE] criterion {number:02d} FAIL - {title}")
                raise
            print(f"[ACCEPTANCE] criterion {number:02d} PASS - {title}")
        return wrapper
    return decorate


@criterion(1, "grammar round-trip: fixtures + 10,000 generated values under 5 s")
def test_criterion_01_grammar_round_trip():
    assert len(CANONICAL_FIXTURES) >= 40
    seen_types = set()
    for text in CANONICAL_FIXTURES:
        mtc = grammar.parse_mtc(text)
        assert grammar.serialize(mtc) == text
        assert grammar.parse_mtc(grammar.serialize(mtc)) == mtc
        seen_types.add(grammar.mtc_type(mtc))
    assert seen_types == {1, 2, 3, 4, 5, 6, 7}
    assert any(grammar.parse_mtc(t).negated for t in CANONICAL_FIXTURES)

    compound = "; ".join(CANONICAL_FIXTURES)
    result = grammar.parse_mtc_list(compound)
    assert result.invalid == ()
    assert [grammar.serialize(m) for m in result.mtcs] == sorted(
        set(CANONICAL_FIXTURES), key=CANONICAL_FIXTURES.index
    )

    rng = random.Random(1234)
    started = time.perf_counter()
    for _ in range(10_000):
        mtc = random_mtc(rng)
        assert grammar.parse_mtc(grammar.serialize(mtc)) == mtc
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"property round-trip took {elapsed:.2f}s"


PUBLISHED_LABELS = [
    ("30 minute before taking Sucralfate", 1),
    ("2 times day", 2),
    ("1 times day", 2),
    ("1 times hour", 2),
    ("4 times day", 2),
    ("3 times day", 2),
    ("before sleep", 4),
    ("after eating", 4),
    ("before eating", 4),
    ("6 hours apart", 3),
    ("at the same time each day", 6),
    ("before 9 am", 5),
    ("in morning", 7),
]


@criterion(2, "published label strings parse to their stated types, 13/13")
def test_criterion_02_label_conformance():
    failures = []
    for text, expected in PUBLISHED_LABELS:
        try:
            got = grammar.mtc_type(grammar.parse_mtc(text))
        except grammar.NonvalidMtcError as exc:
            failures.append((text, str(exc)))
            continue
        if got != expected:
            failures.append((text, f"type {got} != {expected}"))
    assert not failures, failures


@criterion(3, "validity discrimination and exact validity rates")
def test_criterion_03_validity():
    assert not grammar.is_valid("2 times day OR 3 times day")
    mutations = [t for t in NONVALID_FIXTURES if t != "2 times day OR 3 times day"]
    assert len(mutations) >= 20
    for text in mutations:
        assert not grammar.is_valid(text), text
    for text in CANONICAL_FIXTURES:
        assert grammar.is_valid(text), text

    def rate(candidates):
        gold = [make_dug("a", "t", [])]
        return evaluate(gold, [{"dug_id": "a", "candidates": candidates}]).validity_rate

    assert rate(["2 times day", "6 hour apart", "banana", "before sleep"]) == 0.75
    assert rate(["2 times day", "banana", "also junk", "more junk", "in morning"]) == 0.4
    assert rate(["nope", "nada", "zilch"]) == 0.0
    assert rate(["3 times day", "before eating"]) == 1.0


@criterion(4, "EHR mining: 8/8 abbreviation rules yield exactly one labeled statement")
def test_criterion_04_ehr_extraction():
    for rule in DEFAULT_ABBREVIATION_RULES:
        sentence = (
            f"The patient was maintained on the prescribed medication {rule.abbrev} "
            "without any reported side effects."
        )
        dugs = extract_ehr_statements(sentence)
        assert len(dugs) == 1, rule.abbrev
        assert dugs[0].label_strings == (rule.label,), rule.abbrev


@criterion(5, "metric oracle equivalence on 100 random corpora at 1e-9")
def test_criterion_05_metric_oracle():
    for seed in range(100):
        rng = random.Random(31_000 + seed)
        gold, records = random_eval_corpus(rng, max_dugs=20)
        space = build_label_space(gold)
        report = evaluate(gold, records, space).to_dict()
        oracle = oracle_evaluate(
            [(d.id, list(d.label_strings)) for d in gold],
            [(r["dug_id"], r["candidates"]) for r in records],
            space,
        )
        for family in ("macro", "example_averaged", "positive_class"):
            for key in ("precision", "recall", "f1"):
                assert abs(report[family][key] - oracle[family][key]) <= 1e-9, (seed, family, key)
        for label in space:
            for key in ("precision", "recall", "f1", "support", "predicted"):
                assert abs(report["per_label"][label][key] - oracle["per_label"][label][key]) <= 1e-9
        assert abs(report["validity_rate"] - oracle["validity_rate"]) <= 1e-9
        assert report["undefined_predictions"] == oracle["undefined_predictions"]


@criterion(6, "agreement coefficient matches pair-counting oracle on 50 matrices at 1e-9")
def test_criterion_06_agreement():
    assert krippendorff_alpha([["a", "a", "a"], ["b", "b", "b"]]) == 1.0
    for seed in range(50):
        rng = random.Random(77_000 + seed)
        matrix = random_annotation_matrix(rng)
        assert abs(krippendorff_alpha(matrix) - oracle_krippendorff(matrix)) <= 1e-9, seed


# Expected report for the seeded replay configuration, verified against the
# criterion-5 oracle and frozen here.
REPLAY_EXPECTED = {
    "macro": {"precision": 0.8125, "recall": 7 / 9, "f1": 0.7880952380952381},
    "example_averaged": {"precision": 11 / 12, "recall": 0.8833333333333333, "f1": 8 / 9},
    "positive_class": {"precision": 0.9444444444444444, "recall": 0.9074074074074074,
                       "f1": 0.9135802469135803},
    "validity_rate": 30 / 31,
    "undefined_predictions": 1,
    "n_candidates": 31,
}


GOLDEN = Path(__file__).resolve().parent / "golden"


@criterion(7, "replay extraction + eval: byte-identical across 3 runs and to the golden files, report matches oracle")
def test_criterion_07_replay_determinism(tmp_path):
    corpus, fewshot, fixtures, gold = prepare(tmp_path)
    pred_files = []
    report_files = []
    for run in range(3):
        pred = tmp_path / f"pred{run}.jsonl"
        report = tmp_path / f"report{run}.json"
        assert cli.main([
            "extract", "--file", str(corpus), "--fewshot", str(fewshot),
            "--strategy", "specialized", "--client", "replay",
            "--fixtures", str(fixtures), "--out", str(pred),
        ]) == 0
        assert cli.main([
            "eval", "--gold", str(corpus), "--pred", str(pred), "--out", str(report),
        ]) == 0
        pred_files.append(pred.read_bytes())
        report_files.append(report.read_bytes())
    assert pred_files[0] == pred_files[1] == pred_files[2]
    assert report_files[0] == report_files[1] == report_files[2]
    assert pred_files[0] == (GOLDEN / "criterion7_predictions.jsonl").read_bytes()
    assert report_files[0] == (GOLDEN / "criterion7_report.json").read_bytes()

    report = json.loads(report_files[0])
    records = [json.loads(line) for line in pred_files[0].decode().splitlines()]
    space = build_label_space(gold)
    metric_oracle = oracle_evaluate(
        [(d.id, list(d.label_strings)) for d in gold],
        [(r["dug_id"], r["predictions"]) for r in records],
        space,
    )
    for family in ("macro", "example_averaged", "positive_class"):
        for key in ("precision", "recall", "f1"):
            assert abs(report[family][key] - metric_oracle[family][key]) <= 1e-9
            assert abs(report[family][key] - REPLAY_EXPECTED[family][key]) <= 1e-9
    validity_oracle = oracle_evaluate(
        [(d.id, list(d.label_strings)) for d in gold],
        [(r["dug_id"], [c["text"] for c in r["candidates"]]) for r in records],
        space,
    )
    assert abs(report["validity_rate"] - validity_oracle["validity_rate"]) <= 1e-9
    assert abs(report["validity_rate"] - REPLAY_EXPECTED["validity_rate"]) <= 1e-9
    assert report["undefined_predictions"] == REPLAY_EXPECTED["undefined_predictions"]
    assert report["n_candidates"] == REPLAY_EXPECTED["n_candidates"]
    # the omitted constraint type is never predicted
    assert report["per_label"]["before 9 am"]["predicted"] == 0


def _fewshot_pool():
    extra = [
        make_dug(f"q{i:02d}", f"Additional guideline number {i} for the selection pool.",
                 labels, source)
        for i, (labels, source) in enumerate(
            [
                (["2 times day"], "fda"),
                (["3 times day"], "medscape"),
                (["before eating"], "ehr"),
                (["after eating"], "ehr"),
                (["6 hour apart"], "medscape"),
                (["at the same time each day"], "medscape"),
                (["in morning"], "fda"),
                (["before 9 am"], "fda"),
                ([], "fda"),
                ([], "medscape"),
                (["1 times day", "before sleep"], "ehr"),
                (["4 times day"], "ehr"),
                (["not after exercise"], "fda"),
                (["30 minute before eating", "2 times day"], "fda"),
            ]
        )
    ]
    return stratified_pool() + extra


@criterion(8, "few-shot selection: invariants over 20 seeds, no leakage")
def test_criterion_08_fewshot(tmp_path):
    pool = _fewshot_pool()
    present_types = {grammar.mtc_type(m) for d in pool for m in d.labels}
    for seed in range(20):
        fewshot = select_fewshot(pool, k=20, seed=seed)
        assert len(fewshot) == 20
        covered_types = set().union(*(p.coverage.types for p in fewshot.pairs))
        assert covered_types == present_types
        assert any(p.coverage.empty for p in fewshot.pairs)
        assert any(p.coverage.multiple for p in fewshot.pairs)
        assert fewshot.gaps == ()

        eval_split = exclude_fewshot(pool, fewshot)
        assert not {d.id for d in eval_split} & fewshot.ids
        assert len(eval_split) + len(fewshot) == len(pool)
        member = next(d for d in pool if d.id in fewshot.ids)
        with pytest.raises(FewShotLeakageError):
            extract(member, PromptStrategy.simple(), fewshot, ReplayClient(tmp_path / "fixtures.jsonl"))


@criterion(9, "adherence: worked examples plus negation inversion on 1,000 pairs")
def test_criterion_09_adherence():
    import test_adherence as cases

    cases.test_frequency_two_per_day_satisfied()
    cases.test_interval_six_hours_apart_violated()
    cases.test_consistency_spread_of_150_minutes()

    from mtckit.adherence import VerdictStatus, check
    from mtckit.grammar import with_negated

    rng = random.Random(90_210)
    determinate = 0
    attempts = 0
    while determinate < 1000 and attempts < 100_000:
        attempts += 1
        mtc = with_negated(random_mtc(rng), False)
        line = random_timeline(rng)
        verdict = check(mtc, line)
        if verdict.status is VerdictStatus.INDETERMINATE:
            continue
        determinate += 1
        flipped = check(with_negated(mtc), line)
        assert {verdict.status, flipped.status} == {
            VerdictStatus.SATISFIED,
            VerdictStatus.VIOLATED,
        }, (mtc, verdict, flipped)
    assert determinate == 1000, f"only {determinate} determinate pairs in {attempts} attempts"


@criterion(10, "released-corpus statistics (skipped when the corpus is absent)")
def test_criterion_10_released_corpus():
    path = os.environ.get("MTC_CORPUS_PATH", str(Path(__file__).parent.parent / "data" / "corpus.jsonl"))
    if not Path(path).exists():
        pytest.skip(
            f"released corpus not present at {path}; set MTC_CORPUS_PATH after importing it"
        )
    dugs = load_dugs(path)
    stats = dataset_stats(dugs)
    assert stats.n_dugs == 836
    assert stats.dugs_per_source == {"fda": 371, "medscape": 121, "ehr": 344}
    assert stats.n_mtcs == 1051
    assert stats.type_distribution["ehr"][2] == pytest.approx(96.51, abs=0.1)
