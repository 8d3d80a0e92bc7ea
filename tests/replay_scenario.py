"""Deterministic 30-guideline replay scenario for the end-to-end check.

The corpus cycles through ten gold label sets; canned per-type responses
are mostly the gold answers, with designed failures sprinkled in: a
nonvalid ``OR`` answer, a hallucinated consistency constraint, an off-type
answer, an all-``NONE`` miss, and two answers that only become correct
after normalization (activity alias, instruction stub, negation folding).
"""

from __future__ import annotations

from pathlib import Path

from mtckit.dataset import Dug, dump_dugs
from mtckit.grammar import mtc_type, parse_mtc, serialize
from mtckit.icl import ReplayClient, build_prompt, default_template, fewshot_from_dugs

from conftest import stratified_pool

_LABEL_SETS = [
    ["2 times day"],
    ["3 times day", "6 hour apart"],
    ["before eating"],
    ["30 minute before eating"],
    [],
    ["at the same time each day"],
    ["before 9 am", "in morning"],
    ["before sleep"],
    ["4 times day"],
    ["not before exercise"],
]

_TEXTS = [
    "Take one tablet {i} by mouth as directed for the condition.",
    "Swallow the capsule {i} whole with a full glass of water.",
    "Guideline {i}: follow the administration schedule printed on the label.",
    "Statement {i} describes how the medication should be taken.",
    "Prescription note {i} from the attending clinician.",
]


def build_corpus() -> list[Dug]:
    dugs = []
    for i in range(30):
        labels = tuple(parse_mtc(s) for s in _LABEL_SETS[i % 10])
        text = _TEXTS[i % 5].format(i=f"{i:02d}")
        dugs.append(Dug(f"x{i:02d}", "fda", text, labels))
    return dugs


def canned_response(i: int, t: int, dug: Dug) -> str:
    """Replay answer for probe type ``t`` on guideline ``i``."""
    if i == 4 and t == 2:
        return "2 times day OR 3 times day"  # nonvalid alternative
    if i == 7 and t == 6:
        return "at the same time each day"  # hallucinated consistency
    if i == 7 and t == 4:
        return "before bedtime"  # correct after activity aliasing
    if i == 11 and t == 2:
        return "before sleep"  # off-type answer, dropped
    if i == 11 and t == 3:
        return "six hours apart"  # correct after number-word rewrite
    if i == 16:
        return "NONE"  # misses both gold labels
    if i == 22 and t == 4:
        return "Take before each main meal"  # stub strip + alias
    if i == 29 and t == 4:
        return "do not take before exercise"  # negation folding
    labels = [serialize(m) for m in dug.labels if mtc_type(m) == t]
    return "; ".join(labels) if labels else "NONE"


def prepare(base: Path):
    """Write corpus, few-shot file, and stocked fixtures under ``base``.

    Returns (corpus_path, fewshot_path, fixtures_path, gold dugs).
    """
    gold = build_corpus()
    corpus_path = base / "corpus.jsonl"
    dump_dugs(gold, corpus_path)

    fewshot_dugs = stratified_pool()
    fewshot_path = base / "fewshot.jsonl"
    dump_dugs(fewshot_dugs, fewshot_path)
    fewshot = fewshot_from_dugs(fewshot_dugs)

    fixtures_path = base / "fixtures.jsonl"
    client = ReplayClient(fixtures_path)
    template = default_template("specialized")
    for i, dug in enumerate(gold):
        for t in (1, 2, 3, 4, 6, 7):
            prompt = build_prompt(template, fewshot, dug, mtc_type=t)
            client.store(prompt, canned_response(i, t, dug))
    return corpus_path, fewshot_path, fixtures_path, gold
