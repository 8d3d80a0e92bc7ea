"""Multilabel evaluation of constraint extraction, plus annotation agreement.

Extraction is scored as multilabel classification over a label space built
from gold corpora: the sorted union of canonical gold constraint strings
plus one reserved ``undefined`` label. A predicted candidate maps to
``undefined`` when it does not parse under the grammar or parses to a
constraint absent from the space.

Reported metric families (all in [0, 1]); every averaged family is one
:class:`Scores` value, ``(precision, recall, f1)``, so a report's label-macro
F1 is ``report.macro.f1``:

* per-label precision / recall / F1 with support,
* label-macro averages (labels with gold support, plus ``undefined``
  whenever it was predicted): ``EvalReport.macro``,
* example-averaged metrics (scored per guideline, then averaged):
  ``EvalReport.example``,
* positive-class example-averaged metrics (guidelines with empty gold
  excluded): ``EvalReport.positive``,
* validity rate: the fraction of extracted candidate strings that parse.

Zero-division conventions, declared once and used everywhere: a label with
no predicted positives has precision 0 and one with no gold positives has
recall 0; a guideline where both gold and prediction are empty scores 1.0
on example metrics; an average over an empty collection is 1.0 (there was
nothing to get wrong).

Scoring walks the guidelines once, counting labels (:class:`LabelTally`)
and scoring each guideline as it goes, and tests label-space membership in
a set, so its cost grows with guidelines plus labels, not their product,
and it keeps no per-guideline label sets.
Prediction files are read by :func:`load_predictions`, naming each bad line.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Container, Iterable, Mapping, Sequence, Set
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import grammar
from .dataset import Dug
from .tables import read_lines

UNDEFINED_LABEL = "undefined"

LabelSpace = tuple[str, ...]


class MismatchedIdsError(ValueError):
    """Gold ids and prediction ids do not line up one-to-one."""


def build_label_space(gold: Sequence[Dug]) -> LabelSpace:
    """Sorted unique canonical gold labels plus the reserved ``undefined``."""
    labels = sorted({label for dug in gold for label in dug.label_strings})
    return tuple(labels) + (UNDEFINED_LABEL,)


def _canonical(text: str) -> str | None:
    """The canonical string of ``text``, or ``None`` when it does not parse."""
    try:
        return grammar.serialize(grammar.parse_mtc(text))
    except grammar.NonvalidMtcError:
        return None


def map_to_label(candidate: str, space: Container[str]) -> str:
    """Label-space member for a normalized candidate string.

    Nonvalid candidates and valid constraints missing from the space both
    map to ``undefined``. ``space`` is tested for membership once, so a
    set of labels makes the call independent of the space's size. A
    ``candidate`` that is not a ``str`` is a ``TypeError``.
    """
    if not isinstance(candidate, str):
        raise TypeError(f"candidate must be a string, got {type(candidate).__name__}")
    canonical = _canonical(candidate)
    if canonical is None or canonical not in space:
        return UNDEFINED_LABEL
    return canonical


class Scores(NamedTuple):
    """Precision, recall and F1 of one metric family: an immutable value."""

    precision: float
    recall: float
    f1: float

    def to_dict(self) -> dict[str, float]:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1}


@dataclass(frozen=True)
class LabelMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    predicted: int


@dataclass(frozen=True)
class EvalReport:
    """All metric families for one evaluation run."""

    n_dugs: int
    n_candidates: int
    validity_rate: float
    undefined_predictions: int
    per_label: dict[str, LabelMetrics]
    macro_labels: tuple[str, ...]
    macro: Scores
    example: Scores
    positive: Scores
    positive_n_dugs: int

    def to_dict(self) -> dict:
        """Flat machine-readable view; key names are stable.

        Labels that hold one shared metrics value (see :meth:`LabelTally.per_label`)
        share one ``per_label`` entry; copy an entry before changing it.
        """
        rows: dict[int, dict] = {}
        per_label = {}
        for label, m in self.per_label.items():
            row = rows.get(id(m))
            if row is None:
                row = rows[id(m)] = {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                    "predicted": m.predicted,
                }
            per_label[label] = row
        return {
            "n_dugs": self.n_dugs,
            "n_candidates": self.n_candidates,
            "validity_rate": self.validity_rate,
            "undefined_predictions": self.undefined_predictions,
            "macro": {**self.macro.to_dict(), "labels": list(self.macro_labels)},
            "example_averaged": self.example.to_dict(),
            "positive_class": {**self.positive.to_dict(), "n_dugs": self.positive_n_dugs},
            "per_label": per_label,
        }

    def format_table(self) -> str:
        """Human-readable aligned table of the report."""
        families = [
            ("label-macro", self.macro, ""),
            ("example-averaged", self.example, ""),
            ("positive-class", self.positive, f"  ({self.positive_n_dugs} guidelines)"),
        ]
        width = max(map(len, [*self.per_label, "label", *(name for name, _, _ in families)]))
        lines = [
            f"{'label':<{width}}  {'prec':>6}  {'rec':>6}  {'f1':>6}  {'supp':>5}  {'pred':>5}",
        ]
        for label, m in self.per_label.items():
            lines.append(
                f"{label:<{width}}  {m.precision:>6.3f}  {m.recall:>6.3f}  "
                f"{m.f1:>6.3f}  {m.support:>5d}  {m.predicted:>5d}"
            )
        lines.append("")
        for name, s, note in families:
            lines.append(f"{name:<{width}}  {s.precision:>6.3f}  {s.recall:>6.3f}  {s.f1:>6.3f}{note}")
        lines.append(f"validity rate: {self.validity_rate:.4f}")
        lines.append(f"undefined predictions: {self.undefined_predictions}")
        return "\n".join(lines)


_VACUOUS = Scores(1.0, 1.0, 1.0)


def _means(rows: Sequence[Scores]) -> Scores:
    # ``fsum`` rounds each total once, so the bits do not depend on the row
    # order or on the interpreter (``sum`` compensates rounding from 3.12).
    return Scores(*(math.fsum(column) / len(rows) for column in zip(*rows))) if rows else _VACUOUS


def _prf(tp: int, fp: int, fn: int) -> Scores:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Scores(precision, recall, f1)


def align_ids(gold: Sequence[Dug], pairs: Iterable[tuple[str, object]]) -> dict:
    """``{dug_id: value}`` of ``(dug_id, value)`` pairs that name each gold id once.

    Raises :class:`MismatchedIdsError` for a duplicate, missing or unmatched id.
    """
    by_id = {}
    for dug_id, value in pairs:
        if dug_id in by_id:
            raise MismatchedIdsError(f"duplicate prediction for {dug_id!r}")
        by_id[dug_id] = value
    gold_ids = {dug.id for dug in gold}
    if gold_ids != by_id.keys():
        missing = sorted(gold_ids - by_id.keys())
        extra = sorted(by_id.keys() - gold_ids, key=str)
        raise MismatchedIdsError(f"missing predictions for {missing}, unmatched predictions {extra}")
    return by_id


class LabelTally:
    """Support, predicted and true-positive counts per label, fed one guideline at a time.

    The counting core of :func:`evaluate` and
    :func:`~mtckit.rulebase.evaluate_type_classifier`: neither keeps its
    guidelines' label sets, so memory grows with the labels, not the corpus.
    """

    def __init__(self) -> None:
        self.support: Counter = Counter()
        self.predicted: Counter = Counter()
        self.tp: Counter = Counter()

    def add(self, gold: Set, pred: Set) -> int:
        """Count one guideline's gold and predicted label sets; returns how many
        labels both hold."""
        hits = gold & pred
        # Label by label: a guideline holds a few labels, and Counter.update
        # costs more per call than these loops.
        for label in gold:
            self.support[label] += 1
        for label in pred:
            self.predicted[label] += 1
        for label in hits:
            self.tp[label] += 1
        return len(hits)

    def per_label(self, labels: Iterable) -> dict:
        """``{label: LabelMetrics}`` over the guidelines added so far.

        Labels with the same three counts share one (frozen) metrics value.
        """
        shared: dict[tuple[int, int, int], LabelMetrics] = {}
        per_label = {}
        for label in labels:
            counts = (self.tp[label], self.support[label], self.predicted[label])
            metrics = shared.get(counts)
            if metrics is None:
                hits, gold_n, pred_n = counts
                prf = _prf(hits, pred_n - hits, gold_n - hits)
                metrics = shared[counts] = LabelMetrics(*prf, gold_n, pred_n)
            per_label[label] = metrics
        return per_label


def macro_average(metrics: Iterable[LabelMetrics]) -> Scores:
    """Mean precision, recall and F1 of ``metrics`` (1.0 each over nothing)."""
    return _means([Scores(m.precision, m.recall, m.f1) for m in metrics])


def _candidate_text(entry) -> object:
    # extraction records serialize candidates as {"text", "valid", "reason"}
    if isinstance(entry, Mapping):
        return entry.get("text")
    return entry if isinstance(entry, str) else getattr(entry, "text", None)


def _strings(values, field: str, text=lambda entry: entry) -> list[str]:
    texts = [text(entry) for entry in values] if isinstance(values, (list, tuple)) else None
    if texts is None or not all(isinstance(t, str) for t in texts):
        raise ValueError(f"prediction record {field} must be a list of strings, got {values!r}")
    return texts


def prediction_fields(record) -> tuple[str, tuple[list[str], list[str]]]:
    """``(dug_id, (forwarded predictions, all extracted candidates))`` of a record.

    Accepts extraction records, plain mappings, or anything exposing a
    string ``dug_id`` plus ``predictions`` and/or ``candidates``. Each is a
    list (or tuple) of strings; a candidate may also be a ``{"text": str}``
    object or have a string ``.text``. Raises ``ValueError`` otherwise.
    """
    get = record.get if isinstance(record, Mapping) else partial(getattr, record)
    dug_id = get("dug_id", None)
    if not isinstance(dug_id, str):
        raise ValueError(f"prediction record must be an object with a dug_id string, got {record!r}")
    candidates = _strings(get("candidates", []), "candidates", _candidate_text)
    raw_predictions = get("predictions", None)
    predictions = list(candidates) if raw_predictions is None else _strings(raw_predictions, "predictions")
    if not candidates and predictions:
        candidates = list(predictions)
    return dug_id, (predictions, candidates)


def _prediction_row(line: str) -> dict:
    record = json.loads(line)
    prediction_fields(record)  # evaluate's own check, run here to name the line
    return record


def load_predictions(path: str | Path) -> list[dict]:
    """The records of a prediction file, JSON lines as ``mtc extract`` writes them;
    a line that is not JSON or fails :func:`prediction_fields` is a problem."""
    return read_lines(path, _prediction_row)


def evaluate(gold: Sequence[Dug], records: Sequence, space: LabelSpace | None = None) -> EvalReport:
    """Score extraction records against gold guidelines.

    ``records`` must align one-to-one with ``gold`` by ``dug_id``. When
    ``space`` is omitted it is built from ``gold``. Each distinct candidate
    or prediction string is parsed once, for both its validity and its label.
    """
    if space is None:
        space = build_label_space(gold)
    by_id = align_ids(gold, map(prediction_fields, records))

    gold_space = frozenset(space) - {UNDEFINED_LABEL}
    distinct = dict.fromkeys(text for pair in by_id.values() for texts in pair for text in texts)
    canonical = {text: _canonical(text) for text in distinct}  # one parse for validity and label
    tally = LabelTally()
    # Example scores by (tp, fp, fn), shared by guidelines with equal counts;
    # both sets empty scores 1.0, not the 0.0 of _prf.
    rows: dict[tuple[int, int, int], Scores] = {(0, 0, 0): _VACUOUS}
    example_rows: list[Scores] = []
    positive_rows: list[Scores] = []
    n_candidates = 0
    n_valid = 0
    undefined_predictions = 0
    for dug in gold:
        predictions, candidates = by_id[dug.id]
        n_candidates += len(candidates)
        n_valid += sum(1 for c in candidates if canonical[c] is not None)
        mapped = [canonical[p] if canonical[p] in gold_space else UNDEFINED_LABEL for p in predictions]
        undefined_predictions += sum(1 for m in mapped if m == UNDEFINED_LABEL)
        gold_set = set(dug.label_strings)
        if not gold_set <= gold_space:
            raise ValueError(f"gold labels of {dug.id!r} missing from label space")
        pred_set = set(mapped)
        hits = tally.add(gold_set, pred_set)
        counts = (hits, len(pred_set) - hits, len(gold_set) - hits)
        row = rows.get(counts) or rows.setdefault(counts, _prf(*counts))
        example_rows.append(row)
        if gold_set:
            positive_rows.append(row)

    per_label = tally.per_label(space)
    macro_labels = tuple(
        label
        for label in space
        if per_label[label].support > 0
        or (label == UNDEFINED_LABEL and per_label[label].predicted > 0)
    )
    return EvalReport(
        n_dugs=len(gold),
        n_candidates=n_candidates,
        validity_rate=(n_valid / n_candidates) if n_candidates else 1.0,
        undefined_predictions=undefined_predictions,
        per_label=per_label,
        macro_labels=macro_labels,
        macro=macro_average([per_label[l] for l in macro_labels]),
        example=_means(example_rows),
        positive=_means(positive_rows),
        positive_n_dugs=len(positive_rows),
    )


def krippendorff_alpha(matrix: Sequence[Sequence[object]]) -> float:
    """Krippendorff's alpha for nominal data with missing entries.

    ``matrix`` is units x coders; ``None`` marks a missing judgment. Uses
    the pairable-values formulation: only units with at least two coded
    values contribute. When every pairable value is identical the expected
    disagreement is zero and 1.0 is returned by convention.
    """
    if not matrix:
        raise ValueError("empty annotation matrix")
    n_coders = {len(row) for row in matrix}
    if len(n_coders) != 1:
        raise ValueError("annotation matrix rows must all have the same number of coders")
    if n_coders.pop() < 2:
        raise ValueError("need at least two coders")

    units = [[v for v in row if v is not None] for row in matrix]
    pairable = [u for u in units if len(u) >= 2]
    if not pairable:
        raise ValueError("no unit has two or more coded values")

    n = sum(len(u) for u in pairable)
    observed = 0.0
    totals: dict[object, int] = {}
    for unit in pairable:
        m_u = len(unit)
        counts: dict[object, int] = {}
        for value in unit:
            counts[value] = counts.get(value, 0) + 1
            totals[value] = totals.get(value, 0) + 1
        agreeing = sum(c * (c - 1) for c in counts.values())
        observed += (m_u * (m_u - 1) - agreeing) / (m_u - 1)
    observed /= n

    agreeing_global = sum(c * (c - 1) for c in totals.values())
    expected = (n * (n - 1) - agreeing_global) / (n * (n - 1))
    if expected == 0.0:
        return 1.0
    return 1.0 - observed / expected
