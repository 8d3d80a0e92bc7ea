"""Phrase-pattern baseline that tags which constraint types a guideline mentions.

This is deliberately the weak baseline: it does not extract constraint
strings, it only detects which of the seven constraint types (1..7) occur
in a statement, using case-insensitive phrase patterns. Patterns live in a
plain-text table (``type<TAB>pattern``, ``#`` comments) so the rule base
can be edited without touching code. Pattern syntax is a literal phrase
with two placeholders: ``{num}`` matches an integer and ``{clock}`` a
12-hour clock time. :func:`evaluate_type_classifier` scores the types with
the multilabel core of :mod:`mtckit.evaluation`; its report's macro average
is one :class:`~mtckit.evaluation.Scores` value (``report.macro.f1``).
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .dataset import Dug
from .evaluation import LabelMetrics, LabelTally, Scores, align_ids, macro_average
from .grammar import MTC_TYPE_NAMES, NUMBER_WORDS, mtc_type
from .tables import DATA, read_table

_NUM_RE = r"(?:\d+|" + "|".join(NUMBER_WORDS) + ")"
_CLOCK_RE = r"\d{1,2}(?:[.:]\d{2})?\s*(?:a\.?m\.?|p\.?m\.?)"


def compile_pattern(pattern: str) -> re.Pattern:
    """Compile a rule pattern to a word-bounded case-insensitive regex."""
    parts = re.split(r"(\{num\}|\{clock\})", pattern)
    regex = "".join(
        _NUM_RE if part == "{num}" else _CLOCK_RE if part == "{clock}" else re.escape(part)
        for part in parts
    )
    return re.compile(r"(?<![A-Za-z0-9])" + regex + r"(?![A-Za-z0-9])", re.IGNORECASE)


@dataclass(frozen=True)
class TypeRule:
    """One phrase pattern voting for one constraint type."""

    mtc_type: int
    pattern: str

    def __post_init__(self) -> None:
        if self.mtc_type not in MTC_TYPE_NAMES:
            raise ValueError(f"type must be 1..7, got {self.mtc_type}")
        if not self.pattern.strip():
            raise ValueError("pattern must be nonempty")
        object.__setattr__(self, "_regex", compile_pattern(self.pattern))

    def matches(self, text: str) -> bool:
        return self._regex.search(text) is not None


def load_type_rules(path: str | Path) -> list[TypeRule]:
    """Read a ``type<TAB>pattern`` rule table (UTF-8, ``#`` comments)."""
    return read_table(path, "type<TAB>pattern", lambda t, pattern: TypeRule(int(t), pattern))


def default_type_rules() -> list[TypeRule]:
    """Rule table shipped with the package (a copy; the file is read once)."""
    return list(_default_rules())


@functools.cache
def _default_rules() -> list[TypeRule]:
    return load_type_rules(DATA / "type_rules.tsv")


def classify_types(text: str, rules: Sequence[TypeRule] | None = None) -> frozenset[int]:
    """Constraint types whose any pattern matches ``text``."""
    if rules is None:
        rules = default_type_rules()
    return frozenset(rule.mtc_type for rule in rules if rule.matches(text))


@dataclass(frozen=True)
class TypePrediction:
    """Predicted constraint types for one guideline."""

    dug_id: str
    types: frozenset[int]

    def __post_init__(self) -> None:
        if not set(self.types) <= MTC_TYPE_NAMES.keys():
            raise ValueError(f"types must be within 1..7, got {sorted(self.types)}")


@dataclass(frozen=True)
class TypeClassifierReport:
    per_type: dict[int, LabelMetrics]
    macro: Scores

    def to_dict(self) -> dict:
        return {
            "per_type": {
                str(t): {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                }
                for t, m in sorted(self.per_type.items())
            },
            "macro": self.macro.to_dict(),
        }


def classify_corpus(dugs: Iterable[Dug], rules: Sequence[TypeRule] | None = None) -> list[TypePrediction]:
    """Run the pattern classifier over a corpus."""
    if rules is None:
        rules = default_type_rules()
    return [TypePrediction(dug.id, classify_types(dug.text, rules)) for dug in dugs]


def evaluate_type_classifier(
    gold: Sequence[Dug], preds: Sequence[TypePrediction]
) -> TypeClassifierReport:
    """Per-type binary metrics against type sets derived from gold labels.

    Macro averages run over types occurring in gold or in predictions;
    with nothing of either, the vacuous macro is 1.0.
    """
    pred_by_id = align_ids(gold, ((pred.dug_id, pred.types) for pred in preds))
    tally = LabelTally()
    for dug in gold:
        tally.add({mtc_type(m) for m in dug.labels}, pred_by_id[dug.id])
    per_type = tally.per_label(sorted(tally.support.keys() | tally.predicted.keys()))
    return TypeClassifierReport(per_type, macro_average(per_type.values()))
