"""Labeled guideline corpora: loading, statistics, and abbreviation mining.

A corpus is a UTF-8 JSON-lines file, one record per line, with keys
``id`` (string), ``source`` (``fda`` | ``medscape`` | ``ehr``), ``text``
(the guideline statement) and ``labels`` (array of constraint strings).
Gold labels must parse under the grammar; a corpus with unparsable gold
is rejected rather than loaded degraded.

The EHR miner rebuilds statement datasets from free-text medical reports
by searching for the eight dotted sig abbreviations that map one-to-one
onto constraints (``b.i.d.`` is "2 times day", ``h.s.`` is "before sleep",
and so on), with sentence splitting that refuses to break inside them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from . import grammar
from .grammar import Mtc, dedup_mtcs, mtc_type, parse_mtc, serialize

SOURCES = ("fda", "medscape", "ehr")


class CorpusFormatError(ValueError):
    """One or more corpus lines are malformed; carries (line, reason) pairs.

    ``path`` names the file the lines come from, when known; the message
    then starts with it.
    """

    def __init__(self, problems: Sequence[tuple[int, str]], path: str | Path | None = None):
        self.problems = list(problems)
        self.path = path
        lines = "; ".join(f"line {line}: {reason}" for line, reason in self.problems)
        where = "" if path is None else f"{path}: "
        super().__init__(f"{where}{len(self.problems)} bad corpus record(s): {lines}")


@dataclass(frozen=True)
class Dug:
    """A drug usage guideline statement with provenance and gold constraints."""

    id: str
    source: str
    text: str
    labels: tuple[Mtc, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not isinstance(self.text, str):
            raise ValueError(f"dug id and text must be strings, got {self.id!r} and {self.text!r}")
        if not self.id:
            raise ValueError("dug id must be nonempty")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")
        if not self.text.strip():
            raise ValueError(f"dug {self.id!r} has empty text")
        object.__setattr__(self, "labels", dedup_mtcs(list(self.labels)))

    @property
    def label_strings(self) -> tuple[str, ...]:
        return tuple(serialize(m) for m in self.labels)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "source": self.source,
            "text": self.text,
            "labels": list(self.label_strings),
        }


def _dug_from_dict(record: dict) -> Dug:
    for key in ("id", "source", "text", "labels"):
        if key not in record:
            raise ValueError(f"missing key {key!r}")
    if not isinstance(record["labels"], list):
        raise ValueError("'labels' must be an array of strings")
    labels = []
    for label in record["labels"]:
        if not isinstance(label, str):
            raise ValueError(f"gold label {label!r} is not a string")
        try:
            labels.append(parse_mtc(label))
        except grammar.NonvalidMtcError as exc:
            raise ValueError(f"gold label {label!r} does not parse: {exc.reason}") from None
    return Dug(record["id"], record["source"], record["text"], tuple(labels))


def load_dugs(path: str | Path) -> list[Dug]:
    """Load a corpus file, canonicalizing gold labels through the grammar.

    All malformed lines are gathered and reported together in a single
    :class:`CorpusFormatError` that names ``path``; duplicate ids are an
    error.
    """
    dugs: list[Dug] = []
    problems: list[tuple[int, str]] = []
    seen_ids: set[str] = set()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record must be a JSON object")
            dug = _dug_from_dict(record)
            if dug.id in seen_ids:
                raise ValueError(f"duplicate id {dug.id!r}")
            seen_ids.add(dug.id)
            dugs.append(dug)
        except (ValueError, RecursionError) as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise CorpusFormatError(problems, path)
    return dugs


def dump_dugs(dugs: Iterable[Dug], path: str | Path) -> None:
    """Write a corpus file in the line format read by :func:`load_dugs`."""
    with open(path, "w", encoding="utf-8") as fp:
        for dug in dugs:
            fp.write(json.dumps(dug.to_dict(), sort_keys=True) + "\n")


@dataclass(frozen=True)
class AbbreviationRule:
    """A dotted sig abbreviation and the constraint it maps to."""

    abbrev: str
    label: str

    def __post_init__(self) -> None:
        if not self.abbrev:
            raise ValueError("abbreviation must be nonempty")
        parse_mtc(self.label)  # raises NonvalidMtcError on bad label

    @property
    def mtc_type(self) -> int:
        """The constraint type of ``label``."""
        return mtc_type(parse_mtc(self.label))


#: The eight sig abbreviations with a one-to-one constraint mapping.
DEFAULT_ABBREVIATION_RULES = (
    AbbreviationRule("b.i.d.", "2 times day"),
    AbbreviationRule("q.d.", "1 times day"),
    AbbreviationRule("q.h.", "1 times hour"),
    AbbreviationRule("q.i.d.", "4 times day"),
    AbbreviationRule("t.i.d.", "3 times day"),
    AbbreviationRule("h.s.", "before sleep"),
    AbbreviationRule("p.c.", "after eating"),
    AbbreviationRule("a.c.", "before eating"),
)

# Dotted tokens that must not end a sentence during splitting.
_EXTRA_GUARDS = ("mg.", "dr.", "e.g.", "i.e.")


def _split_sentences(text: str, guards: Sequence[str]) -> list[str]:
    """Split on sentence punctuation without breaking inside guarded tokens."""
    protected = text
    for guard in sorted(set(guards), key=len, reverse=True):
        pattern = re.compile(re.escape(guard), re.IGNORECASE)
        protected = pattern.sub(lambda m: m.group(0).replace(".", "\x00"), protected)
    parts = re.split(r"(?<=[.?!])\s+", protected)
    return [part.replace("\x00", ".").strip() for part in parts if part.strip()]


def _abbrev_regex(abbrev: str) -> re.Pattern:
    return re.compile(
        r"(?<![A-Za-z0-9])" + re.escape(abbrev) + r"(?![A-Za-z0-9])", re.IGNORECASE
    )


def extract_ehr_statements(report_text: str, min_tokens: int = 4, max_tokens: int = 60) -> list[Dug]:
    """Mine single-sentence statements containing sig abbreviations.

    A sentence becomes a labeled statement when it contains at least one
    of the :data:`DEFAULT_ABBREVIATION_RULES` abbreviations and its
    whitespace-token count lies in ``[min_tokens, max_tokens]``; its labels
    are the union of all matched rules' labels, and its id is
    ``ehr-NNNN``, numbered from 1 in report order.
    """
    if min_tokens > max_tokens:
        raise ValueError(f"min_tokens {min_tokens} exceeds max_tokens {max_tokens}")
    guards = [rule.abbrev for rule in DEFAULT_ABBREVIATION_RULES] + list(_EXTRA_GUARDS)
    matchers = [(rule, _abbrev_regex(rule.abbrev)) for rule in DEFAULT_ABBREVIATION_RULES]
    dugs: list[Dug] = []
    for sentence in _split_sentences(report_text, guards):
        matched = [rule for rule, rx in matchers if rx.search(sentence)]
        if not matched:
            continue
        if not min_tokens <= len(sentence.split()) <= max_tokens:
            continue
        labels = dedup_mtcs([parse_mtc(rule.label) for rule in matched])
        dugs.append(Dug(f"ehr-{len(dugs) + 1:04d}", "ehr", sentence, labels))
    return dugs


@dataclass(frozen=True)
class CorpusStats:
    """Counts and per-type distribution of a labeled corpus."""

    n_dugs: int
    n_mtcs: int
    dugs_per_source: dict[str, int] = field(default_factory=dict)
    mtcs_per_source: dict[str, int] = field(default_factory=dict)
    #: per source: {type: percentage of that source's constraint instances}
    type_distribution: dict[str, dict[int, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_dugs": self.n_dugs,
            "n_mtcs": self.n_mtcs,
            "dugs_per_source": dict(sorted(self.dugs_per_source.items())),
            "mtcs_per_source": dict(sorted(self.mtcs_per_source.items())),
            "type_distribution": {
                source: {str(t): round(pct, 4) for t, pct in sorted(dist.items())}
                for source, dist in sorted(self.type_distribution.items())
            },
        }


def dataset_stats(dugs: Sequence[Dug]) -> CorpusStats:
    """Exact corpus counts and per-source constraint-type percentages."""
    dugs_per_source: dict[str, int] = {}
    mtcs_per_source: dict[str, int] = {}
    type_counts: dict[str, dict[int, int]] = {}
    n_mtcs = 0
    for dug in dugs:
        dugs_per_source[dug.source] = dugs_per_source.get(dug.source, 0) + 1
        for label in dug.labels:
            n_mtcs += 1
            mtcs_per_source[dug.source] = mtcs_per_source.get(dug.source, 0) + 1
            per_type = type_counts.setdefault(dug.source, {})
            t = mtc_type(label)
            per_type[t] = per_type.get(t, 0) + 1
    distribution = {
        source: {t: 100.0 * count / mtcs_per_source[source] for t, count in per_type.items()}
        for source, per_type in type_counts.items()
    }
    return CorpusStats(len(dugs), n_mtcs, dugs_per_source, mtcs_per_source, distribution)
