"""Post-processing that aligns raw completion output with the constraint grammar.

Model completions arrive as free text: quoted, multi-line, mixed case, with
number words and instruction stubs. This module reduces them to candidate
constraint strings that the grammar can judge. The pipeline is deliberately
minimal: it never repairs semantics (an ``OR``-joined alternative is left
intact so it fails validity downstream), it only canonicalizes surface noise.

Activity aliases live in a plain-text table (``alias<TAB>canonical``, ``#``
comments) shipped with the package, so new activity vocabulary needs no code
change.

Model answers repeat a narrow vocabulary, so :func:`normalize_raw_output`
and :func:`normalize_activity` each keep the results of the last
``NORMALIZE_CACHE_SIZE`` distinct strings in an LRU cache; the results are
immutable, so callers share one value, and ``__wrapped__`` is the uncached
function. Number words and time units come from :mod:`mtckit.grammar`.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .grammar import NUMBER_WORDS, SEGMENT_SEPARATOR, TimeUnit
from .tables import DATA, read_table

#: Distinct strings whose normalization each memoized function keeps.
NORMALIZE_CACHE_SIZE = 1024

_NUMBER_DIGITS = {word: str(value) for word, value in NUMBER_WORDS.items()}

_PLURAL_UNITS = {unit.value + "s": unit.value for unit in TimeUnit}

# Fixed prefix list; longer instruction repair is out of scope.
_INSTRUCTION_STUBS = ("take ", "taken ", "taking ", "use ")

_QUOTE_PAIRS = [('"', '"'), ("'", "'"), ("`", "`")]


def default_activity_aliases() -> dict[str, str]:
    """Alias table shipped with the package (a copy; the file is read once)."""
    return dict(_default_aliases())


@functools.cache
def _default_aliases() -> dict[str, str]:
    rows = read_table(DATA / "activity_aliases.txt", "alias<TAB>canonical", lambda *row: row)
    return {" ".join(alias.lower().split()): " ".join(canonical.lower().split()) for alias, canonical in rows}


@functools.lru_cache(maxsize=NORMALIZE_CACHE_SIZE)
def normalize_activity(activity: str) -> str:
    """Canonical activity phrase: default alias table applied, else lowercased and collapsed.

    Memoized per string, so equal inputs share one result string.
    """
    folded = " ".join(activity.lower().split())
    return _default_aliases().get(folded, folded)


@dataclass(frozen=True)
class DroppedSegment:
    """A raw-output segment removed by the pipeline, with the reason."""

    segment: str
    reason: str


@dataclass(frozen=True)
class NormalizationResult:
    """Candidate constraint strings recovered from one raw output."""

    candidates: tuple[str, ...]
    dropped: tuple[DroppedSegment, ...] = ()


def _strip_wrapping(text: str) -> str:
    """Trim whitespace, surrounding quote pairs, and terminal punctuation."""
    previous = None
    while previous != text:
        previous = text
        text = text.strip()
        for opening, closing in _QUOTE_PAIRS:
            if len(text) >= 2 and text.startswith(opening) and text.endswith(closing):
                text = text[1:-1].strip()
        text = re.sub(r"[.!?]+$", "", text).strip()
    return text


def _strip_instruction_stub(segment: str) -> str:
    for head in ("do not ", "don't "):
        if segment.startswith(head):
            segment = "not " + segment[len(head):]
            break
    negated = segment.startswith("not ")
    if negated:
        segment = segment[len("not "):]
    for stub in _INSTRUCTION_STUBS:
        if segment.startswith(stub):
            segment = segment[len(stub):]
            break
    return ("not " + segment) if negated else segment


def _apply_activity_alias(tokens: list[str]) -> list[str]:
    # The activity slot is whatever follows the first dependency preposition.
    aliases = _default_aliases()
    for i, token in enumerate(tokens):
        if token in ("before", "after"):
            tail = " ".join(tokens[i + 1:])
            if tail and tail in aliases:
                return tokens[: i + 1] + aliases[tail].split(" ")
            return tokens
    return tokens


@functools.lru_cache(maxsize=NORMALIZE_CACHE_SIZE)
def normalize_raw_output(raw: str) -> NormalizationResult:
    """Reduce one raw completion to candidate constraint strings.

    Pipeline: trim and unwrap the raw text; map a bare ``NONE`` answer to
    zero candidates; split on newlines and ``;``; per segment lowercase,
    rewrite number words to digits, singularize time units, rewrite
    ``times daily`` to ``times day``, strip a leading instruction stub
    (``take``/``taken``/``taking``/``use``, with ``do not`` folding into
    ``not``), and apply the default activity aliases after
    ``before``/``after``. Segments are never split on ``OR``: an
    alternative-joined answer stays one candidate and fails validity
    downstream.

    Memoized per raw string; the result is frozen and holds only tuples,
    so every caller can share it.
    """
    text = _strip_wrapping(raw or "")
    if " ".join(text.lower().split()) == "none":
        return NormalizationResult(())

    candidates: list[str] = []
    dropped: list[DroppedSegment] = []
    for segment in SEGMENT_SEPARATOR.split(text):
        original = segment.strip()
        if not original:
            continue
        cleaned = _strip_wrapping(original).lower()
        cleaned = " ".join(cleaned.split())
        if cleaned == "none":
            dropped.append(DroppedSegment(original, "empty answer token"))
            continue
        cleaned = _strip_instruction_stub(cleaned)
        tokens = cleaned.split()
        tokens = [_NUMBER_DIGITS.get(t, t) for t in tokens]
        tokens = [_PLURAL_UNITS.get(t, t) for t in tokens]
        for i in range(1, len(tokens)):
            if tokens[i] == "daily" and tokens[i - 1] == "times":
                tokens[i] = "day"
        tokens = _apply_activity_alias(tokens)
        candidate = " ".join(tokens)
        if candidate:
            candidates.append(candidate)
        else:
            dropped.append(DroppedSegment(original, "nothing left after cleanup"))
    return NormalizationResult(tuple(candidates), tuple(dropped))
