"""Stratified few-shot example selection.

The prompt examples are picked once from a labeled pool and reused for
every query, so selection has to cover the space well: every constraint
type present in the pool, empty and non-empty answers, single- and
multi-constraint guidelines, and both easy and hard normalization cases.
Selection is greedy over those strata, then seeded-random fill; the same
seed always yields the same set, and selected guidelines are barred from
evaluation (see the leakage guard in extraction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from ..dataset import Dug
from ..grammar import mtc_type


class InsufficientPoolError(ValueError):
    """The pool cannot satisfy the requested size or coverage."""


def is_difficult(dug: Dug) -> bool:
    """True when some gold label does not appear verbatim in the statement.

    Guidelines whose labels read straight off the text are easy formatting
    exercises; ones that require rewording (number words, plural units,
    activity aliases) are the hard normalization cases.
    """
    text = " ".join(dug.text.lower().split())
    return any(label not in text for label in dug.label_strings)


@dataclass(frozen=True)
class PairCoverage:
    """Which strata one few-shot pair covers."""

    types: frozenset[int]
    empty: bool
    multiple: bool
    difficult: bool

    def strata(self) -> frozenset[str]:
        names = {f"type:{t}" for t in self.types}
        names.add("empty" if self.empty else "nonempty")
        names.add("multiple" if self.multiple else "single")
        names.add("difficult" if self.difficult else "simple")
        return frozenset(names)


@dataclass(frozen=True)
class FewShotPair:
    dug: Dug
    answer: str
    coverage: PairCoverage

    def to_dict(self) -> dict:
        record = self.dug.to_dict()
        record["answer"] = self.answer
        record["coverage"] = sorted(self.coverage.strata())
        return record


_PAIRED_STRATA = ("empty", "nonempty", "single", "multiple", "simple", "difficult")

#: Key of a few-shot set's rendered prompt prefixes, with their sha256
#: states and query indexes, by (template header, example format, query
#: format, type), in its ``__dict__``.
#: It is not a dataclass field, so equality, hashing and repr ignore it.
_PREFIXES = "_prefixes"


@dataclass(frozen=True)
class FewShotSet:
    """The fixed example set shown in every prompt.

    Sets compare and hash by their pairs. A guideline is in a set (``dug in
    fewshot``) when it has the id or the text of one of its examples, kept in
    ``ids`` and ``texts``: such a guideline is barred from extraction, since its
    query would repeat an example. ``gaps`` names the paired strata no pair
    covers. All three are settled once, at construction.
    :func:`~mtckit.icl.prompts.build_prompt` keeps the prompt prefixes it
    renders for a set, and the hash state of each, in that set's
    ``__dict__``, so they live exactly as long as the set. A pickled set
    leaves them out: they are rendered from the package data of the process
    that built them, and hash states do not pickle.
    """

    pairs: tuple[FewShotPair, ...]
    gaps: tuple[str, ...] = field(init=False, compare=False)
    ids: frozenset[str] = field(init=False, repr=False, compare=False)
    texts: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        covered = set().union(*(pair.coverage.strata() for pair in self.pairs))
        object.__setattr__(self, "gaps", tuple(s for s in _PAIRED_STRATA if s not in covered))
        object.__setattr__(self, "ids", frozenset(pair.dug.id for pair in self.pairs))
        object.__setattr__(self, "texts", frozenset(pair.dug.text for pair in self.pairs))

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items() if key != _PREFIXES}

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, dug: Dug) -> bool:
        return dug.id in self.ids or dug.text in self.texts


def gold_answer(dug: Dug, mtc_type_filter: int | None = None) -> str:
    """Canonical answer string for a guideline, ``NONE`` when empty.

    With ``mtc_type_filter`` set, only labels of that constraint type count
    (the per-type prompt convention).
    """
    labels = dug.label_strings
    if mtc_type_filter is not None:
        labels = tuple(
            label for label, m in zip(labels, dug.labels) if mtc_type(m) == mtc_type_filter
        )
    return "; ".join(labels) if labels else "NONE"


def _pair(dug: Dug) -> FewShotPair:
    coverage = PairCoverage(
        types=frozenset(mtc_type(m) for m in dug.labels),
        empty=not dug.labels,
        multiple=len(dug.labels) >= 2,
        difficult=is_difficult(dug),
    )
    return FewShotPair(dug, gold_answer(dug), coverage)


def fewshot_from_dugs(dugs: Sequence[Dug]) -> FewShotSet:
    """Wrap an already-chosen example list (e.g. read back from a file)."""
    return FewShotSet(tuple(_pair(dug) for dug in dugs))


def select_fewshot(pool: Sequence[Dug], k: int = 20, seed: int = 0) -> FewShotSet:
    """Pick ``k`` examples from ``pool``: greedy stratum coverage, seeded fill.

    Guarantees (or raises :class:`InsufficientPoolError`): every constraint
    type present in the pool is represented; empty-answer, multi-constraint
    and difficult pairs are included whenever the pool has them. Strata the
    pool itself lacks are recorded as gaps, not errors. Deterministic for a
    given pool, ``k`` and ``seed``. A ``k`` that is not an ``int`` (a ``bool``
    included) raises ``TypeError``.
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"k must be an integer, got {type(k).__name__}")
    if k < 1:
        raise InsufficientPoolError(f"k must be at least 1, got {k}")
    if k > len(pool):
        raise InsufficientPoolError(f"k={k} exceeds pool size {len(pool)}")
    pairs = {dug.id: _pair(dug) for dug in pool}
    if len(pairs) != len(pool):
        raise InsufficientPoolError("pool contains duplicate guideline ids")

    ordered_ids = sorted(pairs)
    selected: list[str] = []
    uncovered: set[str] = set().union(*(p.coverage.strata() for p in pairs.values()))
    while uncovered:
        if len(selected) == k:
            raise InsufficientPoolError(
                f"k={k} cannot cover strata {sorted(uncovered)} (need more slots)"
            )
        best = max(
            (i for i in ordered_ids if i not in selected),
            key=lambda i: (len(pairs[i].coverage.strata() & uncovered), i),
        )
        selected.append(best)
        uncovered -= pairs[best].coverage.strata()

    remaining = [i for i in ordered_ids if i not in selected]
    rng = random.Random(seed)
    selected.extend(rng.sample(remaining, k - len(selected)))
    return FewShotSet(tuple(pairs[i] for i in selected))


def exclude_fewshot(dugs: Sequence[Dug], fewshot: FewShotSet) -> list[Dug]:
    """Evaluation split: the corpus minus the guidelines in the few-shot set,
    by id or by text."""
    return [dug for dug in dugs if dug not in fewshot]
