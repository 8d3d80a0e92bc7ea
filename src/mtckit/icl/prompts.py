"""Prompt strategies and deterministic prompt rendering.

Three strategies are supported. ``simple`` asks for constraints with a
bare task description; ``guided`` additionally embeds the grammar
(terminals, constraint forms, activity vocabulary), mirroring the written
guide human annotators work from; ``specialized`` runs one prompt per
constraint type, each with a type description and a formatting heuristic,
using ``NONE`` as the empty answer token.

Prompt texts are external template files (``[header]`` / ``[example]`` /
``[query]`` sections) so wording can be tuned without code changes; the
files shipped as package data are reconstructions, not published prompts.
Extraction renders the shipped file for its strategy kind; render another
with ``build_prompt(load_template(path, kind), ...)``.
Rendering is by literal slot replacement, never ``str.format``, and every
block fills all of its slots in one pass, so braces in guideline text
(even a literal ``{answer}``) pass through verbatim and cannot corrupt a
prompt; identical inputs produce byte-identical prompts.

Everything before the query (the header with its grammar, activity and
type-guide slots filled, plus every few-shot example block) depends only
on the template's header and example format, the few-shot set and the
constraint type, so it is rendered once per such key and kept on the
few-shot set, which frees it with the set. With it are kept the sha256
state of its UTF-8 bytes and the blank line after it, on which a replay
fingerprint hashes only the query, and an index of the places where the
query format's leading literal (``"Statement: "``) starts in it. Beside
those entries the set keeps one plan per strategy: its shipped template
and each probe's entry, checked once. :func:`build_prompt` checks its
arguments and looks up its entry on every call; extraction reads the plan
once per guideline, fills the query once, and per probe only checks it
against the index and appends it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path

from .. import grammar
from ..dataset import Dug
from ..normalize import default_activity_aliases
from ..tables import DATA, read_table
from .fewshot import _PREFIXES, FewShotSet, gold_answer

#: Constraint types probed by the specialized strategy. Type 5 is excluded
#: by default: it is vanishingly rare in the gold corpora, so there is no
#: data to exemplify it. Pass explicit types to include it.
SPECIALIZED_DEFAULT_TYPES = (1, 2, 3, 4, 6, 7)

_STRATEGY_KINDS = ("simple", "guided", "specialized")


class StrategyMismatchError(ValueError):
    """Template, strategy, and per-type arguments disagree."""


class PromptBuildError(ValueError):
    """A rendered prompt violates its structural invariants."""


@dataclass(frozen=True)
class PromptStrategy:
    """One of the three prompting strategies; each of ``types`` is a plain ``int``, not a ``bool``."""

    kind: str
    types: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}")
        for member in self.types:
            if type(member) is not int:
                raise TypeError(f"types must hold integers, got {type(member).__name__}")
        if self.kind == "specialized":
            if not self.types:
                object.__setattr__(self, "types", SPECIALIZED_DEFAULT_TYPES)
            if not set(self.types) <= grammar.MTC_TYPE_NAMES.keys():
                raise ValueError(f"specialized types must be within 1..7, got {self.types}")
            if len(set(self.types)) != len(self.types):
                raise ValueError(f"specialized types must not repeat, got {self.types}")
        elif self.types:
            raise ValueError(f"{self.kind} strategy takes no types")

    @classmethod
    def simple(cls) -> "PromptStrategy":
        return cls("simple")

    @classmethod
    def guided(cls) -> "PromptStrategy":
        return cls("guided")

    @classmethod
    def specialized(cls, types: tuple[int, ...] = ()) -> "PromptStrategy":
        return cls("specialized", tuple(types))


@dataclass(frozen=True)
class PromptTemplate:
    """Header plus example/query slot formats for one strategy."""

    strategy_kind: str
    header: str
    example_format: str
    query_format: str

    def __post_init__(self) -> None:
        if self.strategy_kind not in _STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.strategy_kind!r}")
        if "{text}" not in self.example_format or "{answer}" not in self.example_format:
            raise ValueError("example format needs {text} and {answer} slots")
        if "{text}" not in self.query_format:
            raise ValueError("query format needs a {text} slot")


_SECTION_NAMES = ("header", "example", "query")


def load_template(path: str | Path, strategy_kind: str) -> PromptTemplate:
    """Read a sectioned template file (``[header]``/``[example]``/``[query]``)."""
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        name = line.strip().lower()
        if name.startswith("[") and name.endswith("]") and name[1:-1] in _SECTION_NAMES:
            current = sections.setdefault(name[1:-1], [])
            continue
        if current is not None:
            current.append(line)
    missing = [name for name in _SECTION_NAMES if name not in sections]
    if missing:
        raise ValueError(f"{path}: missing template section(s) {missing}")
    header, example, query = ("\n".join(sections[name]).strip() for name in _SECTION_NAMES)
    return PromptTemplate(strategy_kind, header, example, query)


@functools.cache
def default_template(strategy_kind: str) -> PromptTemplate:
    """Template shipped as package data for a strategy kind, read once."""
    if strategy_kind not in _STRATEGY_KINDS:
        raise ValueError(f"unknown strategy {strategy_kind!r}")
    return load_template(DATA / "prompts" / f"{strategy_kind}.txt", strategy_kind)


@dataclass(frozen=True)
class TypeGuide:
    name: str
    description: str
    heuristic: str


def type_guides() -> dict[int, TypeGuide]:
    """Per-type prompt material (declared name, description, format heuristic)."""
    return dict(_type_guide_table())


@functools.cache
def _type_guide_table() -> dict[int, TypeGuide]:
    path, layout = DATA / "prompts" / "type_guides.tsv", "type<TAB>description<TAB>heuristic"
    names = grammar.MTC_TYPE_NAMES
    return dict(read_table(path, layout, lambda t, *guide: (int(t), TypeGuide(names[int(t)], *guide))))


def _terminals_block() -> str:
    return "\n".join(f"- {name}: {values}" for name, values in grammar.TERMINALS)


def _forms_block() -> str:
    return "\n".join(
        f"{t}. {grammar.MTC_TYPE_NAMES[t]}: {form} (e.g. \"{example}\")"
        for t, (form, example) in sorted(grammar.CANONICAL_FORMS.items())
    )


def _activities_block() -> str:
    known = set(default_activity_aliases().values()) | {"taking medication"}
    return ", ".join(sorted(known))


_SLOT = re.compile(r"\{(\w+)\}")


def _fill(text: str, slots: dict[str, str]) -> str:
    """Replace every ``{name}`` slot in one pass; unknown names stay as written."""
    return _SLOT.sub(lambda m: slots.get(m.group(1), m.group(0)), text)


def _render_prefix(template: PromptTemplate, fewshot: FewShotSet, mtc_type: int | None) -> str:
    """Header and every example block, joined: the part of a prompt before the query."""
    slots = {
        "terminals": _terminals_block(),
        "nonterminals": _forms_block(),
        "activities": _activities_block(),
    }
    if mtc_type is not None:
        guide = _type_guide_table()[mtc_type]
        slots.update(
            type_name=guide.name,
            type_description=guide.description,
            format_heuristic=guide.heuristic,
        )
    blocks = [_fill(template.header, slots)]
    for pair in fewshot.pairs:
        answer = pair.answer if mtc_type is None else gold_answer(pair.dug, mtc_type)
        blocks.append(_fill(template.example_format, {"text": pair.dug.text, "answer": answer}))
    return "\n\n".join(blocks)


def build_prompt(
    template: PromptTemplate,
    fewshot: FewShotSet,
    dug: Dug,
    mtc_type: int | None = None,
) -> str:
    """Render header, few-shot examples, and the query for one guideline.

    ``mtc_type`` is required for specialized templates (it selects the type
    description and filters example answers) and forbidden otherwise. A
    ``template``, ``fewshot`` or ``dug`` of another type raises ``TypeError``.
    """
    return _join(_checked_prefix(template, fewshot, dug, mtc_type), _query(template, dug))


def _checked_prefix(template: PromptTemplate, fewshot: FewShotSet, dug: Dug, mtc_type: int | None) -> tuple:
    """The :func:`_prefix` entry for :func:`build_prompt`'s arguments, once they pass its checks."""
    if not isinstance(template, PromptTemplate):
        raise TypeError(f"template must be a PromptTemplate, got {type(template).__name__}")
    if not isinstance(fewshot, FewShotSet):
        raise TypeError(f"fewshot must be a FewShotSet, got {type(fewshot).__name__}")
    if not isinstance(dug, Dug):
        raise TypeError(f"dug must be a Dug, got {type(dug).__name__}")
    if template.strategy_kind == "specialized":
        if mtc_type is None:
            raise StrategyMismatchError("specialized template needs an mtc_type")
        if mtc_type not in _type_guide_table():
            raise StrategyMismatchError(f"no type guide for constraint type {mtc_type}")
    elif mtc_type is not None:
        raise StrategyMismatchError(f"{template.strategy_kind} template takes no mtc_type")
    return _prefix(template, fewshot, mtc_type)


def _join(entry: tuple, query: str) -> str:
    """The prompt of a prefix entry and a query block; a query that occurs in the prefix raises."""
    head, _, width, index = entry
    # Refused exactly when ``(head + query).count(query) != 1``. The query
    # is not empty and ends the prompt. An occurrence inside ``head`` ends
    # before the final one starts, so the count reaches 2; any other one
    # straddles the boundary and overlaps the final one, which the count
    # then skips, so it stays 1. An occurrence at ``p`` inside ``head``
    # starts with the query format's leading literal and ends by the end of
    # ``head``, so for a query of ``width`` characters or more the index
    # lists ``p`` under ``query[:width]``. A shorter one is sought in all of ``head``.
    if index is None or len(query) < width:
        clash = query in head
    else:
        places = index.get(query[:width])
        clash = places is not None and any(head.startswith(query, place) for place in places)
    if clash:
        raise PromptBuildError("query block must appear exactly once in the rendered prompt")
    return head + query


def _plan(strategy: PromptStrategy, fewshot: FewShotSet, dug: Dug) -> tuple:
    """``(template, ((probe, prefix entry), ...))`` kept on ``fewshot`` for ``strategy``.

    Keyed by ``(kind, types)`` beside the prefix entries, built through
    :func:`build_prompt`'s checks and stored whole, so racing threads store
    equal plans. Only a ``Dug`` gets a kept plan; anything else is checked.
    """
    try:
        if isinstance(dug, Dug):
            return fewshot.__dict__[_PREFIXES][strategy.kind, strategy.types]
    except (AttributeError, KeyError):  # a cold set, or no set at all: the checks below say which
        pass
    template = default_template(strategy.kind)
    plan = (template, tuple((t, _checked_prefix(template, fewshot, dug, t)) for t in strategy.types or (None,)))
    return fewshot.__dict__.setdefault(_PREFIXES, {}).setdefault((strategy.kind, strategy.types), plan)


#: How many characters after the query format's leading literal a prefix's
#: index groups the literal's places by.
_INDEX_WIDTH = 16


def _prefix(template: PromptTemplate, fewshot: FewShotSet, mtc_type: int | None) -> tuple:
    """``(head, state, width, index)`` kept on ``fewshot`` for one template and type.

    ``head`` is the prefix and the blank line after it. ``state`` hashes its
    UTF-8 bytes (``None`` when it is not strict UTF-8) and is only ever
    copied, so threads share it. ``index`` lists each place where the query
    format's leading literal (its text before ``{text}``) starts in ``head``
    under the ``width`` characters from there, the literal's length plus
    ``_INDEX_WIDTH``, leaving out places closer than that to the end; it is
    ``None`` for an empty literal. Entries are keyed by the template fields
    they are built from and stored whole, so racing threads store equal ones.
    """
    key = (template.header, template.example_format, template.query_format, mtc_type)
    try:
        return fewshot.__dict__[_PREFIXES][key]
    except KeyError:
        pass
    import hashlib  # here, not at module level: see client.prompt_fingerprint

    head = _render_prefix(template, fewshot, mtc_type) + "\n\n"
    try:
        state = hashlib.sha256(head.encode("utf-8"))
    except UnicodeEncodeError:  # hashing a whole prompt raises, naming the place
        state = None
    literal = template.query_format[: template.query_format.index("{text}")]
    width = len(literal) + _INDEX_WIDTH
    index: dict[str, list[int]] | None = None
    if literal:
        index = {}
        place = head.find(literal)
        while 0 <= place <= len(head) - width:
            index.setdefault(head[place : place + width], []).append(place)
            place = head.find(literal, place + 1)
    return fewshot.__dict__.setdefault(_PREFIXES, {}).setdefault(key, (head, state, width, index))


def _query(template: PromptTemplate, dug: Dug) -> str:
    """The query block for ``dug``: the part of a prompt after its prefix."""
    return template.query_format.replace("{text}", dug.text)
