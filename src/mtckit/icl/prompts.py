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
Rendering is by literal slot replacement, never ``str.format``, and every
block fills all of its slots in one pass, so braces in guideline text
(even a literal ``{answer}``) pass through verbatim and cannot corrupt a
prompt; identical inputs produce byte-identical prompts.

Everything before the query (the header with its grammar, activity and
type-guide slots filled, plus every few-shot example block) depends only
on the template, the few-shot set and the constraint type, so it is
rendered once per template and type and kept on the few-shot set, which
frees it with the set; each :func:`build_prompt` call then validates its
arguments, fills the query and appends it to the kept prefix.
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
    """One of the three prompting strategies."""

    kind: str
    types: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.kind == "specialized":
            if not self.types:
                object.__setattr__(self, "types", SPECIALIZED_DEFAULT_TYPES)
            if not set(self.types) <= set(range(1, 8)):
                raise ValueError(f"specialized types must be within 1..7, got {self.types}")
        elif self.types:
            raise ValueError(f"{self.kind} strategy takes no types")

    @classmethod
    def simple(cls) -> "PromptStrategy":
        return cls("simple")

    @classmethod
    def guided(cls) -> "PromptStrategy":
        return cls("guided")

    @classmethod
    def specialized(cls, types: tuple[int, ...] = SPECIALIZED_DEFAULT_TYPES) -> "PromptStrategy":
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


def default_template(strategy_kind: str) -> PromptTemplate:
    """Template shipped as package data for a strategy kind."""
    if strategy_kind not in _STRATEGY_KINDS:
        raise ValueError(f"unknown strategy {strategy_kind!r}")
    return _packaged_template(strategy_kind)


@functools.cache
def _packaged_template(strategy_kind: str) -> PromptTemplate:
    return load_template(DATA / "prompts" / f"{strategy_kind}.txt", strategy_kind)


@dataclass(frozen=True)
class TypeGuide:
    name: str
    description: str
    heuristic: str


def type_guides() -> dict[int, TypeGuide]:
    """Per-type prompt material (name, description, format heuristic)."""
    return dict(_type_guide_table())


@functools.cache
def _type_guide_table() -> dict[int, TypeGuide]:
    path, layout = DATA / "prompts" / "type_guides.tsv", "type<TAB>name<TAB>description<TAB>heuristic"
    return dict(read_table(path, layout, lambda t, *guide: (int(t), TypeGuide(*guide))))


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
    description and filters example answers) and forbidden otherwise.
    """
    if template.strategy_kind == "specialized":
        if mtc_type is None:
            raise StrategyMismatchError("specialized template needs an mtc_type")
        if mtc_type not in _type_guide_table():
            raise StrategyMismatchError(f"no type guide for constraint type {mtc_type}")
    elif mtc_type is not None:
        raise StrategyMismatchError(f"{template.strategy_kind} template takes no mtc_type")

    # Two threads racing on a first build store equal strings.
    key = (template, mtc_type)
    prefixes = fewshot.__dict__.setdefault(_PREFIXES, {})
    prefix = prefixes.get(key)
    if prefix is None:
        prefix = prefixes.setdefault(key, _render_prefix(template, fewshot, mtc_type))
    query = template.query_format.replace("{text}", dug.text)
    prompt = f"{prefix}\n\n{query}"
    if prompt.count(query) != 1:
        raise PromptBuildError("query block must appear exactly once in the rendered prompt")
    return prompt
