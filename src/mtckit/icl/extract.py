"""End-to-end extraction of constraints from guidelines via a completion client.

One guideline becomes one extraction record: the raw completion text per
call (six calls for the specialized strategy, one otherwise), the
normalized candidate strings with their validity verdicts, and the parsed,
deduplicated constraints. Specialized answers of the wrong type are
dropped from the forwarded predictions but kept flagged, so per-type
precision stays meaningful while nothing is lost for audit. A failed
service call marks the record failed; results are never fabricated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .. import grammar
from ..dataset import Dug
from ..normalize import normalize_raw_output
from .client import CompletionClient, CompletionRequest, ServiceError
from .fewshot import FewShotSet
from .prompts import PromptStrategy, PromptTemplate, build_prompt, default_template

if TYPE_CHECKING:
    from concurrent.futures import Future


class FewShotLeakageError(ValueError):
    """A guideline scheduled for extraction is part of the few-shot set."""


@dataclass(frozen=True)
class RawCall:
    """One completion call's verbatim output (``mtc_type`` set when specialized)."""

    text: str
    mtc_type: int | None = None


@dataclass(frozen=True)
class CandidateResult:
    """A normalized candidate string and its grammar verdict."""

    text: str
    valid: bool
    reason: str | None = None


@dataclass(frozen=True)
class ExtractionRecord:
    """Everything produced for one guideline, kept for audit."""

    dug_id: str
    strategy: str
    raw_outputs: tuple[RawCall, ...] = ()
    candidates: tuple[CandidateResult, ...] = ()
    predictions: tuple[str, ...] = ()
    mtcs: tuple[grammar.Mtc, ...] = ()
    off_type: tuple[str, ...] = ()
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def to_dict(self) -> dict:
        return {
            "dug_id": self.dug_id,
            "strategy": self.strategy,
            "raw_outputs": [
                {"mtc_type": call.mtc_type, "text": call.text} for call in self.raw_outputs
            ],
            "candidates": [
                {"text": c.text, "valid": c.valid, "reason": c.reason} for c in self.candidates
            ],
            "predictions": list(self.predictions),
            "mtcs": [grammar.serialize(m) for m in self.mtcs],
            "off_type": list(self.off_type),
            "error": self.error,
        }


def extract(
    dug: Dug,
    strategy: PromptStrategy,
    fewshot: FewShotSet,
    client: CompletionClient,
    templates: Mapping[str, PromptTemplate] | None = None,
    temperature: float = 0.0,
    max_tokens: int = 256,
) -> ExtractionRecord:
    """Extract constraints for one guideline.

    Simple and guided strategies issue one completion call; specialized
    issues one call per included type and merges the per-type results.
    Every request carries ``temperature`` and ``max_tokens``; the model is
    the client's. Raises :class:`FewShotLeakageError` if ``dug`` is a
    few-shot example.
    """
    if dug.id in fewshot.ids:
        raise FewShotLeakageError(f"guideline {dug.id!r} is in the few-shot set")
    template = (templates or {}).get(strategy.kind) or default_template(strategy.kind)

    probe_types: tuple[int | None, ...] = strategy.types if strategy.kind == "specialized" else (None,)
    raw_outputs: list[RawCall] = []
    error: str | None = None
    for probe in probe_types:
        prompt = build_prompt(template, fewshot, dug, mtc_type=probe)
        request = CompletionRequest(prompt, temperature=temperature, max_tokens=max_tokens)
        try:
            response = client.complete(request)
        except Exception as exc:  # any client failure marks the record failed
            error = str(exc) if isinstance(exc, ServiceError) else f"{type(exc).__name__}: {exc}"
            break
        raw_outputs.append(RawCall(response.text, probe))

    candidates: list[CandidateResult] = []
    predictions: list[str] = []
    parsed: list[grammar.Mtc] = []
    off_type: list[str] = []
    for call in raw_outputs:
        for candidate in normalize_raw_output(call.text).candidates:
            try:
                mtc = grammar.parse_mtc(candidate)
            except grammar.NonvalidMtcError as exc:
                candidates.append(CandidateResult(candidate, False, exc.reason))
                predictions.append(candidate)
                continue
            candidates.append(CandidateResult(candidate, True))
            if call.mtc_type is not None and grammar.mtc_type(mtc) != call.mtc_type:
                off_type.append(candidate)
                continue
            predictions.append(candidate)
            parsed.append(mtc)

    return ExtractionRecord(
        dug_id=dug.id,
        strategy=strategy.kind,
        raw_outputs=tuple(raw_outputs),
        candidates=tuple(candidates),
        predictions=tuple(predictions),
        mtcs=grammar.dedup_mtcs(parsed),
        off_type=tuple(off_type),
        error=error,
    )


def iter_extract_corpus(
    dugs: Iterable[Dug],
    strategy: PromptStrategy,
    fewshot: FewShotSet,
    client: CompletionClient,
    parallelism: int = 1,
    templates: Mapping[str, PromptTemplate] | None = None,
    **request_options,
) -> Iterator[ExtractionRecord]:
    """Yield records in input order as they become available.

    ``request_options`` (``temperature``, ``max_tokens``) go to
    :func:`extract`. ``parallelism`` bounds concurrent completion calls;
    emission order is the input order regardless of completion order. At most
    ``2 * parallelism`` guidelines are taken from ``dugs`` ahead of the
    records yielded so far, so output can be streamed without holding a
    whole corpus in memory. Closing the iterator cancels the guidelines
    not yet started.
    """

    def worker(dug: Dug) -> ExtractionRecord:
        return extract(dug, strategy, fewshot, client, templates, **request_options)

    if parallelism <= 1:
        for dug in dugs:
            yield worker(dug)
        return
    # Imported here: only this path runs a thread pool.
    from concurrent.futures import ThreadPoolExecutor

    window = 2 * parallelism
    pending: deque[Future[ExtractionRecord]] = deque()
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        try:
            for dug in dugs:
                pending.append(pool.submit(worker, dug))
                if len(pending) == window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def extract_corpus(
    dugs: Iterable[Dug],
    strategy: PromptStrategy,
    fewshot: FewShotSet,
    client: CompletionClient,
    parallelism: int = 1,
    templates: Mapping[str, PromptTemplate] | None = None,
    **request_options,
) -> list[ExtractionRecord]:
    """Extract a whole corpus; the in-memory convenience over the iterator."""
    return list(
        iter_extract_corpus(
            dugs, strategy, fewshot, client, parallelism, templates, **request_options
        )
    )
