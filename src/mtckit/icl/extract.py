"""End-to-end extraction of constraints from guidelines via a completion client.

One guideline becomes one extraction record: the raw completion text per
call (six calls for the specialized strategy, one otherwise), the
normalized candidate strings with their validity verdicts, and the parsed,
deduplicated constraints. Specialized answers of the wrong type are
dropped from the forwarded predictions but kept flagged, so per-type
precision stays meaningful while nothing is lost for audit. A failed
service call, or a prompt that does not render (:class:`PromptBuildError`),
marks the record failed; results are never fabricated.

:func:`iter_extract_corpus` is the one corpus entry point. Each guideline
reads its strategy's prompt plan, kept on the few-shot set (the template
shipped for the strategy kind and each probe's prefix entry), and fills its
query once; each call then checks the query against its prefix, appends
it, and seeds the request's fingerprint from a copy of the prefix's hash
state and the query's bytes. :func:`_judge` memoizes the judgement
(normalize, parse, off-type split) of an answer to a probe type: the one
per-answer memo on this path, which pays only when answers repeat.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .. import grammar
from ..dataset import Dug
from ..normalize import NORMALIZE_CACHE_SIZE, normalize_raw_output
from .client import CompletionClient, CompletionRequest, ServiceError
from .fewshot import FewShotSet
from .prompts import PromptBuildError, PromptStrategy, _join, _plan, _query

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
    """Everything produced for one guideline, kept for audit.

    Frozen, with the dataclass's ``==``, ``hash`` and ``repr``; its
    ``__init__`` fills the instance ``__dict__`` directly, as
    :class:`~mtckit.icl.client.CompletionRequest`'s does.
    """

    dug_id: str
    strategy: str
    raw_outputs: tuple[RawCall, ...] = ()
    candidates: tuple[CandidateResult, ...] = ()
    predictions: tuple[str, ...] = ()
    mtcs: tuple[grammar.Mtc, ...] = ()
    off_type: tuple[str, ...] = ()
    error: str | None = None

    def __init__(
        self,
        dug_id: str,
        strategy: str,
        raw_outputs: tuple[RawCall, ...] = (),
        candidates: tuple[CandidateResult, ...] = (),
        predictions: tuple[str, ...] = (),
        mtcs: tuple[grammar.Mtc, ...] = (),
        off_type: tuple[str, ...] = (),
        error: str | None = None,
    ) -> None:
        fields = self.__dict__
        fields["dug_id"] = dug_id
        fields["strategy"] = strategy
        fields["raw_outputs"] = raw_outputs
        fields["candidates"] = candidates
        fields["predictions"] = predictions
        fields["mtcs"] = mtcs
        fields["off_type"] = off_type
        fields["error"] = error

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
    temperature: float = 0.0,
    max_tokens: int = 256,
) -> ExtractionRecord:
    """Extract constraints for one guideline.

    Simple and guided strategies issue one completion call; specialized
    issues one call per included type and merges the per-type results.
    Every request carries ``temperature`` and ``max_tokens``; the model is
    the client's. Raises :class:`FewShotLeakageError`, before any call, if
    ``dug`` has the id or the text of a few-shot example.
    """
    if dug in fewshot:
        raise FewShotLeakageError(f"guideline {dug.id!r} is in the few-shot set by id or text")
    template, probes = _plan(strategy, fewshot, dug)
    query = _query(template, dug)
    try:
        encoded = query.encode("utf-8")
    except UnicodeEncodeError:  # left to the fingerprint's own read, which names the place in the prompt
        encoded = None
    raw_outputs: list[RawCall] = []
    candidates: list[CandidateResult] = []
    predictions: list[str] = []
    parsed: list[grammar.Mtc] = []
    off_type: list[str] = []
    error: str | None = None
    for probe, entry in probes:
        try:
            prompt = _join(entry, query)
        except PromptBuildError as exc:  # a few-shot text that holds this guideline's query block
            error = f"{type(exc).__name__}: {exc}"
            break
        request = CompletionRequest(prompt, temperature=temperature, max_tokens=max_tokens)
        state = entry[1]
        if state is not None and encoded is not None:
            # The prompt is the kept prefix, then the query: seed its
            # fingerprint from the prefix's hash without hashing it again.
            digest = state.copy()
            digest.update(encoded)
            request.__dict__["fingerprint"] = digest.digest()
        try:
            response = client.complete(request)
            if not isinstance(response.text, str):
                raise TypeError(f"completion text must be a string, got {type(response.text).__name__}")
        except Exception as exc:  # any client failure marks the record failed
            error = str(exc) if isinstance(exc, ServiceError) else f"{type(exc).__name__}: {exc}"
            break
        call, judged, forwarded, mtcs, off = _judge(response.text, probe)
        raw_outputs.append(call)
        candidates += judged
        predictions += forwarded
        parsed += mtcs
        off_type += off

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


@functools.lru_cache(maxsize=NORMALIZE_CACHE_SIZE)
def _judge(
    text: str, probe: int | None
) -> tuple[RawCall, tuple[CandidateResult, ...], tuple[str, ...], tuple[grammar.Mtc, ...], tuple[str, ...]]:
    """``(call, candidates, predictions, parsed, off_type)`` of one answer to a ``probe`` call.

    ``call`` is the answer as a :class:`RawCall`. Every candidate is judged
    for validity; a valid one of another type than ``probe`` is off-type,
    the rest are forwarded, and ``parsed`` holds the values of the valid
    forwarded ones. The last ``NORMALIZE_CACHE_SIZE`` distinct ``(text,
    probe)`` judgements are kept: they hold only frozen values and tuples of
    them, which every record shares. That saves work only on a repeated
    answer; a new one pays for the key and the store on top of the
    judgement. ``__wrapped__`` is the uncached judgement.
    """
    candidates: list[CandidateResult] = []
    predictions: list[str] = []
    parsed: list[grammar.Mtc] = []
    off_type: list[str] = []
    for candidate in normalize_raw_output(text).candidates:
        try:
            mtc = grammar.parse_mtc(candidate)
        except grammar.NonvalidMtcError as exc:
            candidates.append(CandidateResult(candidate, False, exc.reason))
            predictions.append(candidate)
            continue
        candidates.append(CandidateResult(candidate, True))
        if probe is not None and grammar.mtc_type(mtc) != probe:
            off_type.append(candidate)
            continue
        predictions.append(candidate)
        parsed.append(mtc)
    return RawCall(text, probe), tuple(candidates), tuple(predictions), tuple(parsed), tuple(off_type)


def iter_extract_corpus(
    dugs: Iterable[Dug],
    strategy: PromptStrategy,
    fewshot: FewShotSet,
    client: CompletionClient,
    parallelism: int = 1,
    **request_options,
) -> Iterator[ExtractionRecord]:
    """Yield records in input order as they become available.

    ``request_options`` (``temperature``, ``max_tokens``) go to
    :func:`extract`. ``parallelism`` bounds concurrent completion calls;
    emission order is the input order regardless of completion order. At most
    ``2 * parallelism`` guidelines are taken from ``dugs`` ahead of the
    records yielded so far, so output can be streamed without holding a
    whole corpus in memory. Closing the iterator cancels the guidelines
    not yet started. A ``parallelism`` below 1 raises ``ValueError``, and one
    that is not an ``int`` (a ``bool`` included) ``TypeError``, at the call.
    """
    if isinstance(parallelism, bool) or not isinstance(parallelism, int):
        raise TypeError(f"parallelism must be an integer, got {type(parallelism).__name__}")
    if parallelism < 1:
        raise ValueError(f"parallelism must be at least 1, got {parallelism}")
    return _iter_records(dugs, parallelism, lambda dug: extract(dug, strategy, fewshot, client, **request_options))


def _iter_records(
    dugs: Iterable[Dug], parallelism: int, worker: Callable[[Dug], ExtractionRecord]
) -> Iterator[ExtractionRecord]:
    if parallelism == 1:
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
