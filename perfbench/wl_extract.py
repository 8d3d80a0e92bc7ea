"""The two extraction workloads: ``extract-replay`` and ``extract-parallel``.

extract-replay mirrors ``mtc extract -> mtc eval``: the corpus is written
with ``dump_dugs``, read back with ``load_dugs``, extracted with the
specialized strategy (six calls per guideline) through the package's
``ReplayClient`` over an on-disk fixture directory, written as JSON lines,
read back and scored with ``evaluate``.

extract-parallel runs the guided strategy (one call per guideline) with
``parallelism=2`` against :class:`TableClient`, which answers from memory
after a fixed simulated service time. It is the only workload on the
thread-pool path of ``iter_extract_corpus`` and the only one that waits.

Canned answers carry the surface noise of ``tests/replay_scenario.py`` at
fixed rates. Each noisy form normalizes back to a string known when the
answer is made, so every record's forwarded predictions and off-type list
are known in advance and checked after the measured loop.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import mtckit.dataset as dataset
import mtckit.evaluation as evaluation
import mtckit.icl.prompts as prompts
from mtckit import Dug, grammar
from mtckit.icl import (
    CompletionResponse,
    PromptStrategy,
    ReplayClient,
    ServiceError,
    fewshot_from_dugs,
    prompt_fingerprint,
)

from conftest import stratified_pool
from harness import Pass, latency_summary, reference_round, timed_call

# ``mtckit.icl`` re-exports the function ``extract``, which shadows the module.
extract = importlib.import_module("mtckit.icl.extract")

#: Narrow label vocabulary: real corpora repeat a few dozen canonical strings.
VOCABULARY = (
    "30 minute before eating", "1 hour before eating", "2 hour after eating",
    "15 minute before exercise", "1 hour before sleep", "30 minute after eating",
    "1 times day", "2 times day", "3 times day", "4 times day", "1 times week", "2 times week",
    "6 hour apart", "8 hour apart", "4 hour apart", "12 hour apart", "7 day for", "2 week for",
    "24 hour within",
    "before eating", "after eating", "before sleep", "not before exercise", "after exercise",
    "not after eating",
    "before 9 am", "after 6 pm",
    "at the same time each day", "at 9 am each day", "at the same time each week", "in 8 pm each day",
    "in morning", "in evening", "at noon", "not in evening",
)

TEXTS = (
    "Take one tablet {i} by mouth as directed for the condition.",
    "Swallow capsule {i} whole with a full glass of water.",
    "Guideline {i}: follow the administration schedule printed on the label.",
    "Statement {i} describes how this medication should be taken by adults.",
    "Prescription note {i} from the attending clinician, reviewed at discharge.",
)

ALIASES = {"eating": "meal", "sleep": "bedtime", "exercise": "exercising"}
NUMBER_WORDS = {
    "1": "one", "2": "two", "3": "three", "4": "four", "5": "five", "6": "six",
    "7": "seven", "8": "eight", "9": "nine", "10": "ten", "11": "eleven", "12": "twelve",
}
UNITS = ("minute", "hour", "day", "week")

#: Share of answers replaced whole: a missed answer, an answer of another
#: type (specialized only) and an ``OR``-joined alternative.
ANSWER_NOISE = (("none", 0.04), ("off_type", 0.04), ("or", 0.04))
#: Share of answer segments given one surface variant each.
SEGMENT_NOISE = (
    ("quotes", 0.08), ("mixed_case", 0.08), ("number_words", 0.08), ("plural", 0.08),
    ("times_daily", 0.08), ("stub", 0.08), ("do_not", 0.08), ("alias", 0.05),
)

SPECIALIZED_TYPES = (1, 2, 3, 4, 6, 7)
#: Simulated service time of the extract-parallel client.
SERVICE_SECONDS = 0.003
PARALLELISM = 2
#: Records between two reference rounds in a scaled extraction pass.
ROUNDS_EVERY = 100
CORPUS_SIZE = {"full": 2000, "small": 40}


def _type_of(label: str) -> int:
    return grammar.mtc_type(grammar.parse_mtc(label))


VOCAB_TYPES = {label: _type_of(label) for label in VOCABULARY}


def make_corpus(rng: random.Random, n: int) -> list[Dug]:
    dugs = []
    for i in range(n):
        labels = rng.sample(VOCABULARY, rng.choice((0, 1, 1, 2, 2, 3)))
        text = TEXTS[i % len(TEXTS)].format(i=i)
        if labels and rng.random() < 0.7:
            text += " Directions: " + ", ".join(labels) + "."
        dugs.append(Dug(f"d{i:05d}", rng.choice(("fda", "medscape", "ehr")), text,
                        tuple(grammar.parse_mtc(label) for label in labels)))
    return dugs


def _segment(rng: random.Random, label: str, kinds: dict, alone: bool) -> str:
    """One surface variant of ``label`` that normalizes back to ``label``.

    Quotes go only on an answer's sole segment: the normalizer unwraps the
    whole answer before splitting it, so quotes around the first and last
    of several segments would be read as one pair.
    """
    draw = rng.random()
    kind = None
    for name, rate in SEGMENT_NOISE:
        if draw < rate:
            kind = name
            break
        draw -= rate
    tokens = label.split()
    text = label
    if kind == "quotes" and alone:
        mark = rng.choice(('"', "'", "`"))
        text = f"{mark}{label}{mark}"
    elif kind == "mixed_case":
        text = "".join(c.upper() if rng.random() < 0.5 else c for c in label)
    elif kind == "number_words" and any(t in NUMBER_WORDS for t in tokens):
        text = " ".join(NUMBER_WORDS.get(t, t) for t in tokens)
    elif kind == "plural" and any(t in UNITS and tokens[i - 1].isdigit() for i, t in enumerate(tokens) if i):
        text = " ".join(t + "s" if i and t in UNITS and tokens[i - 1].isdigit() else t
                        for i, t in enumerate(tokens))
    elif kind == "times_daily" and "times day" in label:
        text = label.replace("times day", "times daily")
    elif kind == "stub" and tokens[0] != "not":
        text = rng.choice(("take ", "Take ", "use ")) + label
    elif kind == "do_not" and tokens[0] == "not":
        text = "do not take " + label[len("not "):]
    elif kind == "alias" and tokens[-1] in ALIASES and tokens[-2] in ("before", "after"):
        text = " ".join(tokens[:-1] + [ALIASES[tokens[-1]]])
    else:
        kind = "clean"
    kinds[kind] = kinds.get(kind, 0) + 1
    return text


def canned_answer(rng: random.Random, labels: list[str], probe: int | None, kinds: dict):
    """(answer text, expected predictions, expected off-type) for one call.

    ``probe`` is the specialized probe type, or None for a single guided call.
    """
    wanted = [label for label in labels if probe is None or VOCAB_TYPES[label] == probe]
    draw = rng.random()
    choice = None
    for name, rate in ANSWER_NOISE:
        if draw < rate:
            choice = name
            break
        draw -= rate
    if choice == "none" and wanted:
        kinds["none"] = kinds.get("none", 0) + 1
        return "NONE", [], []
    if choice == "off_type" and probe is not None:
        other = rng.choice([label for label in VOCABULARY if VOCAB_TYPES[label] not in (probe, 5)])
        kinds["off_type"] = kinds.get("off_type", 0) + 1
        return other, [], [other]
    if choice == "or" and wanted:
        first = wanted[0]
        pool = [label for label in VOCABULARY if VOCAB_TYPES[label] == VOCAB_TYPES[first] and label != first]
        kinds["or"] = kinds.get("or", 0) + 1
        joined = f"{first} OR {rng.choice(pool)}"
        rest = wanted[1:]
        text = "; ".join([joined] + [_segment(rng, label, kinds, False) for label in rest])
        return text, [joined.lower()] + rest, []
    if not wanted:
        kinds["empty"] = kinds.get("empty", 0) + 1
        return rng.choice(("NONE", "None", "NONE.")), [], []
    separator = rng.choice(("; ", "\n"))
    alone = len(wanted) == 1
    return separator.join(_segment(rng, label, kinds, alone) for label in wanted), list(wanted), []


class TableClient:
    """``CompletionClient`` answering from memory after a fixed service time.

    Answers are keyed by ``prompt_fingerprint``. ``waited_ns`` accumulates
    the simulated service time actually slept, across worker threads.
    """

    def __init__(self, table: dict[str, str], service_seconds: float):
        self.table = table
        self.service_seconds = service_seconds
        self.waited_ns = 0
        self._lock = threading.Lock()

    def complete(self, request):
        start = time.perf_counter_ns()
        time.sleep(self.service_seconds)
        waited = time.perf_counter_ns() - start
        with self._lock:
            self.waited_ns += waited
        text = self.table.get(prompt_fingerprint(request.prompt))
        if text is None:
            raise ServiceError("no canned answer for this prompt")
        return CompletionResponse(text)


@dataclass
class Inputs:
    dugs: list[Dug]
    corpus_path: Path | None
    strategy: PromptStrategy
    fewshot: object
    client: object
    parallelism: int
    #: dug id -> (expected predictions, expected off-type)
    expected: dict[str, tuple[list[str], list[str]]]
    noise: dict[str, int] = field(default_factory=dict)
    calls: int = 0


def setup_replay(seed: int, scale: str, directory: Path) -> Inputs:
    """Corpus file, few-shot set and one replay fixture per specialized call."""
    rng = random.Random(seed)
    corpus_path = directory / "corpus.jsonl"
    dataset.dump_dugs(make_corpus(rng, CORPUS_SIZE[scale]), corpus_path)
    dugs = dataset.load_dugs(corpus_path)
    fewshot = fewshot_from_dugs(stratified_pool())
    client = ReplayClient(directory / "fixtures")
    template = prompts.default_template("specialized")
    inputs = Inputs(dugs, corpus_path, PromptStrategy.specialized(SPECIALIZED_TYPES), fewshot,
                    client, 1, {})
    for dug in dugs:
        labels = list(dug.label_strings)
        predictions, off_type = [], []
        for probe in SPECIALIZED_TYPES:
            answer, want, off = canned_answer(rng, labels, probe, inputs.noise)
            client.store(prompts.build_prompt(template, fewshot, dug, mtc_type=probe), answer)
            predictions += want
            off_type += off
            inputs.calls += 1
        inputs.expected[dug.id] = (predictions, off_type)
    return inputs


def setup_parallel(seed: int, scale: str, directory: Path) -> Inputs:
    """Corpus in memory and a fingerprint-keyed answer table for guided calls."""
    rng = random.Random(seed)
    dugs = make_corpus(rng, CORPUS_SIZE[scale])
    fewshot = fewshot_from_dugs(stratified_pool())
    template = prompts.default_template("guided")
    table: dict[str, str] = {}
    inputs = Inputs(dugs, None, PromptStrategy.guided(), fewshot,
                    TableClient(table, SERVICE_SECONDS), PARALLELISM, {})
    for dug in dugs:
        answer, want, off = canned_answer(rng, list(dug.label_strings), None, inputs.noise)
        table[prompt_fingerprint(prompts.build_prompt(template, fewshot, dug))] = answer
        inputs.expected[dug.id] = (want, off)
        inputs.calls += 1
    return inputs


def read_rows(path: Path) -> list[dict]:
    """The JSON-lines records a pass wrote."""
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


@dataclass
class PassResult:
    out_path: Path
    extract_ns: int = 0
    evaluate_ns: int = 0
    report: dict | None = None
    errors: list[str] = field(default_factory=list)
    rows: list[dict] | None = None
    waited_ns: int = 0


def run_pass(inputs: Inputs, out_path: Path, tracer, score: bool, tag: str, rounds_every: int = 0) -> Pass:
    """Extract the corpus to JSON lines; with ``score``, read it back and evaluate it.

    With ``rounds_every``, a reference round runs between records that often;
    its time is left out of the pass's times.
    """
    result = PassResult(out_path)
    latencies: list[int] = []
    rounds: list[int] = []
    ops = failed = 0
    start = time.perf_counter_ns()
    span = tracer.open("harness.load", f"load-{tag}")
    dugs = dataset.load_dugs(inputs.corpus_path) if inputs.corpus_path else inputs.dugs
    tracer.close(span)
    records = extract.iter_extract_corpus(
        dugs, inputs.strategy, inputs.fewshot, inputs.client, parallelism=inputs.parallelism
    )
    with open(out_path, "w", encoding="utf-8") as fp:
        try:
            for index in range(len(dugs)):
                if rounds_every and index % rounds_every == rounds_every - 1:
                    rounds.append(reference_round())
                asked = time.perf_counter_ns()
                span = tracer.open("harness.record")
                ops += 1
                try:
                    record = next(records)
                except Exception as exc:  # the run reports failures, it does not abort
                    tracer.close(span, "failed")
                    failed += 1
                    result.errors.append(f"record iterator raised {type(exc).__name__}: {exc}")
                    break
                fp.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
                tracer.close(span, record.dug_id)
                tracer.pending_done(record.dug_id)
                latencies.append(time.perf_counter_ns() - asked)
                failed += int(record.failed)
        finally:
            records.close()
    result.extract_ns = time.perf_counter_ns() - start - sum(rounds)
    report = None
    if score:
        ops += 1
        span = tracer.open("harness.eval", f"eval-{tag}")
        try:
            gold = dataset.load_dugs(inputs.corpus_path)
            rows = read_rows(out_path)
            began = time.perf_counter_ns()
            report = evaluation.evaluate(gold, rows)
            result.evaluate_ns = time.perf_counter_ns() - began
        except Exception as exc:  # scored as a failed operation
            failed += 1
            result.errors.append(f"evaluate raised {type(exc).__name__}: {exc}")
        finally:
            tracer.close(span)
    total_ns = time.perf_counter_ns() - start - sum(rounds)
    if report is not None:
        result.report = report.to_dict()
    return Pass(total_ns, ops, failed, latencies, result, rounds_ns=rounds)


def check_records(inputs: Inputs, out_path: Path, calls_per_guideline: int) -> tuple[int, int, list[str], list[dict]]:
    """(records checked, wrong records, problems, rows) for one pass's output file."""
    rows = read_rows(out_path)
    wrong = 0
    problems = []
    for dug, row in zip(inputs.dugs, rows):
        predictions, off_type = inputs.expected[dug.id]
        issue = None
        if row.get("dug_id") != dug.id:
            issue = f"record order: expected {dug.id}, got {row.get('dug_id')}"
        elif row.get("error") is not None:
            continue  # counted as failed, not as wrong
        elif len(row["raw_outputs"]) != calls_per_guideline:
            issue = f"{dug.id}: {len(row['raw_outputs'])} calls, expected {calls_per_guideline}"
        elif row["predictions"] != predictions:
            issue = f"{dug.id}: predictions {row['predictions']} != {predictions}"
        elif row["off_type"] != off_type:
            issue = f"{dug.id}: off_type {row['off_type']} != {off_type}"
        if issue:
            wrong += 1
            problems.append(issue)
    return min(len(rows), len(inputs.dugs)), wrong, problems, rows


def corrupt_first_record(out_path: Path) -> None:
    """Self-test hook: change one written record so its check must fail."""
    lines = out_path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[0])
    row["predictions"] = row["predictions"] + ["2 times day"]
    lines[0] = json.dumps(row, sort_keys=True)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def traffic(inputs: Inputs, rows: list[dict]) -> dict:
    """Measured traffic properties of one pass over the corpus."""
    labels = {label for dug in inputs.dugs for label in dug.label_strings}
    predictions = [p for row in rows for p in row["predictions"]]
    return {
        "guidelines": len(inputs.dugs),
        "label_space": len(labels) + 1,
        "label_space_per_guideline": (len(labels) + 1) / len(inputs.dugs),
        "calls_per_guideline": inputs.calls / len(inputs.dugs),
        "distinct_prediction_share": len(set(predictions)) / len(predictions) if predictions else 0.0,
        "noise_counts": dict(sorted(inputs.noise.items())),
        "waits_on_service": isinstance(inputs.client, TableClient),
        "parallelism": inputs.parallelism,
    }


class _Extraction:
    """What the two extraction workloads share: passes, record checks, summaries."""

    name = ""
    roots = {"harness.load", "harness.record"}
    score = False
    # Records take a millisecond or two, so over a whole pass their p99 mostly
    # measured bursts of the shared host and thread hand-offs (a quarter to
    # a half of the median, run to run). The gated tail is the median, over
    # runs of 100 records, of their p90; record_p99_ms is still reported.
    tail = 0.9
    tail_group = ROUNDS_EVERY

    def clients(self, inputs):
        return [inputs.client]

    def run_pass(self, inputs, tracer, tag, directory):
        every = ROUNDS_EVERY if self.scaled else 0
        return run_pass(inputs, directory / f"records-{tag}.jsonl", tracer, self.score, tag, every)

    def record_checks(self, inputs, passes, corrupt):
        checked = wrong = 0
        problems = []
        calls = inputs.calls // len(inputs.dugs)
        for index, p in enumerate(passes):
            if corrupt and index == 0:
                corrupt_first_record(p.data.out_path)
            n, bad, issues, rows = check_records(inputs, p.data.out_path, calls)
            checked += n
            wrong += bad
            problems += issues[:3] + p.data.errors[:3]
            p.data.rows = rows if index == 0 else None
        return checked, wrong, 0, problems

    def oracle_jobs(self, inputs, passes, corrupt):
        return []

    def summarize(self, inputs, passes, outcome):
        n = len(inputs.dugs)
        latency = latency_summary(passes)
        records_per_s = statistics.median(n / (p.scaled(p.data.extract_ns) / 1e9) for p in passes)
        outcome.detail["records_per_s"] = (records_per_s, "1/s")
        outcome.detail["record_p50_ms"] = (latency["p50_ms"], "ms")
        outcome.detail["record_p99_ms"] = (latency["tail_ms"], "ms")
        outcome.detail["record_samples"] = (latency["samples"], "count")
        outcome.end_to_end["latency_p50_ms"] = latency["p50_ms"]
        outcome.end_to_end["latency_tail_ms"] = latency_summary(passes, self.tail, self.tail_group)["tail_ms"]
        outcome.end_to_end["throughput_per_s"] = statistics.median(n / (p.scaled(p.ns) / 1e9) for p in passes)
        outcome.traffic.update(traffic(inputs, passes[0].data.rows or []))
        outcome.traffic["passes"] = len(passes)

    def trace_extra(self, inputs, passes):
        return {}

    def traced_extra(self, inputs, traced):
        return {}


class ExtractReplay(_Extraction):
    name = "extract-replay"
    roots = {"harness.load", "harness.record", "harness.eval"}
    score = True
    # Passes take seconds, so the reference also runs within them: readings
    # taken only around a pass did not follow its time.
    scaled = True

    def setup(self, seed, scale, directory):
        return setup_replay(seed, scale, directory)

    def oracle_jobs(self, inputs, passes, corrupt):
        gold = [(d.id, list(d.label_strings)) for d in inputs.dugs]
        jobs = []
        for p in passes:
            if p.data.report is None:
                continue
            rows = read_rows(p.data.out_path)
            jobs.append({
                "kind": "evaluate",
                "gold": gold,
                "predictions": [(r["dug_id"], r["predictions"]) for r in rows],
                "candidates": [(r["dug_id"], [c["text"] for c in r["candidates"]]) for r in rows],
                "report": p.data.report,
            })
        return jobs

    def summarize(self, inputs, passes, outcome):
        super().summarize(inputs, passes, outcome)
        n = len(inputs.dugs)
        scored = [p for p in passes if p.data.report is not None]
        outcome.detail["eval_dugs_per_s"] = (statistics.median(n / (p.scaled(p.data.evaluate_ns) / 1e9) for p in scored), "1/s")

    def trace_extra(self, inputs, passes):
        """``evaluation.scaling_exponent`` from one extra, untraced half-corpus call."""
        rows = read_rows(passes[0].data.out_path)
        half = len(inputs.dugs) // 2
        half_ns = timed_call(lambda: evaluation.evaluate(inputs.dugs[:half], rows[:half]))
        full_ns = statistics.median(p.scaled(p.data.evaluate_ns) for p in passes)
        return {"evaluation.scaling_exponent": math.log2(full_ns / half_ns)}


class ExtractParallel(_Extraction):
    name = "extract-parallel"
    # Most of its time is the simulated service wait, which the host's
    # speed does not change, so its timings are left as measured.
    scaled = False

    def setup(self, seed, scale, directory):
        return setup_parallel(seed, scale, directory)

    def run_pass(self, inputs, tracer, tag, directory):
        before = inputs.client.waited_ns
        result = super().run_pass(inputs, tracer, tag, directory)
        result.data.waited_ns = inputs.client.waited_ns - before
        return result

    def traced_extra(self, inputs, traced):
        return {"client.wait_ms": traced.data.waited_ns / 1e6}
