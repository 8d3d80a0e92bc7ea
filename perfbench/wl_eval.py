"""The ``eval-wide`` workload: offline scoring over a wide label space.

Gold guidelines get labels from ``tests/conftest.py::random_mtc``, so the
label space holds about one distinct label per guideline. Prediction
records mix hits, misses, valid constraints outside the space, nonvalid
strings and duplicates. One scoring pass runs ``evaluate`` and then the
rule baseline (``classify_corpus`` and ``evaluate_type_classifier``) on the
same corpus, as ``mtc eval`` and ``mtc baseline`` would.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass

import mtckit.evaluation as evaluation
import mtckit.rulebase as rulebase
from mtckit import Dug, grammar
from mtckit.grammar import (
    Consistency,
    DefinitiveDependency,
    Frequency,
    ImpreciseDependency,
    Interval,
    TimeDependency,
    TimeOfDay,
    TimeUnit,
)

from conftest import NONVALID_CANDIDATES, random_mtc
from harness import Pass, latency_summary, timed_call

CORPUS_SIZE = {"full": 2000, "small": 40}
LABEL_COUNTS = (0, 1, 1, 1, 1, 1, 1, 2, 2)


def _phrase(mtc) -> str:
    """Guideline wording for a constraint, in the forms the rule table knows."""
    plural = "s" if getattr(mtc, "n", 1) != 1 else ""
    if isinstance(mtc, DefinitiveDependency):
        body = f"{mtc.n} {mtc.unit.value}{plural} {mtc.dp.value} {mtc.activity}"
    elif isinstance(mtc, Frequency):
        body = f"{mtc.n} times daily" if mtc.unit is TimeUnit.DAY else f"{mtc.n} times a {mtc.unit.value}"
    elif isinstance(mtc, Interval):
        body = f"{mtc.n} {mtc.unit.value}{plural} {mtc.ip.value}"
    elif isinstance(mtc, ImpreciseDependency):
        body = f"{mtc.dp.value} {mtc.activity}"
    elif isinstance(mtc, TimeDependency):
        body = f"{mtc.dp.value} {mtc.time}"
    elif isinstance(mtc, Consistency):
        body = f"{mtc.p.value} {mtc.time} each {mtc.unit.value}"
    elif isinstance(mtc, TimeOfDay):
        body = f"in the {mtc.day_part.value}"
    else:
        raise TypeError(mtc)
    return ("Do not take it " if mtc.negated else "Take it ") + body + "."


@dataclass
class Inputs:
    gold: list[Dug]
    records: list[dict]


def setup(seed: int, scale: str, _directory) -> Inputs:
    rng = random.Random(seed)
    gold, records = [], []
    for i in range(CORPUS_SIZE[scale]):
        mtcs = [random_mtc(rng) for _ in range(rng.choice(LABEL_COUNTS))]
        text = " ".join([f"Guideline {i} for this product."] + [_phrase(m) for m in mtcs])
        dug = Dug(f"w{i:05d}", rng.choice(("fda", "medscape", "ehr")), text, tuple(mtcs))
        candidates = []
        for label in dug.label_strings:
            if rng.random() < 0.7:
                candidates.append(label.upper() if rng.random() < 0.2 else label)
        if rng.random() < 0.35:
            candidates.append(grammar.serialize(random_mtc(rng)))
        if rng.random() < 0.2:
            candidates.append(rng.choice(NONVALID_CANDIDATES))
        if candidates and rng.random() < 0.15:
            candidates.append(rng.choice(candidates))
        gold.append(dug)
        records.append({"dug_id": dug.id, "candidates": candidates})
    return Inputs(gold, records)


@dataclass
class Scored:
    evaluate_ns: int
    baseline_ns: int
    report: dict | None
    types_report: dict | None
    pred_types: dict | None


def score(inputs: Inputs, tracer, tag: str) -> Pass:
    span = tracer.open("harness.score", f"score-{tag}")
    failed = 0
    start = time.perf_counter_ns()
    try:
        report = evaluation.evaluate(inputs.gold, inputs.records)
    except Exception:  # a failed operation; the run goes on
        report = None
        failed += 1
    middle = time.perf_counter_ns()
    try:
        predictions = rulebase.classify_corpus(inputs.gold)
        types_report = rulebase.evaluate_type_classifier(inputs.gold, predictions)
    except Exception:  # a failed operation; the run goes on
        predictions, types_report = None, None
        failed += 1
    end = time.perf_counter_ns()
    tracer.close(span)
    scored = Scored(
        middle - start,
        end - middle,
        report.to_dict() if report else None,
        types_report.to_dict() if types_report else None,
        {p.dug_id: sorted(p.types) for p in predictions} if predictions else None,
    )
    return Pass(end - start, 2, failed, [end - start], scored)


class EvalWide:
    name = "eval-wide"
    roots = {"harness.score"}
    scaled = True

    def setup(self, seed, scale, directory):
        return setup(seed, scale, directory)

    def clients(self, inputs):
        return []

    def run_pass(self, inputs, tracer, tag, directory):
        return score(inputs, tracer, tag)

    def oracle_jobs(self, inputs, passes, corrupt):
        gold = [(d.id, list(d.label_strings)) for d in inputs.gold]
        predictions = [(r["dug_id"], r["candidates"]) for r in inputs.records]
        gold_types = [(d.id, sorted({grammar.mtc_type(m) for m in d.labels})) for d in inputs.gold]
        jobs = []
        for index, p in enumerate(passes):
            report = p.data.report
            if corrupt and index == 0 and report is not None:
                report = dict(report, macro=dict(report["macro"], f1=report["macro"]["f1"] + 0.5))
            if report is not None:
                jobs.append({"kind": "evaluate", "gold": gold, "predictions": predictions,
                             "candidates": None, "report": report})
            if p.data.types_report is not None:
                jobs.append({"kind": "types", "gold_types": gold_types,
                             "pred_types": p.data.pred_types, "report": p.data.types_report})
        return jobs

    def record_checks(self, inputs, passes, corrupt):
        return 0, 0, 0, []

    def summarize(self, inputs, passes, outcome):
        n = len(inputs.gold)
        ok = [p for p in passes if p.failed == 0]
        latency = latency_summary(passes)
        outcome.detail["eval_dugs_per_s"] = (statistics.median(n / (p.scaled(p.data.evaluate_ns) / 1e9) for p in ok), "1/s")
        outcome.detail["baseline_dugs_per_s"] = (statistics.median(n / (p.scaled(p.data.baseline_ns) / 1e9) for p in ok), "1/s")
        outcome.detail["score_pass_p50_ms"] = (latency["p50_ms"], "ms")
        outcome.end_to_end["throughput_per_s"] = statistics.median(n / (p.scaled(p.ns) / 1e9) for p in ok)
        outcome.end_to_end["latency_p50_ms"] = latency["p50_ms"]
        outcome.end_to_end["latency_tail_ms"] = latency["tail_ms"]
        outcome.traffic.update(self.traffic(inputs, latency["samples"]))

    def traffic(self, inputs, samples):
        labels = {label for d in inputs.gold for label in d.label_strings}
        candidates = [c for r in inputs.records for c in r["candidates"]]
        space = set(labels)
        return {
            "guidelines": len(inputs.gold),
            "label_space": len(labels) + 1,
            "label_space_per_guideline": (len(labels) + 1) / len(inputs.gold),
            "candidates": len(candidates),
            "distinct_candidate_share": len(set(candidates)) / len(candidates),
            "hit_candidate_share": sum(1 for c in candidates if c.lower() in space) / len(candidates),
            "nonvalid_candidate_share": sum(1 for c in candidates if c in NONVALID_CANDIDATES) / len(candidates),
            "scoring_passes": samples,
            "waits_on_service": False,
        }

    def trace_extra(self, inputs, passes):
        """``evaluation.scaling_exponent`` from one extra, untraced half-corpus call."""
        half = len(inputs.gold) // 2
        half_ns = timed_call(lambda: evaluation.evaluate(inputs.gold[:half], inputs.records[:half]))
        full_ns = statistics.median(p.scaled(p.data.evaluate_ns) for p in passes)
        return {"evaluation.scaling_exponent": math.log2(full_ns / half_ns)}

    def traced_extra(self, inputs, traced):
        return {}
