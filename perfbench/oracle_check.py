"""Compare scoring reports with the test suite's brute-force oracles.

Run as ``python3 perfbench/oracle_check.py JOBS.json RESULTS.json``. It runs
in a process of its own because ``oracle_evaluate`` holds dense
labels x guidelines rows, which at the wide-label workload's size would
otherwise dominate the measured process's peak RSS.

Each job is either ``evaluate`` (an ``EvalReport.to_dict()`` checked with
``oracle_evaluate`` on the forwarded predictions and, for the validity
rate, on all candidates) or ``types`` (a ``TypeClassifierReport.to_dict()``
checked with ``oracle_type_metrics``). Floats must agree to 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import sys

from harness import use_checkout

TOLERANCE = 1e-9
FAMILIES = ("macro", "example_averaged", "positive_class")
SCORES = ("precision", "recall", "f1")


def _close(a, b) -> bool:
    return abs(float(a) - float(b)) <= TOLERANCE


def _evaluate_problems(job: dict, cache: dict) -> list[str]:
    from oracles import UNDEFINED, oracle_evaluate

    gold = [(dug_id, labels) for dug_id, labels in job["gold"]]
    space = tuple(sorted({label for _, labels in gold for label in labels})) + (UNDEFINED,)

    def oracle(rows):
        key = hashlib.sha256(json.dumps([gold, rows]).encode()).hexdigest()
        if key not in cache:
            cache[key] = oracle_evaluate(gold, [(d, c) for d, c in rows], space)
        return cache[key]

    report = job["report"]
    metric = oracle(job["predictions"])
    validity = oracle(job["candidates"]) if job.get("candidates") is not None else metric
    problems = []
    for family in FAMILIES:
        for key in SCORES:
            if not _close(report[family][key], metric[family][key]):
                problems.append(f"{family}.{key}: {report[family][key]} != {metric[family][key]}")
    if report["macro"]["labels"] != metric["macro_labels"]:
        problems.append("macro label set differs")
    if report["positive_class"]["n_dugs"] != metric["positive_n_dugs"]:
        problems.append("positive-class guideline count differs")
    if set(report["per_label"]) != set(metric["per_label"]):
        problems.append("per-label keys differ from the label space")
    else:
        for label, values in metric["per_label"].items():
            for key, expected in values.items():
                if not _close(report["per_label"][label][key], expected):
                    problems.append(f"per_label[{label!r}].{key}: {report['per_label'][label][key]} != {expected}")
    if not _close(report["validity_rate"], validity["validity_rate"]):
        problems.append(f"validity_rate: {report['validity_rate']} != {validity['validity_rate']}")
    if report["undefined_predictions"] != metric["undefined_predictions"]:
        problems.append(
            f"undefined_predictions: {report['undefined_predictions']} != {metric['undefined_predictions']}"
        )
    return problems


def _types_problems(job: dict) -> list[str]:
    from oracles import oracle_type_metrics

    gold_types = [(dug_id, set(types)) for dug_id, types in job["gold_types"]]
    pred_types = {dug_id: set(types) for dug_id, types in job["pred_types"].items()}
    expected = oracle_type_metrics(gold_types, pred_types)
    report = job["report"]
    problems = []
    if set(report["per_type"]) != {str(t) for t in expected["per_type"]}:
        problems.append("per-type keys differ")
    else:
        for t, values in expected["per_type"].items():
            for key in SCORES:
                if not _close(report["per_type"][str(t)][key], values[key]):
                    problems.append(f"per_type[{t}].{key}: {report['per_type'][str(t)][key]} != {values[key]}")
    for key in SCORES:
        if not _close(report["macro"][key], expected["macro"][key]):
            problems.append(f"macro.{key}: {report['macro'][key]} != {expected['macro'][key]}")
    return problems


def main(jobs_path: str, results_path: str) -> int:
    use_checkout()
    with open(jobs_path, encoding="utf-8") as fp:
        jobs = json.load(fp)
    cache: dict = {}
    results = []
    for job in jobs:
        if job["kind"] == "evaluate":
            problems = _evaluate_problems(job, cache)
        elif job["kind"] == "types":
            problems = _types_problems(job)
        else:
            raise ValueError(f"unknown job kind {job['kind']!r}")
        results.append(problems[:5])
    with open(results_path, "w", encoding="utf-8") as fp:
        json.dump(results, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
