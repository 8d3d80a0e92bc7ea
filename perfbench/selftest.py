"""Self-test of the benchmark harness (not of any speed).

    python3 perfbench/selftest.py

Runs every workload at its smallest size, untraced, traced and with one
output deliberately corrupted, each in its own process, and checks that:

* each run exits 0 and ends with the result object the contract asks for;
* every end-to-end metric of BENCHMARK.json (untraced) and every per-layer
  metric (traced) is emitted with its unit, and every workload-specific
  metric is reported by name with its unit;
* nothing fails, and nothing is wrong except on adherence-cohort, where
  every wrong verdict must be one the known consistency defect explains;
* a corrupted record, report or verdict is counted in ``wrong_share``;
* run from a directory that holds only BENCHMARK.json and the benchmark,
  it exits non-zero without printing a result.

Exits 1 and lists what went wrong if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_METRICS = {
    "extract-replay": ("records_per_s", "record_p50_ms", "record_p99_ms", "eval_dugs_per_s"),
    "eval-wide": ("eval_dugs_per_s", "baseline_dugs_per_s"),
    "adherence-cohort": ("checks_per_s", "check_p50_ms", "check_p99_ms"),
    "extract-parallel": ("records_per_s", "record_p50_ms", "record_p99_ms"),
}
SHARED_METRICS = ("setup_s", "peak_rss_mb", "failed_share", "wrong_share")


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    return {"setup_s": "s", "peak_rss_mb": "MB"}.get(name, "ratio")


def _run(script: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def _result(completed, label: str, errors: list[str]):
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        errors.append(f"{label}: exit {completed.returncode}: {completed.stderr.strip()[-800:]}")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted must be a whole number of at least 1")
    return result


def _manifest(workload: str, trace: int) -> dict:
    path = ROOT / ".perfbench_out" / f"{workload}-seed3-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _check_metrics(label, metrics: dict, expected: dict, errors: list[str]) -> None:
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics {sorted(set(metrics) ^ set(expected))} missing or unexpected")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry and (entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float))):
            errors.append(f"{label}: {name} reported as {entry}, unit should be {unit}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    run = HERE / "run.py"
    common = ("--seed", "3", "--seconds", "0.5", "--scale", "small")
    errors: list[str] = []
    for workload in WORKLOAD_METRICS:
        expected_detail = {n: _unit(n) for n in WORKLOAD_METRICS[workload] + SHARED_METRICS}
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            result = _result(_run(run, ROOT, "--workload", workload, "--trace", str(trace), *common), label, errors)
            if result is None:
                continue
            _check_metrics(label, result["metrics"], per_layer if trace else end_to_end, errors)
            manifest = _manifest(workload, trace)
            detail = manifest["detail"]
            wanted = expected_detail if not trace else {
                n: u for n, u in expected_detail.items() if n not in ("setup_s", "peak_rss_mb")
            }
            _check_metrics(f"{label} detail", {k: v for k, v in detail.items() if k in wanted}, wanted, errors)
            if detail.get("failed_share", {}).get("value") != 0 or result["failed"] != 0:
                errors.append(f"{label}: operations failed: {manifest['problems'][:3]}")
            explained = manifest["wrong"] == manifest["wrong_explained_by_known_defect"]
            if workload != "adherence-cohort" and manifest["wrong"]:
                errors.append(f"{label}: wrong outputs: {manifest['problems'][:3]}")
            if not result["correct"] or not explained:
                errors.append(f"{label}: reported incorrect: {manifest['problems'][:3]}")

        label = f"{workload} corrupted"
        result = _result(_run(run, ROOT, "--workload", workload, "--trace", "0", "--corrupt", *common), label, errors)
        if result is not None:
            manifest = _manifest(workload, 0)
            clean_wrong = manifest["wrong_explained_by_known_defect"]
            if manifest["detail"]["wrong_share"]["value"] <= 0 or manifest["wrong"] <= clean_wrong:
                errors.append(f"{label}: the corrupted output was not counted in wrong_share")
            if result["correct"]:
                errors.append(f"{label}: a corrupted output still reads as correct")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        completed = _run(bare / HERE.name / "run.py", bare, "--workload", "eval-wide", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        if completed.returncode == 0 or completed.stdout.strip():
            errors.append("without the package source the benchmark must exit non-zero and print no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("failed" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
