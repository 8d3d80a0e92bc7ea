"""Layered benchmark of mtckit.

One run measures one workload in its own process:

    python3 perfbench/run.py --workload extract-replay --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it sets the workload up several times (``setup_s`` is
the median), runs whole passes over the inputs until ``--seconds`` have
passed, reads the peak RSS, and only then checks every output. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end ``metrics`` named in
BENCHMARK.json; the lines before it give the workload's own metrics by
name and unit.

With ``--trace 1`` it runs untraced passes for half the time, then sets up
once more and runs one pass with spans and counters on every layer of the
package, and reports the per-layer metrics plus the tracing overhead.
Spans are written to ``.perfbench_out/spans-<workload>.jsonl``.

``--all`` runs every workload, traced and untraced, each in its own
process, and prints every metric by name with its unit. ``--scale small``
shrinks the inputs for the self-test. Everything the runs write stays
under ``.perfbench_work/`` (removed at the end of each run) and
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    BENCH_DIR,
    OUT_DIR,
    WORK_ROOT,
    CheckoutError,
    Outcome,
    environment,
    host_slowdown,
    peak_rss_mb,
    reference_rounds,
    slowdown,
    timed_setups,
    use_checkout,
)

WORKLOADS = ("extract-replay", "eval-wide", "adherence-cohort", "extract-parallel")
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _workload(name: str):
    from wl_adherence import AdherenceCohort
    from wl_eval import EvalWide
    from wl_extract import ExtractParallel, ExtractReplay

    return {w.name: w for w in (ExtractReplay(), EvalWide(), AdherenceCohort(), ExtractParallel())}[name]


def _passes(workload, inputs, tracer, seconds: float, directory: Path) -> list:
    """Whole passes until ``seconds`` have gone by (at least one).

    For a scaled workload, each pass's slowdown comes from the reference
    rounds run on either side of it and within it.
    """
    rounds = reference_rounds if workload.scaled else list
    passes = []
    before = rounds()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        measured = workload.run_pass(inputs, tracer, str(len(passes)), directory)
        after = rounds()
        measured.slowdown = slowdown(before + measured.rounds_ns + after)
        before = after
        passes.append(measured)
    return passes


def _run_oracles(jobs: list, directory: Path) -> list[list[str]]:
    """Check reports in a separate process; a checker that fails marks every job wrong."""
    if not jobs:
        return []
    jobs_path, results_path = directory / "oracle-jobs.json", directory / "oracle-results.json"
    jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "oracle_check.py"), str(jobs_path), str(results_path)],
        capture_output=True, text=True, timeout=150,
    )
    if completed.returncode != 0:
        reason = (completed.stderr.strip().splitlines() or ["no output"])[-1]
        return [[f"oracle check failed: {reason}"]] * len(jobs)
    return json.loads(results_path.read_text(encoding="utf-8"))


def _check(workload, inputs, passes, directory: Path, corrupt: bool, outcome: Outcome) -> None:
    checked, wrong, explained, problems = workload.record_checks(inputs, passes, corrupt)
    jobs = workload.oracle_jobs(inputs, passes, corrupt)
    results = _run_oracles(jobs, directory)
    outcome.checked = checked + len(jobs)
    outcome.wrong = wrong + sum(1 for r in results if r)
    outcome.wrong_explained = explained
    for problem in problems + [f"{job['kind']} report: {r[0]}" for job, r in zip(jobs, results) if r]:
        outcome.note(problem)


def _untraced(workload, seed, seconds, scale, directory, outcome):
    """Set-ups and passes with tracing off; fills setup_s and peak_rss_mb."""
    from tracing import NullTracer

    # set-up is CPU and file work on every workload, so it is always scaled
    setup_s, inputs = timed_setups(lambda d: workload.setup(seed, scale, d), directory, host_slowdown)
    passes = _passes(workload, inputs, NullTracer(), seconds, directory)
    outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
    outcome.end_to_end["setup_s"] = setup_s
    return inputs, passes


def _traced(workload, seed, seconds, scale, directory, outcome):
    """Untraced passes for half the time, then one traced set-up and pass.

    Returns the inputs and every pass, the traced one last; fills the
    per-layer metrics and writes the spans.
    """
    from tracing import NullTracer, Tracer, install, layer_metrics, trace_client

    calibrate = host_slowdown if workload.scaled else (lambda: 1.0)
    (directory / "untraced").mkdir()
    inputs = workload.setup(seed, scale, directory / "untraced")
    passes = _passes(workload, inputs, NullTracer(), seconds / 2, directory)
    untraced_ns = statistics.median(p.scaled(p.ns) for p in passes)
    extra = workload.trace_extra(inputs, passes)
    tracer = Tracer()
    patches = install(tracer)
    try:
        (directory / "traced").mkdir()
        readings = [calibrate()]
        span = tracer.open("harness.setup", "setup")
        traced_inputs = workload.setup(seed, scale, directory / "traced")
        tracer.close(span)
        for client in workload.clients(traced_inputs):
            trace_client(tracer, patches, client)
        readings.append(calibrate())
        traced = workload.run_pass(traced_inputs, tracer, "traced", directory)
        readings.append(calibrate())
    finally:
        patches.restore()
    traced.slowdown = statistics.median([readings[1], readings[2], slowdown(traced.rounds_ns)])
    extra["trace.overhead_share"] = traced.scaled(traced.ns) / untraced_ns - 1
    extra["trace.blocking_share"] = traced.scaled(tracer.blocking_self_ns(workload.roots)) / untraced_ns
    extra.update(workload.traced_extra(traced_inputs, traced))
    outcome.per_layer = layer_metrics(tracer, extra, statistics.mean(readings))
    tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl")
    return inputs, passes + [traced]


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str, corrupt: bool) -> Outcome:
    workload = _workload(name)
    outcome = Outcome(name, seed, scale)
    directory = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        measure = _traced if trace else _untraced
        inputs, passes = measure(workload, seed, seconds, scale, directory, outcome)
        outcome.attempted = sum(p.ops for p in passes)
        outcome.failed = sum(p.failed for p in passes)
        _check(workload, inputs, passes, directory, corrupt, outcome)
        # the traced pass is checked, but its timings stay out of the summary
        measured = passes[:-1] if trace else passes
        workload.summarize(inputs, measured, outcome)
        outcome.traffic["pass_ms"] = [round(p.ns / 1e6, 3) for p in measured]
        outcome.traffic["pass_host_slowdown"] = [round(p.slowdown, 4) for p in measured]
        outcome.detail["host_slowdown"] = (statistics.median(p.slowdown for p in measured), "ratio")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if not trace:
        outcome.detail["setup_s"] = (outcome.end_to_end["setup_s"], "s")
        outcome.detail["peak_rss_mb"] = (outcome.end_to_end["peak_rss_mb"], "MB")
    outcome.detail["failed_share"] = (outcome.failed_share, "ratio")
    outcome.detail["wrong_share"] = (outcome.wrong_share, "ratio")
    return outcome


def _emit(outcome: Outcome, trace: bool, seconds: float) -> None:
    metrics = (
        {k: {"value": v, "unit": u} for k, (v, u) in outcome.per_layer.items()}
        if trace
        else {k: {"value": outcome.end_to_end[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    )
    manifest = {
        "workload": outcome.workload,
        "seed": outcome.seed,
        "seconds": seconds,
        "scale": outcome.scale,
        "trace": int(trace),
        "environment": environment(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checked": outcome.checked,
        "wrong": outcome.wrong,
        "wrong_explained_by_known_defect": outcome.wrong_explained,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in outcome.detail.items()},
        "metrics": metrics,
        "traffic": outcome.traffic,
        "problems": outcome.problems,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{outcome.workload}-seed{outcome.seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for problem in outcome.problems:
        print(f"{outcome.workload}: check: {problem}")
    for name, (value, unit) in outcome.detail.items():
        print(f"{outcome.workload} {name} = {value:.6g} {unit}")
    if trace:
        for name, (value, unit) in outcome.per_layer.items():
            print(f"{outcome.workload} {name} = {value:.6g} {unit}")
    print(f"{outcome.workload} manifest: {path.relative_to(OUT_DIR.parent)}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))


def run_all(seed: int, seconds: float, scale: str) -> int:
    """Every workload, untraced then traced, one process per run."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace), "--scale", scale],
                capture_output=True, text=True, timeout=900,
            )
            lines = completed.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if completed.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {completed.returncode}: {completed.stderr.strip()[-500:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not trace:
                for metric, entry in result["metrics"].items():
                    print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
            print(f"{name} trace={trace} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one output before checking it")
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        use_checkout()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, args.scale)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, args.corrupt)
    _emit(outcome, bool(args.trace), args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
