"""Shared pieces of the mtckit benchmark: paths, timing statistics, results.

The benchmark runs from the root of a source checkout. It imports the
package from ``src/`` and the reference generators and oracles from
``tests/``, so nothing is installed and nothing is downloaded.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
TESTS_DIR = ROOT / "tests"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

#: Each workload sets up at least ``SETUP_MIN_REPEATS`` times, and more (up
#: to ``SETUP_MAX_REPEATS``) until ``SETUP_MIN_SECONDS`` of set-up have been
#: timed, so a short set-up still yields a steady median for ``setup_s``.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 15
SETUP_MIN_SECONDS = 1.0


#: Nominal time of one reference round (see :func:`host_slowdown`).
REFERENCE_NS = 1_000_000


def reference_round() -> int:
    """Fixed pure-Python work that uses nothing from the package; returns ns taken."""
    start = time.perf_counter_ns()
    table = {}
    for i in range(3000):
        key = "k%d" % i
        table[key] = len(key.split("k")) + i
    ordered = sorted(table.values(), reverse=True)
    "-".join(str(v) for v in ordered[:500]).split("-")
    return time.perf_counter_ns() - start


def host_slowdown() -> float:
    """How much slower than nominal this host runs right now (1.0 = nominal).

    The host's speed drifts by tens of percent over tens of seconds when it
    is shared, for a fixed loop as much as for the CPU-bound workloads.
    Their timings are divided by this factor, measured just before and after
    the timed work (and, for long passes, within it), which takes that drift
    out of the comparison.
    """
    return slowdown(reference_rounds())


def reference_rounds() -> list[int]:
    """Times of five reference rounds, in ns."""
    return [reference_round() for _ in range(5)]


def slowdown(rounds_ns: list[int]) -> float:
    """Host slowdown from reference-round times (1.0 when there are none)."""
    return statistics.median(rounds_ns) / REFERENCE_NS if rounds_ns else 1.0


def timed_call(fn) -> float:
    """Duration of ``fn()`` in ns, divided by the host slowdown around it."""
    before = host_slowdown()
    start = time.perf_counter_ns()
    fn()
    elapsed = time.perf_counter_ns() - start
    return elapsed / ((before + host_slowdown()) / 2)


class CheckoutError(RuntimeError):
    """The benchmark is not inside a checkout that holds the package and its tests."""


def use_checkout() -> None:
    """Make ``mtckit`` (from ``src/``) and the test helpers importable."""
    if not (SRC_DIR / "mtckit" / "__init__.py").is_file():
        raise CheckoutError(f"no package source at {SRC_DIR / 'mtckit'}")
    if not (TESTS_DIR / "conftest.py").is_file() or not (TESTS_DIR / "oracles.py").is_file():
        raise CheckoutError(f"no test helpers (conftest.py, oracles.py) in {TESTS_DIR}")
    for path in (str(TESTS_DIR), str(SRC_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


#: Lower percentiles to fall back on, highest first, when a pass is too
#: small for the one asked for.
FALLBACK_PERCENTILES = (0.95, 0.9, 0.75)


def latency_summary(passes: list["Pass"], tail: float = 0.99, group: int = 0) -> dict:
    """Median and tail latency in ms over passes, with the sample count.

    Each pass's latencies are divided by its host slowdown and summarized
    on their own; the result is the median over passes, so one pass run
    while the host was slow cannot fill the tail. With ``group``, the tail
    is instead taken over each run of ``group`` consecutive samples and the
    median of those is reported, so a burst on the host that slows a few
    hundred operations of a pass does not move it. The tail is percentile
    ``tail`` or, if a pass (group) has fewer than ten samples beyond it,
    the highest of ``FALLBACK_PERCENTILES`` that has ten (else the median).
    """

    def tail_of(samples):
        ordered = sorted(samples)
        for q in (tail,) + tuple(f for f in FALLBACK_PERCENTILES if f < tail):
            value = percentile(ordered, q)
            if sum(1 for v in ordered if v > value) >= 10:
                return value
        return percentile(ordered, 0.5)

    p50s, tails = [], []
    for measured in passes:
        p50s.append(measured.scaled(percentile(sorted(measured.latencies), 0.5)))
        size = min(group or len(measured.latencies), len(measured.latencies))
        for first in range(0, len(measured.latencies) - size + 1, size):
            tails.append(measured.scaled(tail_of(measured.latencies[first:first + size])))
    return {
        "p50_ms": statistics.median(p50s) / 1e6,
        "tail_ms": statistics.median(tails) / 1e6,
        "samples": sum(len(m.latencies) for m in passes),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build, work_dir: Path, calibrate):
    """Run ``build(directory)`` repeatedly, each time in a fresh directory.

    ``calibrate()`` gives the host slowdown; each set-up's time is divided by
    the mean of the readings on either side of it. Returns (median of those
    seconds, the last build's result). Earlier directories are removed once
    the next build has finished, outside the timed part.
    """
    durations: list[float] = []
    result = None
    previous: Path | None = None
    before = calibrate()
    while len(durations) < SETUP_MIN_REPEATS or (
        sum(durations) < SETUP_MIN_SECONDS and len(durations) < SETUP_MAX_REPEATS
    ):
        directory = work_dir / f"setup-{len(durations)}"
        directory.mkdir(parents=True)
        start = time.perf_counter()
        result = build(directory)
        elapsed = time.perf_counter() - start
        after = calibrate()
        durations.append(elapsed / ((before + after) / 2))
        before = after
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = directory
    return statistics.median(durations), result


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text(encoding="utf-8").strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


@dataclass
class Pass:
    """One measured pass of a workload over its whole input.

    Times are as measured; ``slowdown`` is the host slowdown around the pass
    (1.0 for workloads that are not scaled), and :meth:`scaled` gives a time
    divided by it.
    """

    ns: int
    ops: int
    failed: int
    latencies: list[int]
    data: object = None
    slowdown: float = 1.0
    #: reference rounds the pass ran between its operations (their time is
    #: not in ``ns``)
    rounds_ns: list[int] = field(default_factory=list)

    def scaled(self, ns: float) -> float:
        return ns / self.slowdown


@dataclass
class Outcome:
    """What one run measured and checked.

    ``attempted`` counts operations started in the measured loops, ``failed``
    those that raised or returned a failed record, ``checked`` those whose
    output went through a correctness check and ``wrong`` those that failed
    it. ``wrong_explained`` counts wrong outputs that the workload attributes
    to a documented known defect.
    """

    workload: str
    seed: int
    scale: str
    end_to_end: dict[str, float] = field(default_factory=dict)
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    traffic: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    wrong: int = 0
    wrong_explained: int = 0
    problems: list[str] = field(default_factory=list)

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def wrong_share(self) -> float:
        return self.wrong / self.checked if self.checked else 0.0

    @property
    def correct(self) -> bool:
        return self.checked > 0 and self.wrong == self.wrong_explained
