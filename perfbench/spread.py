"""Run-to-run spread of the end-to-end metrics, the way the benchmark is judged.

    python3 perfbench/spread.py --workload adherence-cohort --seeds 1-10 [--seconds 10]

Runs ``run.py`` once per seed, one process at a time, and prints for each
end-to-end metric its median, quartiles and the quartile distance as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
bound BENCHMARK.json gives it. ``--json PATH`` also writes the raw values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if completed.returncode != 0:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(result["metrics"].items())), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, series in sorted(values.items()):
        q1, median, q3 = statistics.quantiles(series, n=4)
        print(f"{args.workload} {name}: median {median:.5g} quartiles {q1:.5g}..{q3:.5g} "
              f"spread {(q3 - q1) / median:.3f} bound {bounds.get(name)}")
    if args.json:
        args.json.write_text(json.dumps(values, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
