"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload sampled-s13 --seeds 1-10 [--seconds S]

For every metric this prints the median of the runs and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, beside the metric's bound from ``BENCHMARK.json``.
Runs are untraced (``--trace 0``): only end-to-end metrics have bounds.
``--json PATH`` also writes the raw per-run results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values) -> float:
    """Interquartile distance of *values* as a share of their median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        completed = subprocess.run(
            [
                sys.executable, "perfbench/run.py",
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}",
              file=sys.stderr)
    if args.json is not None:
        args.json.write_text(json.dumps(runs, indent=1))
    names = list(runs[0]["metrics"])
    print(f"{args.workload}: {len(runs)} runs, all correct: "
          f"{all(run['correct'] for run in runs)}")
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs]
        bound = bounds.get(name)
        line = (f"  {name:<30} median {statistics.median(values):>14.6f} "
                f"{runs[0]['metrics'][name]['unit']:<9} spread {spread(values):.4f}")
        if bound is not None:
            line += f" (bound {bound}, target < {bound / 3:.4f})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
