"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload atlas --seeds 1 2 3 4 5 [--seconds 30] [--trace 0]

For every metric it prints the median over the runs, the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, and, for end-to-end metrics, that share against the
metric's bound in BENCHMARK.json.  A run whose result line is missing or
unparseable stops the script with its exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={time.perf_counter() - start:.1f}s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    report = {}
    print(f"{'metric':<50} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else float("nan")
        report[name] = {"values": vals, "median": median, "spread": spread, "bound": bounds.get(name)}
        bound = f"{bounds[name]:.2f}" if name in bounds else ""
        flag = " !" if name in bounds and name != "setup_s" and spread > bounds[name] / 3 else ""
        print(f"{name:<50} {median:>14.6g} {spread:>8.4f} {bound:>6}{flag}")
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1),
                                                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
