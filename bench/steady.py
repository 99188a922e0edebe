"""Run one workload several times and report how far its metrics spread.

    python3 bench/steady.py --workload deep_rd --runs 10 [--first-seed 1]
                            [--seconds 30] [--trace 0] [--save FILE]

Each run is a separate ``run.py`` process with its own seed (``first-seed``,
``first-seed + 1``, ...). For every metric the command prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median; also the share of
failed commands. ``--save`` writes the raw values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run with seed {seed} failed ({proc.returncode}): {proc.stderr[-500:]}")
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        results.append(result)
        shown = " ".join(f"{m}={v['value']:.4f}" for m, v in sorted(result["metrics"].items()))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, --seconds {args.seconds}")
    print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for metric in sorted(results[0]["metrics"]):
        s = summarize([r["metrics"][metric]["value"] for r in results])
        print(f"  {metric:34s} {s['median']:12.5f} {s['q1']:12.5f} {s['q3']:12.5f} "
              f"{100 * s['spread']:7.2f}%")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share per run: {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in results)}")
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
