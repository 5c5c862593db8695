"""Run the benchmark once per seed and summarise how much each metric moves.

    python3 bench/steadiness.py --workload curves --seeds 1-10 [--trace 0]

Runs are sequential (one at a time, from the checkout root).  For every
metric it prints the median over the runs, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median.  With ``--trace 1`` it also says whether every count repeated
exactly.  The per-run JSON lines are appended to ``.bench_out/steadiness.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    values, units, shares = {}, {}, []
    os.makedirs(".bench_out", exist_ok=True)
    for seed in parse_seeds(args.seeds):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(".bench_out", "steadiness.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "trace": args.trace, "result": result}) + "\n")
        shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct {result['correct']}, {result['attempted']} attempted, "
              f"{result['failed']} failed, {time.time() - start:.1f} s wall")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"failed share per run: {sorted(set(shares))}")
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'(q3-q1)/med':>12s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        note = ""
        if units[name] == "count":
            note = "  repeats" if len(set(vals)) == 1 else "  VARIES"
        print(f"{name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:12.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
