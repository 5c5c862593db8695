"""Whole-pass benchmark of logmc: one workload, one seed, one fresh process.

Run from the root of a logmc checkout:

    python3 bench/run.py --workload lattice|classes|curves --seed N \
        --seconds S --trace 0|1

The input list is generated from the seed and written under
``.bench_out/``; the reference answers are computed here, by code that does
not import logmc.  ``worker.py`` then runs in a fresh single-threaded process:
it imports logmc from ``src/``, runs one untimed warm-up round and timed
rounds (every accepted op, then every refusal) for S seconds.  The warm-up
outputs are checked against the references and every later round must repeat
them.  ``setup_s`` is the median over several fresh processes of the time
from process start until logmc is imported and the inputs are loaded.  Every
time is scaled to the reference speed of the calibration kernel in
``calibrate.py``, timed next to it, so that the machine's speed of the
moment cancels out.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (per round) with ``--trace 1``.  The
raw worker output, spans included, stays in ``.bench_out/``.
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

import calibrate
import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 20
PROBE_TIMEOUT = 60
WORKER_TIMEOUT = 140
SETUP_CALIBRATION_S = 0.02

END_TO_END = ("pass_s", "largest_s", "small_p50_s", "refusal_s",
              "peak_rss_mb", "setup_s")
UNITS = {"peak_rss_mb": "MB"}


def _start_and_setup(cmd, env, timeout):
    """Run cmd; return (completed process, seconds until its SETUP line).

    The kernel of ``calibrate.py`` is timed just before and just after, and
    the seconds are scaled to its reference speed.
    """
    before = calibrate.measure(SETUP_CALIBRATION_S)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    after = calibrate.measure(SETUP_CALIBRATION_S)
    for line in proc.stdout.splitlines():
        if line.startswith("SETUP "):
            setup = float(line.split()[1]) - t0
            return proc, setup * calibrate.REFERENCE_S * 2 / (before + after)
    return proc, None


def scaled(rounds, kernel):
    """Op times scaled to the kernel's reference speed, op by op.

    Each op's kernel time was measured next to it, so the machine's speed
    of the moment cancels out.
    """
    return [[t * calibrate.REFERENCE_S / k for t, k in zip(times, speeds)]
            for times, speeds in zip(rounds, kernel)]


def end_to_end(ops, rounds, kernel, setups, peak_rss_kb):
    """The end-to-end metrics from the worker's op times and kernel times."""
    groups = [op["group"] for op in ops]
    scaled_rounds = scaled(rounds, kernel)

    def per_round(select):
        return statistics.median(sum(t for t, g in zip(times, groups) if select(g))
                                 for times in scaled_rounds)

    # the median over small ops of each op's median time is one op's time
    # (two ops' mean for an even count), never a gap between two ops'
    # clusters of samples
    per_op = [statistics.median(times[k] for times in scaled_rounds)
              for k, g in enumerate(groups) if g == "small"]
    return {
        "pass_s": per_round(lambda g: g != "refusal"),
        "largest_s": per_round(lambda g: g == "largest"),
        "small_p50_s": statistics.median(per_op),
        "refusal_s": per_round(lambda g: g == "refusal"),
        "peak_rss_mb": peak_rss_kb / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(ops, result):
    """Per-layer numbers per round; times are scaled like the end-to-end ones.

    A traced round's layer times are scaled by the median kernel time of
    that round.
    """
    factors = [calibrate.REFERENCE_S / statistics.median(speeds)
               for speeds in result["traced_kernel"]]
    layers = result["layers"]
    out = {}
    for name in layers[0]:
        values = [r[name] for r in layers]
        if name.endswith("_s"):
            out[name] = statistics.median(v * f for v, f in zip(values, factors))
        elif len(set(values)) == 1:
            out[name] = values[0]
        else:
            print(f"warning: count {name} differs between rounds: {values}",
                  file=sys.stderr)
            out[name] = statistics.median(values)
    groups = [op["group"] for op in ops]

    def pass_time(times):
        return sum(t for t, g in zip(times, groups) if g != "refusal")

    plain = scaled(result["rounds"], result["kernel"])
    traced = scaled(result["traced_rounds"], result["traced_kernel"])
    out["trace.pass_s"] = statistics.median(pass_time(r) for r in traced)
    # rounds alternate untraced and traced: pairwise differences cancel drift
    out["trace.overhead_s"] = statistics.median(
        pass_time(t) - pass_time(u) for u, t in zip(plain, traced))
    return out


def check_outputs(ops, expect, result):
    """(ops that failed, whether every answer given was right), by op index."""
    checker = checks.Checker()
    failed, right = set(), True
    for k, (op, out) in enumerate(zip(ops, result["warm"])):
        want = expect[op["id"]]
        if "crash" in out:
            err, gave_answer = f"crashed: {out['crash']}", False
        elif op["kind"] == "cli":
            err = checker.check_cli(want, out["code"], out["report"])
            gave_answer = out["code"] == 0 or "refusal" in want
        else:
            err, gave_answer = checker.check_lib(want, out["value"]), True
        if err:
            failed.add(k)
            right = right and not gave_answer
            print(f"FAIL {op['id']}: {err}", file=sys.stderr)
    for k, count in enumerate(result["mismatches"]):
        if count:
            right = False
            print(f"FAIL {ops[k]['id']}: output changed between rounds {count} times",
                  file=sys.stderr)
    return failed, right


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "logmc", "__init__.py")):
        print("error: src/logmc not found; run from the root of a logmc checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(out_dir, f"inputs-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        ops, expect = workloads.build(args.workload, args.seed, work)
        manifest = os.path.join(work, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

        setups = []
        base = [sys.executable, WORKER, "--manifest", manifest]
        for _ in range(SETUP_PROBES):
            proc, setup = _start_and_setup(base + ["--setup-only"], env, PROBE_TIMEOUT)
            if proc.returncode != 0 or setup is None:
                sys.stderr.write(proc.stderr)
                print("error: the setup probe failed", file=sys.stderr)
                return 3
            setups.append(setup)
        raw = os.path.join(out_dir, f"run-{tag}.json")
        try:
            proc, setup = _start_and_setup(
                base + ["--out", raw, "--seconds", str(args.seconds),
                        "--trace", str(args.trace)], env, WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"error: the worker ran longer than {WORKER_TIMEOUT} s", file=sys.stderr)
            return 3
        if proc.returncode != 0 or setup is None:
            sys.stderr.write(proc.stderr)
            print("error: the worker failed", file=sys.stderr)
            return 3
        setups.append(setup)
        with open(raw, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ops, right = check_outputs(ops, expect, result)
    rounds = result["rounds"] + result.get("traced_rounds", [])
    attempted = len(ops) * len(rounds)
    failed = len(failed_ops) * len(rounds) + sum(
        count for k, count in enumerate(result["mismatches"]) if k not in failed_ops)
    if args.trace:
        values = per_layer(ops, result)
        metrics = {name: {"value": v, "unit": "s" if name.endswith("_s") else "count"}
                   for name, v in values.items()}
    else:
        values = end_to_end(ops, result["rounds"], result["kernel"], setups,
                            result["peak_rss_kb"])
        metrics = {name: {"value": values[name], "unit": UNITS.get(name, "s")}
                   for name in END_TO_END}
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops x {len(rounds)} rounds, "
          f"{len(failed_ops)} failing ops")
    print(json.dumps({"correct": right, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
