"""Run one workload's op list in this process and record timings and outputs.

Usage: worker.py --manifest M --out O --seconds S --trace 0|1 [--setup-only]

The first thing printed is ``SETUP <perf_counter>``, the clock reading once
``import logmc`` is done and the inputs are loaded; the parent subtracts the
reading it took before starting this process.  Then one untimed warm-up
round, whose outputs the parent checks, and timed rounds until S seconds of
them have run, with the calibration kernel of ``calibrate.py`` timed
between ops.  Every later round's outputs must equal the warm-up's.  With
``--trace 1`` untraced and traced rounds alternate, and the per-layer numbers
of each traced round are written with the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import calibrate
import logmc
from logmc import cli

MIN_ROUNDS = 3
SEGMENT_S = 0.05
CALIBRATION_SHARE = 0.1
CALIBRATION_MIN_S = 0.004


def make_op(op):
    if op["kind"] == "cli":
        kwargs = {"command": op["command"], "input_path": op["file"],
                  "output_format": "json", "mc_route": op.get("route", "all")}
        if "exponents" in op:
            kwargs["exponents_override"] = tuple(op["exponents"])
        if "max_nodes" in op:
            kwargs["max_lattice_nodes"] = op["max_nodes"]
        config = cli.RunConfig(**kwargs)
        return lambda: cli.run(config)
    exps, n = list(op["exps"]), op["n"]
    chi = logmc.IntPolynomial(op["chi"])
    # attribute lookups at call time, so a traced run sees the wrappers
    calls = {
        "mc_free_exponents": lambda: logmc.mc_free_exponents(exps, n),
        "mc_complement_charpoly": lambda: logmc.mc_complement_charpoly(chi, n),
        "log_class_free": lambda: logmc.log_class_free(exps, n),
        "difference_exponents": lambda: logmc.difference_class_arrangement(exps, None, n),
        "difference_charpoly": lambda: logmc.difference_class_arrangement(exps, chi, n),
        "csm_mc": lambda: logmc.csm_at_minus_one(logmc.mc_free_exponents(exps, n)),
        "csm_log": lambda: logmc.csm_at_minus_one(logmc.log_class_free(exps, n)),
        "chern_product": lambda: logmc.chern_class_free_exponents(exps, n),
    }
    return calls[op["func"]]


def serialise(out):
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[0], int):
        return {"code": out[0], "report": out[1]}
    if isinstance(out, logmc.KPoly):
        return {"value": logmc.kpoly_to_json(out)}
    if isinstance(out, logmc.CohClass):
        return {"value": logmc.cohclass_to_json(out)}
    return {"crash": repr(out)}


def run_round(calls):
    """Run every call once: (op times, kernel times next to each op, outputs).

    The ops run in segments of at least ``SEGMENT_S``; after each segment the
    calibration kernel runs for a tenth of the segment's time, and at least
    ``CALIBRATION_MIN_S``.  An op's kernel time is the mean of the
    measurements before and after its segment, so a slow or fast moment of
    the machine shows in both.
    """
    times, speeds, outs = [], [], []
    clock = time.perf_counter
    before = calibrate.measure(CALIBRATION_MIN_S)
    segment = 0.0
    for call in calls:
        t0 = clock()
        try:
            out = call()
        except Exception as exc:  # an op that crashes is a failed op, not a dead run
            out = ("crash", repr(exc))
        elapsed = clock() - t0
        times.append(elapsed)
        outs.append(out)
        segment += elapsed
        if segment >= SEGMENT_S or len(times) == len(calls):
            after = calibrate.measure(max(CALIBRATION_MIN_S, CALIBRATION_SHARE * segment))
            speeds.extend([(before + after) / 2] * (len(times) - len(speeds)))
            before, segment = after, 0.0
    return times, speeds, outs


def one_round(calls, warm, mismatches):
    times, speeds, outs = run_round(calls)
    for k, (a, b) in enumerate(zip(outs, warm)):
        if a != b:
            mismatches[k] += 1
    return times, speeds


def timed_rounds(calls, warm, seconds, minimum, mismatches, tracer=None):
    """Whole rounds until ``seconds`` have passed.

    Returns (untraced op times, their kernel times, traced op times, their
    kernel times, per-layer numbers), a list per round each.  With a tracer
    the rounds come in pairs, one untraced and one traced, so that the
    machine's slow drift in speed cancels out of the difference.
    """
    plain, speeds, traced, traced_speeds, layers = [], [], [], [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(plain) < minimum:
        gc.collect()
        times, kernel_times = one_round(calls, warm, mismatches)
        plain.append(times)
        speeds.append(kernel_times)
        if tracer:
            gc.collect()
            tracer.install()
            before = tracer.snapshot()
            try:
                times, kernel_times = one_round(calls, warm, mismatches)
            finally:
                after = tracer.snapshot()
                tracer.uninstall()
            traced.append(times)
            traced_speeds.append(kernel_times)
            layers.append(tracer.round_metrics(before, after))
    return plain, speeds, traced, traced_speeds, layers


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with open(args.manifest, encoding="utf-8") as fh:
        ops = json.load(fh)
    calls = [make_op(op) for op in ops]
    print(f"SETUP {time.perf_counter()!r}", flush=True)
    if args.setup_only:
        return 0

    gc.collect()
    _, _, warm = run_round(calls)
    mismatches = [0] * len(calls)
    result = {"ops": [op["id"] for op in ops],
              "warm": [serialise(out) for out in warm]}
    tracer = None
    if args.trace:
        import tracing  # only traced runs pay for importing the tracer
        tracer = tracing.Tracer()
    result["rounds"], result["kernel"], traced, traced_kernel, layers = timed_rounds(
        calls, warm, args.seconds, MIN_ROUNDS, mismatches, tracer)
    if tracer:
        result["traced_rounds"], result["traced_kernel"] = traced, traced_kernel
        result["layers"] = layers
        result["spans"] = tracer.spans
    result["mismatches"] = mismatches
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
