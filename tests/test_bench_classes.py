"""Every op of the benchmark's ``classes`` workload passes its independent checks.

``bench/checks.py`` compares K-classes through the Euler pairing with O(-j)
and CSM classes through Aluffi's formula, by code that never imports logmc.
This runs each op of ``workloads.build("classes", seed)`` once, through the
benchmark's own ``worker.make_op`` and ``worker.serialise``, and hands the
output to ``checks.Checker`` as ``bench/run.py`` does.  Refusals must come
with the expected exit code, error kind and message.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402  (lives in bench/, put on the path above)
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_classes_workload_passes_bench_checks(seed, tmp_path):
    ops, expect = workloads.build("classes", seed, str(tmp_path))
    checker = checks.Checker()
    failures = []
    for op in ops:
        out = worker.serialise(worker.make_op(op)())
        want = expect[op["id"]]
        if "crash" in out:
            err = f"crashed: {out['crash']}"
        elif op["kind"] == "cli":
            err = checker.check_cli(want, out["code"], out["report"])
        else:
            err = checker.check_lib(want, out["value"])
        if err:
            failures.append(f"{op['id']}: {err}")
    assert {op["group"] for op in ops} == {"small", "medium", "largest", "refusal"}
    assert not failures
