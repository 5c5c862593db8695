"""Self-test of the benchmark's reference answers.

Each reference must agree with a second derivation, accept the program's
real output, and reject that output once one number in it is off by one.

    python3 bench/test_oracles.py          # or: python3 -m pytest bench/test_oracles.py
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


# --- the references agree with a second derivation ----------------------------------

def test_closed_forms_match_whitney():
    for ambient, forms, _ in (workloads.braid_forms(4), workloads.type_b_forms(3),
                              workloads.boolean_forms(3), workloads.type_d_forms(4)):
        chi = oracles.chi_whitney(ambient, forms)
        roots, rest = oracles.integer_roots(chi)
        assert len(rest) == 1 and oracles.chi_from_exponents(roots) == chi


def test_closed_form_flats_match_closure():
    ambient, forms, labels = workloads.braid_forms(5)
    assert oracles.flats_braid(5, labels) == oracles.flats_by_closure(ambient, forms)
    ambient, forms, _ = workloads.boolean_forms(4)
    assert oracles.flats_boolean(4) == oracles.flats_by_closure(ambient, forms)
    ambient, forms, _ = workloads.type_b_forms(3)
    flats = oracles.flats_by_closure(ambient, forms)
    assert oracles.chi_from_flats(ambient, flats) == oracles.chi_from_exponents([1, 3, 5])


def test_kouchnirenko_matches_brieskorn_pham():
    for a, b in ((2, 3), (3, 4), (4, 6), (5, 7)):
        mu, r = oracles.kouchnirenko({(a, 0): 1, (0, b): 1})
        assert (mu, r) == ((a - 1) * (b - 1), oracles.gcd(a, b))
    assert oracles.kouchnirenko({(3, 0): 1, (1, 5): 1, (0, 8): 1}) == (13, 2)


def test_signatures_see_every_coefficient():
    # the Euler pairing is perfect: any change of one s-coefficient shows
    n = 3
    base = [[1, -2, 0, 1], [0, 1, 1, -1]]
    sig = oracles.kpoly_signature(n, base)
    for d in range(2):
        for k in range(n + 1):
            bumped = copy.deepcopy(base)
            bumped[d][k] += 1
            assert oracles.kpoly_signature(n, bumped) != sig


# --- the checks accept real output and reject corrupted output -----------------------

def _run_ops(workload, seed=7):
    import worker

    with tempfile.TemporaryDirectory() as work:
        ops, expect = workloads.build(workload, seed, work)
        outs = []
        for op in ops:
            if op["kind"] != "cli" or op.get("max_nodes") == 300:
                continue  # the slow node-cap refusal adds nothing here
            code, report = worker.make_op(op)()
            outs.append((op, expect[op["id"]], code, report))
    return outs


def _first(outs, command, refusal=False):
    """The first op of a command; for an answer, one with a nonzero class."""
    for op, want, code, report in outs:
        if op["command"] != command or ("refusal" in want) != refusal:
            continue
        if refusal or not json.loads(report).get("is_zero", False):
            return want, code, report
    raise LookupError(command)


def _corrupt(report, edit):
    payload = json.loads(report)
    edit(payload)
    return json.dumps(payload)


def _bump_first_nonzero(rows):
    for row in rows:
        for k, v in enumerate(row):
            if v:
                row[k] = v + 1
                return


def test_lattice_checks_reject_corruption():
    outs = _run_ops("lattice")
    checker = checks.Checker()
    for op, want, code, report in outs:
        assert checker.check_cli(want, code, report) is None, op["id"]

    edits = {
        "charpoly": lambda p: p["coefficients"].__setitem__(1, p["coefficients"][1] + 1),
        "exponents": lambda p: p["exponents"].__setitem__(-1, p["exponents"][-1] + 1),
        "mc": lambda p: _bump_first_nonzero(p["routes"]["lattice"]["coeffs_y"]),
        "diff": lambda p: _bump_first_nonzero(p["difference"]["coeffs_y"]),
        "csm": lambda p: p["csm_mc"]["coeffs"].__setitem__(1, "17"),
        "euler": lambda p: p.__setitem__("euler_characteristic",
                                         str(int(p["euler_characteristic"]) + 1)),
        "lattice": lambda p: p["nodes"][-1].__setitem__("mobius", p["nodes"][-1]["mobius"] + 1),
    }
    for command, edit in edits.items():
        want, code, report = _first(outs, command)
        assert checker.check_cli(want, code, _corrupt(report, edit)) is not None, command
    want, code, report = _first(outs, "lattice")
    dropped = _corrupt(report, lambda p: (p["nodes"].pop(), p.__setitem__(
        "node_count", p["node_count"] - 1)))
    assert checker.check_cli(want, code, dropped) is not None
    want, code, report = _first(outs, "diff")
    flipped = _corrupt(report, lambda p: p.__setitem__("is_zero", not p["is_zero"]))
    assert checker.check_cli(want, code, flipped) is not None
    # a refusal needs the right exit code and the right error kind
    want, code, report = _first(outs, "logclass", refusal=True)
    assert checker.check_cli(want, code, report) is None
    assert checker.check_cli(want, 2, report) is not None
    wrong_kind = _corrupt(report, lambda p: p.__setitem__("kind", "inconsistency"))
    assert checker.check_cli(want, code, wrong_kind) is not None


def test_curve_checks_reject_corruption():
    outs = _run_ops("curves")
    checker = checks.Checker()
    for op, want, code, report in outs:
        assert checker.check_cli(want, code, report) is None, op["id"]
    want, code, report = _first(outs, "curve")
    for key in ("mu", "tau", "r", "delta"):
        bad = _corrupt(report, lambda p: p["singularities"][0].__setitem__(
            key, p["singularities"][0][key] + 1))
        assert checker.check_cli(want, code, bad) is not None, key
    bad = _corrupt(report, lambda p: p["pairs"][0].__setitem__(0, p["pairs"][0][0] + 1))
    assert checker.check_cli(want, code, bad) is not None


def test_library_checks_reject_corruption():
    import logmc

    checker = checks.Checker()
    exps, n = [1, 4, 5, 7, 8, 11], 5
    chi = oracles.chi_from_exponents(exps)
    values = {
        "mc_free_exponents": logmc.kpoly_to_json(logmc.mc_free_exponents(exps, n)),
        "log_class_free": logmc.kpoly_to_json(logmc.log_class_free(exps, n)),
        "difference_exponents": logmc.kpoly_to_json(
            logmc.difference_class_arrangement(exps, None, n)),
        "csm_mc": logmc.cohclass_to_json(
            logmc.csm_at_minus_one(logmc.mc_free_exponents(exps, n))),
    }
    for func, value in values.items():
        want = {"func": func, "exps": exps, "chi": chi}
        assert checker.check_lib(want, value) is None, func
        bad = copy.deepcopy(value)
        if "coeffs_y" in bad:
            _bump_first_nonzero(bad["coeffs_y"])
        else:
            bad["coeffs"][2] = str(int(bad["coeffs"][2]) + 1)
        assert checker.check_lib(want, bad) is not None, func


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
