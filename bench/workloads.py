"""Seeded input lists for the three workloads, with their reference answers.

``build(workload, seed, workdir)`` writes the input files the CLI reads into
``workdir`` and returns ``(ops, expect)``: the op list handed to the worker
and, per op id, what the checker compares the output with.  The seed changes
hyperplane order and signs, the coefficients of the random generic
arrangements, exponent order, signs and moduli of curve germs, the slopes of
ordinary multiple points and the coordinate changes.  It never changes the
shape of an input (lattice size, n, Milnor number), so every seed does the
same amount of work.

Op groups: ``small`` (corpus-scale inputs, whose per-op times give
``small_p50_s``), ``medium``, ``largest`` (the scaling point of the workload)
and ``refusal`` (inputs that must be refused with a given exit code and
error kind).
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations
from math import gcd

from oracles import (chi_from_exponents, chi_whitney, germ_change, germ_mul,
                     germ_str, kouchnirenko, rank)

WORKLOADS = ("lattice", "classes", "curves")

LATTICE_COMMANDS = ("charpoly", "exponents", "mc", "diff", "csm", "euler", "lattice")


# --- arrangements -------------------------------------------------------------

def _unit(l, i, sign=1):
    v = [0] * l
    v[i] = sign
    return v


def braid_forms(k):
    """Essentialised braid arrangement on k points: x_i = x_j, x_{k-1} = 0."""
    forms, labels = [], []
    for i, j in combinations(range(k), 2):
        v = [0] * k
        v[i], v[j] = 1, -1
        forms.append(v[:-1])
        labels.append((i, j))
    return k - 1, forms, labels


def boolean_forms(l):
    return l, [_unit(l, i) for i in range(l)], list(range(l))


def type_b_forms(l):
    forms = [_unit(l, i) for i in range(l)]
    for i, j in combinations(range(l), 2):
        for sign in (1, -1):
            v = _unit(l, i)
            v[j] = sign
            forms.append(v)
    return l, forms, list(range(len(forms)))


def type_d_forms(l):
    _, forms, _ = type_b_forms(l)
    forms = forms[l:]
    return l, forms, list(range(len(forms)))


def generic_forms(rng, ambient, m):
    """m integer forms in general position (every <= ambient of them independent)."""
    while True:
        forms = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(m)]
        if all(rank(sub) == k for k in range(1, ambient + 1)
               for sub in combinations(forms, k)):
            return forms


def _shuffled(rng, forms, labels):
    order = list(range(len(forms)))
    rng.shuffle(order)
    out_forms, out_labels = [], []
    for h in order:
        sign = rng.choice((1, -1))
        out_forms.append([sign * v for v in forms[h]])
        out_labels.append(labels[h])
    return out_forms, out_labels


def _arr_text(name, ambient, forms):
    lines = [f"# {name}", str(ambient)]
    lines += [" ".join(str(v) for v in row) for row in forms]
    return "\n".join(lines) + "\n"


class _Arr:
    """One arrangement input: its file, its data and its closed-form facts."""

    def __init__(self, name, ambient, forms, labels, kind, chi, exps):
        self.name, self.ambient, self.forms, self.labels = name, ambient, forms, labels
        self.kind, self.chi, self.exps = kind, chi, exps

    def expect(self):
        return {"name": self.name, "ambient": self.ambient, "forms": self.forms,
                "labels": self.labels, "kind": self.kind, "chi": self.chi,
                "exps": self.exps}


def _reflection(rng, name, make_forms, size, exps):
    ambient, forms, labels = make_forms(size)
    forms, labels = _shuffled(rng, forms, labels)
    kind = name.rstrip("0123456789")
    return _Arr(name, ambient, forms, labels, kind, chi_from_exponents(exps), exps)


def _random_generic(rng, name, ambient, m):
    """A generic (hence non-free) arrangement, drawn once from a fixed seed.

    The run's seed only reorders and re-signs its forms: fresh coefficients
    would change how soon the program's containment tests stop, and with it
    the per-layer counts.
    """
    forms = generic_forms(random.Random(name), ambient, m)
    forms, labels = _shuffled(rng, forms, list(range(m)))
    return _Arr(name, ambient, forms, labels, "generic",
                chi_whitney(ambient, forms), None)


def _braid(rng, k):
    return _reflection(rng, f"braid{k}", braid_forms, k, list(range(1, k)))


def _boolean(rng, l):
    return _reflection(rng, f"boolean{l}", boolean_forms, l, [1] * l)


def _type_b(rng, l):
    return _reflection(rng, f"B{l}", type_b_forms, l, [2 * i + 1 for i in range(l)])


def _type_d(rng, l):
    return _reflection(rng, f"D{l}", type_d_forms, l,
                       [2 * i + 1 for i in range(l - 1)] + [l - 1])


class _Builder:
    def __init__(self, workdir):
        self.workdir = workdir
        self.ops = []
        self.expect = {}

    def write(self, filename, text):
        path = os.path.join(self.workdir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def arr_file(self, arr):
        return self.write(f"{arr.name}.arr", _arr_text(arr.name, arr.ambient, arr.forms))

    def cli(self, group, command, path, expect, route=None, exponents=None,
            max_nodes=None, tag=""):
        op_id = f"{len(self.ops):03d}-{command}-{os.path.basename(path)}{tag}"
        op = {"id": op_id, "group": group, "kind": "cli", "command": command,
              "file": path}
        if route is not None:
            op["route"] = route
        if exponents is not None:
            op["exponents"] = list(exponents)
        if max_nodes is not None:
            op["max_nodes"] = max_nodes
        self.ops.append(op)
        self.expect[op_id] = expect

    def lib(self, group, func, exps, chi, expect):
        op_id = f"{len(self.ops):03d}-{func}-n{len(exps) - 1}"
        self.ops.append({"id": op_id, "group": group, "kind": "lib", "func": func,
                         "exps": list(exps), "n": len(exps) - 1, "chi": list(chi)})
        self.expect[op_id] = expect


def refusal(code, kind, match):
    return {"refusal": {"code": code, "kind": kind, "match": match}}


# --- workload: lattice ----------------------------------------------------------

def _lattice(rng, b):
    # small is corpus scale: at most 16 flats, each op a few milliseconds.
    # Its mix puts the median op inside a run of ops with nearly equal
    # times, so ops trading places around it move small_p50_s little.
    nonsplit = _random_generic(rng, "genericP2", 3, 5)
    inputs = [("small", arr, LATTICE_COMMANDS) for arr in (
                  _braid(rng, 3), _braid(rng, 4), _boolean(rng, 3), _boolean(rng, 4),
                  nonsplit)]
    inputs += [("medium", _type_b(rng, 3), LATTICE_COMMANDS),
               ("medium", _random_generic(rng, "genericP3", 4, 6), LATTICE_COMMANDS),
               ("medium", _braid(rng, 5), ("mc", "lattice")),
               ("medium", _boolean(rng, 5), ("csm", "lattice")),
               ("medium", _boolean(rng, 6), ("diff", "euler")),
               ("medium", _type_d(rng, 4), ("exponents", "lattice")),
               ("medium", _type_b(rng, 4), ("csm", "lattice")),
               ("medium", _boolean(rng, 7), ("mc",)),
               ("largest", _braid(rng, 6), ("mc",))]
    for group, arr, commands in inputs:
        path = b.arr_file(arr)
        for command in commands:
            if command == "diff" and arr.exps is None:
                continue  # no exponents: diff is a refusal below
            b.cli(group, command, path, {"command": command, "arr": arr.expect()})

    # refusals: the node cap is checked only after a whole rank layer, so the
    # braid arrangement on 8 points (4140 nodes) builds 1345 nodes before the
    # cap of 300 is noticed
    cap = _braid(rng, 8)
    b.cli("refusal", "charpoly", b.arr_file(cap),
          refusal(1, "validation", "exceeds the node cap"), max_nodes=300)
    nonsplit = b.arr_file(nonsplit)
    b.cli("refusal", "logclass", nonsplit, refusal(1, "validation", "no exponent data"))
    b.cli("refusal", "diff", nonsplit, refusal(1, "validation", "no exponent data"))
    b.cli("refusal", "mc", nonsplit, refusal(1, "validation", "needs exponent data"),
          route="exponents")


# --- workload: classes ------------------------------------------------------------

EXPONENT_SETS = {
    "small": {
        "A1": [1, 2], "A2": [1, 2, 3], "boolean3": [1, 1, 1], "concurrent3": [1, 1, 2],
        "B3": [1, 3, 5], "H3": [1, 5, 9], "A3": [1, 2, 3, 4], "B4": [1, 3, 5, 7],
        "D4": [1, 3, 3, 5], "F4": [1, 5, 7, 11], "H4": [1, 11, 19, 29],
    },
    "medium": {
        "E6": [1, 4, 5, 7, 8, 11], "E7": [1, 5, 7, 9, 11, 13, 17],
        "E8": [1, 7, 11, 13, 17, 19, 23, 29], "A8": list(range(1, 10)),
        "B10": [2 * i + 1 for i in range(10)],
        "D12": [2 * i + 1 for i in range(11)] + [11], "boolean14": [1] * 14,
    },
    "largest": {"A19": list(range(1, 21))},
}

LIB_FUNCS = ("mc_free_exponents", "mc_complement_charpoly", "log_class_free",
             "difference_exponents", "difference_charpoly", "csm_mc", "csm_log",
             "chern_product")


def _classes(rng, b):
    for group, sets in EXPONENT_SETS.items():
        for name, exps in sets.items():
            exps = list(exps)
            rng.shuffle(exps)
            chi = chi_from_exponents(sorted(exps))
            for func in LIB_FUNCS:
                b.lib(group, func, exps, chi, {"func": func, "exps": sorted(exps),
                                              "chi": chi, "name": name})
    # CLI commands whose answer needs only n and the exponents
    inputs = [(_braid(rng, 4), "small"), (_boolean(rng, 4), "small"),
              (_type_b(rng, 3), "small"), (_type_d(rng, 4), "medium"),
              (_braid(rng, 5), "medium")]
    for arr, group in inputs:
        path = b.arr_file(arr)
        exps = list(arr.exps)
        rng.shuffle(exps)
        b.cli(group, "logclass", path, {"command": "logclass", "arr": arr.expect()},
              exponents=exps)
        b.cli(group, "diff", path, {"command": "diff", "arr": arr.expect()},
              route="exponents", exponents=exps)
    # refusals: exponent data that breaks the preconditions (n = 3 here)
    for arr, _ in inputs[3:]:
        path = b.arr_file(arr)
        bad = [("logclass", [2, 3, 3, 5], "must contain 1", "-no1"),
               ("diff", [1, 3, 5], "expected 4 exponents", "-count"),
               ("logclass", [1, 3, -3, 5], "must be positive", "-nonpos")]
        for command, exps, match, tag in bad:
            b.cli("refusal", command, path, refusal(1, "validation", match),
                  route="exponents" if command == "diff" else None,
                  exponents=exps, tag=tag)


# --- workload: curves ---------------------------------------------------------------

def _bp(a, b, sign):
    return {(a, 0): 1, (0, b): sign}


def _product_of_lines(slopes):
    f = {(0, 0): 1}
    for c in slopes:
        f = germ_mul(f, {(1, 0): 1, (0, 1): -c} if c else {(1, 0): 1})
    return f


def _germ(terms, mu, tau, r, supply_r):
    entry = {"poly": germ_str(terms)}
    if supply_r:
        entry["r"] = r
    return entry, {"mu": mu, "tau": tau, "r": r}


def _nnd(rng):
    """Newton-nondegenerate germs with tau = mu - 1 (nonzero modulus)."""
    c = rng.choice((1, -1))
    shapes = {
        "E12": {(3, 0): 1, (0, 7): 1, (1, 5): c},
        "E13": {(3, 0): 1, (1, 5): 1, (0, 8): c},
        "E14": {(3, 0): 1, (0, 8): 1, (1, 6): c},
        "W12": {(4, 0): 1, (0, 5): 1, (2, 3): c},
        "W13": {(4, 0): 1, (1, 4): 1, (0, 6): c},
    }
    out = {}
    for name, terms in shapes.items():
        mu, r = kouchnirenko(terms)
        # Arnold's exceptional unimodal families: tau = mu - 1 exactly when
        # the modulus is nonzero
        out[name] = (terms, mu, mu - 1, r)
    return out


def _ade():
    out = {}
    for k in range(4, 8):
        out[f"D{k}"] = ({(2, 1): 1, (0, k - 1): 1}, k, k, 3 if k % 2 == 0 else 2)
    out["E6"] = ({(3, 0): 1, (0, 4): 1}, 6, 6, 1)
    out["E7"] = ({(3, 0): 1, (1, 3): 1}, 7, 7, 2)
    out["E8"] = ({(3, 0): 1, (0, 5): 1}, 8, 8, 1)
    return out


def _changed(rng, terms):
    """f(x + c y, y) for a seeded c whose expansion cancels no monomial.

    Cancellation would change which rows the colength loop builds, so every
    seed keeps the same support and does the same work.
    """
    while True:
        c = rng.choice((1, -1, 2, -2, 3, -3))
        moved = germ_change(terms, 1, c, 0, 1)
        if set(moved) == _upper_support(terms):
            return moved


def _upper_support(terms):
    """Monomials of f(x + c y, y) for a c that cancels nothing."""
    out = set()
    for i, j in terms:
        for k in range(i + 1):
            out.add((i - k, j + k))
    return out


def _lines(rng, k):
    """k distinct nonzero slopes whose product of lines has every monomial."""
    while True:
        slopes = rng.sample((1, -1, 2, -2, 3, -3, 4, -4), k)
        f = _product_of_lines(slopes)
        if len(f) == k + 1:
            return f


def _curves(rng, b):
    def add(group, name, entries, expected):
        path = b.write(f"{name}.json", json.dumps(entries))
        b.cli(group, "curve", path, {"command": "curve", "points": expected})

    def sign():
        return rng.choice((1, -1))

    bp_groups = {"small": [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (3, 5), (4, 5)],
                 "medium": [(5, 6), (6, 7), (7, 8), (8, 9), (9, 10)],
                 "largest": [(10, 11)]}
    for group, pairs in bp_groups.items():
        for a, bb in pairs:
            entry, exp = _germ(_bp(a, bb, sign()), (a - 1) * (bb - 1),
                               (a - 1) * (bb - 1), gcd(a, bb), False)
            add(group, f"bp{a}_{bb}", entry, [exp])
    ade = _ade()
    for name, (terms, mu, tau, r) in ade.items():
        entry, exp = _germ(terms, mu, tau, r, True)
        add("small", f"ade_{name}", entry, [exp])
    nnd = _nnd(rng)
    for name, (terms, mu, tau, r) in nnd.items():
        entry, exp = _germ(terms, mu, tau, r, True)
        add("small", f"nnd_{name}", entry, [exp])
    for k in (3, 4, 5):
        entry, exp = _germ(_lines(rng, k), (k - 1) ** 2, (k - 1) ** 2, k, False)
        add("small", f"ordinary{k}", entry, [exp])
    # invertible integer coordinate changes, expanded here; mu, tau and r
    # must not move
    changed = {"bp5_6": (_bp(5, 6, sign()), 20, 20, 1),
               "E12": nnd["E12"], "W13": nnd["W13"], "D5": ade["D5"],
               "ordinary4": (_lines(rng, 4), 9, 9, 4)}
    for name, (terms, mu, tau, r) in changed.items():
        moved = _changed(rng, terms)
        entry, exp = _germ(moved, mu, tau, r, True)
        add("medium", f"changed_{name}", entry, [exp])
    # multi-point curves
    node = _germ(_bp(2, 2, sign()), 1, 1, 2, False)
    cusp = _germ(_bp(2, 3, sign()), 2, 2, 1, False)
    e6 = _germ(ade["E6"][0], 6, 6, 1, True)
    given = ({"mu": 12, "tau": 11, "r": 1}, {"mu": 12, "tau": 11, "r": 1})
    triple = _germ(_lines(rng, 3), 4, 4, 3, False)
    for name, points in (("multi_a", [node, cusp, e6, given]),
                         ("multi_b", [triple, node, _germ(*ade["D5"], True)])):
        add("small", name, [p[0] for p in points], [p[1] for p in points])

    def refuse(name, poly, match):
        path = b.write(f"{name}.json", json.dumps({"poly": poly}))
        b.cli("refusal", "curve", path, refusal(1, "validation", match))

    refuse("nonisolated_y2", "y^2", "did not stabilise")
    refuse("nonisolated_xxy2", "x*(x-y)^2", "did not stabilise")
    refuse("nonisolated_xy2", "x*y^2", "did not stabilise")
    refuse("no_branch_count", germ_str(nnd["E12"][0]), "branch count required")
    refuse("malformed_caret", "x^^2", "exponent must be")
    refuse("malformed_paren", "x*(y+1", "missing closing parenthesis")
    refuse("malformed_char", "x + 2z", "unexpected character")


def build(workload, seed, workdir):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    b = _Builder(workdir)
    {"lattice": _lattice, "classes": _classes, "curves": _curves}[workload](rng, b)
    return b.ops, b.expect
