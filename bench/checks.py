"""Compare one op's output with the reference answers from ``oracles``.

Each ``check_*`` returns ``None`` when the output is right and a short
message naming the first thing that is wrong otherwise.  Flats of an
arrangement are computed only for the ``lattice`` command, and cached per
arrangement, because they are the only expensive reference.
"""

from __future__ import annotations

import json
from fractions import Fraction

from oracles import (Echelon, chi_proj, csm_from_chi, curve_expectation,
                     flats_boolean, flats_braid, flats_by_closure,
                     fraction_rows_to_int, integer_roots,
                     kpoly_signature, log_signature, mc_signature, poly_eval,
                     poly_trim, pushforward_from_chi, signature_sub)


class Checker:
    def __init__(self):
        self._flats = {}
        self._sig = {}

    # --- references, cached --------------------------------------------------

    def flats(self, arr):
        key = arr["name"]
        if key not in self._flats:
            if arr["kind"] == "braid":
                flats = flats_braid(arr["ambient"] + 1, [tuple(p) for p in arr["labels"]])
            elif arr["kind"] == "boolean":
                # flats_boolean indexes coordinates; map them to file order
                pos = {lab: h for h, lab in enumerate(arr["labels"])}
                flats = {frozenset(pos[c] for c in f): v
                         for f, v in flats_boolean(arr["ambient"]).items()}
            else:
                flats = flats_by_closure(arr["ambient"], arr["forms"])
            self._flats[key] = flats
        return self._flats[key]

    def mc_sig(self, chi):
        key = ("mc", tuple(chi))
        if key not in self._sig:
            self._sig[key] = mc_signature(chi)
        return self._sig[key]

    def log_sig(self, exps):
        key = ("log", tuple(exps))
        if key not in self._sig:
            self._sig[key] = log_signature(exps)
        return self._sig[key]

    # --- entry points ----------------------------------------------------------

    def check_cli(self, expect, code, report):
        if "refusal" in expect:
            return check_refusal(expect["refusal"], code, report)
        if code != 0:
            return f"exit code {code}: {report[:200]}"
        try:
            payload = json.loads(report)
        except json.JSONDecodeError:
            return "report is not JSON"
        command = expect["command"]
        if command == "curve":
            return check_curve(expect["points"], payload)
        return getattr(self, f"_cli_{command}")(expect["arr"], payload)

    def check_lib(self, expect, value):
        func, exps, chi = expect["func"], expect["exps"], expect["chi"]
        n = len(exps) - 1
        if func in ("csm_mc", "csm_log", "chern_product"):
            return check_coh(value, n, csm_from_chi(chi))
        if value.get("n") != n or value.get("basis") != "s":
            return "wrong projective dimension or basis"
        if func in ("mc_free_exponents", "mc_complement_charpoly"):
            return check_mc(value, chi, self.mc_sig(chi))
        if func == "log_class_free":
            return check_kpoly(value, self.log_sig(exps), "log class")
        if func in ("difference_exponents", "difference_charpoly"):
            diff = signature_sub(self.mc_sig(chi), self.log_sig(exps))
            return check_kpoly(value, diff, "difference class")
        return f"unknown library function {func}"

    # --- CLI commands ------------------------------------------------------------

    def _cli_charpoly(self, arr, p):
        if p.get("coefficients") != arr["chi"]:
            return f"chi {p.get('coefficients')} != {arr['chi']}"
        return None

    def _cli_exponents(self, arr, p):
        roots, rest = integer_roots(arr["chi"])
        if len(rest) == 1:
            if p != {"splits": True, "exponents": roots}:
                return f"exponents {p} != {roots}"
            return None
        if p.get("splits") is not False:
            return "a non-split chi was reported as split"
        if p.get("remaining_factor", {}).get("coefficients") != poly_trim(rest):
            return f"remaining factor {p.get('remaining_factor')} != {rest}"
        return None

    def _cli_mc(self, arr, p):
        chi = arr["chi"]
        want = ["lattice", "charpoly"] + (["exponents"] if arr["exps"] else [])
        if sorted(p.get("routes", {})) != sorted(want):
            return f"routes {sorted(p.get('routes', {}))} != {sorted(want)}"
        if p.get("agree") is not True or p.get("n") != arr["ambient"] - 1:
            return "routes not reported as agreeing, or wrong n"
        for name, value in p["routes"].items():
            err = check_mc(value, chi, self.mc_sig(chi))
            if err:
                return f"route {name}: {err}"
        return None

    def _cli_diff(self, arr, p):
        exps = arr["exps"]
        if p.get("exponents") != sorted(exps):
            return f"exponents {p.get('exponents')} != {sorted(exps)}"
        # the divisor is SNC exactly when it is boolean or lives on P^1
        snc = all(e == 1 for e in exps) or len(exps) == 2
        if p.get("is_zero") is not snc:
            return f"is_zero {p.get('is_zero')} for exponents {exps}"
        diff = signature_sub(self.mc_sig(arr["chi"]), self.log_sig(sorted(exps)))
        return check_kpoly(p.get("difference", {}), diff, "difference class")

    def _cli_logclass(self, arr, p):
        exps = sorted(arr["exps"])
        if p.get("exponents") != exps:
            return f"exponents {p.get('exponents')} != {exps}"
        return check_kpoly(p.get("log_class", {}), self.log_sig(exps), "log class")

    def _cli_csm(self, arr, p):
        chi = arr["chi"]
        n = arr["ambient"] - 1
        want = csm_from_chi(chi)
        err = check_coh(p.get("csm_mc", {}), n, want)
        if err:
            return f"csm_mc: {err}"
        if arr["exps"]:
            for key in ("csm_log", "chern_product"):
                err = check_coh(p.get(key, {}), n, want)
                if err:
                    return f"{key}: {err}"
            if p.get("equal_mc_log") is not True or p.get("equal_mc_product") is not True:
                return "equalities not reported"
        elif "csm_log" in p:
            return "log side reported without exponents"
        euler = poly_eval(chi_proj(chi), 1)
        if _fraction(p.get("euler_characteristic")) != euler:
            return f"euler {p.get('euler_characteristic')} != {euler}"
        return None

    def _cli_euler(self, arr, p):
        euler = poly_eval(chi_proj(arr["chi"]), 1)
        if _fraction(p.get("euler_characteristic")) != euler:
            return f"euler {p.get('euler_characteristic')} != {euler}"
        if p.get("mobius_dimension_sum") != euler:
            return f"mobius-dimension sum {p.get('mobius_dimension_sum')} != {euler}"
        return None

    def _cli_lattice(self, arr, p):
        flats = self.flats(arr)
        ambient, forms = arr["ambient"], arr["forms"]
        nodes = p.get("nodes", [])
        if p.get("node_count") != len(flats) or len(nodes) != len(flats):
            return f"{p.get('node_count')} nodes, expected {len(flats)}"
        seen = set()
        prev_dim = ambient
        for k, node in enumerate(nodes):
            rows = [[Fraction(v) for v in row] for row in node["matrix"]]
            err = _rref_problem(rows)
            if err:
                return f"node {k}: {err}"
            ech = Echelon()
            for row in fraction_rows_to_int(rows):
                ech.insert(row)
            if ech.rank != len(rows) or node["dim"] != ambient - len(rows):
                return f"node {k}: rank does not match dim {node['dim']}"
            hyps = frozenset(h for h, form in enumerate(forms) if ech.spans(form))
            if hyps in seen:
                return f"node {k} repeats a flat"
            seen.add(hyps)
            if hyps not in flats:
                return f"node {k} is not a flat of the arrangement"
            if (node["dim"], node["mobius"]) != flats[hyps]:
                return f"node {k}: (dim, mobius) {(node['dim'], node['mobius'])} != {flats[hyps]}"
            if node["dim"] > prev_dim:
                return "nodes are not ordered by descending dimension"
            prev_dim = node["dim"]
        return None


def _fraction(text):
    try:
        return Fraction(text)
    except (TypeError, ValueError):
        return None


def _rref_problem(rows):
    last = -1
    for row in rows:
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None or lead <= last or row[lead] != 1:
            return "matrix is not in reduced row echelon form"
        if any(other[lead] for other in rows if other is not row):
            return "pivot column not cleared"
        last = lead
    return None


def check_refusal(want, code, report):
    if code != want["code"]:
        return f"exit code {code}, expected {want['code']}"
    try:
        body = json.loads(report)
    except json.JSONDecodeError:
        return "error report is not JSON"
    if body.get("kind") != want["kind"]:
        return f"error kind {body.get('kind')!r}, expected {want['kind']!r}"
    if want["match"] not in body.get("error", ""):
        return f"error {body.get('error')!r} does not mention {want['match']!r}"
    return None


def check_kpoly(value, want_sig, what):
    n = value.get("n")
    if n is None or value.get("basis") != "s":
        return f"{what}: malformed class"
    got = kpoly_signature(n, value.get("coeffs_y", []))
    if got != want_sig:
        return f"{what}: Euler pairings {got} != {want_sig}"
    return None


def check_mc(value, chi, want_sig):
    err = check_kpoly(value, want_sig, "mc class")
    if err:
        return err
    got = kpoly_signature(value["n"], value["coeffs_y"])[0]
    if got != pushforward_from_chi(chi):
        return f"pushforward {got} != chi_proj(-y) {pushforward_from_chi(chi)}"
    return None


def check_coh(value, n, want):
    if value.get("n") != n:
        return "wrong projective dimension"
    got = [Fraction(v) for v in value.get("coeffs", [])]
    if got != [Fraction(v) for v in want]:
        return f"CSM {[str(v) for v in got]} != {want}"
    return None


def check_curve(points, p):
    sings = p.get("singularities", [])
    if len(sings) != len(points):
        return f"{len(sings)} points reported, expected {len(points)}"
    pairs, defects, weights = [], [], []
    for k, (got, want) in enumerate(zip(sings, points)):
        ref = curve_expectation(want["mu"], want["tau"], want["r"])
        for key in ("mu", "tau", "r", "delta"):
            if got.get(key) != ref[key]:
                return f"point {k}: {key} = {got.get(key)}, expected {ref[key]}"
        pairs.append(ref["pair"])
        defects.append(ref["genus_defect"])
        weights.append(ref["csm_minus_chern"])
    total = [sum(a for a, _ in pairs), sum(b for _, b in pairs)]
    want = {"pairs": pairs, "total": total,
            "is_zero": all(a == 0 and b == 0 for a, b in pairs),
            "genus_defects": defects, "csm_minus_chern": weights}
    for key, value in want.items():
        if p.get(key) != value:
            return f"{key} = {p.get(key)}, expected {value}"
    return None
