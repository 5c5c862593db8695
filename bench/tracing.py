"""Spans and counters around the public functions of each logmc module.

The tracer replaces functions and methods by wrappers from this file only;
nothing under ``src/`` changes.  A span records (name, start, end, parent)
and is kept in memory until the run ends.  Calls too frequent for a span
(containment tests, row conversions, echelon updates) are counted instead,
each under the layer of the innermost open span, so ``_linalg`` work is
split between the lattice and the curve engine.
"""

from __future__ import annotations

import functools
import time
from math import isqrt

import logmc
from logmc import _linalg, arrangement, cli, curves, hirzebruch, kring

MODULES = (logmc, cli, arrangement, kring, hirzebruch, curves, _linalg)

# (owner, attribute) -> (span name, layer)
SPANS = {
    (cli, "run"): ("cli.run", "cli"),
    (arrangement, "parse_arrangement"): ("arrangement.parse", "arrangement"),
    (arrangement, "build_lattice"): ("arrangement.build_lattice", "arrangement"),
    (arrangement, "characteristic_polynomial"): ("arrangement.charpoly", "arrangement"),
    (arrangement, "exponents_via_terao"): ("arrangement.terao", "arrangement"),
    (kring, "mc_complement_lattice_sum"): ("kring.mc_lattice_sum", "kring"),
    (kring, "mc_complement_charpoly"): ("kring.mc_charpoly", "kring"),
    (kring, "mc_free_exponents"): ("kring.mc_exponents", "kring"),
    (kring, "log_class_free"): ("kring.log_class", "kring"),
    (kring, "difference_class_arrangement"): ("kring.difference", "kring"),
    (hirzebruch, "csm_at_minus_one"): ("hirzebruch.csm", "hirzebruch"),
    (hirzebruch, "grr_transform"): ("hirzebruch.grr", "hirzebruch"),
    (hirzebruch, "normalize"): ("hirzebruch.normalize", "hirzebruch"),
    (hirzebruch, "clear_denominator"): ("hirzebruch.clear_denominator", "hirzebruch"),
    (hirzebruch, "chern_class_free_exponents"): ("hirzebruch.chern_product", "hirzebruch"),
    (curves, "singularity_from_json"): ("curves.singularity", "curves"),
    (curves, "local_invariants"): ("curves.local_invariants", "curves"),
    (curves, "branch_count"): ("curves.branch_count", "curves"),
    (curves.LocalPolynomial, "from_string"): ("curves.parse", "curves"),
}

# (owner, attribute) -> counter name; LAYERED counters are split by layer
COUNTS = {
    (arrangement.Subspace, "intersect_form"): "arrangement.intersect_form_calls",
    (arrangement.Subspace, "contains"): "arrangement.contains_calls",
    (kring, "exact_div_one_plus_y"): "kring.div_one_plus_y_calls",
    (hirzebruch, "todd_class"): "hirzebruch.todd_calls",
}
LAYERED = {
    (_linalg, "rref"): "linalg.rref_calls",
    (_linalg, "int_row"): "linalg.int_row_calls",
    (_linalg.IntEchelon, "add"): "linalg.echelon_add_calls",
    (_linalg.IntEchelon, "contains"): "linalg.echelon_contains_calls",
}


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index]
        self.counts = {}
        self.max_bound = 0
        self._stack = []      # indices of open spans
        self._layers = []     # layer of each open span
        self._undo = []

    # --- wrappers ----------------------------------------------------------------

    def _span(self, name, layer, fn):
        spans, stack, layers, counts = self.spans, self._stack, self._layers, self.counts
        clock = time.perf_counter
        nodes = name == "arrangement.build_lattice"

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            layers.append(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                layers.pop()
            if nodes:
                counts["arrangement.lattice_nodes"] = (
                    counts.get("arrangement.lattice_nodes", 0) + len(result))
            return result
        return functools.update_wrapper(wrapper, fn)

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    def _layered(self, name, fn):
        counts, layers = self.counts, self._layers

        def wrapper(*args, **kwargs):
            key = f"{name}.{layers[-1] if layers else 'none'}"
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    def _echelon_init(self, fn):
        # curves builds one IntEchelon per truncation bound B, of width
        # B (B + 1) / 2 (the monomials of degree < B)
        counts, layers = self.counts, self._layers

        def wrapper(ech, width):
            if layers and layers[-1] == "curves":
                counts["curves.truncation_rounds"] = counts.get("curves.truncation_rounds", 0) + 1
                self.max_bound = max(self.max_bound, (isqrt(8 * width + 1) - 1) // 2)
            return fn(ech, width)
        return functools.update_wrapper(wrapper, fn)

    # --- installing ------------------------------------------------------------------

    def _replace(self, owner, attr, make):
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))
            return
        # a module function may also be bound under its name elsewhere
        # (``from ._linalg import int_row``, the package namespace)
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, name, wrapped)
                    self._undo.append((mod, name, raw))

    def install(self):
        for (owner, attr), (name, layer) in SPANS.items():
            self._replace(owner, attr, functools.partial(self._span, name, layer))
        for (owner, attr), name in COUNTS.items():
            self._replace(owner, attr, functools.partial(self._count, name))
        for (owner, attr), name in LAYERED.items():
            self._replace(owner, attr, functools.partial(self._layered, name))
        self._replace(_linalg.IntEchelon, "__init__", self._echelon_init)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # --- per-round summaries ----------------------------------------------------------

    def snapshot(self):
        """Marks a round boundary: (span index, counters, max bound so far)."""
        state = (len(self.spans), dict(self.counts), self.max_bound)
        self.max_bound = 0
        return state

    def round_metrics(self, before, after):
        """Per-layer numbers of the round between two snapshots."""
        return round_metrics(self.spans, before[0], after[0], before[1], after[1], after[2])


def round_metrics(spans, start, end, counts_before, counts_after, max_bound):
    """Per-layer numbers of the spans[start:end] and the counter increments."""
    times = {}
    child = {}
    for k in range(start, end):
        name, t0, t1, parent = spans[k]
        times[name] = times.get(name, 0.0) + (t1 - t0)
        if parent >= start:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    cli_self = sum((spans[k][2] - spans[k][1]) - child.get(k, 0.0)
                   for k in range(start, end) if spans[k][0] == "cli.run")
    calls = {}
    for k in range(start, end):
        calls[spans[k][0]] = calls.get(spans[k][0], 0) + 1
    counts = {key: counts_after.get(key, 0) - counts_before.get(key, 0)
              for key in counts_after}
    out = {
        "cli.run_s": times.get("cli.run", 0.0),
        "cli.self_s": cli_self,
        "arrangement.parse_s": times.get("arrangement.parse", 0.0),
        "arrangement.build_lattice_s": times.get("arrangement.build_lattice", 0.0),
        "arrangement.build_lattice_calls": calls.get("arrangement.build_lattice", 0),
        "arrangement.lattice_nodes": counts.get("arrangement.lattice_nodes", 0),
        "arrangement.intersect_form_calls": counts.get("arrangement.intersect_form_calls", 0),
        "arrangement.contains_calls": counts.get("arrangement.contains_calls", 0),
        "arrangement.charpoly_s": times.get("arrangement.charpoly", 0.0),
        "arrangement.terao_s": times.get("arrangement.terao", 0.0),
        "kring.mc_lattice_sum_s": times.get("kring.mc_lattice_sum", 0.0),
        "kring.mc_charpoly_s": times.get("kring.mc_charpoly", 0.0),
        "kring.mc_exponents_s": times.get("kring.mc_exponents", 0.0),
        "kring.log_class_s": times.get("kring.log_class", 0.0),
        "kring.div_one_plus_y_calls": counts.get("kring.div_one_plus_y_calls", 0),
        "hirzebruch.grr_s": times.get("hirzebruch.grr", 0.0),
        "hirzebruch.todd_calls": counts.get("hirzebruch.todd_calls", 0),
        "hirzebruch.normalize_s": times.get("hirzebruch.normalize", 0.0),
        "hirzebruch.clear_denominator_s": times.get("hirzebruch.clear_denominator", 0.0),
        "curves.parse_s": times.get("curves.parse", 0.0),
        "curves.local_invariants_s": times.get("curves.local_invariants", 0.0),
        "curves.truncation_rounds": counts.get("curves.truncation_rounds", 0),
        "curves.max_bound": max_bound,
        "curves.elimination_rows": counts.get("linalg.echelon_add_calls.curves", 0),
        "curves.branch_count_s": times.get("curves.branch_count", 0.0),
    }
    for name in LAYERED.values():
        for layer in ("arrangement", "curves"):
            out[f"{name}.{layer}"] = counts.get(f"{name}.{layer}", 0)
    return out
