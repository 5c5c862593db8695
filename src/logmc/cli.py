"""Command-line front end: ``logmc <command> <input>``.

Commands on an arrangement file (text format: first line the ambient
dimension, then one integer linear form per line, ``#`` for comments):

  lattice    intersection lattice nodes with dimensions and Möbius values
  charpoly   characteristic polynomial of the lattice
  exponents  candidate exponents via integer factorisation of charpoly
  mc         motivic Chern class of the complement; routes: lattice,
             charpoly, exponents, or all (routes of different chi compared)
  logclass   twisted total logarithmic-form class from exponents
  diff       mc at the first route's chi minus the log class, + is_zero
  csm        CSM class from both sides plus the exponent product, compared
  euler      Euler characteristic (degree-0 CSM coefficient), cross-checked
             against the Möbius-dimension sum of the lattice

and on a singularity JSON file ({"poly": "x^2 - y^3"} or
{"mu": ..., "tau": ..., "r": ...}, a single object or a list):

  curve      per-singularity difference-class weights (a, b)

Exit codes: 0 success; 1 parse/validation error (a route, basis or override
container before the file is read); 2 detected mathematical inconsistency
(route disagreement, failed exact division) with a diagnostic payload.

Note on exponents: a split characteristic polynomial yields *candidate*
exponents only; splitting does not certify that the cone is free; a
non-split polynomial does certify that it is not free with integer
exponents.

A process imports only the modules its commands call (``_modules``); the
"Start-up" section of README.md lists them per command.
"""

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import cached_property
from importlib import import_module
from math import comb, gcd

from ._poly import exact_scalar, int_literals, power, read_file, render
from .errors import InconsistencyError, ValidationError

TERAO_NOTE = ("candidate exponents only: a split characteristic polynomial does not "
              "certify freeness; a non-split one certifies the cone is not free "
              "with integer exponents")


class _Modules:
    """The modules ``arrangement``, ``kring``, ``hirzebruch`` and ``curves``
    as attributes, each imported on its first read and then kept, so a
    process loads only those its commands call and a later read costs an
    attribute lookup.  Callers look a function up on its module when they
    call it, so a patched one is the one that runs."""

    def __getattr__(self, name):  # the first read of each module only
        if name not in ("arrangement", "kring", "hirzebruch", "curves"):
            raise AttributeError(name)
        module = import_module(f"{__package__}.{name}")
        setattr(self, name, module)
        return module


_modules = _Modules()

# Default of LOGMC_MAX_LATTICE: admits the braid arrangement on 9 points
# (21147 flats); README.md records the measured build time at the cap.
DEFAULT_MAX_LATTICE = 25000


RunConfig = namedtuple(
    "RunConfig",
    "command input_path output_format mc_route exponents_override basis max_lattice_nodes",
    defaults=("text", "all", None, None, DEFAULT_MAX_LATTICE))


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def build_parser():
    parser = _ArgumentParser(
        prog="logmc",
        description="exact characteristic classes of free divisors: "
                    "hyperplane arrangements and plane-curve singularities",
        epilog=TERAO_NOTE)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text,
                            epilog=TERAO_NOTE if name == "exponents" else None)
        sp.add_argument("input", help="input file")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
    return parser


def config_from_args(argv=None):
    args = build_parser().parse_args(argv)
    exps = None
    raw = getattr(args, "exponents", None)
    if raw is not None:
        try:
            exps = tuple(int_literals([tok for tok in raw.split(",") if tok.strip()]))
        except ValueError:
            # a bounded quote, as the arrangement parser's: raw may be any length
            quoted = repr(raw[:40]) + ("..." if len(raw) > 40 else "")
            raise ValidationError(
                f"--exponents expects comma-separated integers, got {quoted}") from None
        if not exps:
            raise ValidationError("--exponents is empty")
    cap = os.environ.get("LOGMC_MAX_LATTICE", str(DEFAULT_MAX_LATTICE))
    try:
        (max_nodes,) = int_literals([cap])
    except ValueError:
        max_nodes = 0
    if max_nodes < 1:
        raise ValidationError("LOGMC_MAX_LATTICE must be a positive integer")
    return RunConfig(command=args.command,
                     input_path=args.input,
                     output_format=args.format,
                     mc_route=getattr(args, "route", "all"),
                     exponents_override=exps,
                     basis=getattr(args, "basis", None),
                     max_lattice_nodes=max_nodes)


def _kpoly_lines(data):
    """Text lines of a K-class report, ``kpoly_to_json``'s dict."""
    symbol = "s" if data["basis"] == "s" else "(1-s)"
    lines = [f"y^{k}: {render((v, power(symbol, j)) for j, v in enumerate(row))}"
             for k, row in enumerate(data["coeffs_y"])]
    return lines or ["0"]


def _cohclass_str(c):
    return render((v, power("h", j)) for j, v in enumerate(c.coeffs))


def _exponents_str(exps):
    return "{" + ",".join(str(e) for e in exps) + "}"


class _Input:
    """One arrangement, its run configuration and the K-class basis of its report.

    ``basis`` is ``--basis`` if given, else ``s`` for JSON and ``one_minus_s``
    for text.  The lattice, chi, candidate exponents, mc routes and mc class
    are derived on first use and kept, so each is computed at most once per
    run and only when read.  A derivation that raises (the node cap, say)
    keeps nothing, so the next read raises again.
    """

    def __init__(self, arr, config):
        self.arr = arr
        self.config = config
        self.n = arr.ambient_dim - 1
        self.basis = config.basis or ("s" if config.output_format == "json" else "one_minus_s")
        self._checked = None

    @cached_property
    def lattice(self):
        return _modules.arrangement.build_lattice(self.arr,
                                                  max_nodes=self.config.max_lattice_nodes)

    @cached_property
    def chi(self):
        return _modules.arrangement.characteristic_polynomial(self.lattice)

    @cached_property
    def exponents(self):
        """Candidate exponents from an override or a Terao split; None if absent.

        A nonpositive-root inconsistency (non-essential arrangement) counts as
        "no usable exponent data" here; the ``exponents`` command itself still
        reports it.
        """
        override = self.config.exponents_override
        if override is not None:
            return tuple(sorted(map(exact_scalar, override)))
        try:
            result = _modules.arrangement.exponents_via_terao(self.chi)
        except InconsistencyError:
            return None
        if result.splits and result.exponents and 1 in result.exponents:
            return result.exponents
        return None

    def required_exponents(self):
        if self.exponents is None:
            raise ValidationError("no exponent data: characteristic polynomial does not "
                                  "split usably and no --exponents override was given")
        return self.exponents

    def checked_exponents(self):
        """The required exponents past the exponent checks, which a run makes
        once.  Kept by hand: a ``cached_property`` costs about 2 µs more on
        a refused override."""
        if self._checked is None:
            self._checked = _modules.kring._validate_exponents(self.required_exponents(), self.n)
        return self._checked

    @cached_property
    def routes(self):
        """Each requested mc route -> the coefficients of the chi it
        substitutes (the run's, or prod_i (t - e_i) for exponents), in the
        order lattice, charpoly, exponents, after every refusal.  Only routes
        of different chi are compared: their classes are computed, the first
        kept as ``mc``.
        """
        route = self.config.mc_route
        chis = {name: self.chi.coeffs for name in ("lattice", "charpoly")
                if route in (name, "all")}
        if route in ("exponents", "all"):
            if self.exponents is not None:
                chis["exponents"] = tuple(_modules.kring._exponents_chi(self.checked_exponents()))
            elif route == "exponents":
                raise ValidationError(
                    "mc route 'exponents' needs exponent data: the characteristic "
                    "polynomial does not split usably and no --exponents override was given")
        distinct = {}  # chi -> its first route
        for name, coeffs in chis.items():
            distinct.setdefault(coeffs, name)
        if len(distinct) > 1:
            classes = {coeffs: self._substitute(name, coeffs) for coeffs, name in distinct.items()}
            first, *others = classes.values()
            if any(v != first for v in others):
                raise InconsistencyError(
                    "motivic Chern class routes disagree",
                    details={"routes": {name: _modules.kring.kpoly_to_json(classes[coeffs])
                                        for name, coeffs in chis.items()}})
            self.mc = first  # the classes agree: ``mc`` substitutes nothing again
        return chis

    @cached_property
    def mc(self):
        """The motivic Chern class of the complement: the first route's chi substituted."""
        return self._substitute(*next(iter(self.routes.items())))

    def _substitute(self, route, coeffs):
        """mc at the chi of ``route``, whose coefficients are ``coeffs``; only
        the exponents' chi is made a polynomial here."""
        chi = _modules.arrangement.IntPolynomial(coeffs) if route == "exponents" else self.chi
        return _modules.kring.mc_complement_charpoly(chi, self.n)


# Each handler is a generator that yields its JSON report first and its text
# lines after it, formatted from the report's values.  Every check (route
# agreement, the Euler cross-check, required exponents, curve validation)
# comes before the first yield, and nothing after it may raise but writing an
# integer too long for text, which ``run`` refuses wherever it happens.
# ``run`` resumes the generator only for text, so a JSON run formats no text;
# the ``lattice`` report's nodes are a ``_Written`` value, whose JSON text
# only a JSON run writes.

def _cmd_lattice(inp):
    lat = inp.lattice
    matrices, dims, mobius = lat.rows, lat.dims, lat.mobius
    nodes = _Written(lambda newline: _nodes_json(matrices, dims, mobius, newline))
    yield {"ambient_dim": lat.ambient_dim, "node_count": len(lat), "nodes": nodes}
    yield f"ambient_dim {lat.ambient_dim}, {len(lat)} nodes"
    yield from map(_node_line, dims, mobius, matrices)


def _node_line(dim, mu, matrix):
    """One node's line of the ``lattice`` text report."""
    rendered = "; ".join([" ".join(_entry_texts(row)) for row in matrix]) or "(ambient)"
    return f"dim {dim}  mobius {mu:3d}  [{rendered}]"


def _entry_texts(row):
    """``str`` of each entry v / pivot of an integer reduced row, as that of
    ``Fraction(v, pivot)``: ``str(v)`` under a pivot 1, else one gcd each."""
    lead = next(filter(None, row))
    if lead == 1:
        return [str(v) for v in row]
    texts = []
    for v in row:
        g = gcd(v, lead)
        texts.append(str(v // g) if g == lead else f"{v // g}/{lead // g}")
    return texts


def _nodes_json(matrices, dims, mobius, newline):
    """The text ``_to_json`` gives the ``lattice`` report's list of node
    dicts {"dim", "mobius", "matrix"} at the level of ``newline``, the
    matrix entries as their ``_entry_texts``, built in one pass of joins."""
    node = newline + "  "
    field = node + "  "
    row = field + "  "
    entry = row + "  "
    head = "{" + field + '"dim": '
    mobius_key = "," + field + '"mobius": '
    matrix_key = "," + field + '"matrix": '
    tail = node + "}"
    rows_open, rows_sep, rows_close = "[" + row, "," + row, field + "]"
    opening, separator, closing = "[" + entry + '"', '",' + entry + '"', '"' + row + "]"
    nodes = []
    written = {}  # row -> its text; flats share rows
    for matrix, dim, mu in zip(matrices, dims, mobius):
        if matrix:
            texts = []
            for r in matrix:
                text = written.get(r)
                if text is None:
                    text = written[r] = opening + separator.join(_entry_texts(r)) + closing
                texts.append(text)
            rows = rows_open + rows_sep.join(texts) + rows_close
        else:
            rows = "[]"
        nodes.append(f"{head}{dim}{mobius_key}{mu}{matrix_key}{rows}{tail}")
    return "[" + node + ("," + node).join(nodes) + newline + "]"


def _cmd_charpoly(inp):
    chi = inp.chi
    payload = {"coefficients": list(chi.coeffs), "rendered": str(chi)}
    yield payload
    yield payload["rendered"]


def _cmd_exponents(inp):
    result = _modules.arrangement.exponents_via_terao(inp.chi)
    if result.splits:
        yield {"splits": True, "exponents": list(result.exponents)}
        yield _exponents_str(result.exponents)
        yield f"note: {TERAO_NOTE}"
    else:
        remaining = {"coefficients": list(result.remaining.coeffs),
                     "rendered": str(result.remaining)}
        yield {"splits": False, "remaining_factor": remaining}
        yield f"does not split: no integer root of {remaining['rendered']}"
        yield "certified: the cone is not free with integer exponents"


def _cmd_mc(inp):
    # the routes agree, so one report serves them all
    report = _modules.kring.kpoly_to_json(inp.mc, basis=inp.basis)
    routes = dict.fromkeys(inp.routes, report)
    payload = {"n": inp.n, "mc_route": inp.config.mc_route, "routes": routes}
    if len(routes) > 1:
        payload["agree"] = True
    yield payload
    if len(routes) > 1:
        yield f"routes {', '.join(routes)} agree"
    for name, value in routes.items():
        yield f"[{name}]"
        yield from _kpoly_lines(value)


def _refuse_unwritable_log_class(exps, n):
    """Refuse, before computing it, a log class whose report CPython cannot write.

    C(sum e, n) is the s^n coefficient of the class's y^0 row and, up to
    sign, its (1-s)^n one, so the report holds it in either basis.  The
    exponents are checked ones (``_Input.checked_exponents``), so the
    refusals of those checks come first.  C(sum e, n) <= (sum e)^n <
    8^limit passes without forming 10^limit; q^n <= C(sum e, n) for
    q = (sum e - n + 1) // n decides most other cases by bit length before
    the exact binomial.
    """
    total = sum(exps)
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and n * total.bit_length() > 3 * limit:
        least = 10 ** limit  # the least integer of limit + 1 digits
        q = (total - n + 1) // n
        if n * (q.bit_length() - 1) >= least.bit_length() or comb(total, n) >= least:
            raise ValidationError(_too_large())


def _too_large():
    return f"report too large: an integer has more than {sys.get_int_max_str_digits()} digits"


def _cmd_logclass(inp):
    exps = inp.checked_exponents()
    _refuse_unwritable_log_class(exps, inp.n)
    kring = _modules.kring
    value = kring.kpoly_to_json(kring.log_class_free(exps, inp.n), basis=inp.basis)
    yield {"n": inp.n, "exponents": list(exps), "log_class": value}
    yield f"exponents {_exponents_str(exps)}"
    yield from _kpoly_lines(value)


def _cmd_diff(inp):
    # no exponent data, then the routes' refusals, then the exponent checks;
    # each chi has degree n + 1, so the difference is taken past its checks
    inp.required_exponents()
    chi = next(iter(inp.routes.values()))
    exps = inp.checked_exponents()
    kring = _modules.kring
    value = kring._difference(exps, chi, inp.n)
    payload = {"n": inp.n, "mc_route": inp.config.mc_route, "exponents": list(exps),
               "difference": kring.kpoly_to_json(value, basis=inp.basis),
               "is_zero": value.is_zero()}
    yield payload
    yield from _kpoly_lines(payload["difference"])
    yield f"is_zero: {str(payload['is_zero']).lower()}"


def _cmd_csm(inp):
    hzmod = _modules.hirzebruch
    n = inp.n
    csm_mc = hzmod.csm_at_minus_one(inp.mc)
    payload = {"n": n, "csm_mc": hzmod.cohclass_to_json(csm_mc)}
    exps = inp.exponents
    if exps is not None:
        csm_log = hzmod.csm_at_minus_one(_modules.kring.log_class_free(exps, n))
        product = hzmod.chern_class_free_exponents(exps, n)
        payload["csm_log"] = hzmod.cohclass_to_json(csm_log)
        payload["chern_product"] = hzmod.cohclass_to_json(product)
        payload["exponents"] = list(exps)
        payload["equal_mc_log"] = csm_mc == csm_log
        payload["equal_mc_product"] = csm_mc == product
    else:
        payload["note"] = "no candidate exponents: log side and product unavailable"
    euler = hzmod.euler_characteristic(csm_mc)
    payload["euler_characteristic"] = str(euler)
    yield payload
    yield f"csm(mc):      {_cohclass_str(csm_mc)}"
    if exps is not None:
        yield f"csm(log):     {_cohclass_str(csm_log)}"
        yield f"product:      {_cohclass_str(product)}   (exponents {_exponents_str(exps)})"
        yield f"all equal: {str(payload['equal_mc_log'] and payload['equal_mc_product']).lower()}"
    else:
        yield payload["note"]
    yield f"euler characteristic: {euler}"


def _cmd_euler(inp):
    hzmod = _modules.hirzebruch
    # the lattice before any route, so a node-cap refusal precedes exponent errors
    lat = inp.lattice
    mobius_sum = sum(mu * dim for dim, mu in lat.dims_and_mobius())
    csm_mc = hzmod.csm_at_minus_one(inp.mc)
    euler = hzmod.euler_characteristic(csm_mc)
    if euler != mobius_sum:
        raise InconsistencyError(
            f"degree-0 CSM coefficient {euler} differs from the "
            f"Möbius-dimension sum {mobius_sum}",
            details={"csm": hzmod.cohclass_to_json(csm_mc), "mobius_sum": mobius_sum})
    yield {"euler_characteristic": str(euler), "mobius_dimension_sum": mobius_sum}
    yield f"euler characteristic: {euler}"
    yield f"mobius-dimension sum: {mobius_sum} (agrees)"


def _cmd_curve(config):
    curvemod = _modules.curves
    text = read_file(config.input_path)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # malformed, an over-long integer, too deep
        raise ValidationError(f"invalid JSON in {config.input_path}: {e}") from None
    entries = data if isinstance(data, list) else [data]
    sings = [curvemod.singularity_from_json(obj) for obj in entries]
    dc = curvemod.difference_class_curve(sings)
    csm_weights = curvemod.csm_minus_chern_curve(sings)
    yield {
        "singularities": [{"mu": s.mu, "tau": s.tau, "r": s.r, "delta": s.delta}
                          for s in sings],
        "pairs": [list(pair) for pair in dc.pairs],
        "total": list(dc.total),
        "is_zero": dc.is_zero(),
        "genus_defects": [curvemod.genus_defect(s) for s in sings],
        "csm_minus_chern": csm_weights,
    }
    for s, (a, b) in zip(sings, dc.pairs):
        yield (f"mu={s.mu} tau={s.tau} r={s.r} delta={s.delta}  ->  "
               f"({a}) + ({b})*y  per point class")
    ta, tb = dc.total
    yield f"total: ({ta}) + ({tb})*y"
    yield f"is_zero: {str(dc.is_zero()).lower()}"


# the options a command may accept, as add_argument's flag and keywords
_ROUTE = ("--route", {"choices": ("lattice", "charpoly", "exponents", "all"), "default": "all"})
_EXPONENTS = ("--exponents", {"default": None, "metavar": "e1,e2,...",
                              "help": "override the candidate exponents"})
_BASIS = ("--basis", {"choices": ("s", "one_minus_s"), "default": None,
                      "help": "basis for rendered K-classes "
                              "(default: one_minus_s for text, s for json)"})

# command -> (handler, help text, options); the handler of an arrangement
# command takes an _Input, that of ``curve`` the RunConfig
COMMANDS = {
    "lattice": (_cmd_lattice, "intersection lattice with Möbius values", ()),
    "charpoly": (_cmd_charpoly, "characteristic polynomial", ()),
    "exponents": (_cmd_exponents, "candidate exponents (integer roots of charpoly)", ()),
    "mc": (_cmd_mc, "motivic Chern class of the complement", (_ROUTE, _EXPONENTS, _BASIS)),
    "logclass": (_cmd_logclass, "twisted logarithmic-form class", (_EXPONENTS, _BASIS)),
    "diff": (_cmd_diff, "difference class and is_zero verdict", (_ROUTE, _EXPONENTS, _BASIS)),
    "csm": (_cmd_csm, "CSM class comparison at y = -1", (_ROUTE, _EXPONENTS)),
    "euler": (_cmd_euler, "Euler characteristic of the complement", (_ROUTE, _EXPONENTS)),
    "curve": (_cmd_curve, "difference-class weights of curve singularities", ()),
}


def _dispatch(config):
    # a RunConfig built in code skips argparse and the environment's check
    if type(config.command) is not str or config.command not in COMMANDS:
        raise ValidationError(f"command must be one of {', '.join(COMMANDS)}")
    cap = config.max_lattice_nodes
    if cap is not None and (type(cap) is not int or cap < 1):
        raise ValidationError("LOGMC_MAX_LATTICE must be a positive integer")
    if config.output_format not in ("text", "json"):
        raise ValidationError("output format must be text or json")
    # ``open`` would take an int or a bool as a file descriptor, and close it
    if not isinstance(config.input_path, (str, os.PathLike)):
        raise ValidationError("input path must be a str or os.PathLike")
    handler, _, options = COMMANDS[config.command]
    if _ROUTE in options and config.mc_route not in _ROUTE[1]["choices"]:
        raise ValidationError("mc route must be one of lattice, charpoly, exponents, all")
    basis, override = config.basis, config.exponents_override
    if _BASIS in options and basis is not None and basis not in _BASIS[1]["choices"]:
        raise ValidationError(f"unknown basis {basis!r}")
    if _EXPONENTS in options and override is not None and not isinstance(override, (list, tuple)):
        raise ValidationError("exponents override must be a list or tuple of integers")
    if config.command == "curve":
        return handler(config)
    return handler(_Input(_modules.arrangement.load_arrangement(config.input_path), config))


_encode_str = json.encoder.encode_basestring_ascii


class _Written:
    """A report value that writes its own JSON: ``write(newline)`` is the
    text ``_to_json`` gives the value at the level of ``newline``.  It is
    called only when a JSON report is written."""

    __slots__ = ("write",)

    def __init__(self, write):
        self.write = write


def _to_json(obj, newline="\n"):
    """The bytes of ``json.dumps(obj, indent=2)`` for a report (str-keyed
    dicts, lists, strs, ints, bools, None), without the pure-Python encoder
    that ``indent`` selects.  ``test_json_writer_matches_json_dumps`` in
    ``tests/test_cli.py`` compares the two.  A ``_Written`` value, the
    ``lattice`` report's nodes, is embedded as the text it writes at its
    level.

    The exact type is tested first, as reports hold only those; any other
    value, a subclass say, goes to ``json.dumps`` itself, with the indent
    of the level it sits at, so it is written or refused as there."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is not list and kind is not tuple and kind is not dict:
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if kind is _Written:
            return obj.write(newline)
        return json.dumps(obj, indent=2).replace("\n", newline)
    if not obj:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    if kind is dict:
        items = [_encode_str(key) + ": " + _to_json(value, inner) for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    items = [_to_json(value, inner) for value in obj]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def run(config):
    """Execute a configured command; returns (exit_code, report).

    A report holding an integer too long for CPython to write as text is
    refused as invalid input; any other ``ValueError`` propagates.
    """
    try:
        report = _dispatch(config)
        payload = next(report)
        if config.output_format == "json":
            return 0, _to_json(payload)
        return 0, "\n".join(report)
    except ValueError as e:
        if "integer string conversion" not in str(e):
            raise
        error = _too_large()
    except ValidationError as e:
        error = str(e)
    except InconsistencyError as e:
        body = {"error": str(e), "kind": "inconsistency"}
        if e.details is not None:
            body["details"] = e.details
        if config.output_format == "json":
            return 2, _to_json(body)
        return 2, f"inconsistency: {e}\n{_to_json(body.get('details'))}"
    if config.output_format == "json":
        return 1, _to_json({"error": error, "kind": "validation"})
    return 1, f"error: {error}"


def main(argv=None):
    try:
        config = config_from_args(argv)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    code, report = run(config)
    print(report, file=sys.stdout if code == 0 else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
