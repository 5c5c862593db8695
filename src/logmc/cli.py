"""Command-line front end: ``logmc <command> <input>``.

Commands on an arrangement file (text format: first line the ambient
dimension, then one integer linear form per line, ``#`` for comments):

  lattice    intersection lattice nodes with dimensions and Möbius values
  charpoly   characteristic polynomial of the lattice
  exponents  candidate exponents via integer factorisation of charpoly
  mc         motivic Chern class of the complement; routes: lattice,
             charpoly, exponents, or all (computed and cross-checked)
  logclass   twisted total logarithmic-form class from exponents
  diff       difference of the motivic and logarithmic classes + is_zero
  csm        CSM class from both sides plus the exponent product, compared
  euler      Euler characteristic (degree-0 CSM coefficient), cross-checked
             against the Möbius-dimension sum of the lattice

and on a singularity JSON file ({"poly": "x^2 - y^3"} or
{"mu": ..., "tau": ..., "r": ...}, a single object or a list):

  curve      per-singularity difference-class weights (a, b)

Exit codes: 0 success; 1 parse/validation error; 2 detected mathematical
inconsistency (route disagreement, failed exact division) with a diagnostic
payload.

Note on exponents: a split characteristic polynomial yields *candidate*
exponents only; splitting does not certify that the cone is free; a
non-split polynomial does certify that it is not free with integer
exponents.
"""

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import cached_property
from math import comb

from . import arrangement as arrmod
from . import curves as curvemod
from . import hirzebruch as hzmod
from . import kring
from ._poly import exact_scalar, int_literals, power, render
from .errors import InconsistencyError, ValidationError

TERAO_NOTE = ("candidate exponents only: a split characteristic polynomial does not "
              "certify freeness; a non-split one certifies the cone is not free "
              "with integer exponents")

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
    for text.  The lattice, chi and candidate exponents are derived on first
    use and kept, so each is computed at most once per run and only when
    read.  A derivation that raises (the node cap, say) keeps nothing, so
    the next read raises again.
    """

    def __init__(self, arr, config):
        self.arr = arr
        self.config = config
        self.n = arr.ambient_dim - 1
        self.basis = config.basis or ("s" if config.output_format == "json" else "one_minus_s")

    @cached_property
    def lattice(self):
        return arrmod.build_lattice(self.arr, max_nodes=self.config.max_lattice_nodes)

    @cached_property
    def chi(self):
        return arrmod.characteristic_polynomial(self.lattice)

    @cached_property
    def exponents(self):
        """Candidate exponents from an override or a Terao split; None if absent.

        A nonpositive-root inconsistency (non-essential arrangement) counts as
        "no usable exponent data" here; the ``exponents`` command itself still
        reports it.
        """
        override = self.config.exponents_override
        if override is not None:
            if not isinstance(override, (list, tuple)):
                raise ValidationError("exponents override must be a list or tuple of integers")
            return tuple(sorted(map(exact_scalar, override)))
        try:
            result = arrmod.exponents_via_terao(self.chi)
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


def _mc_route(inp):
    """The requested route, checked: a RunConfig built in code skips argparse."""
    if inp.config.mc_route not in _ROUTE[1]["choices"]:
        raise ValidationError("mc route must be one of lattice, charpoly, exponents, all")
    return inp.config.mc_route


def _mc_routes(inp):
    """Requested motivic Chern class routes, cross-checked for agreement.

    The dict is filled in the order lattice, charpoly, exponents, so its
    first value is the preferred one.  Each route is the chi substitution
    (``kring.mc_complement_charpoly``) at its chi: the lattice sum grouped by
    dimension at the run's, the exponent product at prod_i (t - e_i).  It
    runs once per distinct chi, after every refusal.
    """
    route = _mc_route(inp)
    chis = {name: inp.chi for name in ("lattice", "charpoly") if route in (name, "all")}
    if route in ("exponents", "all"):
        if inp.exponents is not None:
            exps = kring._validate_exponents(inp.exponents, inp.n)
            chis["exponents"] = arrmod.IntPolynomial(kring._exponents_chi(exps))
        elif route == "exponents":
            raise ValidationError(
                "mc route 'exponents' needs exponent data: the characteristic "
                "polynomial does not split usably and no --exponents override was given")
    classes = {chi: kring.mc_complement_charpoly(chi, inp.n) for chi in set(chis.values())}
    routes = {name: classes[chi] for name, chi in chis.items()}
    values = list(classes.values())
    if any(v != values[0] for v in values[1:]):
        raise InconsistencyError(
            "motivic Chern class routes disagree",
            details={"routes": {k: kring.kpoly_to_json(v) for k, v in routes.items()}})
    return routes


def _mc_value(inp):
    """The motivic Chern class from the first requested route."""
    return next(iter(_mc_routes(inp).values()))


# Each handler is a generator that yields its JSON report first and its text
# lines after it, formatted from the report's values.  Every check (route
# agreement, the Euler cross-check, required exponents, curve validation)
# comes before the first yield, and nothing after it may raise but writing an
# integer too long for text, which ``run`` refuses wherever it happens.
# ``run`` resumes the generator only for text, so a JSON run formats no text.

def _cmd_lattice(inp):
    lat = inp.lattice
    _, dims, mobius, _, quotients = lat._node_order()
    nodes = [{"dim": dim, "mobius": mu, "matrix": [[str(v) for v in row] for row in rows]}
             for dim, rows, mu in zip(dims, quotients, mobius)]
    yield {"ambient_dim": lat.ambient_dim, "node_count": len(lat), "nodes": nodes}
    yield f"ambient_dim {lat.ambient_dim}, {len(lat)} nodes"
    for node in nodes:
        rendered = "; ".join(" ".join(row) for row in node["matrix"]) or "(ambient)"
        yield f"dim {node['dim']}  mobius {node['mobius']:3d}  [{rendered}]"


def _cmd_charpoly(inp):
    chi = inp.chi
    payload = {"coefficients": list(chi.coeffs), "rendered": str(chi)}
    yield payload
    yield payload["rendered"]


def _cmd_exponents(inp):
    result = arrmod.exponents_via_terao(inp.chi)
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
    routes = _mc_routes(inp)
    # the routes agree, so one report serves them all
    report = kring.kpoly_to_json(next(iter(routes.values())), basis=inp.basis)
    routes = dict.fromkeys(routes, report)
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
    exponents meet ``log_class_free``'s checks first, so its refusals come
    first.  C(sum e, n) <= (sum e)^n < 8^limit passes without forming
    10^limit; q^n <= C(sum e, n) for q = (sum e - n + 1) // n decides most
    other cases by bit length before the exact binomial.
    """
    total = sum(kring._validate_exponents(exps, n))
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and n * total.bit_length() > 3 * limit:
        least = 10 ** limit  # the least integer of limit + 1 digits
        q = (total - n + 1) // n
        if n * (q.bit_length() - 1) >= least.bit_length() or comb(total, n) >= least:
            raise ValidationError(_too_large())


def _too_large():
    return f"report too large: an integer has more than {sys.get_int_max_str_digits()} digits"


def _cmd_logclass(inp):
    exps = inp.required_exponents()
    _refuse_unwritable_log_class(exps, inp.n)
    value = kring.kpoly_to_json(kring.log_class_free(exps, inp.n), basis=inp.basis)
    yield {"n": inp.n, "exponents": list(exps), "log_class": value}
    yield f"exponents {_exponents_str(exps)}"
    yield from _kpoly_lines(value)


def _cmd_diff(inp):
    exps = inp.required_exponents()
    route = _mc_route(inp)
    if route == "all":
        _mc_routes(inp)  # the cross-check; the difference takes the run's chi
    source = None if route == "exponents" else inp.chi
    value = kring.difference_class_arrangement(exps, source, inp.n)
    payload = {"n": inp.n, "mc_route": inp.config.mc_route, "exponents": list(exps),
               "difference": kring.kpoly_to_json(value, basis=inp.basis),
               "is_zero": value.is_zero()}
    yield payload
    yield from _kpoly_lines(payload["difference"])
    yield f"is_zero: {str(payload['is_zero']).lower()}"


def _cmd_csm(inp):
    n = inp.n
    csm_mc = hzmod.csm_at_minus_one(_mc_value(inp))
    payload = {"n": n, "csm_mc": hzmod.cohclass_to_json(csm_mc)}
    exps = inp.exponents
    if exps is not None:
        csm_log = hzmod.csm_at_minus_one(kring.log_class_free(exps, n))
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
    # the lattice before any route, so a node-cap refusal precedes exponent errors
    lat = inp.lattice
    mobius_sum = sum(mu * dim for dim, mu in lat.dims_and_mobius())
    csm_mc = hzmod.csm_at_minus_one(_mc_value(inp))
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
    text = arrmod.read_file(config.input_path)
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
    handler = COMMANDS[config.command][0]
    if config.command == "curve":
        return handler(config)
    arr = arrmod.load_arrangement(config.input_path)
    return handler(_Input(arr, config))


_encode_str = json.encoder.encode_basestring_ascii


def _to_json(obj, newline="\n"):
    """The bytes of ``json.dumps(obj, indent=2)`` for a report (str-keyed
    dicts, lists, strs, ints, bools, None), without the pure-Python encoder
    that ``indent`` selects.  ``test_json_writer_matches_json_dumps`` in
    ``tests/test_cli.py`` compares the two.

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
