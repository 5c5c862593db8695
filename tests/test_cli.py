"""Command-line tests: golden JSON comparison, exit codes, round trips."""

import enum
import json
import os
import random
import tempfile
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmc import arrangement, cli, kring
from logmc import hirzebruch as hzmod
from logmc import (Arrangement, KClass, KPoly, ValidationError, build_lattice,
                   characteristic_polynomial, cohclass_from_json, csm_at_minus_one,
                   kpoly_from_json, log_class_free, mc_complement_lattice_sum)
from logmc._poly import _Truncated
from logmc.arrangement import MAX_AMBIENT_DIM, load_arrangement
from logmc.cli import RunConfig, config_from_args, main, run
from test_arrangement import eager_node_order

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = CORPUS / "golden"

GOLDEN_MATRIX = {
    "boolean3": ["lattice", "charpoly", "exponents", "mc", "diff", "csm", "euler"],
    "braid": ["charpoly", "exponents", "mc", "diff", "csm", "euler"],
    "generic4": ["charpoly", "exponents", "mc", "csm", "euler"],
    "concurrent3": ["exponents", "diff", "csm"],
    "empty": ["charpoly", "mc"],
    "skew5": ["lattice", "charpoly"],
    "node": ["curve"],
    "cusp": ["curve"],
    "tacnode": ["curve"],
    "triple_point": ["curve"],
}


def corpus_path(stem):
    ext = ".json" if (CORPUS / f"{stem}.json").exists() else ".arr"
    return str(CORPUS / f"{stem}{ext}")


def run_json(command, stem, **kwargs):
    config = RunConfig(command=command, input_path=corpus_path(stem),
                       output_format="json", **kwargs)
    return run(config)


@pytest.mark.parametrize("stem,command",
                         [(stem, cmd) for stem, cmds in GOLDEN_MATRIX.items()
                          for cmd in cmds])
def test_golden_bit_exact(stem, command):
    code, report = run_json(command, stem)
    assert code == 0
    expected = (GOLDEN / f"{stem}_{command}.json").read_text()
    assert report + "\n" == expected


# text output in the default one_minus_s basis: (stem, command) -> extra arguments;
# every pair of GOLDEN_MATRIX with default arguments, plus three logclass runs and
# one diff run that need exponents
TEXT_GOLDENS = {
    **{(stem, cmd): [] for stem, cmds in GOLDEN_MATRIX.items() for cmd in cmds},
    ("braid", "logclass"): ["--exponents", "1,2,3"],
    ("generic4", "diff"): ["--route", "lattice", "--exponents", "1,1,2"],
    ("generic4", "logclass"): ["--exponents", "1,1,2"],
    ("boolean3", "logclass"): ["--exponents", "1,1,1"],
}


@pytest.mark.parametrize("stem,command", list(TEXT_GOLDENS))
def test_text_golden_bit_exact(stem, command, capsys):
    assert main([command, corpus_path(stem), *TEXT_GOLDENS[stem, command]]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{stem}_{command}.txt").read_text()


def test_no_inconsistency_exit_on_corpus():
    """Exit code 2 never occurs on the bundled example corpus."""
    for stem, commands in GOLDEN_MATRIX.items():
        for command in commands:
            code, _ = run_json(command, stem)
            assert code == 0, (stem, command)


# --- documented text outputs

def test_exponents_text_output(capsys):
    assert main(["exponents", corpus_path("boolean3")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "{1,1,1}"


def test_csm_text_output(capsys):
    assert main(["csm", corpus_path("braid")]) == 0
    out = capsys.readouterr().out
    assert "1 - 3*h + 2*h^2" in out
    assert "all equal: true" in out
    assert "euler characteristic: 2" in out


def test_diff_text_output(capsys):
    assert main(["diff", corpus_path("braid")]) == 0
    assert "is_zero: false" in capsys.readouterr().out
    assert main(["diff", corpus_path("boolean3")]) == 0
    assert "is_zero: true" in capsys.readouterr().out


def test_diff_text_renders_one_minus_s_by_default(capsys):
    assert main(["diff", corpus_path("braid")]) == 0
    out = capsys.readouterr().out
    assert "y^0: -4*(1-s)^2" in out
    assert main(["diff", corpus_path("braid"), "--basis", "s"]) == 0
    out = capsys.readouterr().out
    assert "y^0: -4 + 8*s - 4*s^2" in out


def test_generic4_exponents_text(capsys):
    assert main(["exponents", corpus_path("generic4")]) == 0
    out = capsys.readouterr().out
    assert "does not split" in out and "t^2 - 3*t + 3" in out


# --- exit codes

def test_missing_file_is_validation_error(capsys):
    assert main(["charpoly", "no_such_file.arr"]) == 1
    assert "error:" in capsys.readouterr().err


def test_diff_on_empty_arrangement_rejected(capsys):
    assert main(["diff", corpus_path("empty")]) == 1
    assert "no exponent data" in capsys.readouterr().err


def test_route_exponents_without_split_rejected():
    code, report = run_json("mc", "generic4", mc_route="exponents")
    assert code == 1
    assert "exponent" in report


def test_exponent_override_disagreement_is_exit_2():
    code, report = run_json("mc", "braid",
                            exponents_override=(1, 1, 4), mc_route="all")
    assert code == 2
    payload = json.loads(report)
    assert payload["kind"] == "inconsistency"
    assert "routes" in payload["details"]


def test_an_override_with_another_chi_gets_its_own_class():
    # braid's chi is (t-1)(t-2)(t-3); (1, 1, 4) is not its split
    code, report = run_json("mc", "braid", exponents_override=(1, 1, 4), mc_route="all")
    routes = json.loads(report)["details"]["routes"]
    lattice_class = kring.mc_complement_lattice_sum(build_lattice(load_arrangement(
        corpus_path("braid"))))
    assert code == 2 and list(routes) == ["lattice", "charpoly", "exponents"]
    assert routes["lattice"] == routes["charpoly"] == kring.kpoly_to_json(lattice_class)
    assert routes["exponents"] == kring.kpoly_to_json(kring.mc_free_exponents((1, 1, 4), 2))
    assert routes["exponents"] != routes["lattice"]


def test_nonessential_exponents_is_exit_2(tmp_path):
    path = tmp_path / "nonessential.arr"
    path.write_text("3\n1 0 0\n0 1 0\n1 -1 0\n")
    code, report = run(RunConfig(command="exponents", input_path=str(path),
                                 output_format="json"))
    assert code == 2
    assert "nonpositive root" in json.loads(report)["error"]
    # commands that do not need exponents still work there
    code, _ = run(RunConfig(command="euler", input_path=str(path),
                            output_format="json"))
    assert code == 0


def test_bad_exponent_flag_rejected(capsys):
    # int() alone would read a non-ASCII digit and "_" as {1,2,3} and {1,3,20}
    for value in ("1,two", "1,\u0662,3", "1,2_0,3", "1," + "9" * 5000):
        assert main(["logclass", corpus_path("braid"), "--exponents", value]) == 1
        assert "--exponents expects comma-separated integers" in capsys.readouterr().err
        # the refusal quotes a bounded prefix of the argument
        with pytest.raises(ValidationError) as refusal:
            config_from_args(["logclass", corpus_path("braid"), "--exponents", value])
        assert len(str(refusal.value)) < 100
    assert main(["nonsense-command", "x"]) == 1


def test_empty_exponent_flag_rejected(capsys):
    for value in (",", " , ,"):
        with pytest.raises(ValidationError) as refusal:
            config_from_args(["logclass", corpus_path("braid"), "--exponents", value])
        assert str(refusal.value) == "--exponents is empty"
        assert main(["logclass", corpus_path("braid"), "--exponents", value]) == 1
        assert "--exponents is empty" in capsys.readouterr().err


# the options each command accepts, besides the input and --format
ACCEPTED_OPTIONS = {
    "lattice": set(), "charpoly": set(), "exponents": set(), "curve": set(),
    "mc": {"--route", "--exponents", "--basis"},
    "logclass": {"--exponents", "--basis"},
    "diff": {"--route", "--exponents", "--basis"},
    "csm": {"--route", "--exponents"},
    "euler": {"--route", "--exponents"},
}


@pytest.mark.parametrize("command", sorted(ACCEPTED_OPTIONS))
def test_each_command_accepts_exactly_its_options(command):
    values = {"--route": "charpoly", "--exponents": "3,1,2", "--basis": "s"}
    for flag, value in values.items():
        argv = [command, "input", flag, value]
        if flag not in ACCEPTED_OPTIONS[command]:
            with pytest.raises(ValidationError, match="unrecognized arguments"):
                config_from_args(argv)
            continue
        config = config_from_args(argv)
        assert (config.mc_route, config.exponents_override, config.basis) == (
            "charpoly" if flag == "--route" else "all",
            (3, 1, 2) if flag == "--exponents" else None,
            "s" if flag == "--basis" else None)


def test_logclass_with_a_huge_exponent_answers(capsys):
    # the twist s^e is a closed form in K(P^n), so e = 10^11 costs no more than e = 2
    argv = ["logclass", corpus_path("braid"), "--exponents", "1,2,100000000000",
            "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exponents"] == [1, 2, 10 ** 11]
    assert kpoly_from_json(payload["log_class"]) == log_class_free([1, 2, 10 ** 11], 2)


def test_ambient_dimension_above_the_limit_refused(tmp_path):
    path = tmp_path / "huge.arr"
    path.write_text(f"{MAX_AMBIENT_DIM + 1}\n")
    for command in ("mc", "csm", "charpoly"):
        code, report = run(RunConfig(command=command, input_path=str(path),
                                     output_format="json"))
        assert code == 1
        assert json.loads(report)["error"] == (
            f"line 1: ambient dimension {MAX_AMBIENT_DIM + 1} exceeds the limit "
            f"{MAX_AMBIENT_DIM}")


def test_a_report_too_long_to_write_is_refused(tmp_path, monkeypatch):
    # CPython writes no int of more than 4300 digits as text: the log class
    # of exponent 10^2200 - 1, and the lattice's matrix entries of
    # 3000-digit forms, are refused whether the int is written by the
    # handler (a lattice entry, in the nodes' JSON text or a text line) or
    # by the writer (JSON or text)
    nines = "9" * 2200
    path = tmp_path / "wide.arr"
    big = 10 ** 3000
    path.write_text(f"3\n{big} 1 0\n0 {big} 1\n1 1 {big}\n1 0 0\n")
    error = "report too large: an integer has more than 4300 digits"
    for fmt in ("json", "text"):
        for argv in (["logclass", corpus_path("boolean3"), "--exponents", f"1,1,{nines}"],
                     ["lattice", str(path)]):
            code, report = run(config_from_args(argv + ["--format", fmt]))
            assert code == 1, argv
            if fmt == "json":
                assert json.loads(report) == {"error": error, "kind": "validation"}
            else:
                assert report == f"error: {error}"
        # the exponent product's class stays under the limit
        argv = ["mc", corpus_path("boolean3"), "--route", "exponents",
                "--exponents", f"1,1,{nines}", "--format", fmt]
        assert run(config_from_args(argv))[0] == 0
    # any other ValueError is not the input's fault
    monkeypatch.setattr(kring, "log_class_free", lambda *args: int("x"))
    with pytest.raises(ValueError, match="invalid literal"):
        run(RunConfig("logclass", corpus_path("boolean3")))


def test_an_unwritable_log_class_is_refused_before_it_is_computed(tmp_path):
    # C(sum e, n) is the s^n coefficient of the log class's y^0 row and, up
    # to sign, its (1-s)^n one, so a report in either basis holds it
    rng = random.Random(4300)
    for _ in range(200):
        n = rng.randint(1, 6)
        exps = [1] + [rng.randint(1, 40) for _ in range(n)]
        row = kring.log_class_free(exps, n).coeffs[0]
        assert row.coeffs[n] == comb(sum(exps), n) == (-1) ** n * row.in_one_minus_s_basis()[n]
    error = "report too large: an integer has more than 4300 digits"
    wide = tmp_path / "wide.arr"
    wide.write_text(f"{MAX_AMBIENT_DIM}\n1" + " 0" * (MAX_AMBIENT_DIM - 1) + "\n")
    line = tmp_path / "line.arr"
    line.write_text("2\n1 0\n")
    ones = ["1"] * (MAX_AMBIENT_DIM - 1)
    for fmt in ("json", "text"):
        refused = {"error": error, "kind": "validation"} if fmt == "json" else f"error: {error}"

        def logclass(path, exps):
            argv = ["logclass", str(path), "--exponents", ",".join(exps), "--format", fmt]
            code, report = run(config_from_args(argv))
            return code, json.loads(report) if fmt == "json" else report
        # 63 ones and a 4000-digit exponent: refused at once, not after minutes
        start = time.perf_counter()
        assert logclass(wide, ones + ["9" * 4000]) == (1, refused)
        assert time.perf_counter() - start < 0.5
        # on P^1 the report's largest integer is sum e itself: 4300 digits fit
        assert logclass(line, ["1", "9" * 4299 + "8"])[0] == 0
        assert logclass(line, ["1", "9" * 4300]) == (1, refused)
        # the log class's own refusals come first
        for exps, message in ((["9" * 4300, "2"], "exponent multiset must contain 1"),
                              (["1", "9" * 4300, "1"], "expected 2 exponents")):
            code, report = logclass(line, exps)
            assert code == 1 and message in str(report)


def test_lattice_cap_env(monkeypatch):
    monkeypatch.setenv("LOGMC_MAX_LATTICE", "3")
    config = config_from_args(["lattice", corpus_path("braid"), "--format", "json"])
    assert config.max_lattice_nodes == 3
    code, report = run(config)
    assert code == 1 and "node cap" in report


@pytest.mark.parametrize("value", ["0", "-3", "many", "\u0663\u0660\u0660", "3_00"])
def test_lattice_cap_env_must_be_positive(monkeypatch, value):
    monkeypatch.setenv("LOGMC_MAX_LATTICE", value)
    with pytest.raises(ValidationError, match="LOGMC_MAX_LATTICE must be a positive integer"):
        config_from_args(["lattice", corpus_path("braid")])


def test_node_cap_refusal_precedes_exponent_errors():
    for command in ("mc", "diff", "csm", "euler"):
        code, report = run_json(command, "braid", mc_route="all", max_lattice_nodes=3,
                                exponents_override=(2, 3, 3))
        assert code == 1 and "node cap" in json.loads(report)["error"], command
    code, report = run_json("euler", "braid", mc_route="exponents", max_lattice_nodes=3,
                            exponents_override=(2, 3, 3))
    assert code == 1 and "node cap" in json.loads(report)["error"]



def test_diff_on_one_route_divides_by_one_plus_y_once(monkeypatch):
    # every route, all included, subtracts the packed rows of both classes
    # and divides once; the report is the one --route all gives, in both
    # formats and both bases
    divisions = []
    divide = kring._over_one_plus_y

    def counting(*args):
        divisions.append(args)
        return divide(*args)

    monkeypatch.setattr(kring, "_over_one_plus_y", counting)
    for stem in ("braid", "boolean3", "concurrent3"):
        for fmt in ("json", "text"):
            for basis in ("s", "one_minus_s"):
                divisions.clear()
                expected = run(RunConfig("diff", corpus_path(stem), fmt, "all", basis=basis))
                assert expected[0] == 0 and len(divisions) == 1, stem
                for route in ("lattice", "charpoly", "exponents"):
                    divisions.clear()
                    code, report = run(RunConfig("diff", corpus_path(stem), fmt, route,
                                                 basis=basis))
                    assert len(divisions) == 1, (stem, route)
                    if fmt == "json":
                        report = report.replace(f'"mc_route": "{route}"', '"mc_route": "all"')
                    assert (code, report) == expected, (stem, route, fmt)
    # an override that is not the arrangement's: the routes differ, and each
    # is its own mc minus the log class
    for stem, exps in (("generic4", (1, 1, 2)), ("braid", (1, 1, 4))):
        arr = load_arrangement(corpus_path(stem))
        lat = build_lattice(arr)
        n = arr.ambient_dim - 1
        mc = {"lattice": kring.mc_complement_lattice_sum(lat),
              "charpoly": kring.mc_complement_charpoly(characteristic_polynomial(lat), n),
              "exponents": kring.mc_free_exponents(exps, n)}
        for route, value in mc.items():
            value = value - kring.log_class_free(exps, n)
            code, report = run_json("diff", stem, mc_route=route, exponents_override=exps)
            assert code == 0 and json.loads(report) == {
                "n": n, "mc_route": route, "exponents": sorted(exps),
                "difference": kring.kpoly_to_json(value), "is_zero": value.is_zero()}

def test_diff_on_one_route_keeps_the_error_order():
    # the node cap first, then the exponent checks
    for route in ("lattice", "charpoly", "all"):
        code, report = run_json("diff", "braid", mc_route=route, max_lattice_nodes=3,
                                exponents_override=(2, 3, 3))
        assert code == 1 and "node cap" in json.loads(report)["error"], route
    for route in ("lattice", "charpoly", "exponents", "all"):
        for exps, message in (((2, 3, 3), "must contain 1"),
                              ((1, 2), "expected 3 exponents"),
                              ((1, 2, -3), "must be positive")):
            code, report = run_json("diff", "braid", mc_route=route, exponents_override=exps)
            assert code == 1 and message in json.loads(report)["error"], (route, exps)
        code, report = run_json("diff", "generic4", mc_route=route)
        assert code == 1 and "no exponent data" in json.loads(report)["error"]

def test_diff_calls_log_class_free_on_no_route(monkeypatch):
    # --route all too subtracts packed rows: its routes are cross-checked,
    # and the difference is still the mc class minus the log class
    expected = {}
    for stem in ("braid", "boolean3", "concurrent3"):
        arr = load_arrangement(corpus_path(stem))
        lat = build_lattice(arr)
        n = arr.ambient_dim - 1
        exps = arrangement.exponents_via_terao(characteristic_polynomial(lat)).exponents
        value = kring.mc_complement_lattice_sum(lat) - kring.log_class_free(exps, n)
        expected[stem] = kring.kpoly_to_json(value)
    calls = []
    monkeypatch.setattr(kring, "log_class_free", lambda *args: calls.append(args))
    for stem, difference in expected.items():
        for route in ("lattice", "charpoly", "exponents", "all"):
            code, report = run_json("diff", stem, mc_route=route)
            assert code == 0 and json.loads(report)["difference"] == difference, (stem, route)
    assert calls == []


def test_default_lattice_cap(monkeypatch):
    monkeypatch.delenv("LOGMC_MAX_LATTICE", raising=False)
    config = config_from_args(["lattice", corpus_path("braid")])
    assert config.max_lattice_nodes == 25000
    assert RunConfig("lattice", "x").max_lattice_nodes == 25000


def test_run_config_fields_and_defaults():
    config = RunConfig("mc", "x", exponents_override=(1, 2))
    assert config == RunConfig(command="mc", input_path="x", output_format="text",
                               mc_route="all", exponents_override=(1, 2), basis=None,
                               max_lattice_nodes=25000)
    assert config == ("mc", "x", "text", "all", (1, 2), None, 25000)
    assert repr(RunConfig("mc", "x")) == (
        "RunConfig(command='mc', input_path='x', output_format='text', mc_route='all', "
        "exponents_override=None, basis=None, max_lattice_nodes=25000)")
    with pytest.raises(AttributeError):
        config.command = "diff"


def test_exponent_override_never_builds_lattice(monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(arrangement, "build_lattice", no_lattice)
    for command, route in (("logclass", "all"), ("diff", "exponents")):
        code, report = run_json(command, "braid", mc_route=route,
                                exponents_override=(3, 1, 2))
        assert code == 0
        assert report + "\n" == (GOLDEN / f"braid_{command}_override.json").read_text()
    # invalid overrides keep the exponent validation messages
    for exps, message in (((2, 3, 3), "must contain 1"),
                          ((1, 2), "expected 3 exponents"),
                          ((1, 2, -3), "must be positive")):
        for command, route in (("logclass", "all"), ("diff", "exponents")):
            code, report = run_json(command, "braid", mc_route=route,
                                    exponents_override=exps)
            assert code == 1 and message in json.loads(report)["error"]


def test_no_command_builds_subspaces(monkeypatch):
    """The node sort and the ``lattice`` printout read the integer rows of
    ``IntersectionLattice``; nothing reads ``nodes``."""
    built = []
    init = arrangement.Subspace.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(arrangement.Subspace, "__init__", counting_init)
    for command in ("charpoly", "exponents", "mc", "diff", "csm", "euler", "lattice"):
        code, _ = run_json(command, "braid")
        assert code == 0 and built == [], command
    code, _ = run_json("lattice", "skew5")  # pivots other than 1
    assert code == 0 and built == []


def test_only_the_lattice_command_sorts_the_flats(monkeypatch):
    """Every other command reads the lattice in closure order: neither the
    node sort, the entry texts ``lattice`` prints nor the elimination steps
    that derive the rows run, and each report is unchanged."""
    sorts = []
    steps = []
    render = arrangement._render
    eliminate = arrangement.eliminate

    def counting_render(*args):
        sorts.append(args)
        return render(*args)

    def counting_eliminate(*args):
        steps.append(args)
        return eliminate(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("node order built")

    runs = [RunConfig(command, str(path), fmt, route)
            for path in sorted(CORPUS.glob("*.arr"))
            for command in ("charpoly", "exponents", "mc", "logclass", "diff", "csm", "euler")
            for route in (("lattice", "charpoly", "exponents", "all")
                          if "--route" in ACCEPTED_OPTIONS[command] else ("all",))
            for fmt in ("text", "json")]
    expected = [run(config) for config in runs]
    assert sum(code == 0 for code, _ in expected) > len(runs) // 2
    monkeypatch.setattr(arrangement, "_render", forbidden)
    monkeypatch.setattr(cli, "_entry_texts", forbidden)
    monkeypatch.setattr(arrangement, "eliminate", forbidden)
    assert [run(config) for config in runs] == expected
    monkeypatch.undo()
    monkeypatch.setattr(arrangement, "_render", counting_render)
    monkeypatch.setattr(arrangement, "eliminate", counting_eliminate)
    for stem in ("braid", "skew5"):
        for fmt in ("text", "json"):
            sorts.clear()
            assert run(RunConfig("lattice", corpus_path(stem), fmt))[0] == 0
            assert len(sorts) == 1
    assert steps  # skew5's rows take elimination steps; braid's need none


def test_json_runs_format_no_text(monkeypatch):
    """A JSON run reads only the report each handler yields first: with the
    text helpers raising, every report is unchanged."""
    def forbidden(*args):
        raise AssertionError("text formatted")

    runs = [RunConfig(command, str(path), "json", route)
            for path in sorted(CORPUS.glob("*.arr"))
            for command in sorted(ACCEPTED_OPTIONS.keys() - {"curve"})
            for route in (("lattice", "charpoly", "exponents", "all")
                          if "--route" in ACCEPTED_OPTIONS[command] else ("all",))]
    runs += [RunConfig("curve", str(path), "json") for path in sorted(CORPUS.glob("*.json"))]
    expected = [run(config) for config in runs]
    assert sum(code == 0 for code, _ in expected) > len(runs) // 2
    assert any(config.command == "lattice" and code == 0
               for config, (code, _) in zip(runs, expected))
    for name in ("_kpoly_lines", "_cohclass_str", "_exponents_str", "_node_line"):
        monkeypatch.setattr(cli, name, forbidden)
    assert [run(config) for config in runs] == expected
    for command in ("mc", "lattice"):
        with pytest.raises(AssertionError, match="text formatted"):
            run(RunConfig(command, corpus_path("braid")))


def test_text_runs_write_no_json_nodes(monkeypatch):
    """A text ``lattice`` run resumes its handler past the report: the
    nodes' JSON text, which only the JSON writer asks for, is never built."""
    def forbidden(*args):
        raise AssertionError("JSON nodes written")

    runs = [RunConfig("lattice", str(path), "text") for path in sorted(CORPUS.glob("*.arr"))]
    expected = [run(config) for config in runs]
    assert sum(code == 0 for code, _ in expected) > len(runs) // 2
    monkeypatch.setattr(cli, "_nodes_json", forbidden)
    assert [run(config) for config in runs] == expected
    with pytest.raises(AssertionError, match="JSON nodes written"):
        run(RunConfig("lattice", corpus_path("braid"), "json"))


def test_mc_serialises_its_agreeing_routes_once(monkeypatch):
    """The routes of a report agree, so braid's three routes under
    --route all share one serialised class."""
    to_json = kring.kpoly_to_json
    calls = []

    def counting_to_json(p, *args, **kwargs):
        calls.append(p)
        return to_json(p, *args, **kwargs)

    for fmt in ("json", "text"):
        expected = run(RunConfig("mc", corpus_path("braid"), fmt))
        monkeypatch.setattr(kring, "kpoly_to_json", counting_to_json)
        calls.clear()
        assert run(RunConfig("mc", corpus_path("braid"), fmt)) == expected
        assert len(calls) == 1
        monkeypatch.undo()


def test_commands_on_mc_routes_refuse_an_unknown_route():
    """A RunConfig built in code bypasses argparse's choices: the route is
    refused before the file is read, and only by a command taking --route."""
    for command in ("mc", "diff", "csm", "euler"):
        for path in (corpus_path("braid"), str(CORPUS / "missing.arr")):
            code, report = run(RunConfig(command, path, "json", "bogus"))
            assert code == 1, command
            assert json.loads(report)["error"] == (
                "mc route must be one of lattice, charpoly, exponents, all")
    for command in ("logclass", "lattice"):
        assert run(RunConfig(command, corpus_path("braid"), "json", "bogus"))[0] == 0, command


def test_basis_and_override_container_are_refused_before_the_file_is_read():
    missing = str(CORPUS / "missing.arr")
    for command in ("mc", "logclass", "diff"):
        for basis in ("", "S"):
            for path in (corpus_path("braid"), missing):
                code, report = run(RunConfig(command, path, "json", basis=basis))
                assert code == 1 and json.loads(report)["error"] == (
                    f"unknown basis {basis!r}"), (command, basis, path)
    for command in ("mc", "logclass", "diff", "csm", "euler"):
        code, report = run(RunConfig(command, missing, "json", "lattice", exponents_override=5))
        assert code == 1 and json.loads(report)["error"] == (
            "exponents override must be a list or tuple of integers"), command
    # commands taking no --basis or --exponents ignore those fields
    for command in ("lattice", "charpoly", "exponents"):
        config = RunConfig(command, corpus_path("braid"), "json", basis="S", exponents_override=5)
        assert run(config)[0] == 0, command


@pytest.mark.parametrize("fields,message", [
    ({"command": "nope"}, "command must be one of lattice, charpoly,"),
    ({"command": None}, "command must be one of lattice, charpoly,"),
    ({"max_lattice_nodes": "5"}, "LOGMC_MAX_LATTICE must be a positive integer"),
    ({"max_lattice_nodes": True}, "LOGMC_MAX_LATTICE must be a positive integer"),
    ({"max_lattice_nodes": 0}, "LOGMC_MAX_LATTICE must be a positive integer"),
    ({"exponents_override": (1, 2, "3")}, "'3' is not an integer"),
    ({"exponents_override": 5}, "exponents override must be a list or tuple of integers"),
    ({"exponents_override": "123"}, "exponents override must be a list or tuple of integers"),
    ({"exponents_override": 5, "mc_route": "lattice"},
     "exponents override must be a list or tuple of integers"),
    ({"basis": ""}, "unknown basis ''"),
])
def test_run_refuses_bad_fields_of_a_config_built_in_code(fields, message):
    """A RunConfig built in code skips argparse and the environment's checks."""
    for fmt in ("json", "text"):
        config = RunConfig(**{"command": "mc", "input_path": corpus_path("braid"),
                              "output_format": fmt, **fields})
        code, report = run(config)
        assert code == 1
        error = json.loads(report)["error"] if fmt == "json" else report
        assert message in error


def test_run_config_exponents_are_read_as_ints_and_a_cap_of_none_is_uncapped():
    expected = run_json("logclass", "braid", exponents_override=(3, 1, 2))
    assert expected[0] == 0
    for override in ([3, 1, 2], (Fraction(3), 1, 2), [Fraction(6, 2), 1, 2]):
        assert run_json("logclass", "braid", exponents_override=override) == expected
    code, report = run_json("lattice", "braid", max_lattice_nodes=None)
    assert code == 0 and json.loads(report)["node_count"] == 15


_field_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.text(max_size=4),
    st.tuples(st.one_of(st.integers(-3, 4), st.text(max_size=2), st.booleans())),
    st.lists(st.integers(-3, 4), max_size=4).map(tuple))


@settings(max_examples=150, deadline=None)
@given(command=st.one_of(st.sampled_from(sorted(cli.COMMANDS)), _field_values),
       input_path=st.one_of(
           st.sampled_from(["braid", "boolean3", "skew5", "cusp"]).map(corpus_path),
           _field_values),
       output_format=st.one_of(st.sampled_from(["json", "text"]), _field_values),
       mc_route=st.one_of(st.sampled_from(["lattice", "charpoly", "exponents", "all"]),
                          _field_values),
       exponents_override=_field_values,
       basis=st.one_of(st.sampled_from(["s", "one_minus_s"]), _field_values),
       max_lattice_nodes=_field_values)
def test_run_returns_a_payload_for_any_config_field_values(
        command, input_path, output_format, mc_route, exponents_override, basis,
        max_lattice_nodes):
    config = RunConfig(command, input_path, output_format, mc_route,
                       exponents_override, basis, max_lattice_nodes)
    code, report = run(config)
    assert code in (0, 1, 2) and type(report) is str
    if output_format not in ("text", "json"):
        assert code == 1


def test_run_refuses_a_file_descriptor_as_input_path_and_leaves_it_open():
    for path in (0, 1, True, None, b"corpus/braid.arr"):
        code, report = run(RunConfig("charpoly", path, "json"))
        assert code == 1
        assert json.loads(report) == {"error": "input path must be a str or os.PathLike",
                                      "kind": "validation"}
    os.fstat(0)
    os.fstat(1)


def golden_config(path):
    """The run a golden JSON file records: ``<stem>_<command>[_override].json``,
    the override being the exponents 3,1,2 with the route its test uses."""
    name = path.stem.removesuffix("_override")
    stem, command = name.rsplit("_", 1)
    if name != path.stem:
        route = "exponents" if command == "diff" else "all"
        return RunConfig(command, corpus_path(stem), "json", route, exponents_override=(3, 1, 2))
    return RunConfig(command, corpus_path(stem), "json")


def test_json_writer_matches_json_dumps_on_every_golden():
    goldens = sorted(GOLDEN.glob("*.json"))
    assert len(goldens) >= sum(map(len, GOLDEN_MATRIX.values()))
    for path in goldens:
        code, report = run(golden_config(path))
        assert code == 0, path.name
        assert report + "\n" == path.read_text(), path.name
        assert report == json.dumps(json.loads(report), indent=2), path.name


def test_json_writer_matches_json_dumps_on_errors(monkeypatch):
    # a validation error, and an inconsistency with details whose message
    # holds a non-ASCII letter, in both formats
    code, report = run(RunConfig("mc", str(CORPUS / "missing.arr"), "json"))
    assert code == 1
    assert report == json.dumps({"error": json.loads(report)["error"], "kind": "validation"},
                                indent=2)
    monkeypatch.setattr(hzmod, "euler_characteristic", lambda csm: 1000)
    code, report = run(RunConfig("euler", corpus_path("braid"), "json"))
    body = json.loads(report)
    assert code == 2 and "Möbius" in body["error"] and body["details"]["csm"]["coeffs"]
    assert report == json.dumps(body, indent=2) and "M\\u00f6bius" in report
    code, text = run(RunConfig("euler", corpus_path("braid")))
    assert code == 2
    assert text == f"inconsistency: {body['error']}\n{json.dumps(body['details'], indent=2)}"


class Count(int):
    def __repr__(self):
        return "Count()"

    __str__ = __repr__


class Label(str):
    def __str__(self):
        return "label"


class Rows(list):
    pass


class Pair(tuple):
    pass


class Report(dict):
    pass


class Flag(enum.IntEnum):
    ON = 1


# reports hold the exact types; subclasses (bool has none) must still be
# written as json.dumps writes their base types
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
    | st.text() | st.text(alphabet=st.characters(max_codepoint=0x1f))
    | st.integers().map(Count) | st.text(max_size=4).map(Label) | st.sampled_from(Flag),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4)
    | st.lists(children, max_size=3).map(Rows) | st.lists(children, max_size=3).map(Pair)
    | st.dictionaries(st.text(max_size=6).map(Label), children, max_size=3).map(Report),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert cli._to_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1.5}, [Fraction(1, 2)], {"key": object()}, b"bytes"])
def test_json_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        cli._to_json(value)
    assert str(got.value) == str(expected.value)


def test_commands_run_no_staged_pipeline_or_kpoly_product(monkeypatch):
    """Every command reaches the CSM class through ``csm_at_minus_one`` and
    its K-classes through the packed and charpoly kernels, and no K-class
    constructor multiplies two ring elements or takes a power."""
    def forbidden(*args, **kwargs):
        raise AssertionError("called off the command path")

    ring_mul = _Truncated.__mul__

    def scalar_mul(self, other):
        if type(other) not in self._scalars:
            raise AssertionError("ring product called off the command path")
        return ring_mul(self, other)

    monkeypatch.setattr(hzmod, "normalize", forbidden)
    monkeypatch.setattr(hzmod, "clear_denominator", forbidden)
    monkeypatch.setattr(KPoly, "__mul__", forbidden)
    monkeypatch.setattr(KPoly, "__rmul__", forbidden)
    monkeypatch.setattr(_Truncated, "__pow__", forbidden)
    monkeypatch.setattr(_Truncated, "__mul__", scalar_mul)
    monkeypatch.setattr(_Truncated, "__rmul__", scalar_mul)
    with pytest.raises(AssertionError):
        KClass.one(2) * KClass.one(2)
    lat = build_lattice(load_arrangement(corpus_path("braid")))
    chi = characteristic_polynomial(lat)
    for n in range(0, 5):
        for k in (-3, 0, 2, 10 ** 6):
            kring.kclass_O(k, n)
            for m in range(0, n + 1):
                kring.kclass_linear_subspace(m, k, n)
        kring.omega_log_trivial(n)
    kring.mc_complement_lattice_sum(lat)
    kring.mc_complement_charpoly(chi, 2)
    kring.mc_free_exponents((1, 2, 3), 2)
    kring.log_class_free((1, 2, 3), 2)
    for lat_or_chi in (lat, chi, None):
        kring.difference_class_arrangement((1, 2, 3), lat_or_chi, 2)
    for command in ("lattice", "charpoly", "exponents", "mc", "logclass", "diff",
                    "csm", "euler"):
        routes = (("all", "lattice", "charpoly", "exponents")
                  if "--route" in ACCEPTED_OPTIONS[command] else ("all",))
        for route in routes:
            for fmt in ("text", "json"):
                code, _ = run(RunConfig(command, corpus_path("braid"), fmt, route))
                assert code == 0, (command, route, fmt)


def test_lattice_matrices_match_fraction_nodes_on_random(tmp_path):
    """The printed entries are ``str`` of the Fraction RREF entries of each
    flat's forms, in ``Subspace.sort_key`` order, also for pivots other than 1."""
    rng = random.Random(4231)
    path = tmp_path / "random.arr"
    fractions = 0
    for _ in range(25):
        width = rng.randint(2, 5)
        forms = {}
        for _ in range(rng.randint(1, 8)):
            form = tuple(rng.randint(-5, 5) for _ in range(width))
            if any(form):
                forms[Arrangement(width, [form]).forms[0]] = None
        arr = Arrangement(width, forms)
        path.write_text(f"{width}\n" + "".join(" ".join(map(str, f)) + "\n" for f in arr.forms))
        code, report = run(RunConfig(command="lattice", input_path=str(path),
                                     output_format="json"))
        assert code == 0
        payload = json.loads(report)
        order = eager_node_order(arr)
        expected = [{"dim": dim, "mobius": mu,
                     "matrix": [[str(v) for v in row] for row in matrix]}
                    for dim, mu, matrix in zip(order["dims"], order["mobius"],
                                               order["matrices"])]
        assert payload["nodes"] == expected
        fractions += sum("/" in v for node in expected for row in node["matrix"] for v in row)
    assert fractions > 0


def lattice_report_oracle(arr):
    """The ``lattice`` report's JSON and text, from the subset oracle's
    Fraction matrices: ``json.dumps`` of the payload, and the text lines."""
    order = eager_node_order(arr)
    nodes = [{"dim": dim, "mobius": mu, "matrix": [[str(v) for v in row] for row in matrix]}
             for dim, mu, matrix in zip(order["dims"], order["mobius"], order["matrices"])]
    payload = {"ambient_dim": arr.ambient_dim, "node_count": len(nodes), "nodes": nodes}
    lines = [f"ambient_dim {arr.ambient_dim}, {len(nodes)} nodes"]
    for node in nodes:
        rendered = "; ".join(" ".join(row) for row in node["matrix"]) or "(ambient)"
        lines.append(f"dim {node['dim']}  mobius {node['mobius']:3d}  [{rendered}]")
    return json.dumps(payload, indent=2), "\n".join(lines)


def test_lattice_report_bytes_match_the_fraction_oracle(tmp_path):
    """Both ``lattice`` reports, written from the integer rows, are byte for
    byte those of the Fraction matrices, with pivots other than 1 and
    negative entries, on the empty arrangement and at the largest ambient
    dimension."""
    rng = random.Random(6174)
    arrs = [Arrangement(3, []),
            Arrangement(MAX_AMBIENT_DIM,
                        [[rng.randint(-30, 30) for _ in range(MAX_AMBIENT_DIM - 1)] + [7]])]
    for _ in range(60):
        width = rng.randint(1, 5)
        forms = {}
        for _ in range(rng.randint(0, 6)):
            form = tuple(rng.randint(-30, 30) for _ in range(width))
            if any(form):
                forms[Arrangement(width, [form]).forms[0]] = None
        arrs.append(Arrangement(width, forms))
    path = tmp_path / "random.arr"
    seen = set()
    for arr in arrs:
        path.write_text(f"{arr.ambient_dim}\n"
                        + "".join(" ".join(map(str, f)) + "\n" for f in arr.forms))
        expected = lattice_report_oracle(arr)
        for fmt, want in zip(("json", "text"), expected):
            assert run(RunConfig("lattice", str(path), fmt)) == (0, want)
        seen.update(v for node in json.loads(expected[0])["nodes"]
                    for row in node["matrix"] for v in row if "/" in v)
    assert any(v.startswith("-") for v in seen) and any(not v.startswith("-") for v in seen)


def test_each_input_is_derived_at_most_once_and_only_when_read(monkeypatch):
    """The calls the CLI makes through ``logmc.arrangement``, per run."""
    calls = {}

    def counted(name):
        fn = getattr(arrangement, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(arrangement, name, wrapper)

    names = ("build_lattice", "characteristic_polynomial", "exponents_via_terao")
    for name in names:
        counted(name)
    # chi is counted wherever it is built, ``kring``'s lattice sum included
    monkeypatch.setattr(kring, "characteristic_polynomial", arrangement.characteristic_polynomial)
    # the chi substitution, which every route shares: braid's chi is that of
    # its exponents (1, 2, 3), so it runs once per mc, csm or euler run,
    # override or not; diff packs chi's rows itself on every route
    substitute = kring.mc_complement_charpoly

    def counted_substitute(*args):
        calls["mc_complement_charpoly"] += 1
        return substitute(*args)
    monkeypatch.setattr(kring, "mc_complement_charpoly", counted_substitute)
    seen = {}
    for command in ("lattice", "charpoly", "exponents", "mc", "logclass", "diff", "csm",
                    "euler"):
        for route in ("lattice", "charpoly", "exponents", "all"):
            for override in (None, (3, 1, 2)):
                calls.update(dict.fromkeys(names, 0), mc_complement_charpoly=0)
                code, _ = run_json(command, "braid", mc_route=route,
                                   exponents_override=override)
                assert code == 0, (command, route, override)
                assert max(calls.values()) <= 1, (command, route, override, calls)
                if override is not None and command != "exponents":
                    assert calls["exponents_via_terao"] == 0, (command, route)
                routed = command in ("mc", "csm", "euler")
                assert calls["mc_complement_charpoly"] == routed, (command, route, override)
                seen[command, route, override] = tuple(calls[name] for name in names)
    # (lattice, chi, Terao): the lattice route reads chi but not the exponents
    assert seen["mc", "lattice", None] == (1, 1, 0)
    assert seen["mc", "charpoly", None] == (1, 1, 0)
    assert seen["euler", "lattice", None] == (1, 1, 0)
    assert seen["mc", "exponents", (3, 1, 2)] == (0, 0, 0)
    assert seen["mc", "all", None] == (1, 1, 1)
    assert seen["csm", "lattice", None] == (1, 1, 1)
    assert seen["logclass", "all", (3, 1, 2)] == (0, 0, 0)


def test_input_derivation_errors_are_raised_again_not_kept(monkeypatch):
    """A failed derivation (here the node cap) stores nothing; success is kept."""
    from logmc.cli import _Input
    calls = []
    build = arrangement.build_lattice

    def counted(*args, **kwargs):
        calls.append(kwargs["max_nodes"])
        return build(*args, **kwargs)
    monkeypatch.setattr(arrangement, "build_lattice", counted)
    arr = arrangement.parse_arrangement(Path(corpus_path("braid")).read_text())
    inp = _Input(arr, RunConfig("mc", "x", max_lattice_nodes=2))
    for _ in range(2):
        with pytest.raises(ValidationError):
            inp.chi
    assert calls == [2, 2]
    inp = _Input(arr, RunConfig("mc", "x"))
    assert inp.chi is inp.chi and inp.lattice is inp.lattice
    assert calls == [2, 2, 25000]


# --- JSON round trips against in-memory values

def test_mc_json_roundtrip_matches_library():
    code, report = run_json("mc", "braid")
    assert code == 0
    payload = json.loads(report)
    lat = build_lattice(Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                        (1, -1, 0), (1, 0, -1), (0, 1, -1)]))
    expected = mc_complement_lattice_sum(lat)
    for route in ("lattice", "charpoly", "exponents"):
        assert kpoly_from_json(payload["routes"][route]) == expected


def test_mc_json_roundtrip_one_minus_s_basis():
    code, report = run_json("mc", "braid", basis="one_minus_s")
    payload = json.loads(report)
    lat = build_lattice(Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                        (1, -1, 0), (1, 0, -1), (0, 1, -1)]))
    assert kpoly_from_json(payload["routes"]["lattice"]) == mc_complement_lattice_sum(lat)


def test_csm_json_roundtrip_matches_library():
    code, report = run_json("csm", "braid")
    payload = json.loads(report)
    lat = build_lattice(Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                        (1, -1, 0), (1, 0, -1), (0, 1, -1)]))
    expected = csm_at_minus_one(mc_complement_lattice_sum(lat))
    assert cohclass_from_json(payload["csm_mc"]) == expected
    assert cohclass_from_json(payload["csm_log"]) == expected


def test_charpoly_json_matches_library():
    code, report = run_json("charpoly", "generic4")
    payload = json.loads(report)
    lat = build_lattice(Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))
    assert payload["coefficients"] == list(characteristic_polynomial(lat).coeffs)


def test_curve_accepts_list_input(tmp_path):
    path = tmp_path / "curve_list.json"
    path.write_text(json.dumps([{"poly": "x^2 - y^2"}, {"poly": "x^2 - y^3"},
                                {"mu": 4, "tau": 4, "r": 3}]))
    code, report = run(RunConfig(command="curve", input_path=str(path),
                                 output_format="json"))
    assert code == 0
    payload = json.loads(report)
    assert payload["pairs"] == [[0, 0], [-1, -1], [-1, -1]]
    assert payload["total"] == [-2, -2]


def test_curve_repeated_linear_factor_is_refused_as_non_isolated(tmp_path):
    # a homogeneous form with a repeated linear factor is not reduced: the
    # colength loop refuses it before branch_count could
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"poly": "(x+y)^2*x"}))
    code, report = run(RunConfig(command="curve", input_path=str(path), output_format="json"))
    payload = json.loads(report)
    assert code == 1 and payload["kind"] == "validation"
    assert payload["error"].startswith("Milnor number did not stabilise")


def test_curve_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report = run(RunConfig(command="curve", input_path=str(path)))
    assert code == 1


def test_curve_branch_count_error_message(tmp_path):
    path = tmp_path / "needs_r.json"
    path.write_text(json.dumps({"poly": "y^2 - x^3 - x^2"}))
    code, report = run(RunConfig(command="curve", input_path=str(path)))
    assert code == 1 and "supply r" in report


def test_run_text_and_json_agree_on_verdicts():
    for stem in ("boolean3", "braid", "concurrent3"):
        code_j, report = run_json("diff", stem)
        code_t, text = run(RunConfig(command="diff", input_path=corpus_path(stem)))
        assert code_j == code_t == 0
        payload = json.loads(report)
        assert f"is_zero: {str(payload['is_zero']).lower()}" in text


@pytest.mark.parametrize("text", [
    '{"mu": 1' + "0" * 4400 + ', "tau": 1, "r": 1}',
    '{"mu": "x", "tau": 1, "r": 1}',
    '{"mu": [1], "tau": 1, "r": 1}',
    '{"poly": 5}',
    '{"poly": "x^2-y^3", "r": "a"}',
    b'{"poly": "x^2-y^3"}\xff',
    json.dumps({"poly": "(" * 250 + "x^2-y^3" + ")" * 250}),
    "[" * 1000 + "]" * 1000,
], ids=["long-integer", "mu-string", "mu-list", "poly-number", "r-string", "not-utf8",
        "deep-parentheses", "deep-json"])
def test_curve_malformed_entries_are_validation_errors(tmp_path, text):
    path = tmp_path / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code, report = run(RunConfig(command="curve", input_path=str(path), output_format="json"))
    assert code == 1
    assert json.loads(report)["kind"] == "validation"


def test_non_utf8_arrangement_is_validation_error(tmp_path):
    path = tmp_path / "bad.arr"
    path.write_bytes(b"3\n1 0 0\n\xff\n")
    for command in ("lattice", "charpoly"):
        code, report = run(RunConfig(command=command, input_path=str(path),
                                     output_format="json"))
        payload = json.loads(report)
        assert code == 1 and payload["kind"] == "validation"
        assert str(path) in payload["error"]


@settings(max_examples=100, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=120),
    st.text(alphabet="0123456789 -#\n", max_size=60).map(str.encode)))
def test_arbitrary_arrangement_bytes_give_an_exit_code(data):
    """No input escapes ``run``: every outcome is an exit code and, in JSON
    mode, a parseable report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.arr")
        with open(path, "wb") as fh:
            fh.write(data)
        for command in ("charpoly", "lattice"):
            code, report = run(RunConfig(command=command, input_path=path,
                                         output_format="json", max_lattice_nodes=40))
            assert code in (0, 1, 2)
            json.loads(report)


@settings(max_examples=100, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=120),
    st.text(alphabet="xy^*+-()0123456789", max_size=8).map(
        lambda poly: json.dumps({"poly": poly}).encode())))
def test_arbitrary_curve_bytes_give_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(data)
        code, report = run(RunConfig(command="curve", input_path=path, output_format="json"))
        assert code in (0, 1, 2)
        json.loads(report)
