"""Command-line tests: golden JSON comparison, exit codes, round trips."""

import json
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmc import _linalg as linalg
from logmc import arrangement, cli
from logmc import hirzebruch as hzmod
from logmc import (Arrangement, KPoly, ValidationError, build_lattice,
                   characteristic_polynomial, cohclass_from_json, csm_at_minus_one,
                   kpoly_from_json, log_class_free, mc_complement_lattice_sum)
from logmc.arrangement import MAX_AMBIENT_DIM
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
    assert main(["logclass", corpus_path("braid"), "--exponents", "1,two"]) == 1
    assert main(["nonsense-command", "x"]) == 1


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


def test_lattice_cap_env(monkeypatch):
    monkeypatch.setenv("LOGMC_MAX_LATTICE", "3")
    config = config_from_args(["lattice", corpus_path("braid"), "--format", "json"])
    assert config.max_lattice_nodes == 3
    code, report = run(config)
    assert code == 1 and "node cap" in report


@pytest.mark.parametrize("value", ["0", "-3", "many"])
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


def test_default_lattice_cap(monkeypatch):
    monkeypatch.delenv("LOGMC_MAX_LATTICE", raising=False)
    config = config_from_args(["lattice", corpus_path("braid")])
    assert config.max_lattice_nodes == 25000
    assert RunConfig("lattice", "x").max_lattice_nodes == 25000


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
    node sort nor its quotient rows run, and each report is unchanged."""
    sorts = []
    render = arrangement._render

    def counting_render(*args):
        sorts.append(args)
        return render(*args)

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
    monkeypatch.setattr(arrangement, "quotient_rows", forbidden)
    monkeypatch.setattr(linalg, "quotient_rows", forbidden)
    assert [run(config) for config in runs] == expected
    monkeypatch.undo()
    monkeypatch.setattr(arrangement, "_render", counting_render)
    for stem in ("braid", "skew5"):
        for fmt in ("text", "json"):
            sorts.clear()
            assert run(RunConfig("lattice", corpus_path(stem), fmt))[0] == 0
            assert len(sorts) == 1


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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
    | st.text() | st.text(alphabet=st.characters(max_codepoint=0x1f)),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert cli._to_json(value) == json.dumps(value, indent=2)


def test_commands_run_no_staged_pipeline_or_kpoly_product(monkeypatch):
    """Every command reaches the CSM class through ``csm_at_minus_one`` and
    its K-classes through the packed and charpoly kernels."""
    def forbidden(*args, **kwargs):
        raise AssertionError("called off the command path")

    monkeypatch.setattr(hzmod, "normalize", forbidden)
    monkeypatch.setattr(hzmod, "clear_denominator", forbidden)
    monkeypatch.setattr(KPoly, "__mul__", forbidden)
    monkeypatch.setattr(KPoly, "__rmul__", forbidden)
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
    seen = {}
    for command in ("lattice", "charpoly", "exponents", "mc", "logclass", "diff", "csm",
                    "euler"):
        for route in ("lattice", "charpoly", "exponents", "all"):
            for override in (None, (3, 1, 2)):
                calls.update(dict.fromkeys(names, 0))
                code, _ = run_json(command, "braid", mc_route=route,
                                   exponents_override=override)
                assert code == 0, (command, route, override)
                assert max(calls.values()) <= 1, (command, route, override, calls)
                if override is not None and command != "exponents":
                    assert calls["exponents_via_terao"] == 0, (command, route)
                seen[command, route, override] = tuple(calls[name] for name in names)
    # (lattice, chi, Terao): the lattice route reads neither chi nor exponents
    assert seen["mc", "lattice", None] == (1, 0, 0)
    assert seen["mc", "charpoly", None] == (1, 1, 0)
    assert seen["euler", "lattice", None] == (1, 0, 0)
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
