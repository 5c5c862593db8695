"""Import hygiene: what a logmc process loads, and what ``src/logmc`` imports.

The in-process suite imports every module before its first test, so only a
fresh process shows a command that uses a module it never imported, or one
that loads a module it does not use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logmc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
GOLDEN = CORPUS / "golden"

# importing dataclasses loads inspect, and inspect loads ast
UNLOADED = ("dataclasses", "inspect", "ast")

RUN_COMMANDS = """
import sys
from logmc import cli
corpus, unloaded = sys.argv[1], sys.argv[2:]
for command, name in (("charpoly", "braid.arr"), ("csm", "braid.arr"), ("curve", "cusp.json")):
    code, _ = cli.run(cli.RunConfig(command, f"{corpus}/{name}"))
    assert code == 0, command
print(" ".join(name for name in unloaded if name in sys.modules))
"""


def python(*args):
    """A finished ``python *args`` process that imports logmc from ``src``."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)


def test_commands_load_no_introspection_modules():
    done = python("-c", RUN_COMMANDS, str(CORPUS), *UNLOADED)
    assert done.stdout.split() == []


# --- what each command loads

LOADED_BY_CLI = {"logmc", "logmc.cli", "logmc._poly", "logmc.errors"}
LOADED_BY_LATTICE = LOADED_BY_CLI | {"logmc.arrangement", "logmc._linalg"}
LOADED_BY_CLASSES = LOADED_BY_LATTICE | {"logmc.kring"}
LOADED_BY_CSM = LOADED_BY_CLASSES | {"logmc.hirzebruch", "fractions"}
LOADED_BY_CURVE = LOADED_BY_CLI | {"logmc.curves", "logmc._linalg"}

# command -> (arguments, golden file, the logmc.* and fractions modules it loads)
COMMAND_RUNS = {
    "lattice": (["boolean3.arr"], "boolean3_lattice.json", LOADED_BY_LATTICE),
    "charpoly": (["braid.arr"], "braid_charpoly.json", LOADED_BY_LATTICE),
    "exponents": (["braid.arr"], "braid_exponents.json", LOADED_BY_LATTICE),
    "mc": (["braid.arr"], "braid_mc.json", LOADED_BY_CLASSES),
    "logclass": (["braid.arr", "--exponents", "3,1,2"], "braid_logclass_override.json",
                 LOADED_BY_CLASSES),
    "diff": (["braid.arr"], "braid_diff.json", LOADED_BY_CLASSES),
    "csm": (["braid.arr"], "braid_csm.json", LOADED_BY_CSM),
    "euler": (["braid.arr"], "braid_euler.json", LOADED_BY_CSM),
    "curve": (["cusp.json"], "cusp_curve.json", LOADED_BY_CURVE),
}


def test_command_runs_cover_every_command():
    from logmc.cli import COMMANDS

    assert list(COMMAND_RUNS) == list(COMMANDS)


@pytest.mark.parametrize("command", list(COMMAND_RUNS))
def test_command_loads_only_what_it_runs(command):
    """``python -m logmc`` in a fresh process: the golden report on stdout,
    and ``-v``'s record on stderr of each module the process imported."""
    (name, *options), golden, loaded = COMMAND_RUNS[command]
    done = python("-v", "-m", "logmc", command, str(CORPUS / name), *options,
                  "--format", "json")
    assert done.stdout == (GOLDEN / golden).read_text()
    imported = {line.split("'")[1] for line in done.stderr.splitlines()
                if line.startswith("import '")}
    assert {m for m in imported if m.partition(".")[0] in ("logmc", "fractions")} == loaded


# --- the package namespace

# ``logmc.__all__`` as it was when the package imported every submodule
PUBLIC_NAMES = [
    "Arrangement", "BranchCountRequiredError", "CohClass", "CohPoly",
    "CurveDifferenceClass", "CurveSingularity", "DivisionRemainderError",
    "InconsistencyError", "IntPolynomial", "IntersectionLattice", "KClass", "KPoly",
    "LocalPolynomial", "LogmcError", "NonIsolatedSingularityError", "Subspace",
    "TeraoResult", "ValidationError", "arrangement", "branch_count", "build_lattice",
    "characteristic_polynomial", "chern_character", "chern_class_free_exponents",
    "clear_denominator", "cohclass_from_json", "cohclass_to_json", "cohpoly_from_json",
    "cohpoly_to_json", "csm_at_minus_one", "csm_minus_chern_curve", "curves",
    "delta_from_milnor", "difference_class_arrangement", "difference_class_curve",
    "errors", "euler_characteristic", "exact_div_one_plus_y", "exponents_via_terao",
    "genus_defect", "grr_transform", "hirzebruch", "kclass_O", "kclass_linear_subspace",
    "kpoly_from_json", "kpoly_to_json", "kring", "load_arrangement", "local_invariants",
    "log_class_free", "mc_complement_charpoly", "mc_complement_lattice_sum",
    "mc_free_exponents", "normalize", "omega_log_trivial", "parse_arrangement",
    "singularity_from_json", "singularity_from_poly", "todd_class",
]
SUBMODULES = ("arrangement", "curves", "errors", "hirzebruch", "kring")


def test_public_names_are_unchanged():
    assert logmc.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 59


def test_every_public_name_resolves_to_its_definition():
    modules = {name: getattr(logmc, name) for name in SUBMODULES}
    assert all(type(m) is type(logmc) and m.__name__ == f"logmc.{name}"
               for name, m in modules.items())
    for name in PUBLIC_NAMES:
        value = getattr(logmc, name)
        if name not in SUBMODULES:
            homes = [m for m in modules.values() if vars(m).get(name) is value]
            assert homes and value.__module__ in {m.__name__ for m in homes}, name
    namespace = {}
    exec("from logmc import *", namespace)
    assert {name: namespace[name] for name in PUBLIC_NAMES} == {
        name: getattr(logmc, name) for name in PUBLIC_NAMES}


def test_dir_lists_the_public_names_and_unknown_names_are_refused():
    assert set(PUBLIC_NAMES) <= set(dir(logmc))
    assert "__version__" in dir(logmc)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        logmc.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from logmc import no_such_name", {})


RESOLVE_NAMES = """
import sys
import logmc
print(" ".join(sorted(m for m in sys.modules if m.startswith("logmc."))) or "-")
for name in logmc.__all__:
    getattr(logmc, name)
print(" ".join(sorted(m for m in sys.modules if m.startswith("logmc."))))
"""


def test_bare_import_loads_no_submodule():
    none, every = python("-c", RESOLVE_NAMES).stdout.splitlines()
    assert none == "-"
    assert every.split() == sorted(f"logmc.{m}" for m in ("_linalg", "_poly", *SUBMODULES))


# --- what the source imports

# module -> the logmc modules it imports at module level; any other import
# between them is made inside the function that needs it
MODULE_LEVEL_IMPORTS = {
    "__init__": set(),
    "__main__": {"cli"},
    "_linalg": set(),
    "_poly": {"errors"},
    "errors": set(),
    "arrangement": {"_linalg", "_poly", "errors"},
    "cli": {"_poly", "errors"},
    "curves": {"_linalg", "_poly", "errors"},
    "hirzebruch": {"_poly", "errors", "kring"},
    "kring": {"_poly", "arrangement", "errors"},
}


def _imported(node):
    """(package-local module names, standard-library top-level names) of an import."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return ({node.module} if node.module else {alias.name for alias in node.names}), set()
    names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module]
    return set(), {name.partition(".")[0] for name in names}


def test_src_imports_only_the_standard_library():
    seen = set()
    paths = sorted((SRC / "logmc").glob("*.py"))
    assert sorted(path.stem for path in paths) == sorted(MODULE_LEVEL_IMPORTS)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        top = set(tree.body)
        local = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            modules, stdlib = _imported(node)
            for name in stdlib:
                assert name == "logmc" or name in sys.stdlib_module_names, (path.name, name)
            seen |= stdlib
            if node in top:
                # a new module-level import fails here, at the line that adds it
                allowed = MODULE_LEVEL_IMPORTS[path.stem]
                assert modules <= allowed, (path.name, node.lineno, modules - allowed)
                assert "fractions" not in stdlib or path.stem == "hirzebruch", (
                    path.name, node.lineno)
                local |= modules
        assert local == MODULE_LEVEL_IMPORTS[path.stem], path.name
    assert {"argparse", "fractions", "json"} <= seen


def test_readme_layout_table_names_every_public_name():
    """README's "Library layout" table names each name in ``logmc.__all__``
    that is not a submodule, in backquotes."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library layout", 1)[1]
    table = "\n".join(line for line in section.split("\n\n", 2)[1].splitlines()
                      if line.startswith("|"))
    assert table.startswith("| module")
    names = [name for name in logmc.__all__
             if not isinstance(getattr(logmc, name), type(logmc))]
    assert len(names) == 54
    assert [name for name in names if f"`{name}`" not in table] == []
