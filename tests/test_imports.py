"""Import hygiene: what a logmc process loads, and what ``src/logmc`` imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"

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


def test_commands_load_no_introspection_modules():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", RUN_COMMANDS, str(CORPUS), *UNLOADED],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_src_imports_only_the_standard_library():
    seen = set()
    for path in sorted((SRC / "logmc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "logmc" or top in sys.stdlib_module_names, (path.name, name)
                seen.add(top)
    assert {"argparse", "fractions", "json"} <= seen


def test_readme_layout_table_names_every_public_name():
    """README's "Library layout" table names each name in ``logmc.__all__``
    that is not a submodule, in backquotes."""
    import logmc

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library layout", 1)[1]
    table = "\n".join(line for line in section.split("\n\n", 2)[1].splitlines()
                      if line.startswith("|"))
    assert table.startswith("| module")
    names = [name for name in logmc.__all__
             if not isinstance(getattr(logmc, name), type(logmc))]
    assert len(names) == 54
    assert [name for name in names if f"`{name}`" not in table] == []
