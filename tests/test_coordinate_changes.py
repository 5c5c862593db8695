"""Coordinate-change oracle: the classes of an arrangement do not depend on
its coordinates, nor on the order and signs of its forms.

A matrix in SL_n(Z) maps the forms to forms with the same matroid, and so
does a permutation of the forms with sign changes.  Every report that
depends only on the matroid (``charpoly``, ``exponents``, ``mc``,
``logclass``, ``diff``, ``csm`` and ``euler``, refusals included) must be
byte-identical on the transformed file.  ``lattice`` writes each flat's
matrix in the file's coordinates, so it is compared as the set of (forms on
the flat, dim, Möbius value) triples, with the forms numbered as in the
original file.

The matrices, the transformed files and the forms on each flat are built
here with plain integer and Fraction arithmetic; logmc only runs the
commands.
"""

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from logmc.cli import RunConfig, run

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
COMMANDS = ("charpoly", "exponents", "mc", "logclass", "diff", "csm", "euler")
MATRICES = 5


def read_forms(path):
    """(ambient dimension, forms) of an arrangement file."""
    lines = [line.split("#", 1)[0].split() for line in path.read_text().splitlines()]
    lines = [[int(v) for v in line] for line in lines if line]
    return lines[0][0], [tuple(line) for line in lines[1:]]


def random_forms(seed):
    """Nonzero, pairwise non-proportional forms of rank 3 or 4, entries in [-3, 3]."""
    rng = random.Random(f"arrangement-{seed}")
    dim = rng.choice((3, 4))
    forms, seen = [], set()
    for _ in range(rng.randint(dim - 1, dim + 3)):
        form = tuple(rng.randint(-3, 3) for _ in range(dim))
        content = gcd(*form)
        if not content:
            continue
        primitive = tuple(v // content for v in form)
        if next(v for v in primitive if v) < 0:
            primitive = tuple(-v for v in primitive)
        if primitive not in seen:
            seen.add(primitive)
            forms.append(form)
    return dim, forms


INPUTS = {path.stem: read_forms(path) for path in sorted(CORPUS.glob("*.arr"))}
INPUTS = {name: arr for name, arr in INPUTS.items() if arr[1]}
INPUTS.update((f"random{seed}", random_forms(seed)) for seed in range(20))


def unimodular(dim, rng):
    """A product of six column operations col_j += c * col_i, c in {±1, ±2}."""
    matrix = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(6):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in matrix:
            row[j] += c * row[i]
    return matrix


def times(form, matrix):
    """The row vector ``form`` times ``matrix``: the form in the new coordinates."""
    return tuple(sum(f * row[j] for f, row in zip(form, matrix)) for j in range(len(matrix)))


def write(path, dim, forms):
    path.write_text(f"{dim}\n" + "".join(" ".join(map(str, f)) + "\n" for f in forms))
    return str(path)


def rank(rows):
    rows = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col] / rows[r][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def flat_triples(report, forms, numbering):
    """Sorted (forms on the flat, dim, mobius) of a lattice report; form k of
    ``forms`` is numbered ``numbering[k]``."""
    triples = []
    for node in report["nodes"]:
        matrix = [[Fraction(v) for v in row] for row in node["matrix"]]
        on = sorted(numbering[k] for k, form in enumerate(forms)
                    if rank(matrix + [list(form)]) == len(matrix))
        triples.append((on, node["dim"], node["mobius"]))
    return sorted(triples)


def reports(path):
    return {command: run(RunConfig(command, path, "json")) for command in COMMANDS}


def lattice_report(path):
    code, report = run(RunConfig("lattice", path, "json"))
    assert code == 0
    return json.loads(report)


def check(tmp_path, name, transformed, numbering):
    """The reports on ``transformed`` are those of input ``name``."""
    dim, forms = INPUTS[name]
    original = write(tmp_path / "original.arr", dim, forms)
    expected = reports(original)
    lattice = lattice_report(original)
    triples = flat_triples(lattice, forms, range(len(forms)))
    for k, other in enumerate(transformed):
        path = write(tmp_path / f"changed{k}.arr", dim, other)
        assert reports(path) == expected, (name, other)
        changed = lattice_report(path)
        assert changed["node_count"] == lattice["node_count"], (name, other)
        assert flat_triples(changed, other, numbering) == triples, (name, other)


@pytest.mark.parametrize("name", INPUTS)
def test_reports_do_not_depend_on_coordinates(tmp_path, name):
    dim, forms = INPUTS[name]
    rng = random.Random(f"matrices-{name}")
    matrices = [unimodular(dim, rng) for _ in range(MATRICES)]
    transformed = [[times(form, m) for form in forms] for m in matrices]
    check(tmp_path, name, transformed, range(len(forms)))


@pytest.mark.parametrize("name", INPUTS)
def test_reports_do_not_depend_on_form_order_or_signs(tmp_path, name):
    dim, forms = INPUTS[name]
    rng = random.Random(f"permutation-{name}")
    order = rng.sample(range(len(forms)), len(forms))
    signs = [rng.choice((-1, 1)) for _ in order]
    signed = [tuple(sign * v for v in forms[k]) for sign, k in zip(signs, order)]
    check(tmp_path, name, [signed], order)
