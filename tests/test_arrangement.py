"""Lattice, Möbius and exponent tests, cross-checked against a brute-force
subset oracle that never touches the library's elimination code."""

import random
import re
import sys
import time
from contextlib import contextmanager, nullcontext
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from pathlib import Path

import pytest

from logmc import (Arrangement, IntPolynomial, Subspace, TeraoResult, ValidationError,
                   build_lattice, characteristic_polynomial, exponents_via_terao,
                   parse_arrangement)
from logmc import arrangement
from logmc._linalg import IntEchelon, quotient_rows
from logmc.arrangement import MAX_AMBIENT_DIM, _residual_groups, load_arrangement
from logmc.errors import InconsistencyError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

BOOLEAN3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
BRAID3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)]
GENERIC4 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
BRAID5 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
          (1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1),
          (0, 1, -1, 0), (0, 1, 0, -1), (0, 0, 1, -1)]


# --- independent oracle: plain Fraction Gaussian elimination + Whitney sums

def fraction_rank(rows, width):
    matrix = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(matrix)):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][col]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col] / lead
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def whitney_chi(forms, width):
    """chi(t) = sum over subsets S of (-1)^{|S|} t^{width - rank(S)}."""
    coeffs = [0] * (width + 1)
    for k in range(len(forms) + 1):
        for subset in combinations(forms, k):
            coeffs[width - fraction_rank(subset, width)] += (-1) ** k
    return coeffs


def brute_force_node_count(forms, width):
    """Distinct subset intersections, compared by mutual rank equality."""
    reps = []
    for k in range(len(forms) + 1):
        for subset in combinations(range(len(forms)), k):
            rows = [forms[i] for i in subset]
            r = fraction_rank(rows, width)
            for other in reps:
                if (r == other[1]
                        and fraction_rank(rows + other[0], width) == r):
                    break
            else:
                reps.append((rows, r))
    return len(reps)


def random_arrangement(rng, max_forms=8, max_dim=4, bound=3):
    width = rng.randint(1, max_dim)
    forms = []
    for _ in range(rng.randint(0, max_forms)):
        row = tuple(rng.randint(-bound, bound) for _ in range(width))
        if any(row):
            forms.append(row)
    # constructor may still reject proportional picks; retry via dedupe
    kept = []
    for row in forms:
        try:
            Arrangement(width, kept + [row])
        except ValidationError:
            continue
        kept.append(row)
    return Arrangement(width, kept)


# --- lattice construction

def test_boolean_lattice():
    lat = build_lattice(Arrangement(3, BOOLEAN3))
    assert len(lat) == 8
    assert lat.dims == (3, 2, 2, 2, 1, 1, 1, 0)
    assert list(lat.mobius) == [1, -1, -1, -1, 1, 1, 1, -1]


def test_generic4_lattice_against_oracle():
    lat = build_lattice(Arrangement(3, GENERIC4))
    dims = list(lat.dims)
    assert len(lat) == 12
    assert dims.count(3) == 1 and dims.count(2) == 4
    assert dims.count(1) == 6 and dims.count(0) == 1
    center = dims.index(0)
    assert lat.mobius[center] == -3
    assert len(lat) == brute_force_node_count(GENERIC4, 3)


def test_braid_mobius_dimension_sum():
    lat = build_lattice(Arrangement(3, BRAID3))
    assert sum(mu * dim for dim, mu in zip(lat.dims, lat.mobius)) == 2
    assert sum(mu * dim for dim, mu in subset_flats(BRAID3, 3).values()) == 2
    assert len(lat) == brute_force_node_count(BRAID3, 3)


def test_mobius_recursion_invariant():
    for forms in (BOOLEAN3, BRAID3, GENERIC4):
        lat = build_lattice(Arrangement(3, forms))
        for i, dim in enumerate(lat.dims):
            if dim == lat.ambient_dim:
                continue
            total = sum(lat.mobius[j] for j in range(len(lat))
                        if lat.contains(j, i))
            assert total == 0, f"Moebius recursion fails at node {i}"


def test_mobius_total_is_zero_for_nonempty():
    for forms in (BOOLEAN3, BRAID3, GENERIC4):
        lat = build_lattice(Arrangement(3, forms))
        assert sum(lat.mobius) == 0


def test_node_order_independent_of_input_order():
    rng = random.Random(7)
    base = build_lattice(Arrangement(3, BRAID3))
    for _ in range(5):
        shuffled = list(BRAID3)
        rng.shuffle(shuffled)
        lat = build_lattice(Arrangement(3, shuffled))
        assert lat.rows == base.rows
        assert lat.mobius == base.mobius


def test_empty_arrangement():
    lat = build_lattice(Arrangement(3, []))
    assert len(lat) == 1
    assert lat.dims == (3,)
    assert characteristic_polynomial(lat) == IntPolynomial([0, 0, 0, 1])


def test_deletion_never_decreases_node_count():
    rng = random.Random(20240)
    for _ in range(25):
        arr = random_arrangement(rng)
        before = len(build_lattice(arr))
        row = tuple(rng.randint(-3, 3) for _ in range(arr.ambient_dim))
        try:
            bigger = Arrangement(arr.ambient_dim, list(arr.forms) + [row])
        except ValidationError:
            continue
        assert len(build_lattice(bigger)) >= before


def test_lattice_node_cap():
    with pytest.raises(ValidationError, match="node cap"):
        build_lattice(Arrangement(3, BRAID3), max_nodes=3)


def test_lattice_node_cap_boundary():
    arr = Arrangement(4, BRAID5)
    assert len(build_lattice(arr, max_nodes=52)) == 52
    with pytest.raises(ValidationError, match="exceeds the node cap"):
        build_lattice(arr, max_nodes=51)
    with pytest.raises(ValidationError, match="exceeds the node cap"):
        build_lattice(Arrangement(3, []), max_nodes=0)


def test_lattice_node_cap_checked_per_node(monkeypatch):
    # the cap is checked as each flat is created, so a refusal at cap c comes
    # right after flat c + 1, not after the rank layer is complete
    created = []
    check = arrangement._check_node_cap

    def counting_check(flats, max_nodes):
        created.append(len(flats))
        return check(flats, max_nodes)

    monkeypatch.setattr(arrangement, "_check_node_cap", counting_check)
    for cap in (1, 5, 12, 30):
        created.clear()
        with pytest.raises(ValidationError, match="exceeds the node cap"):
            build_lattice(Arrangement(4, BRAID5), max_nodes=cap)
        assert created == list(range(1, cap + 2))


def test_build_lattice_constructs_no_echelon(monkeypatch):
    made = []
    init = IntEchelon.__init__

    def counting_init(self, width):
        made.append(width)
        init(self, width)

    monkeypatch.setattr(IntEchelon, "__init__", counting_init)
    rng = random.Random(99)
    for arr in [Arrangement(4, BRAID5)] + [random_arrangement(rng) for _ in range(20)]:
        build_lattice(arr)
    assert made == []


# --- lattice against subsets of hyperplanes

def subset_flats(forms, width):
    """{hyperplane set: (dim, Möbius value)} by brute force over subsets.

    The flat cut out by a subset S is the set of forms in the span of S;
    its Möbius value is the Whitney sum of (-1)^|S| over the subsets with
    that closure.
    """
    flats = {}
    for k in range(len(forms) + 1):
        for subset in combinations(range(len(forms)), k):
            rows = [forms[i] for i in subset]
            r = fraction_rank(rows, width)
            closure = frozenset(j for j in range(len(forms))
                                if fraction_rank(rows + [forms[j]], width) == r)
            dim, mu = flats.get(closure, (width - r, 0))
            flats[closure] = (dim, mu + (-1) ** k)
    return flats


def test_lattice_matches_subset_oracle_on_random():
    rng = random.Random(2718)
    for _ in range(40):
        width = rng.randint(2, 4)
        kept = []
        for _ in range(rng.randint(1, 7)):
            row = [rng.randint(-2, 2) for _ in range(width)]
            try:
                Arrangement(width, kept + [row])
            except ValidationError:
                continue
            kept.append(row)
        arr = Arrangement(width, kept)
        lat = build_lattice(arr)
        expected = subset_flats(list(arr.forms), width)
        # each node's hyperplane set, read off its reduced rows
        hyperplanes = []
        for rows in lat.rows:
            r = fraction_rank(list(rows), width)
            hyperplanes.append(frozenset(
                j for j, form in enumerate(arr.forms)
                if fraction_rank(list(rows) + [form], width) == r))
        got = {h: (dim, mu) for h, dim, mu in zip(hyperplanes, lat.dims, lat.mobius)}
        assert len(got) == len(lat) and got == expected
        assert [sum(1 << j for j in h) for h in hyperplanes] == list(lat.masks)
        # the subspaces cut out by each node's forms, built apart from the lattice
        spaces = [Subspace.from_forms(width, [arr.forms[j] for j in sorted(h)])
                  for h in hyperplanes]
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert lat.contains(i, j) == spaces[i].contains(spaces[j])
                assert lat.contains(i, j) == (hyperplanes[i] <= hyperplanes[j])


def test_node_order_dims_and_masks_on_random():
    # the integer sort gives Subspace.sort_key order, also with pivots other
    # than 1, and dims, masks and Möbius values stay paired with the nodes
    rng = random.Random(1618)
    for _ in range(60):
        arr = random_arrangement(rng, max_forms=7, bound=4)
        width, forms = arr.ambient_dim, arr.forms
        lat = build_lattice(arr)
        # each node as the Subspace its mask's forms cut out
        nodes = [Subspace.from_forms(width, [form for k, form in enumerate(forms)
                                             if mask >> k & 1])
                 for mask in lat.masks]
        assert nodes == sorted(nodes, key=Subspace.sort_key)
        assert [quotient_rows(rows, {}) for rows in lat.rows] == [n.matrix for n in nodes]
        assert lat.dims == tuple(node.dim for node in nodes)
        got = {}
        for node, mask, mu in zip(nodes, lat.masks, lat.mobius):
            hyperplanes = frozenset(k for k in range(len(forms)) if mask >> k & 1)
            assert all(Subspace.from_forms(width, [form]).contains(node) == (k in hyperplanes)
                       for k, form in enumerate(forms))
            got[hyperplanes] = (node.dim, mu)
        assert got == subset_flats(list(forms), width)


def test_residual_tables_are_echelon_reductions():
    # each table, derived from the last by one elimination step per group,
    # maps IntEchelon.reduce of the forms off the flat to those forms' bits
    rng = random.Random(577)
    for _ in range(80):
        arr = random_arrangement(rng, max_forms=9, max_dim=5)
        table = {form: 1 << k for k, form in enumerate(arr.forms)}
        ech = IntEchelon(arr.ambient_dim)
        while table:
            row = rng.choice(list(table))
            ech.add(row)
            table = _residual_groups(table, row)
            expected = {}
            for k, form in enumerate(arr.forms):
                reduced = tuple(ech.reduce(form))
                if any(reduced):
                    expected[reduced] = expected.get(reduced, 0) | 1 << k
            assert table == expected


def test_pencil_line_tables_keep_two_groups():
    # m lines through one point plus a line off it: modulo a pencil line, the
    # other pencil lines share one residual and the last line has another
    for m in (2, 3, 10, 60):
        arr = Arrangement(3, [(1, k, 0) for k in range(m)] + [(0, 0, 1)])
        root = {form: 1 << k for k, form in enumerate(arr.forms)}
        for form in arr.forms[:m]:
            assert len(_residual_groups(root, form)) == 2
        assert len(build_lattice(arr)) == 2 * m + 4


# --- the Weisner-pruned closure, against Whitney's subset sums

def whitney_flats(forms, width):
    """``subset_flats`` with the families of subsets that cancel skipped.

    The subsets S ∪ T, T ⊆ {i, ..., m-1}, with S fixed below i, sum to zero
    on every flat when some form j >= i lies in the span of S: adding or
    dropping j keeps the span and flips the sign.  So the sum visits only
    the subsets with no later form in their span, few even for 16 forms.
    Every flat keeps a subset, as a geometric lattice has no zero Möbius
    value.
    """
    flats = {}

    def visit(subset, start):
        rows = [forms[k] for k in subset]
        r = fraction_rank(rows, width)
        closure = frozenset(j for j in range(len(forms))
                            if j in subset or fraction_rank(rows + [forms[j]], width) == r)
        if max(closure, default=-1) >= start:
            return
        dim, mu = flats.get(closure, (width - r, 0))
        flats[closure] = (dim, mu + (-1) ** len(subset))
        for j in range(start, len(forms)):
            visit(subset + (j,), j + 1)

    visit((), 0)
    return flats


def integer_rows(matrix):
    """The rows of a Fraction RREF times the lcm of their denominators:
    primitive integer rows, as each pivot is 1."""
    rows = set()
    for row in matrix:
        den = 1
        for v in row:
            den = lcm(den, v.denominator)
        rows.add(tuple(int(v * den) for v in row))
    return frozenset(rows)


def oracle_closure(arr, oracle=subset_flats):
    """{hyperplane set: (integer rows as a set, Möbius value)} for ``arr``."""
    width, forms = arr.ambient_dim, list(arr.forms)
    return {hyperplanes: (integer_rows(fraction_rref([forms[k] for k in sorted(hyperplanes)],
                                                     width)), mu)
            for hyperplanes, (_, mu) in oracle(forms, width).items()}


def closure_view(lat):
    """The lattice's flats: {mask: (rows as a set, Möbius value)}."""
    return {mask: (frozenset(rows), mu) for rows, mask, mu in zip(lat.rows, lat.masks, lat.mobius)}


def relabelled(expected, order):
    """``expected`` with the forms taken in ``order``: bit i for form order[i]."""
    position = {k: i for i, k in enumerate(order)}
    return {sum(1 << position[k] for k in hyperplanes): value
            for hyperplanes, value in expected.items()}


def type_b4_forms():
    units = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    return units + [tuple(int(c == i) + sign * int(c == j) for c in range(4))
                    for i, j in combinations(range(4), 2) for sign in (1, -1)]


def braid6_forms():
    # x_i = x_j for points i < j, and x_5 = 0: the essentialised braid arrangement
    return [tuple(int(c == i) - int(c == j) for c in range(5))
            for i, j in combinations(range(6), 2)]


def small_closure_cases():
    """Corpus files and seeded random arrangements, each with at most 6 forms."""
    rng = random.Random(6174)
    arrs = [load_arrangement(path) for path in sorted(CORPUS.glob("*.arr"))]
    arrs += [random_arrangement(rng, max_forms=6, max_dim=4) for _ in range(12)]
    assert all(arr.num_hyperplanes <= 6 for arr in arrs)
    return [(arr, oracle_closure(arr)) for arr in arrs]


def test_closure_matches_subset_oracle_under_every_order():
    # which form is lowest decides the covers each flat walks and the flat
    # that creates each cover; the flats, rows and Möbius values must not move
    for arr, expected in small_closure_cases():
        for order in permutations(range(arr.num_hyperplanes)):
            shuffled = Arrangement(arr.ambient_dim, [arr.forms[k] for k in order])
            assert closure_view(build_lattice(shuffled)) == relabelled(expected, order)


def test_whitney_oracle_matches_the_full_subset_sum():
    rng = random.Random(1729)
    for arr in [random_arrangement(rng, max_forms=7, max_dim=4) for _ in range(30)]:
        forms, width = list(arr.forms), arr.ambient_dim
        assert whitney_flats(forms, width) == subset_flats(forms, width)


@lru_cache(maxsize=None)
def reflection_case(name):
    """The benchmark's B4 or braid6 arrangement, with its oracle closure."""
    forms = {"B4": type_b4_forms, "braid6": braid6_forms}[name]()
    arr = Arrangement(len(forms[0]), forms)
    return arr, oracle_closure(arr, whitney_flats)


@pytest.mark.parametrize("name,flats", [("B4", 116), ("braid6", 203)])
def test_closure_matches_subset_oracle_on_shuffled_reflection_arrangements(name, flats):
    arr, expected = reflection_case(name)
    assert len(expected) == flats  # a Dowling number and a Bell number
    rng = random.Random(f"shuffle {name}")
    for _ in range(20):
        order = list(range(arr.num_hyperplanes))
        rng.shuffle(order)
        shuffled = Arrangement(arr.ambient_dim, [arr.forms[k] for k in order])
        assert closure_view(build_lattice(shuffled)) == relabelled(expected, order)


def test_flats_on_form_zero_derive_no_residual_table(monkeypatch):
    # a flat on form 0 has no form below its lowest one, so no cover to walk:
    # every table is derived for a flat off form 0, and for each such flat
    # except the ambient one and the lines (whose one cover is the origin)
    derived = []
    groups = arrangement._residual_groups

    def recording(table, row):
        derived.append(sys._getframe(1).f_locals["mask"])  # the flat being visited
        return groups(table, row)

    monkeypatch.setattr(arrangement, "_residual_groups", recording)
    cases = small_closure_cases() + [reflection_case(name) for name in ("B4", "braid6")]
    for arr, expected in cases:
        derived.clear()
        lat = build_lattice(arr)
        assert closure_view(lat) == relabelled(expected, range(arr.num_hyperplanes))
        assert not any(mask & 1 for mask in derived)
        assert sorted(derived) == sorted(
            mask for mask, dim in zip(lat.masks, lat.dims)
            if mask and not mask & 1 and dim > 1)


def test_flats_on_form_zero_keep_no_creator_table(monkeypatch):
    # the cap check runs as each flat is created, after its creator's table
    # is stored: a flat off form 0 keeps it until visited, one on form 0 never
    stored = []
    check = arrangement._check_node_cap

    def inspecting(flats, max_nodes):
        created = sys._getframe(1).f_locals.get("created", {})
        newest = next(reversed(flats))
        stored.append((newest, newest in created))
        assert not any(mask & 1 for mask in created)
        return check(flats, max_nodes)

    monkeypatch.setattr(arrangement, "_check_node_cap", inspecting)
    for arr, expected in small_closure_cases():
        stored.clear()
        lat = build_lattice(arr)
        assert closure_view(lat) == relabelled(expected, range(arr.num_hyperplanes))
        assert [mask for mask, _ in stored] == list(lat._flats)
        assert stored == [(mask, mask != 0 and not mask & 1) for mask, _ in stored]


def test_lattice_rows_are_reduced_forms_of_their_hyperplanes():
    # rows built by elimination steps during the closure equal plain
    # Gauss-Jordan over Fraction on the forms of each flat, pivots other
    # than 1 included
    rng = random.Random(4242)
    pivots = set()
    for _ in range(30):
        width = rng.randint(3, 5)
        kept = []
        for _ in range(rng.randint(3, 8)):
            row = [rng.randint(-9, 9) for _ in range(width)]
            try:
                Arrangement(width, kept + [row])
            except ValidationError:
                continue
            kept.append(row)
        arr = Arrangement(width, kept)
        lat = build_lattice(arr)
        for rows, mask in zip(lat.rows, lat.masks):
            forms = [form for k, form in enumerate(arr.forms) if mask >> k & 1]
            assert quotient_rows(rows, {}) == fraction_rref(forms, width)
            pivots.update(next(v for v in row if v) for row in rows)
    assert pivots - {1}


EDGE_SHAPES = [
    Arrangement(1, []), Arrangement(1, [(1,)]), Arrangement(2, []),
    Arrangement(2, [(1, 0), (0, 1), (1, 1), (2, 3)]),
    Arrangement(3, []),
    # a pencil of planes through an axis: no flat of dimension 0
    Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -3, 0)]),
    # the corpus's skew5 in a fourth dimension: non-unit pivots, no top flat
    Arrangement(4, [(2, 1, 0, 0), (0, 3, 1, 0), (1, 0, 2, 0), (1, 1, 1, 0), (3, -2, 1, 0)]),
]


def test_rows_derived_from_links_on_edge_shapes():
    # each flat's rows, derived from its links when node order is read, are
    # plain Gauss-Jordan over Fraction on its forms, whatever the form order
    rng = random.Random(1123)
    pivots = set()
    for arr in EDGE_SHAPES:
        width, forms = arr.ambient_dim, list(arr.forms)
        expected = {hyperplanes: dim
                    for hyperplanes, (dim, _) in subset_flats(forms, width).items()}
        for _ in range(8):
            order = list(range(len(forms)))
            rng.shuffle(order)
            lat = build_lattice(Arrangement(width, [forms[k] for k in order]))
            got = {}
            for rows, dim, mask in zip(lat.rows, lat.dims, lat.masks):
                hyperplanes = frozenset(k for i, k in enumerate(order) if mask >> i & 1)
                assert quotient_rows(rows, {}) == fraction_rref(
                    [forms[k] for k in sorted(hyperplanes)], width)
                pivots.update(next(v for v in row if v) for row in rows)
                got[hyperplanes] = dim
            assert got == expected
            assert (min(lat.dims) == 0) == (fraction_rank(forms, width) == width)
    assert pivots - {1}


NODE_ORDER = ("rows", "dims", "mobius", "masks")


def eager_node_order(arr):
    """Every node-order attribute from scratch: the subset oracle's flats
    with their Fraction RREF matrices, sorted on ``Subspace.sort_key``."""
    width, forms = arr.ambient_dim, list(arr.forms)
    entries = sorted(
        (width - dim, fraction_rref([forms[k] for k in sorted(hyperplanes)], width),
         sum(1 << k for k in hyperplanes), mu)
        for hyperplanes, (dim, mu) in subset_flats(forms, width).items())
    return {"matrices": [matrix for _, matrix, _, _ in entries],
            "dims": tuple(width - rank for rank, _, _, _ in entries),
            "masks": tuple(mask for _, _, mask, _ in entries),
            "mobius": tuple(mu for _, _, _, mu in entries)}


def test_lazy_node_order_matches_the_eager_order(monkeypatch):
    # whichever node-order attribute is read first sorts the flats once, and
    # every attribute then reads as a sort of the subset oracle's flats does
    renders = []
    render = arrangement._render

    def counting_render(*args):
        renders.append(args)
        return render(*args)

    monkeypatch.setattr(arrangement, "_render", counting_render)
    rng = random.Random(5150)
    corpus = [load_arrangement(path) for path in sorted(CORPUS.glob("*.arr"))]
    for arr in corpus + [random_arrangement(rng, max_forms=7, bound=4) for _ in range(30)]:
        expected = eager_node_order(arr)
        for first in NODE_ORDER:
            renders.clear()
            lat = build_lattice(arr)
            assert renders == [] and len(lat) == len(expected["dims"])
            getattr(lat, first)
            assert len(renders) == 1
            assert [quotient_rows(rows, {}) for rows in lat.rows] == expected["matrices"]
            assert (lat.dims, lat.masks, lat.mobius) == (
                expected["dims"], expected["masks"], expected["mobius"])
            assert len(renders) == 1


def test_closure_readers_do_not_sort(monkeypatch):
    # len, dims_and_mobius and chi read the ranks in closure order: no node
    # order is built and no row is derived
    def forbidden(*args):
        raise AssertionError("node order built")

    rng = random.Random(8080)
    arrs = [random_arrangement(rng, max_forms=8) for _ in range(30)]
    arrs.append(Arrangement(4, BRAID5))
    expected = [(len(lat), sorted(zip(lat.dims, lat.mobius)))
                for lat in map(build_lattice, arrs)]
    monkeypatch.setattr(arrangement, "_render", forbidden)
    monkeypatch.setattr(arrangement, "quotient_rows", forbidden)
    monkeypatch.setattr(arrangement, "eliminate", forbidden)
    for arr, (count, pairs) in zip(arrs, expected):
        lat = build_lattice(arr)
        assert repr(lat) == f"IntersectionLattice(ambient_dim={arr.ambient_dim}, nodes={count})"
        assert len(lat) == count
        assert sorted(lat.dims_and_mobius()) == pairs
        assert characteristic_polynomial(lat).coeffs == tuple(
            IntPolynomial(whitney_chi(list(arr.forms), arr.ambient_dim)).coeffs)


# --- characteristic polynomial

def test_charpoly_examples():
    cases = {
        tuple(BOOLEAN3): [-1, 3, -3, 1],
        tuple(BRAID3): [-6, 11, -6, 1],
        tuple(GENERIC4): [-3, 6, -4, 1],
    }
    for forms, expected in cases.items():
        chi = characteristic_polynomial(build_lattice(Arrangement(3, forms)))
        assert list(chi.coeffs) == expected
        assert chi(1) == 0


def test_charpoly_matches_whitney_oracle():
    for forms in (BOOLEAN3, BRAID3, GENERIC4):
        chi = characteristic_polynomial(build_lattice(Arrangement(3, forms)))
        padded = list(chi.coeffs) + [0] * (4 - len(chi.coeffs))
        assert padded == whitney_chi(forms, 3)


def test_charpoly_matches_whitney_on_random(seed=99, count=30):
    rng = random.Random(seed)
    for _ in range(count):
        arr = random_arrangement(rng, max_forms=5, max_dim=3)
        chi = characteristic_polynomial(build_lattice(arr))
        padded = list(chi.coeffs) + [0] * (arr.ambient_dim + 1 - len(chi.coeffs))
        assert padded == whitney_chi(arr.forms, arr.ambient_dim)


def test_braid_on_five_strands():
    # partitions of a 5-set: 52 lattice nodes; chi = (t-1)(t-2)(t-3)(t-4)
    lat = build_lattice(Arrangement(4, BRAID5))
    assert len(lat) == 52
    chi = characteristic_polynomial(lat)
    assert list(chi.coeffs) == [24, -50, 35, -10, 1]
    assert exponents_via_terao(chi).exponents == (1, 2, 3, 4)
    # Euler characteristic of the complement in P^3, two derivations:
    # Moebius-dimension sum 4-30+70-50 and the product (1-h)(1-2h)(1-3h)
    assert sum(mu * dim for dim, mu in zip(lat.dims, lat.mobius)) == -6


# --- Terao factorisation

def test_terao_boolean():
    result = exponents_via_terao(IntPolynomial([-1, 3, -3, 1]))
    assert result.splits and result.exponents == (1, 1, 1)


def test_terao_braid():
    result = exponents_via_terao(IntPolynomial([-6, 11, -6, 1]))
    assert result.splits and result.exponents == (1, 2, 3)


def test_terao_result_is_an_immutable_tuple_with_its_own_repr():
    result = exponents_via_terao(IntPolynomial([-6, 11, -6, 1]))
    assert result == (True, (1, 2, 3), None) == TeraoResult(True, exponents=(1, 2, 3))
    assert repr(result) == "TeraoResult(splits=True, exponents=[1, 2, 3])"
    result = exponents_via_terao(IntPolynomial([-3, 6, -4, 1]))
    assert repr(result) == "TeraoResult(splits=False, remaining=IntPolynomial([3, -3, 1]))"
    with pytest.raises(AttributeError):
        result.splits = True


def test_terao_generic4_does_not_split():
    result = exponents_via_terao(IntPolynomial([-3, 6, -4, 1]))
    assert not result.splits
    assert list(result.remaining.coeffs) == [3, -3, 1]


def test_terao_empty_arrangement():
    result = exponents_via_terao(IntPolynomial([0, 0, 0, 1]))
    assert result.splits and result.exponents == (0, 0, 0)


def test_terao_nonessential_root_is_inconsistency():
    # x, y, x-y in A^3 share the z-axis; chi = t(t-1)(t-2)
    lat = build_lattice(Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0)]))
    chi = characteristic_polynomial(lat)
    assert list(chi.coeffs) == [0, 2, -3, 1]
    with pytest.raises(InconsistencyError, match="nonpositive root"):
        exponents_via_terao(chi)


def test_terao_requires_monic():
    with pytest.raises(ValidationError):
        exponents_via_terao(IntPolynomial([1, 1, 2]))


# --- validation and parsing

def test_rejects_zero_form():
    with pytest.raises(ValidationError, match="form 1 is zero"):
        Arrangement(3, [(1, 0, 0), (0, 0, 0)])


def test_rejects_inexact_coefficients():
    with pytest.raises(ValidationError, match="floats"):
        Arrangement(2, [(1, 0.5), (0, 1)])
    with pytest.raises(ValidationError, match="floats"):
        Arrangement(2, [(1, 0), (0, 2.0)])
    with pytest.raises(ValidationError, match="not an integer"):
        Arrangement(2, [(1, 0), (Fraction(1, 2), 1)])
    with pytest.raises(ValidationError, match="not a number: True"):
        Arrangement(2, [(True, 0), (0, 1)])
    assert Arrangement(2, [(Fraction(2), 0), (0, 1)]).forms == ((1, 0), (0, 1))


def test_int_polynomial_rejects_inexact_coefficients():
    with pytest.raises(ValidationError, match="floats"):
        IntPolynomial([1, 1.5])
    with pytest.raises(ValidationError, match="not an integer"):
        IntPolynomial([Fraction(1, 3), 1])
    assert IntPolynomial([Fraction(6, 3), 1]).coeffs == (2, 1)


def test_rejects_proportional_forms():
    with pytest.raises(ValidationError, match="form 1 is proportional to form 0"):
        Arrangement(3, [(1, -1, 0), (-2, 2, 0)])


def test_forms_are_normalized():
    arr = Arrangement(2, [(-2, 4), (3, 3)])
    assert arr.forms == ((1, -2), (1, 1))


def test_parse_arrangement_text():
    text = "# comment\n3\n1 0 0   # x\n\n0 1 0\n0 0 1\n"
    arr = parse_arrangement(text)
    assert arr.ambient_dim == 3 and arr.num_hyperplanes == 3


def test_parse_rejects_bad_tokens():
    # an integer is a sign and ASCII decimal digits, though int() takes more
    for text in ("3\n1 0 z\n", "3\n1_0 0 1\n", "3\n1 \u0663 0\n", "\u0663\n1 0 0\n",
                 "3\n1 \u00b2 0\n", "3\n1 0 1\n2 +-1 0\n"):
        with pytest.raises(ValidationError, match=r"line \d: expected integers"):
            parse_arrangement(text)
    assert parse_arrangement("+3\n+1 -1 0\n").forms == ((1, -1, 0),)
    with pytest.raises(ValidationError, match="ambient dimension"):
        parse_arrangement("# nothing here\n")
    with pytest.raises(ValidationError, match="has 2 coefficients"):
        parse_arrangement("3\n1 0\n")


def test_parse_reports_the_first_faulty_line():
    # each form is checked as its line is read: the duplicate on line 3 is
    # refused before the malformed line 5 is converted
    text = "3\n1 0 0\n-2 0 0\n0 1 0\n1 z 0\n"
    with pytest.raises(ValidationError, match="form 1 is proportional to form 0"):
        parse_arrangement(text)
    with pytest.raises(ValidationError, match="line 5: expected integers"):
        parse_arrangement("3\n1 0 0\n0 0 1\n0 1 0\n1 z 0\n")


@contextmanager
def int_digit_limit_lifted():
    """Run with the interpreter's int_max_str_digits lifted, as a host may."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_refuses_long_literals_by_length():
    digits = arrangement.MAX_LITERAL_DIGITS
    for lifted in (False, True):
        with int_digit_limit_lifted() if lifted else nullcontext():
            for sign in ("", "-", "+"):
                arr = parse_arrangement(f"2\n1 {sign}{'9' * digits}\n")
                assert arr.forms == ((1, int(f"{sign}{'9' * digits}")),)
            for n in (digits + 1, 200000):
                start = time.perf_counter()
                with pytest.raises(ValidationError, match="line 2: expected integers") as info:
                    parse_arrangement(f"2\n1 {'9' * n}\n")
                assert time.perf_counter() - start < 0.1, n
                assert len(str(info.value)) < 100, n
    assert sys.get_int_max_str_digits() == digits


def test_ambient_dimension_must_be_an_int():
    # isinstance(True, int) let True stand for dimension 1
    for bad in (True, 1.0, "1", 0):
        with pytest.raises(ValidationError, match="ambient dimension must be a positive integer"):
            Arrangement(bad, [[1]])
    assert Arrangement(1, [[1]]).ambient_dim == 1


def test_parse_refuses_ambient_dimension_above_the_limit():
    assert parse_arrangement(f"{MAX_AMBIENT_DIM}\n").ambient_dim == MAX_AMBIENT_DIM
    # refused at the header, before the forms that follow are read
    text = f"# too big\n{MAX_AMBIENT_DIM + 1}\n1 0 z\n"
    with pytest.raises(ValidationError,
                       match=f"line 2: ambient dimension {MAX_AMBIENT_DIM + 1} "
                             f"exceeds the limit {MAX_AMBIENT_DIM}"):
        parse_arrangement(text)


def test_load_arrangement_refuses_undecodable_file(tmp_path):
    path = tmp_path / "bad.arr"
    path.write_bytes(b"3\n1 0 0\n\xff\n")
    with pytest.raises(ValidationError, match=re.escape(f"cannot read {path}:")):
        load_arrangement(path)
    path.write_bytes(b"3\n1 0 0\n")
    assert load_arrangement(path) == Arrangement(3, [(1, 0, 0)])
    # a missing path and a directory raised FileNotFoundError and IsADirectoryError
    for bad in (tmp_path / "missing.arr", tmp_path):
        with pytest.raises(ValidationError, match=re.escape(f"cannot read {bad}:")):
            load_arrangement(bad)


def fraction_rref(rows, width):
    """Reference reduced row echelon form: plain Gauss-Jordan over Fraction."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(matrix)):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][col]
        matrix[rank] = [a / lead for a in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return tuple(tuple(row) for row in matrix[:rank])


def test_rref_matches_reference_on_random_matrices():
    from logmc._linalg import rref
    rng = random.Random(314)
    for _ in range(200):
        width = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(width)]
                for _ in range(rng.randint(0, 6))]
        assert rref(rows, width) == fraction_rref(rows, width)


def test_subspace_canonical_key():
    # same plane from different generating forms
    a = Subspace.from_forms(3, [(1, 1, 0), (0, 0, 1)])
    b = Subspace.from_forms(3, [(2, 2, 2), (0, 0, 5), (1, 1, 1)])
    assert a == b and a.matrix == b.matrix
    assert a.dim == 1


def test_subspace_containment():
    plane = Subspace.from_forms(3, [(1, 0, 0)])
    line = Subspace.from_forms(3, [(1, 0, 0), (0, 1, 0)])
    ambient = Subspace.ambient(3)
    assert ambient.contains(plane) and plane.contains(line)
    assert not line.contains(plane)
    assert plane.contains(plane)
