"""Lattice, Möbius and exponent tests, cross-checked against a brute-force
subset oracle that never touches the library's elimination code."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from logmc import (Arrangement, IntersectionLattice, IntPolynomial, Subspace,
                   ValidationError, build_lattice, characteristic_polynomial,
                   exponents_via_terao, parse_arrangement)
from logmc._linalg import IntEchelon
from logmc.errors import InconsistencyError

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


def random_arrangement(rng, max_forms=8, max_dim=4):
    width = rng.randint(1, max_dim)
    forms = []
    for _ in range(rng.randint(0, max_forms)):
        row = tuple(rng.randint(-3, 3) for _ in range(width))
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
    assert [node.dim for node in lat.nodes] == [3, 2, 2, 2, 1, 1, 1, 0]
    assert list(lat.mobius) == [1, -1, -1, -1, 1, 1, 1, -1]


def test_generic4_lattice_against_oracle():
    lat = build_lattice(Arrangement(3, GENERIC4))
    dims = [node.dim for node in lat.nodes]
    assert len(lat) == 12
    assert dims.count(3) == 1 and dims.count(2) == 4
    assert dims.count(1) == 6 and dims.count(0) == 1
    center = dims.index(0)
    assert lat.mobius[center] == -3
    assert len(lat) == brute_force_node_count(GENERIC4, 3)


def test_braid_mobius_dimension_sum():
    lat = build_lattice(Arrangement(3, BRAID3))
    assert sum(mu * node.dim for node, mu in zip(lat.nodes, lat.mobius)) == 2
    assert len(lat) == brute_force_node_count(BRAID3, 3)


def test_mobius_recursion_invariant():
    for forms in (BOOLEAN3, BRAID3, GENERIC4):
        lat = build_lattice(Arrangement(3, forms))
        for i, node in enumerate(lat.nodes):
            if node.dim == lat.ambient_dim:
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
        assert [n.matrix for n in lat.nodes] == [n.matrix for n in base.nodes]
        assert lat.mobius == base.mobius


def test_empty_arrangement():
    lat = build_lattice(Arrangement(3, []))
    assert len(lat) == 1
    assert lat.nodes[0].dim == 3
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
    # the closure adds one echelon row per new flat, so a refusal at cap c
    # must come after c additions, not after the rank layer is complete
    calls = []
    add = IntEchelon.add

    def counting_add(self, row):
        calls.append(row)
        return add(self, row)

    monkeypatch.setattr(IntEchelon, "add", counting_add)
    for cap in (1, 5, 12, 30):
        calls.clear()
        with pytest.raises(ValidationError, match="exceeds the node cap"):
            build_lattice(Arrangement(4, BRAID5), max_nodes=cap)
        assert len(calls) == cap


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
        # each node's hyperplane set, read off its RREF matrix
        hyperplanes = []
        for node in lat.nodes:
            r = fraction_rank(list(node.matrix), width)
            hyperplanes.append(frozenset(
                j for j, form in enumerate(arr.forms)
                if fraction_rank(list(node.matrix) + [form], width) == r))
        got = {h: (node.dim, mu) for h, node, mu in zip(hyperplanes, lat.nodes, lat.mobius)}
        assert len(got) == len(lat) and got == expected
        assert [sum(1 << j for j in h) for h in hyperplanes] == list(lat.masks)
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert lat.contains(i, j) == lat.nodes[i].contains(lat.nodes[j])
                assert lat.contains(i, j) == (hyperplanes[i] <= hyperplanes[j])


def test_lattice_contains_without_masks():
    lat = build_lattice(Arrangement(3, BRAID3))
    plain = IntersectionLattice(lat.ambient_dim, lat.nodes, lat.mobius)
    assert plain.masks is None
    for i in range(len(lat)):
        for j in range(len(lat)):
            assert plain.contains(i, j) == lat.contains(i, j)


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
    assert sum(mu * n.dim for n, mu in zip(lat.nodes, lat.mobius)) == -6


# --- Terao factorisation

def test_terao_boolean():
    result = exponents_via_terao(IntPolynomial([-1, 3, -3, 1]))
    assert result.splits and result.exponents == (1, 1, 1)


def test_terao_braid():
    result = exponents_via_terao(IntPolynomial([-6, 11, -6, 1]))
    assert result.splits and result.exponents == (1, 2, 3)


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
    with pytest.raises(ValidationError, match="expected integers"):
        parse_arrangement("3\n1 0 z\n")
    with pytest.raises(ValidationError, match="ambient dimension"):
        parse_arrangement("# nothing here\n")
    with pytest.raises(ValidationError, match="has 2 coefficients"):
        parse_arrangement("3\n1 0\n")


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
