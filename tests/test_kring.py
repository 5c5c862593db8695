"""K-group arithmetic and motivic-class route tests.

Expected vectors marked below were derived by hand expansion (reduction
modulo (s-1)^{n+1}) or by cross-route agreement, never copied from the
implementation under test.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmc import (Arrangement, DivisionRemainderError, IntPolynomial, KClass,
                   KPoly, ValidationError, build_lattice,
                   characteristic_polynomial, difference_class_arrangement,
                   exact_div_one_plus_y, kclass_O, kclass_linear_subspace,
                   kpoly_from_json, kpoly_to_json, log_class_free,
                   mc_complement_charpoly, mc_complement_lattice_sum,
                   mc_free_exponents, omega_log_trivial)
from test_arrangement import BOOLEAN3, BRAID3, random_arrangement

CONCURRENT3 = [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)]


def s_class(n):
    return KClass(n, (0, 1))


# --- ring basics

def test_relation_one_minus_s_nilpotent():
    for n in range(0, 5):
        one_minus_s = KClass(n, (1, -1))
        assert (one_minus_s ** (n + 1)).is_zero()
        assert not (one_minus_s ** n).is_zero()


def test_kclass_O_trivial():
    for n in range(0, 4):
        assert kclass_O(0, n) == KClass.one(n)
        assert kclass_O(-1, n) == s_class(n)


def test_kclass_O_positive_twist():
    assert kclass_O(1, 1) == KClass(1, (2, -1))
    for n in range(1, 5):
        for k in range(1, n + 3):
            assert s_class(n) ** k * kclass_O(k, n) == KClass.one(n)


def test_kclass_linear_subspace():
    assert kclass_linear_subspace(1, 0, 1) == KClass.one(1)
    assert kclass_linear_subspace(0, 0, 1) == KClass(1, (1, -1))
    assert kclass_linear_subspace(0, 0, 2) == KClass(2, (1, -2, 1))
    with pytest.raises(ValidationError):
        kclass_linear_subspace(3, 0, 2)
    with pytest.raises(ValidationError):
        kclass_linear_subspace(-1, 0, 2)


def test_basis_conversion_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(0, 5)
        c = KClass(n, [rng.randint(-9, 9) for _ in range(n + 1)])
        assert KClass.from_one_minus_s_basis(n, c.in_one_minus_s_basis()) == c
    # pushforwards are monomials in the (1-s)-basis
    assert kclass_linear_subspace(0, 0, 2).in_one_minus_s_basis() == (0, 0, 1)


# --- division by 1+y

def test_exact_div_simple():
    n = 2
    s = s_class(n)
    p = KPoly(n, (s, s))  # (1+y) * s
    assert exact_div_one_plus_y(p) == KPoly(n, (s,))


def test_exact_div_square():
    # (1+sy)^2 over P^1 equals (1+y)(1 + (2s-1)y): quotient derived by
    # synthetic division then reduction mod (1-s)^2
    n = 1
    p = KPoly(n, (KClass.one(n), 2 * s_class(n), s_class(n) ** 2))
    expected = KPoly(n, (KClass.one(n), KClass(n, (-1, 2))))
    assert exact_div_one_plus_y(p) == expected


def test_exact_div_failure_carries_remainder():
    n = 2
    p = KPoly(n, (KClass.one(n), s_class(n)))  # 1 + s*y, value at -1 is 1-s
    with pytest.raises(DivisionRemainderError) as info:
        exact_div_one_plus_y(p)
    assert info.value.remainder == KClass(n, (1, -1))


# --- total form class of projective space

def test_omega_log_trivial_small():
    assert omega_log_trivial(0) == KPoly(0, (KClass.one(0),))
    assert omega_log_trivial(1) == KPoly(1, (KClass.one(1), KClass(1, (-1, 2))))
    omega2 = omega_log_trivial(2)
    assert omega2.coefficient(0) == KClass.one(2)
    assert omega2.coefficient(2) == kclass_O(-3, 2)


def test_omega_pair_relation():
    # [Omega^p] + [Omega^{p-1}] = C(n+1, p) [O(-p)] for all p, n <= 6
    for n in range(0, 7):
        omega = omega_log_trivial(n)
        for p in range(1, n + 1):
            left = omega.coefficient(p) + omega.coefficient(p - 1)
            assert left == comb(n + 1, p) * kclass_O(-p, n)


# --- motivic class routes

def test_mc_empty_arrangement_is_omega():
    for n in range(0, 4):
        lat = build_lattice(Arrangement(n + 1, []))
        assert mc_complement_lattice_sum(lat) == omega_log_trivial(n)
        chi = IntPolynomial([0] * (n + 1) + [1])
        assert mc_complement_charpoly(chi, n) == omega_log_trivial(n)


def test_mc_boolean_closed_form():
    # (1+y)^2 * s^3 in P^2
    lat = build_lattice(Arrangement(3, BOOLEAN3))
    s3 = s_class(2) ** 3
    expected = KPoly(2, (s3, 2 * s3, s3))
    assert mc_complement_lattice_sum(lat) == expected
    assert mc_free_exponents((1, 1, 1), 2) == expected


def test_mc_braid_routes_agree():
    lat = build_lattice(Arrangement(3, BRAID3))
    chi = characteristic_polynomial(lat)
    a = mc_complement_lattice_sum(lat)
    b = mc_complement_charpoly(chi, 2)
    c = mc_free_exponents((1, 2, 3), 2)
    assert a == b == c
    # frozen hand expansion: s(2 - (7+3y)s + (6+5y+y^2)s^2) reduced
    assert [list(k.coeffs) for k in a.coeffs] == [
        [6, -16, 11], [5, -15, 12], [1, -3, 3]]


def test_mc_concurrent3_matches_charpoly_route():
    lat = build_lattice(Arrangement(3, CONCURRENT3))
    chi = characteristic_polynomial(lat)
    assert list(chi.coeffs) == [-2, 5, -4, 1]  # (t-1)^2 (t-2)
    assert mc_complement_lattice_sum(lat) == mc_complement_charpoly(chi, 2)
    assert mc_complement_lattice_sum(lat) == mc_free_exponents((1, 1, 2), 2)


def test_mc_free_exponents_all_ones():
    for n in range(0, 5):
        value = mc_free_exponents([1] * (n + 1), n)
        s_pow = s_class(n) ** (n + 1)
        expected = KPoly(n, [comb(n, p) * s_pow for p in range(n + 1)])
        assert value == expected


def test_mc_route_agreement_random():
    rng = random.Random(424242)
    checked = 0
    while checked < 40:
        arr = random_arrangement(rng)
        lat = build_lattice(arr)
        chi = characteristic_polynomial(lat)
        n = arr.ambient_dim - 1
        assert mc_complement_lattice_sum(lat) == mc_complement_charpoly(chi, n)
        checked += 1


# --- logarithmic side and the difference

def test_log_class_snc_equals_mc():
    assert log_class_free((1, 1, 1), 2) == mc_free_exponents((1, 1, 1), 2)
    assert log_class_free((1, 1), 1) == mc_free_exponents((1, 1), 1)


def test_log_class_braid_differs_from_mc():
    assert log_class_free((1, 2, 3), 2) != mc_free_exponents((1, 2, 3), 2)
    # frozen hand expansion: s(s^2 + sy)(s^3 + sy) reduced
    log = log_class_free((1, 2, 3), 2)
    assert [list(k.coeffs) for k in log.coeffs] == [
        [10, -24, 15], [9, -23, 16], [1, -3, 3]]


def test_difference_boolean_is_zero():
    lat = build_lattice(Arrangement(3, BOOLEAN3))
    assert difference_class_arrangement((1, 1, 1), lat, 2).is_zero()


def test_difference_braid_frozen():
    # equals -4 (1-s)^2 (1 + y): four ordinary triple points, each
    # contributing (-1) + (-1) y times a point class
    lat = build_lattice(Arrangement(3, BRAID3))
    diff = difference_class_arrangement((1, 2, 3), lat, 2)
    assert not diff.is_zero()
    point = KClass(2, (1, -2, 1))
    assert diff == KPoly(2, (-4 * point, -4 * point))


def test_difference_requires_exponents():
    lat = build_lattice(Arrangement(3, []))
    with pytest.raises(ValidationError, match="exponent"):
        difference_class_arrangement(None, lat, 2)


def test_difference_zero_iff_all_ones_above_dimension_one():
    for n in range(2, 4):
        for exps in combinations_with_replacement(range(1, 5), n + 1):
            if 1 not in exps:
                continue
            diff = difference_class_arrangement(exps, None, n)
            if all(e == 1 for e in exps):
                assert diff.is_zero(), exps
            else:
                assert not diff.is_zero(), exps


def test_difference_always_zero_on_projective_line():
    # distinct points on a smooth curve form a simple normal crossing
    # divisor, so the difference vanishes for every exponent pair {1, e}
    for e in range(1, 6):
        assert difference_class_arrangement((1, e), None, 1).is_zero()


def test_validate_exponents():
    with pytest.raises(ValidationError, match="contain 1"):
        mc_free_exponents((2, 2, 2), 2)
    with pytest.raises(ValidationError, match="expected 3 exponents"):
        mc_free_exponents((1, 2), 2)
    with pytest.raises(ValidationError, match="positive"):
        log_class_free((0, 1, 2), 2)


def test_kclass_refuses_inexact_coefficients():
    # int() would truncate these to [0, 1, 1]
    with pytest.raises(ValidationError, match="not an integer"):
        KClass(2, [Fraction(1, 2), 1, True])
    with pytest.raises(ValidationError, match="floats"):
        KClass(2, [0, 1.9, True])
    with pytest.raises(ValidationError, match="floats"):
        KClass(2, [1.0])
    with pytest.raises(ValidationError, match="not a number"):
        KClass(2, [None])
    assert KClass(2, [Fraction(4, 2), 3, True]).coeffs == (2, 3, 1)


def test_exponents_refuse_inexact_values():
    for func in (log_class_free, mc_free_exponents):
        with pytest.raises(ValidationError, match="floats"):
            func([1, 2.7, 3], 2)
        with pytest.raises(ValidationError, match="floats"):
            func([1, 2.0, 3], 2)
        with pytest.raises(ValidationError, match="not an integer"):
            func([1, Fraction(5, 2), 3], 2)
        assert func([1, Fraction(4, 2), 3], 2) == func([1, 2, 3], 2)


def test_division_always_exact_on_random_inputs():
    rng = random.Random(11)
    for _ in range(60):
        arr = random_arrangement(rng)
        lat = build_lattice(arr)
        mc_complement_lattice_sum(lat)  # must not raise
        n = rng.randint(1, 3)
        exps = [1] + [rng.randint(1, 5) for _ in range(n)]
        mc_free_exponents(exps, n)
        log_class_free(exps, n)


# --- ring axioms (property-based)

kclass_pairs = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-20, 20), min_size=n + 1, max_size=n + 1),
        st.lists(st.integers(-20, 20), min_size=n + 1, max_size=n + 1),
        st.lists(st.integers(-20, 20), min_size=n + 1, max_size=n + 1)))


@settings(max_examples=150, deadline=None)
@given(kclass_pairs)
def test_kclass_ring_axioms(data):
    n, xs, ys, zs = data
    a, b, c = KClass(n, xs), KClass(n, ys), KClass(n, zs)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * KClass.one(n) == a


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=5))
def test_unit_inverse_property(n):
    assert s_class(n) * kclass_O(1, n) == KClass.one(n)


# --- serialization

def test_json_roundtrip_both_bases():
    lat = build_lattice(Arrangement(3, BRAID3))
    p = mc_complement_lattice_sum(lat)
    for basis in ("s", "one_minus_s"):
        data = kpoly_to_json(p, basis=basis)
        assert data["basis"] == basis
        assert kpoly_from_json(data) == p


def test_json_rejects_unknown_basis():
    with pytest.raises(ValidationError):
        kpoly_to_json(KPoly.one(2), basis="h")


# --- consistency with the curve-singularity formula on P^2

def test_arrangement_difference_matches_curve_local_data():
    """A line arrangement in the projective plane is also a curve on a
    surface; its difference class must equal the sum of per-singularity
    contributions (a + b y) [O_x] with [O_x] = (1-s)^2."""
    from logmc import (CurveSingularity, build_lattice,
                       difference_class_curve)
    point = KClass(2, (1, -2, 1))

    # braid: four ordinary triple points and three nodes
    triple = CurveSingularity(mu=4, tau=4, r=3, delta=3)
    node = CurveSingularity(mu=1, tau=1, r=2, delta=1)
    pairs = difference_class_curve([triple] * 4 + [node] * 3)
    a, b = pairs.total
    lat = build_lattice(Arrangement(3, BRAID3))
    diff = difference_class_arrangement((1, 2, 3), lat, 2)
    assert diff == KPoly(2, (a * point, b * point))

    # concurrent3: one triple point and three nodes on the extra line
    pairs = difference_class_curve([triple] + [node] * 3)
    a, b = pairs.total
    lat = build_lattice(Arrangement(3, CONCURRENT3))
    diff = difference_class_arrangement((1, 1, 2), lat, 2)
    assert diff == KPoly(2, (a * point, b * point))
