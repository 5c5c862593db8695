"""K-group arithmetic and motivic-class route tests.

Expected vectors marked below were derived by hand expansion (reduction
modulo (s-1)^{n+1}) or by cross-route agreement, never copied from the
implementation under test.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmc import (Arrangement, CohClass, CohPoly, DivisionRemainderError,
                   IntPolynomial, KClass, KPoly, ValidationError, build_lattice,
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


def _twist_reference(k, n):
    """O(k) the slow ways: for k > 0 the geometric-series inverse of s,
    s^{-1} = sum_{j<=n} (1-s)^j, raised to k; otherwise the plain
    (|k|+1)-long list s^{-k} reduced modulo (s-1)^{n+1}."""
    if k <= 0:
        return KClass(n, [0] * -k + [1])
    inv = KClass.zero(n)
    for j in range(n + 1):
        inv = inv + KClass(n, (1, -1)) ** j
    return inv ** k


def _log_class_reference(exps, n):
    """prod_i (s^{e_i} + s y) / (1+y) with each s^e a plain (e+1)-long list."""
    prod = KPoly.one(n)
    for e in exps:
        prod = prod * KPoly(n, (_twist_reference(-e, n), s_class(n)))
    return exact_div_one_plus_y(prod)


def test_kclass_O_matches_reference_twists():
    for n in range(0, 9):
        for k in range(-3 * n, 3 * n + 1):
            assert kclass_O(k, n) == _twist_reference(k, n), (k, n)


def test_large_twists_and_exponents_cost_does_not_grow():
    for k in (10 ** 4, -10 ** 4):
        assert kclass_O(k, 3) == _twist_reference(k, 3)
    assert log_class_free([1, 1, 10 ** 4], 2) == _log_class_reference([1, 1, 10 ** 4], 2)
    big = 10 ** 6
    assert kclass_O(-big, 3) * kclass_O(big, 3) == KClass.one(3)
    assert s_class(3) ** big * kclass_O(big, 3) == KClass.one(3)
    for call in (lambda: kclass_O(big, 3), lambda: kclass_O(-big, 3),
                 lambda: log_class_free([1, 1, 4_000_000], 2)):
        best = float("inf")
        for _ in range(3):  # the best of three, against a busy machine
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        assert best < 0.05


def test_kclass_O_refuses_inexact_twists():
    with pytest.raises(ValidationError, match="floats are not accepted"):
        kclass_O(1.0, 2)
    with pytest.raises(ValidationError, match="is not an integer"):
        kclass_O(Fraction(1, 2), 2)


def test_kclass_linear_subspace():
    assert kclass_linear_subspace(1, 0, 1) == KClass.one(1)
    assert kclass_linear_subspace(0, 0, 1) == KClass(1, (1, -1))
    assert kclass_linear_subspace(0, 0, 2) == KClass(2, (1, -2, 1))
    with pytest.raises(ValidationError):
        kclass_linear_subspace(3, 0, 2)
    with pytest.raises(ValidationError):
        kclass_linear_subspace(-1, 0, 2)
    # 0.5 reached KClass ** 1.5 and raised TypeError there; True was P^1
    for bad in (0.5, True, "1"):
        with pytest.raises(ValidationError, match="subspace dimension must be an integer in"):
            kclass_linear_subspace(bad, 0, 2)
    # a bad n is refused before a bad m, and a bad m before a bad k
    for call, message in (
            (lambda: kclass_linear_subspace(0, 1.0, -1), "projective dimension must be >= 0"),
            (lambda: kclass_O(1.0, -1), "projective dimension must be >= 0"),
            (lambda: kclass_O(1.0, None), "projective dimension must be an integer, got None"),
            (lambda: kclass_linear_subspace(5, 1.0, 2),
             "subspace dimension must be an integer in [0, 2], got 5"),
            (lambda: kclass_linear_subspace(1, 1.0, 2),
             "inexact number 1.0: floats are not accepted"),
            (lambda: kclass_linear_subspace(1, Fraction(1, 2), 2),
             "Fraction(1, 2) is not an integer")):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message
    for bad in (1.5, True, Fraction(2)):
        with pytest.raises(ValidationError, match="powers must be integers"):
            KClass(2, (1, 1)) ** bad
    for value in (KClass(2, (1, 1)), CohClass(2, (1, 1))):
        with pytest.raises(ValidationError) as info:
            value ** -1
        assert str(info.value) == (
            f"negative {type(value).__name__} powers are not defined in general")


def test_kclass_linear_subspace_matches_koszul_product():
    """(1-s)^{n-m} s^{-k} by ring powers and products, against the one row."""
    for n in range(0, 7):
        for m in range(0, n + 1):
            for k in range(-2 * n - 2, 2 * n + 3):
                expected = KClass(n, (1, -1)) ** (n - m) * _twist_reference(k, n)
                assert kclass_linear_subspace(m, k, n) == expected, (m, k, n)


def test_basis_conversion_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(0, 5)
        c = KClass(n, [rng.randint(-9, 9) for _ in range(n + 1)])
        assert KClass.from_one_minus_s_basis(n, c.in_one_minus_s_basis()) == c
    # pushforwards are monomials in the (1-s)-basis
    assert kclass_linear_subspace(0, 0, 2).in_one_minus_s_basis() == (0, 0, 1)


def test_one_minus_s_basis_pads_and_truncates():
    # 1 - (1-s) = s, and (1-s)^3 vanishes on P^2
    assert KClass.from_one_minus_s_basis(2, [1, -1]) == KClass(2, (0, 1))
    assert KClass.from_one_minus_s_basis(2, [0, 0, 1, 7]) == KClass(2, (1, -2, 1))
    assert KClass(2, (0, 1)).in_one_minus_s_basis() == (1, -1, 0)


def test_operands_on_different_spaces_refused():
    for a, b in ((KClass.one(1), KClass.one(2)), (KPoly.one(1), KPoly.one(2))):
        name = type(a).__name__
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(ValidationError) as info:
                op()
            assert str(info.value) == f"{name} operands live on different projective spaces"
    # operands of another ring, or no ring value at all
    cohpoly = CohPoly(1, [CohClass.one(1)])
    for a, b in ((KClass.one(1), CohClass.one(1)), (CohClass.one(1), KClass.one(1)),
                 (KPoly.one(1), cohpoly),
                 (KClass.one(1), KPoly.one(1)), (KClass.one(1), 3), (KPoly.one(1), 3)):
        ops = [lambda: a + b, lambda: a - b]
        if not isinstance(b, (int, KPoly)):  # KClass * KPoly is KPoly * KClass
            ops.append(lambda: a * b)
        for op in ops:
            with pytest.raises(ValidationError,
                               match=f"cannot combine {type(a).__name__} with {type(b).__name__}"):
                op()
    for poly, bad in ((CohPoly, KClass(2, (1,))), (KPoly, CohClass(2, (1,))), (KPoly, 1)):
        with pytest.raises(ValidationError, match=f"{poly.__name__} coefficients must be"):
            poly(2, [bad])
    with pytest.raises(ValidationError) as info:
        KPoly(2, [KClass.one(2), KClass.one(1)])
    assert str(info.value) == "KPoly coefficients live on different projective spaces"


def test_class_times_polynomial_commutes_where_the_product_exists():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(0, 3)
        c = KClass(n, [rng.randint(-5, 5) for _ in range(n + 1)])
        p = KPoly(n, [KClass(n, [rng.randint(-5, 5) for _ in range(n + 1)])
                      for _ in range(rng.randint(0, 3))])
        assert c * p == p * c == KPoly(n, [c * q for q in p.coeffs])
    # no CohPoly product exists: refused in both orders, not a TypeError
    c, p = CohClass.one(1), CohPoly(1, [CohClass.one(1)])
    for op in (lambda: c * p, lambda: p * c):
        with pytest.raises(ValidationError, match="cannot combine CohClass with CohPoly"):
            op()


def test_kpoly_negation_and_scalar_products_are_coefficientwise():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(0, 4)
        p = KPoly(n, [KClass(n, [rng.randint(-9, 9) for _ in range(n + 1)])
                      for _ in range(rng.randint(0, 4))])
        c = KClass(n, [rng.randint(-9, 9) for _ in range(n + 1)])
        k = rng.randint(-5, 5)
        assert -p == KPoly(n, [-a for a in p.coeffs])
        assert p * k == k * p == KPoly(n, [a * k for a in p.coeffs])
        assert p * c == KPoly(n, [a * c for a in p.coeffs])


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
    # [Omega^p] + [Omega^{p-1}] = C(n+1, p) [O(-p)] for all p, n <= 40
    for n in range(0, 41):
        omega = omega_log_trivial(n)
        for p in range(1, n + 1):
            left = omega.coefficient(p) + omega.coefficient(p - 1)
            assert left == comb(n + 1, p) * kclass_O(-p, n)


# --- motivic class routes

def test_mc_empty_arrangement_is_omega():
    for n in range(0, 13):
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


def test_mc_free_exponents_of_a_1000_digit_exponent_is_the_chi_substitution():
    # its cost is set by chi = (t - 1)^31 (t - e), whose coefficients have
    # about 1000 digits, not by the 31000-digit binomial C(sum e, n)
    n, e = 31, 10 ** 999 + 7
    ones = [comb(31, k) * (-1) ** (31 - k) for k in range(32)]
    chi = IntPolynomial([a - e * b for a, b in zip([0] + ones, ones + [0])])
    exps = [1] * 31 + [e]
    assert mc_free_exponents(exps, n) == mc_complement_charpoly(chi, n)
    best = float("inf")
    for _ in range(3):  # the best of three, against a busy machine
        start = time.perf_counter()
        mc_free_exponents(exps, n)
        best = min(best, time.perf_counter() - start)
    assert best < 0.5


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


def test_difference_is_mc_minus_log_class_on_every_route():
    # the difference packs both numerators at one width and divides once;
    # it must equal the two public classes subtracted
    rng = random.Random(24)
    cases = [(Arrangement(3, BRAID3), None), (Arrangement(3, BOOLEAN3), None),
             (Arrangement(3, CONCURRENT3), None)]
    cases += [(random_arrangement(rng, bound=5), None) for _ in range(20)]
    cases += [(None, rng.randint(0, 19)) for _ in range(40)]
    for arr, n in cases:
        lat = None
        if arr is not None:
            lat = build_lattice(arr)
            n = lat.ambient_dim - 1
            if n < 0:
                continue
        exps = [1] + [rng.choice((1, rng.randint(1, 12), rng.randint(1, 10 ** 9)))
                      for _ in range(n)]
        rng.shuffle(exps)
        chi = [1]
        for e in exps:
            chi = [a - e * b for a, b in zip(chi + [0], [0] + chi)]
        split = IntPolynomial(chi[::-1])
        routes = [(None, mc_free_exponents(exps, n)), (split, mc_complement_charpoly(split, n))]
        if lat is not None:
            chi = characteristic_polynomial(lat)
            routes += [(chi, mc_complement_charpoly(chi, n)),
                       (lat, mc_complement_lattice_sum(lat))]
        log = log_class_free(exps, n)
        for second, mc in routes:
            diff = difference_class_arrangement(exps, second, n)
            assert diff == mc - log
            assert kpoly_to_json(diff) == kpoly_to_json(mc - log)


def test_difference_error_precedence():
    # missing exponents first, then the chi degree (before the exponents
    # are validated), then an unknown second argument; a lattice on another
    # P^n is refused after the exponents
    lat = build_lattice(Arrangement(3, BRAID3))
    bad_chi = IntPolynomial([1, 2])
    for second in (None, lat, bad_chi, "chi"):
        with pytest.raises(ValidationError, match="no exponent data"):
            difference_class_arrangement(None, second, 2)
    for exps in ((2, 3, 4), (1, 2), (1, 2, 3)):
        with pytest.raises(ValidationError, match="has degree 1, expected 3"):
            difference_class_arrangement(exps, bad_chi, 2)
        with pytest.raises(ValidationError, match="second argument must be"):
            difference_class_arrangement(exps, "chi", 2)
    with pytest.raises(ValidationError, match="contain 1"):
        difference_class_arrangement((2, 3, 4), lat, 2)
    with pytest.raises(ValidationError, match="expected 4 exponents"):
        difference_class_arrangement((1, 2, 3), lat, 3)
    with pytest.raises(ValidationError, match="different projective spaces"):
        difference_class_arrangement((1, 2, 3, 4), lat, 3)


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
    # a bool is an int to isinstance, but not a coefficient
    for bad in ([Fraction(4, 2), 3, True], [True, False]):
        with pytest.raises(ValidationError, match="not a number: True"):
            KClass(2, bad)
    assert KClass(2, [Fraction(4, 2), 3, 1]).coeffs == (2, 3, 1)
    # nor a scalar factor
    for value, bad in ((KClass(2, (1, 1)), True), (CohClass(1, (1, 2)), False),
                       (KPoly.one(2), True), (KPoly.one(2), False)):
        for op in (lambda: value * bad, lambda: bad * value):
            with pytest.raises(ValidationError, match="with bool"):
                op()


def test_exponents_refuse_inexact_values():
    for func in (log_class_free, mc_free_exponents):
        with pytest.raises(ValidationError, match="floats"):
            func([1, 2.7, 3], 2)
        with pytest.raises(ValidationError, match="floats"):
            func([1, 2.0, 3], 2)
        with pytest.raises(ValidationError, match="not an integer"):
            func([1, Fraction(5, 2), 3], 2)
        with pytest.raises(ValidationError, match="not a number: True"):
            func([True, 2], 1)
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
    with pytest.raises(ValidationError, match="unknown basis 'h'"):
        kpoly_from_json({"n": 1, "basis": "h", "coeffs_y": []})
    # a missing key is named, and a value that is no object is refused
    for bad, match in (({}, "no key 'n'"), ({"n": 1}, "no key 'basis'"),
                       ({"n": 1, "basis": "s"}, "no key 'coeffs_y'"),
                       ([], "expected a JSON object, got list"),
                       (None, "expected a JSON object, got NoneType")):
        with pytest.raises(ValidationError, match=match):
            kpoly_from_json(bad)


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
