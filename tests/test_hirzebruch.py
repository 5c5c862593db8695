"""Chern character, Todd class, normalisation and CSM evaluation tests.

Series expansions used as expected values were computed by hand to the
stated order; Euler-characteristic oracles are the binomial coefficients
chi(P^n, O(k)) = C(n+k, n).
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmc import (Arrangement, CohClass, CohPoly, DivisionRemainderError,
                   ValidationError,
                   KClass, KPoly, build_lattice, chern_character, chern_class_free_exponents,
                   clear_denominator, cohclass_from_json, cohclass_to_json,
                   cohpoly_from_json, cohpoly_to_json, csm_at_minus_one,
                   euler_characteristic, grr_transform, kclass_O,
                   kclass_linear_subspace, log_class_free,
                   mc_complement_lattice_sum, mc_free_exponents, normalize,
                   omega_log_trivial, todd_class)
from test_arrangement import BRAID3, random_arrangement

F = Fraction


# --- Chern character

def test_ch_one():
    for n in range(0, 4):
        assert chern_character(KClass.one(n)) == CohClass.one(n)


def test_ch_s_is_exp_minus_h():
    assert chern_character(KClass(2, (0, 1))) == CohClass(2, (1, -1, F(1, 2)))


def test_ch_point_class_on_line():
    # ch(1 - s) = 1 - e^{-h} = h modulo h^2
    assert chern_character(kclass_linear_subspace(0, 0, 1)) == CohClass(1, (0, 1))


kclass_two = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-15, 15), min_size=n + 1, max_size=n + 1),
        st.lists(st.integers(-15, 15), min_size=n + 1, max_size=n + 1)))


@settings(max_examples=120, deadline=None)
@given(kclass_two)
def test_ch_is_ring_homomorphism(data):
    n, xs, ys = data
    a, b = KClass(n, xs), KClass(n, ys)
    assert chern_character(a * b) == chern_character(a) * chern_character(b)
    assert chern_character(a + b) == chern_character(a) + chern_character(b)


# --- Todd class

def test_todd_small():
    assert todd_class(0) == CohClass.one(0)
    assert todd_class(1) == CohClass(1, (1, 1))
    assert todd_class(2) == CohClass(2, (1, F(3, 2), 1))


def test_todd_degree_zero_term_is_one():
    for n in range(0, 6):
        assert todd_class(n).coeffs[0] == 1


# --- GRR transform

def test_grr_of_one_is_todd():
    p = KPoly(1, (KClass.one(1),))
    out = grr_transform(p)
    assert out.delta == 0
    assert out.coefficient(0) == CohClass(1, (1, 1))


def test_grr_euler_characteristics_binomial():
    for n in range(0, 5):
        for k in range(0, 4):
            p = KPoly(n, (kclass_O(k, n),))
            top = grr_transform(p).coefficient(0).coeffs[n]
            assert top == comb(n + k, n)


def test_grr_zero():
    assert grr_transform(KPoly.zero(3)).is_zero()


# --- normalisation bookkeeping

def test_normalize_constant_class():
    p = CohPoly(2, (CohClass(2, (5,)),))
    out = normalize(p)
    assert out.delta == 2
    # numerator h^0 column was multiplied by (1+y)^0: unchanged
    assert out.coefficient(0) == CohClass(2, (5,))


def test_normalize_top_component_unrescaled():
    # delta bookkeeping: h^n column times (1+y)^n over (1+y)^n
    p = CohPoly(2, (CohClass(2, (0, 0, 1)),))
    out = normalize(p)
    assert out.delta == 2
    cleared = clear_denominator(out)
    assert cleared.coefficient(0) == CohClass(2, (0, 0, 1))
    assert cleared.y_degree == 0


def test_normalize_requires_plain_polynomial():
    from logmc import ValidationError
    with pytest.raises(ValidationError):
        normalize(CohPoly(2, (CohClass.one(2),), delta=1))


def test_clear_denominator_exact():
    # (1+y)^2 * c with delta 2 clears to c
    c = CohClass(2, (1, 2, 3))
    p = CohPoly(2, (c, 2 * c, c), delta=2)
    out = clear_denominator(p)
    assert out.delta == 0 and out.coefficient(0) == c and out.y_degree == 0


def test_clear_denominator_failure():
    p = CohPoly(1, (CohClass(1, (1, 0)), CohClass(1, (0, 1))), delta=1)
    with pytest.raises(DivisionRemainderError) as info:
        clear_denominator(p)
    assert str(info.value) == "h^0 component is not divisible by (1+y)^1"
    assert type(info.value.remainder) is Fraction
    assert info.value.remainder == 1
    assert info.value.details == {"remainder": "Fraction(1, 1)"}


def test_clear_denominator_failure_remainder_over_column_denominator():
    # h^1 column 1/2 + 1/3 y is 3/6 + 2/6 y: the value at y = -1 is 1/6
    p = CohPoly(1, (CohClass(1, (0, F(1, 2))), CohClass(1, (0, F(1, 3)))), delta=2)
    with pytest.raises(DivisionRemainderError) as info:
        clear_denominator(p)
    assert str(info.value) == "h^1 component is not divisible by (1+y)^2"
    assert info.value.remainder == F(1, 6)
    assert info.value.details == {"remainder": "Fraction(1, 6)"}


def test_cohclass_refuses_floats():
    with pytest.raises(ValidationError, match="floats"):
        CohClass(1, [0.1, 1])
    with pytest.raises(ValidationError, match="floats"):
        CohClass(1, [F(1, 2), 1.0])
    with pytest.raises(ValidationError, match="not a number"):
        CohClass(1, [None])
    assert CohClass(1, [F(1, 10), 1]).coeffs == (F(1, 10), F(1))


def test_chern_product_refuses_inexact_exponents():
    with pytest.raises(ValidationError, match="floats"):
        chern_class_free_exponents([1, 2.5], 1)
    with pytest.raises(ValidationError, match="not an integer"):
        chern_class_free_exponents([1, F(5, 2)], 1)
    assert chern_class_free_exponents([1, F(4, 2)], 1) == chern_class_free_exponents([1, 2], 1)


def test_hirzebruch_class_of_line():
    out = clear_denominator(normalize(grr_transform(omega_log_trivial(1))))
    # T_y of P^1 is (1) + (1 - y) h; value at y = -1 is 1 + 2h = c(TP^1)
    assert out.coefficient(0) == CohClass(1, (1, 1))
    assert out.coefficient(1) == CohClass(1, (0, -1))
    assert out.at_y(-1) == CohClass(1, (1, 2))
    assert out.at_y(0) == todd_class(1)


# --- CSM evaluation

def test_csm_empty_arrangement_is_chern_class_of_plane():
    assert csm_at_minus_one(omega_log_trivial(2)) == CohClass(2, (1, 3, 3))


def test_genus_polynomial_of_projective_space():
    # degree-0 column of the normalised class of P^n is sum_p (-y)^p,
    # since chi(P^n, Omega^p) = (-1)^p
    for n in range(0, 5):
        out = clear_denominator(normalize(grr_transform(omega_log_trivial(n))))
        column = [out.coefficient(k).coeffs[n] for k in range(n + 1)]
        assert column == [F((-1) ** p) for p in range(n + 1)]
        assert out.y_degree <= n


def test_csm_braid_both_sides():
    expected = CohClass(2, (1, -3, 2))
    lat = build_lattice(Arrangement(3, BRAID3))
    assert csm_at_minus_one(mc_complement_lattice_sum(lat)) == expected
    assert csm_at_minus_one(log_class_free((1, 2, 3), 2)) == expected
    assert chern_class_free_exponents((1, 2, 3), 2) == expected


def test_csm_equals_chern_product_for_exponent_multisets():
    for n in range(1, 5):
        for exps in combinations_with_replacement(range(1, 5), n + 1):
            if 1 not in exps:
                continue
            got = csm_at_minus_one(mc_free_exponents(exps, n))
            assert got == chern_class_free_exponents(exps, n), exps


def test_csm_log_side_matches_mc_side_even_when_classes_differ():
    for exps, n in (((1, 2, 3), 2), ((1, 1, 2), 2), ((1, 2, 2, 3), 3)):
        mc = mc_free_exponents(exps, n)
        log = log_class_free(exps, n)
        if exps != (1,) * (n + 1):
            assert mc != log
        assert csm_at_minus_one(mc) == csm_at_minus_one(log)


def test_point_class_pushforward_bridge():
    # ch([O_point]) * td(TP^n) = [point]: the class (1-s)^n maps to h^n
    for n in range(1, 5):
        point = kclass_linear_subspace(0, 0, n)
        got = chern_character(point) * todd_class(n)
        expected = CohClass(n, [0] * n + [1])
        assert got == expected


def test_difference_class_vanishes_under_csm():
    # the difference class itself becomes 0 at y = -1, not just the two
    # sides separately
    from logmc import difference_class_arrangement
    for exps, n in (((1, 2, 3), 2), ((1, 1, 2), 2), ((1, 2, 2, 3), 3),
                    ((1, 4), 1), ((1, 1, 1, 1, 2), 4)):
        diff = difference_class_arrangement(exps, None, n)
        assert csm_at_minus_one(diff) == CohClass.zero(n)
    lat = build_lattice(Arrangement(3, BRAID3))
    diff = difference_class_arrangement((1, 2, 3), lat, 2)
    assert csm_at_minus_one(diff) == CohClass.zero(2)


def test_euler_characteristic_values():
    assert euler_characteristic(CohClass(2, (1, 3, 3))) == 3
    lat = build_lattice(Arrangement(3, BRAID3))
    assert euler_characteristic(csm_at_minus_one(mc_complement_lattice_sum(lat))) == 2
    assert euler_characteristic(CohClass.zero(4)) == 0


def test_polynomiality_on_random_lattices():
    """clear_denominator never fails on normalize(grr(mc)) or the log side."""
    rng = random.Random(321)
    for _ in range(30):
        arr = random_arrangement(rng, max_forms=6, max_dim=4)
        mc = mc_complement_lattice_sum(build_lattice(arr))
        clear_denominator(normalize(grr_transform(mc)))
    for _ in range(30):
        n = rng.randint(1, 3)
        exps = [1] + [rng.randint(1, 4) for _ in range(n)]
        clear_denominator(normalize(grr_transform(log_class_free(exps, n))))


# --- serialization

def test_cohclass_json_roundtrip():
    c = CohClass(2, (1, F(-3, 2), F(7, 5)))
    data = cohclass_to_json(c)
    assert data["coeffs"] == ["1", "-3/2", "7/5"]
    assert cohclass_from_json(data) == c


def test_cohpoly_json_roundtrip():
    p = normalize(grr_transform(omega_log_trivial(2)))
    data = cohpoly_to_json(p)
    assert data["denominator_power"] == 2
    assert cohpoly_from_json(data) == p
