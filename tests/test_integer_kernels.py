"""The integer kernels agree with the rational and pairwise code they replace.

The references below are the Fraction implementations of ``grr_transform``,
``normalize`` and ``clear_denominator``, the binomial sums of a Taylor
shift, column-by-column synthetic division, the pairwise ``KPoly`` product
(one KClass product and one KClass sum per pair of y-coefficients) and the
term-by-term χ substitution of ``mc_complement_charpoly``, kept here in
substance as they were.  Results must be equal and serialise to the
same JSON; a failed division must raise the same message with the same
remainder.
"""

import random
import sys
from fractions import Fraction
from math import comb, factorial, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmc import (CohClass, CohPoly, DivisionRemainderError, IntPolynomial,
                   KClass, KPoly, chern_class_free_exponents, clear_denominator,
                   cohclass_to_json, cohpoly_to_json, csm_at_minus_one,
                   exact_div_one_plus_y, grr_transform, kpoly_to_json,
                   log_class_free, mc_complement_charpoly, mc_free_exponents,
                   normalize, omega_log_trivial)
from logmc._linalg import _strip_content
from logmc._poly import deflate, shift_minus_one, unpack
from logmc.arrangement import MAX_AMBIENT_DIM
from logmc.kring import (_binomial_row, _over_one_plus_y, _product_rows, _product_width,
                         _swap_s_basis)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import EXPONENT_SETS  # noqa: E402  (lives in bench/)

F = Fraction


# --- references -------------------------------------------------------------

def ref_reduce(coeffs, n):
    rel = [comb(n + 1, k) * (-1) ** (n + 1 - k) for k in range(n + 2)]
    c = list(coeffs)
    for d in range(len(c) - 1, n, -1):
        lead = c[d]
        if lead:
            for k in range(n + 2):
                c[d - (n + 1) + k] -= lead * rel[k]
    c = c[:n + 1]
    return tuple(c + [0] * (n + 1 - len(c)))


def ref_kclass_mul(a, b, n):
    prod = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    return ref_reduce(prod, n)


def ref_kpoly_mul(p, q):
    """Pairwise product: one KClass product and one KClass sum per pair."""
    n = p.n
    if p.is_zero() or q.is_zero():
        return KPoly.zero(n)
    prod = [(0,) * (n + 1)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            ab = ref_kclass_mul(a.coeffs, b.coeffs, n)
            prod[i + j] = tuple(x + y for x, y in zip(prod[i + j], ab))
    return KPoly(n, [KClass(n, c) for c in prod])


def ref_charpoly_route(chi, n):
    """sum_j chi_j (1+sy)^j (1-s)^{n+1-j} / (1+y), one KPoly term per j."""
    one_minus_s = KClass(n, (1, -1))
    total = KPoly.zero(n)
    for j, c in enumerate(chi):
        if c:
            one_plus_sy = KPoly(n, [KClass(n, [0] * p + [comb(j, p)]) for p in range(j + 1)])
            total = total + ref_kpoly_mul(
                one_plus_sy, KPoly(n, [one_minus_s ** (n + 1 - j) * c]))
    return exact_div_one_plus_y(total)


def ref_chern_character(c):
    return CohClass(c.n, [
        F((-1) ** j * sum(a * k ** j for k, a in enumerate(c.coeffs) if a), factorial(j))
        for j in range(c.n + 1)])


def ref_todd_class(n):
    denom = [F((-1) ** j, factorial(j + 1)) for j in range(n + 1)]
    inv = [F(0)] * (n + 1)
    inv[0] = F(1)
    for k in range(1, n + 1):
        inv[k] = -sum(denom[i] * inv[k - i] for i in range(1, k + 1))
    return CohClass(n, inv) ** (n + 1)


def ref_grr_transform(p):
    td = ref_todd_class(p.n)
    return CohPoly(p.n, [ref_chern_character(c) * td for c in p.coeffs], delta=0)


def ref_normalize(p):
    assert p.delta == 0
    if p.is_zero():
        return CohPoly(p.n, (), delta=p.n)
    cols = []
    for j, col in enumerate(p.columns()):
        out = [F(0)] * (len(col) + j)
        for k, a in enumerate(col):
            for i in range(j + 1):
                out[k + i] += a * comb(j, i)
        cols.append(out)
    return CohPoly.from_columns(p.n, cols, delta=p.n)


def ref_deflate(coeffs, root):
    quotient, carry = [], 0
    for c in reversed(coeffs):
        carry = carry * root + c
        quotient.append(carry)
    remainder = quotient.pop() if quotient else 0
    quotient.reverse()
    return quotient, remainder


def ref_clear_denominator(p):
    if p.delta == 0:
        return p
    out = []
    for j, col in enumerate(p.columns()):
        for _ in range(p.delta):
            col, rem = ref_deflate(col, -1)
            if rem != 0:
                raise DivisionRemainderError(
                    f"h^{j} component is not divisible by (1+y)^{p.delta}",
                    remainder=rem)
        out.append(col)
    return CohPoly.from_columns(p.n, out)


# --- helpers ----------------------------------------------------------------

def assert_same_cohpoly(got, want):
    assert got == want
    assert cohpoly_to_json(got) == cohpoly_to_json(want)
    assert all(type(v) is Fraction for c in got.coeffs for v in c.coeffs)


def outcome(fn, p):
    """("ok", json) or ("error", message, remainder, its type, details)."""
    try:
        got = fn(p)
        return ("ok", (cohclass_to_json if isinstance(got, CohClass) else cohpoly_to_json)(got))
    except DivisionRemainderError as e:
        return ("error", str(e), e.remainder, type(e.remainder), e.details)


def random_kpoly(rng, n, ydeg, density=1.0, bound=20):
    rows = [KClass(n, [rng.randint(-bound, bound) if rng.random() < density else 0
                       for _ in range(n + 1)])
            for _ in range(ydeg + 1)]
    return KPoly(n, rows)


def random_cohpoly(rng, n, ydeg, delta):
    rows = [CohClass(n, [F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6)))
                         for _ in range(n + 1)])
            for _ in range(ydeg + 1)]
    return CohPoly(n, rows, delta=delta)


# --- K-ring product -----------------------------------------------------------

def test_kpoly_product_matches_pairwise_reference():
    rng = random.Random(20261018)
    for _ in range(120):
        n = rng.randint(0, 8)
        p = random_kpoly(rng, n, rng.randint(0, 6), rng.choice((0.2, 0.6, 1.0)))
        q = random_kpoly(rng, n, rng.randint(0, 6), rng.choice((0.2, 0.6, 1.0)))
        got, want = p * q, ref_kpoly_mul(p, q)
        assert got == want
        assert kpoly_to_json(got) == kpoly_to_json(want)
        assert all(type(v) is int for c in got.coeffs for v in c.coeffs)


def test_kpoly_product_with_zero():
    p = KPoly(3, [KClass(3, (1, 2))])
    assert p * KPoly.zero(3) == KPoly.zero(3)
    assert KPoly.zero(3) * p == KPoly.zero(3)


# --- Hirzebruch stages ----------------------------------------------------------

def test_stages_match_rational_reference_on_random_kpolys():
    rng = random.Random(6)
    for n in [rng.randint(0, 8) for _ in range(40)] + [23, 69]:
        p = random_kpoly(rng, n, rng.randint(0, 6), rng.choice((0.3, 1.0)))
        g = grr_transform(p)
        assert_same_cohpoly(g, ref_grr_transform(p))
        nm = normalize(g)
        assert_same_cohpoly(nm, ref_normalize(g))
        assert outcome(clear_denominator, nm) == outcome(ref_clear_denominator, nm)


def test_clear_denominator_matches_reference_on_random_cohpolys():
    rng = random.Random(7)
    errors = 0
    for _ in range(150):
        n = rng.randint(0, 6)
        p = random_cohpoly(rng, n, rng.randint(0, 6), rng.randint(0, 4))
        want = outcome(ref_clear_denominator, p)
        assert outcome(clear_denominator, p) == want
        errors += want[0] == "error"
    assert errors > 100


def test_clear_denominator_of_divisible_polys_matches_reference():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(0, 6)
        delta = rng.randint(1, 4)
        q = random_cohpoly(rng, n, rng.randint(0, 4), 0)
        # multiply every column by (1+y)^delta, then ask for the quotient back
        cols = []
        for col in q.columns():
            for _ in range(delta):
                col = [a + b for a, b in zip(col + [F(0)], [F(0)] + col)]
            cols.append(col)
        p = CohPoly.from_columns(n, cols, delta=delta)
        got = clear_denominator(p)
        assert_same_cohpoly(got, ref_clear_denominator(p))
        assert got == q


def test_normalize_matches_reference_on_random_cohpolys():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(0, 6)
        p = random_cohpoly(rng, n, rng.randint(0, 5), 0)
        assert_same_cohpoly(normalize(p), ref_normalize(p))
    assert_same_cohpoly(normalize(CohPoly.zero(4)), ref_normalize(CohPoly.zero(4)))


def staged_csm(p):
    return clear_denominator(normalize(grr_transform(p))).at_y(-1)


def test_csm_refusal_at_a_later_division():
    # every column of (1+y) q is divisible by 1+y once, but the h^0 column
    # must be divisible n times: its second division leaves a remainder
    rng = random.Random(15)
    n = 3
    p = random_kpoly(rng, n, 3) * KPoly(n, (KClass.one(n), KClass.one(n)))
    once, first = ref_deflate([c.coeffs[0] for c in grr_transform(p).coeffs], -1)
    _, second = ref_deflate(once, -1)
    assert first == 0 and second != 0
    want = outcome(staged_csm, p)
    assert want[:4] == ("error", f"h^0 component is not divisible by (1+y)^{n}",
                        second, Fraction)
    assert outcome(csm_at_minus_one, p) == want


def test_fused_csm_matches_the_staged_pipeline():
    # the packed digit width's worst cases: n up to 19, coefficients up to
    # 10^30 and up to n + 4 y-rows, besides the exponent classes and zero
    rng = random.Random(12)
    errors = 0
    for i in range(300):
        n = rng.randint(0, 19)
        kind = i % 4
        if kind == 0:
            p = random_kpoly(rng, n, rng.randint(0, n + 3), rng.choice((0.2, 0.6, 1.0)),
                             rng.choice((20, 10 ** 30)))
        elif kind == 1:
            p = KPoly.zero(n)
        else:
            exps = [1] + [rng.randint(1, 12) for _ in range(n)]
            p = (mc_free_exponents if kind == 2 else log_class_free)(exps, n)
        want = outcome(staged_csm, p)
        assert outcome(csm_at_minus_one, p) == want
        if want[0] == "ok":
            assert all(type(v) is Fraction for v in csm_at_minus_one(p).coeffs)
        errors += want[0] == "error"
    assert 30 < errors < 75


def test_chern_product_matches_fraction_product():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(0, 10)
        exps = [rng.choice((rng.randint(-5, 30), F(rng.randint(1, 9) * 2, 2)))
                for _ in range(rng.randint(0, 12))]
        want = CohClass.one(n)
        for e in exps:
            want = want * CohClass(n, (1, 1 - e))
        got = chern_class_free_exponents(exps, n)
        assert got == want
        assert cohclass_to_json(got) == cohclass_to_json(want)
        assert all(type(v) is Fraction for v in got.coeffs)


def test_product_remainder_matches_exact_division():
    # no head is s (e = 1): at y = -1 each factor is a multiple of 1 - s, so
    # only n + 1 or more factors make the product divisible by 1 + y
    rng = random.Random(14)
    errors = 0
    for _ in range(150):
        n = rng.randint(1, 8)
        exps = [rng.choice((0, 2, 3, 4, 7, 11)) for _ in range(rng.randint(1, n + 2))]
        mc_heads = rng.random() < 0.5
        heads = [(1, e) if mc_heads else _binomial_row(e, n) for e in exps]
        factor = mc_factor if mc_heads else log_factor_any
        prod = KPoly.one(n)
        for e in exps:
            prod = ref_kpoly_mul(prod, factor(e, n))
        try:
            want = ("ok", exact_div_one_plus_y(prod))
        except DivisionRemainderError as err:
            want = ("error", str(err), err.remainder, err.details)
        try:
            # 1 + e tau <= (1+tau)^e coefficientwise, so the width holds for both
            width = _product_width(n, sum(exps))
            got = ("ok", _over_one_plus_y(_product_rows(heads, n, width), n, width))
        except DivisionRemainderError as err:
            got = ("error", str(err), err.remainder, err.details)
        assert got == want
        errors += want[0] == "error"
    assert 90 < errors < 150


# --- the bench's exponent sets ---------------------------------------------------

EXPONENTS = [(name, exps) for sets in EXPONENT_SETS.values() for name, exps in sets.items()]


def ref_exponent_product(exps, factor):
    n = len(exps) - 1
    prod = KPoly.one(n)
    for e in sorted(exps):
        prod = ref_kpoly_mul(prod, factor(e, n))
    return exact_div_one_plus_y(prod)


def mc_factor(e, n):
    return KPoly(n, (KClass(n, (1 - e, e)), KClass(n, (0, 1))))


def log_factor(e, n):
    return KPoly(n, (KClass(n, [0] * e + [1]), KClass(n, (0, 1))))


@pytest.mark.parametrize("name,exps", EXPONENTS, ids=[name for name, _ in EXPONENTS])
def test_exponent_sets_match_reference(name, exps):
    n = len(exps) - 1
    chi = [1]
    for e in exps:
        chi = [a - e * b for a, b in zip(chi + [0], [0] + chi)]
    assert mc_complement_charpoly(IntPolynomial(chi), n) == ref_charpoly_route(chi, n)
    for lib, factor in ((mc_free_exponents, mc_factor), (log_class_free, log_factor)):
        got = lib(exps, n)
        assert got == ref_exponent_product(exps, factor)
        g = grr_transform(got)
        assert_same_cohpoly(g, ref_grr_transform(got))
        nm = normalize(g)
        assert_same_cohpoly(nm, ref_normalize(g))
        cd = clear_denominator(nm)
        assert_same_cohpoly(cd, ref_clear_denominator(nm))
        assert csm_at_minus_one(got) == cd.at_y(-1)


# --- the packed exponent-product kernel -------------------------------------------

def ref_s_power(e, n):
    """s^e reduced, by squaring with the pairwise reference product."""
    result, base = ref_reduce((1,), n), ref_reduce((0, 1), n)
    while e:
        if e & 1:
            result = ref_kclass_mul(result, base, n)
        base = ref_kclass_mul(base, base, n)
        e >>= 1
    return result


def log_factor_any(e, n):
    """s^e + s y for any e; ``log_factor`` writes s^e out, so e must be small."""
    return KPoly(n, (KClass(n, ref_s_power(e, n)), KClass(n, (0, 1))))


def ref_swap_s_basis(coeffs, n):
    """Horner's rule, one product by 1 - x per term."""
    out = [0] * (n + 1)
    for a in reversed(list(coeffs)[:n + 1]):
        out = [a + out[0]] + [u - v for u, v in zip(out[1:], out)]
    return out


exponent = st.one_of(st.integers(1, 60), st.integers(10 ** 11 - 50, 10 ** 11 + 50))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 20).flatmap(lambda n: st.lists(exponent, min_size=n, max_size=n)))
def test_exponent_products_match_reference(rest):
    exps = [1] + rest
    n = len(rest)
    assert mc_free_exponents(exps, n) == ref_exponent_product(exps, mc_factor)
    got = log_class_free(exps, n)
    assert got == ref_exponent_product(exps, log_factor_any)
    assert all(type(v) is int for c in got.coeffs for v in c.coeffs)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 19).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=n + 1, max_size=n + 1),
    st.integers(-10 ** 12, 10 ** 12).filter(bool))))
def test_charpoly_route_matches_reference_on_any_chi(chi):
    # chi need not split, nor have chi(1) = 0: the packed rows' signed digit
    # width must hold for any coefficients
    rest, lead = chi
    chi = rest + [lead]
    n = len(rest) - 1
    got = mc_complement_charpoly(IntPolynomial(chi), n)
    assert got == ref_charpoly_route(chi, n)
    assert all(type(c.coeffs) is tuple and len(c.coeffs) == n + 1 for c in got.coeffs)


def test_kernel_rows_are_stored_in_normal_form():
    # the kernels store their rows unchecked: each must be the tuple of
    # n + 1 ints that the KClass relation gives, or equality and hashing break
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(0, 19)
        exps = [1] + [rng.randint(1, 30) for _ in range(n)]
        chi = [1]
        for e in exps:
            chi = [a - e * b for a, b in zip(chi + [0], [0] + chi)]
        one_plus_y = KPoly(n, (KClass.one(n), KClass.one(n)))
        multiple = random_kpoly(rng, n, rng.randint(0, 4), bound=10 ** 6) * one_plus_y
        for p in (mc_free_exponents(exps, n), log_class_free(exps, n), omega_log_trivial(n),
                  mc_complement_charpoly(IntPolynomial(chi[::-1]), n),
                  exact_div_one_plus_y(multiple)):
            assert p.coeffs
            for c in p.coeffs:
                assert type(c.coeffs) is tuple and len(c.coeffs) == n + 1
                assert all(type(v) is int for v in c.coeffs)
                assert c.coeffs == KClass(n, c.coeffs).coeffs


def test_linear_operations_store_what_the_relation_gives():
    # sums, differences, negatives and scalar multiples are stored unchecked:
    # each must be the tuple, entry types included, that the relation gives
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(0, 19)
        for cls, scalars in ((KClass, [rng.randint(-10 ** 20, 10 ** 20), 0, -1]),
                             (CohClass, [rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 4)])):
            a, b = (cls(n, [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 3))
                            if cls is CohClass else rng.randint(-10 ** 30, 10 ** 30)
                            for _ in range(rng.randint(0, 2 * n + 2))]) for _ in range(2))
            pairs = [(a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)]),
                     (a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)]),
                     (-a, [-x for x in a.coeffs])]
            pairs += [(a * c, [x * c for x in a.coeffs]) for c in scalars]
            for got, raw in pairs:
                want = cls(n, raw).coeffs
                assert type(got) is cls and type(got.coeffs) is tuple
                assert got.coeffs == want and list(map(type, got.coeffs)) == list(map(type, want))
                assert hash(got) == hash(cls(n, raw))


def test_exponent_products_on_a_point():
    one = KPoly.one(0)
    assert mc_free_exponents([1], 0) == one == ref_exponent_product([1], mc_factor)
    assert log_class_free([1], 0) == one == ref_exponent_product([1], log_factor)


def test_all_ones_give_the_narrowest_digits():
    # every factor is s (1+y): both classes are s^{n+1} (1+y)^n
    for n in range(12):
        want = KPoly(n, [KClass(n, ref_s_power(n + 1, n)) * comb(n, k) for k in range(n + 1)])
        for lib in (mc_free_exponents, log_class_free):
            assert lib([1] * (n + 1), n) == want


def test_exponent_products_at_the_largest_dimension():
    n = MAX_AMBIENT_DIM - 1
    exps = list(range(1, n + 2))
    chi = [1]
    for e in exps:
        chi = [a - e * b for a, b in zip(chi + [0], [0] + chi)]
    assert mc_free_exponents(exps, n) == mc_complement_charpoly(IntPolynomial(chi[::-1]), n)
    # the general KPoly product, one factor at a time
    for lib, factor in ((mc_free_exponents, mc_factor), (log_class_free, log_factor)):
        prod = KPoly.one(n)
        for e in exps:
            prod = prod * factor(e, n)
        assert lib(exps, n) == exact_div_one_plus_y(prod)


def test_swap_s_basis_is_an_involution_on_the_first_n_plus_1():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 12)
        c = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(rng.randint(0, 2 * n + 3))]
        head = c[:n + 1] + [0] * (n + 1 - len(c[:n + 1]))
        once = _swap_s_basis(c, n)
        assert once == ref_swap_s_basis(c, n)
        assert len(once) == n + 1
        assert _swap_s_basis(once, n) == head


# --- the Taylor shift and packed division -------------------------------------------

def ref_shift_minus_one(coeffs, count):
    """sum_j c_j (x - 1)^j by binomial sums: out_i = sum_j C(j, i) (-1)^(j-i) c_j."""
    return [sum(comb(j, i) * (-1) ** (j - i) * c for j, c in enumerate(coeffs) if j >= i)
            for i in range(count)]


def test_shift_minus_one_matches_binomial_sums():
    rng = random.Random(16)
    for _ in range(400):
        length = rng.randint(0, 24)
        big = 1 << rng.randint(0, 90)
        c = [rng.randint(-big, big) for _ in range(length)]
        count = rng.randint(0, length + 4)
        assert shift_minus_one(c, count) == ref_shift_minus_one(c, count)


@pytest.mark.parametrize("coeffs", [
    [], [0], [0, 0, 0], [-1], [-5, -7, -1, -30], [-(1 << 40)] * 12,
    [1 << 20] * 9, [-(1 << 20)] * 9, [(-1) ** j * (1 << 33) for j in range(15)],
    [1 << 7, -(1 << 7), 1 << 7], [1, -1] * 10])
def test_shift_minus_one_edges(coeffs):
    # empty input, count past the length, all-negative rows and
    # coefficients of exactly +-2^k, where the digit width is tightest
    for count in (0, 1, len(coeffs), len(coeffs) + 3):
        assert shift_minus_one(coeffs, count) == ref_shift_minus_one(coeffs, count)


def test_unpack_reads_balanced_digits():
    rng = random.Random(17)
    for _ in range(300):
        width = rng.randint(2, 80)
        half = 1 << width - 1
        digits = [rng.choice((-half, half - 1, 0, rng.randint(-half, half - 1)))
                  for _ in range(rng.randint(0, 20))]
        value = sum(d << width * i for i, d in enumerate(digits))
        assert unpack(value, width, len(digits) + 2) == digits + [0, 0]


def test_packed_deflate_matches_column_deflate():
    # deflate on packed y-rows equals deflate on each digit's column,
    # while every digit of the quotient and remainder stays in range
    rng = random.Random(18)
    exact = 0
    for _ in range(200):
        ncols, nrows = rng.randint(1, 10), rng.randint(0, 8)
        big = 1 << rng.randint(0, 50)
        rows = [[rng.randint(-big, big) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3 and nrows:
            # make the rows divisible by 1+y
            rows.append([-sum((-1) ** k * r[j] for k, r in enumerate(rows)) * (-1) ** nrows
                         for j in range(ncols)])
        width = big.bit_length() + (nrows + 1).bit_length() + 2
        packed = [sum(c << width * j for j, c in enumerate(r)) for r in rows]
        quotient, remainder = deflate(packed, -1)
        columns = [deflate([r[j] for r in rows], -1) for j in range(ncols)]
        assert unpack(remainder, width, ncols) == [rem for _, rem in columns]
        assert (remainder == 0) == all(rem == 0 for _, rem in columns)
        assert [unpack(q, width, ncols) for q in quotient] == [
            list(t) for t in zip(*(q for q, _ in columns))]
        exact += remainder == 0
    assert 40 < exact < 100


def strip_content_by_loop(row):
    """``_strip_content`` as it was: the content by a gcd loop over the entries."""
    g = 0
    for v in row:
        g = gcd(g, v)
    if g > 1:
        row = [v // g for v in row]
    for v in row:
        if v:
            if v < 0:
                row = [-u for u in row]
            break
    return row


entries = st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30) | st.just(0)


@settings(max_examples=300, deadline=None)
@given(st.lists(entries, min_size=1, max_size=7) | st.lists(st.just(0), min_size=1, max_size=4)
       | st.lists(entries, min_size=1, max_size=7).map(lambda row: [6 * v for v in row]))
def test_strip_content_matches_the_gcd_loop(row):
    expected = strip_content_by_loop(list(row))
    assert list(_strip_content(list(row))) == expected
    assert list(_strip_content(tuple(row))) == expected


@pytest.mark.parametrize("row,expected", [([0], [0]), ([0, 0, 0], [0, 0, 0]), ([-7], [1]),
                                          ([5], [1]), ([0, -4, 6], [0, 2, -3]),
                                          ([0, 0, -1], [0, 0, 1])])
def test_strip_content_edges(row, expected):
    assert list(_strip_content(row)) == expected == strip_content_by_loop(row)
