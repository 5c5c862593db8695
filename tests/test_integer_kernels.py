"""The integer kernels agree with the rational and pairwise code they replace.

The references below are the Fraction implementations of ``grr_transform``,
``normalize`` and ``clear_denominator``, the pairwise ``KPoly`` product
(one KClass product and one KClass sum per pair of y-coefficients) and the
term-by-term χ substitution of ``mc_complement_charpoly``, kept here in
substance as they were.  Results must be equal and serialise to the
same JSON; a failed division must raise the same message with the same
remainder.
"""

import random
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from logmc import (CohClass, CohPoly, DivisionRemainderError, IntPolynomial,
                   KClass, KPoly, clear_denominator, cohpoly_to_json,
                   csm_at_minus_one, exact_div_one_plus_y, grr_transform,
                   kpoly_to_json, log_class_free, mc_complement_charpoly,
                   mc_free_exponents, normalize)

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
        return ("ok", cohpoly_to_json(fn(p)))
    except DivisionRemainderError as e:
        return ("error", str(e), e.remainder, type(e.remainder), e.details)


def random_kpoly(rng, n, ydeg, density=1.0):
    rows = [KClass(n, [rng.randint(-20, 20) if rng.random() < density else 0
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
    for _ in range(40):
        n = rng.randint(0, 8)
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
