"""Todd transformation and Hirzebruch normalisation on projective space.

Cohomology classes live in Q[h]/(h^{n+1}) with h the hyperplane class; all
series (the exponential, the Todd series) are expanded with exact rational
coefficients, so the evaluation at y = -1 witnesses cancellations exactly.

The pipeline for a K-theory polynomial p(y):

  1. ``grr_transform``: apply the Chern character (the ring map s -> e^{-h})
     coefficientwise in y and multiply by the Todd class
     (h/(1-e^{-h}))^{n+1} of the tangent bundle;
  2. ``normalize``: rescale the h^j component (a cycle of dimension n-j) by
     (1+y)^{-(n-j)}, kept as explicit (numerator, denominator-power)
     bookkeeping;
  3. ``clear_denominator``: divide the denominator power out exactly, with a
     hard error on a nonzero remainder;
  4. evaluate at y = -1: for motivic input this is the
     Chern-Schwartz-MacPherson class of the corresponding constructible set.

Step 3 makes "the normalised class is an honest polynomial in y" a tested
statement rather than an assumption; the classical limit argument for
y -> -1 is subsumed by exact division.

Steps 1-3 compute on integers.  The h^j component of a CohPoly is a
polynomial in y with rational coefficients; each step writes it as integer
numerators over one denominator (the lcm of its denominators, or m! times
the Todd denominator for the h^m column of step 1), multiplies or divides
the numerators by (1+y) and forms Fractions only for the result.  Division
by the monic 1+y keeps the numerators integral, and its remainder over the
same denominator is the rational remainder.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul

from ._poly import _Truncated, _YPoly, deflate, exact_scalar
from .errors import DivisionRemainderError, ValidationError


_ZERO = Fraction(0)


def _truncate(coeffs, n):
    # integer zeros, such as the padding of from_columns, share one Fraction
    c = [v if type(v) is Fraction else _ZERO if type(v) is int and not v
         else exact_scalar(v, rational=True) for v in coeffs[:n + 1]]
    c.extend([_ZERO] * (n + 1 - len(c)))
    return tuple(c)


class CohClass(_Truncated):
    """Element of Q[h]/(h^{n+1}): exact rational coefficients, length n+1."""

    __slots__ = ()
    _scalars = (int, Fraction)
    _relation = staticmethod(_truncate)

    @staticmethod
    def _product(xs, ys):
        # only the degrees below n+1 survive the truncation
        width = len(xs)
        prod = [Fraction(0)] * width
        for i, a in enumerate(xs):
            if not a:
                continue
            for j in range(width - i):
                b = ys[j]
                if b:
                    prod[i + j] += a * b
        return prod

    def __repr__(self):
        return f"CohClass(n={self.n}, coeffs={[str(c) for c in self.coeffs]})"


class CohPoly(_YPoly):
    """Polynomial in y with CohClass coefficients, divided by (1+y)^delta.

    The stored coefficients are the numerator; ``delta`` >= 0 is the
    denominator exponent.  With delta = 0 the value is an honest polynomial.
    """

    __slots__ = ("delta",)
    _ring = CohClass

    def __init__(self, n, coeffs=(), delta=0):
        if delta < 0:
            raise ValidationError("denominator exponent must be >= 0")
        super().__init__(n, coeffs)
        self.delta = delta

    def at_y(self, value):
        if self.delta != 0:
            raise ValidationError("clear the denominator before evaluating")
        return super().at_y(value)

    def __eq__(self, other):
        return super().__eq__(other) and self.delta == other.delta

    def __repr__(self):
        return f"CohPoly(n={self.n}, y_degree={self.y_degree}, delta={self.delta})"


def _chern_numerators(coeffs, n):
    """A_j = sum_k a_k (-k)^j for j = 0..n, so ch(sum_k a_k s^k) = sum_j A_j/j! h^j."""
    terms = list(coeffs)
    steps = [-k for k in range(len(terms))]
    out = []
    for _ in range(n + 1):
        out.append(sum(terms))
        terms = list(map(mul, terms, steps))
    return out


def chern_character(c):
    """Chern character of a KClass: the ring map determined by s -> e^{-h}.

    It is linear in the s-power basis: s^k maps to e^{-kh}, so the h^j
    coefficient of ch(sum_k a_k s^k) is (-1)^j/j! * sum_k a_k k^j.
    """
    return CohClass(c.n, [Fraction(a, factorial(j))
                          for j, a in enumerate(_chern_numerators(c.coeffs, c.n))])


@lru_cache(maxsize=64)
def todd_class(n):
    """Todd class of the tangent bundle of P^n: (h/(1-e^{-h}))^{n+1}.

    1 - e^{-h} = h * sum_j (-1)^j h^j/(j+1)!, so the base series is the
    exact reciprocal of that sum.  The class is computed once per n.
    """
    denom = [Fraction((-1) ** j, factorial(j + 1)) for j in range(n + 1)]
    inv = [Fraction(0)] * (n + 1)
    inv[0] = Fraction(1)
    for k in range(1, n + 1):
        inv[k] = -sum(denom[i] * inv[k - i] for i in range(1, k + 1))
    return CohClass(n, inv) ** (n + 1)


def _over_lcm(values):
    """Integer numerators of the Fractions ``values`` over the lcm of their denominators."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _fractions(nums, den):
    """The Fractions nums[i]/den, the inverse of ``_over_lcm``."""
    return [Fraction(v, den) if v else _ZERO for v in nums]


def grr_transform(p):
    """Chern character coefficientwise in y, times the Todd class of P^n.

    With ch(c) = sum_j A_j/j! h^j and td = sum_i T_i/D h^i, the h^m
    coefficient of ch(c)*td is sum_j A_j T_{m-j} (m!/j!) over m! D.
    """
    n = p.n
    todd, den = _over_lcm(todd_class(n).coeffs)
    facts = [factorial(m) for m in range(n + 1)]
    weights = [[todd[m - j] * (facts[m] // facts[j]) for j in range(m + 1)]
               for m in range(n + 1)]
    denoms = [f * den for f in facts]
    rows = []
    for c in p.coeffs:
        chern = _chern_numerators(c.coeffs, n)
        rows.append(CohClass(n, [Fraction(sum(map(mul, chern, w)), d)
                                 for w, d in zip(weights, denoms)]))
    return CohPoly(n, rows, delta=0)


def normalize(p):
    """Hirzebruch normalisation: rescale dimension-i parts by (1+y)^{-i}.

    The h^j component has dimension n-j, so it is multiplied by (1+y)^j in
    the numerator while the denominator exponent is set to n; the h^n
    component (dimension 0) is never rescaled.
    """
    if p.delta != 0:
        raise ValidationError("normalize expects a plain polynomial (delta = 0)")
    if p.is_zero():
        return CohPoly(p.n, (), delta=p.n)
    cols = []
    for j, col in enumerate(p.columns()):
        nums, den = _over_lcm(col)
        for _ in range(j):
            nums = [a + b for a, b in zip(nums + [0], [0] + nums)]
        cols.append(_fractions(nums, den))
    return CohPoly.from_columns(p.n, cols, delta=p.n)


def clear_denominator(p):
    """Divide the stored numerator by (1+y)^delta, exactly.

    Succeeding here is precisely the statement that the normalised class is
    a polynomial in y; a nonzero remainder raises with the remainder and the
    offending h-degree attached.
    """
    if p.delta == 0:
        return p
    out = []
    for j, col in enumerate(p.columns()):
        nums, den = _over_lcm(col)
        for _ in range(p.delta):
            nums, rem = deflate(nums, -1)
            if rem != 0:
                raise DivisionRemainderError(
                    f"h^{j} component is not divisible by (1+y)^{p.delta}",
                    remainder=Fraction(rem, den))
        out.append(_fractions(nums, den))
    return CohPoly.from_columns(p.n, out)


def csm_at_minus_one(p):
    """CSM-type class of a K-theory polynomial: the full pipeline at y = -1."""
    return clear_denominator(normalize(grr_transform(p))).at_y(-1)


def euler_characteristic(c):
    """Degree-0 (h^n) coefficient: the Euler characteristic of a CSM class."""
    return c.coeffs[c.n]


def chern_class_free_exponents(exps, n):
    """prod_i (1 + (1-e_i) h) truncated: the expected CSM class of the
    complement when the cone splits with the given exponents."""
    result = CohClass.one(n)
    for e in exps:
        result = result * CohClass(n, (1, 1 - exact_scalar(e)))
    return result


def _fraction_str(q):
    return str(q)


def cohclass_to_json(c):
    return {"n": c.n, "coeffs": [_fraction_str(v) for v in c.coeffs]}


def cohclass_from_json(data):
    return CohClass(data["n"], [Fraction(v) for v in data["coeffs"]])


def cohpoly_to_json(p):
    return {
        "n": p.n,
        "denominator_power": p.delta,
        "coeffs_y": [[_fraction_str(v) for v in c.coeffs] for c in p.coeffs],
    }


def cohpoly_from_json(data):
    n = data["n"]
    coeffs = [CohClass(n, [Fraction(v) for v in row]) for row in data["coeffs_y"]]
    return CohPoly(n, coeffs, delta=data["denominator_power"])
