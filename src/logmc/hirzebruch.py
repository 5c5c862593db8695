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
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from ._poly import _Truncated, _YPoly, deflate
from .errors import DivisionRemainderError, ValidationError


def _truncate(coeffs, n):
    c = [Fraction(v) for v in coeffs[:n + 1]]
    c.extend([Fraction(0)] * (n + 1 - len(c)))
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


def chern_character(c):
    """Chern character of a KClass: the ring map determined by s -> e^{-h}.

    It is linear in the s-power basis: s^k maps to e^{-kh}, so the h^j
    coefficient of ch(sum_k a_k s^k) is (-1)^j/j! * sum_k a_k k^j.
    """
    return CohClass(c.n, [
        Fraction((-1) ** j * sum(a * k ** j for k, a in enumerate(c.coeffs) if a),
                 factorial(j))
        for j in range(c.n + 1)])


def todd_class(n):
    """Todd class of the tangent bundle of P^n: (h/(1-e^{-h}))^{n+1}.

    1 - e^{-h} = h * sum_j (-1)^j h^j/(j+1)!, so the base series is the
    exact reciprocal of that sum.
    """
    denom = [Fraction((-1) ** j, factorial(j + 1)) for j in range(n + 1)]
    inv = [Fraction(0)] * (n + 1)
    inv[0] = Fraction(1)
    for k in range(1, n + 1):
        inv[k] = -sum(denom[i] * inv[k - i] for i in range(1, k + 1))
    return CohClass(n, inv) ** (n + 1)


def grr_transform(p):
    """Chern character coefficientwise in y, times the Todd class of P^n."""
    td = todd_class(p.n)
    return CohPoly(p.n, [chern_character(c) * td for c in p.coeffs], delta=0)


def _y_mul_binomial(col, j):
    """Multiply a y-polynomial (list of Fractions) by (1+y)^j."""
    out = [Fraction(0)] * (len(col) + j)
    for k, a in enumerate(col):
        if not a:
            continue
        for i in range(j + 1):
            out[k + i] += a * comb(j, i)
    return out


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
    cols = [_y_mul_binomial(col, j) for j, col in enumerate(p.columns())]
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
        for _ in range(p.delta):
            col, rem = deflate(col, -1)
            if rem != 0:
                raise DivisionRemainderError(
                    f"h^{j} component is not divisible by (1+y)^{p.delta}",
                    remainder=rem)
        out.append(col)
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
        result = result * CohClass(n, (1, 1 - int(e)))
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
