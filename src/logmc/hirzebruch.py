"""Todd transformation and Hirzebruch normalisation on projective space.

Cohomology classes live in Q[h]/(h^{n+1}) with h the hyperplane class, with
exact rational coefficients, so the evaluation at y = -1 witnesses
cancellations exactly.

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

Step 1 computes on integers: one integer matrix per dimension, the Taylor
coefficients of one integer polynomial at k = 0..n, applied to each
y-row's s-coefficients, gives the h^m column as numerators over
n!/(n-m)!.  Steps 2 and 3 are their plain definitions on the Fraction
columns of the h^j component: j products by (1+y), and delta synthetic
divisions by it.

``csm_at_minus_one``, what every command runs, does steps 1-4 as one
packed integer pass.  (1+y)^n divides (1+y)^j G_j exactly when
(1+y)^{n-j} divides G_j, that is when the first n-j Taylor coefficients of
the h^j column G_j at y = -1 vanish; coefficient n-j is then the
quotient's value at -1.  Each s-degree column of the input is packed once
at y = 2^w - 1 (Kronecker substitution, as in ``_poly.shift_minus_one``),
so one integer dot product with a row of the step-1 matrix is G_j there,
whose balanced base-2^w digits are those Taylor coefficients.  The check
and error are those of step 3, and one Fraction is formed per column.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, perm
from operator import mul

from ._poly import (_Truncated, _YPoly, check_dimension, check_type, deflate,
                    exact_scalar, json_fields, json_list, pack_minus_one,
                    shift_minus_one, unpack)
from .errors import DivisionRemainderError, ValidationError
from .kring import KPoly


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
        if type(delta) is not int or delta < 0:
            raise ValidationError(
                f"denominator exponent must be an integer >= 0, got {delta!r}")
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
    return CohClass(c.n, [Fraction(sum(a * (-k) ** j for k, a in enumerate(c.coeffs)),
                                   factorial(j)) for j in range(c.n + 1)])


@lru_cache(maxsize=64)
def _grr_matrix(n):
    """Integer rows, denominators and weight size of ch(s^k)*td(P^n), k = 0..n.

    e^{-kh} (h/(1-e^{-h}))^{n+1} is a Norlund polynomial in k: with
    P(x) = (x-1)(x-2)...(x-n) and c_j(k) the t^j coefficient of P(k + t),
    its h^m coefficient is (-1)^m c_{n-m}(k) over n!/(n-m)!; the h^n row is
    Riemann-Roch, C(n-k, n).  P(n+1-x) = (-1)^n P(x), so the Taylor
    coefficients at n+1 are those at 0 signed (-1)^{n+j}, and n shifts by
    -1 walk down to k = n, ..., 1.  Row m holds the h^m numerators for
    k = 0..n.  The weight size, the bit length of the largest |row entry|,
    enters the digit width of ``csm_at_minus_one``.
    """
    taylor = [1]
    for i in range(1, n + 1):
        taylor = [a - i * b for a, b in zip([0] + taylor, taylor + [0])]
    cols = [taylor] + [None] * n
    taylor = [v if (n + j) % 2 == 0 else -v for j, v in enumerate(taylor)]
    for k in range(n, 0, -1):
        taylor = cols[k] = shift_minus_one(taylor, n + 1)
    rows = [tuple(col[n - m] if m % 2 == 0 else -col[n - m] for col in cols)
            for m in range(n + 1)]
    return (rows, [perm(n, m) for m in range(n + 1)],
            max(abs(v) for row in rows for v in row).bit_length())


def todd_class(n):
    """Todd class of the tangent bundle of P^n: (h/(1-e^{-h}))^{n+1}.

    It is ch(1)*td, column k = 0 of ``_grr_matrix``.
    """
    check_dimension(n)
    rows, denoms, _ = _grr_matrix(n)
    return CohClass(n, [Fraction(row[0], d) for row, d in zip(rows, denoms)])


def grr_transform(p):
    """Chern character coefficientwise in y, times the Todd class of P^n.

    Row m of ``_grr_matrix`` applied to the s-coefficients of each
    y-coefficient of ``p`` gives its h^m numerator over n!/(n-m)!.
    """
    check_type(p, KPoly)
    rows, denoms, _ = _grr_matrix(p.n)
    ys = [c.coeffs for c in p.coeffs]
    return CohPoly.from_columns(
        p.n, [[Fraction(sum(map(mul, y, weights)), d) for y in ys]
              for weights, d in zip(rows, denoms)])


def normalize(p):
    """Hirzebruch normalisation: rescale dimension-i parts by (1+y)^{-i}.

    The h^j component has dimension n-j, so it is multiplied by (1+y)^j in
    the numerator while the denominator exponent is set to n; the h^n
    component (dimension 0) is never rescaled.
    """
    check_type(p, CohPoly)
    if p.delta != 0:
        raise ValidationError("normalize expects a plain polynomial (delta = 0)")
    if p.is_zero():
        return CohPoly(p.n, (), delta=p.n)
    cols = []
    for j, col in enumerate(p.columns()):
        for _ in range(j):
            col = [a + b for a, b in zip(col + [_ZERO], [_ZERO] + col)]
        cols.append(col)
    return CohPoly.from_columns(p.n, cols, delta=p.n)


def _check_remainder(rem, j, delta):
    """Refuse a nonzero remainder of the h^j column divided by (1+y)^delta."""
    if rem:
        raise DivisionRemainderError(
            f"h^{j} component is not divisible by (1+y)^{delta}", remainder=rem)


def clear_denominator(p):
    """Divide the stored numerator by (1+y)^delta, exactly.

    Succeeding here is precisely the statement that the normalised class is
    a polynomial in y; a nonzero remainder raises with the remainder and the
    offending h-degree attached.
    """
    check_type(p, CohPoly)
    if p.delta == 0:
        return p
    out = []
    for j, col in enumerate(p.columns()):
        for _ in range(p.delta):
            col, rem = deflate(col, -1)
            _check_remainder(rem, j, p.delta)
        out.append(col)
    return CohPoly.from_columns(p.n, out)


def csm_at_minus_one(p):
    """CSM-type class of a K-theory polynomial: the full pipeline at y = -1.

    Equal to ``clear_denominator(normalize(grr_transform(p))).at_y(-1)``,
    failing with the same error, in one packed integer pass before any
    Fraction is formed.  The Taylor coefficients g_0, g_1, ... of the h^j
    numerator column G_j at y = -1 are the successive remainders of
    dividing it by (1+y): the first nonzero one among g_0..g_{n-j-1} is the
    remainder the staged division raises, and g_{n-j} is the quotient's
    value at -1.

    Each s-degree column of ``p`` over y is packed by Horner at
    y = 2^w - 1, and G_j is linear in those columns, so the dot product of
    row j of ``_grr_matrix`` with the packed columns is G_j(2^w - 1), that
    is G_j(x - 1) packed at x = 2^w: its balanced base-2^w digits are
    g_0, g_1, ...  They are exact while every |g_m| < 2^(w-1).  G_j has
    ylen = #y-rows coefficients, each a sum of n+1 products of a weight
    and a coefficient of ``p``, and g_m = sum_k C(k, m) (-1)^(k-m) G_{j,k},
    so |g_m| <= 2^ylen (n+1) max|weight| max|c|.  With
    w = bitlen(max|c|) + bitlen(max|weight|) + bitlen(n+1) + ylen + 2 that
    is below 2^(w-2).
    """
    check_type(p, KPoly)
    n = p.n
    rows, denoms, weight_bits = _grr_matrix(n)
    cmax = max((max(map(abs, c.coeffs)) for c in p.coeffs), default=0)
    width = (cmax.bit_length() + weight_bits + (n + 1).bit_length()
             + len(p.coeffs) + 2)
    packed = [pack_minus_one(col, width) for col in p.columns()]
    out = []
    for j, (weights, den) in enumerate(zip(rows, denoms)):
        *rems, value = unpack(sum(map(mul, weights, packed)), width, n - j + 1)
        rem = next(filter(None, rems), 0)
        # a Fraction only for a refusal: Fraction(0, den) costs a microsecond
        _check_remainder(rem and Fraction(rem, den), j, n)
        out.append(Fraction(value, den))
    return CohClass(n, out)


def euler_characteristic(c):
    """Degree-0 (h^n) coefficient: the Euler characteristic of a CSM class."""
    return c.coeffs[c.n]


def chern_class_free_exponents(exps, n):
    """prod_i (1 + (1-e_i) h) truncated: the expected CSM class of the
    complement when the cone splits with the given exponents.

    The h^k coefficient is the k-th elementary symmetric function of the
    integers 1 - e_i, accumulated on ints up to k = n.
    """
    check_dimension(n)
    elem = [1] + [0] * n
    for e in exps:
        a = 1 - exact_scalar(e)
        for k in range(n, 0, -1):
            elem[k] += a * elem[k - 1]
    return CohClass(n, elem)


def cohclass_to_json(c):
    return {"n": c.n, "coeffs": [str(v) for v in c.coeffs]}


def _json_scalar(v):
    """A JSON coefficient: text as written by ``str(Fraction)``, else an exact number."""
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"not a number: {v!r}") from None
    return exact_scalar(v, rational=True)


def cohclass_from_json(data):
    n, coeffs = json_fields(data, "n", "coeffs")
    return CohClass(n, [_json_scalar(v) for v in json_list(coeffs, "'coeffs'")])


def cohpoly_to_json(p):
    check_type(p, CohPoly)
    return {
        "n": p.n,
        "denominator_power": p.delta,
        "coeffs_y": [[str(v) for v in c.coeffs] for c in p.coeffs],
    }


def cohpoly_from_json(data):
    n, rows, delta = json_fields(data, "n", "coeffs_y", "denominator_power")
    coeffs = [CohClass(n, [_json_scalar(v) for v in json_list(row, "a row of 'coeffs_y'")])
              for row in json_list(rows, "'coeffs_y'")]
    return CohPoly(n, coeffs, delta=delta)
