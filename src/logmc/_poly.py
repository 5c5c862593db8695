"""Code shared by the truncated rings, their y-polynomials and the renderers.

``_Truncated`` is the arithmetic of a ring of classes on projective n-space
stored as n+1 coefficients in a fixed basis; a subclass supplies the ring's
relation.  ``_YPoly`` is a polynomial in y over such a ring.  ``deflate`` is
the one synthetic division in the package, ``render`` the one renderer
of polynomial text and ``exact_scalar`` the one check that an input number
is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError


def exact_scalar(v, rational=False):
    """``v`` as an int, or as a Fraction when ``rational`` is true.

    A float is refused even when its value is whole, and so is any value
    the conversion would change (1.9 or Fraction(1, 2) as an int), so no
    input is silently rounded.
    """
    if isinstance(v, float):
        raise ValidationError(f"inexact number {v!r}: floats are not accepted")
    try:
        exact = Fraction(v) if rational else int(v)
    except (TypeError, ValueError):
        raise ValidationError(f"not a number: {v!r}") from None
    if not rational and exact != v:
        raise ValidationError(f"{v!r} is not an integer")
    return exact


class _Truncated:
    """A class on P^n: ``coeffs`` holds n+1 basis coefficients.

    Subclasses define ``_relation(coeffs, n)``, which brings any coefficient
    list (a product may be longer than n+1) to the stored tuple, and
    ``_scalars``, the types multiplied coefficientwise.  A ring whose
    relation drops the high degrees may also replace ``_product`` by one
    that never forms them.
    """

    __slots__ = ("n", "coeffs")
    _scalars = (int,)

    def __init__(self, n, coeffs=()):
        if n < 0:
            raise ValidationError("projective dimension must be >= 0")
        self.n = n
        self.coeffs = self._relation(coeffs, n)

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, (1,))

    def _check(self, other):
        if self.n != other.n:
            raise ValidationError(
                f"{type(self).__name__} operands live on different projective spaces")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return type(self)(self.n, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return type(self)(self.n, [a * other for a in self.coeffs])
        self._check(other)
        return type(self)(self.n, self._product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    @staticmethod
    def _product(xs, ys):
        prod = [0] * (len(xs) + len(ys) - 1)
        for i, a in enumerate(xs):
            if not a:
                continue
            for j, b in enumerate(ys):
                if b:
                    prod[i + j] += a * b
        return prod

    def __pow__(self, k):
        if k < 0:
            raise ValidationError(
                f"negative {type(self).__name__} powers are not defined in general")
        result = self.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and self.n == other.n and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n, self.coeffs))


class _YPoly:
    """Polynomial in y whose coefficients lie in the ring ``_ring``.

    Trailing zero coefficients are trimmed, so ``coeffs`` is empty exactly
    for the zero polynomial.
    """

    __slots__ = ("n", "coeffs")
    _ring = None

    def __init__(self, n, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            if c.n != n:
                raise ValidationError(
                    f"{type(self).__name__} coefficients live on different projective spaces")
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.n = n
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, n):
        return cls(n)

    @property
    def y_degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self._ring.zero(self.n)

    def at_y(self, value):
        """Evaluate at a scalar y, landing in the coefficient ring."""
        result = self._ring.zero(self.n)
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def columns(self):
        """One y-coefficient list per basis degree 0..n."""
        return [[c.coeffs[j] for c in self.coeffs] for j in range(self.n + 1)]

    @classmethod
    def from_columns(cls, n, cols, **kwargs):
        """Inverse of ``columns``; the lists may have different lengths."""
        ylen = max(map(len, cols), default=0)
        ring = cls._ring
        coeffs = [ring(n, [col[k] if k < len(col) else 0 for col in cols])
                  for k in range(ylen)]
        return cls(n, coeffs, **kwargs)

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and self.n == other.n and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n, self.coeffs))


def deflate(coeffs, root):
    """Synthetic division of sum c_k t^k by (t - root).

    ``coeffs`` is in ascending degree; returns (quotient coefficients in
    ascending degree, remainder).  The remainder is the value at ``root``.
    """
    quotient = []
    carry = 0
    for c in reversed(coeffs):
        carry = carry * root + c
        quotient.append(carry)
    remainder = quotient.pop() if quotient else 0
    quotient.reverse()
    return quotient, remainder


def power(symbol, k):
    """Text of symbol^k: empty for k = 0, the bare symbol for k = 1."""
    if k == 0:
        return ""
    return symbol if k == 1 else f"{symbol}^{k}"


def render(terms):
    """Text of a sum of (coefficient, monomial) pairs, in the order given.

    Zero coefficients are skipped, a unit coefficient is omitted in front of
    a monomial (an empty monomial is the constant term) and the empty sum
    is "0".
    """
    parts = []
    for c, mono in terms:
        if c == 0:
            continue
        mag = abs(c)
        if not mono:
            term = str(mag)
        elif mag == 1:
            term = mono
        else:
            term = f"{mag}*{mono}"
        if parts:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
        else:
            parts.append(term if c > 0 else f"-{term}")
    return " ".join(parts) or "0"
