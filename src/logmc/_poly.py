"""Code shared by the truncated rings, their y-polynomials and the renderers.

``_Element`` is what every ring value on projective n-space shares: the
dimension n, the coefficient tuple, equality, hashing, the repr and the ring
relation as its one normalising hook.  ``_Truncated`` is the arithmetic of a
ring of classes stored as n+1 coefficients in a fixed basis; a subclass
supplies the ring's relation.  ``_YPoly`` is a polynomial in y over such a ring.
``deflate`` is the one synthetic division in the package, ``render`` the
one renderer of polynomial text and ``exact_scalar`` the one check that an
input number is exact; ``check_dimension`` is the one check that a
projective dimension is one, ``check_type`` that an argument is a value of
the expected class, ``json_fields`` reads the keys of a JSON object and
``json_list`` checks that a value in one is a list.  ``MAX_LITERAL_DIGITS``
bounds the integer literals that both text parsers read, and
``int_literals`` reads those of the arrangement format and the CLI.
``shift_minus_one``, the Taylor shift p(x) -> p(x - 1), is the one change
of basis between powers of x and of x - 1: ``pack_minus_one`` is its
Horner pass and ``unpack`` reads the balanced digits of a packed
polynomial.
"""

from fractions import Fraction
from operator import add, neg, sub

from .errors import ValidationError

# Longest integer literal the parsers read: the interpreter's default
# int_max_str_digits, checked by length since a host may lift that limit.
MAX_LITERAL_DIGITS = 4300


def int_literals(tokens):
    """``int`` of each token, refusing with ValueError any token that is not
    an optional sign and at most ``MAX_LITERAL_DIGITS`` ASCII decimal digits
    (whitespace around it aside)."""
    text = "".join(tokens)
    # int() would also read "_", non-ASCII digits and, once a host lifts
    # int_max_str_digits, literals of any length
    if (not text.isascii() or "_" in text or len(text) > MAX_LITERAL_DIGITS
            and max(len(tok.strip().lstrip("+-")) for tok in tokens) > MAX_LITERAL_DIGITS):
        raise ValueError
    return [int(tok) for tok in tokens]


def exact_scalar(v, rational=False):
    """``v`` as an int, or as a Fraction when ``rational`` is true.

    A float is refused even when its value is whole, and so is any value
    the conversion would change (1.9 or Fraction(1, 2) as an int), so no
    input is silently rounded.  Text is refused as well, although
    ``Fraction`` would parse it: parsing is the caller's business.  A bool
    is not a number, although it is an int.
    """
    if type(v) is int:
        return Fraction(v) if rational else v
    if isinstance(v, bool):
        raise ValidationError(f"not a number: {v!r}")
    if isinstance(v, float):
        raise ValidationError(f"inexact number {v!r}: floats are not accepted")
    if rational and isinstance(v, str):
        raise ValidationError(f"not a number: {v!r}")
    try:
        exact = Fraction(v) if rational else int(v)
    except (TypeError, ValueError):
        raise ValidationError(f"not a number: {v!r}") from None
    if not rational and exact != v:
        raise ValidationError(f"{v!r} is not an integer")
    return exact


def json_fields(data, *keys):
    """The values of ``keys`` in the JSON object ``data``, in order.

    A value that is not an object, or an object without one of the keys,
    is refused with the key's name.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"expected a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValidationError(f"JSON object has no key {key!r}")
    return [data[key] for key in keys]


def json_list(value, name):
    """``value`` if it is a JSON list; anything else is refused by ``name``."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a JSON list, got {type(value).__name__}")
    return value


def check_dimension(n):
    """Refuse ``n`` unless it is a projective dimension: an int >= 0."""
    if type(n) is not int:
        raise ValidationError(f"projective dimension must be an integer, got {n!r}")
    if n < 0:
        raise ValidationError("projective dimension must be >= 0")


def check_type(value, cls):
    """Refuse ``value`` unless its type is exactly ``cls``, as ring operands are."""
    if type(value) is not cls:
        raise ValidationError(f"expected a {cls.__name__}, got {type(value).__name__}")


class _Element:
    """An element of a ring over P^n, stored as the tuple ``coeffs``.

    Subclasses define ``_relation(coeffs, n)``, the one normalising hook: it
    brings any coefficient list to the stored tuple.  Two operands must be
    of the same type on the same P^n.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=()):
        if type(n) is not int or n < 0:
            check_dimension(n)
        self.n = n
        self.coeffs = self._relation(coeffs, n)

    @classmethod
    def _from_normal(cls, n, coeffs):
        """An element storing ``coeffs`` unchecked: it must be the tuple that
        ``_relation`` returns (a list breaks equality and hashing)."""
        self = object.__new__(cls)
        self.n, self.coeffs = n, coeffs
        return self

    @classmethod
    def zero(cls, n):
        return cls(n)

    def _check(self, other):
        if type(other) is not type(self):
            raise ValidationError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.n != other.n:
            raise ValidationError(
                f"{type(self).__name__} operands live on different projective spaces")

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and self.n == other.n and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, coeffs={list(self.coeffs)})"


class _Truncated(_Element):
    """A class on P^n: ``coeffs`` holds n+1 basis coefficients.

    The relation brings any coefficient list (a product may be longer than
    n+1) to n+1 coefficients, and ``_scalars`` are the types multiplied
    coefficientwise: exactly these types, so a bool is no scalar.
    """

    __slots__ = ()
    _scalars = (int,)

    @classmethod
    def one(cls, n):
        return cls(n, (1,))

    # The relation maps n+1 scalars to themselves, and sums, negatives and
    # scalar multiples of stored coefficients are scalars of the same types,
    # so these results are stored as computed.
    def __add__(self, other):
        self._check(other)
        return self._from_normal(self.n, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return self._from_normal(self.n, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return self._from_normal(self.n, tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        if type(other) in self._scalars:
            return self._from_normal(self.n, tuple([a * other for a in self.coeffs]))
        if getattr(other, "_ring", None) is type(self) and hasattr(other, "__rmul__"):
            return NotImplemented  # a polynomial over this ring has its own product
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
        if type(k) is not int:
            raise ValidationError(
                f"{type(self).__name__} powers must be integers, got {k!r}")
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


class _YPoly(_Element):
    """Polynomial in y whose coefficients lie in the ring ``_ring``.

    Trailing zero coefficients are trimmed, so ``coeffs`` (ring values,
    each true) is empty exactly for the zero polynomial.
    """

    __slots__ = ()
    _ring = None

    def _relation(self, coeffs, n):
        coeffs = list(coeffs)
        for c in coeffs:
            if type(c) is not self._ring:
                raise ValidationError(
                    f"{type(self).__name__} coefficients must be {self._ring.__name__}"
                    f" values, got {type(c).__name__}")
            if c.n != n:
                raise ValidationError(
                    f"{type(self).__name__} coefficients live on different projective spaces")
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        return tuple(coeffs)

    @property
    def y_degree(self):
        return len(self.coeffs) - 1

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


def unpack(value, width, count):
    """The ``count`` lowest digits of ``value`` in [-2^(width-1), 2^(width-1)).

    These are the coefficients of a polynomial packed by x -> 2^width when
    every coefficient lies in that range.
    """
    base = 1 << width
    half = base >> 1
    mask = base - 1
    out = []
    for _ in range(count):
        d = value & mask
        value >>= width
        if d >= half:
            d -= base
            value += 1
        out.append(d)
    return out


def shift_minus_one(coeffs, count):
    """The first ``count`` coefficients of p(x - 1), for p = sum c_k x^k.

    One Horner pass at x = 2^w - 1 packs p(x - 1) at x = 2^w into one int,
    and its balanced digits are the coefficients.  Each one is a signed sum
    of at most 2^len(coeffs) copies of the largest |c_k|, so with
    w = bitlen(max |c_k|) + len(coeffs) + 2 no digit leaves its range.
    """
    width = max(map(abs, coeffs), default=0).bit_length() + len(coeffs) + 2
    return unpack(pack_minus_one(coeffs, width), width, count)


def pack_minus_one(coeffs, width):
    """p(2^width - 1) by Horner, for p = sum c_k x^k: p(x - 1) packed at x = 2^width."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << width) - acc + c
    return acc


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
