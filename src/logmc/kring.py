"""Exact arithmetic in the Grothendieck group of projective n-space.

The group of coherent-sheaf classes on P^n is Z[s]/((1-s)^{n+1}) with
s = [O(-1)]; a ``KClass`` is the reduced representative in the s-power
basis.  A ``KPoly`` is a polynomial in the parameter y with KClass
coefficients, and a product of two KPolys is the schoolbook sum of KClass
products.

Every class below is built as the packed y-rows of its numerator over
(1+y).  In tau = s - 1 the relation is tau^{n+1} = 0, plain truncation, so
each y-row is one int, tau -> 2^w, truncated by a mask:

  * every motivic Chern class is the chi substitution, with 1 - s = -tau,
    by Horner's rule in 1 + s y = 1 + (1+tau) y: one shift-add per row and
    step, with signed digits (``_chi_rows``);
  * the log class is a product of factors s^e + s y, whose heads
    s^e = (1+tau)^e have nonnegative tau-coefficients: a factor costs one
    int product and mask per row, and no digit carries (``_product_rows``);
  * the difference packs both numerators at one width and subtracts them.

All of them end in one tail: ``_poly.deflate`` divides the packed rows by
(1+y) with the mandatory zero-remainder check, and each quotient row is
read into the s basis once, as the balanced digits of one Horner pass at
tau = 2^W - 1 (that is, s = 2^W).  Each digit width is proved where it is
computed.  The change between the s and 1-s bases is the Taylor shift
``_poly.shift_minus_one`` after negating the odd coefficients.

On top of this the module computes, for a central arrangement with
intersection lattice L and characteristic polynomial chi:

  * the motivic Chern class of the arrangement complement, the substitution
    sum_j chi_j (1+sy)^j (1-s)^{n+1-j} / (1+y): grouped by dimension, the
    lattice sum of mobius(x) (1-s)^{n-dim(x)+1} (1+sy)^{dim(x)} / (1+y), and
    at chi = prod_i (t - e_i) the exponent product prod_i (1-e_i + (e_i+y)s) / (1+y);
  * the twisted total logarithmic-form class
    prod_i (s^{e_i} + s y) / (1+y)  from a splitting with exponents e_i;
  * the difference of the two.

``exact_div_one_plus_y`` divides any KPoly column by column, with the same
check.  The rows built here are normal already, n+1 ints in the s basis,
so they are stored as built, with no second pass of the relation.
The substitution of (1+sy)/(1-s) into chi is always performed in
homogenised form; the nilpotent 1-s is never inverted.

All values are immutable and all functions are pure.
"""

from math import comb

from ._poly import (_Truncated, _YPoly, check_dimension, check_type, deflate,
                    exact_scalar, json_fields, json_list, pack_minus_one,
                    shift_minus_one, unpack)
from .arrangement import (IntersectionLattice, IntPolynomial,
                          characteristic_polynomial)
from .errors import DivisionRemainderError, ValidationError


def _relation_row(n):
    """Coefficients of (s-1)^{n+1} in ascending degree."""
    return tuple(comb(n + 1, k) * (-1) ** (n + 1 - k) for k in range(n + 2))


def _reduce_mod_relation(coeffs, n):
    """Remainder of an integer polynomial in s modulo (s-1)^{n+1}."""
    c = [v if type(v) is int else exact_scalar(v) for v in coeffs]
    if len(c) > n + 1:
        rel = _relation_row(n)
        for d in range(len(c) - 1, n, -1):
            lead = c[d]
            if lead:
                base = d - (n + 1)
                c[base:d + 1] = [a - lead * b for a, b in zip(c[base:d + 1], rel)]
        del c[n + 1:]
    c.extend([0] * (n + 1 - len(c)))
    return tuple(c)


def _swap_s_basis(coeffs, n):
    """The first n+1 coefficients in the other of the bases s^j and (1-s)^j.

    The change of basis is the involution substituting s = 1 - (1-s), so
    one map goes both ways: c(1 - x) = r(x - 1) for r(x) = c(-x), the odd
    coefficients negated and then one Taylor shift by -1.  A shorter input
    is padded with zeros.
    """
    c = [v if type(v) is int else exact_scalar(v) for v in list(coeffs)[:n + 1]]
    c[1::2] = [-v for v in c[1::2]]
    return shift_minus_one(c, n + 1)


class KClass(_Truncated):
    """A coherent-sheaf class on P^n in the s-power basis, s = [O(-1)].

    ``coeffs`` has length n+1 and is already reduced modulo (1-s)^{n+1}.
    """

    __slots__ = ()

    _relation = staticmethod(_reduce_mod_relation)

    def in_one_minus_s_basis(self):
        """Coefficients with respect to powers of (1-s), length n+1."""
        return tuple(_swap_s_basis(self.coeffs, self.n))

    @classmethod
    def from_one_minus_s_basis(cls, n, coeffs):
        check_dimension(n)
        return cls(n, _swap_s_basis(coeffs, n))


class KPoly(_YPoly):
    """Polynomial in y with KClass coefficients; trailing zeros trimmed."""

    __slots__ = ()
    _ring = KClass

    @classmethod
    def one(cls, n):
        return cls(n, (KClass.one(n),))

    def __add__(self, other):
        self._check(other)
        m = max(len(self.coeffs), len(other.coeffs))
        return KPoly(self.n, [self.coefficient(k) + other.coefficient(k) for k in range(m)])

    def __sub__(self, other):
        self._check(other)
        m = max(len(self.coeffs), len(other.coeffs))
        return KPoly(self.n, [self.coefficient(k) - other.coefficient(k) for k in range(m)])

    def __neg__(self):
        return KPoly(self.n, [-c for c in self.coeffs])

    def __mul__(self, other):
        if type(other) in (int, KClass):
            return KPoly(self.n, [c * other for c in self.coeffs])
        self._check(other)
        rows = [KClass.zero(self.n)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                rows[i + j] += a * b
        return KPoly(self.n, rows)

    __rmul__ = __mul__


def kclass_O(k, n):
    """Class of the twisting sheaf O(k), i.e. s^{-k} reduced: O(k) on P^n
    pushed forward to itself."""
    return kclass_linear_subspace(n, k, n)


def kclass_linear_subspace(m, k, n):
    """Pushforward class of O(k) on a linear P^m inside P^n.

    Koszul resolution of the subspace gives (1 - s)^{n-m} * s^{-k}, that is
    (-tau)^{n-m} (1+tau)^{-k}: the tau-row C(-k, j), j <= m, of
    ``_binomial_row`` for every integer k, shifted by n-m places, signed, and
    read into the s basis by one Taylor shift.
    """
    check_dimension(n)
    if type(m) is not int or not 0 <= m <= n:
        raise ValidationError(f"subspace dimension must be an integer in [0, {n}], got {m!r}")
    if type(k) is not int:
        k = exact_scalar(k)
    sign = (-1) ** (n - m)
    row = [0] * (n - m) + [sign * c for c in _binomial_row(-k, m)]
    return KClass._from_normal(n, tuple(shift_minus_one(row, n + 1)))


def exact_div_one_plus_y(num):
    """Exact synthetic division of a KPoly by (1+y).

    Division by (1+y) is linear, so it runs on each s-degree's column of
    integer coefficients, and each quotient row becomes one KClass.  The
    remainder is the value at y = -1; if it is nonzero the division is
    refused and the remainder is attached to the raised error.
    """
    check_type(num, KPoly)
    quotients, remainders = zip(*(deflate(col, -1) for col in num.columns()))
    if any(remainders):
        raise DivisionRemainderError(
            "class is not divisible by 1+y", remainder=KClass(num.n, remainders))
    return KPoly(num.n, [KClass._from_normal(num.n, row) for row in zip(*quotients)])


def omega_log_trivial(n):
    """Total form class sum_p [Omega^p] y^p of P^n itself.

    (1 + s y)^{n+1} / (1+y), the chi substitution at chi = t^{n+1} (mC of P^n).
    """
    check_dimension(n)
    return _mc_from_chi((0,) * (n + 1) + (1,), n)


def mc_complement_lattice_sum(lat):
    """Motivic Chern class of the arrangement complement, from the lattice.

    Each node of affine dimension d >= 1 projectivises to a P^{d-1} and
    contributes mobius(x) (1-s)^{n-d+1} (1+sy)^d; the dimension-0 center
    projectivises to the empty set.  Grouping the nodes by dimension turns
    the sum into the characteristic-polynomial substitution.
    """
    return mc_complement_charpoly(characteristic_polynomial(lat), lat.ambient_dim - 1)


def _check_chi(chi, n):
    check_dimension(n)
    if chi.degree != n + 1:
        raise ValidationError(
            f"characteristic polynomial has degree {chi.degree}, expected {n + 1}")


def mc_complement_charpoly(chi, n):
    """Motivic Chern class of the complement from the characteristic polynomial.

    Evaluates the homogenised substitution
    sum_j chi_j (1+sy)^j (1-s)^{n+1-j} as packed tau-rows
    (``_chi_rows``), then divides exactly by (1+y).
    """
    _check_chi(chi, n)
    return _mc_from_chi(chi.coeffs, n)


def _mc_from_chi(coeffs, n):
    width = _chi_width(coeffs, n)
    return _over_one_plus_y(_chi_rows(coeffs, n, width), n, width)


def _chi_width(coeffs, n):
    """A digit width for ``_chi_rows``, their quotients by (1+y) and remainder.

    Each of those tau^m digits (m <= n) is a signed sum of the rows' tau^m
    coefficients, so at most the tau^m coefficient of the majorant
    sum_{j>=1} |chi_j| (1 + y + tau y)^j tau^{n+1-j} at y = 1 (the j = 0 term
    is tau^{n+1} = 0).  That is
    sum_j |chi_j| C(j, n+1-m) 2^{n+1-m} <= M C(n+2, m) 2^{n+1-m} < M 3^{n+2} / 2
    for M = max_{j>=1} |chi_j| (hockey stick, then one term of (1+2)^{n+2}),
    so with w = bitlen M + bitlen 3^{n+2} every digit is below 2^(w-1) in size.
    """
    return max(map(abs, coeffs[1:])).bit_length() + (3 ** (n + 2)).bit_length()


def _chi_rows(coeffs, n, width):
    """The y-rows of sum_j chi_j (1+sy)^j (1-s)^{n+1-j}, packed by tau -> 2^width.

    Horner's rule in j, homogenised: with A = 1 + s y and B = 1 - s = -tau
    the sum is (...(chi_{n+1} A + chi_n B) A + ... ) A + chi_0 B^{n+1}.  Times
    A, row p gains s (row p-1) = (1+tau) (row p-1), one shift-add and mask,
    and chi_j B^{n+1-j} is a shifted constant added to row 0, so no int
    product is formed.  The rows are known modulo 2^(width (n+1)) (the
    chi_0 term is a multiple of it), which fixes their n+1 balanced digits
    when those lie in range (``_chi_width``).
    """
    mask = (1 << width * (n + 1)) - 1
    rows = []
    for k, c in enumerate(reversed(coeffs)):
        shifted = 0
        out = []
        for r in rows:
            out.append(r + shifted)
            shifted = (r + (r << width)) & mask
        out.append(shifted)
        out[0] += (-1) ** k * c << width * k
        rows = out
    return rows


def _validate_exponents(exps, n):
    check_dimension(n)
    exps = tuple(sorted(exact_scalar(e) for e in exps))
    if len(exps) != n + 1:
        raise ValidationError(
            f"expected {n + 1} exponents for a cone over P^{n}, got {len(exps)}")
    if 1 not in exps:
        raise ValidationError("exponent multiset must contain 1 (the Euler derivation)")
    if any(e < 1 for e in exps):
        raise ValidationError("exponents must be positive integers")
    return exps


def _exponents_chi(exps):
    """The coefficients of prod_i (t - e_i), lowest degree first."""
    chi = [1]
    for e in exps:
        lower = 0
        for k, c in enumerate(chi):  # t^k in (t - e) chi: chi_{k-1} - e chi_k
            chi[k], lower = lower - e * c, c
        chi.append(lower)
    return chi


def mc_free_exponents(exps, n):
    """Motivic Chern class of the complement from candidate exponents.

    prod_i (1 - e_i + (e_i + y) s) / (1+y), exact since the factor for e = 1
    is (1+y) s.  It is the chi substitution at chi = prod_i (t - e_i), as
    homogenised t - e is (1+sy) - e (1-s).
    """
    return _mc_from_chi(_exponents_chi(_validate_exponents(exps, n)), n)


def _product_width(n, total):
    """A digit width for ``_product_rows`` of heads (1+tau)^{e_i}, total = sum e_i.

    Each factor (1+tau)^{e_i} + (1+tau) y has nonnegative coefficients and,
    as e_i >= 1, is at most (1+tau)^{e_i} (1+y), so no digit carries: every
    partial product is at most (1+tau)^total (1+y)^{n+1}, whose tau^j y^k
    coefficient is C(n+1, k) C(total, j) < 2^{n+1} C(total, min(n, total // 2))
    <= 2^{w-1} for j <= n.  A quotient or remainder digit is a signed sum of
    the product's tau^j digits, which add up to at most 2^{n+1} C(total, j) <
    2^{w-1}, as ``_over_one_plus_y`` requires.
    """
    return n + 2 + comb(total, min(n, total // 2)).bit_length()


def _product_rows(heads, n, width):
    """The y-rows of prod_i (head_i + s y), packed by tau -> 2^width."""
    mask = (1 << width * (n + 1)) - 1
    rows = [1]
    # the longest heads first, while the product has few rows
    for head in sorted(heads, key=len, reverse=True):
        h = 0
        for c in reversed(head[:n + 1]):
            h = (h << width) | c
        shifted = 0
        out = []
        for r in rows:
            out.append(((r * h) & mask) + shifted)
            shifted = (r + (r << width)) & mask
        out.append(shifted)
        rows = out
    return rows


def _over_one_plus_y(rows, n, width):
    """Packed tau-rows divided exactly by (1+y), read as a KPoly.

    ``rows`` are y-rows packed by tau -> 2^width and known modulo
    2^(width (n+1)), and ``width`` keeps every tau^m digit (m <= n) of the
    rows, of their quotients by (1+y) and of the remainder in
    [-2^(width-1), 2^(width-1)).  Division by (1+y) acts on y alone, so
    ``deflate`` divides the packed rows themselves; its results are known
    modulo 2^(width (n+1)) too, which fixes their balanced digits.  So the
    remainder is zero exactly when those bits are, and each quotient row is
    read as balanced digits q_j.  Its s-basis coefficients, those of
    sum_j q_j (s-1)^j, are the balanced base-2^W digits of one Horner pass,
    sum_j q_j (2^W - 1)^j (``pack_minus_one``), at W = width + n + 2 fixed in
    advance: coefficient i is sum_j C(j, i) (-1)^{j-i} q_j, at most
    C(n+1, i+1) max|q_j| <= 2^(n+1) 2^(width-1) = 2^(W-2) in size.  A
    nonzero remainder raises the error and s-basis remainder of
    ``exact_div_one_plus_y``.
    """
    mask = (1 << width * (n + 1)) - 1
    wide = width + n + 2

    def s_class(packed):
        value = pack_minus_one(unpack(packed, width, n + 1), wide)
        return KClass._from_normal(n, tuple(unpack(value, wide, n + 1)))

    quotients, remainder = deflate(rows, -1)
    if remainder & mask:
        raise DivisionRemainderError("class is not divisible by 1+y",
                                     remainder=s_class(remainder))
    return KPoly(n, [s_class(q) for q in quotients])


def _binomial_row(e, n):
    """C(e, j) for j = 0..n, stopping at j = e when 0 <= e < n: s^e = (1 + tau)^e
    truncated, for any integer e."""
    row = [1]
    for j in range(1, (n if e < 0 else min(e, n)) + 1):
        row.append(row[-1] * (e - j + 1) // j)
    return row


def log_class_free(exps, n):
    """Twisted total logarithmic-form class from candidate exponents.

    prod_i (s^{e_i} + s y) / (1+y), the class
    (sum_p Omega^p(log D) y^p) tensored with O(-D) for a splitting with the
    given exponents.
    """
    exps = _validate_exponents(exps, n)
    width = _product_width(n, sum(exps))
    return _over_one_plus_y(_product_rows([_binomial_row(e, n) for e in exps], n, width),
                            n, width)


def difference_class_arrangement(exps, lat_or_chi, n):
    """Motivic Chern class minus the twisted logarithmic-form class.

    The first argument fixes the log side; the second gives the motivic
    side's chi: an IntersectionLattice's own, a characteristic
    IntPolynomial, or None for prod_i (t - e_i) of the exponents.  The
    result is zero exactly when all exponents are 1.

    Both numerators are packed at one width, a bit wider than either
    needs: their digits, and those of their quotients and remainders, are
    below 2^(w-2), so the digits of the difference are below 2^(w-1).  The
    packed rows are subtracted and divided by (1+y) once.
    """
    if exps is None:
        raise ValidationError("no exponent data: the logarithmic side needs exponents")
    chi, m = lat_or_chi, n
    if isinstance(chi, IntersectionLattice):
        chi, m = characteristic_polynomial(chi), chi.ambient_dim - 1
    if isinstance(chi, IntPolynomial):
        _check_chi(chi, m)
    elif chi is not None:
        raise ValidationError(
            "second argument must be an IntersectionLattice, IntPolynomial or None")
    exps = _validate_exponents(exps, n)
    if m != n:
        # the lattice's class lives on its own P^m: KPoly subtraction's refusal
        raise ValidationError("KPoly operands live on different projective spaces")
    coeffs = _exponents_chi(exps) if chi is None else chi.coeffs
    width = max(_chi_width(coeffs, n), _product_width(n, sum(exps))) + 1
    mc = _chi_rows(coeffs, n, width)
    log = _product_rows([_binomial_row(e, n) for e in exps], n, width)
    return _over_one_plus_y([a - b for a, b in zip(mc, log)], n, width)


def kpoly_to_json(p, basis="s"):
    """JSON-ready dict with bit-exact integer coefficients.

    Outer index of ``coeffs_y`` is the y-degree, inner index the basis
    degree (powers of s or of 1-s).
    """
    check_type(p, KPoly)
    if basis not in ("s", "one_minus_s"):
        raise ValidationError(f"unknown basis {basis!r}")
    rows = []
    for c in p.coeffs:
        row = c.coeffs if basis == "s" else c.in_one_minus_s_basis()
        rows.append(list(row))
    return {"n": p.n, "basis": basis, "coeffs_y": rows}


def kpoly_from_json(data):
    n, basis, rows = json_fields(data, "n", "basis", "coeffs_y")
    rows = [json_list(row, "a row of 'coeffs_y'") for row in json_list(rows, "'coeffs_y'")]
    if basis == "s":
        coeffs = [KClass(n, row) for row in rows]
    elif basis == "one_minus_s":
        coeffs = [KClass.from_one_minus_s_basis(n, row) for row in rows]
    else:
        raise ValidationError(f"unknown basis {basis!r}")
    return KPoly(n, coeffs)
