"""Exact arithmetic in the Grothendieck group of projective n-space.

The group of coherent-sheaf classes on P^n is Z[s]/((1-s)^{n+1}) with
s = [O(-1)]; a ``KClass`` is the reduced representative in the s-power
basis.  A ``KPoly`` is a polynomial in the parameter y with KClass
coefficients.  A product of two KPolys is formed one y-row at a time: the
row's integer convolutions in s are summed unreduced, and the sum is
reduced modulo the relation once, since the reduction is linear.  On top
of this the module computes, for a central arrangement with intersection
lattice L and characteristic polynomial chi:

  * the motivic Chern class of the arrangement complement, via the lattice
    sum  sum_x mobius(x) (1-s)^{n-dim(x)+1} (1+sy)^{dim(x)} / (1+y),
    the substitution  sum_j chi_j (1+sy)^j (1-s)^{n+1-j} / (1+y),
    or the exponent product  prod_i (1-e_i + (e_i+y)s) / (1+y);
  * the twisted total logarithmic-form class
    prod_i (s^{e_i} + s y) / (1+y)  from a splitting with exponents e_i;
  * the difference of the two.

Every division by (1+y) is synthetic division with a mandatory
zero-remainder check.  The substitution of (1+sy)/(1-s) into chi is always
performed in homogenised form; the nilpotent 1-s is never inverted.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from ._poly import _Truncated, _YPoly, deflate, exact_scalar
from .arrangement import (IntersectionLattice, IntPolynomial,
                          characteristic_polynomial)
from .errors import DivisionRemainderError, ValidationError


@lru_cache(maxsize=64)
def _relation_row(n):
    """Coefficients of (s-1)^{n+1} in ascending degree."""
    return tuple(comb(n + 1, k) * (-1) ** (n + 1 - k) for k in range(n + 2))


def _reduce_mod_relation(coeffs, n):
    """Remainder of an integer polynomial in s modulo (s-1)^{n+1}."""
    rel = _relation_row(n)
    c = [v if type(v) is int else exact_scalar(v) for v in coeffs]
    for d in range(len(c) - 1, n, -1):
        lead = c[d]
        if lead:
            base = d - (n + 1)
            c[base:d + 1] = [a - lead * b for a, b in zip(c[base:d + 1], rel)]
    c = c[:n + 1]
    c.extend([0] * (n + 1 - len(c)))
    return tuple(c)


class KClass(_Truncated):
    """A coherent-sheaf class on P^n in the s-power basis, s = [O(-1)].

    ``coeffs`` has length n+1 and is already reduced modulo (1-s)^{n+1}.
    """

    __slots__ = ()

    _relation = staticmethod(_reduce_mod_relation)

    def in_one_minus_s_basis(self):
        """Coefficients with respect to powers of (1-s), length n+1.

        The change of basis is the involution substituting s = 1 - (1-s).
        """
        out = [0] * (self.n + 1)
        for j in range(self.n + 1):
            out[j] = (-1) ** j * sum(a * comb(k, j) for k, a in enumerate(self.coeffs))
        return tuple(out)

    @classmethod
    def from_one_minus_s_basis(cls, n, coeffs):
        out = [0] * (n + 1)
        padded = list(coeffs) + [0] * (n + 1 - len(coeffs))
        for j in range(n + 1):
            out[j] = (-1) ** j * sum(b * comb(k, j) for k, b in enumerate(padded[:n + 1]))
        return cls(n, out)

    def __repr__(self):
        return f"KClass(n={self.n}, coeffs={list(self.coeffs)})"


class KPoly(_YPoly):
    """Polynomial in y with KClass coefficients; trailing zeros trimmed."""

    __slots__ = ()
    _ring = KClass

    @classmethod
    def one(cls, n):
        return cls(n, (KClass.one(n),))

    def _check(self, other):
        if self.n != other.n:
            raise ValidationError("KPoly operands live on different projective spaces")

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
        if isinstance(other, (int, KClass)):
            return KPoly(self.n, [c * other for c in self.coeffs])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return KPoly.zero(self.n)
        n = self.n
        xs = [c.coeffs for c in self.coeffs]
        # the nonzero (s-degree, coefficient) pairs of each y-row of other
        ys = [[(q, v) for q, v in enumerate(c.coeffs) if v] for c in other.coeffs]
        rows = []
        for r in range(len(xs) + len(ys) - 1):
            acc = [0] * (2 * n + 1)
            for i in range(max(0, r - len(ys) + 1), min(r, len(xs) - 1) + 1):
                b = ys[r - i]
                for p, u in enumerate(xs[i]):
                    if u:
                        for q, v in b:
                            acc[p + q] += u * v
            rows.append(KClass(n, acc))
        return KPoly(n, rows)

    __rmul__ = __mul__

    def __repr__(self):
        return f"KPoly(n={self.n}, coeffs={list(self.coeffs)})"


def kclass_O(k, n):
    """Class of the twisting sheaf O(k), i.e. s^{-k} reduced.

    For positive k this uses the geometric-series inverse
    s^{-1} = sum_{j<=n} (1-s)^j, valid because 1-s is nilpotent.
    """
    if k <= 0:
        coeffs = [0] * (-k) + [1]
        return KClass(n, coeffs)
    one_minus_s = KClass(n, (1, -1))
    inv = KClass.zero(n)
    power = KClass.one(n)
    for _ in range(n + 1):
        inv = inv + power
        power = power * one_minus_s
    return inv ** k


def kclass_linear_subspace(m, k, n):
    """Pushforward class of O(k) on a linear P^m inside P^n.

    Koszul resolution of the subspace gives (1 - s)^{n-m} * s^{-k}.
    """
    if not 0 <= m <= n:
        raise ValidationError(f"subspace dimension {m} outside [0, {n}]")
    return KClass(n, (1, -1)) ** (n - m) * kclass_O(k, n)


def exact_div_one_plus_y(num):
    """Exact synthetic division of a KPoly by (1+y).

    Division by (1+y) is linear, so it runs on each s-degree's column of
    integer coefficients.  The remainder is the value at y = -1; if it is
    nonzero the division is refused and the remainder is attached to the
    raised error.
    """
    quotients, remainders = zip(*(deflate(col, -1) for col in num.columns()))
    if any(remainders):
        raise DivisionRemainderError(
            "class is not divisible by 1+y", remainder=KClass(num.n, remainders))
    return KPoly.from_columns(num.n, quotients)


def _one_plus_sy_power(d, n):
    """(1 + s y)^d as a KPoly on P^n."""
    coeffs = []
    for p in range(d + 1):
        mono = [0] * (p + 1)
        mono[p] = comb(d, p)
        coeffs.append(KClass(n, mono))
    return KPoly(n, coeffs)


def omega_log_trivial(n):
    """Total form class sum_p [Omega^p] y^p of P^n itself.

    Computed as the exact quotient (1 + s y)^{n+1} / (1+y); the division
    must leave no remainder.
    """
    if n < 0:
        raise ValidationError("projective dimension must be >= 0")
    return exact_div_one_plus_y(_one_plus_sy_power(n + 1, n))


def mc_complement_lattice_sum(lat):
    """Motivic Chern class of the arrangement complement, from the lattice.

    Each node of affine dimension d >= 1 projectivises to a P^{d-1} and
    contributes mobius(x) (1-s)^{n-d+1} (1+sy)^d; the dimension-0 center
    projectivises to the empty set.  Grouping the nodes by dimension turns
    the sum into the characteristic-polynomial substitution.
    """
    return mc_complement_charpoly(characteristic_polynomial(lat), lat.ambient_dim - 1)


def mc_complement_charpoly(chi, n):
    """Motivic Chern class of the complement from the characteristic polynomial.

    Evaluates the homogenised substitution
    sum_j chi_j (1+sy)^j (1-s)^{n+1-j}, then divides exactly by (1+y).
    Its y^p row is s^p sum_{j>=p} chi_j C(j, p) (1-s)^{n+1-j}, an integer
    polynomial of degree at most n+1 in s.
    """
    if chi.degree != n + 1:
        raise ValidationError(
            f"characteristic polynomial has degree {chi.degree}, expected {n + 1}")
    one_minus_s = [[comb(m, k) * (-1) ** k for k in range(m + 1)] for m in range(n + 2)]
    rows = []
    for p in range(n + 2):
        acc = [0] * (n + 2)
        for j in range(p, n + 2):
            w = chi.coeffs[j] * comb(j, p)
            if w:
                for k, b in enumerate(one_minus_s[n + 1 - j], p):
                    acc[k] += w * b
        rows.append(KClass(n, acc))
    return exact_div_one_plus_y(KPoly(n, rows))


def _validate_exponents(exps, n):
    exps = tuple(sorted(exact_scalar(e) for e in exps))
    if len(exps) != n + 1:
        raise ValidationError(
            f"expected {n + 1} exponents for a cone over P^{n}, got {len(exps)}")
    if 1 not in exps:
        raise ValidationError("exponent multiset must contain 1 (the Euler derivation)")
    if any(e < 1 for e in exps):
        raise ValidationError("exponents must be positive integers")
    return exps


def mc_free_exponents(exps, n):
    """Motivic Chern class of the complement from candidate exponents.

    prod_i (1 - e_i + (e_i + y) s) / (1+y); the factor for e = 1 is
    (1+y) s, so the division is always exact.
    """
    exps = _validate_exponents(exps, n)
    prod = KPoly.one(n)
    for e in exps:
        factor = KPoly(n, (KClass(n, (1 - e, e)), KClass(n, (0, 1))))
        prod = prod * factor
    return exact_div_one_plus_y(prod)


def log_class_free(exps, n):
    """Twisted total logarithmic-form class from candidate exponents.

    prod_i (s^{e_i} + s y) / (1+y), the class
    (sum_p Omega^p(log D) y^p) tensored with O(-D) for a splitting with the
    given exponents.
    """
    exps = _validate_exponents(exps, n)
    prod = KPoly.one(n)
    for e in exps:
        s_e = [0] * (e + 1)
        s_e[e] = 1
        factor = KPoly(n, (KClass(n, s_e), KClass(n, (0, 1))))
        prod = prod * factor
    return exact_div_one_plus_y(prod)


def difference_class_arrangement(exps, lat_or_chi, n):
    """Motivic Chern class minus the twisted logarithmic-form class.

    The first argument fixes the log side (and the exponent route); the
    second selects the motivic route: an IntersectionLattice, a
    characteristic IntPolynomial, or None to use the exponent product.
    The result is zero exactly when all exponents are 1.
    """
    if exps is None:
        raise ValidationError("no exponent data: the logarithmic side needs exponents")
    if lat_or_chi is None:
        mc = mc_free_exponents(exps, n)
    elif isinstance(lat_or_chi, IntersectionLattice):
        mc = mc_complement_lattice_sum(lat_or_chi)
    elif isinstance(lat_or_chi, IntPolynomial):
        mc = mc_complement_charpoly(lat_or_chi, n)
    else:
        raise ValidationError(
            "second argument must be an IntersectionLattice, IntPolynomial or None")
    return mc - log_class_free(exps, n)


def kpoly_to_json(p, basis="s"):
    """JSON-ready dict with bit-exact integer coefficients.

    Outer index of ``coeffs_y`` is the y-degree, inner index the basis
    degree (powers of s or of 1-s).
    """
    if basis not in ("s", "one_minus_s"):
        raise ValidationError(f"unknown basis {basis!r}")
    rows = []
    for c in p.coeffs:
        row = c.coeffs if basis == "s" else c.in_one_minus_s_basis()
        rows.append(list(row))
    return {"n": p.n, "basis": basis, "coeffs_y": rows}


def kpoly_from_json(data):
    n = data["n"]
    basis = data["basis"]
    if basis == "s":
        coeffs = [KClass(n, row) for row in data["coeffs_y"]]
    elif basis == "one_minus_s":
        coeffs = [KClass.from_one_minus_s_basis(n, row) for row in data["coeffs_y"]]
    else:
        raise ValidationError(f"unknown basis {basis!r}")
    return KPoly(n, coeffs)
