"""Central hyperplane arrangements over the rationals.

An arrangement is a finite set of integer linear forms in ``ambient_dim``
variables, each cutting out a hyperplane through the origin of the affine
cone space.  This module builds the intersection lattice (all intersections
of subsets of hyperplanes, each flat keyed by the bitmask of the hyperplanes
containing it), evaluates its Möbius function rank by rank, forms the
characteristic polynomial

    chi(t) = sum over lattice nodes x of mobius(x) * t^dim(x),

and reads off candidate exponents when chi splits over the integers.  By
Terao's factorisation theorem the exponents of a free arrangement are the
roots of chi; the converse is false, so a split chi yields *candidates*
only, while a non-split chi certifies that the arrangement is not free with
integer exponents.

All arithmetic is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from ._linalg import IntEchelon, _strip_content, int_row, rref
from ._poly import deflate, exact_scalar, power, render
from .errors import InconsistencyError, ValidationError


class Arrangement:
    """A central arrangement given by primitive integer linear forms.

    Forms are normalised on construction (content 1, first nonzero
    coefficient positive); zero forms and proportional pairs are rejected,
    so the divisor is reduced.
    """

    __slots__ = ("ambient_dim", "forms")

    def __init__(self, ambient_dim, forms):
        if not isinstance(ambient_dim, int) or ambient_dim < 1:
            raise ValidationError("ambient dimension must be a positive integer")
        normalized = []
        seen = {}
        for i, form in enumerate(forms):
            row = tuple(exact_scalar(v) for v in form)
            if len(row) != ambient_dim:
                raise ValidationError(
                    f"form {i} has {len(row)} coefficients, expected {ambient_dim}")
            if not any(row):
                raise ValidationError(f"form {i} is zero")
            row = tuple(_strip_content(row))
            if row in seen:
                raise ValidationError(
                    f"form {i} is proportional to form {seen[row]}")
            seen[row] = i
            normalized.append(row)
        self.ambient_dim = ambient_dim
        self.forms = tuple(normalized)

    @property
    def num_hyperplanes(self):
        return len(self.forms)

    def __eq__(self, other):
        return (isinstance(other, Arrangement)
                and self.ambient_dim == other.ambient_dim
                and self.forms == other.forms)

    def __repr__(self):
        return f"Arrangement(ambient_dim={self.ambient_dim}, forms={list(self.forms)})"


def parse_arrangement(text):
    """Parse the plain-text arrangement format.

    First non-comment line: the ambient dimension.  Every following
    non-comment line: that many space-separated integers, one linear form.
    ``#`` starts a comment.
    """
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValidationError(f"line {lineno}: expected integers, got {line!r}") from None
        if header is None:
            if len(values) != 1:
                raise ValidationError(
                    f"line {lineno}: the first line must hold a single integer (ambient dimension)")
            header = values[0]
        else:
            rows.append(values)
    if header is None:
        raise ValidationError("missing ambient dimension line")
    return Arrangement(header, rows)


def load_arrangement(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_arrangement(fh.read())


class Subspace:
    """A rational linear subspace of the cone space.

    Keyed by the canonical reduced row echelon matrix of the linear forms
    vanishing on it, so equality of subspaces is equality of matrices.
    """

    __slots__ = ("ambient_dim", "matrix", "_ech")

    def __init__(self, ambient_dim, matrix):
        self.ambient_dim = ambient_dim
        self.matrix = matrix
        self._ech = None

    @classmethod
    def ambient(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def from_forms(cls, ambient_dim, forms):
        return cls(ambient_dim, rref(forms, ambient_dim))

    @property
    def dim(self):
        return self.ambient_dim - len(self.matrix)

    def _echelon(self):
        # lazily cached; the accumulated rows never change afterwards
        if self._ech is None:
            ech = IntEchelon(self.ambient_dim)
            for row in self.matrix:
                ech.add(int_row(row))
            self._ech = ech
        return self._ech

    def intersect_form(self, form):
        """The subspace cut out here by one more linear form."""
        if self._echelon().contains(int_row(form)):
            return self
        return Subspace(self.ambient_dim,
                        rref(self.matrix + (tuple(form),), self.ambient_dim))

    def contains(self, other):
        """Point-set containment: self is a superset of other."""
        return all(other._echelon().contains(int_row(row)) for row in self.matrix)

    def sort_key(self):
        return (-self.dim, self.matrix)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.ambient_dim, self.matrix))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, matrix={self.matrix})"


class IntersectionLattice:
    """Intersection lattice of a central arrangement.

    ``nodes`` are sorted by (descending dimension, lexicographic matrix
    order); ``mobius[i]`` is the Möbius value of ``nodes[i]``.  ``masks[i]``,
    when given, is the bitmask of the hyperplanes containing ``nodes[i]``
    (bit k for form k), which turns the order relation into a mask test.
    """

    __slots__ = ("ambient_dim", "nodes", "mobius", "masks")

    def __init__(self, ambient_dim, nodes, mobius, masks=None):
        self.ambient_dim = ambient_dim
        self.nodes = tuple(nodes)
        self.mobius = tuple(mobius)
        self.masks = None if masks is None else tuple(masks)

    def __len__(self):
        return len(self.nodes)

    def contains(self, i, j):
        """Order relation: node i contains node j as point sets."""
        if self.masks is None:
            return self.nodes[i].contains(self.nodes[j])
        # every hyperplane through node i also passes through node j
        return not self.masks[i] & ~self.masks[j]

    def __repr__(self):
        dims = [node.dim for node in self.nodes]
        return f"IntersectionLattice(ambient_dim={self.ambient_dim}, dims={dims})"


def build_lattice(arr, max_nodes=None):
    """Intersection lattice of ``arr`` with Möbius values.

    A flat is the set of hyperplanes containing it, kept as a bitmask with a
    cached integer echelon basis of those forms (Orlik–Terao, §2.1).  The
    closure runs rank by rank.  The covers of a flat F are the lines spanned
    by the forms outside F modulo F's forms: each such form is reduced by F's
    echelon, and forms with equal reductions cut out the same cover.

    Möbius values follow Weisner's theorem for geometric lattices: with a the
    lowest hyperplane of a flat G, mu(G) is minus the sum of mu(F) over the
    flats F covered by G that a does not contain.  The Fraction RREF of each
    flat is built once, to key and sort the returned nodes.

    ``max_nodes`` optionally caps the number of flats; the closure stops with
    a validation error as soon as one more flat would exceed it.
    """
    width = arr.ambient_dim
    forms = arr.forms
    every = (1 << len(forms)) - 1
    flats = {0: IntEchelon(width)}
    mobius = {0: 1}
    _check_node_cap(flats, max_nodes)
    layer = [0]
    while layer:
        weisner = {}
        for mask in layer:
            ech = flats[mask]
            # the one cover of a line is the origin, on every hyperplane
            is_line = ech.rank == width - 1
            added = {}  # reduction modulo F -> hyperplanes that cover adds
            for k, form in enumerate(forms):
                if not mask >> k & 1:
                    key = tuple(ech.reduce(form))
                    if is_line:
                        added[key] = every & ~mask
                        break
                    added[key] = added.get(key, 0) | 1 << k
            mu = mobius[mask]
            for residual, bits in added.items():
                cover = mask | bits
                if cover not in flats:
                    child = ech.copy()
                    child.add(residual)
                    flats[cover] = child
                    weisner[cover] = 0
                    _check_node_cap(flats, max_nodes)
                if not mask & (cover & -cover):
                    weisner[cover] += mu
        for cover, total in weisner.items():
            mobius[cover] = -total
        layer = list(weisner)

    return _render(width, flats, mobius)


def _render(width, flats, mobius):
    """The lattice with each flat as a Subspace, in ``Subspace.sort_key`` order.

    Every RREF entry v / lead is one shared Fraction per (v, lead), so equal
    leading entries of two matrices are mostly the same object and the sort
    compares them by identity.
    """
    fractions = {}
    nodes = {}
    for mask, ech in flats.items():
        matrix = []
        for row in ech.reduced_rows():
            lead = next(v for v in row if v)
            entries = []
            for v in row:
                value = fractions.get((v, lead))
                if value is None:
                    value = fractions[v, lead] = Fraction(v, lead)
                entries.append(value)
            matrix.append(tuple(entries))
        node = nodes[mask] = Subspace(width, tuple(matrix))
        node._ech = ech
    order = sorted(nodes, key=lambda mask: nodes[mask].sort_key())
    return IntersectionLattice(width, [nodes[mask] for mask in order],
                               [mobius[mask] for mask in order], order)


def _check_node_cap(flats, max_nodes):
    if max_nodes is not None and len(flats) > max_nodes:
        raise ValidationError(
            f"intersection lattice exceeds the node cap ({max_nodes})")


class IntPolynomial:
    """Integer polynomial; ``coeffs[i]`` is the coefficient of t^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [exact_scalar(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def deflate(self, root):
        """Quotient and remainder of synthetic division by (t - root)."""
        quotient, remainder = deflate(self.coeffs, root)
        return IntPolynomial(quotient), remainder

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return render((self.coeffs[k], power("t", k)) for k in range(self.degree, -1, -1))

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


def characteristic_polynomial(lat):
    """chi(t) = sum of mobius(x) * t^dim(x) over the lattice nodes."""
    coeffs = [0] * (lat.ambient_dim + 1)
    for node, mu in zip(lat.nodes, lat.mobius):
        coeffs[node.dim] += mu
    return IntPolynomial(coeffs)


class TeraoResult:
    """Outcome of the integer-root factorisation of a characteristic polynomial.

    ``splits`` with the sorted root multiset on success; otherwise carries
    the non-split ``remaining`` factor.  Candidate exponents only: splitting
    does not certify freeness.
    """

    __slots__ = ("splits", "exponents", "remaining")

    def __init__(self, splits, exponents=None, remaining=None):
        self.splits = splits
        self.exponents = exponents
        self.remaining = remaining

    def __eq__(self, other):
        return (isinstance(other, TeraoResult)
                and (self.splits, self.exponents, self.remaining)
                == (other.splits, other.exponents, other.remaining))

    def __repr__(self):
        if self.splits:
            return f"TeraoResult(splits=True, exponents={list(self.exponents)})"
        return f"TeraoResult(splits=False, remaining={self.remaining!r})"


def exponents_via_terao(chi):
    """Integer roots of a monic chi by trial division, with deflation.

    Exponents of a free arrangement are nonnegative and sum to the number of
    hyperplanes d (= minus the second-highest coefficient), so candidates
    range over [0, d].  A nonpositive root on a nonempty arrangement means
    the common center is positive-dimensional (the arrangement is not
    essential) and the Euler-field normalisation does not apply.
    """
    if not chi.is_monic():
        raise ValidationError("characteristic polynomial must be monic")
    d = -chi.coeffs[chi.degree - 1] if chi.degree >= 1 else 0
    roots = []
    poly = chi
    for e in range(0, max(d, 0) + 1):
        while poly.degree > 0 and poly(e) == 0:
            poly, rem = poly.deflate(e)
            assert rem == 0
            roots.append(e)
    if poly.degree > 0:
        return TeraoResult(False, remaining=poly)
    if d >= 1 and any(r <= 0 for r in roots):
        raise InconsistencyError(
            "characteristic polynomial has a nonpositive root "
            f"{sorted(roots)}: the arrangement's center is positive-dimensional "
            "(not essential), so exponent-based formulas do not apply",
            details={"roots": sorted(roots)})
    return TeraoResult(True, exponents=tuple(sorted(roots)))
