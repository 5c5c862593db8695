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

from ._linalg import (IntEchelon, _first_nonzero, _strip_content, eliminate, int_row,
                      quotient_rows, rref)
from ._poly import MAX_LITERAL_DIGITS, deflate, exact_scalar, power, render
from .errors import InconsistencyError, ValidationError


class Arrangement:
    """A central arrangement given by primitive integer linear forms.

    Forms are normalised on construction (content 1, first nonzero
    coefficient positive); zero forms and proportional pairs are rejected,
    so the divisor is reduced.  ``forms`` may be any iterable; each form is
    checked as it is drawn, before the next one is.
    """

    __slots__ = ("ambient_dim", "forms")

    def __init__(self, ambient_dim, forms):
        if type(ambient_dim) is not int or ambient_dim < 1:
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


# Largest ambient dimension ``parse_arrangement`` accepts.  On the empty
# arrangement at the limit, ``logmc csm`` takes about 0.13 s and ``mc``
# about 0.1 s, process start included; past it, ``csm`` takes about 0.5 s
# in process at dimension 128 and 20 s at 300 (medians of nine runs at the
# limit, single runs past it, shared two-vCPU VM).
MAX_AMBIENT_DIM = 64


def parse_arrangement(text):
    """Parse the plain-text arrangement format.

    First non-comment line: the ambient dimension, at most
    ``MAX_AMBIENT_DIM``.  Every following non-comment line: that many
    space-separated integers, one linear form.  ``#`` starts a comment.  An
    integer is an optional sign and at most ``MAX_LITERAL_DIGITS`` ASCII
    decimal digits.

    ``Arrangement`` checks each form as its line is read, so the first
    faulty line is the one reported and nothing after it is converted.
    """
    lines = _integer_lines(text)
    first = next(lines, None)
    if first is None:
        raise ValidationError("missing ambient dimension line")
    lineno, values = first
    if len(values) != 1:
        raise ValidationError(
            f"line {lineno}: the first line must hold a single integer (ambient dimension)")
    header = values[0]
    if header > MAX_AMBIENT_DIM:
        raise ValidationError(f"line {lineno}: ambient dimension {header} "
                              f"exceeds the limit {MAX_AMBIENT_DIM}")
    return Arrangement(header, (values for _, values in lines))


def _integer_lines(text):
    """(line number, integers) for each non-comment line, converted when read."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            # int() would also read "_", non-ASCII digits and, once a host
            # lifts int_max_str_digits, literals of any length
            if (not line.isascii() or "_" in line or len(line) > MAX_LITERAL_DIGITS
                    and max(len(tok.lstrip("+-")) for tok in tokens) > MAX_LITERAL_DIGITS):
                raise ValueError
            values = [int(tok) for tok in tokens]
        except ValueError:
            raise ValidationError(f"line {lineno}: expected integers, got {line!r}") from None
        yield lineno, values


def read_file(path):
    """The UTF-8 text of ``path``; a file that cannot be read or decoded is
    a ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {e}") from None


def load_arrangement(path):
    return parse_arrangement(read_file(path))


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

    ``build_lattice`` hands over the flats in closure order, rank by rank:
    ``_flats`` maps the bitmask of the hyperplanes containing a flat (bit k
    for form k) to its integer rows, and ``_mu`` maps it to its Möbius
    value.  ``len`` and ``dims_and_mobius`` read them unsorted.

    ``rows``, ``dims``, ``mobius`` and ``masks`` list the flats in node order:
    descending dimension, then the lexicographic order of their reduced row
    echelon matrices (``Subspace.sort_key``).  ``_render`` sorts them on the
    first read of any of them.  ``rows[i]`` is flat i's reduced row echelon
    matrix on integers: primitive rows ordered by pivot column, each with a
    positive pivot and zero in every other pivot column.  The masks turn the
    order relation into a mask test.  (Two threads reading the node order
    first at once may both sort it; the results are equal.)
    """

    __slots__ = ("ambient_dim", "_flats", "_mu", "_order")

    def __init__(self, ambient_dim, flats, mobius):
        self.ambient_dim = ambient_dim
        self._flats = flats
        self._mu = mobius
        self._order = None

    def _node_order(self):
        """``_render`` of the flats, sorted on the first call: (rows, dims,
        mobius, masks, quotients) in node order."""
        if self._order is None:
            self._order = _render(self.ambient_dim, self._flats, self._mu)
        return self._order

    rows = property(lambda self: self._node_order()[0])
    dims = property(lambda self: self._node_order()[1])
    mobius = property(lambda self: self._node_order()[2])
    masks = property(lambda self: self._node_order()[3])

    def dims_and_mobius(self):
        """(dimension, Möbius value) of every flat, in closure order."""
        width, mu = self.ambient_dim, self._mu
        return [(width - len(rows), mu[mask]) for mask, rows in self._flats.items()]

    def __len__(self):
        return len(self._flats)

    def contains(self, i, j):
        """Order relation: node i contains node j as point sets."""
        # every hyperplane through node i also passes through node j
        return not self.masks[i] & ~self.masks[j]

    def __repr__(self):
        return f"IntersectionLattice(ambient_dim={self.ambient_dim}, dims={list(self.dims)})"


def build_lattice(arr, max_nodes=None):
    """Intersection lattice of ``arr`` with Möbius values.

    A flat is the set of hyperplanes containing it, kept as a bitmask with the
    integer reduced rows of those forms (Orlik–Terao, §2.1).  The closure
    runs rank by rank.  The covers of a flat F are the lines spanned by the
    forms outside F modulo F's forms.  F's residual table maps each residual
    (as ``IntEchelon.reduce`` gives it) to the bits of its forms, so each key
    cuts out one cover, whose rows are F's rows stepped (``eliminate``)
    against the key, plus the key.  The ambient flat's table maps each form
    to its bit.  Any other flat, when visited, takes its creator's table,
    drops the group keyed by its own new row (the forms it added), steps
    every other key once against that row and merges keys that coincide.  A
    table lives only until the last flat it created has been visited.

    Möbius values follow Weisner's theorem for geometric lattices: with a the
    lowest hyperplane of a flat G, mu(G) is minus the sum of mu(F) over the
    flats F covered by G that a does not contain.  G starts at 0 when it is
    created, and each such F subtracts its value when visited; every F of a
    rank is visited before any G of the next.  The lattice keeps the flats in
    this closure order; they are sorted into node order (``_render``) only
    when a node-order attribute is first read.

    ``max_nodes`` optionally caps the number of flats; the closure stops with
    a validation error as soon as one more flat would exceed it.
    """
    width = arr.ambient_dim
    forms = arr.forms
    every = (1 << len(forms)) - 1
    flats = {0: ()}
    mobius = {0: 1}
    _check_node_cap(flats, max_nodes)
    # flat -> (the residual table of the flat that created it, the flat's new
    # row: a key of that table); it lives until the flat is visited
    created = {}
    layer = [0]
    while layer:
        next_layer = []
        for mask in layer:
            rows = flats[mask]
            origin = created.pop(mask, None)
            if mask == every:
                continue  # no hyperplane outside: no cover
            if len(rows) == width - 1:
                # the one cover of a line is the origin, on every hyperplane;
                # each form outside reduces to the unit row of the free column
                (free,) = set(range(width)) - {_first_nonzero(row) for row in rows}
                table = {tuple(int(c == free) for c in range(width)): every & ~mask}
            elif origin is None:
                table = {form: 1 << k for k, form in enumerate(forms)}
            else:
                table = _residual_groups(*origin)
            mu = mobius[mask]
            for residual, bits in table.items():
                cover = mask | bits
                if cover not in flats:
                    col = _first_nonzero(residual)
                    flats[cover] = tuple(eliminate(row, residual, col) if row[col] else row
                                         for row in rows) + (residual,)
                    created[cover] = (table, residual)
                    mobius[cover] = 0
                    next_layer.append(cover)
                    _check_node_cap(flats, max_nodes)
                if not mask & (cover & -cover):
                    mobius[cover] -= mu
        layer = next_layer

    return IntersectionLattice(width, flats, mobius)


def _residual_groups(table, row):
    """The residual table of a flat, from ``table``, that of its creator.

    ``row``, the flat's new pivot row, is a key of ``table``; its group is the
    forms on the flat.  Every other residual nonzero in the pivot column loses
    it by one elimination step, and residuals that become equal merge.
    """
    col = _first_nonzero(row)
    out = {}
    for residual, bits in table.items():
        if residual[col]:
            if residual == row:
                continue
            residual = eliminate(residual, row, col)
        merged = out.get(residual)  # an unmerged group shares its creator's int
        out[residual] = bits if merged is None else merged | bits
    return out


def _render(width, flats, mobius):
    """(rows, dims, mobius, masks, quotients) of the flats in
    ``Subspace.sort_key`` order, without a Subspace.

    That order is (descending dimension, Fraction RREF matrix): the flats
    sort on ``quotient_rows`` of their integer rows, kept as ``quotients``
    for ``logmc lattice``.  Rows are not scaled to a common denominator: the
    lcm of all pivots of 26 random forms in dimension 5 (17903 flats) runs to
    thousands of digits.
    """
    cache = {}
    entries = []
    for mask, rows in flats.items():
        rows = tuple(sorted(rows, reverse=True))  # pivot order on reduced rows
        entries.append((len(rows), quotient_rows(rows, cache), rows, mask))
    entries.sort()  # the first two fields tell any two flats apart
    _, quotients, rows, masks = zip(*entries)
    return (rows, tuple(width - len(matrix) for matrix in rows),
            tuple(mobius[mask] for mask in masks), masks, quotients)


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
    for dim, mu in lat.dims_and_mobius():
        coeffs[dim] += mu
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
    coeffs = chi.coeffs
    for e in range(0, max(d, 0) + 1):
        quotient, value = deflate(coeffs, e)
        while len(coeffs) > 1 and not value:
            coeffs = quotient
            roots.append(e)
            quotient, value = deflate(coeffs, e)
    if len(coeffs) > 1:
        return TeraoResult(False, remaining=IntPolynomial(coeffs))
    if d >= 1 and any(r <= 0 for r in roots):
        raise InconsistencyError(
            "characteristic polynomial has a nonpositive root "
            f"{sorted(roots)}: the arrangement's center is positive-dimensional "
            "(not essential), so exponent-based formulas do not apply",
            details={"roots": sorted(roots)})
    return TeraoResult(True, exponents=tuple(sorted(roots)))
