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

from collections import namedtuple

from ._linalg import _first_nonzero, _strip_content, eliminate, rref
from ._poly import MAX_LITERAL_DIGITS, deflate, exact_scalar, int_literals, power, render
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
        try:
            values = int_literals(line.split())
        except ValueError:
            # a bounded quote: the line may hold a literal of any length
            quoted = repr(line[:40]) + ("..." if len(line) > 40 else "")
            raise ValidationError(f"line {lineno}: expected integers, got {quoted}") from None
        yield lineno, values


def read_file(path):
    """The UTF-8 text of ``path``; a file that cannot be read or decoded, or
    a path with a NUL character, is a ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as e:  # UnicodeDecodeError is a ValueError
        raise ValidationError(f"cannot read {path}: {e}") from None


def load_arrangement(path):
    return parse_arrangement(read_file(path))


class Subspace:
    """A rational linear subspace of the cone space.

    Keyed by the canonical reduced row echelon matrix of the linear forms
    vanishing on it, so equality of subspaces is equality of matrices.
    """

    __slots__ = ("ambient_dim", "matrix")

    def __init__(self, ambient_dim, matrix):
        self.ambient_dim = ambient_dim
        self.matrix = matrix

    @classmethod
    def ambient(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def from_forms(cls, ambient_dim, forms):
        return cls(ambient_dim, rref(forms, ambient_dim))

    @property
    def dim(self):
        return self.ambient_dim - len(self.matrix)

    def intersect_form(self, form):
        """The subspace cut out here by one more linear form; ``self`` if the
        form already vanishes on it (the rank does not grow)."""
        matrix = rref(self.matrix + (tuple(form),), self.ambient_dim)
        return self if len(matrix) == len(self.matrix) else Subspace(self.ambient_dim, matrix)

    def contains(self, other):
        """Point-set containment: self is a superset of other, that is, self's
        forms add nothing to the rank of other's."""
        return len(rref(other.matrix + self.matrix, self.ambient_dim)) == len(other.matrix)

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
    for form k) to its link [rank, creator, row, mu]: its rank, the mask of
    the flat that created it, its new row, a key of the creator's residual
    table, and its Möbius value.  The ambient flat has ``None`` for creator
    and row, and the origin, which a line creates, has the row ``None``.
    ``len`` and ``dims_and_mobius`` read the links unsorted, and no rows
    exist until node order is read.

    ``rows``, ``dims``, ``mobius`` and ``masks`` list the flats in node order:
    descending dimension, then the lexicographic order of their reduced row
    echelon matrices (``Subspace.sort_key``).  ``_render`` derives the rows
    from the links and sorts the flats, on exact integer keys, on the first
    read of any of them.  ``rows[i]`` is flat i's reduced row echelon matrix
    on integers: primitive rows ordered by pivot column, each with a positive
    pivot and zero in every other pivot column; its entries v / pivot are
    the Fraction matrix's.  The masks turn the order relation into a mask
    test.  (Two threads reading the node order first at once may both sort
    it; the results are equal.)
    """

    __slots__ = ("ambient_dim", "_flats", "_order")

    def __init__(self, ambient_dim, flats):
        self.ambient_dim = ambient_dim
        self._flats = flats
        self._order = None

    def _node_order(self):
        """``_render`` of the flats, sorted on the first call: (rows, dims,
        mobius, masks) in node order."""
        if self._order is None:
            self._order = _render(self.ambient_dim, self._flats)
        return self._order

    rows = property(lambda self: self._node_order()[0])
    dims = property(lambda self: self._node_order()[1])
    mobius = property(lambda self: self._node_order()[2])
    masks = property(lambda self: self._node_order()[3])

    def dims_and_mobius(self):
        """(dimension, Möbius value) of every flat, in closure order."""
        width = self.ambient_dim
        return [(width - rank, mu) for rank, _, _, mu in self._flats.values()]

    def __len__(self):
        return len(self._flats)

    def contains(self, i, j):
        """Order relation: node i contains node j as point sets."""
        # every hyperplane through node i also passes through node j
        return not self.masks[i] & ~self.masks[j]

    def __repr__(self):
        return f"IntersectionLattice(ambient_dim={self.ambient_dim}, nodes={len(self)})"


def build_lattice(arr, max_nodes=None):
    """Intersection lattice of ``arr`` with Möbius values.

    A flat is the set of hyperplanes containing it, kept as a bitmask with
    its rank and a link to the flat that created it (Orlik–Terao, §2.1).
    The closure runs rank by rank.  The covers of a flat F are the lines
    spanned by the forms outside F modulo F's forms.  F's residual table maps
    each residual (as ``IntEchelon.reduce`` gives it) to the bits of its
    forms, so each key cuts out one cover, which links back to F and to the
    key: its new row.  The ambient flat's table maps each form to its bit.
    Any other flat, when visited, takes its creator's table, drops the group
    keyed by its own new row (the forms it added), steps every other key once
    against that row and merges keys that coincide.  A table lives only until
    the last flat it created has been visited.  A line's one cover is the
    origin, so a line's table is one group, every form off it, under the key
    ``None``: the origin's rows are the unit rows, so its link needs no row.

    Möbius values follow Weisner's theorem for geometric lattices
    (Orlik–Terao, ch. 2): with a = lowbit(G) the lowest form on a flat G,
    mu(G) is minus the sum of mu(F) over the flats F covered by G with a not
    on F.  Every F of a rank is visited before any G of the next, and adds
    -mu(F) to each such G: mu(G) is the last field of G's link, which the F
    that creates G sets to -mu(F) and any other F lowers by mu(F).  For F
    covered by G, a is not on F exactly when a < lowbit(F), since every
    form on F is on G.  So a visited flat F walks only the groups of its
    table that hold a form of ``below``, the forms below lowbit(F) (all
    forms for the ambient flat): the cover G of such a group has lowbit(G)
    below lowbit(F), hence not on F, and the cover of any other group has
    lowbit(G) = lowbit(F).  The pairs (F, G) walked are exactly Weisner's.
    A flat on form 0, the top flat among them, has ``below`` empty and is
    skipped when visited: it derives no table, and none is kept for it when
    it is created.

    Every flat is still created.  Let G be a flat other than the ambient one
    and a = lowbit(G).  Extend {a} to a basis of G's forms and drop a: the
    rest spans a flat F covered by G with a not on F, so a < lowbit(F).
    Then F walks the group holding a, whose cover is G, and F is not on
    form 0, so it is visited with a table.

    The lattice keeps the flats in this closure order.  Their rows are
    derived from the links, and the flats sorted into node order
    (``_render``), only when a node-order attribute is first read.

    ``max_nodes`` optionally caps the number of flats; the closure stops with
    a validation error as soon as one more flat would exceed it.
    """
    width = arr.ambient_dim
    forms = arr.forms
    every = (1 << len(forms)) - 1
    flats = {0: [0, None, None, 1]}
    _check_node_cap(flats, max_nodes)
    # flat off form 0 -> the residual table of the flat that created it; it
    # lives until the flat is visited
    created = {}
    layer = [0]
    while layer:
        next_layer = []
        for mask in layer:
            below = every & ((mask & -mask) - 1)
            if not below:
                continue  # on form 0: every cover has its lowest form on this flat
            rank, _, row, mu = flats[mask]
            source = created.pop(mask, None)
            if rank == width - 1:
                table = {None: every & ~mask}  # one cover, the origin
            elif source is None:
                table = {form: 1 << k for k, form in enumerate(forms)}
            else:
                table = _residual_groups(source, row)
            for residual, bits in table.items():
                if not bits & below:
                    continue
                cover = mask | bits
                link = flats.get(cover)
                if link is None:
                    flats[cover] = [rank + 1, mask, residual, -mu]
                    if not cover & 1:
                        created[cover] = table
                    next_layer.append(cover)
                    _check_node_cap(flats, max_nodes)
                else:
                    link[3] -= mu
        layer = next_layer

    return IntersectionLattice(width, flats)


def _residual_groups(table, row):
    """The residual table of a flat, from ``table``, that of its creator.

    ``row``, the flat's new pivot row, is a key of ``table``; its group is the
    forms on the flat.  Every other residual nonzero in the pivot column loses
    it by one elimination step, and residuals that become equal merge.
    """
    col = _first_nonzero(row)
    a = row[col]
    out = {}
    for residual, bits in table.items():
        b = residual[col]
        if b:
            if residual == row:
                continue
            # eliminate(residual, row, col), inline
            residual = tuple(_strip_content([a * x - b * y for x, y in zip(residual, row)]))
        merged = out.get(residual)  # an unmerged group shares its creator's int
        out[residual] = bits if merged is None else merged | bits
    return out


def _render(width, flats):
    """(rows, dims, mobius, masks) of the flats in ``Subspace.sort_key``
    order, without a Subspace or a Fraction.

    Each flat's rows, one tuple in pivot order, are its creator's rows
    stepped (``eliminate``) against its new row, plus that row; closure
    order puts every creator before the flats it created.  A flat whose new
    row is ``None`` has its rank's unit rows: none for the ambient flat,
    the identity for the origin.

    The sort key is (descending dimension, Fraction RREF matrix), compared
    on exact integers: with P the largest pivot of any flat and 2^k > P^2,
    an entry v / pivot becomes (v << k) // pivot.  Two distinct entries
    a/p < b/q differ by at least 1/(p*q) >= 1/P^2, so their scaled values
    differ by more than 1 and keep their order under the floor; equal
    entries reached through different pivots scale to the same integer.
    When every pivot is 1, k = 0 and the rows are their own key.  No common
    denominator is formed: the lcm of all pivots of 26 random forms in
    dimension 5 (17903 flats) runs to thousands of digits.
    """
    derived = {}
    entries = []
    top = 1  # the largest pivot
    for mask, (rank, creator, new, mu) in flats.items():
        if new is None:
            rows = tuple(tuple(int(c == r) for c in range(width)) for r in range(rank))
        else:
            col = _first_nonzero(new)
            rows = [new]
            top = max(top, new[col])
            for row in derived[creator]:
                if row[col]:
                    row = eliminate(row, new, col)
                    top = max(top, next(filter(None, row)))
                rows.append(row)
            rows = tuple(sorted(rows, reverse=True))  # pivot order on reduced rows
        derived[mask] = rows
        entries.append((rank, rows, mask, mu))
    if top > 1:  # else the rows are their own key
        shift = (top * top).bit_length()
        entries = [(rank, tuple(_scaled(row, shift) for row in rows), rows, mask, mu)
                   for rank, rows, mask, mu in entries]
    entries.sort()  # the first two fields tell any two flats apart
    ranks, *_, rows, masks, mobius = zip(*entries)
    return rows, tuple(width - rank for rank in ranks), mobius, masks


def _scaled(row, shift):
    """The entries v / pivot of an integer reduced row, times 2^shift and
    rounded down."""
    lead = next(filter(None, row))
    return tuple((v << shift) // lead for v in row)


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
        return deflate(self.coeffs, x)[1]

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


class TeraoResult(namedtuple("TeraoResult", "splits exponents remaining",
                             defaults=(None, None))):
    """Outcome of the integer-root factorisation of a characteristic polynomial.

    ``splits`` with the sorted root multiset on success; otherwise carries
    the non-split ``remaining`` factor.  Candidate exponents only: splitting
    does not certify freeness.
    """

    __slots__ = ()

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
