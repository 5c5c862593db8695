"""Fraction-free exact linear algebra over the rationals.

Rows are scaled to primitive integer vectors and eliminated by one step,
``eliminate``: cross-multiplication with gcd reduction.  No rational arithmetic
happens until the final normalisation of a reduced row echelon form to
Fraction entries.  Row spaces, ranks and membership tests are exact.
"""

from fractions import Fraction
from math import gcd


def _strip_content(row):
    """Divide out the gcd and make the first nonzero entry positive."""
    g = gcd(*row)
    if g > 1:
        row = [v // g for v in row]
    for v in row:
        if v:
            if v < 0:
                row = [-u for u in row]
            break
    return row


def int_row(row):
    """Primitive integer vector spanning the same line as ``row``.

    Entries may be ints or Fractions; denominators are cleared first.
    """
    den = 1
    for v in row:
        if isinstance(v, Fraction):
            den = den * v.denominator // gcd(den, v.denominator)
    ints = []
    for v in row:
        if isinstance(v, Fraction):
            ints.append(int(v * den))
        else:
            ints.append(int(v) * den)
    return _strip_content(ints)


def _first_nonzero(row):
    for c, v in enumerate(row):
        if v:
            return c
    return None


def eliminate(row, pivot_row, col):
    """One elimination step: ``row`` with column ``col`` cleared against
    ``pivot_row``, whose pivot is there, as a primitive tuple (callers skip a
    zero ``row[col]``).  A reduced form stepped row by row against a row zero
    in its pivot columns, plus that row, is the reduced form of the sum."""
    a, b = pivot_row[col], row[col]
    return tuple(_strip_content([a * x - b * y for x, y in zip(row, pivot_row)]))


class IntEchelon:
    """Incremental integer reduced row echelon form.

    One primitive row per pivot column, positive there and zero in the other
    pivot columns.  ``add`` inserts a row and reports whether the rank grew;
    ``contains`` tests row-space membership.
    """

    __slots__ = ("width", "pivots")

    def __init__(self, width):
        self.width = width
        self.pivots = {}

    def add(self, row):
        row = self.reduce(row)
        col = _first_nonzero(row)
        if col is None:
            return False
        row = tuple(_strip_content(row))
        self.pivots = {c: eliminate(piv, row, col) if piv[col] else piv
                       for c, piv in self.pivots.items()}
        self.pivots[col] = row
        return True

    def contains(self, row):
        return not any(self.reduce(row))

    def reduce(self, row):
        """``row`` modulo the row space: a primitive row that is zero in every
        pivot column, all zero exactly when ``row`` lies in the row space.

        Two rows outside the row space span the same line modulo it exactly
        when their reductions are equal.
        """
        for col, piv in self.pivots.items():
            if row[col]:
                row = eliminate(row, piv, col)
        return row


def rref(rows, width):
    """Canonical reduced row echelon form as a tuple of Fraction tuples.

    Rows are ordered by pivot column, every leading entry is 1 and pivot
    columns are cleared above and below; equality of row spaces is equality
    of the returned matrices.  Pivots are divided out here, into Fractions,
    so the tests' oracle ``Subspace`` shares no code with the lattice's
    integer sort or the entries ``logmc lattice`` prints.
    """
    ech = IntEchelon(width)
    for row in rows:
        ech.add(int_row(row))
    return tuple(tuple(Fraction(v, row[col]) for v in row)
                 for col, row in sorted(ech.pivots.items()))
