"""Fraction-free exact linear algebra over the rationals.

Rows are scaled to primitive integer vectors and eliminated by
cross-multiplication with gcd reduction, so no rational arithmetic happens
until the final normalisation of a reduced row echelon form to Fraction
entries.  Row spaces, ranks and membership tests are exact by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _strip_content(row):
    """Divide out the gcd and make the first nonzero entry positive."""
    g = 0
    for v in row:
        g = gcd(g, v)
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


def _first_nonzero(row, start):
    for c in range(start, len(row)):
        if row[c]:
            return c
    return None


class IntEchelon:
    """Incremental integer row-echelon accumulator.

    Maintains one primitive row per pivot column.  ``add`` inserts a row and
    reports whether the rank grew; ``contains`` tests row-space membership.
    """

    __slots__ = ("width", "pivots")

    def __init__(self, width):
        self.width = width
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row):
        row = self.reduce(row)
        col = _first_nonzero(row, 0)
        if col is None:
            return False
        self.pivots[col] = _strip_content(row)
        return True

    def contains(self, row):
        return not any(self.reduce(row))

    def copy(self):
        ech = IntEchelon(self.width)
        ech.pivots = dict(self.pivots)
        return ech

    def reduce(self, row):
        """``row`` modulo the row space: a primitive row that is zero in every
        pivot column, all zero exactly when ``row`` lies in the row space.

        Two rows outside the row space span the same line modulo it exactly
        when their reductions are equal.
        """
        row = list(row)
        for col, piv in sorted(self.pivots.items()):
            b = row[col]
            if b:
                a = piv[col]
                row = _strip_content([a * r - b * p for r, p in zip(row, piv)])
        return row

    def reduced_rows(self):
        """Integer rows of the reduced row echelon form, ordered by pivot
        column: each row is primitive, its first nonzero entry (the pivot) is
        positive, and every other pivot column is zero in it."""
        cols = sorted(self.pivots)
        work = {c: list(self.pivots[c]) for c in cols}
        for i, c in enumerate(cols):
            for c2 in cols[i + 1:]:
                row = work[c]
                if row[c2]:
                    piv = work[c2]
                    a, b = piv[c2], row[c2]
                    work[c] = _strip_content([a * r - b * p for r, p in zip(row, piv)])
        return [work[c] for c in cols]


def quotient_rows(matrix, cache):
    """Entries v / pivot of integer reduced rows (pivot: the first nonzero
    entry): an int where the pivot divides v, else a Fraction, so ``str`` of
    one is ``str(Fraction(v, pivot))``.  A row with pivot 1 is returned as it
    is; equal entries are shared through the caller's dict ``cache``."""
    out = []
    for row in matrix:
        lead = row[_first_nonzero(row, 0)]
        if lead != 1:
            entries = []
            for v in row:
                value = cache.get((v, lead))
                if value is None:
                    value = cache[v, lead] = v // lead if v % lead == 0 else Fraction(v, lead)
                entries.append(value)
            row = tuple(entries)
        out.append(row)
    return tuple(out)


def rref(rows, width):
    """Canonical reduced row echelon form as a tuple of Fraction tuples.

    Rows are ordered by pivot column, every leading entry is 1 and pivot
    columns are cleared above and below; equality of row spaces is equality
    of the returned matrices.
    """
    ech = IntEchelon(width)
    for row in rows:
        ech.add(int_row(row))
    return tuple(tuple(map(Fraction, row)) for row in quotient_rows(ech.reduced_rows(), {}))
