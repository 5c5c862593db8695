"""A fixed pure-Python kernel that measures how fast the machine runs now.

The benchmark's machine shares its cores with other guests, and its speed
moves by up to a factor of two over seconds and minutes.  The worker runs
this kernel between ops, and the parent runs it around each setup probe;
every end-to-end time is then scaled to the reference speed:

    scaled = wall time * REFERENCE_S / (kernel time measured next to it)

The kernel does the kinds of work logmc's hot paths do (integer row
elimination by cross-multiplication, Fraction sums, frozenset keys in a
dict) but does not import logmc, so no change to logmc moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

# one kernel call at the reference speed: about the least time of one call
# on a 2-vCPU KVM guest (Intel Xeon family 6 model 207, Python 3.11.7),
# where runs saw 0.92-1.10 ms as their least and 1.0-2.2 ms as their median
REFERENCE_S = 0.001

_MATRIX = tuple(tuple((7 * i + 3 * j * j + i * j) % 19 - 9 for j in range(10))
                for i in range(14))


def _first_nonzero(row):
    for c, v in enumerate(row):
        if v:
            return c
    return None


def kernel():
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    pivots = {}
    for row in _MATRIX + _MATRIX[::-1] + _MATRIX:
        r = list(row)
        col = _first_nonzero(r)
        while col is not None:
            p = pivots.get(col)
            if p is None:
                g = 0
                for v in r:
                    g = gcd(g, v)
                pivots[col] = [v // g for v in r]
                break
            a, b = p[col], r[col]
            r = [a * x - b * y for x, y in zip(r, p)]
            col = _first_nonzero(r)
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(i % 7 + 1, i)
    flats = {}
    for i in range(300):
        key = frozenset((i * j) % 17 for j in range(5))
        flats[key] = flats.get(key, 0) + 1
    return len(pivots) + s.denominator % 97 + len(flats)


def measure(budget_s):
    """Mean seconds per kernel call over at least ``budget_s`` (one call at least).

    One untimed call comes first, so that what ran before (an op that filled
    the caches with its own data) does not show in the time.
    """
    clock = time.perf_counter
    kernel()
    t0 = clock()
    calls = 0
    while True:
        kernel()
        calls += 1
        elapsed = clock() - t0
        if elapsed >= budget_s:
            return elapsed / calls
