"""Reference answers computed without the logmc package.

Everything here is written from the mathematics, not from the program:

* ranks by the module's own fraction-free elimination;
* chi(t) by Whitney's subset formula, or by the closed forms
  prod (t - e_i) of reflection arrangements;
* flats and Möbius values by closure over hyperplane sets (or by set
  partitions and subsets for braid and boolean arrangements);
* K-theory classes on P^n compared through the perfect pairing
  c -> chi(P^n, c (x) O(-j)), j = 0..n, so no reduction modulo (1-s)^{n+1}
  is ever needed;
* the CSM class of the complement as h^{n+1} chi(1 + 1/h) mod h^{n+1}
  (Aluffi, IMRN 2013);
* Milnor numbers of Brieskorn-Pham germs, (a-1)(b-1), and of convenient
  Newton-nondegenerate germs by Kouchnirenko's formula (Invent. Math. 1976).

This module must not import logmc: its answers are the yardstick.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, factorial, gcd


# --- exact rank --------------------------------------------------------------

class Echelon:
    """Row space accumulator over the integers (fraction-free)."""

    def __init__(self):
        self.rows = {}  # pivot column -> integer row

    def reduce(self, row):
        row = [int(v) for v in row]
        for col in sorted(self.rows):
            if row[col]:
                piv = self.rows[col]
                a, b = piv[col], row[col]
                row = [a * r - b * p for r, p in zip(row, piv)]
        return row

    def insert(self, row):
        row = self.reduce(row)
        for col, v in enumerate(row):
            if v:
                self.rows[col] = row
                return True
        return False

    def spans(self, row):
        return not any(self.reduce(row))

    @property
    def rank(self):
        return len(self.rows)


def rank(rows):
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    return ech.rank


def fraction_rows_to_int(rows):
    out = []
    for row in rows:
        den = 1
        for v in row:
            den = den * v.denominator // gcd(den, v.denominator)
        out.append([int(v * den) for v in row])
    return out


# --- integer polynomials in t (coefficient lists, index = degree) -------------

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def chi_from_exponents(exps):
    chi = [1]
    for e in exps:
        chi = poly_mul(chi, [-e, 1])
    return chi


def chi_whitney(ambient_dim, forms):
    """Whitney's formula: sum over subsets S of (-1)^|S| t^(l - rank S)."""
    chi = [0] * (ambient_dim + 1)
    for k in range(len(forms) + 1):
        for subset in combinations(forms, k):
            chi[ambient_dim - rank(subset)] += (-1) ** k
    return chi


def deflate(p, root):
    """Quotient of p by (t - root), and the remainder."""
    out = []
    carry = 0
    for c in reversed(p):
        carry = carry * root + c
        out.append(carry)
    rem = out.pop()
    return list(reversed(out)), rem


def integer_roots(p):
    """Integer roots with multiplicity and the root-free remaining factor."""
    p = poly_trim(p)
    roots = []
    while len(p) > 1:
        const = next(c for c in p if c)
        zero_shift = p.index(const)
        if zero_shift:
            roots.append(0)
            p, _ = deflate(p, 0)
            continue
        found = None
        bound = abs(const)
        for d in range(1, bound + 1):
            if bound % d:
                continue
            for cand in (d, -d):
                if deflate(p, cand)[1] == 0:
                    found = cand
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        p, _ = deflate(p, found)
    return sorted(roots), p


def chi_proj(chi):
    q, rem = deflate(chi, 1)
    if rem:
        raise ValueError("chi(1) != 0: empty arrangement has no projective part")
    return q


def poly_eval(p, x):
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


# --- flats and Möbius values --------------------------------------------------

def flats_by_closure(ambient_dim, forms):
    """All flats as frozensets of hyperplane indices, with dim and Möbius."""
    m = len(forms)

    def close(indices):
        ech = Echelon()
        for i in indices:
            ech.insert(forms[i])
        return frozenset(i for i in range(m) if ech.spans(forms[i])), ech.rank

    flats = {frozenset(): 0}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for flat in frontier:
            for h in range(m):
                if h in flat:
                    continue
                cl, r = close(sorted(flat | {h}))
                if cl not in flats:
                    flats[cl] = r
                    nxt.append(cl)
        frontier = nxt
    return _with_mobius(ambient_dim, flats)


def _with_mobius(ambient_dim, flats):
    order = sorted(flats, key=lambda f: (flats[f], sorted(f)))
    mobius = {}
    for f in order:
        if not f:
            mobius[f] = 1
            continue
        mobius[f] = -sum(mobius[g] for g in order
                         if flats[g] < flats[f] and g < f)
    return {f: (ambient_dim - flats[f], mobius[f]) for f in order}


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def flats_braid(k, labels):
    """Flats of the essentialised braid arrangement on k points.

    ``labels[h]`` is the pair (i, j) of hyperplane h (x_i = x_j).  A flat is
    a set partition; its dimension is (#blocks - 1) and its Möbius value is
    prod (-1)^(b-1) (b-1)! over block sizes b.
    """
    index = {pair: h for h, pair in enumerate(labels)}
    out = {}
    for part in _set_partitions(list(range(k))):
        hyps = frozenset(index[(min(a, b), max(a, b))]
                         for block in part for a, b in combinations(block, 2))
        mu = 1
        for block in part:
            mu *= (-1) ** (len(block) - 1) * factorial(len(block) - 1)
        out[hyps] = (len(part) - 1, mu)
    return out


def flats_boolean(l):
    out = {}
    for k in range(l + 1):
        for sub in combinations(range(l), k):
            out[frozenset(sub)] = (l - k, (-1) ** k)
    return out


def chi_from_flats(ambient_dim, flats):
    chi = [0] * (ambient_dim + 1)
    for dim, mu in flats.values():
        chi[dim] += mu
    return chi


# --- K-theory of P^n through the Euler pairing --------------------------------

@lru_cache(maxsize=None)
def euler_O(n, m):
    """chi(P^n, O(m)) = (m+1)(m+2)...(m+n)/n!, valid for every integer m."""
    num = 1
    for i in range(1, n + 1):
        num *= m + i
    return num // factorial(n)


def pairing(n, s_coeffs):
    """(chi(P^n, c (x) O(-j)))_{j=0..n} of c = sum_k c_k s^k, s = [O(-1)]."""
    return tuple(sum(c * euler_O(n, -(k + j)) for k, c in enumerate(s_coeffs) if c)
                 for j in range(n + 1))


def _div_one_plus_y(col):
    """Exact quotient of a y-polynomial (list) by 1 + y; None if not exact."""
    col = poly_trim(col)
    if not col:
        return []
    q, rem = deflate(col, -1)
    return None if rem else poly_trim(q)


def kpoly_signature(n, coeffs_y):
    """Signature of a y-polynomial of classes: for each j, a y-polynomial."""
    cols = [[0] * len(coeffs_y) for _ in range(n + 1)]
    for d, row in enumerate(coeffs_y):
        for j, v in enumerate(pairing(n, row)):
            cols[j][d] = v
    return tuple(tuple(poly_trim(c)) for c in cols)


def _sy_poly_mul(a, b):
    """Product of polynomials in (s, y) stored as {(k, d): coeff}."""
    out = {}
    for (k1, d1), c1 in a.items():
        for (k2, d2), c2 in b.items():
            key = (k1 + k2, d1 + d2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _signature_over_one_plus_y(n, poly):
    """Signature of poly(s, y) / (1 + y), dividing after the pairing."""
    ymax = max((d for _, d in poly), default=0)
    kmax = max((k for k, _ in poly), default=0)
    rows = [[0] * (kmax + 1) for _ in range(ymax + 1)]
    for (k, d), c in poly.items():
        rows[d][k] += c
    sig = []
    for col in kpoly_signature(n, rows):
        q = _div_one_plus_y(list(col))
        if q is None:
            raise ValueError("reference class is not divisible by 1 + y")
        sig.append(tuple(q))
    return tuple(sig)


def mc_signature(chi):
    """Motivic Chern class of the complement from chi, paired with O(-j).

    sum_j chi_j (1 + s y)^j (1 - s)^{n+1-j} / (1 + y), with n + 1 = deg chi.
    """
    n = len(chi) - 2
    total = {}
    for j, c in enumerate(chi):
        if not c:
            continue
        term = {(0, 0): c}
        for _ in range(j):
            term = _sy_poly_mul(term, {(0, 0): 1, (1, 1): 1})
        for _ in range(n + 1 - j):
            term = _sy_poly_mul(term, {(0, 0): 1, (1, 0): -1})
        for key, v in term.items():
            total[key] = total.get(key, 0) + v
    return _signature_over_one_plus_y(n, total)


def log_signature(exps):
    """Twisted log-form class prod_i (s^{e_i} + s y) / (1 + y), paired."""
    n = len(exps) - 1
    prod = {(0, 0): 1}
    for e in exps:
        prod = _sy_poly_mul(prod, {(e, 0): 1, (1, 1): 1})
    return _signature_over_one_plus_y(n, prod)


def signature_sub(a, b):
    out = []
    for ca, cb in zip(a, b):
        m = max(len(ca), len(cb))
        ca = list(ca) + [0] * (m - len(ca))
        cb = list(cb) + [0] * (m - len(cb))
        out.append(tuple(poly_trim([x - y for x, y in zip(ca, cb)])))
    return tuple(out)


def pushforward_from_chi(chi):
    """chi_y of the complement: chi_proj(-y), as a y-coefficient list."""
    q = chi_proj(chi)
    out = [0] * len(q)
    for d, c in enumerate(q):
        out[d] = c * (-1) ** d
    # chi_proj(-y) = sum_d q_d (-y)^d
    return tuple(poly_trim(out))


# --- cohomology ---------------------------------------------------------------

def csm_from_chi(chi):
    """h^{n+1} chi(1 + 1/h) mod h^{n+1}, as h-coefficients 0..n."""
    n = len(chi) - 2
    out = [0] * (n + 1)
    for j, c in enumerate(chi):
        if not c:
            continue
        # c (1 + h)^j h^{n+1-j}
        for i in range(j + 1):
            deg = i + n + 1 - j
            if deg <= n:
                out[deg] += c * comb(j, i)
    return out


# --- plane-curve germs --------------------------------------------------------

def germ_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def germ_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def germ_pow(a, k):
    out = {(0, 0): 1}
    for _ in range(k):
        out = germ_mul(out, a)
    return out


def germ_change(terms, a, b, c, d):
    """f(a x + b y, c x + d y), expanded."""
    nx = {k: v for k, v in {(1, 0): a, (0, 1): b}.items() if v}
    ny = {k: v for k, v in {(1, 0): c, (0, 1): d}.items() if v}
    out = {}
    for (i, j), coeff in terms.items():
        out = germ_add(out, germ_mul(germ_mul(germ_pow(nx, i), germ_pow(ny, j)),
                                     {(0, 0): coeff}))
    return out


def germ_str(terms):
    parts = []
    for (i, j) in sorted(terms, key=lambda k: (k[0] + k[1], -k[0])):
        c = terms[(i, j)]
        mono = "*".join(p for p in (f"x^{i}" if i else "", f"y^{j}" if j else "") if p)
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def kouchnirenko(terms):
    """Milnor number of a convenient Newton-nondegenerate germ.

    mu = 2 V - a - b + 1 with V the area under the Newton polygon and a, b
    its intercepts on the axes.  Also returns the branch count, the sum of
    the lattice lengths of the compact faces.
    """
    pts = sorted(terms)
    a = min(i for i, j in pts if j == 0)
    b = min(j for i, j in pts if i == 0)
    # lower convex hull from (0, b) to (a, 0)
    cand = sorted({(i, j) for i, j in pts if i <= a and j <= b})
    hull = []
    for p in cand:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    # keep the part of the hull that descends from (0, b) to (a, 0)
    start = hull.index((0, b))
    end = hull.index((a, 0))
    poly = hull[start:end + 1]
    twice_area = 0
    branches = 0
    for (x1, y1), (x2, y2) in zip(poly, poly[1:]):
        twice_area += (x2 - x1) * (y1 + y2)
        branches += gcd(x2 - x1, y1 - y2)
    return twice_area - a - b + 1, branches


def curve_expectation(mu, tau, r):
    """The CLI's per-point report for invariants (mu, tau, r)."""
    if (mu + r - 1) % 2:
        raise ValueError("invariants violate Milnor's formula")
    delta = (mu + r - 1) // 2
    return {"mu": mu, "tau": tau, "r": r, "delta": delta,
            "pair": [-delta + r - 1, -tau + delta],
            "genus_defect": -delta + r - 1, "csm_minus_chern": tau - mu}
