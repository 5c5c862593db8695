"""Isolated plane-curve singularities and per-point difference classes.

For a reduced curve on a smooth surface, the difference between the motivic
Chern class of the complement and the twisted logarithmic-form class is a
sum of point classes, with integer weights determined by local invariants:

    (-delta + r - 1) [O_x]  +  (-tau + delta) [O_x] * y

per singular point, where delta is the delta-invariant, r the number of
local branches and tau the Tjurina number.  Milnor's formula
mu = 2*delta - r + 1 ties these to the Milnor number mu.

The module computes mu and tau as colengths of the ideals J = (f_x, f_y)
and J + (f) in the local ring at the origin, by exact linear algebra on
monomials below a truncation bound B, in one integer echelon for both
ideals and every B (Greuel-Pfister, *A Singular Introduction to Commutative
Algebra*, 1.7); ``local_invariants`` states when each number is read.

Branch counts are computed only where elementary arguments are rigorous:
two-term equations x^a + c y^b (gcd(a, b) branches) and squarefree
homogeneous equations, i.e. products of pairwise non-proportional linear
forms (one branch per factor).  Anything else must be user-supplied.  The
squarefree test is the rank of the Sylvester rows of f(t, 1) and its
derivative on the colength engine's echelon step.  Coefficients stay ints
from the parser to the echelon wherever they are integral.
"""

from collections import namedtuple
from math import gcd

from ._linalg import int_row
from ._poly import MAX_LITERAL_DIGITS, exact_scalar, power, render
from .errors import (BranchCountRequiredError, InconsistencyError,
                     NonIsolatedSingularityError, ValidationError)


class LocalPolynomial:
    """Bivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent pairs (i, j) of nonnegative ints, for x^i y^j,
    to nonzero coefficients: an int where the value is integral, else a
    Fraction.  Coefficients and scalars must be exact (ints or rationals);
    a float, a bool or text is refused.  Only LocalPolynomials add or
    subtract.  Instances are immutable; arithmetic returns new values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), c in terms.items():
                if type(i) is not int or type(j) is not int or i < 0 or j < 0:
                    raise ValidationError(
                        f"exponents must be nonnegative integers, got {(i, j)!r}")
                if type(c) is not int:
                    c = exact_scalar(c, rational=True)
                    c = c.numerator if c.denominator == 1 else c
                if c:
                    clean[i, j] = c
        self.terms = clean

    @classmethod
    def from_string(cls, text):
        return cls(_Parser(_tokenize(text)).parse())

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, name):
        if name not in ("x", "y"):
            raise ValidationError(f"unknown variable {name!r}")
        return cls({(1, 0) if name == "x" else (0, 1): 1})

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0, 0), 0)

    def total_degree(self):
        return _degree(self.terms)

    def order(self):
        """Minimal total degree of a term (valuation at the origin)."""
        return min((i + j for i, j in self.terms), default=0)

    def diff(self, var):
        out = {}
        for (i, j), c in self.terms.items():
            if var == "x" and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), 0) + c * i
            elif var == "y" and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), 0) + c * j
        return LocalPolynomial(out)

    def __add__(self, other):
        if not isinstance(other, LocalPolynomial):  # a sum takes no scalar
            raise ValidationError(
                f"cannot combine LocalPolynomial with {type(other).__name__}")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return LocalPolynomial(out)

    def __sub__(self, other):
        return self + (-other if isinstance(other, LocalPolynomial) else other)

    __radd__ = __rsub__ = __add__  # reached only with a scalar on the left: refused

    def __neg__(self):
        return LocalPolynomial({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LocalPolynomial):
            if type(other) is not int:
                other = exact_scalar(other, rational=True)
            return LocalPolynomial({k: c * other for k, c in self.terms.items()})
        return LocalPolynomial(_product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if _require_int("power", k) < 0:
            raise ValidationError("negative powers are not polynomials")
        return LocalPolynomial(_power(self.terms, k))

    def substitute_linear(self, a, b, c, d):
        """Linear coordinate change x -> a x + b y, y -> c x + d y."""
        nx = LocalPolynomial({(1, 0): a, (0, 1): b})
        ny = LocalPolynomial({(1, 0): c, (0, 1): d})
        out = LocalPolynomial.zero()
        for (i, j), coeff in self.terms.items():
            out = out + (nx ** i) * (ny ** j) * coeff
        return out

    def __eq__(self, other):
        return isinstance(other, LocalPolynomial) and self.terms == other.terms

    def __str__(self):
        order = sorted(self.terms, key=lambda k: (k[0] + k[1], -k[0]))
        return render((self.terms[i, j], "*".join(filter(None, [power("x", i), power("y", j)])))
                      for i, j in order)

    def __repr__(self):
        return f"LocalPolynomial({self})"


# Largest total degree the parser forms.  At the limit, parsing
# (1+x+y)^16 * (1+x+y)^16 takes about 0.006 s; the colength engine finishes
# x^32 - y^31 (mu = 930) in 0.001 s and (x+2*y)^32 - y^31 + x*y^30 in 0.11 s,
# and refuses y^2 + x^29*y^2, whose truncated dimension grows by one per
# bound, in 1.3 s (best of three, Python 3.11, one core of a shared
# two-vCPU Xeon VM).
MAX_PARSE_DEGREE = 32

# Deepest parenthesis nesting parsed: four frames a level (expr, term, factor,
# atom) use 400 of Python's default limit of 1000, leaving 600 to callers.
MAX_PARSE_DEPTH = 100


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit() and ch.isascii():  # int() reads other digits too
            j, end = i + 1, min(len(text), i + MAX_LITERAL_DIGITS + 1)  # no scan past the limit
            while j < end and text[j].isdigit() and text[j].isascii():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ValidationError(f"integer literal at position {i} is too long")
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch in "xy":
            tokens.append(("var", ch))
            i += 1
        elif ch in "+-*^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ValidationError(f"unexpected character {ch!r} at position {i} in polynomial")
    return tokens


def _degree(terms):
    return max((i + j for i, j in terms), default=0)


def _product(a, b):
    """Product of two term dicts {(i, j): c}, without zero terms."""
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _power(terms, k):
    if len(terms) == 1:  # a monomial in one step
        ((i, j), c), = terms.items()
        return {(i * k, j * k): c ** k}
    result = {(0, 0): 1}
    for _ in range(k):
        result = _product(result, terms)
    return result


class _Parser:
    """Recursive descent over: integers, x, y, + - * ^ and parentheses,
    into term dicts {(i, j): int} without zero terms."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        if not self.tokens:
            raise ValidationError("empty polynomial")
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ValidationError(f"trailing input after polynomial (token {self.pos})")
        return value

    def expr(self):
        total = {}
        while True:
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take()[0] == "-":
                    sign = -sign
            for key, c in self.term().items():
                total[key] = total.get(key, 0) + sign * c
            if self.peek() not in ("+", "-"):
                return {key: c for key, c in total.items() if c}

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.take()
            other = self.factor()
            degree = _degree(value) + _degree(other)
            if degree > MAX_PARSE_DEGREE:
                raise ValidationError(
                    f"product of degree {degree} exceeds the degree limit {MAX_PARSE_DEGREE}")
            value = _product(value, other)
        return value

    def factor(self):
        value = self.atom()
        if self.peek() == "^":
            self.take()
            kind, val = self.take() if self.pos < len(self.tokens) else (None, None)
            if kind != "int":
                raise ValidationError("exponent must be a nonnegative integer literal")
            # a constant base has degree 0, so the exponent is bounded too
            if val > MAX_PARSE_DEGREE:
                raise ValidationError(
                    f"exponent {val} exceeds the degree limit {MAX_PARSE_DEGREE}")
            degree = _degree(value) * val
            if degree > MAX_PARSE_DEGREE:
                raise ValidationError(
                    f"power of degree {degree} exceeds the degree limit {MAX_PARSE_DEGREE}")
            value = _power(value, val)
        return value

    def atom(self):
        if self.peek() is None:
            raise ValidationError("polynomial ended unexpectedly")
        kind, val = self.take()
        if kind == "int":
            return {(0, 0): val} if val else {}
        if kind == "var":
            return {(1, 0) if val == "x" else (0, 1): 1}
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_PARSE_DEPTH:
                raise ValidationError(f"parentheses nested over the limit {MAX_PARSE_DEPTH}")
            value = self.expr()
            if self.peek() != ")":
                raise ValidationError("missing closing parenthesis")
            self.take()
            self.depth -= 1
            return value
        raise ValidationError(f"unexpected token {val!r} in polynomial")


def _require_local_equation(f):
    if f.is_zero():
        raise ValidationError("local equation must be nonzero")
    if f.constant_term() != 0:
        raise ValidationError("local equation must vanish at the origin")


def _add_row(pivots, row):
    """Reduce ``row`` on its lowest column against ``pivots`` and keep it.

    ``pivots`` maps each pivot column to a sparse primitive row
    ``{column: int}`` whose lowest column it is; a row that reduces to zero
    is dropped.
    """
    while row:
        col = min(row)
        piv = pivots.get(col)
        if piv is None:
            pivots[col] = row
            return
        a, b = piv[col], row[col]
        g = gcd(a, b)
        if g != a:
            a //= g
            row = {c: a * v for c, v in row.items()}
        b //= g
        for c, v in piv.items():
            w = row.get(c, 0) - b * v
            if w:
                row[c] = w
            else:
                del row[c]
        content = gcd(*row.values())
        if content > 1:
            row = {c: v // content for c, v in row.items()}


def _shifted(gen, k, b):
    """The row of x^(k-b) y^b * g, for g as (degree, j, c) triples of its terms
    x^(degree-j) y^j; x^i y^j is column d(d+1)/2 + j with d = i + j."""
    return {(d + k) * (d + k + 1) // 2 + j + b: c for d, j, c in gen}


def local_invariants(f):
    """Milnor and Tjurina numbers of the germ of f at the origin.

    mu = dim O/J with J = (f_x, f_y), and tau = dim O/(J + (f)), in the
    local ring; a smooth point yields (0, 0).  Columns are monomials in
    ascending degree and rows are whole products m*g, reduced on their
    lowest column.  Once the rows of an ideal I of lowest degree < B are in,
    dim_B = dim k[x,y]/(I + m^B) = B(B+1)/2 - #pivots(deg < B), and rows of
    higher lowest degree never change those pivots.

    The rows of f_x and f_y close the staircase of J at B when every
    monomial of degree B - 1 is a pivot, i.e. m^(B-1) lies in J + m^B;
    Nakayama then puts m^(B-1) in J, so dim_B = mu.  A colength c closes it
    by B = c + 1.  If the row of f adds no pivot of degree < B, f lies in
    J + m^B = J and tau = mu (by K. Saito, exactly when f is
    quasi-homogeneous in some coordinates).  Else J + (f) = J + f*O, O/J is
    spanned by J's standard monomials m (the non-pivot columns of degree
    < B), and m*f lies in m^(B-1), inside J, once deg m >= B - 1 - ord f;
    so tau is dim_B after the rows m*f of the other standard m of lower
    degree.  A truncated dimension never exceeds the colength, so one above
    ``bezout`` = (deg f - 1)^2 certifies a non-isolated singularity; such a
    germ has dim_B >= B, so that exit fires by B = bezout + 1.
    """
    _require_local_equation(f)
    bezout = (f.total_degree() - 1) ** 2
    # f itself is nonzero, so it is the last generator
    *jacobian, (order, whole) = [
        (g.order(), [(i + j, j, c) for (i, j), c in zip(g.terms, int_row(list(g.terms.values())))])
        for g in (f.diff("x"), f.diff("y"), f) if not g.is_zero()]
    pivots = {}
    below = 0
    for bound in range(1, bezout + 2):
        for low, gen in jacobian:
            for b in range(bound - low):
                _add_row(pivots, _shifted(gen, bound - 1 - low, b))
        end = bound * (bound + 1) // 2
        top = sum(col in pivots for col in range(end - bound, end))
        below += top
        mu = end - below
        if top == bound:
            standard = [(d, b) for d in range(1, bound - 1 - order) for b in range(d + 1)
                        if d * (d + 1) // 2 + b not in pivots]
            _add_row(pivots, _shifted(whole, 0, 0))
            if sum(col < end for col in pivots) > below:
                for d, b in standard:
                    _add_row(pivots, _shifted(whole, d, b))
            return mu, end - sum(col < end for col in pivots)
        if mu > bezout:
            break
    raise NonIsolatedSingularityError(
        f"Milnor number did not stabilise: truncated colength {mu} exceeds the "
        f"Bezout bound (deg f - 1)^2 = {bezout}: the singularity is not "
        "isolated (the local equation is not reduced)")


def branch_count(f):
    """Number of local analytic branches at the origin, where rigorous.

    Supported families: f = a x^p + b y^q with a, b nonzero (gcd(p, q)
    branches) and squarefree homogeneous f of degree k (k branches, one per
    linear factor over the algebraic closure).  Other shapes raise, asking
    the caller to supply r.  The refusal of a repeated linear factor is
    reached only by a direct call: such a germ is not isolated, so
    ``local_invariants`` refuses it first on every other path.
    """
    _require_local_equation(f)
    keys = sorted(f.terms)
    if len(keys) == 2:
        (i1, j1), (i2, j2) = keys  # sorted: a pure power of y comes first
        if i1 == 0 and j2 == 0 and j1 >= 1 and i2 >= 1:
            return gcd(j1, i2)
    degrees = {i + j for i, j in f.terms}
    if len(degrees) == 1:
        k = degrees.pop()
        if _binary_form_squarefree(f, k):
            return k
        raise BranchCountRequiredError(
            "homogeneous local equation has a repeated linear factor "
            "(not reduced); branch count required: supply r explicitly")
    raise BranchCountRequiredError(
        "branch count required: the local equation is neither two-term "
        "x^p + c*y^q nor squarefree homogeneous; supply r explicitly")


def _binary_form_squarefree(f, k):
    # dehomogenise to g(t) = f(t, 1) of degree m; f is squarefree iff the
    # leftover power of y is at most 1 and Res(g, g') != 0, i.e. the rows of
    # the Sylvester matrix, m - 1 shifts of g and m shifts of g', are
    # independent in one echelon
    g = [0] * (k + 1)
    for (i, j), c in f.terms.items():
        g[i] = c
    m = max(i for i in range(k + 1) if g[i])
    if k - m > 1:
        return False
    g = int_row(g[:m + 1])
    gp = [c * i for i, c in enumerate(g)][1:]
    rows = [(s, g) for s in range(m - 1)] + [(s, gp) for s in range(m)]
    pivots = {}
    for s, p in rows:
        _add_row(pivots, {s + i: c for i, c in enumerate(p) if c})
    return len(pivots) == len(rows)


class CurveSingularity(namedtuple("CurveSingularity", "mu tau r delta")):
    """Invariant tuple (mu, tau, r, delta) of an isolated plane-curve germ.

    Construction validates, and so does ``_replace``, through ``_make``.
    """

    __slots__ = ()

    def __new__(cls, mu, tau, r, delta):
        self = tuple.__new__(cls, (mu, tau, r, delta))
        for name, value in zip(self._fields, self):
            _require_int(name, value)
        if mu < 0 or tau < 0 or delta < 0:
            raise ValidationError("mu, tau and delta must be nonnegative")
        if r < 1:
            raise ValidationError("branch count r must be positive")
        if delta < r - 1:
            raise ValidationError(f"delta = {delta} is below r - 1 = {r - 1}")
        if tau > mu:
            raise ValidationError(f"tau = {tau} exceeds mu = {mu}")
        if mu != 2 * delta - r + 1:
            raise ValidationError(
                f"Milnor's formula fails: mu = {mu} but "
                f"2*delta - r + 1 = {2 * delta - r + 1}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))


class CurveDifferenceClass(namedtuple("CurveDifferenceClass", "pairs")):
    """Per-singularity weights (a, b) of the class a [O_x] + b [O_x] y."""

    __slots__ = ()

    @property
    def total(self):
        return (sum(a for a, _ in self.pairs), sum(b for _, b in self.pairs))

    def is_zero(self):
        return all(a == 0 and b == 0 for a, b in self.pairs)


def delta_from_milnor(mu, r):
    """delta = (mu + r - 1) / 2, from Milnor's formula mu = 2 delta - r + 1."""
    _require_int("mu", mu)
    _require_int("r", r)
    if mu < 0 or r < 1:
        raise ValidationError("need mu >= 0 and r >= 1")
    if (mu + r - 1) % 2:
        raise ValidationError(
            f"invalid invariants: mu + r - 1 = {mu + r - 1} is odd")
    return (mu + r - 1) // 2


def singularity_from_poly(f, r=None):
    """Full invariant tuple of a local equation.

    ``r`` overrides the branch count (required outside the supported
    families); a smooth point always has one branch.
    """
    mu, tau = local_invariants(f)
    if r is None:
        r = 1 if mu == 0 else branch_count(f)
    else:
        r = exact_scalar(r)
    return CurveSingularity(mu=mu, tau=tau, r=r, delta=delta_from_milnor(mu, r))


def difference_class_curve(sings):
    """Difference class of a reduced curve from its singularity invariants.

    Each singular point contributes the pair
    (-delta + r - 1, -tau + delta).
    """
    pairs = tuple((-s.delta + s.r - 1, -s.tau + s.delta) for s in sings)
    return CurveDifferenceClass(pairs)


def csm_minus_chern_curve(sings):
    """Per-point weights tau - mu of the CSM-minus-Chern comparison.

    Also re-asserts that evaluating the difference class at y = -1 gives
    the same weights: tau - 2 delta + r - 1 = tau - mu by Milnor's formula.
    """
    out = []
    for s in sings:
        at_minus_one = (-s.delta + s.r - 1) - (-s.tau + s.delta)
        if at_minus_one != s.tau - s.mu:
            raise InconsistencyError(
                f"difference class at y=-1 gives {at_minus_one}, "
                f"but tau - mu = {s.tau - s.mu}")
        out.append(s.tau - s.mu)
    return out


def genus_defect(sing):
    """-delta + r - 1: local drop from arithmetic to geometric genus."""
    return -sing.delta + sing.r - 1


def singularity_from_json(obj):
    """Build a CurveSingularity from its JSON form.

    Either {"poly": "x^2 - y^3"} (optionally with "r" when the branch count
    cannot be derived) or {"mu": ..., "tau": ..., "r": ...} with delta
    derived via Milnor's formula.
    """
    if not isinstance(obj, dict):
        raise ValidationError("singularity entry must be a JSON object")
    if "poly" in obj:
        if not isinstance(obj["poly"], str):
            raise ValidationError("'poly' must be a string")
        r = None if obj.get("r") is None else _require_int("r", obj["r"])
        return singularity_from_poly(LocalPolynomial.from_string(obj["poly"]), r=r)
    missing = [key for key in ("mu", "tau", "r") if key not in obj]
    if missing:
        raise ValidationError(
            f"singularity object needs 'poly' or mu/tau/r (missing {missing})")
    mu, tau, r = (_require_int(key, obj[key]) for key in ("mu", "tau", "r"))
    return CurveSingularity(mu=mu, tau=tau, r=r, delta=delta_from_milnor(mu, r))


def _require_int(name, value):
    if type(value) is not int:  # also refuses true and false
        raise ValidationError(f"'{name}' must be an integer, got {type(value).__name__}")
    return value
