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
Algebra*, 1.7).  The rows of f_x and f_y grow B until the monomial
staircase of J closes strictly inside the truncation window; Nakayama's
lemma makes that stopping rule exact, and mu is read there.  J + (f)
contains J, so its staircase is closed at the same B: the rows of f below
that bound join the echelon once, and tau is read at the same B.  An
isolated germ has mu <= (deg f - 1)^2 by Bezout, so a truncated dimension
above that bound certifies a non-isolated singularity at once, and one of
the two exits is reached by B = (deg f - 1)^2 + 1.

Branch counts are computed only where elementary arguments are rigorous:
two-term equations x^a + c y^b (gcd(a, b) branches) and squarefree
homogeneous equations, i.e. products of pairwise non-proportional linear
forms (one branch per factor).  Anything else must be user-supplied.  The
squarefree test is the rank of the Sylvester rows of f(t, 1) and its
derivative on the colength engine's echelon step.  Coefficients stay ints
from the parser to the echelon wherever they are integral.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        return _parse_polynomial(text)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, name):
        if name == "x":
            return cls({(1, 0): 1})
        if name == "y":
            return cls({(0, 1): 1})
        raise ValidationError(f"unknown variable {name!r}")

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0, 0), 0)

    def total_degree(self):
        return max((i + j for i, j in self.terms), default=0)

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
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return LocalPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if _require_int("power", k) < 0:
            raise ValidationError("negative powers are not polynomials")
        result = LocalPolynomial.constant(1)
        for _ in range(k):
            result = result * self
        return result

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


# Largest total degree the parser forms.  A single product at the limit,
# such as (1+x+y)^16 * (1+x+y)^16, takes about 0.01 s to expand.  At the
# limit the colength engine finishes x^32 - y^31 (mu = 930) in about 0.003 s
# and (x+2*y)^32 - y^31 + x*y^30 in about 0.13 s; a non-isolated germ whose
# truncated dimension grows by one per bound, such as y^2 + x^29*y^2, takes
# about 2 s to pass the Bezout bound (best of three, Python 3.11, one core
# of a shared two-vCPU Xeon VM).
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


class _Parser:
    """Recursive descent over: integers, x, y, + - * ^ and parentheses."""

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
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ValidationError(f"trailing input after polynomial (token {self.pos})")
        return value

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        value = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            sign = 1 if op == "+" else -1
            while self.peek() in ("+", "-"):
                if self.take()[0] == "-":
                    sign = -sign
            value = value + self.term() * sign
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.take()
            other = self.factor()
            degree = value.total_degree() + other.total_degree()
            if degree > MAX_PARSE_DEGREE:
                raise ValidationError(
                    f"product of degree {degree} exceeds the degree limit {MAX_PARSE_DEGREE}")
            value = value * other
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
            degree = value.total_degree() * val
            if degree > MAX_PARSE_DEGREE:
                raise ValidationError(
                    f"power of degree {degree} exceeds the degree limit {MAX_PARSE_DEGREE}")
            value = value ** val
        return value

    def atom(self):
        if self.peek() is None:
            raise ValidationError("polynomial ended unexpectedly")
        kind, val = self.take()
        if kind == "int":
            return LocalPolynomial.constant(val)
        if kind == "var":
            return LocalPolynomial.variable(val)
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


def _parse_polynomial(text):
    tokens = _tokenize(text)
    if not tokens:
        raise ValidationError("empty polynomial")
    return _Parser(tokens).parse()


def _require_local_equation(f):
    if f.is_zero():
        raise ValidationError("local equation must be nonzero")
    if f.constant_term() != 0:
        raise ValidationError("local equation must vanish at the origin")


def _column(i, j):
    """Index of x^i y^j when monomials are listed by ascending degree."""
    d = i + j
    return d * (d + 1) // 2 + j


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
        a, b = a // g, b // g
        row = {c: a * v for c, v in row.items()}
        for c, v in piv.items():
            w = row.get(c, 0) - b * v
            if w:
                row[c] = w
            else:
                del row[c]
        content = gcd(*row.values())
        if content > 1:
            row = {c: v // content for c, v in row.items()}


def _add_products(pivots, gen, degrees):
    """Add the rows m*g whose lowest degree lies in ``degrees`` to ``pivots``.

    ``gen`` is the order of g and its terms with integer coefficients.
    """
    order, terms = gen
    for k in (d - order for d in degrees):
        for b in range(k + 1):
            _add_row(pivots, {_column(i + k - b, j + b): c for (i, j), c in terms})


def local_invariants(f):
    """Milnor and Tjurina numbers of the germ of f at the origin.

    mu = dim O/J with J = (f_x, f_y), and tau = dim O/(J + (f)), in the
    local ring; a smooth point yields (0, 0).  One echelon serves both
    numbers and every truncation bound B.  Columns are monomials in
    ascending degree and rows are the whole products m*g, reduced on their
    lowest column.  Once the rows of an ideal I of lowest degree < B are in,
    dim_B = dim k[x,y]/(I + m^B) = B(B+1)/2 - #pivots(deg < B); the rows
    added at bound B have lowest degree B - 1, so pivots of degree < B
    never change afterwards.

    The rows of f_x and f_y close the staircase of J at B when every
    monomial of degree B - 1 is a pivot, i.e. m^(B-1) lies in J + m^B;
    Nakayama then puts m^(B-1) in J, so dim_B = mu.  A colength c closes it
    by B = c + 1.  As J + (f) contains J, m^(B-1) lies in it too, so tau is
    dim_B once the rows m*f of lowest degree < B join the same echelon.  A
    truncated dimension never exceeds the colength, so one above ``bezout``
    = (deg f - 1)^2 certifies a non-isolated singularity; such a germ has
    dim_B >= B, so that exit fires by B = bezout + 1.
    """
    _require_local_equation(f)
    bezout = (f.total_degree() - 1) ** 2
    # f itself is nonzero, so it is the last generator
    *jacobian, whole = [(g.order(), list(zip(g.terms, int_row(list(g.terms.values())))))
                        for g in (f.diff("x"), f.diff("y"), f) if not g.is_zero()]
    pivots = {}
    below = 0
    for bound in range(1, bezout + 2):
        for gen in jacobian:
            _add_products(pivots, gen, [bound - 1])
        first = _column(bound - 1, 0)
        top = sum(col in pivots for col in range(first, first + bound))
        below += top
        mu = bound * (bound + 1) // 2 - below
        if top == bound:
            _add_products(pivots, whole, range(bound))
            end = first + bound
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
    the caller to supply r.
    """
    _require_local_equation(f)
    keys = sorted(f.terms)
    if len(keys) == 2:
        (i1, j1), (i2, j2) = keys
        if j1 == 0 and i2 == 0 and i1 >= 1 and j2 >= 1:
            return gcd(i1, j2)
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


@dataclass(frozen=True)
class CurveSingularity:
    """Invariant tuple (mu, tau, r, delta) of an isolated plane-curve germ."""

    mu: int
    tau: int
    r: int
    delta: int

    def __post_init__(self):
        for name in ("mu", "tau", "r", "delta"):
            _require_int(name, getattr(self, name))
        if self.mu < 0 or self.tau < 0 or self.delta < 0:
            raise ValidationError("mu, tau and delta must be nonnegative")
        if self.r < 1:
            raise ValidationError("branch count r must be positive")
        if self.delta < self.r - 1:
            raise ValidationError(
                f"delta = {self.delta} is below r - 1 = {self.r - 1}")
        if self.tau > self.mu:
            raise ValidationError(
                f"tau = {self.tau} exceeds mu = {self.mu}")
        if self.mu != 2 * self.delta - self.r + 1:
            raise ValidationError(
                f"Milnor's formula fails: mu = {self.mu} but "
                f"2*delta - r + 1 = {2 * self.delta - self.r + 1}")


@dataclass(frozen=True)
class CurveDifferenceClass:
    """Per-singularity weights (a, b) of the class a [O_x] + b [O_x] y."""

    pairs: tuple

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
