"""Local singularity invariants and curve difference-class tests.

Milnor numbers for the binomial family x^a + c y^b are the textbook values
(a-1)(b-1); the non-quasi-homogeneous example x^4 + y^5 + x^2 y^3 has
(mu, tau) = (12, 11).  The colength engine is checked against two
references it shares no code with: sympy Groebner bases of I + m^N, and
the dense truncation loop that rebuilds one matrix per bound.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmc import (BranchCountRequiredError, CurveSingularity, LocalPolynomial,
                   NonIsolatedSingularityError, ValidationError, branch_count,
                   csm_minus_chern_curve, delta_from_milnor,
                   difference_class_curve, genus_defect, local_invariants,
                   singularity_from_json, singularity_from_poly)
from logmc import _linalg, _poly, curves
from logmc.cli import RunConfig, run
from logmc.curves import MAX_PARSE_DEGREE, MAX_PARSE_DEPTH
from test_arrangement import int_digit_limit_lifted

P = LocalPolynomial.from_string
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# --- parser

def test_parse_basic():
    f = P("x^2 - y^3")
    assert f.terms == {(2, 0): 1, (0, 3): -1}
    assert P("2*x*y").terms == {(1, 1): 2}
    assert P("-x").terms == {(1, 0): -1}
    assert P("(x + y)^2").terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert P("x - - y").terms == {(1, 0): 1, (0, 1): 1}
    assert P("3").terms == {(0, 0): 3}


def test_parse_rejects_bad_input():
    for bad in ("2x", "x^", "x^-2", "x +", "(x", "x^y", "z", ""):
        with pytest.raises(ValidationError):
            P(bad)
    # a literal is ASCII decimal digits, though str.isdigit and int() take more
    for bad, ch in (("x^\u0663 - y^2", "\u0663"), ("x^\u00b2-y^3", "\u00b2"), ("x*1_0", "_")):
        with pytest.raises(ValidationError, match=f"unexpected character '{ch}' at position"):
            P(bad)


def test_parse_refuses_oversized_input():
    limit = MAX_PARSE_DEGREE
    for text in ("x^1000000", "((x+y)^60)^60", f"(x+y)^{limit}*y",
                 f"(x*y)^{limit // 2 + 1}", f"2^{10 ** 6}", "9" * 5000):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=f"limit {limit}|too long"):
            P(text)
        assert time.perf_counter() - start < 0.1, text
    assert P(f"x^{limit} - y^{limit - 1}*x").total_degree() == limit
    assert P(f"(x+y)^{limit // 2}*(x-y)^{limit // 2}").total_degree() == limit


def test_parse_refuses_oversized_input_with_the_digit_limit_lifted():
    # literals are refused by their length, not by int_max_str_digits
    with int_digit_limit_lifted():
        test_parse_refuses_oversized_input()
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="position 2 is too long"):
            P("x*" + "9" * 200000)
        assert time.perf_counter() - start < 0.1
    longest = "9" * _poly.MAX_LITERAL_DIGITS
    assert P(longest).terms == {(0, 0): int(longest)}


def test_parse_refuses_deep_nesting():
    depth = MAX_PARSE_DEPTH
    assert P("(" * depth + "x - y^2" + ")" * depth) == P("x - y^2")
    for text in ("(" * (depth + 1) + "x" + ")" * (depth + 1), "(" * 10 ** 5):
        with pytest.raises(ValidationError, match=f"limit {depth}"):
            P(text)


def test_polynomial_arithmetic():
    f = P("x^2 - y^2")
    assert f.diff("x") == P("2*x")
    assert f.diff("y") == P("-2*y")
    assert f.total_degree() == 2 and f.order() == 2
    assert (P("x") * P("y")).terms == {(1, 1): 1}
    assert str(P("x^2 - 2*x*y + 1 - 1")) == "x^2 - 2*x*y"


# --- local invariants

def test_local_invariants_textbook_values():
    assert local_invariants(P("x^2 + y^2")) == (1, 1)
    assert local_invariants(P("x^2 + y^3")) == (2, 2)
    assert local_invariants(P("x^3 + y^4")) == (6, 6)


def test_local_invariants_corpus():
    assert local_invariants(P("x^2 - y^2")) == (1, 1)
    assert local_invariants(P("x^2 - y^4")) == (3, 3)
    assert local_invariants(P("x^3 - y^3")) == (4, 4)


def test_local_invariants_binomial_family_milnor_values():
    for a in range(2, 5):
        for b in range(2, 6):
            mu, tau = local_invariants(P(f"x^{a} + y^{b}"))
            assert mu == (a - 1) * (b - 1)
            assert tau == mu  # quasi-homogeneous


def test_local_invariants_smooth_point():
    assert local_invariants(P("x + y^2")) == (0, 0)
    assert local_invariants(P("y")) == (0, 0)


def test_local_invariants_sees_only_the_origin():
    # nodal-type equation with a second critical point away from the origin
    f = P("y^2 - x^2 + x^3")
    assert local_invariants(f) == (1, 1)


def test_non_quasi_homogeneous_example():
    # mu = 12 by the semi-quasi-homogeneous principle for x^4 + y^5;
    # tau = 11 (independently cross-checked): strictly below mu
    mu, tau = local_invariants(P("x^4 + y^5 + x^2*y^3"))
    assert (mu, tau) == (12, 11)


def test_local_invariants_unit_scaling_invariance():
    from fractions import Fraction
    f = P("x^2 - y^3")
    g = f * Fraction(3, 7)
    assert local_invariants(g) == local_invariants(f)


def test_non_isolated_rejected():
    with pytest.raises(NonIsolatedSingularityError):
        local_invariants(P("x^2*y"))
    with pytest.raises(NonIsolatedSingularityError):
        local_invariants(P("x^2"))


def test_local_equation_validation():
    with pytest.raises(ValidationError, match="vanish at the origin"):
        local_invariants(P("x^2 + 1"))
    with pytest.raises(ValidationError, match="nonzero"):
        local_invariants(LocalPolynomial.zero())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["x^2 - y^2", "x^2 + y^3", "x^2 - y^4", "x^3 - y^3"]),
       st.integers(-2, 2), st.integers(-2, 2), st.booleans())
def test_invariance_under_unimodular_change(poly, p, q, swap):
    # shear x -> x + p y, y -> q x + (1 + p q) y has determinant 1;
    # optionally composed with the swap (x, y) -> (y, x)
    f = P(poly)
    g = f.substitute_linear(1, p, q, 1 + p * q)
    if swap:
        g = g.substitute_linear(0, 1, 1, 0)
    assert local_invariants(g) == local_invariants(f)


# --- branch counts

def test_branch_count_supported_families():
    assert branch_count(P("x^2 - y^2")) == 2
    assert branch_count(P("x^2 + y^3")) == 1
    assert branch_count(P("x^3 - y^3")) == 3
    assert branch_count(P("x^2 - y^4")) == 2
    assert branch_count(P("x*y")) == 2
    assert branch_count(P("x^2 + y^2")) == 2  # two conjugate branches
    assert branch_count(P("x^3 - x*y^2")) == 3  # x(x-y)(x+y)


def test_branch_count_requires_user_input_otherwise():
    with pytest.raises(BranchCountRequiredError):
        branch_count(P("y^2 - x^3 - x^2"))
    with pytest.raises(BranchCountRequiredError, match="repeated linear factor"):
        branch_count(P("x^2*y"))


def test_branch_count_matches_sympy_on_seeded_binary_forms():
    # products of linear forms and irreducible quadratics, drawn with
    # repeats from a small pool (so proportional forms recur), some scaled by
    # a rational: squarefree exactly when sympy says so, and then one branch
    # per linear factor over the algebraic closure
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    rng = random.Random(18)
    pool = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
    outcomes = set()
    for _ in range(200):
        f, expr = LocalPolynomial.constant(1), sympy.Integer(1)
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.25:  # x^2 + c*x*y + d*y^2 with c^2 < 4d
                d = rng.randint(1, 3)
                c = rng.choice([c for c in range(-3, 4) if c * c < 4 * d])
                f = f * LocalPolynomial({(2, 0): 1, (1, 1): c, (0, 2): d})
                expr *= x ** 2 + c * x * y + d * y ** 2
            else:
                a, b = rng.choice(pool)
                f = f * LocalPolynomial({(1, 0): a, (0, 1): b})
                expr *= a * x + b * y
        if rng.random() < 0.3:
            scale = Fraction(rng.choice((-3, 1, 2, 5)), rng.choice((1, 3, 4)))
            f = f * scale
            expr *= sympy.Rational(scale.numerator, scale.denominator)
        poly = sympy.Poly(expr, x, y)
        if poly.is_sqf:
            expected = sum(sympy.Poly(g, x, y).total_degree()
                           for g, _ in sympy.factor_list(expr)[1])
            assert branch_count(f) == expected == f.total_degree(), str(f)
        else:
            with pytest.raises(BranchCountRequiredError):
                branch_count(f)
        outcomes.add(poly.is_sqf)
    assert outcomes == {True, False}


# --- Milnor's formula

def test_delta_from_milnor_values():
    assert delta_from_milnor(1, 2) == 1  # node
    assert delta_from_milnor(2, 1) == 1  # cusp
    assert delta_from_milnor(0, 1) == 0  # smooth point
    assert delta_from_milnor(3, 2) == 2  # tacnode
    assert delta_from_milnor(4, 3) == 3  # ordinary triple point


def test_delta_from_milnor_parity_violation():
    with pytest.raises(ValidationError, match="odd"):
        delta_from_milnor(1, 1)
    with pytest.raises(ValidationError):
        delta_from_milnor(-1, 1)
    with pytest.raises(ValidationError):
        delta_from_milnor(1, 0)


def test_singularity_type_invariants():
    with pytest.raises(ValidationError, match="Milnor"):
        CurveSingularity(mu=2, tau=2, r=2, delta=1)
    with pytest.raises(ValidationError, match="exceeds"):
        CurveSingularity(mu=1, tau=2, r=2, delta=1)
    with pytest.raises(ValidationError, match="below r - 1"):
        CurveSingularity(mu=0, tau=0, r=2, delta=0)
    with pytest.raises(ValidationError):
        CurveSingularity(mu=1, tau=1, r=0, delta=1)


def test_inexact_curve_inputs_refused():
    # 0.1 is stored as 3602879701896397/36028797018963968 if accepted
    with pytest.raises(ValidationError, match="floats are not accepted"):
        LocalPolynomial({(2, 0): 0.1, (0, 3): 1})
    with pytest.raises(ValidationError, match="not a number: True"):
        LocalPolynomial({(2, 0): True, (0, 3): 1})
    f = P("x^2 - y^3")
    for bad in (lambda: f * 0.5, lambda: 0.5 * f, lambda: LocalPolynomial.constant(0.5),
                lambda: f.substitute_linear(1, 0.5, 0, 1)):
        with pytest.raises(ValidationError, match="floats are not accepted"):
            bad()
    with pytest.raises(ValidationError, match="floats are not accepted"):
        singularity_from_poly(f, r=1.7)
    with pytest.raises(ValidationError, match="is not an integer"):
        singularity_from_poly(f, r="1")
    for field in ("mu", "tau", "r", "delta"):
        values = {"mu": 2, "tau": 2, "r": 1, "delta": 1}
        for bad in (float(values[field]), bool(values[field]),
                    Fraction(values[field])):
            with pytest.raises(ValidationError, match=f"'{field}' must be an integer"):
                CurveSingularity(**{**values, field: bad})
    for bad in (1.5, True, Fraction(2)):
        with pytest.raises(ValidationError, match="'power' must be an integer"):
            LocalPolynomial.variable("x") ** bad
    for mu, r, name in ((2.0, 1, "mu"), (True, 1, "mu"), (1, 2.0, "r"), (2, True, "r")):
        with pytest.raises(ValidationError, match=f"'{name}' must be an integer"):
            delta_from_milnor(mu, r)


def test_exponents_must_be_nonnegative_ints():
    # int() truncated 1.5 to 1, and -1 stored x^-1
    for key in ((1.5, 0), (-1, 0), (0, -2), (True, 1), ("1", 0)):
        with pytest.raises(ValidationError, match="exponents must be nonnegative integers"):
            LocalPolynomial({key: 1})
    assert LocalPolynomial({(1, 0): 1}).terms == {(1, 0): 1}


def test_curve_inputs_refuse_text_as_numbers():
    # Fraction parses strings, so "1/2" was stored as 1/2 and "3" tripled f
    with pytest.raises(ValidationError, match="not a number: '1/2'"):
        LocalPolynomial({(2, 0): "1/2"})
    f = LocalPolynomial.from_string("x^2-y^3")
    for bad in (lambda: f * "3", lambda: "3" * f):
        with pytest.raises(ValidationError, match="not a number: '3'"):
            bad()


def test_exact_curve_inputs_accepted():
    f = P("x^2 - y^3")
    assert (f * Fraction(1, 2)).terms == {(2, 0): Fraction(1, 2), (0, 3): Fraction(-1, 2)}
    assert (f * 2).terms == {(2, 0): 2, (0, 3): -2}
    assert f.substitute_linear(Fraction(1, 2), 0, 0, 1).terms == {(2, 0): Fraction(1, 4),
                                                                  (0, 3): -1}
    assert LocalPolynomial.constant(Fraction(2, 3)).constant_term() == Fraction(2, 3)
    assert singularity_from_poly(f, r=1) == CurveSingularity(2, 2, 1, 1)
    assert (f - LocalPolynomial({(2, 0): Fraction(1, 2), (0, 3): -1})).terms == {
        (2, 0): Fraction(1, 2)}


def test_coefficients_are_ints_where_integral():
    # ints from the parser on; a Fraction only for a non-integer rational
    for text in ("x^2 - y^3", "(x + 2*y)^5 - 3*x*y^4", "x*y*(x+y)*(x-y)", "7"):
        f = P(text)
        for g in (f, f.diff("x"), f.diff("y"), f.substitute_linear(1, 2, -1, 3),
                  (f * Fraction(1, 2)) * 2, f * Fraction(4, 2), f - f * Fraction(1, 3) * 3):
            assert all(type(c) is int for c in g.terms.values()), (text, g)
    half = P("x^2 - y^3") * Fraction(1, 2)
    assert [type(c) for c in half.terms.values()] == [Fraction, Fraction]
    assert type(LocalPolynomial.constant(Fraction(6, 3)).constant_term()) is int
    assert LocalPolynomial.variable("x").terms == {(1, 0): 1}


def test_sums_refuse_scalar_operands():
    f = P("x^2 - y^3")
    for op, name in ((lambda: f + 1, "int"), (lambda: f - 1, "int"),
                     (lambda: f - "a", "str"), (lambda: f + None, "NoneType"),
                     (lambda: f + Fraction(1, 2), "Fraction"),
                     (lambda: 1 + f, "int"), (lambda: 1 - f, "int")):
        with pytest.raises(ValidationError,
                           match=f"cannot combine LocalPolynomial with {name}$"):
            op()
    assert f - f == LocalPolynomial.zero()


def test_curve_command_makes_no_fraction(monkeypatch, tmp_path):
    # every corpus germ and a squarefree binary form run on ints alone
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was made on the curve path")

    monkeypatch.setattr(_poly, "Fraction", NoFraction)
    monkeypatch.setattr(_linalg, "Fraction", NoFraction)
    extra = tmp_path / "forms.json"
    extra.write_text(json.dumps([{"poly": "x*y*(x+y)*(x-2*y)"},
                                 {"poly": "y^2 - x^3 - x^2", "r": 2}]))
    paths = sorted(CORPUS.glob("*.json")) + [extra]
    assert len(paths) > 4
    for path in paths:
        for fmt in ("text", "json"):
            code, report = run(RunConfig("curve", str(path), fmt))
            assert code == 0, (path, fmt, report)


# --- difference class

def test_singularity_from_poly_corpus():
    expected = {
        "x^2 - y^2": CurveSingularity(1, 1, 2, 1),
        "x^2 - y^3": CurveSingularity(2, 2, 1, 1),
        "x^2 - y^4": CurveSingularity(3, 3, 2, 2),
        "x^3 - y^3": CurveSingularity(4, 4, 3, 3),
    }
    for poly, sing in expected.items():
        got = singularity_from_poly(P(poly))
        assert got == sing
        assert got.mu == 2 * got.delta - got.r + 1


def test_difference_pairs():
    sings = [singularity_from_poly(P(p)) for p in
             ("x^2 - y^2", "x^2 - y^3", "x^2 - y^4", "x^3 - y^3")]
    dc = difference_class_curve(sings)
    assert dc.pairs == ((0, 0), (-1, -1), (-1, -1), (-1, -1))
    assert dc.total == (-3, -3)
    assert not dc.is_zero()
    assert difference_class_curve([sings[0]]).is_zero()


def test_difference_zero_exactly_on_nodes_in_binomial_family():
    for a in range(2, 5):
        for b in range(a, 6):
            sing = singularity_from_poly(P(f"x^{a} - y^{b}"))
            pair = difference_class_curve([sing]).pairs[0]
            if (a, b) == (2, 2):
                assert pair == (0, 0)
            else:
                assert pair != (0, 0), (a, b)


def test_quasi_homogeneous_pairs_have_equal_coefficients():
    # tau = mu makes both weights equal to -delta + r - 1
    for poly in ("x^2 - y^3", "x^2 - y^4", "x^3 - y^3", "x^3 + y^4"):
        sing = singularity_from_poly(P(poly))
        a, b = difference_class_curve([sing]).pairs[0]
        assert sing.tau == sing.mu
        assert a == b == -sing.delta + sing.r - 1


def test_csm_minus_chern():
    node = singularity_from_poly(P("x^2 - y^2"))
    cusp = singularity_from_poly(P("x^2 - y^3"))
    assert csm_minus_chern_curve([node, cusp]) == [0, 0]
    # non-quasi-homogeneous: tau < mu, computed (never fabricated)
    hard = singularity_from_poly(P("x^4 + y^5 + x^2*y^3"), r=1)
    assert hard.tau - hard.mu == -1
    assert csm_minus_chern_curve([hard]) == [-1]


def test_genus_defect():
    assert genus_defect(singularity_from_poly(P("x^2 - y^2"))) == 0
    assert genus_defect(singularity_from_poly(P("x^2 - y^3"))) == -1
    assert genus_defect(singularity_from_poly(P("x^3 - y^3"))) == -1


def test_milnor_identity_for_all_constructed_singularities():
    polys = ["x^2 - y^2", "x^2 - y^3", "x^2 - y^4", "x^3 - y^3",
             "x^3 + y^4", "x^2 + y^7", "x^4 - y^5"]
    for poly in polys:
        s = singularity_from_poly(P(poly))
        assert s.mu == 2 * s.delta - s.r + 1
        a, b = difference_class_curve([s]).pairs[0]
        assert a - b == s.tau - s.mu  # value at y = -1


# --- JSON ingestion

def test_singularity_from_json_poly():
    assert singularity_from_json({"poly": "x^2 - y^3"}) == CurveSingularity(2, 2, 1, 1)


def test_singularity_from_json_with_branch_override():
    got = singularity_from_json({"poly": "y^2 - x^3 - x^2", "r": 2})
    assert got == CurveSingularity(mu=1, tau=1, r=2, delta=1)


def test_singularity_from_json_invariants():
    got = singularity_from_json({"mu": 4, "tau": 3, "r": 3})
    assert got == CurveSingularity(mu=4, tau=3, r=3, delta=3)


def test_singularity_from_json_rejects_incomplete():
    with pytest.raises(ValidationError, match="missing"):
        singularity_from_json({"mu": 4, "tau": 3})
    with pytest.raises(ValidationError):
        singularity_from_json(["not", "an", "object"])


# --- the colength engine against independent references

def _dense_colength(gens, cap):
    """Reference: the truncation loop with one dense integer matrix rebuilt
    for every bound B (rows m*g truncated below degree B), as the engine
    computed colengths before it kept one echelon for all bounds.  Returns
    the colength, None where the loop reaches the cap without stabilising,
    and the truncated dimension at each bound B = 1, 2, ..."""
    gens = [g for g in gens if not g.is_zero()]
    prev = None
    dims = []
    for bound in range(1, cap + 1):
        mons = [(d - k, k) for d in range(bound) for k in range(d + 1)]
        index = {m: n for n, m in enumerate(mons)}
        pivots = {}
        for g in gens:
            scale = 1
            for c in g.terms.values():
                scale = scale * c.denominator // gcd(scale, c.denominator)
            for mi, mj in mons:
                row = [0] * len(mons)
                for (gi, gj), c in g.terms.items():
                    if gi + gj + mi + mj < bound:
                        row[index[gi + mi, gj + mj]] += int(c * scale)
                while any(row):
                    col = next(n for n, v in enumerate(row) if v)
                    piv = pivots.get(col)
                    if piv is None:
                        pivots[col] = row
                        break
                    a, b = piv[col], row[col]
                    row = [a * r - b * p for r, p in zip(row, piv)]
                    content = 0
                    for v in row:
                        content = gcd(content, v)
                    if content > 1:
                        row = [v // content for v in row]
        standard = [m for n, m in enumerate(mons) if n not in pivots]
        dims.append(len(standard))
        if (prev is not None and len(standard) == prev
                and all(i + j < bound - 1 for i, j in standard)):
            return len(standard), dims
        prev = len(standard)
    return None, dims


def _dense_invariants(f, cap):
    """(mu, tau) by the reference, or the refusal a non-isolated germ must
    get: its exception type and message, which name the first truncated
    dimension above the Bezout bound."""
    fx, fy = f.diff("x"), f.diff("y")
    mu, dims = _dense_colength([fx, fy], cap)
    if mu is None:
        bezout = (f.total_degree() - 1) ** 2
        dim = next(d for d in dims if d > bezout)
        return NonIsolatedSingularityError, (
            f"Milnor number did not stabilise: truncated colength {dim} exceeds the "
            f"Bezout bound (deg f - 1)^2 = {bezout}: the singularity is not "
            "isolated (the local equation is not reduced)")
    return mu, _dense_colength([f, fx, fy], cap)[0]


def _engine_invariants(f):
    try:
        return local_invariants(f)
    except ValidationError as exc:
        return type(exc), str(exc)


def _random_germ(rng):
    degree = rng.randint(2, 4)
    f = LocalPolynomial.zero()
    for n in range(rng.randint(1, 4)):
        k = degree if n == 0 else rng.randint(2, degree)
        i = rng.randint(0, k)
        f = f + LocalPolynomial({(i, k - i): rng.choice((-3, -2, -1, 1, 2, 3))})
    if rng.random() < 0.3:  # a coordinate change spreads the support
        f = f.substitute_linear(1, rng.choice((-2, -1, 1, 2)), 0, 1)
    return f


def test_engine_matches_dense_truncation_on_random_germs():
    # An isolated germ of colength mu meets the stopping rule by B = mu + 1
    # <= (d - 1)^2 + 1, so at degree 4 the reference runs with the cap
    # (d - 1)^2 + 2 in place of 2*d^2 (the same answers; a refusal at the
    # full cap takes seconds there).  Below degree 4 it runs with 2*d^2.
    rng = random.Random(20161)
    outcomes = set()
    for _ in range(90):
        f = _random_germ(rng)
        if f.is_zero():
            continue
        d = f.total_degree()
        cap = 2 * d * d if d <= 3 else (d - 1) ** 2 + 2
        expected = _dense_invariants(f, cap)
        outcomes.add((d, expected[0] is NonIsolatedSingularityError))
        assert _engine_invariants(f) == expected, str(f)
    assert outcomes == {(d, refused) for d in (2, 3, 4) for refused in (False, True)}


def test_engine_matches_dense_truncation_on_hand_picked_germs():
    for text in ("x^4 + y^5 + x^2*y^3", "x*y*(x+y)*(x-y)", "x^2*y + y^6",
                 "x^3 + x*y^3", "y^2", "x*y^2", "x*(x-y)^2", "x^2*y"):
        f = P(text)
        d = f.total_degree()
        assert _engine_invariants(f) == _dense_invariants(f, max(2 * d * d, 2)), text
    moved = P("x^3 + y^7 + x*y^5").substitute_linear(1, 2, 0, 1)
    assert _engine_invariants(moved) == _dense_invariants(moved, 38) == (12, 11)


def _groebner_colength(gens, n):
    """dim k[x,y]/(gens + m^n) as the number of standard monomials of a
    sympy Groebner basis; equal to the local colength once m^n lies in the
    ideal of the local ring."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    exprs = [sum(int(c) * x ** i * y ** j for (i, j), c in g.terms.items())
             for g in gens if not g.is_zero()]
    exprs += [x ** i * y ** (n - i) for i in range(n + 1)]
    basis = sympy.groebner(exprs, x, y, order="grevlex")
    leads = [sympy.Poly(g, x, y).monoms(order="grevlex")[0] for g in basis.exprs]
    return sum(1 for d in range(n) for j in range(d + 1)
               if not any(d - j >= a and j >= b for a, b in leads))


def test_engine_matches_groebner_oracle():
    pytest.importorskip("sympy")
    germs = [f"x^2 + y^{k + 1}" for k in range(1, 7)]                      # A_k
    germs += [f"x^2*y + y^{k - 1}" for k in range(4, 8)]                   # D_k
    germs += ["x^3 + y^4", "x^3 + x*y^3", "x^3 + y^5"]                     # E_6..E_8
    germs += [f"x^{a} {s} y^{b}" for a in range(2, 7) for b in (a, a + 1)
              for s in "+-"]
    germs += ["x^3 + y^7 + x*y^5", "x^4 + y^5 + x^2*y^3"]                  # E12, W12
    for text in germs:
        f = P(text)
        # mu <= (d - 1)^2 by Bezout and m^mu lies in any ideal of colength
        # mu, so m^n does for this n
        n = (f.total_degree() - 1) ** 2 + 2
        fx, fy = f.diff("x"), f.diff("y")
        expected = (_groebner_colength([fx, fy], n), _groebner_colength([f, fx, fy], n))
        assert local_invariants(f) == expected, text


@pytest.mark.parametrize("text", ["x^2*y^2", "y^2 + x^3*y^2", "x*y^2*(x+y)"])
def test_non_isolated_degree_four_refused_early(text, monkeypatch):
    rows = []
    add_row = curves._add_row

    def counting(pivots, row):
        rows.append(row)
        add_row(pivots, row)
    monkeypatch.setattr(curves, "_add_row", counting)
    f = P(text)
    d = f.total_degree()
    with pytest.raises(NonIsolatedSingularityError,
                       match=rf"did not stabilise: .* exceeds the Bezout bound .* = {(d - 1) ** 2}"):
        local_invariants(f)
    # a non-isolated germ has a truncated dimension of at least B at every
    # bound B, so the exit fires by B = (d - 1)^2 + 1, before the rows of
    # any higher bound are added
    gens = [g for g in (f.diff("x"), f.diff("y")) if not g.is_zero()]

    def rows_through(bound):
        return sum(k * (k + 1) // 2 for k in (max(bound - g.order(), 0) for g in gens))
    assert 0 < len(rows) <= rows_through((d - 1) ** 2 + 1)


@pytest.mark.parametrize("text, bound, rows, invariants", [
    ("x^10 - y^11", 19, 145, (90, 90)), ("x^3 + y^7 + x*y^5", 9, 59, (12, 11))])
def test_mu_and_tau_share_one_echelon(text, bound, rows, invariants, monkeypatch):
    # J = (f_x, f_y) closes its staircase at ``bound`` (for x^10 - y^11,
    # (x^9, y^10) holds every monomial of degree 18 but not x^8*y^9), and
    # J + (f) is closed there too, so the rows are the products m*g, g in
    # (f_x, f_y, f), of lowest degree below that bound and no others
    calls = []
    add_row = curves._add_row

    def counting(pivots, row):
        calls.append(row)
        add_row(pivots, row)
    monkeypatch.setattr(curves, "_add_row", counting)
    f = P(text)
    assert local_invariants(f) == invariants
    orders = [g.order() for g in (f.diff("x"), f.diff("y"), f)]
    assert len(calls) == rows == sum((bound - k) * (bound - k + 1) // 2 for k in orders)
