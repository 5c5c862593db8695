"""Exact text of every polynomial rendering: integer polynomials, K-class
lines in both bases, cohomology classes and local equations.

The expected strings are the CLI's documented text formats; they must not
move when the rendering code is reorganised.
"""

from fractions import Fraction

from logmc import (Arrangement, CohClass, CohPoly, IntPolynomial, KClass, KPoly,
                   LocalPolynomial, Subspace, build_lattice, characteristic_polynomial,
                   difference_class_arrangement, mc_free_exponents, todd_class)
from logmc.cli import _cohclass_str, _kpoly_lines
from logmc.kring import kpoly_to_json
from test_arrangement import BRAID3

F = Fraction


def test_zero_renders_as_zero():
    assert str(IntPolynomial([])) == "0"
    assert str(IntPolynomial([0, 0])) == "0"
    assert str(LocalPolynomial.zero()) == "0"
    assert _cohclass_str(CohClass.zero(2)) == "0"
    assert _kpoly_lines(kpoly_to_json(KPoly.zero(2), "s")) == ["0"]
    assert _kpoly_lines(kpoly_to_json(KPoly.zero(2), "one_minus_s")) == ["0"]


def test_negative_leading_and_unit_coefficients():
    assert str(IntPolynomial([3, 0, -2])) == "-2*t^2 + 3"
    assert str(IntPolynomial([-1, 1, -1])) == "-t^2 + t - 1"
    assert _cohclass_str(CohClass(2, (F(-1, 2), 0, 1))) == "-1/2 + h^2"


def test_constant_only():
    assert str(IntPolynomial([5])) == "5"
    assert str(IntPolynomial([-5])) == "-5"
    assert str(LocalPolynomial({(0, 0): -3})) == "-3"
    assert _cohclass_str(CohClass.one(3)) == "1"


def test_int_polynomial_descending_order():
    chi = characteristic_polynomial(build_lattice(Arrangement(3, BRAID3)))
    assert str(chi) == "t^3 - 6*t^2 + 11*t - 6"
    assert str(IntPolynomial([-6, 11, -6, 1, 0, 2])) == "2*t^5 + t^3 - 6*t^2 + 11*t - 6"


def test_fraction_coefficients_in_csm_text():
    assert _cohclass_str(todd_class(2)) == "1 + 3/2*h + h^2"
    assert _cohclass_str(todd_class(4)) == "1 + 5/2*h + 35/12*h^2 + 25/12*h^3 + h^4"


def test_kpoly_lines_both_bases():
    p = mc_free_exponents((1, 2, 3), 2)
    assert _kpoly_lines(kpoly_to_json(p, "s")) == [
        "y^0: 6 - 16*s + 11*s^2",
        "y^1: 5 - 15*s + 12*s^2",
        "y^2: 1 - 3*s + 3*s^2"]
    assert _kpoly_lines(kpoly_to_json(p, "one_minus_s")) == [
        "y^0: 1 - 6*(1-s) + 11*(1-s)^2",
        "y^1: 2 - 9*(1-s) + 12*(1-s)^2",
        "y^2: 1 - 3*(1-s) + 3*(1-s)^2"]
    diff = difference_class_arrangement((1, 2, 3), None, 2)
    assert _kpoly_lines(kpoly_to_json(diff, "one_minus_s")) == ["y^0: -4*(1-s)^2", "y^1: -4*(1-s)^2"]
    gap = KPoly(2, (KClass.one(2), KClass.zero(2), KClass(2, (0, -1))))
    assert _kpoly_lines(kpoly_to_json(gap, "s")) == ["y^0: 1", "y^1: 0", "y^2: -s"]


def test_local_polynomial_mixed_monomial_order():
    # by total degree, then by descending power of x
    f = LocalPolynomial({(2, 0): 1, (1, 1): -2, (0, 3): 1, (0, 2): F(1, 2),
                         (3, 0): -1, (1, 0): 7})
    assert str(f) == "7*x + x^2 - 2*x*y + 1/2*y^2 - x^3 + y^3"
    g = LocalPolynomial({(1, 2): -1, (2, 1): F(-3, 4)})
    assert str(g) == "-3/4*x^2*y - x*y^2"
    assert repr(g) == "LocalPolynomial(-3/4*x^2*y - x*y^2)"


def test_reprs():
    """The reprs of the value types.  A division refusal's details carry
    ``repr`` of its remainder, so the KClass and KPoly bytes are pinned."""
    assert repr(KClass(2, (1, -2, 1))) == "KClass(n=2, coeffs=[1, -2, 1])"
    assert repr(KPoly(1, [KClass(1, (2, -1)), KClass.one(1)])) == (
        "KPoly(n=1, coeffs=[KClass(n=1, coeffs=[2, -1]), KClass(n=1, coeffs=[1, 0])])")
    assert repr(KPoly.zero(2)) == "KPoly(n=2, coeffs=[])"
    assert repr(CohClass(2, [1, F(1, 2)])) == "CohClass(n=2, coeffs=['1', '1/2', '0'])"
    assert repr(CohPoly(2, [CohClass.one(2), CohClass(2, [0, 1])], delta=1)) == (
        "CohPoly(n=2, y_degree=1, delta=1)")
    assert repr(Arrangement(3, [(2, 0, 0), (1, -1, 0)])) == (
        "Arrangement(ambient_dim=3, forms=[(1, 0, 0), (1, -1, 0)])")
    flat = Subspace.from_forms(3, [(2, 0, 0), (1, -1, 0)])
    assert repr(flat) == ("Subspace(dim=1, matrix=((Fraction(1, 1), Fraction(0, 1), "
                          "Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1), Fraction(0, 1))))")
    assert hash(flat) == hash(Subspace.from_forms(3, [(0, 1, 0), (1, 0, 0)]))
    assert flat == Subspace.from_forms(3, [(0, 1, 0), (1, 0, 0)])
