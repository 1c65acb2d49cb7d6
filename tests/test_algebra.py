"""Kernel tests: exact arithmetic, substitution, evaluation, rendering."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permgram.algebra import AlgebraError, LaurentPoly, Monomial, parse_poly

VARS = ("x", "y", "z", "w", "u", "v")


def poly(text: str, vars=VARS) -> LaurentPoly:
    return parse_poly(text, vars)


# -- half-integer exponents -----------------------------------------------------


def test_halfint_roundtrip():
    # int and half-integer exponents are stored doubled and render back
    assert LaurentPoly.variable(VARS, "x", 3).terms == {(6, 0, 0, 0, 0, 0): 1}
    assert LaurentPoly.variable(VARS, "z", F(-1, 2)).terms == {(0, 0, -1, 0, 0, 0): 1}
    assert str(LaurentPoly.variable(VARS, "z", F(-1, 2))) == "z^-1/2"
    assert str(LaurentPoly.monomial(VARS, {"y": F(4, 2)})) == "y^2"
    assert LaurentPoly.monomial(VARS, {"x": 3, "z": F(-1, 2)}, 5) == poly("5*x^3*z^-1/2")
    assert poly("x^-1/2 + 2*y").coeff({"x": F(-1, 2)}) == 1


def test_halfint_rejects_other_denominators():
    with pytest.raises(AlgebraError, match="not a half-integer"):
        LaurentPoly.variable(VARS, "x", F(1, 3))
    with pytest.raises(AlgebraError, match="not a half-integer"):
        LaurentPoly.monomial(VARS, {"y": 1, "x": F(1, 3)})
    with pytest.raises(AlgebraError, match="not a half-integer"):
        poly("x").coeff({"x": F(1, 3)})


# -- construction and arithmetic ------------------------------------------------


def test_cancellation_gives_zero():
    assert (poly("x") + poly("-x")).is_zero()


def test_addition_merges_like_terms():
    assert poly("z*w") + poly("z*w") == poly("2*z*w")
    assert poly("z*w^2 + x*z*v") + poly("x*z*v") == poly("z*w^2 + 2*x*z*v")


def test_half_exponent_products():
    assert poly("x^-1/2") * poly("x^-1/2") == poly("x^-1")
    assert poly("z^-1") * poly("z") == poly("1")
    assert poly("x*y") * poly("z^-1*v") == poly("x*y*z^-1*v")


def test_scalar_arithmetic():
    p = poly("x + 2*y")
    assert 3 * p == poly("3*x + 6*y")
    assert p - 1 == poly("x + 2*y - 1")
    assert F(1, 2) * poly("x") == poly("1/2*x")


def test_power():
    assert poly("x + y") ** 2 == poly("x^2 + 2*x*y + y^2")
    assert poly("x") ** 0 == poly("1")
    with pytest.raises(AlgebraError):
        poly("x") ** -1


def test_mismatched_variable_sets():
    with pytest.raises(AlgebraError):
        poly("x") + parse_poly("x", ("x", "y"))


# -- substitution ----------------------------------------------------------------


def test_substitute_monomial_image_through_negative_power():
    # the u-rule image collapses to x*y once u -> x, v -> z
    assert poly("x*y*z^-1*v").substitute({"u": "x", "v": "z"}) == poly("x*y")


def test_substitute_constant():
    assert poly("x*y^2").substitute({"y": 1}) == poly("x")
    assert poly("x*y^2").substitute({"y": 0}).is_zero()


def test_substitute_polynomial_image():
    assert poly("x^2").substitute({"x": poly("y + z")}) == poly("y^2 + 2*y*z + z^2")


def test_substitute_rejects_bad_powers():
    with pytest.raises(AlgebraError):
        poly("x^-1").substitute({"x": poly("y + z")})
    with pytest.raises(AlgebraError):
        poly("x^1/2").substitute({"x": poly("y + z")})
    with pytest.raises(AlgebraError):
        # quarter-integer exponent: (y^1/2)^(1/2)
        poly("x^1/2").substitute({"x": poly("y^1/2")})


def test_substitute_unit_monomial_into_half_power():
    assert poly("x^1/2").substitute({"x": poly("y^2")}) == poly("y")


# -- evaluation --------------------------------------------------------------------


def test_evaluate_examples():
    assert poly("z").evaluate({"z": 7, "x": 1}) == 7
    assert poly("z^-1*x").evaluate({"z": 2, "x": 3}) == F(3, 2)


def test_evaluate_errors():
    with pytest.raises(AlgebraError):
        poly("x^1/2").evaluate({"x": 4})
    with pytest.raises(AlgebraError):
        poly("z^-1").evaluate({"z": 0})
    with pytest.raises(AlgebraError):
        poly("x*y").evaluate({"x": 1})


def test_coeff_lookup():
    p = poly("3*x*y^2 + z^-1")
    assert p.coeff({"x": 1, "y": 2}) == 3
    assert p.coeff({"z": -1}) == 1
    assert p.coeff({"x": 5}) == 0
    assert LaurentPoly.zero(VARS).coeff({"x": 1}) == 0


def test_with_vars():
    p = parse_poly("x + 2*y", ("x", "y", "z"))
    q = p.with_vars(("y", "x"))
    assert q == parse_poly("x + 2*y", ("y", "x"))
    with pytest.raises(AlgebraError):
        parse_poly("z", ("x", "z")).with_vars(("x",))


# -- rendering ----------------------------------------------------------------------


def test_rendering_golden():
    assert str(LaurentPoly.zero(VARS)) == "0"
    assert str(poly("z*w^2 + x*z*v")) == "z*w^2 + x*z*v"
    assert str(poly("-3/2*x^-1/2 + y")) == "-3/2*x^-1/2 + y"
    assert str(poly("1 - x")) == "1 - x"
    assert str(Monomial(VARS, (1, 0, -2, 0, 0, 0))) == "x^1/2*z^-1"


def test_parse_errors():
    with pytest.raises(AlgebraError):
        parse_poly("q + 1", VARS)
    with pytest.raises(AlgebraError):
        parse_poly("x^1/3", VARS)
    with pytest.raises(AlgebraError):
        parse_poly("", VARS)
    with pytest.raises(AlgebraError):
        parse_poly("x*", VARS)


# -- algebraic laws on random small polynomials ---------------------------------------

SMALL_VARS = ("x", "y", "z")


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        key = tuple(draw(st.integers(min_value=-2, max_value=3)) * 2 for _ in SMALL_VARS)
        coeff = F(draw(st.integers(min_value=-6, max_value=6)),
                  draw(st.integers(min_value=1, max_value=4)))
        terms[key] = terms.get(key, F(0)) + coeff
    return LaurentPoly(SMALL_VARS, terms)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_evaluate_is_ring_homomorphism(a, b):
    point = {"x": F(2), "y": F(-3, 2), "z": F(5, 3)}
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_monomial_inverse_cancels(p):
    shift = LaurentPoly.monomial(SMALL_VARS, {"x": -1, "y": F(1, 2)})
    inverse = LaurentPoly.monomial(SMALL_VARS, {"x": 1, "y": F(-1, 2)})
    assert p * shift * inverse == p


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_canonical_construction_order(a, b):
    # building the same polynomial along two different orders compares equal
    assert a + b - b == a
    merged = {}
    for key, coeff in list(a.terms.items()) + list(b.terms.items()):
        merged[key] = merged.get(key, F(0)) + coeff
    assert LaurentPoly(SMALL_VARS, merged) == a + b
