"""Kernel tests: exact arithmetic, substitution, evaluation, rendering."""

from __future__ import annotations

import math
import pickle
import random
from fractions import Fraction
from fractions import Fraction as F
from operator import getitem

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permgram.algebra import AlgebraError, LaurentPoly, _exp_str, _ratio, monomial_str, parse_poly
from permgram.grammar import builtin, gen_coeffs

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
    # an image must be a unit monomial, 1 or 0
    with pytest.raises(AlgebraError, match="unit monomial"):
        poly("x^2").substitute({"x": poly("y + z")})


def test_substitute_rejects_bad_powers():
    with pytest.raises(AlgebraError):
        poly("x^-1").substitute({"x": poly("y + z")})
    with pytest.raises(AlgebraError):
        poly("x^1/2").substitute({"x": poly("y + z")})
    with pytest.raises(AlgebraError):
        # quarter-integer exponent: (y^1/2)^(1/2)
        poly("x^1/2").substitute({"x": poly("y^1/2")})


def test_substitute_zero_binding():
    # a positive integer power of a zero-bound variable drops its term
    assert poly("x*y^2 + 3*z - x^-1/2*w").substitute({"y": 0, "w": 0}) == poly("3*z")
    for text in ("y^-1 + x", "y^1/2 + x"):
        with pytest.raises(AlgebraError):
            poly(text).substitute({"y": 0})
    with pytest.raises(AlgebraError, match="unit monomial"):
        poly("x*y").substitute({"y": 2})


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
    assert monomial_str(VARS, (1, 0, -2, 0, 0, 0)) == "x^1/2*z^-1"
    assert monomial_str(VARS, (0,) * 6) == "1"


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


# -- the one-denominator store against Fraction-only definitions ---------------------


def assert_normal(p: LaurentPoly) -> None:
    """The store is canonical: nonzero int numerators over one positive int
    denominator with no common factor, and 1 for zero.  The ``terms`` view
    holds nonzero ints, or Fractions that are not integral."""
    assert type(p.den) is int and p.den > 0
    assert all(type(num) is int and num != 0 for num in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.nums or p.den == 1
    if p.den == 1:
        assert p.terms is p.nums
    assert p.terms == {key: F(num, p.den) for key, num in p.nums.items()}
    for coeff in p.terms.values():
        assert coeff != 0
        assert type(coeff) is int or (type(coeff) is F and coeff.denominator != 1), coeff
    for key in p.terms:
        exponents = {name: F(t, 2) for name, t in zip(p.vars, key)}
        assert type(p.coeff(exponents)) is F


def reference_terms(p: LaurentPoly) -> dict:
    return {key: F(coeff) for key, coeff in p.terms.items()}


def reference_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, F(0)) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def reference_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, F(0)) + ca * cb
    return {key: coeff for key, coeff in out.items() if coeff}


def reference_scale(c, a: dict) -> dict:
    return {key: F(c) * coeff for key, coeff in a.items() if c}


def reference_power(a: dict, k: int) -> dict:
    out = {(0,) * len(SMALL_VARS): F(1)}
    for _ in range(k):
        out = reference_mul(out, a)
    return out


def reference_evaluate(vars, terms: dict, point) -> F:
    """Term by term: coeff * prod value^e, with the kernel's three domain errors."""
    total = F(0)
    for key, coeff in terms.items():
        term = coeff
        for name, t in zip(vars, key):
            if t == 0:
                continue
            if t % 2:
                raise AlgebraError("half-integer exponent")
            if name not in point:
                raise AlgebraError("unbound variable")
            value = F(point[name])
            if value == 0 and t < 0:
                raise AlgebraError("zero to a negative power")
            term *= value ** (t // 2)
        total += term
    return total


COEFFS = st.one_of(st.integers(min_value=-9, max_value=9),
                   st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def mixed_polys(draw):
    """Int and Fraction coefficients; half-integer exponents in some draws."""
    half = draw(st.booleans())
    terms: dict = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        key = tuple(draw(st.integers(min_value=-4, max_value=5)) if half
                    else 2 * draw(st.integers(min_value=-2, max_value=3)) for _ in SMALL_VARS)
        terms[key] = terms.get(key, 0) + draw(COEFFS)
    return LaurentPoly(SMALL_VARS, terms)


POINTS = st.dictionaries(st.sampled_from(SMALL_VARS),
                         st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
                                   st.fractions(min_value=-4, max_value=4, max_denominator=7)))


@settings(max_examples=150, deadline=None)
@given(mixed_polys(), mixed_polys(), st.integers(min_value=0, max_value=3),
       st.one_of(st.just(0), COEFFS))
@example(parse_poly("1/2*x + 1/2*y", SMALL_VARS), parse_poly("-1/2*x + 1/3", SMALL_VARS), 2,
         F(4, 3))  # sums and scalings whose common factor must come out
def test_add_and_mul_match_the_fraction_definitions(a, b, k, c):
    ra, rb = reference_terms(a), reference_terms(b)
    const = reference_scale(c, {(0, 0, 0): 1})
    minus_a, minus_b = reference_scale(-1, ra), reference_scale(-1, rb)
    for got, want in ((a + b, reference_add(ra, rb)), (a - b, reference_add(ra, minus_b)),
                      (-b, minus_b), (a + c, reference_add(ra, const)),
                      (c - a, reference_add(const, minus_a)),
                      (a * b, reference_mul(ra, rb)), (a * a, reference_mul(ra, ra)),
                      (c * a, reference_scale(c, ra)), (a * c, reference_scale(c, ra)),
                      (a * F(3, 2), reference_scale(F(3, 2), ra)),
                      (a ** k, reference_power(ra, k))):
        assert got.terms == want
        assert_normal(got)
    assert_normal(a)


@settings(max_examples=150, deadline=None)
@given(mixed_polys(), mixed_polys())
@example(LaurentPoly(SMALL_VARS), parse_poly("3/4*x - y^1/2", SMALL_VARS))  # a zero factor
@example(parse_poly("x", SMALL_VARS), parse_poly("1/2*y^1/2", SMALL_VARS))  # cross terms cancel
@example(parse_poly("2/3*x^1/2 - 5", SMALL_VARS), parse_poly("3/2*x^-1/2", SMALL_VARS))
def test_products_over_a_common_denominator_match_the_definition(a, b):
    # (a + b)(a - b) = a^2 - b^2: its cross terms cancel to 0 term by term
    ra, rb = reference_terms(a), reference_terms(b)
    squares = reference_add(reference_mul(ra, ra), {k: -c for k, c in reference_mul(rb, rb).items()})
    for got, want in ((a * b, reference_mul(ra, rb)), (b * a, reference_mul(ra, rb)),
                      ((a + b) * (a - b), squares),
                      (a * LaurentPoly(SMALL_VARS), {})):
        assert got.terms == want
        assert_normal(got)


@pytest.mark.parametrize("t", [31, 32, 63, 64, 2 ** 14 - 1, 2 ** 14, 2 ** 30, 2 ** 62 - 1, 2 ** 62,
                               2 ** 100])
def test_products_at_every_packing_width(t):
    # doubled exponents on both sides of each packed field width: 8, 16, 32
    # and 64 bits, and past them
    a = LaurentPoly(SMALL_VARS, {(t, -t, 1): F(1, 2), (-t, 0, t): 3, (0, 0, 0): -1})
    b = LaurentPoly(SMALL_VARS, {(-t, t, -1): 5, (t, 1, -t): F(-2, 3), (1 - t, t - 1, 0): 7})
    ra, rb = reference_terms(a), reference_terms(b)
    for got, want in ((a * b, reference_mul(ra, rb)), (a * a, reference_mul(ra, ra)),
                      (b * b * b, reference_mul(reference_mul(rb, rb), rb))):
        assert got.terms == want
        assert_normal(got)


@settings(max_examples=200, deadline=None)
@given(mixed_polys(), POINTS)
@example(parse_poly("x^1/2*y + 2", SMALL_VARS), {"x": 4, "y": 1})  # half exponent
@example(parse_poly("x*z - 3/2", SMALL_VARS), {"x": 1})  # unbound variable that occurs
@example(parse_poly("y^-2 + x", SMALL_VARS), {"x": 1, "y": 0})  # zero to a negative power
def test_evaluate_matches_the_fraction_definition(p, point):
    try:
        want = reference_evaluate(p.vars, reference_terms(p), point)
    except AlgebraError:
        with pytest.raises(AlgebraError):
            p.evaluate(point)
        return
    got = p.evaluate(point)
    assert type(got) is F and got == want


def test_evaluate_common_denominator_edges():
    # exponents of one sign only, a zero value under a positive power, a
    # negative value, and a variable bound but absent
    point = {"x": F(-2, 3), "y": F(0), "z": F(5, 7)}
    for text in ("x^3*z^2 + x^5", "x^-2*z^-1 - 3/4*x^-4", "y^2*x + x^-1", "y^3", "7"):
        p = poly(text, SMALL_VARS)
        assert p.evaluate(point) == reference_evaluate(SMALL_VARS, reference_terms(p), point)


# -- the span cache and the column pipeline against the per-point scan ----------------


def parent_evaluate(self, point):
    """``LaurentPoly.evaluate`` before the span cache and the column
    pipeline, kept verbatim: it scans every exponent column at each point
    and looks up one table per variable in every term.  It is the reference
    for values and for errors, type and message alike."""
    values = {name: _ratio(point[name]) for name in self.vars if name in point}
    num, den = 1, self.den
    tables: list[dict[int, int]] = []  # per variable: doubled exponent -> scaled factor
    for name, column in zip(self.vars, zip(*self.nums)):
        lo, hi = min(column), max(column)
        if lo == hi == 0:
            tables.append({0: 1})
            continue
        odd = next((t for t in column if t % 2), None)
        if odd is not None:
            raise AlgebraError(f"cannot evaluate half-integer exponent {name}^{_exp_str(odd)}")
        if name not in values:
            raise AlgebraError(f"unbound variable {name!r}")
        a, b = values[name]
        lo, hi = lo // 2, hi // 2
        if lo < 0 and a == 0:
            raise AlgebraError(f"zero raised to negative power {lo}")
        a_pows, b_pows = [1], [1]
        for _ in range(hi - lo):
            a_pows.append(a_pows[-1] * a)
            b_pows.append(b_pows[-1] * b)
        tables.append({2 * (lo + k): a_pows[k] * b_pows[hi - lo - k]
                       for k in range(hi - lo + 1)})
        # the value is the scaled sum times a^lo b^-hi
        if lo >= 0:
            num *= a ** lo
        else:
            den *= a ** -lo
        if hi <= 0:
            num *= b ** -hi
        else:
            den *= b ** hi
    total = sum(math.prod(map(getitem, tables, key), start=coeff)
                for key, coeff in self.nums.items())
    return Fraction(total * num, den)


TWIN_VARS = ("x", "y", "z", "w")


@st.composite
def shifted_polys(draw):
    """Polynomials over TWIN_VARS whose columns are often an earlier
    column shifted by a constant, the case where two variables share one
    power table.  Exponents may be negative, an odd shift makes a column of
    half exponents, one entry may be made odd, and a column may be constant
    or zero."""
    size = draw(st.integers(min_value=0, max_value=6))
    exponents = st.integers(min_value=-3, max_value=3)
    columns = [[2 * draw(exponents) for _ in range(size)]]
    while len(columns) < len(TWIN_VARS):
        kind = draw(st.sampled_from(["shift", "shift", "shift", "free", "constant", "zero"]))
        if kind == "shift":
            shift = 2 * draw(st.integers(min_value=-2, max_value=2))
            if draw(st.integers(min_value=0, max_value=11)) == 0:
                shift += 1  # a column of half exponents
            columns.append([t + shift for t in draw(st.sampled_from(columns))])
        elif kind == "free":
            columns.append([2 * draw(exponents) for _ in range(size)])
        else:
            columns.append([2 * draw(exponents) if kind == "constant" else 0] * size)
    if size and draw(st.integers(min_value=0, max_value=9)) == 0:
        column = draw(st.sampled_from(columns))
        column[draw(st.integers(min_value=0, max_value=size - 1))] += 1
    order = draw(st.permutations(range(len(TWIN_VARS))))
    terms: dict = {}
    for key in zip(*(columns[j] for j in order)):
        terms[key] = terms.get(key, 0) + draw(COEFFS)
    return LaurentPoly(TWIN_VARS, terms)


@st.composite
def point_lists(draw):
    """One to three points over TWIN_VARS: now and then a coordinate is 0,
    a variable is left unbound, or one bound value, of a variable in the set
    or of one outside it, is not an exact rational."""
    values = st.one_of(st.integers(min_value=-3, max_value=3),
                       st.fractions(min_value=-4, max_value=4, max_denominator=7)).filter(bool)
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        point = {name: draw(values) for name in TWIN_VARS}
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            point[draw(st.sampled_from(TWIN_VARS))] = 0
        if draw(st.integers(min_value=0, max_value=7)) == 0:
            del point[draw(st.sampled_from(TWIN_VARS))]
        if draw(st.integers(min_value=0, max_value=7)) == 0:
            point[draw(st.sampled_from(TWIN_VARS + ("q",)))] = 1.5
        points.append(point)
    return points


def outcome(evaluate, p, point):
    """The value of ``evaluate(p, point)``, or the type and message of its error."""
    try:
        value = evaluate(p, point)
    except (AlgebraError, ArithmeticError) as exc:
        return type(exc), str(exc)
    assert type(value) is F
    return value


def twin_example(text, points):
    return example(poly(text, TWIN_VARS), points)


@settings(max_examples=300, deadline=None)
@given(shifted_polys(), point_lists())
# z's column is x's plus 4, through negative exponents, at a zero x
@twin_example("x^-1*z - 2*x*z^3 + 3/2*x^2*z^4", [{"x": 2, "y": 5, "z": F(-1, 3), "w": 1},
                                                 {"x": 0, "y": 1, "z": 1, "w": 1}])
# x's column is y's plus 1/2: x passes its checks, then y's first odd exponent is
# reported, before y's being unbound or 0
@twin_example("x*y^1/2 + x^2*y^3/2", [{"x": 1, "y": 4, "z": 0, "w": 2}, {"x": 1}, {"x": 1, "y": 0}])
# twins at a zero coordinate under positive powers, and then an unbound twin
@twin_example("x*w - 5*x^2*w^2 + y^3*x^2*w^2", [{"x": 0, "y": 2, "z": 3, "w": F(2, 3)},
                                                {"x": 3, "y": 2, "z": 3}])
# a float for a variable that occurs, for one in the set that does not, for one outside it
@twin_example("x*y*w", [{"x": 1, "y": 1.5, "z": 1, "w": 1}, {"x": 1, "y": 2, "z": 1.5, "w": 1},
                        {"x": 1, "y": 2, "w": 1, "q": 1.5}])
# a constant column, and the zero polynomial
@twin_example("x^-2*y + 7*x^-2*y^3", [{"x": F(-2, 5), "y": 3}])
@twin_example("0", [{"x": 1.5}, {}])
def test_evaluate_matches_the_per_point_scan(p, points):
    # one polynomial at several points in turn, so later points read the cache
    for point in points:
        assert outcome(LaurentPoly.evaluate, p, point) == outcome(parent_evaluate, p, point)
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p
    for point in points:
        assert outcome(LaurentPoly.evaluate, copy, point) == outcome(parent_evaluate, p, point)


def test_the_span_cache_holds_one_small_entry_per_variable():
    g = builtin("G")
    point = {name: F(k, 16) for name, k in zip(VARS, (9, 13, 17, 21, 25, 31))}
    for seed in ("z", "w"):
        p = gen_coeffs(g, g.poly(seed), 12)[-1]
        value = p.evaluate(point)
        spans = p._span_cache()
        assert len(spans) == len(VARS)
        for entry in spans:
            assert len(entry) == 4 and all(item is None or type(item) is int for item in entry)
        # v's column is x's and u's is z's, shifted: four power tables instead of six
        twins = {VARS[i]: VARS[entry[3]] for i, entry in enumerate(spans) if entry[3] is not None}
        assert twins == {"v": "x", "u": "z"}
        assert value == parent_evaluate(p, point)


def test_chains_under_G_evaluate_as_the_fraction_definition():
    g = builtin("G")
    rng = random.Random(22)
    points = []
    while len(points) < 3:
        point = {name: F(rng.randrange(9, 32, 2), 16) for name in VARS}
        if abs(point["x"] * point["v"] - point["z"] * point["u"]) >= F(1, 4):
            points.append(point)
    for seed in ("z", "w"):
        for n, p in enumerate(gen_coeffs(g, g.poly(seed), 12)):
            for point in points:
                assert p.evaluate(point) == reference_evaluate(VARS, reference_terms(p), point), (seed, n)
