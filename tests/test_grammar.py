"""Derivative engine: rules, Leibniz structure, parsing, reference grammars."""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permgram import grammar as grammar_module
from permgram.algebra import AlgebraError, LaurentPoly, parse_poly
from permgram.checks import _gen_num_trials
from permgram.grammar import (Grammar, GrammarError, builtin, builtin_hash, builtin_names,
                              builtin_source, flow_series, gen_coeffs, gen_product, load_grammar,
                              parse_grammar, resolve_grammar)

G = builtin("G")

D4Z = ("6*x*z*w^2*v + 5*z^2*w^2*u + 5*x*y*z*w*v + y*z^2*w*u"
       " + x*y^2*z*v + 3*x^2*z*v^2 + 2*x*z^2*u*v + z*w^4")


def test_builtin_rules():
    assert G.vars == ("x", "y", "z", "w", "u", "v")
    assert G.rule("x") == G.poly("x*y")
    assert G.rule("u") == G.poly("x*y*z^-1*v")
    assert G.rule("v") == G.poly("x^-1*z*w*u")
    assert set(builtin_names()) == {"G", "g1", "g2", "g3"}
    assert len(builtin_hash("G")) == 64


def test_importing_permgram_leaves_hashlib_unloaded():
    # hashlib maps OpenSSL; only builtin_hash reads it, and imports it when called
    src = Path(grammar_module.__file__).parents[1]
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import permgram, permgram.cli; "
            "assert 'hashlib' not in sys.modules, 'importing permgram imported hashlib'; "
            "from permgram.grammar import builtin_hash, builtin_names; "
            "print(json.dumps({name: builtin_hash(name) for name in builtin_names()}))")
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    digests = json.loads(run.stdout)
    assert digests == {name: hashlib.sha256(builtin_source(name).encode("utf-8")).hexdigest()
                       for name in builtin_names()}
    # the digest the pinned verify-all report names
    assert digests["G"] == "2c0575829fa94f0543d6b6a51a3425ff468eb7e05ac5ba09cb81f6a0ff7ecf69"


def test_derive_basics():
    assert G.derive(G.poly("z")) == G.poly("z*w")
    assert G.derive(G.poly("z*w")) == G.poly("z*w^2 + x*z*v")
    assert G.derive(G.poly("x*v - z*u")).is_zero()
    assert G.derive(G.poly("5")).is_zero()


def test_derive_rejects_foreign_polynomials():
    with pytest.raises(AlgebraError):
        G.derive(parse_poly("x", ("x", "y")))


def test_derive_n_matches_published_display():
    assert gen_coeffs(G, G.poly("z"), 0)[0] == G.poly("z")
    assert gen_coeffs(G, G.poly("z"), 4)[4] == G.poly(D4Z)


def test_gen_coeffs_chain():
    first = gen_coeffs(G, G.poly("z"), 2)
    assert len(first) == 3
    chain = gen_coeffs(G, G.poly("z"), 4)
    assert chain[:3] == first and chain[4] == G.poly(D4Z)
    assert first[0] == G.poly("z")
    with pytest.raises(ValueError):
        gen_coeffs(G, G.poly("z"), -1)


def test_linearity():
    p, q = G.poly("x*w^2"), G.poly("z^-1*u")
    a, b = F(3, 2), F(-2)
    assert G.derive(a * p + b * q) == a * G.derive(p) + b * G.derive(q)


def test_leibniz_rule_powers():
    # D^n(pq) = sum C(n,k) D^k(p) D^{n-k}(q) on assorted Laurent monomials
    monomials = [G.poly("x"), G.poly("z^-1*w"), G.poly("x^1/2*v"), G.poly("y*u^2")]
    for p in monomials:
        for q in monomials:
            dp, dq, dpq = (gen_coeffs(G, s, 6) for s in (p, q, p * q))
            for n in range(6 + 1):
                expected = LaurentPoly.zero(G.vars)
                for k in range(n + 1):
                    expected = expected + math.comb(n, k) * (dp[k] * dq[n - k])
                assert dpq[n] == expected, (str(p), str(q), n)


def test_second_difference_of_w_minus_y():
    diff = G.poly("w - y")
    assert G.derive(diff) == G.poly("x*v - z*u")
    assert gen_coeffs(G, diff, 2)[2].is_zero()


def reference_x1z_chain(order: int) -> list[LaurentPoly]:
    """D^n(x^-1 z) under G for n <= order from its binomial closed form,
    x^-1 z sum_k n!/(2^k (n-2k)! k!) (w - y)^(n-2k) (xv - zu)^k."""
    front = G.poly("x^-1*z")
    wy, c = G.poly("w") - G.poly("y"), G.poly("x*v - z*u")
    wy_pows, c_pows = [G.poly("1")], [G.poly("1")]  # (w - y)^j and c^k, each built once
    while len(wy_pows) <= order:
        wy_pows.append(wy_pows[-1] * wy)
    while len(c_pows) <= order // 2:
        c_pows.append(c_pows[-1] * c)
    fact = math.factorial
    chain = []
    for n in range(order + 1):
        total = LaurentPoly.zero(G.vars)
        for k in range(n // 2 + 1):
            scale = F(fact(n), (2 ** k) * fact(n - 2 * k) * fact(k))
            total = total + scale * wy_pows[n - 2 * k] * c_pows[k]
        chain.append(front * total)
    return chain


def test_chain_of_x1z_matches_its_binomial_closed_form():
    # the gen-x1z certificate fixes every order; this holds the engine to it through n = 16
    order = 16
    chain = gen_coeffs(G, G.poly("x^-1*z"), order)
    for n, (got, want) in enumerate(zip(chain, reference_x1z_chain(order), strict=True)):
        assert got == want, n


def test_gen_coeffs_of_constant():
    coeffs = gen_coeffs(G, G.poly("1"), 4)
    assert coeffs[0] == G.poly("1")
    assert all(c.is_zero() for c in coeffs[1:])


def test_gen_product_is_derivative_shift():
    # Gen(z) Gen(w) = Gen(zw) = Gen(D(z)) = Gen'(z): Cauchy product against shift
    order = 7
    gz = gen_coeffs(G, G.poly("z"), order + 1)
    gw = gen_coeffs(G, G.poly("w"), order)
    product = gen_product(gz[: order + 1], gw)
    for n in range(order + 1):
        assert product[n] == gz[n + 1]


# -- grammar files -------------------------------------------------------------


def test_parse_grammar_roundtrip(tmp_path):
    text = """
    # same rules as the built-in
    vars: x y z w u v
    rule x -> x*y
    rule y -> z*u
    rule z -> z*w
    rule w -> x*v
    rule u -> x*y*z^-1*v
    rule v -> x^-1*z*w*u
    """
    assert parse_grammar(text) == G
    path = tmp_path / "mine.grammar"
    path.write_text(text)
    assert load_grammar(path) == G
    assert resolve_grammar(str(path)) == G
    assert resolve_grammar("G") == G


def test_parse_grammar_errors():
    with pytest.raises(GrammarError, match="line 2"):
        parse_grammar("vars: x\nrule q -> x")
    with pytest.raises(GrammarError, match="undeclared"):
        parse_grammar("vars: x\nrule q -> x")
    with pytest.raises(GrammarError, match="every variable needs a rule"):
        parse_grammar("vars: x y")
    with pytest.raises(GrammarError, match="missing rule"):
        parse_grammar("vars: x y\nrule x -> x*y")
    with pytest.raises(GrammarError, match="duplicate rule"):
        parse_grammar("vars: x\nrule x -> x\nrule x -> x")
    with pytest.raises(GrammarError, match="line 2"):
        parse_grammar("vars: x\nrule x -> x + ")
    with pytest.raises(GrammarError):
        resolve_grammar("no-such-grammar")


# -- specialization chains -------------------------------------------------------

CHAINS = (
    ("g1", {"w": "x", "u": "x", "z": "y", "v": "y"}, "x"),
    ("g2", {"z": "x", "u": "x", "v": "x", "w": "y"}, "x"),
    ("g3", {"v": "z", "u": "x"}, "z"),
)


@pytest.mark.parametrize("name,chain,seed", CHAINS, ids=[c[0] for c in CHAINS])
def test_chain_reduces_rules(name, chain, seed):
    target = builtin(name)
    for var in G.vars:
        reduced = G.rule(var).substitute(chain).with_vars(target.vars)
        assert reduced == target.rule(chain.get(var, var)), var


@pytest.mark.parametrize("name,chain,seed", CHAINS, ids=[c[0] for c in CHAINS])
def test_chain_commutes_with_derivative(name, chain, seed):
    target = builtin(name)
    reduced = gen_coeffs(target, target.poly(seed), 6)
    for n, full in enumerate(gen_coeffs(G, G.poly(seed), 6)):
        assert full.substitute(chain).with_vars(target.vars) == reduced[n], n


# -- the flow: Gen(seed) at a point without expanding D^n ------------------------------


def _box_point(rng: random.Random, vars) -> dict:
    return {name: F(rng.randrange(8, 33), 16) for name in vars}


def _assert_flow_matches_chain(grammar, seed, point, order):
    flow = flow_series(grammar, grammar.poly(seed), point, order)
    assert len(flow) == order + 1
    assert all(type(value) is F for value in flow)
    for n, poly in enumerate(gen_coeffs(grammar, grammar.poly(seed), order)):
        assert math.factorial(n) * flow[n] == poly.evaluate(point), (seed, n)


@pytest.mark.parametrize("seed", ["z", "w", "x^-1*z"])
def test_flow_matches_the_symbolic_chain_under_G(seed):
    rng = random.Random(f"flow/{seed}")
    for _ in range(2):
        _assert_flow_matches_chain(G, seed, _box_point(rng, G.vars), 25)


@pytest.mark.parametrize("name,chain,seed", CHAINS, ids=[c[0] for c in CHAINS])
def test_flow_matches_the_symbolic_chain_of_each_reference_grammar(name, chain, seed):
    target = builtin(name)
    rng = random.Random(f"flow/{name}")
    for _ in range(3):
        _assert_flow_matches_chain(target, seed, _box_point(rng, target.vars), 25)


def test_flow_of_the_half_seed_at_square_points():
    # Gen(z)^2 Gen(s)^2 = Gen(x^-1 z) for s = x^-1/2 z^-1/2: products of
    # values along the flow are Cauchy products of Taylor coefficients
    order = 20
    rng = random.Random("flow/half")
    for _ in range(3):
        point = _box_point(rng, G.vars)
        point["x"] = F(rng.randrange(2, 9), rng.randrange(2, 9)) ** 2
        point["z"] = F(rng.randrange(2, 9), rng.randrange(2, 9)) ** 2
        gz = flow_series(G, G.poly("z"), point, order)
        gs = flow_series(G, G.poly("x^-1/2*z^-1/2"), point, order)
        assert all(type(value) is F for value in gs)
        lhs = _cauchy(_cauchy(gz, gz), _cauchy(gs, gs))
        assert lhs == flow_series(G, G.poly("x^-1*z"), point, order)


def _cauchy(a, b):
    return [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(len(a))]


def test_flow_half_power_needs_a_rational_square():
    point = {"x": F(2), "y": F(1), "z": F(4), "w": F(1), "u": F(1), "v": F(1)}
    with pytest.raises(AlgebraError, match="rational square"):
        flow_series(G, G.poly("x^-1/2*z^-1/2"), point, 3)
    with pytest.raises(AlgebraError, match="rational square"):
        flow_series(G, G.poly("z^1/2"), {**point, "z": F(-4)}, 3)


def test_flow_input_errors():
    point = {"x": F(1), "y": F(2), "z": F(3), "w": F(1), "u": F(1), "v": F(1)}
    with pytest.raises(AlgebraError, match="unbound"):
        flow_series(G, G.poly("z"), {"z": F(1)}, 3)
    with pytest.raises(AlgebraError):
        flow_series(G, G.poly("z"), {**point, "x": 0.5}, 3)
    with pytest.raises(AlgebraError, match="!= 0"):
        flow_series(G, G.poly("z"), {**point, "u": F(0)}, 3)
    with pytest.raises(ValueError):
        flow_series(G, G.poly("z"), point, -1)
    # only the variables the seed's flow reaches need a value
    tiny = parse_grammar("vars: a b\nrule a -> a^2\nrule b -> a*b")
    assert flow_series(tiny, tiny.poly("a"), {"a": F(3)}, 3) == [3, 9, 27, 81]
    assert flow_series(tiny, tiny.poly("7"), {}, 2) == [7, 0, 0]


FLOW_VARS = ("a", "b", "c")


@st.composite
def flow_polys(draw, max_terms, coeffs=st.integers(min_value=-3, max_value=3)):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        key = tuple(draw(st.integers(min_value=-1, max_value=2)) * 2 for _ in FLOW_VARS)
        terms[key] = terms.get(key, F(0)) + draw(coeffs)
    return LaurentPoly(FLOW_VARS, terms)


@st.composite
def flow_cases(draw, values, coeffs=st.integers(min_value=-3, max_value=3)):
    grammar = Grammar(FLOW_VARS, tuple(draw(flow_polys(2, coeffs)) for _ in FLOW_VARS))
    point = {name: draw(values) for name in FLOW_VARS}
    return grammar, draw(flow_polys(3, coeffs)), point


NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@settings(max_examples=60, deadline=None)
@given(flow_cases(NONZERO))
def test_flow_matches_the_symbolic_chain_on_random_grammars(case):
    grammar, seed, point = case
    flow = flow_series(grammar, seed, point, 6)
    for n, poly in enumerate(gen_coeffs(grammar, seed, 6)):
        assert math.factorial(n) * flow[n] == poly.evaluate(point), n


# coordinates and coefficients with unlike denominators, so the flow's fixed
# denominator (2rq)^n carries several primes at once
SPREAD = st.fractions(min_value=-3, max_value=3, max_denominator=17).filter(bool)
SPREAD_COEFFS = st.one_of(st.integers(min_value=-3, max_value=3),
                          st.fractions(min_value=-2, max_value=2, max_denominator=9))


@settings(max_examples=60, deadline=None)
@given(flow_cases(SPREAD, SPREAD_COEFFS))
@example((parse_grammar("vars: a b c\nrule a -> 2/3*a*b\nrule b -> b^2 - 1/5*c\nrule c -> a*c^-1"),
          parse_poly("3/4*a*b^-1 + c", FLOW_VARS), {"a": F(3, 7), "b": F(5, 16), "c": F(-2, 9)}))
def test_flow_matches_derive_and_evaluate_over_unlike_denominators(case):
    grammar, seed, point = case
    flow = flow_series(grammar, seed, point, 6)
    assert all(type(value) is F for value in flow)
    for n, poly in enumerate(gen_coeffs(grammar, seed, 6)):
        assert math.factorial(n) * flow[n] == poly.evaluate(point), n


UNLIKE = {"x": F(3, 7), "y": F(5, 16), "z": F(9, 25), "w": F(-4, 3), "u": F(7, 10),
          "v": F(2, 11)}


def test_flow_under_G_over_unlike_denominators():
    point = dict(UNLIKE)
    for seed in ("z", "w", "x^-1*z"):
        _assert_flow_matches_chain(G, seed, point, 12)
    # the half seed s at x = 9/49, z = 9/25: s^2 = x^-1 z^-1 along the flow
    point["x"] = F(9, 49)
    _assert_flow_matches_chain(G, "x^-1*z^-1", point, 12)
    gs = flow_series(G, G.poly("x^-1/2*z^-1/2"), point, 12)
    assert gs[0] == F(35, 9)
    assert _cauchy(gs, gs) == flow_series(G, G.poly("x^-1*z^-1"), point, 12)


@settings(max_examples=60, deadline=None)
@given(flow_cases(st.sampled_from([F(0), F(-1), F(1, 2), F(2)])))
def test_flow_at_a_zero_coordinate_matches_or_raises(case):
    grammar, seed, point = case
    try:
        flow = flow_series(grammar, seed, point, 5)
    except AlgebraError:
        return
    for n, poly in enumerate(gen_coeffs(grammar, seed, 5)):
        assert math.factorial(n) * flow[n] == poly.evaluate(point), n


# -- the int-or-Fraction kernel against the Fraction-only definition of D ----------------


def reference_derive(grammar, terms: dict) -> dict:
    """D(c prod v_i^e_i) = sum_i c e_i v_i^(e_i - 1) rule(v_i), in Fraction only."""
    out: dict = {}
    for key, coeff in terms.items():
        for i, t in enumerate(key):
            if t == 0:
                continue
            for rkey, rcoeff in grammar.rules[i].terms.items():
                new = tuple(k + r - (2 if j == i else 0) for j, (k, r) in enumerate(zip(key, rkey)))
                out[new] = out.get(new, F(0)) + F(coeff) * F(t, 2) * F(rcoeff)
    return {key: coeff for key, coeff in out.items() if coeff}


def fraction_str(vars, terms: dict) -> str:
    """The rendering of exactly these Fraction coefficients, past the
    kernel's int normalization: the store as it was before ints."""
    return LaurentPoly.__str__(SimpleNamespace(vars=vars, terms=dict(terms)))


def assert_normal(p: LaurentPoly) -> None:
    """Canonical store: int numerators over one denominator in lowest terms."""
    assert p.den > 0 and math.gcd(p.den, *p.nums.values()) == 1 and (p.nums or p.den == 1)
    assert all(type(num) is int and num for num in p.nums.values())
    for coeff in p.terms.values():
        assert type(coeff) is int or (type(coeff) is F and coeff.denominator != 1), coeff


@pytest.mark.parametrize("name,seed", [("G", "z"), ("G", "w"), ("G", "x^-1/2*z^-1/2"),
                                       ("g1", "x"), ("g2", "x"), ("g3", "z")])
def test_chain_renders_as_the_fraction_reference(name, seed):
    grammar = builtin(name)
    terms = {key: F(coeff) for key, coeff in grammar.poly(seed).terms.items()}
    for n, poly in enumerate(gen_coeffs(grammar, grammar.poly(seed), 12)):
        assert poly.terms == terms, n
        assert str(poly) == fraction_str(grammar.vars, terms), n
        assert_normal(poly)
        terms = reference_derive(grammar, terms)


@st.composite
def mixed_polys(draw, max_terms):
    """Int and Fraction coefficients, integer and half-integer exponents."""
    terms: dict = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        key = tuple(draw(st.integers(min_value=-3, max_value=4)) for _ in FLOW_VARS)
        terms[key] = terms.get(key, 0) + draw(st.one_of(
            st.integers(min_value=-4, max_value=4),
            st.fractions(min_value=-3, max_value=3, max_denominator=4)))
    return LaurentPoly(FLOW_VARS, terms)


def flow_polys_of(*texts):
    return tuple(parse_poly(text, FLOW_VARS) for text in texts)


@settings(max_examples=150, deadline=None)
@given(st.tuples(mixed_polys(3), mixed_polys(3), mixed_polys(3)), mixed_polys(4))
# multi-term rules with rational coefficients and half and negative exponents
@example(flow_polys_of("1/2*a^1/2*b^-1 - 3*c + 2/3", "a^-1 + 5/4*b^3/2*c", "-7/3*a*b*c^-1/2"),
         parse_poly("a^1/2*b^-1/2 + 2/5*c^-2 - a*b*c", FLOW_VARS))
# a rule of one term with a coefficient other than 1, and a rule that is 0
@example(flow_polys_of("-2*b", "3/4*a^-1/2", "0"), parse_poly("a^3*b^-1 + c - 1/3*a*c^5/2", FLOW_VARS))
def test_derive_matches_the_fraction_definition(rules, seed):
    grammar = Grammar(FLOW_VARS, rules)
    terms = {key: F(coeff) for key, coeff in seed.terms.items()}
    poly = seed
    for n in range(1, 4):
        poly, terms = grammar.derive(poly), reference_derive(grammar, terms)
        assert poly.terms == terms, n
        assert_normal(poly)


@pytest.mark.parametrize("t", [30, 62, 63, 64, 2 ** 14 - 2, 2 ** 14, 2 ** 62 - 2, 2 ** 62, 2 ** 100])
def test_derive_at_every_packing_width(t):
    # input and rule exponents on both sides of each packed field width
    grammar = Grammar(FLOW_VARS, (LaurentPoly(FLOW_VARS, {(t, 0, -t): F(1, 3), (0, 2, 0): 1}),
                                  LaurentPoly(FLOW_VARS, {(-t, t, 2): -2}),
                                  LaurentPoly(FLOW_VARS, {(2, 2, 2): F(5, 2)})))
    seed = LaurentPoly(FLOW_VARS, {(t, -t, 1): 3, (1 - t, 0, t): F(-1, 2)})
    # and an input whose widest exponent is negative, under rules of small exponents
    narrow = Grammar(FLOW_VARS, (LaurentPoly(FLOW_VARS, {(2, 0, 0): 1, (0, 1, 0): F(2, 3)}),
                                 LaurentPoly(FLOW_VARS, {(0, 2, -2): -1}),
                                 LaurentPoly(FLOW_VARS, {(1, 0, 2): 3})))
    wide = LaurentPoly(FLOW_VARS, {(-t, 2, 1): 3, (2, 1 - t, 0): F(-1, 2), (0, 0, -t): 1})
    for grammar, seed in ((grammar, seed), (narrow, wide)):
        poly, terms = seed, {key: F(coeff) for key, coeff in seed.terms.items()}
        for n in range(1, 3):
            poly, terms = grammar.derive(poly), reference_derive(grammar, terms)
            assert poly.terms == terms, n
            assert_normal(poly)


# -- gen_product over one denominator per stream against the Fraction definition -------


def reference_gen_product(a: list[dict], b: list[dict]) -> list[dict]:
    """c_n = sum_k C(n,k) a_k b_{n-k} in Fraction only, to the shorter length."""
    out = []
    for n in range(min(len(a), len(b))):
        acc: dict = {}
        for k in range(n + 1):
            for ka, ca in a[k].items():
                for kb, cb in b[n - k].items():
                    key = tuple(x + y for x, y in zip(ka, kb))
                    acc[key] = acc.get(key, F(0)) + math.comb(n, k) * F(ca) * F(cb)
        out.append({key: coeff for key, coeff in acc.items() if coeff})
    return out


def flow_poly(text: str) -> LaurentPoly:
    return parse_poly(text, FLOW_VARS)


@settings(max_examples=100, deadline=None)
@given(st.lists(mixed_polys(3), max_size=5), st.lists(mixed_polys(3), max_size=5))
@example([LaurentPoly(FLOW_VARS)] * 3,
         [flow_poly("1/2*a^1/2 - 3"), flow_poly("1/3*b"), flow_poly("c")])
@example([flow_poly("1/2*a"), flow_poly("1/3*b")],  # c_1 = a/2 (-b/3) + (b/3)(a/2) = 0
         [flow_poly("1/2*a"), flow_poly("-1/3*b"), flow_poly("7/5")])
@example([flow_poly("a^40*b^-37/2 - c^-63"), flow_poly("a^-1 + 2")],  # exponents far past
         [flow_poly("1/7*a^-41*c^63 + b^37/2"), flow_poly("c^64 - 3/2*b^-1/2")])  # the draws
@example([flow_poly("a^1/2")],  # packed too narrow for b, a^2 and b^1/2 would share a key
         [flow_poly("a^3/2 + 2*a^-1/2*b^1/2")])
def test_gen_product_matches_the_fraction_definition(a, b):
    ra, rb = [p.terms for p in a], [p.terms for p in b]
    # a stream times itself: one list, a copy of it, and two slices of one list
    for got, want in ((gen_product(a, b), reference_gen_product(ra, rb)),
                      (gen_product(a, a), reference_gen_product(ra, ra)),
                      (gen_product(b, list(b)), reference_gen_product(rb, rb)),
                      (gen_product(b[:3], b[:4]), reference_gen_product(rb[:3], rb[:3]))):
        assert [p.terms for p in got] == want
        for p in got:
            assert p.vars == FLOW_VARS
            assert_normal(p)


@pytest.mark.parametrize("order", [0, 1, 6, 7])
def test_a_stream_times_itself_pairs_each_term_once(monkeypatch, order):
    # sum_n (floor(n/2) + 1) products of pairs for a stream times itself,
    # sum_n (n + 1) for two different streams
    calls = []
    original = grammar_module._mul_into

    def counting(*args):
        calls.append(1)
        return original(*args)
    monkeypatch.setattr(grammar_module, "_mul_into", counting)
    gz = gen_coeffs(G, G.poly("z"), order)
    gs = gen_coeffs(G, G.poly("-8/3*x^-1/2*z^-1/2"), order + 2)
    for a, b, same in ((gz, gz, True), (gs[:order + 1], gs[:order + 1], True),
                       (gz, gs, False), (gs[1:], gs, False)):
        calls.clear()
        got = gen_product(a, b)
        top = min(len(a), len(b))
        assert len(calls) == sum(n // 2 + 1 if same else n + 1 for n in range(top))
        assert [p.terms for p in got] == reference_gen_product([p.terms for p in a],
                                                               [p.terms for p in b])


def _count_fractions(monkeypatch) -> list:
    """The argument tuples of every Fraction built from here on, until the
    monkeypatch is undone."""
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)
    original = F.__new__
    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    if hasattr(F, "_from_coprime_ints"):  # Fraction arithmetic's constructor from 3.12 on
        coprime = F._from_coprime_ints.__func__
        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(
            lambda cls, *args: built.append(args) or coprime(cls, *args)))
    assert F(1, 3) and len(built) == 1  # the counter sees a construction
    built.clear()
    return built


def test_the_half_seed_kernel_builds_no_fraction(monkeypatch):
    # derive the scaled half seed to order 16, square the chain and form the
    # cylinder-equation residuals of the ode check, counting every Fraction
    # built; the inputs and scalars are built before counting starts
    order = 14
    seed = G.poly("-8/3*x^-1/2*z^-1/2")
    alpha = G.poly("y^2 + 2*y*w + w^2 - 2*x*v - 2*z*u")
    beta = 2 * (G.poly("w") - G.poly("y")) * G.poly("x*v - z*u")
    gamma = 2 * G.poly("x*v - z*u") ** 2
    scales = [(F(1, 4), F(n, 4), F(n * (n - 1), 8)) for n in range(order + 1)]
    built = _count_fractions(monkeypatch)
    chain = gen_coeffs(G, seed, order + 2)
    square = gen_product(chain[:order + 1], chain[:order + 1])
    residuals = []
    for n, (quarter, first, second) in enumerate(scales):
        residual = chain[n + 2] - quarter * alpha * chain[n]
        if n >= 1:
            residual = residual - first * beta * chain[n - 1]
        if n >= 2:
            residual = residual - second * gamma * chain[n - 2]
        residuals.append(residual)
    assert built == []
    monkeypatch.undo()
    assert all(residual.is_zero() for residual in residuals)
    assert square == gen_coeffs(G, F(64, 9) * G.poly("x^-1*z^-1"), order)
    assert chain[1].terms == {(-1, 2, -1, 0, 0, 0): F(4, 3), (-1, 0, -1, 2, 0, 0): F(4, 3)}


@pytest.mark.parametrize("point", [_gen_num_trials("z")[0][0], UNLIKE], ids=["box", "unlike"])
def test_the_flow_loop_builds_no_fraction(point, monkeypatch):
    # the recurrence runs in ints over a denominator fixed before it starts:
    # twenty more orders build the twenty more entries and nothing else
    seed = G.poly("z")
    built = _count_fractions(monkeypatch)
    short = flow_series(G, seed, point, 5)
    count = len(built)
    built.clear()
    long = flow_series(G, seed, point, 25)
    assert len(built) == count + 20
    monkeypatch.undo()
    assert long[:6] == short


def test_gen_product_rejects_mismatched_variable_sets():
    good = [flow_poly("1/2*a"), flow_poly("b - 1/3")]
    other = parse_poly("1/2*a", ("a", "b"))
    for a, b in (([other] + good, good), (good, [other] + good),
                 (good[:1] + [other], good), (good, good[:1] + [other])):
        with pytest.raises(AlgebraError):
            gen_product(a, b)


@pytest.mark.parametrize("c", [F(-8, 3), F(2, 7)])
def test_squared_quotient_identity_with_a_fraction_scale(c):
    # Gen(z)^2 Gen(c x^-1/2 z^-1/2)^2 = Gen(c^2 x^-1 z), exactly through t^10
    order = 10
    gz = gen_coeffs(G, G.poly("z"), order)
    gs = gen_coeffs(G, c * G.poly("x^-1/2*z^-1/2"), order)
    lhs = gen_product(gen_product(gz, gz), gen_product(gs, gs))
    assert lhs == gen_coeffs(G, (c * c) * G.poly("x^-1*z"), order)
