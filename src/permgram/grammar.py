"""Substitution grammars and the formal derivative they induce.

A grammar assigns each variable a Laurent-polynomial replacement.  The
derivative D extends the rules linearly and by the product rule; on a
monomial it acts factor by factor, treating the exponent as a scalar:
D(v^e) = e v^{e-1} rule(v).  Constants derive to zero.

Read as a vector field, a grammar is also a flow: D is differentiation
along X' = rule(X) (Chen, Theor. Comput. Sci. 117, 1993), so the value of
the exponential generating function of a seed at a rational point,
sum_n D^n(seed)(p) t^n/n!, is seed(X(t)) with X(0) = p.  ``flow_series``
computes its Taylor coefficients exactly from power-series recurrences,
without building any D^n(seed); the numeric checks take their exact
truncations from it.

The inner loops run in ints over one common denominator and reduce once per
result: ``derive`` reads its input's numerators and scales the rules once,
``gen_product`` scales each stream to one denominator, and ``flow_series``
holds every Taylor stream as int numerators over one denominator.

The built-in grammars are shipped as data files and parsed on first use,
so the file parser is exercised on every run:

* ``G``  -- six-variable grammar tracking exterior peaks by pattern,
  proper double descents, and the peak/valley refinements.
* ``g1`` -- two-variable grammar generating Eulerian polynomials.
* ``g2`` -- two-variable grammar counting exterior peaks.
* ``g3`` -- four-variable grammar for exterior peaks and proper double
  descents without the pattern split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import resources
from operator import is_, mul
from pathlib import Path
from typing import Mapping

from .algebra import (AlgebraError, LaurentPoly, Scalar, _as_fraction, _bound, _mul_into,
                      _packing, parse_poly)


class GrammarError(ValueError):
    """Malformed grammar text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class Grammar:
    """Immutable rule set: one Laurent-polynomial image per variable."""

    vars: tuple[str, ...]
    rules: tuple[LaurentPoly, ...]
    name: str | None = None

    def rule(self, name: str) -> LaurentPoly:
        if name not in self.vars:
            raise AlgebraError(f"undeclared variable {name!r}")
        return self.rules[self.vars.index(name)]

    def poly(self, text: str) -> LaurentPoly:
        """Parse an expression over this grammar's variables."""
        return parse_poly(text, self.vars)

    @cached_property
    def _deltas(self) -> tuple[int, int, tuple[dict[tuple[int, ...], int], ...]]:
        """``(r, bound, per variable i: the terms of rule(i) as exponent
        delta -> integer coefficient)``: the coefficients are scaled to ints
        over r, the lcm of every rule's denominators, the delta is the rule's
        key with the -2 of d/dv_i folded in at i, and bound is the largest
        |entry| of a delta."""
        r = math.lcm(*(rule.den for rule in self.rules))
        deltas = tuple(
            {tuple(e - 2 if j == i else e for j, e in enumerate(rkey)): num * (r // rule.den)
             for rkey, num in rule.nums.items()}
            for i, rule in enumerate(self.rules))
        return r, _bound(delta for row in deltas for delta in row), deltas

    @cached_property
    def _packed_deltas(self) -> dict:
        """Packing -> the deltas of ``_deltas`` packed by it, built on first use."""
        return {}

    def derive(self, p: LaurentPoly) -> LaurentPoly:
        """One application of the formal derivative.

        The sum runs in ints.  The input's numerators are over its
        denominator d, and the term of v_i^(t/2) contributes num * t * rcoeff
        with t the doubled exponent; the result is over 2 d r, reduced by
        one gcd.  Exponent vectors are packed into ints, so shifting a key by
        a rule's delta is one int addition."""
        if p.vars != self.vars:
            raise AlgebraError(
                f"polynomial over {p.vars} fed to grammar over {self.vars}")
        r, bound, rows = self._deltas
        packing = _packing(len(self.vars), max(bound, _bound(p.nums)))
        deltas = self._packed_deltas.get(packing)
        if deltas is None:
            deltas = self._packed_deltas[packing] = [packing.pack(row) for row in rows]
        out: dict[int, int] = {}
        get = out.get
        for packed, (key, coeff) in zip(packing.keys(p.nums), p.nums.items()):
            for i, t in enumerate(key):
                if t == 0:
                    continue
                factor = coeff * t
                for delta, rcoeff in deltas[i]:
                    nkey = packed + delta
                    out[nkey] = get(nkey, 0) + factor * rcoeff
        return packing.over(self.vars, 2 * p.den * r, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grammar):
            return NotImplemented
        return self.vars == other.vars and self.rules == other.rules

    __hash__ = None


def gen_coeffs(grammar: Grammar, seed: LaurentPoly, order: int) -> list[LaurentPoly]:
    """The chain D^0(seed) .. D^order(seed): entry n is the coefficient of
    t^n/n! in the exponential generating function of the seed."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if seed.vars != grammar.vars:
        seed = seed.with_vars(grammar.vars)
    chain = [seed]
    for _ in range(order):
        chain.append(grammar.derive(chain[-1]))
    return chain


def flow_series(grammar: Grammar, seed: LaurentPoly, point: Mapping[str, Scalar],
                order: int) -> list[Fraction]:
    """Taylor coefficients of the seed along the grammar's flow: entry n is
    D^n(seed)(point) / n!, for n = 0 .. order.

    D is differentiation along the vector field X' = rule(X), so
    sum_n D^n(f)(p) t^n/n! = f(X(t)) with X(0) = p.  The coefficients of X
    follow one at a time from X_i[n+1] = rule_i(X)[n] / (n+1); a monomial
    M = prod X_i^{e_i} follows from its log-derivative, n M[n] =
    sum_k (sum_i e_i k log(X_i)[k]) M[n-k].  All of it is exact, and no
    D^n(seed) is ever built.

    Every variable the flow from the seed reaches must be bound to a nonzero
    rational (the logarithms need it), and one that carries a half exponent
    to a rational square; otherwise this raises ``AlgebraError``.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if seed.vars != grammar.vars:
        seed = seed.with_vars(grammar.vars)
    live: set[int] = set()
    reach = [i for key in seed.nums for i, t in enumerate(key) if t]
    while reach:
        i = reach.pop()
        if i not in live:
            live.add(i)
            reach.extend(j for key in grammar.rules[i].nums for j, t in enumerate(key) if t)
    keys = set(seed.nums).union(*(grammar.rules[i].nums for i in live))
    halves = {i for key in keys for i, t in enumerate(key) if t % 2}

    starts: dict[int, Fraction] = {}   # X_i(0)
    xs: dict[int, _Stream] = {}       # Taylor coefficients of X_i
    x_rates: dict[int, _Stream] = {}  # k [t^k] log X_i, from k = 1
    for i in live:
        name = grammar.vars[i]
        if name not in point:
            raise AlgebraError(f"unbound variable {name!r}")
        value = _as_fraction(point[name])
        if value == 0:
            raise AlgebraError(f"the flow needs {name} != 0 at its start")
        starts[i], xs[i], x_rates[i] = value, _Stream(value), _Stream(Fraction(0))
    ms: dict[tuple[int, ...], _Stream] = {}       # Taylor coefficients of M
    m_rates: dict[tuple[int, ...], _Stream] = {}  # k [t^k] log M, from k = 1
    for key in keys:
        start = Fraction(1)
        for i, t in enumerate(key):
            if t:
                start *= _exact_root(starts[i], grammar.vars[i]) ** t if i in halves \
                    else starts[i] ** (t // 2)
        ms[key], m_rates[key] = _Stream(start), _Stream(Fraction(0))

    def over_ms(poly: LaurentPoly) -> tuple[int, list[tuple[int, _Stream]]]:
        """``(d, [(coeff * d, stream of M)])`` for the terms coeff * M of poly."""
        return poly.den, [(num, ms[key]) for key, num in poly.nums.items()]

    rules = {i: over_ms(grammar.rules[i]) for i in live}
    logs = {key: [(t, x_rates[i]) for i, t in enumerate(key) if t] for key in keys}
    for n in range(1, order + 1):
        for i in live:
            x, rate = xs[i], x_rates[i]
            den, terms = rules[i]
            num, common = _combine(terms, n - 1)
            x.push(num, den * common * n)
            # n X[n] = sum_{k=1..n} rate[k] X[n-k]; solve for rate[n] over rate.den * x.den
            known = sum(map(mul, rate.nums[1:n], x.nums[n - 1:0:-1]))
            rate.push(n * x.nums[n] * rate.den - known, rate.den * x.nums[0])
        for key, m in ms.items():
            rate = m_rates[key]
            num, common = _combine(logs[key], n)
            rate.push(num, 2 * common)
            m.push(sum(map(mul, rate.nums[1:n + 1], m.nums[n - 1::-1])), rate.den * m.den * n)
    den, terms = over_ms(seed)
    return [Fraction(num, den * common) for num, common in
            (_combine(terms, n) for n in range(order + 1))]


def _combine(terms: list[tuple[int, "_Stream"]], n: int) -> tuple[int, int]:
    """sum_j c_j s_j[n] for int weights c_j and streams s_j, as (numerator,
    denominator) over the lcm of the streams' denominators."""
    common = math.lcm(*(stream.den for _, stream in terms))
    return sum(c * stream.nums[n] * (common // stream.den) for c, stream in terms), common


class _Stream:
    """A Taylor coefficient stream as int numerators over one common
    denominator, so the flow's convolutions are sums of int products."""

    __slots__ = ("den", "nums")

    def __init__(self, value: Fraction):
        self.den, self.nums = value.denominator, [value.numerator]

    def push(self, num: int, den: int) -> None:
        """Append num / den (den != 0), reduced once; the common denominator
        grows to the lcm when den does not divide it."""
        g = math.gcd(num, den)
        num, den = (num // g, den // g) if den > 0 else (-num // g, -den // g)
        if self.den % den:
            grow = den // math.gcd(self.den, den)
            self.nums = [c * grow for c in self.nums]
            self.den *= grow
        self.nums.append(num * (self.den // den))


def _exact_root(value: Fraction, name: str) -> Fraction:
    """The rational square root of ``value``; never a float."""
    num, den = value.numerator, value.denominator
    root = Fraction(math.isqrt(num), math.isqrt(den)) if num > 0 else None
    if root is None or root * root != value:
        raise AlgebraError(f"a half power of {name} needs a rational square, not {value}")
    return root


def gen_product(a: list[LaurentPoly], b: list[LaurentPoly]) -> list[LaurentPoly]:
    """Coefficient stream of a product of two exponential generating
    functions: c_n = sum_k C(n,k) a_k b_{n-k}, truncated to the shorter input.

    Each stream is scaled to one common denominator, so each c_n is summed
    in ints and reduced once.  Each exponent vector is packed once into one
    int, so the O(order^2) term products add keys as ints.  A stream times
    itself (``a[k] is b[k]`` for every k used, as for two slices of one
    list) sums each pair k < n - k once, at twice its weight."""
    order = min(len(a), len(b)) - 1
    if order < 0:
        return []
    a, b = a[:order + 1], b[:order + 1]
    vars = a[0].vars
    if any(p.vars != vars for p in (*a, *b)):
        raise AlgebraError(f"mismatched variable sets in a product of streams over {vars}")
    same = all(map(is_, a, b))
    packing = _packing(len(vars), _bound(key for p in (*a, *b) for key in p.nums))
    pa = [packing.pack(p.nums) for p in a]
    pb = pa if same else [packing.pack(p.nums) for p in b]
    da, db = math.lcm(*(p.den for p in a)), math.lcm(*(p.den for p in b))
    out = []
    for n in range(order + 1):
        nums: dict[int, int] = {}
        for k in range(n // 2 + 1) if same else range(n + 1):
            j = n - k
            weight = math.comb(n, k) * (da // a[k].den) * (db // b[j].den)
            _mul_into(nums, pa[k], pb[j], 2 * weight if same and k < j else weight)
        out.append(packing.over(vars, da * db, nums))
    return out


# -- grammar file format -----------------------------------------------------
#
#   # comment
#   vars: x y z w u v
#   rule x -> x*y
#   rule u -> x*y*z^-1*v


def parse_grammar(text: str, name: str | None = None) -> Grammar:
    """Parse the line-oriented grammar format; '#' starts a comment."""
    vars: tuple[str, ...] | None = None
    rules: dict[str, LaurentPoly] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            if vars is not None:
                raise GrammarError("duplicate vars declaration", lineno)
            names = line[len("vars:"):].split()
            if not names:
                raise GrammarError("empty variable list", lineno)
            if len(set(names)) != len(names):
                raise GrammarError("repeated variable name", lineno)
            vars = tuple(names)
        elif line.startswith("rule"):
            if vars is None:
                raise GrammarError("rule before vars declaration", lineno)
            body = line[len("rule"):].strip()
            lhs, sep, rhs = body.partition("->")
            if not sep:
                raise GrammarError("expected 'rule <var> -> <polynomial>'", lineno)
            var = lhs.strip()
            if var not in vars:
                raise GrammarError(f"rule for undeclared variable {var!r}", lineno)
            if var in rules:
                raise GrammarError(f"duplicate rule for {var!r}", lineno)
            try:
                rules[var] = parse_poly(rhs.strip(), vars)
            except AlgebraError as exc:
                raise GrammarError(str(exc), lineno) from exc
        else:
            raise GrammarError(f"unrecognized line {line!r}", lineno)
    if vars is None:
        raise GrammarError("missing vars declaration")
    if not rules:
        raise GrammarError("every variable needs a rule")
    missing = [v for v in vars if v not in rules]
    if missing:
        raise GrammarError(f"missing rule for variable {missing[0]!r}")
    return Grammar(vars=vars, rules=tuple(rules[v] for v in vars), name=name)


_BUILTIN_FILES = {
    "G": "G.grammar",
    "g1": "g1.grammar",
    "g2": "g2.grammar",
    "g3": "g3.grammar",
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTIN_FILES)


def builtin_source(name: str) -> str:
    """Raw text of a built-in grammar file."""
    try:
        fname = _BUILTIN_FILES[name]
    except KeyError:
        raise GrammarError(f"no built-in grammar named {name!r}") from None
    return resources.files("permgram").joinpath("grammars").joinpath(fname).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def builtin(name: str) -> Grammar:
    return parse_grammar(builtin_source(name), name=name)


def builtin_hash(name: str) -> str:
    """SHA-256 of the grammar file backing a built-in (report provenance)."""
    import hashlib  # here, not at import time: it loads OpenSSL for this one use

    return hashlib.sha256(builtin_source(name).encode("utf-8")).hexdigest()


def load_grammar(path: str | Path) -> Grammar:
    path = Path(path)
    return parse_grammar(path.read_text(encoding="utf-8"), name=path.stem)


def resolve_grammar(spec: str) -> Grammar:
    """A built-in name, else a path to a grammar file."""
    if spec in _BUILTIN_FILES:
        return builtin(spec)
    if Path(spec).exists():
        return load_grammar(spec)
    raise GrammarError(f"{spec!r} is neither a built-in grammar nor a readable file")
