"""Substitution grammars and the formal derivative they induce.

A grammar assigns each variable a Laurent-polynomial replacement.  The
derivative D extends the rules linearly and by the product rule; on a
monomial it acts factor by factor, treating the exponent as a scalar:
D(v^e) = e v^{e-1} rule(v).  Constants derive to zero.

Read as a vector field, a grammar is also a flow: D is differentiation
along X' = rule(X) (Chen, Theor. Comput. Sci. 117, 1993), so the value of
the exponential generating function of a seed at a rational point,
sum_n D^n(seed)(p) t^n/n!, is seed(X(t)) with X(0) = p.  ``flow_series``
computes its Taylor coefficients exactly, without building any D^n(seed):
along the flow the logarithmic derivative of a monomial is a sum of other
monomials, so one integer recurrence over monomial streams gives them.  The
numeric checks take their exact truncations from it.

The inner loops run in ints over one common denominator and reduce once per
result: ``derive`` reads its input's numerators and scales the rules once,
``gen_product`` scales each stream to one denominator, and ``flow_series``
fixes the denominator of every order before its loop starts.

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
    sum_n D^n(f)(p) t^n/n! = f(X(t)) with X(0) = p.  Along the flow a
    monomial M = prod X_i^(t_i/2) has M' = lam_M M with lam_M =
    sum_i (t_i/2) rule_i(X) / X_i, a sum of the monomials N = M_i / X_i over
    the terms M_i of each rule_i.  One stream of derivatives per monomial,
    the seed's and the N's, then follows from M^(n) =
    sum_{j<n} C(n-1, j) lam_M^(j) M^(n-1-j).  With r the lcm of the rules'
    denominators and q that of the streams' starts, every order-n derivative
    is an int over (2r)^n q^(n+1), so the recurrence runs in ints and entry n
    is the one Fraction built from them.  No D^n(seed) is ever built.

    Every variable the flow from the seed reaches must be bound to a nonzero
    rational (the logarithmic derivatives need it), and one that carries a
    half exponent to a rational square; otherwise this raises ``AlgebraError``.
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
    # per i, N -> c r for each term c M_i of rule_i, with N = M_i / X_i
    r, _, ratios = grammar._deltas
    keys = list(dict.fromkeys([*seed.nums, *(key for i in live for key in ratios[i])]))
    halves = {i for key in keys for i, t in enumerate(key) if t % 2}
    bases: dict[int, Fraction] = {}  # X_i(0), or its root where a half exponent needs one
    for i in live:
        name = grammar.vars[i]
        if name not in point:
            raise AlgebraError(f"unbound variable {name!r}")
        value = _as_fraction(point[name])
        if value == 0:
            raise AlgebraError(f"the flow needs {name} != 0 at its start")
        bases[i] = _exact_root(value, name) if i in halves else value
    starts = [math.prod((bases[i] ** (t if i in halves else t // 2)
                         for i, t in enumerate(key) if t), start=Fraction(1)) for key in keys]
    q = math.lcm(*(start.denominator for start in starts))
    # streams[M][n] = (2r)^n q^(n+1) M^(n)(0)
    streams = {key: [start.numerator * (q // start.denominator)]
               for key, start in zip(keys, starts)}
    rates = {i: [] for i in live}  # rates[i][j] = r (2r)^j q^(j+1) (rule_i(X) / X_i)^(j)
    sums = [(rates[i], [(c, streams[key]) for key, c in ratios[i].items()]) for i in live]
    # per M: its terms t_i rates[i] and lam[j] = 2r (2r)^j q^(j+1) lam_M^(j)
    logs = [([(t, rates[i]) for i, t in enumerate(key) if t], [], streams[key]) for key in keys]
    for j in range(order):  # the streams hold orders 0..j: add order j + 1
        for rate, terms in sums:
            rate.append(sum(c * stream[j] for c, stream in terms))
        row = [math.comb(j, k) for k in range(j + 1)]
        for log, lam, stream in logs:
            lam.append(sum(t * rate[j] for t, rate in log))
            stream.append(sum(map(mul, map(mul, row, lam), reversed(stream))))
    terms = [(num, streams[key]) for key, num in seed.nums.items()]
    return [Fraction(sum(c * stream[n] for c, stream in terms),
                     seed.den * q * (2 * r * q) ** n * math.factorial(n)) for n in range(order + 1)]


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
