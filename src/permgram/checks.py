"""Registry of identity checks and the runner that turns them into reports.

Each entry pairs a closed form or structural identity with its independent
oracle and declares the mode:

* ``exact-symbolic``  -- identities decided coefficient-by-coefficient in
  the Laurent algebra, some at every order; no sampling, no floats anywhere.
* ``exact-sampled``   -- series identities proved on a deterministic grid
  of rational points sized by the degree bounds of the coefficients (a
  degree-d polynomial coefficient matched at more than d points is matched
  identically), the 1F1 rows at three rational triples; exact throughout.
* ``numeric``         -- the two Gamma-constant closed forms against exact
  truncated series, and D_a against its closed forms and recurrences, in floats.

Checks of the four common shapes are rows of data, each shape run by one
loop: a ``_derivative`` row compares D^n(seed) under a built-in grammar with
an enumeration oracle, a ``_certificate`` row checks D(p) = q under ``G``
along chains of texts that fix Gen(seed) at every order, a ``_sampled`` row
compares closed-form series builders with a specialized oracle on sample
grids (``_run_samples`` calls every ``series.rhs_*`` builder but
``rhs_involutions``, which ``_run_involutions`` calls), and a ``_hyp_identity``
row compares the two sides of a 1F1 identity as exact series.  Adding a
check means adding a row (or, for another shape, a runner); the plumbing
never changes.  ``insertion`` and ``stats-id`` are insertion certificates:
an identity's two sides step alike under each insertion of n+1, checked once
per local window on the slots of S_0..S_4, so it holds at every n; a walk to
``n_max`` witnesses that each step is its window's.

A runner writes the check's ``Report`` itself: it asks the report for the
built-in grammars it uses and records each comparison on it (``equal``,
``poly_equal``, ``residual``; ``fail`` and ``note`` for the rest).
``run_check`` only times the run, turns a runner's exception into the
counterexample, fails a run that compared nothing and stamps the provenance.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub
from typing import Callable, Sequence

from . import perms, series, specialfn
from .algebra import AlgebraError, LaurentPoly, _ratio, _raw, monomial_str
from .grammar import Grammar, builtin, builtin_hash, flow_series, gen_coeffs, gen_product
from .perms import (WEIGHT_VARS, enumerate_poly, involution_count, permutations,
                    specialized_poly, stats)
from .series import Series

F = Fraction


class UnknownCheckError(ValueError):
    """No registry entry with the requested id."""


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    mode: str
    n_max: int | None
    order: int | None
    tol: float | None


@dataclass
class Report:
    """The record of one check: a runner's comparisons accumulate here, the
    first counterexample kept verbatim and the built-in grammars it asked
    for named; ``run_check`` then stamps the time and the provenance."""

    spec: CheckSpec
    passed: bool = True
    checked: int = 0
    details: list[str] = field(default_factory=list)
    counterexample: str | None = None
    max_residual: float | None = None
    elapsed_s: float = 0.0
    provenance: dict = field(default_factory=dict)
    grammars: set[str] = field(default_factory=set)

    def to_dict(self) -> dict:
        return {
            "id": self.spec.check_id,
            "mode": self.spec.mode,
            "n_max": self.spec.n_max,
            "order": self.spec.order,
            "tol": self.spec.tol,
            "passed": self.passed,
            "checked": self.checked,
            "details": list(self.details),
            "counterexample": self.counterexample,
            "max_residual": _json_float(self.max_residual),
            "provenance": dict(self.provenance),
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = self.details[0] if self.passed and self.details else (self.counterexample or "")
        residual = "" if self.max_residual is None else f" max residual {self.max_residual:.2e}"
        return (f"{status}  {self.spec.check_id:<16} {self.spec.mode:<14} "
                f"{body}{residual} ({self.elapsed_s:.2f}s)")

    def grammar(self, name: str) -> Grammar:
        """A built-in grammar, named in the report's provenance."""
        self.grammars.add(name)
        return builtin(name)

    def note(self, text: str) -> None:
        self.details.append(text)

    def fail(self, text: str) -> None:
        self.passed = False
        if self.counterexample is None:
            self.counterexample = text

    def equal(self, lhs, rhs, label: str, *args) -> None:
        """Compare two values; a failure names ``label.format(*args)`` when
        args are given, so a caller formats its label only on failure."""
        self.checked += 1
        if lhs != rhs:
            label = label.format(*args) if args else label
            self.fail(f"{label}: {_short(lhs)} != {_short(rhs)}")

    def poly_equal(self, lhs: LaurentPoly, rhs: LaurentPoly, label: str, *args) -> None:
        """``equal`` for polynomials; a failure names the first differing monomial."""
        self.checked += 1
        if lhs != rhs:
            label = label.format(*args) if args else label
            mono, ca, cb = _first_poly_diff(lhs, rhs)
            self.fail(f"{label}: coefficient of {mono} is {ca} on the left, {cb} on the right")

    def residual(self, value: float, tol: float, label: str) -> None:
        self.checked += 1
        value = abs(value)
        if self.max_residual is None or math.isnan(value) or value > self.max_residual:
            self.max_residual = value
        if not value <= tol:  # a NaN residual or tolerance fails too
            self.fail(f"{label}: residual {value:.3e} exceeds {tol:.1e}")


def _json_float(value: float | None) -> float | str | None:
    """A float for a JSON report: a NaN or an infinity becomes the string
    "nan" or "inf", which JSON can carry."""
    return value if value is None or math.isfinite(value) else str(value)


def _short(value, limit: int = 160) -> str:
    text = str(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _first_poly_diff(a: LaurentPoly, b: LaurentPoly) -> tuple[str, Fraction, Fraction]:
    keys = sorted(set(a.terms) | set(b.terms))
    for key in keys:
        ca = a.terms.get(key, F(0))
        cb = b.terms.get(key, F(0))
        if ca != cb:
            return monomial_str(a.vars, key), ca, cb
    return "1", F(0), F(0)  # unreachable when a != b


# -- deterministic sample grids ------------------------------------------------
#
# Coefficient n of a sampled series has degree <= n in each sampled variable,
# so a check through order d needs d + 1 distinct values per variable.  Each
# grid is the first max(10, d + 1) points of a fixed sequence.

X_GRID = (F(0), F(1), F(2), F(3), F(-1), F(1, 2), F(-1, 2), F(3, 2), F(5, 2), F(-2))
EN_ROOTS = (F(2), F(3), F(4), F(5), F(6), F(7), F(8), F(9), F(10), F(3, 2))
ROOT_PAIRS = ((F(1), F(2)), (F(2), F(3)), (F(1, 2), F(2)), (F(3), F(5)), (F(2), F(7)))


def _grid(base: tuple[Fraction, ...], order: int, first_extra: int) -> tuple[Fraction, ...]:
    """The first max(len(base), order + 1) points of ``base`` followed by the
    integers from ``first_extra`` on."""
    extra = map(F, itertools.count(first_extra))
    return tuple(itertools.islice(itertools.chain(base, extra), max(len(base), order + 1)))


def x_grid(order: int) -> tuple[Fraction, ...]:
    """Integers and halves only: X_GRID, then 4, 5, 6, ..."""
    return _grid(X_GRID, order, 4)


def y_grid(order: int) -> tuple[Fraction, ...]:
    """The x grid offset by 1/3, so every (x, y) pair has x != y (halves vs
    thirds/sixths)."""
    return tuple(x + F(1, 3) for x in x_grid(order))


def en_roots(order: int) -> tuple[Fraction, ...]:
    """Roots a > 1 only, so the samples y = a + 1/a - 1 are distinct."""
    return _grid(EN_ROOTS, order, 11)


def _line(var: str) -> Callable[[int], list]:
    """One variable over the x grid."""
    return lambda order: [(f"{var}={v}", (v,), {var: v}) for v in x_grid(order)]


def _plane(order: int) -> list:
    return [(f"(x,y)=({x},{y})", (x, y), {"x": x, "y": y})
            for x in x_grid(order) for y in y_grid(order)]


def _root_pairs(order: int) -> list:
    return [(f"roots ({a},{b}), y={y}", (a, b, y), None)
            for a, b in ROOT_PAIRS for y in y_grid(order)]


def _roots(order: int) -> list:
    return [(f"a={a}", (a,), None) for a in en_roots(order)]


# -- shared comparison loops -----------------------------------------------------


def _check_series_against(rec: Report, rhs: Series, nums: Sequence[int], den: int,
                          label: str) -> None:
    """Coefficient n of the series against the oracle value nums[n] / den over
    n!, compared as ints: ``nums[n] * rhs.den == rhs.nums[n] * n! * den``."""
    scale = den  # n! * den
    for n, num in enumerate(nums):
        scale *= n or 1
        if num * rhs.den == rhs.nums[n] * scale:
            rec.checked += 1
        else:  # let ``equal`` count and word the failure
            rec.equal(rhs[n], F(num, scale), f"{label}, coefficient of t^{n}")


def _oracle_reader(polys: Sequence[LaurentPoly | None]
                   ) -> Callable[[dict], tuple[list[int], int]]:
    """``read(point)``: the values of ``polys`` (None for 0) at a point, as int
    numerators over one denominator.  The exponent columns are read here, once;
    at a point, a variable at a/b with largest exponent top gives exponent e
    the factor a^e b^(top - e), from one table, and the denominator b^top.
    Only nonnegative integer exponents are read; others raise ``AlgebraError``.
    """
    present = [poly for poly in polys if poly is not None]
    vars, keys = present[0].vars if present else (), [key for p in present for key in p.nums]
    for key in keys:
        if any(t < 0 or t % 2 for t in key):
            raise AlgebraError("oracle values need nonnegative integer exponents, "
                               f"not {monomial_str(vars, key)}")
    common = math.lcm(*(poly.den for poly in present))
    tops = [(i, name, top) for i, name in enumerate(vars)
            if (top := max((key[i] for key in keys), default=0) // 2)]
    rows = [None if poly is None else
            ([num * (common // poly.den) for num in poly.nums.values()],
             [[key[i] // 2 for key in poly.nums] for i, _, _ in tops]) for poly in polys]

    def read(point: dict) -> tuple[list[int], int]:
        den, nums, tables = common, [], []
        for _, name, top in tops:
            a, b = _ratio(point[name])
            b_pows = list(itertools.accumulate(itertools.repeat(b, top), mul, initial=1))
            tables.append(list(map(mul, itertools.accumulate(itertools.repeat(a, top), mul,
                                                             initial=1), reversed(b_pows))))
            den *= b_pows[top]
        for total, columns in (row or ((), ()) for row in rows):  # None reads as 0
            for table, column in zip(tables, columns):
                total = map(mul, total, map(table.__getitem__, column))
            nums.append(sum(total))
        return nums, den
    return read


def _run_samples(spec: CheckSpec, rec: Report, parts: Sequence[tuple]) -> list[dict]:
    """Compare ``series.<builder>`` with the oracle ``target`` at each sample of
    every part ``(target, builder, grid)``; return the points used.

    ``grid(order)`` lists (label, builder arguments, evaluation point); a
    point of None means the builder returns (point, series) itself.  The
    oracle is zero below the target's least n.
    """
    points = []
    for target, builder, grid in parts:
        first = perms._DISTRIBUTIONS[target].first_n
        read = _oracle_reader([specialized_poly(n, target) if n >= first else None
                               for n in range(spec.order + 1)])
        build = getattr(series, builder)  # by name, so a rebound builder is the one run
        for label, args, point in grid(spec.order):
            rhs = build(*args, spec.order)
            if point is None:
                point, rhs = rhs
            points.append(point)
            _check_series_against(rec, rhs, *read(point), f"{builder} at {label}")
    return points


def _sampled(check_id: str, description: str, parts: Sequence[tuple], note: str) -> CheckDef:
    """An exact-sampled row run by ``_run_samples``; ``note`` is formatted with
    the order, the per-variable grid size and the number of root pairs."""
    def run(spec: CheckSpec, rec: Report) -> None:
        _run_samples(spec, rec, parts)
        rec.note(note.format(order=spec.order, size=len(x_grid(spec.order)),
                             pairs=len(ROOT_PAIRS)))
    return CheckDef(check_id, "exact-sampled", description, run, order=9)


def _hyp_identity(check_id: str, description: str,
                  sides: Callable[[Fraction, Fraction, Fraction], tuple[Series, Series]],
                  triples: Sequence[tuple[Fraction, Fraction, Fraction]], name: str) -> CheckDef:
    """An exact-sampled row for a 1F1 identity: the two order-12 series
    ``sides(a, b, c)`` of 1F1(.; .; c t^2) at each of ``triples``, coefficient
    by coefficient."""
    def run(spec: CheckSpec, rec: Report) -> None:
        for abc in triples:
            lhs, rhs = sides(*abc)
            for n in range(13):
                rec.equal(lhs[n], rhs[n], "series at (a={}, b={}, c={}), coefficient of t^{}", *abc, n)
        rec.note(f"{name} holds exactly at series level at {len(triples)} rational (a, b, c), "
                 "through t^12")
    return CheckDef(check_id, "exact-sampled", description, run)


def _derivative(check_id: str, description: str, grammar: str, seed: str, first: int,
                oracle: Callable[[Grammar, int], LaurentPoly], label: str, note: str,
                lhs: Callable[[LaurentPoly], LaurentPoly] = lambda poly: poly) -> CheckDef:
    """An exact-symbolic row: ``lhs(D^n(seed))`` under a built-in grammar
    against ``oracle(g, n)`` for n = first..n_max.  ``label`` is
    formatted with n and ``note`` with n_max."""
    def run(spec: CheckSpec, rec: Report) -> None:
        g = rec.grammar(grammar)
        chain = gen_coeffs(g, g.poly(seed), max(spec.n_max, 0))
        for n in range(first, spec.n_max + 1):
            rec.poly_equal(lhs(chain[n]), oracle(g, n), label.format(n=n))
        rec.note(note.format(n_max=spec.n_max))
    return CheckDef(check_id, "exact-symbolic", description, run, n_max=8)


def _certificate(check_id: str, description: str, chains: Sequence[tuple[str, ...]],
                 note: str) -> CheckDef:
    """An exact-symbolic row: ``D(p) = q`` under ``G`` for each pair of texts
    (p, q) adjacent in a chain.  ``exp(tD)`` is a ring homomorphism, so pairs
    that close a finite system fix ``Gen(seed)`` at every order: no depth."""
    def run(spec: CheckSpec, rec: Report) -> None:
        g = rec.grammar("G")
        for chain in chains:
            for p, q in zip(chain, chain[1:]):
                rec.poly_equal(g.derive(g.poly(p)), g.poly(q), "D({}) = {}", p, q)
        rec.note(note)
    return CheckDef(check_id, "exact-symbolic", description, run)


# -- insertion certificates -----------------------------------------------------
#
# Each permutation of [n] comes from one of [n-1] by inserting n.  Slot s of pi
# in S_n puts n+1 between pi_s and pi_{s+1} (pi_0 and pi_{n+1} the boundary
# zeros); its window is the relative order of pi_{s-1}..pi_{s+2}, a boundary
# zero marked 0 and a position past one absent.  A side's step, its value at
# the child less (for a monomial, over) its value at the parent, is a
# function of the window:
#
# * The counts of ``stats`` and the consecutive 231s and 321s are sums over
#   triples (pi_{i-1}, pi_i, pi_{i+1}), the marks telling which triples
#   count.  The insertion removes the triples centred at pi_s and pi_{s+1}
#   and adds those centred at pi_s, n+1 and pi_{s+1}: all read only the
#   window and n+1, which exceeds it.
# * A labeling labels p from the triple centred at p (x, u, or the peak
#   scheme's w) or, only when pi_{p-1} > pi_p, from the one centred at p-1
#   (v, z or y).  So only pi_s, n+1, pi_{s+1} and pi_{s+2} can change label;
#   where theirs comes from a triple that reads outside the window (centred
#   at pi_{s-1} or pi_{s+2}), that triple is whole in the child, and the
#   label cancels.  The slot's label L, that of pi_{s+1} (of the trailing
#   zero when s = n), comes from the triples centred at pi_s and pi_{s+1}.
#
# A window reduces to a permutation of at most four values with the same
# marks, so the slots of S_0..S_4 realize all 45.  Two sides with equal steps
# on every window that agree at a base agree at every n, by induction on the
# insertion of n.  ``_insertion_certificate`` compares the steps once per
# window, and its walk to ``n_max`` witnesses the analysis: each step equals
# its window's.

WINDOW_N = 4  #: every window occurs on the slots of S_0..S_WINDOW_N


def _window(perm: tuple, slot: int) -> tuple:
    """The relative order of pi_{slot-1}..pi_{slot+2}: ranks from 1, a
    boundary zero 0 and a position past one None."""
    values = ((None, 0) + perm + (0, None))[slot:slot + 4]
    ranks = sorted(value for value in values if value)
    return tuple(ranks.index(value) + 1 if value else value for value in values)


def _quotient(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b for two monomials of coefficient 1."""
    (key_a,), (key_b,) = a.nums, b.nums
    return _raw(a.vars, 1, {tuple(map(sub, key_a, key_b)): 1})


def _insertion_certificate(rec: Report, n_max: int, facts: Callable[[tuple], tuple],
                           identities: Sequence[tuple]) -> list[int]:
    """Compare each identity's two steps once per window and witness every
    insertion into S_n, n <= ``n_max``; return each identity's window count.

    An identity is (lhs, rhs, first, steps): its sides' names, the least n
    of a parent it reads, and ``steps(before, slot, after)``, the two sides'
    steps at a slot from the ``facts(perm)`` of the parent and the child.
    """
    perms._require_cap(n_max)  # refuse n_max before comparing anything
    seen: list[dict] = [{} for _ in identities]  # window -> the steps of its first slot
    for n in range(min(first for _, _, first, _ in identities), max(WINDOW_N, n_max - 1) + 1):
        for parent in permutations(n):
            before = facts(parent)
            for slot, child in enumerate(perms.insertion_children(parent)):
                after, window = facts(child), _window(parent, slot)
                for (lhs, rhs, first, steps), windows in zip(identities, seen):
                    if n < first:
                        continue
                    step = steps(before, slot, after)
                    known = windows.setdefault(window, step)
                    if known is not step:
                        if n < n_max:  # the witness
                            for side, got, want in zip((lhs, rhs), step, known):
                                rec.equal(got, want, "{} step into {} against its window {}",
                                          side, child, window)
                    elif n <= WINDOW_N:  # the certificate
                        rec.equal(*step, "{} vs {} steps at window {} (slot {} of {})",
                                  lhs, rhs, window, slot, parent)
                    else:
                        rec.fail(f"{lhs}: window {window} of slot {slot} of {parent} "
                                 f"does not occur on S_0..S_{WINDOW_N}")
    return [len(windows) for windows in seen]


# -- exact-symbolic runners ----------------------------------------------------


def _run_insertion(spec: CheckSpec, rec: Report) -> None:
    g = rec.grammar("G")
    factor = {var: g.rule(var) * g.poly(f"{var}^-1") for var in g.vars}  # rule(L)/L

    def scheme(name: str, k: int, first: int) -> tuple:  # k: the labeling's place in facts
        def steps(before: tuple, slot: int, after: tuple) -> tuple:
            return _quotient(after[k].weight, before[k].weight), factor[before[k].labels[slot]]
        return f"{name} weight", "rule(L)/L", first, steps

    def facts(perm: tuple) -> tuple:  # the peak scheme labels S_1 on
        return perms.label_exterior(perm), perms.label_peak(perm) if perm else None

    exterior, peak = _insertion_certificate(rec, spec.n_max, facts,
                                            [scheme("exterior", 0, 0), scheme("peak", 1, 1)])
    rec.note(f"wt(child)/wt(pi) = rule(L)/L under G at every slot of every n, L the slot's label, "
             f"for both labelings: {exterior} windows ({peak} for the peak scheme) certified on "
             f"S_0..S_{WINDOW_N}, every insertion into S_n witnessed for n <= {spec.n_max}")


def _run_conv(spec: CheckSpec, rec: Report) -> None:
    q0 = LaurentPoly.variable(WEIGHT_VARS, "w")
    p = [enumerate_poly(k, "P") for k in range(spec.n_max + 2)]
    q = [q0] + [enumerate_poly(k, "Q") for k in range(1, spec.n_max + 1)]
    conv = gen_product(p, q)  # truncated to order n_max by q
    for n in range(1, spec.n_max + 1):
        rec.poly_equal(p[n + 1], conv[n], f"convolution at n={n}")
    rec.note(f"P_(n+1) = sum C(n,k) P_k Q_(n-k) with Q_0 = w for 1 <= n <= {spec.n_max}")


def _run_quotient(spec: CheckSpec, rec: Report) -> None:
    g = rec.grammar("G")
    gz = gen_coeffs(g, g.poly("z"), spec.order)
    gs = gen_coeffs(g, g.poly("x^-1/2*z^-1/2"), spec.order)
    lhs = gen_product(gen_product(gz, gz), gen_product(gs, gs))
    rhs = gen_coeffs(g, g.poly("x^-1*z"), spec.order)
    for n in range(spec.order + 1):
        rec.poly_equal(lhs[n], rhs[n], f"squared-quotient identity at t^{n}")
    rec.note(f"Gen(z)^2 Gen(x^-1/2 z^-1/2)^2 = Gen(x^-1 z) through t^{spec.order}: "
             "gen_coeffs and gen_product respect the Leibniz rule (true under every grammar)")


def _run_stats_id(spec: CheckSpec, rec: Report) -> None:
    q_row = perms._DISTRIBUTIONS["Q"].exponents

    def sides(perm: tuple) -> tuple:  # each identity's two sides at one permutation
        s = stats(perm)
        return ((perms.consecutive_count(perm, (2, 3, 1)) + perms.consecutive_count(perm, (3, 2, 1)),
                 s.ep2 + s.pdd),
                (s.p1 + s.p2, s.valleys + 1),
                (perms.label_peak(perm).weight, perms._weight(q_row(s, len(perm)))))

    def change(k: int, step: Callable) -> Callable:
        return lambda before, slot, after: tuple(map(step, after[k], before[k]))

    identities = [("consecutive 231+321", "ep2+pdd", 1, change(0, sub)),
                  ("p1+p2", "valleys+1", 1, change(1, sub)),
                  ("peak labeling weight", "Q row", 1, change(2, _quotient))]
    windows = _insertion_certificate(rec, spec.n_max, sides, identities)[0]
    for (lhs, rhs, *_), pair in zip(identities, sides((1,))):  # the base
        rec.equal(*pair, "{} vs {} at (1,)", lhs, rhs)
    rec.note(f"consecutive-pattern, peak/valley, and labeling identities hold for every n >= 1: "
             f"base S_1, {windows} windows certified on S_1..S_{WINDOW_N}, every insertion into "
             f"S_n witnessed for n <= {spec.n_max}")


def _run_grammar_chain(spec: CheckSpec, rec: Report) -> None:
    g = rec.grammar("G")
    chains = (
        ("g1", {"w": "x", "u": "x", "z": "y", "v": "y"}),
        ("g2", {"z": "x", "u": "x", "v": "x", "w": "y"}),
        ("g3", {"v": "z", "u": "x"}),
    )
    for name, chain in chains:
        target = rec.grammar(name)
        for var in g.vars:
            image = g.rule(var).substitute(chain).with_vars(target.vars)
            rec.poly_equal(image, target.rule(chain.get(var, var)),
                           f"{name}: reduced rule for {var}")
    rec.note("G reduces to g1, g2, g3: each substitution maps every rule of G to a rule of its "
             "reduction, so it commutes with D on every polynomial, at every n")


# -- exact-sampled runners of other shapes ---------------------------------------
# (elizalde-noy samples Fu's form at x = z = w = 1 and also certifies that its
# y samples are distinct; involutions compares with a brute-force count over
# S_n for n <= n_max, not a grid: L_n(0) = exp(t + t^2/2) is ln at x = 0)


def _run_elizalde_noy(spec: CheckSpec, rec: Report) -> None:
    points = _run_samples(spec, rec, [("U", "rhs_elizalde_noy", _roots)])
    seen = {point["y"] for point in points}
    rec.equal(len(seen), len(points), "samples give distinct y values")
    rec.note(f"double-descent closed form matches enumeration at {len(seen)} distinct y, "
             f"orders 0..{spec.order}")


def _run_involutions(spec: CheckSpec, rec: Report) -> None:
    perms._require_cap(spec.n_max)
    _check_series_against(rec, series.rhs_involutions(spec.n_max),
                          [involution_count(n) for n in range(spec.n_max + 1)], 1,
                          "involution count")
    rec.note(f"involution counts match exp(t + t^2/2) for n <= {spec.n_max}")


# -- numeric runners -------------------------------------------------------------


def _random_box_point(rng: random.Random) -> dict[str, Fraction]:
    while True:
        point = {name: F(rng.randrange(8, 33), 16) for name in WEIGHT_VARS}
        if abs(point["x"] * point["v"] - point["z"] * point["u"]) >= F(1, 4):
            return point


def _gen_num_trials(seed_name: str) -> list[tuple[dict[str, Fraction], Fraction]]:
    """The five (box point, t) samples at which a master closed form is probed."""
    rng = random.Random(0x5EED + ord(seed_name[0]))
    return [(_random_box_point(rng), F(rng.randrange(10, 21), 100)) for _ in range(5)]


def _run_gen_num(spec: CheckSpec, rec: Report, seed_name: str,
                 value_fn: Callable[..., float], label: str) -> None:
    g = rec.grammar("G")
    order = 25
    seed = g.poly(seed_name)
    for trial, (point, t) in enumerate(_gen_num_trials(seed_name)):
        coeffs = flow_series(g, seed, point, order)
        tail = abs(coeffs[order]) * t ** order
        if float(tail) > spec.tol / 10:
            rec.fail(f"trial {trial}: truncation tail {float(tail):.2e} too large for tol")
            continue
        exact = functools.reduce(lambda acc, c: acc * t + c, reversed(coeffs))
        floats = {name: float(v) for name, v in point.items()}
        try:
            numeric = value_fn(floats, float(t))
        except ArithmeticError as exc:  # e.g. ConvergenceError: this trial fails, the next runs
            rec.fail(f"trial {trial}: {type(exc).__name__}: {exc}")
            continue
        rec.residual(numeric - float(exact), spec.tol,
                     f"trial {trial} at t={t}: closed form vs series")
    rec.note(f"{label} closed form matches the exact N={order} truncation at 5 box samples")


def _run_pcf_closed(spec: CheckSpec, rec: Report) -> None:
    for z in (-2.0, -1.3, -0.5, 0.0, 0.7, 1.3, 2.0):
        rec.residual(specialfn.pcf_d(0, z).real - math.exp(-z * z / 4), spec.tol,
                     f"order 0 at z={z}")
        rec.residual(specialfn.pcf_d(1, z).real - z * math.exp(-z * z / 4), spec.tol,
                     f"order 1 at z={z}")
        reference = math.sqrt(math.pi / 2) * math.exp(z * z / 4) * (1 - math.erf(z / math.sqrt(2)))
        rec.residual(specialfn.pcf_d(-1, z).real - reference, spec.tol, f"order -1 at z={z}")
    rec.note("integer-order cylinder functions match their elementary closed forms")


def _run_pcf_rec(spec: CheckSpec, rec: Report) -> None:
    a_grid = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
    z_grid = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
    for a in a_grid:
        for z in z_grid:
            d0, d1, _ = specialfn.pcf_d_derivs(a, z)
            rec.residual((d1 - (z / 2 * d0 - specialfn.pcf_d(a + 1, z))).real, spec.tol,
                         f"ladder recurrence down at (a={a}, z={z})")
            rec.residual((d1 - (a * specialfn.pcf_d(a - 1, z) - z / 2 * d0)).real, spec.tol,
                         f"ladder recurrence up at (a={a}, z={z})")
    ode_tol = 1e-8
    for a_ode, b_ode in ((1.0, 1.0), (0.25, -1.0), (2.0, 0.5)):
        r = math.sqrt(2) * a_ode ** 0.25
        s = b_ode / (math.sqrt(2) * a_ode ** 0.75)
        for a in (-1.0, 0.5, 1.5):
            for z in (-1.0, 0.0, 1.0):
                arg = r * z + s
                d0, _, d2 = specialfn.pcf_d_derivs(a, arg)
                residual = r * r * d2 - (r * r / 4) * (arg * arg - 4 * a - 2) * d0
                rec.residual(residual.real, ode_tol,
                             f"scaled second-derivative identity at (a={a}, r={r:.3f}, z={z})")
    rec.note(f"ladder recurrences hold to {spec.tol:g} and the scaled Weber equation to 1e-8")


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    mode: str
    description: str
    runner: Callable[[CheckSpec, Report], None]
    n_max: int | None = None
    order: int | None = None
    tol: float | None = None


# Oracles and 1F1 sides are lambdas and builders are named by string, so
# functions of other modules are looked up when a check runs and a rebound
# one is the one called.
_REGISTRY_ENTRIES = (
    _derivative("thm-P", "D^n(z) equals the exterior-scheme enumeration", "G", "z", 0,
                lambda g, n: enumerate_poly(n, "P"),
                "derivative vs enumeration at n={n}",
                "D^n(z) equals the exterior-scheme enumeration for 0 <= n <= {n_max}"),
    _derivative("thm-Q", "D^n(w) equals the peak-scheme enumeration", "G", "w", 1,
                lambda g, n: enumerate_poly(n, "Q"),
                "derivative vs enumeration at n={n}",
                "D^n(w) equals the peak-scheme enumeration for 1 <= n <= {n_max}"),
    _derivative("w-cor", "D^n(w) at v=z equals the valley-marked enumeration", "G", "w", 1,
                lambda g, n: enumerate_poly(n, "W"), "v->z specialization at n={n}",
                "D^n(w) at v=z equals the valley-marked enumeration for 1 <= n <= {n_max}",
                lhs=lambda poly: poly.substitute({"v": "z"})),
    CheckDef("insertion", "exact-symbolic",
             "insertion children realize the derivative on weights", _run_insertion, n_max=6),
    CheckDef("conv", "exact-symbolic",
             "binomial convolution linking the two enumerations", _run_conv, n_max=7),
    # s = x^-1/2 z^-1/2: s -> -(y+w)/2 s -> alpha/4 s, alpha -> beta -> gamma -> 0
    _certificate("ode", "cylinder differential equation for the half-exponent seed",
                 [("x^-1/2*z^-1/2", "-1/2*y*x^-1/2*z^-1/2 - 1/2*w*x^-1/2*z^-1/2",
                   "1/4*y^2*x^-1/2*z^-1/2 + 1/2*y*w*x^-1/2*z^-1/2 + 1/4*w^2*x^-1/2*z^-1/2"
                   " - 1/2*x^1/2*z^-1/2*v - 1/2*x^-1/2*z^1/2*u"),
                  ("y^2 + 2*y*w + w^2 - 2*x*v - 2*z*u", "2*x*w*v - 2*z*w*u - 2*x*y*v + 2*y*z*u",
                   "2*x^2*v^2 - 4*x*z*u*v + 2*z^2*u^2", "0")],
                 "f = Gen(x^-1/2 z^-1/2) solves f'' = (alpha + beta t + gamma t^2/2)/4 f at every "
                 "order, with alpha = (y+w)^2 - 2xv - 2zu, beta = D(alpha), gamma = D(beta)"),
    _certificate("gen-x1z", "closed form of Gen(x^-1 z)",
                 [("x^-1*z", "w*x^-1*z - y*x^-1*z"), ("w - y", "x*v - z*u", "0")],
                 "Gen(x^-1 z) = x^-1 z exp((w-y)t + (xv-zu)t^2/2) at every order"),
    CheckDef("quotient", "exact-symbolic",
             "engine self-check: gen_coeffs and gen_product respect the Leibniz rule",
             _run_quotient, order=12),
    CheckDef("stats-id", "exact-symbolic",
             "statistic identities and labeling consistency, by insertion certificate",
             _run_stats_id, n_max=6),
    CheckDef("grammar-chain", "exact-symbolic",
             "specialization chains onto the reference grammars", _run_grammar_chain),
    _derivative("g1-eulerian", "g1 generates the Eulerian polynomials", "g1", "x", 0,
                lambda g, n: specialized_poly(n, "Eulerian").with_vars(g.vars) * g.poly("x"),
                "Eulerian specialization at n={n}",
                "D^n(x) under g1 at y=1 equals x times the descent polynomial, n <= {n_max}",
                lhs=lambda poly: poly.substitute({"y": 1})),
    _derivative("g2-exterior", "g2 generates the exterior-peak distribution", "g2", "x", 0,
                lambda g, n: (specialized_poly(n, "Gessel-T").with_vars(g.vars)
                              .substitute({"x": g.poly("x^2*y^-2")})
                              * g.poly("x") * g.poly("y") ** n),
                "exterior-peak distribution at n={n}",
                "D^n(x) under g2 equals sum x^(2k+1) y^(n-2k) over exterior-peak counts, "
                "n <= {n_max}"),
    _derivative("g3-fu", "g3 generates the four-variable distribution", "g3", "z", 0,
                lambda g, n: specialized_poly(n, "Fu"),
                "four-variable distribution at n={n}",
                "D^n(z) under g3 equals the exterior-peak/descent enumeration, n <= {n_max}"),
    _sampled("gessel", "exterior-peak generating function",
             [("Gessel-T", "rhs_gessel", _line("x"))],
             "exterior-peak closed form matches enumeration at {size} points, "
             "orders 0..{order} (coefficient degree <= {order} < grid size)"),
    CheckDef("elizalde-noy", "exact-sampled",
             "proper-double-descent generating function", _run_elizalde_noy, order=9),
    _sampled("barry-basset", "no-proper-double-descent generating function",
             [("U", "rhs_barry_basset", lambda order: [("U(n,0)", (), {"y": F(0)})])],
             "no-proper-double-descent counts match exp(t/2)/(E - O/2) through t^{order}"),
    _sampled("fu", "four-variable generating function via root sampling",
             [("Fu", "rhs_fu", _root_pairs)],
             "four-variable closed form matches enumeration on {pairs} root pairs "
             "x {size} y-samples (y-degree of coefficient n is <= n <= {order})"),
    _sampled("carlitz-scoville", "peak/valley generating function via root sampling",
             [("F", "rhs_carlitz_scoville", _root_pairs)],
             "peak/valley closed form matches enumeration on {pairs} root pairs x {size} y-samples"),
    _sampled("ln", "consecutive-231/321 generating function", [("L", "rhs_l", _line("x"))],
             "consecutive-231/321 closed form matches enumeration at {size} points"),
    _sampled("tn", "joint exterior-peak-pattern generating function", [("T", "rhs_t", _plane)],
             "joint peak-pattern closed form matches enumeration on a {size}x{size} grid "
             "(degree <= {order} in each variable)"),
    _sampled("tbar", "132-pattern marginal generating function",
             [("Tbar", "rhs_tbar", _line("x"))],
             "132-pattern marginal matches enumeration at {size} points"),
    _sampled("ttilde", "231-pattern marginal generating function",
             [("Ttilde", "rhs_ttilde", _line("y"))],
             "231-pattern marginal matches enumeration at {size} points"),
    _sampled("kitaev", "avoider specializations at x=0 and y=0",
             [("Tbar", "rhs_tbar", lambda order: [("x=0", (F(0),), {"x": F(0)})]),
              ("Ttilde", "rhs_ttilde", lambda order: [("y=0", (F(0),), {"y": F(0)})])],
             "avoider counts match both x=0 and y=0 specializations through t^{order}"),
    _sampled("ta", "alternating-permutation generating function, both parities",
             [("TA", "rhs_ta", _plane)],
             "alternating closed form matches enumeration in both parities on a "
             "{size}x{size} grid"),
    CheckDef("involutions", "exact-sampled",
             "involution counts from exp(t + t^2/2)", _run_involutions, n_max=8),
    CheckDef("genp-num", "numeric", "main exterior-scheme closed form vs exact series",
             lambda spec, rec: _run_gen_num(spec, rec, "z", specialfn.gen_p_value,
                                            "exterior-scheme"), tol=1e-10),
    CheckDef("genq-num", "numeric", "main peak-scheme closed form vs exact series",
             lambda spec, rec: _run_gen_num(spec, rec, "w", specialfn.gen_q_value, "peak-scheme"),
             tol=1e-10),
    CheckDef("pcf-closed", "numeric",
             "integer-order cylinder functions", _run_pcf_closed, tol=1e-12),
    CheckDef("pcf-rec", "numeric",
             "cylinder ladder recurrences and scaled Weber equation", _run_pcf_rec, tol=1e-10),
    _hyp_identity("kummer", "Kummer transformation at series level",
                  lambda a, b, c: (series.hyp1f1_ct2(a, b, c, 12),
                                   series.exp_poly(0, c, 12) * series.hyp1f1_ct2(b - a, b, -c, 12)),
                  ((F(1, 3), F(5, 2), F(2)), (F(-1, 2), F(1, 2), F(3, 2)), (F(2), F(7, 2), F(-3, 2))),
                  "Kummer transformation"),
    _hyp_identity("contiguous", "contiguous 1F1 relation at series level",
                  lambda a, b, c: ((1 + a - b) * series.hyp1f1_ct2(a, b, c, 12),
                                   a * series.hyp1f1_ct2(a + 1, b, c, 12)
                                   + (1 - b) * series.hyp1f1_ct2(a, b - 1, c, 12)),
                  ((F(1, 3), F(5, 2), F(2)), (F(-2, 3), F(3, 2), F(-1)), (F(5, 4), F(7, 2), F(1, 2))),
                  "contiguous relation"),
)

REGISTRY = {entry.check_id: entry for entry in _REGISTRY_ENTRIES}


def check_ids() -> tuple[str, ...]:
    return tuple(REGISTRY)


def run_check(check_id: str, n_max: int | None = None, order: int | None = None,
              tol: float | None = None) -> Report:
    """Run one registry entry and assemble its report.

    An exception raised by the check's runner fails the check: the report
    carries ``"<ExceptionType>: <message>"`` as its counterexample.  So
    does a run that made no comparison, such as one over an empty range.
    """
    try:
        definition = REGISTRY[check_id]
    except KeyError:
        raise UnknownCheckError(
            f"unknown check {check_id!r}; available: {', '.join(REGISTRY)}") from None
    # Overrides apply only where the check has that knob; a tolerance can
    # never be attached to an exact check.
    spec = CheckSpec(
        check_id=check_id,
        mode=definition.mode,
        n_max=definition.n_max if (n_max is None or definition.n_max is None) else n_max,
        order=definition.order if (order is None or definition.order is None) else order,
        tol=definition.tol if (tol is None or definition.tol is None) else tol,
    )
    report = Report(spec)
    start = time.perf_counter()
    try:
        definition.runner(spec, report)
    except Exception as exc:  # one check's error must not end a run of many
        report.passed = False
        report.counterexample = f"{type(exc).__name__}: {exc}"
    if report.checked == 0:
        report.fail("no comparison was made")
    report.elapsed_s = time.perf_counter() - start
    report.provenance = {"grammar_sha256": {name: builtin_hash(name)
                                            for name in sorted(report.grammars)}}
    return report


def run_many(ids: Sequence[str], n_max: int | None = None, order: int | None = None,
             tol: float | None = None, jobs: int = 1) -> list[Report]:
    """Run several checks, optionally in a process pool; reports come back
    in registry order regardless of completion order.  The pool has at most
    one worker per check: on Linux it starts every worker up front."""
    ordered = [check_id for check_id in REGISTRY if check_id in set(ids)]
    unknown = set(ids) - set(ordered)
    if unknown:
        raise UnknownCheckError(f"unknown check ids: {', '.join(sorted(unknown))}")
    if jobs > 1 and len(ordered) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(ordered))) as pool:
            return list(pool.map(functools.partial(run_check, n_max=n_max, order=order, tol=tol),
                                 ordered))
    return [run_check(cid, n_max=n_max, order=order, tol=tol) for cid in ordered]
