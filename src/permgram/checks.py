"""Registry of identity checks and the runner that turns them into reports.

Each entry pairs a closed form or structural identity with its independent
oracle and declares the mode:

* ``exact-symbolic``  -- identities decided coefficient-by-coefficient in
  the Laurent algebra; no sampling, no floats anywhere.
* ``exact-sampled``   -- series identities proved on a deterministic grid
  of rational points sized by the degree bounds of the coefficients (a
  degree-d polynomial coefficient matched at more than d points is matched
  identically); still exact Fractions throughout.
* ``numeric``         -- the two Gamma-constant closed forms and the
  special-function unit suite, checked in floating point against exact
  truncated series or against each other.

Checks of the two common shapes are rows of data, each shape run by one
loop: a ``_derivative`` row compares D^n(seed) under a built-in grammar with
an enumeration oracle, and a ``_sampled`` row compares a closed-form series
builder with a specialized oracle at every point of a sample grid.  Adding a
check means adding a row to the registry (or, for another shape, a runner
function); the runner, CLI, and report plumbing never need to change.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import perms, series, specialfn
from .algebra import LaurentPoly, Monomial
from .grammar import (DerivationCache, Grammar, builtin, builtin_hash, gen_coeffs,
                      gen_product)
from .perms import (DEFAULT_CAP, WEIGHT_VARS, enumerate_poly, involution_count,
                    label_exterior, label_peak, peak_weight, permutations,
                    specialized_poly, stats)
from .series import (Series, exp_poly, hyp1f1_ct2, rhs_elizalde_noy, rhs_involutions,
                     rhs_ta_even, rhs_ta_odd)

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
    cap: int


@dataclass
class Report:
    spec: CheckSpec
    passed: bool
    checked: int
    details: list[str]
    counterexample: str | None
    max_residual: float | None
    elapsed_s: float
    provenance: dict

    def to_dict(self, with_timing: bool = True) -> dict:
        out = {
            "id": self.spec.check_id,
            "mode": self.spec.mode,
            "n_max": self.spec.n_max,
            "order": self.spec.order,
            "tol": self.spec.tol,
            "cap": self.spec.cap,
            "passed": self.passed,
            "checked": self.checked,
            "details": list(self.details),
            "counterexample": self.counterexample,
            "max_residual": self.max_residual,
            "provenance": dict(self.provenance),
        }
        if with_timing:
            out["elapsed_s"] = round(self.elapsed_s, 3)
        return out

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = self.details[0] if self.passed and self.details else (self.counterexample or "")
        residual = "" if self.max_residual is None else f" max residual {self.max_residual:.2e}"
        return (f"{status}  {self.spec.check_id:<16} {self.spec.mode:<14} "
                f"{body}{residual} ({self.elapsed_s:.2f}s)")


class Recorder:
    """Accumulates comparisons; keeps the first counterexample verbatim and
    the names of the built-in grammars the check asked for."""

    def __init__(self) -> None:
        self.checked = 0
        self.passed = True
        self.details: list[str] = []
        self.counterexample: str | None = None
        self.max_residual: float | None = None
        self.grammars: set[str] = set()

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

    def equal(self, lhs, rhs, label: str) -> None:
        self.checked += 1
        if lhs != rhs:
            self.fail(f"{label}: {_short(lhs)} != {_short(rhs)}")

    def poly_equal(self, lhs: LaurentPoly, rhs: LaurentPoly, label: str) -> None:
        self.checked += 1
        if lhs != rhs:
            mono, ca, cb = _first_poly_diff(lhs, rhs)
            self.fail(f"{label}: coefficient of {mono} is {ca} on the left, {cb} on the right")

    def residual(self, value: float, tol: float, label: str) -> None:
        self.checked += 1
        value = abs(value)
        if self.max_residual is None or value > self.max_residual:
            self.max_residual = value
        if value > tol:
            self.fail(f"{label}: residual {value:.3e} exceeds {tol:.1e}")


def _short(value, limit: int = 160) -> str:
    text = str(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _first_poly_diff(a: LaurentPoly, b: LaurentPoly) -> tuple[str, Fraction, Fraction]:
    keys = sorted(set(a.terms) | set(b.terms))
    for key in keys:
        ca = a.terms.get(key, F(0))
        cb = b.terms.get(key, F(0))
        if ca != cb:
            return str(Monomial(a.vars, key)), ca, cb
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


# -- shared comparison loops -----------------------------------------------------


def _check_series_against(rec: Recorder, rhs: Series, values: Sequence[Fraction],
                          label: str) -> None:
    """Coefficient n of the series against the oracle value over n!."""
    for n, value in enumerate(values):
        rec.equal(rhs[n], value / math.factorial(n), f"{label}, coefficient of t^{n}")


def _oracle_polys(target: str, spec: CheckSpec, start: int = 0) -> list[LaurentPoly | None]:
    """The oracle polynomial of each n = 0..order, None below ``start``."""
    return [specialized_poly(n, target, cap=spec.cap) if n >= start else None
            for n in range(spec.order + 1)]


def _run_samples(spec: CheckSpec, rec: Recorder, target: str, builder: str,
                 grid: Callable[[int], list], start: int = 0) -> None:
    """Compare ``series.<builder>`` with the oracle ``target`` at each sample.

    ``grid(order)`` lists (label, builder arguments, evaluation point); a
    point of None means the builder returns (point, series) itself.  The
    oracle is zero below n = ``start``.
    """
    polys = _oracle_polys(target, spec, start)
    build = getattr(series, builder)  # by name, so a rebound builder is the one run
    for label, args, point in grid(spec.order):
        rhs = build(*args, spec.order)
        if point is None:
            point, rhs = rhs
        _check_series_against(rec, rhs, [F(0) if poly is None else poly.evaluate(point)
                                         for poly in polys], label)


def _sampled(check_id: str, description: str, target: str, builder: str,
             grid: Callable[[int], list], note: str, start: int = 0) -> CheckDef:
    """An exact-sampled row run by ``_run_samples``; ``note`` is formatted with
    the order, the per-variable grid size and the number of root pairs."""
    def run(spec: CheckSpec, rec: Recorder) -> None:
        _run_samples(spec, rec, target, builder, grid, start)
        rec.note(note.format(order=spec.order, size=len(x_grid(spec.order)),
                             pairs=len(ROOT_PAIRS)))
    return CheckDef(check_id, "exact-sampled", description, run, order=9)


def _derivative(check_id: str, description: str, grammar: str, seed: str, first: int,
                oracle: Callable[[Grammar, int, int], LaurentPoly], label: str, note: str,
                lhs: Callable[[LaurentPoly], LaurentPoly] = lambda poly: poly) -> CheckDef:
    """An exact-symbolic row: ``lhs(D^n(seed))`` under a built-in grammar
    against ``oracle(g, n, cap)`` for n = first..n_max.  ``label`` is
    formatted with n and ``note`` with n_max."""
    def run(spec: CheckSpec, rec: Recorder) -> None:
        g = rec.grammar(grammar)
        cache = DerivationCache(g, g.poly(seed))
        for n in range(first, spec.n_max + 1):
            rec.poly_equal(lhs(cache.upto(n)[n]), oracle(g, n, spec.cap), label.format(n=n))
        rec.note(note.format(n_max=spec.n_max))
    return CheckDef(check_id, "exact-symbolic", description, run, n_max=8)


# -- exact-symbolic runners ----------------------------------------------------


def _run_insertion(spec: CheckSpec, rec: Recorder) -> None:
    g = rec.grammar("G")
    for n in range(spec.n_max + 1):
        for perm in permutations(n):
            total = LaurentPoly.zero(WEIGHT_VARS)
            for child in perms.insertion_children(perm):
                total = total + label_exterior(child).weight
            rec.poly_equal(total, g.derive(label_exterior(perm).weight),
                           f"insertion step at {perm or '()'}")
    rec.note(f"summed child weights equal D(weight) for every permutation, n <= {spec.n_max}")


def _run_conv(spec: CheckSpec, rec: Recorder) -> None:
    q0 = LaurentPoly.variable(WEIGHT_VARS, "w")
    p = [enumerate_poly(k, "P", cap=spec.cap) for k in range(spec.n_max + 2)]
    q = [q0] + [enumerate_poly(k, "Q", cap=spec.cap) for k in range(1, spec.n_max + 1)]
    for n in range(1, spec.n_max + 1):
        acc = LaurentPoly.zero(WEIGHT_VARS)
        for k in range(n + 1):
            acc = acc + math.comb(n, k) * (p[k] * q[n - k])
        rec.poly_equal(p[n + 1], acc, f"convolution at n={n}")
    rec.note(f"P_(n+1) = sum C(n,k) P_k Q_(n-k) with Q_0 = w for 1 <= n <= {spec.n_max}")


def _run_ode(spec: CheckSpec, rec: Recorder) -> None:
    g = rec.grammar("G")
    seed = g.poly("x^-1/2*z^-1/2")
    coeffs = gen_coeffs(g, seed, spec.order + 2)
    alpha = g.poly("y^2 + 2*y*w + w^2 - 2*x*v - 2*z*u")
    beta = 2 * (g.poly("w") - g.poly("y")) * g.poly("x*v - z*u")
    gamma = 2 * g.poly("x*v - z*u") ** 2
    rec.poly_equal(g.derive(seed), F(-1, 2) * (g.poly("y") + g.poly("w")) * seed,
                   "first derivative of the seed")
    rec.poly_equal(coeffs[2], F(1, 4) * alpha * seed, "second derivative of the seed")
    rec.poly_equal(g.derive(alpha), beta, "D(alpha) = beta")
    rec.poly_equal(g.derive(beta), gamma, "D(beta) = gamma")
    rec.poly_equal(g.derive(gamma), LaurentPoly.zero(WEIGHT_VARS), "D(gamma) = 0")
    zero = LaurentPoly.zero(WEIGHT_VARS)
    for n in range(spec.order + 1):
        residual = coeffs[n + 2] - F(1, 4) * alpha * coeffs[n]
        if n >= 1:
            residual = residual - F(n, 4) * beta * coeffs[n - 1]
        if n >= 2:
            residual = residual - F(n * (n - 1), 8) * gamma * coeffs[n - 2]
        rec.poly_equal(residual, zero, f"cylinder-equation residual at t^{n}")
    rec.note(f"f'' - (gamma/8 t^2 + beta/4 t + alpha/4) f vanishes through t^{spec.order}")


def _run_gen_x1z(spec: CheckSpec, rec: Recorder) -> None:
    g = rec.grammar("G")
    lhs = gen_coeffs(g, g.poly("x^-1*z"), spec.order)
    front = g.poly("x^-1*z")
    wy = g.poly("w") - g.poly("y")
    c = g.poly("x*v - z*u")
    fact = math.factorial
    for n in range(spec.order + 1):
        total = LaurentPoly.zero(WEIGHT_VARS)
        for k in range(n // 2 + 1):
            scale = F(fact(n), (2 ** k) * fact(n - 2 * k) * fact(k))
            total = total + scale * (wy ** (n - 2 * k)) * (c ** k)
        rec.poly_equal(lhs[n], front * total, f"closed form of D^n(x^-1 z) at n={n}")
    rec.note(f"D^n(x^-1 z) matches its binomial closed form through n = {spec.order}")


def _run_quotient(spec: CheckSpec, rec: Recorder) -> None:
    g = rec.grammar("G")
    gz = gen_coeffs(g, g.poly("z"), spec.order)
    gs = gen_coeffs(g, g.poly("x^-1/2*z^-1/2"), spec.order)
    lhs = gen_product(gen_product(gz, gz), gen_product(gs, gs))
    rhs = gen_coeffs(g, g.poly("x^-1*z"), spec.order)
    for n in range(spec.order + 1):
        rec.poly_equal(lhs[n], rhs[n], f"squared-quotient identity at t^{n}")
    rec.note(f"Gen(z)^2 Gen(x^-1/2 z^-1/2)^2 = Gen(x^-1 z) through t^{spec.order}")


def _run_stats_id(spec: CheckSpec, rec: Recorder) -> None:
    pat231, pat321 = (2, 3, 1), (3, 2, 1)
    for n in range(spec.n_max + 1):
        for perm in permutations(n):
            s = stats(perm)
            rec.equal(perms.consecutive_count(perm, pat231) + perms.consecutive_count(perm, pat321),
                      s.ep2 + s.pdd, f"consecutive 231+321 vs ep2+pdd at {perm}")
            if n >= 1:
                rec.equal(s.p1 + s.p2, s.valleys + 1, f"peak/valley balance at {perm}")
                labeling = label_peak(perm)  # raises if a position is unlabeled
                rec.poly_equal(labeling.weight, peak_weight(perm),
                               f"peak labeling weight at {perm}")
    rec.note(f"consecutive-pattern, peak/valley, and labeling identities hold for n <= {spec.n_max}")


def _run_grammar_chain(spec: CheckSpec, rec: Recorder) -> None:
    g = rec.grammar("G")
    chains = (
        ("g1", {"w": "x", "u": "x", "z": "y", "v": "y"}, "x"),
        ("g2", {"z": "x", "u": "x", "v": "x", "w": "y"}, "x"),
        ("g3", {"v": "z", "u": "x"}, "z"),
    )
    for name, chain, seed_name in chains:
        target = rec.grammar(name)
        for var in g.vars:
            image = g.rule(var).substitute(chain).with_vars(target.vars)
            rec.poly_equal(image, target.rule(chain.get(var, var)),
                           f"{name}: reduced rule for {var}")
        seed = g.poly(seed_name)
        reduced = DerivationCache(target, target.poly(seed_name))
        for n in range(spec.n_max + 1):
            lhs = g.derive_n(seed, n).substitute(chain).with_vars(target.vars)
            rec.poly_equal(lhs, reduced.upto(n)[n],
                           f"{name}: substitution commutes with D at n={n}")
    rec.note(f"G reduces to g1, g2, g3 and the reductions commute with D up to n = {spec.n_max}")


# -- exact-sampled runners of other shapes ---------------------------------------


def _run_elizalde_noy(spec: CheckSpec, rec: Recorder) -> None:
    polys = _oracle_polys("U", spec)
    seen = set()
    roots = en_roots(spec.order)
    for a in roots:
        y, rhs = rhs_elizalde_noy(a, spec.order)
        seen.add(y)
        _check_series_against(rec, rhs, [poly.evaluate({"y": y}) for poly in polys],
                              f"a={a} (y={y})")
    rec.equal(len(seen), len(roots), "samples give distinct y values")
    rec.note(f"double-descent closed form matches enumeration at {len(seen)} distinct y, "
             f"orders 0..{spec.order}")


def _run_kitaev(spec: CheckSpec, rec: Recorder) -> None:
    _run_samples(spec, rec, "Tbar", "rhs_tbar",
                 lambda order: [("x=0 marginal", (F(0),), {"x": F(0)})])
    _run_samples(spec, rec, "Ttilde", "rhs_ttilde",
                 lambda order: [("y=0 marginal", (F(0),), {"y": F(0)})])
    rec.note(f"avoider counts match both x=0 and y=0 specializations through t^{spec.order}")


def _run_ta(spec: CheckSpec, rec: Recorder) -> None:
    polys = _oracle_polys("TA", spec)
    xs, ys = x_grid(spec.order), y_grid(spec.order)
    for x in xs:
        for y in ys:
            values = [poly.evaluate({"x": x, "y": y}) for poly in polys]
            for parity, name, rhs in ((0, "even", rhs_ta_even(x, y, spec.order)),
                                      (1, "odd", rhs_ta_odd(x, y, spec.order))):
                _check_series_against(
                    rec, rhs, [v if n % 2 == parity else F(0) for n, v in enumerate(values)],
                    f"{name} part at ({x},{y})")
    rec.note(f"alternating closed form matches enumeration in both parities on a "
             f"{len(xs)}x{len(ys)} grid")


def _run_involutions(spec: CheckSpec, rec: Recorder) -> None:
    rhs = rhs_involutions(spec.n_max)
    ns = range(spec.n_max + 1)
    _check_series_against(rec, rhs, [F(involution_count(n)) for n in ns], "involution count")
    _check_series_against(rec, rhs, [specialized_poly(n, "L", cap=spec.cap).coeff({}) for n in ns],
                          "L_n(0)")
    rec.note(f"involution counts match exp(t + t^2/2) and L_n(0) for n <= {spec.n_max}")


# -- numeric runners -------------------------------------------------------------


def _random_box_point(rng: random.Random) -> dict[str, Fraction]:
    while True:
        point = {name: F(rng.randrange(8, 33), 16) for name in WEIGHT_VARS}
        if abs(point["x"] * point["v"] - point["z"] * point["u"]) >= F(1, 4):
            return point


def _run_gen_num(spec: CheckSpec, rec: Recorder, seed_name: str,
                 value_fn: Callable[..., float], label: str) -> None:
    g = rec.grammar("G")
    order = 25
    coeffs = gen_coeffs(g, g.poly(seed_name), order)
    rng = random.Random(0x5EED + ord(seed_name[0]))
    for trial in range(5):
        point = _random_box_point(rng)
        t = F(rng.randrange(10, 21), 100)
        tail = abs(coeffs[order].evaluate(point)) * t ** order / math.factorial(order)
        if float(tail) > spec.tol / 10:
            rec.fail(f"trial {trial}: truncation tail {float(tail):.2e} too large for tol")
            continue
        exact = sum(c.evaluate(point) * t ** n / math.factorial(n) for n, c in enumerate(coeffs))
        floats = {name: float(v) for name, v in point.items()}
        try:
            numeric = value_fn(floats, float(t))
        except specialfn.ImaginaryResidualError as exc:
            rec.fail(f"trial {trial}: {exc}")
            continue
        rec.residual(numeric - float(exact), spec.tol,
                     f"trial {trial} at t={t}: closed form vs series")
    rec.note(f"{label} closed form matches the exact N={order} truncation at 5 box samples")


def _run_pcf_closed(spec: CheckSpec, rec: Recorder) -> None:
    for z in (-2.0, -1.3, -0.5, 0.0, 0.7, 1.3, 2.0):
        rec.residual(specialfn.pcf_d(0, z).real - math.exp(-z * z / 4), spec.tol,
                     f"order 0 at z={z}")
        rec.residual(specialfn.pcf_d(1, z).real - z * math.exp(-z * z / 4), spec.tol,
                     f"order 1 at z={z}")
        reference = math.sqrt(math.pi / 2) * math.exp(z * z / 4) * (1 - math.erf(z / math.sqrt(2)))
        rec.residual(specialfn.pcf_d(-1, z).real - reference, spec.tol, f"order -1 at z={z}")
    rec.residual(specialfn.pcf_d(-1, 0.0).real - math.sqrt(math.pi / 2), spec.tol,
                 "order -1 at the origin")
    rec.note("integer-order cylinder functions match their elementary closed forms")


def _run_pcf_rec(spec: CheckSpec, rec: Recorder) -> None:
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
    rec.note("ladder recurrences hold to 1e-10 and the scaled Weber equation to 1e-8")


def _run_kummer(spec: CheckSpec, rec: Recorder) -> None:
    for a in (0.3, 1.2, -0.7):
        for b in (0.5, 1.7):
            for z in (-2.5, -1.0, 0.8, 3.0):
                lhs = specialfn.hyp1f1(a, b, z)
                rhs = math.exp(z) * specialfn.hyp1f1(b - a, b, -z)
                rec.residual((lhs - rhs).real, spec.tol, f"numeric at (a={a}, b={b}, z={z})")
    for a, b, c in ((F(1, 3), F(5, 2), F(2)), (F(-1, 2), F(1, 2), F(3, 2)), (F(2), F(7, 2), F(-3, 2))):
        lhs = hyp1f1_ct2(a, b, c, 12)
        rhs = exp_poly(0, c, 12) * hyp1f1_ct2(b - a, b, -c, 12)
        rec.equal([lhs[n] for n in range(13)], [rhs[n] for n in range(13)],
                  f"series level at (a={a}, b={b}, c={c})")
    rec.note("Kummer transformation holds numerically and exactly at series level")


def _run_contiguous(spec: CheckSpec, rec: Recorder) -> None:
    for a in (0.4, -1.3):
        for b in (1.7, 2.5):
            for z in (-2.0, 1.5):
                lhs = (1 + a - b) * specialfn.hyp1f1(a, b, z)
                rhs = a * specialfn.hyp1f1(a + 1, b, z) + (1 - b) * specialfn.hyp1f1(a, b - 1, z)
                rec.residual((lhs - rhs).real, spec.tol, f"numeric at (a={a}, b={b}, z={z})")
    for a, b, c in ((F(1, 3), F(5, 2), F(2)), (F(-2, 3), F(3, 2), F(-1)), (F(5, 4), F(7, 2), F(1, 2))):
        lhs = (1 + a - b) * hyp1f1_ct2(a, b, c, 12)
        rhs = a * hyp1f1_ct2(a + 1, b, c, 12) + (1 - b) * hyp1f1_ct2(a, b - 1, c, 12)
        rec.equal([lhs[n] for n in range(13)], [rhs[n] for n in range(13)],
                  f"series level at (a={a}, b={b}, c={c})")
    rec.note("contiguous relation holds numerically and exactly at series level")


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    mode: str
    description: str
    runner: Callable[[CheckSpec, Recorder], None]
    n_max: int | None = None
    order: int | None = None
    tol: float | None = None


# Oracles are lambdas, so functions of other modules are looked up when a
# check runs and a rebound one is the one called.
_REGISTRY_ENTRIES = (
    _derivative("thm-P", "D^n(z) equals the exterior-scheme enumeration", "G", "z", 0,
                lambda g, n, cap: enumerate_poly(n, "P", cap=cap),
                "derivative vs enumeration at n={n}",
                "D^n(z) equals the exterior-scheme enumeration for 0 <= n <= {n_max}"),
    _derivative("thm-Q", "D^n(w) equals the peak-scheme enumeration", "G", "w", 1,
                lambda g, n, cap: enumerate_poly(n, "Q", cap=cap),
                "derivative vs enumeration at n={n}",
                "D^n(w) equals the peak-scheme enumeration for 1 <= n <= {n_max}"),
    _derivative("w-cor", "D^n(w) at v=z equals the valley-marked enumeration", "G", "w", 1,
                lambda g, n, cap: enumerate_poly(n, "W", cap=cap), "v->z specialization at n={n}",
                "D^n(w) at v=z equals the valley-marked enumeration for 1 <= n <= {n_max}",
                lhs=lambda poly: poly.substitute({"v": "z"})),
    CheckDef("insertion", "exact-symbolic",
             "insertion children realize the derivative on weights", _run_insertion, n_max=6),
    CheckDef("conv", "exact-symbolic",
             "binomial convolution linking the two enumerations", _run_conv, n_max=7),
    CheckDef("ode", "exact-symbolic",
             "cylinder differential equation for the half-exponent seed", _run_ode, order=14),
    CheckDef("gen-x1z", "exact-symbolic",
             "binomial closed form of D^n(x^-1 z)", _run_gen_x1z, order=12),
    CheckDef("quotient", "exact-symbolic",
             "squared quotient identity for the half-exponent seed", _run_quotient, order=12),
    CheckDef("stats-id", "exact-symbolic",
             "exhaustive statistic identities and labeling consistency", _run_stats_id, n_max=7),
    CheckDef("grammar-chain", "exact-symbolic",
             "specialization chains onto the reference grammars", _run_grammar_chain, n_max=6),
    _derivative("g1-eulerian", "g1 generates the Eulerian polynomials", "g1", "x", 0,
                lambda g, n, cap: (specialized_poly(n, "Eulerian", cap=cap).with_vars(g.vars)
                                   * g.poly("x")),
                "Eulerian specialization at n={n}",
                "D^n(x) under g1 at y=1 equals x times the descent polynomial, n <= {n_max}",
                lhs=lambda poly: poly.substitute({"y": 1})),
    _derivative("g2-exterior", "g2 generates the exterior-peak distribution", "g2", "x", 0,
                lambda g, n, cap: (specialized_poly(n, "Gessel-T", cap=cap).with_vars(g.vars)
                                   .substitute({"x": g.poly("x^2*y^-2")})
                                   * g.poly("x") * g.poly("y") ** n),
                "exterior-peak distribution at n={n}",
                "D^n(x) under g2 equals sum x^(2k+1) y^(n-2k) over exterior-peak counts, "
                "n <= {n_max}"),
    _derivative("g3-fu", "g3 generates the four-variable distribution", "g3", "z", 0,
                lambda g, n, cap: specialized_poly(n, "Fu", cap=cap),
                "four-variable distribution at n={n}",
                "D^n(z) under g3 equals the exterior-peak/descent enumeration, n <= {n_max}"),
    _sampled("gessel", "exterior-peak generating function", "Gessel-T", "rhs_gessel",
             _line("x"), "exterior-peak closed form matches enumeration at {size} points, "
             "orders 0..{order} (coefficient degree <= {order} < grid size)"),
    CheckDef("elizalde-noy", "exact-sampled",
             "proper-double-descent generating function", _run_elizalde_noy, order=9),
    _sampled("barry-basset", "no-proper-double-descent generating function", "U",
             "rhs_barry_basset", lambda order: [("U(n,0)", (), {"y": F(0)})],
             "no-proper-double-descent counts match exp(t/2)/(E - O/2) through t^{order}"),
    _sampled("fu", "four-variable generating function via root sampling", "Fu", "rhs_fu",
             _root_pairs, "four-variable closed form matches enumeration on {pairs} root pairs "
             "x {size} y-samples (y-degree of coefficient n is <= n <= {order})"),
    _sampled("carlitz-scoville", "peak/valley generating function via root sampling", "F",
             "rhs_carlitz_scoville", _root_pairs,
             "peak/valley closed form matches enumeration on {pairs} root pairs x {size} y-samples",
             start=1),
    _sampled("ln", "consecutive-231/321 generating function", "L", "rhs_l", _line("x"),
             "consecutive-231/321 closed form matches enumeration at {size} points"),
    _sampled("tn", "joint exterior-peak-pattern generating function", "T", "rhs_t", _plane,
             "joint peak-pattern closed form matches enumeration on a {size}x{size} grid "
             "(degree <= {order} in each variable)"),
    _sampled("tbar", "132-pattern marginal generating function", "Tbar", "rhs_tbar", _line("x"),
             "132-pattern marginal matches enumeration at {size} points"),
    _sampled("ttilde", "231-pattern marginal generating function", "Ttilde", "rhs_ttilde",
             _line("y"), "231-pattern marginal matches enumeration at {size} points"),
    CheckDef("kitaev", "exact-sampled",
             "avoider specializations at x=0 and y=0", _run_kitaev, order=9),
    CheckDef("ta", "exact-sampled",
             "alternating-permutation generating function, both parities", _run_ta, order=9),
    CheckDef("involutions", "exact-sampled",
             "involution counts from exp(t + t^2/2) and L_n(0)", _run_involutions, n_max=8),
    CheckDef("genp-num", "numeric", "main exterior-scheme closed form vs exact series",
             lambda spec, rec: _run_gen_num(spec, rec, "z", specialfn.gen_p_value,
                                            "exterior-scheme"), tol=1e-8),
    CheckDef("genq-num", "numeric", "main peak-scheme closed form vs exact series",
             lambda spec, rec: _run_gen_num(spec, rec, "w", specialfn.gen_q_value, "peak-scheme"),
             tol=1e-8),
    CheckDef("pcf-closed", "numeric",
             "integer-order cylinder functions", _run_pcf_closed, tol=1e-12),
    CheckDef("pcf-rec", "numeric",
             "cylinder ladder recurrences and scaled Weber equation", _run_pcf_rec, tol=1e-10),
    CheckDef("kummer", "numeric",
             "Kummer transformation, numeric and series level", _run_kummer, tol=1e-10),
    CheckDef("contiguous", "numeric",
             "contiguous 1F1 relation, numeric and series level", _run_contiguous, tol=1e-10),
)

REGISTRY = {entry.check_id: entry for entry in _REGISTRY_ENTRIES}


def check_ids() -> tuple[str, ...]:
    return tuple(REGISTRY)


def run_check(check_id: str, n_max: int | None = None, order: int | None = None,
              tol: float | None = None, cap: int = DEFAULT_CAP) -> Report:
    """Run one registry entry and assemble its report.

    An exception raised by the check's runner fails the check: the report
    carries ``"<ExceptionType>: <message>"`` as its counterexample.
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
        cap=cap,
    )
    recorder = Recorder()
    start = time.perf_counter()
    try:
        definition.runner(spec, recorder)
    except Exception as exc:  # one check's error must not end a run of many
        recorder.passed = False
        recorder.counterexample = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return Report(
        spec=spec,
        passed=recorder.passed,
        checked=recorder.checked,
        details=recorder.details,
        counterexample=recorder.counterexample,
        max_residual=recorder.max_residual,
        elapsed_s=elapsed,
        provenance={"grammar_sha256": {name: builtin_hash(name) for name in sorted(recorder.grammars)},
                    "cap": cap},
    )


def _run_by_id(args: tuple[str, int | None, int | None, float | None, int]) -> Report:
    check_id, n_max, order, tol, cap = args
    return run_check(check_id, n_max=n_max, order=order, tol=tol, cap=cap)


def run_many(ids: Sequence[str], n_max: int | None = None, order: int | None = None,
             tol: float | None = None, cap: int = DEFAULT_CAP, jobs: int = 1) -> list[Report]:
    """Run several checks, optionally in a process pool; reports come back
    in registry order regardless of completion order."""
    ordered = [check_id for check_id in REGISTRY if check_id in set(ids)]
    unknown = set(ids) - set(ordered)
    if unknown:
        raise UnknownCheckError(f"unknown check ids: {', '.join(sorted(unknown))}")
    if jobs > 1 and len(ordered) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_by_id, [(cid, n_max, order, tol, cap) for cid in ordered]))
    return [run_check(cid, n_max=n_max, order=order, tol=tol, cap=cap) for cid in ordered]
