"""Floating-point special functions and the numeric closed forms, with a
direct-summation 1F1 as a second route to D_a."""

from __future__ import annotations

import cmath
import itertools
import math
import random

import pytest

from permgram import specialfn
from permgram.grammar import builtin, gen_coeffs
from permgram.specialfn import (MAX_TERMS, TOLERANCE, ComplexLike, ConvergenceError,
                                ImaginaryResidualError, Real, gen_p_value, gen_q_value, pcf_d,
                                pcf_d_derivs, rgamma)


def hyp1f1(a: Real, b: Real, z: ComplexLike) -> complex:
    """1F1(a; b; z) by direct summation; desk-scale |z| only."""
    if b <= 0 and float(b).is_integer():
        raise ValueError(f"1F1 parameter b={b} is a nonpositive integer")
    if abs(z) > 40:
        raise ConvergenceError(f"|z|={abs(z):.3g} too large for direct summation")
    total = complex(1.0)
    term = complex(1.0)
    for n in range(MAX_TERMS):
        term = term * (a + n) / (b + n) * z / (n + 1)
        total += term
        if abs(term) < TOLERANCE / 10 and n > 3:
            return total
    raise ConvergenceError("1F1 summation did not converge within the cutoff")


def reference_pcf_d(a, z):
    """D_a(z) from its defining pair of 1F1 series with reciprocal-Gamma
    prefactors: a second route to the value, sharing only rgamma with the
    Weber-equation series in pcf_d."""
    zz = complex(z)
    half = zz * zz / 2
    pref = 2 ** (a / 2) * math.sqrt(math.pi) * cmath.exp(-zz * zz / 4)
    term1 = rgamma((1 - a) / 2) * hyp1f1(-a / 2, 0.5, half)
    term2 = math.sqrt(2) * zz * rgamma(-a / 2) * hyp1f1((1 - a) / 2, 1.5, half)
    return pref * (term1 - term2)


def test_gamma_and_rgamma():
    assert rgamma(0) == 0.0
    assert rgamma(-3) == 0.0
    assert abs(rgamma(0.5) - 1 / math.sqrt(math.pi)) < 1e-14


def test_hyp1f1_against_exp():
    for z in (-3.0, -1.0, 0.5, 2.0):
        assert abs(hyp1f1(1, 1, z) - math.exp(z)) < 1e-12
    assert hyp1f1(0.3, 1.7, 0) == 1.0


def test_hyp1f1_erf_identity():
    # 1F1(1; 3/2; z^2) = (sqrt(pi)/(2z)) e^{z^2} erf(z) at z = 1/2
    z = 0.5
    lhs = hyp1f1(1, 1.5, z * z)
    rhs = math.sqrt(math.pi) / (2 * z) * math.exp(z * z) * math.erf(z)
    assert abs(lhs - rhs) < 1e-13


def test_hyp1f1_kummer_and_contiguous_relations():
    # Kummer: 1F1(a; b; z) = e^z 1F1(b-a; b; -z); contiguous:
    # (1+a-b) 1F1(a; b; z) = a 1F1(a+1; b; z) + (1-b) 1F1(a; b-1; z)
    for a, b, z in itertools.product((0.3, 1.2, -0.7), (0.5, 1.7), (-2.5, -1.0, 0.8, 3.0)):
        assert abs(hyp1f1(a, b, z) - math.exp(z) * hyp1f1(b - a, b, -z)) <= 1e-10, (a, b, z)
    for a, b, z in itertools.product((0.4, -1.3), (1.7, 2.5), (-2.0, 1.5)):
        lhs = (1 + a - b) * hyp1f1(a, b, z)
        rhs = a * hyp1f1(a + 1, b, z) + (1 - b) * hyp1f1(a, b - 1, z)
        assert abs(lhs - rhs) <= 1e-10, (a, b, z)


def test_hyp1f1_guards():
    with pytest.raises(ValueError):
        hyp1f1(1, 0, 0.5)
    with pytest.raises(ValueError):
        hyp1f1(1, -2, 0.5)
    with pytest.raises(ConvergenceError):
        hyp1f1(1, 1.5, 100.0)


def test_pcf_closed_forms():
    for z in (-2.0, -0.7, 0.0, 1.3):
        assert abs(pcf_d(0, z).real - math.exp(-z * z / 4)) < 1e-13
        assert abs(pcf_d(1, z).real - z * math.exp(-z * z / 4)) < 1e-13
        expected = math.sqrt(math.pi / 2) * math.exp(z * z / 4) * (1 - math.erf(z / math.sqrt(2)))
        assert abs(pcf_d(-1, z).real - expected) < 1e-12
    assert abs(pcf_d(-1, 0.0).real - math.sqrt(math.pi / 2)) < 1e-14


def test_pcf_derivs_match_recurrences():
    for a in (-1.5, -0.5, 0.0, 1.0):
        for z in (-2.0, -0.3, 0.0, 0.9, 2.0):
            d0, d1, d2 = pcf_d_derivs(a, z)
            assert abs(d0 - reference_pcf_d(a, z)) < 1e-13
            assert abs(d1 - (z / 2 * d0 - pcf_d(a + 1, z))) < 1e-10
            assert abs(d1 - (a * pcf_d(a - 1, z) - z / 2 * d0)) < 1e-10
            assert abs(d2 - (z * z / 4 - a - 0.5) * d0) < 1e-10


def test_pcf_imaginary_argument():
    # at a pure imaginary argument the function splits into a real even part
    # and an imaginary odd part; check it, and real arguments, against the
    # defining formula, also at orders where one prefactor vanishes
    for a in (-1.5, -1, -0.5, 0, 0.7, 1, 2):
        for z in (-2.0, -0.6, 0.0, 1.3, 2.5, 1.1j, -0.4j, 2.2j):
            want = reference_pcf_d(a, z)
            assert abs(pcf_d(a, z) - want) < 1e-12 * max(1.0, abs(want)), (a, z)


SAMPLE = {"x": 1.25, "y": 0.75, "z": 1.5, "w": 1.0, "u": 0.5, "v": 1.75}  # xv - zu = 1.4375


def test_gen_values_at_zero_are_the_seeds():
    assert abs(gen_p_value(SAMPLE, 0.0) - SAMPLE["z"]) < 1e-12
    assert abs(gen_q_value(SAMPLE, 0.0) - SAMPLE["w"]) < 1e-12


def test_gen_values_at_zero_are_the_seeds_over_the_box():
    # Gen(z) and Gen(w) at t = 0 are z and w; the closed forms reach them
    # through four cylinder functions each.  The bound is relative 1e-12,
    # and never looser than an absolute 1e-12
    for point in _box_points(300):
        assert abs(gen_p_value(point, 0.0) - point["z"]) < 1e-12 * min(1.0, point["z"]), point
        assert abs(gen_q_value(point, 0.0) - point["w"]) < 1e-12 * min(1.0, point["w"]), point


def test_gen_values_match_truncated_series():
    from fractions import Fraction as F
    g = builtin("G")
    point = {"x": F(5, 4), "y": F(3, 4), "z": F(3, 2), "w": F(1), "u": F(1, 2), "v": F(7, 4)}
    t = F(3, 20)
    for seed, fn in (("z", gen_p_value), ("w", gen_q_value)):
        coeffs = gen_coeffs(g, g.poly(seed), 25)
        exact = sum(c.evaluate(point) * t ** n / math.factorial(n) for n, c in enumerate(coeffs))
        numeric = fn(SAMPLE, float(t))
        assert abs(numeric - float(exact)) < 1e-9


def test_gen_value_guards():
    degenerate = {"x": 1.0, "v": 1.0, "z": 1.0, "u": 1.0, "y": 0.9, "w": 1.1}  # xv = zu
    with pytest.raises(ValueError):
        gen_p_value(degenerate, 0.1)
    with pytest.raises(ValueError):
        gen_p_value(SAMPLE, 0.9)  # outside the |t| radius


def reference_gen_values(params, t):
    """(Gen(z), Gen(w)) at (params, t) in the ladder form: the orders a+1 of
    r and s stand where gen_p_value and gen_q_value read D', and the
    numerator restates f(0).  Sums six and eight cylinder functions."""
    x, y, z, w, u, v = (params[name] for name in "xyzwuv")
    d2 = x * v - z * u
    delta, dhat = cmath.sqrt(d2), cmath.sqrt(-d2)
    a_del, a_hat = (z * u - y * w) / d2, (x * v - y * w) / (-d2)
    p, q = pcf_d(a_del, (w - y) / delta), pcf_d(a_hat, (y - w) / dhat)
    r = pcf_d((x * v - y * w) / d2, (w - y) / delta)
    s = pcf_d((z * u - y * w) / (-d2), (y - w) / dhat)
    arg_del, arg_hat = delta * t + (w - y) / delta, dhat * t + (y - w) / dhat
    coef_a, coef_b = dhat * s - q * y, p * w - delta * r
    denominator = coef_a * pcf_d(a_del, arg_del) + coef_b * pcf_d(a_hat, arg_hat)
    numerator = z * (p * q * (w - y) + (dhat * p * s - delta * q * r))
    numerator *= cmath.exp((w - y) * t / 2 + d2 * t * t / 4)
    first = (d2 * t + w - y) * coef_b * pcf_d(a_hat, arg_hat)
    second = (coef_a * delta * pcf_d((x * v - y * w) / d2, arg_del)
              + coef_b * dhat * pcf_d((z * u - y * w) / (-d2), arg_hat))
    return numerator / denominator, (first + second) / denominator


def _box_points(count=60):
    """``count`` points of the [9/16, 31/16] box with |xv - zu| >= 1/4: the
    corners of xv - zu (about +-3.44, imaginary delta when negative),
    |xv - zu| = 1/4, the largest |w - y| both ways, and a random sample."""
    corners = [(31 / 16, 9 / 16, 9 / 16, 31 / 16), (9 / 16, 31 / 16, 31 / 16, 9 / 16),
               (1.25, 1.0, 1.0, 1.0), (1.0, 1.0, 1.25, 1.0)]              # (x, z, u, v)
    yw = [(9 / 16, 31 / 16), (31 / 16, 9 / 16), (0.75, 1.0)]
    points = [dict(x=x, z=z, u=u, v=v, y=y, w=w)
              for (x, z, u, v), (y, w) in itertools.product(corners, yw)]
    rng = random.Random(19)
    while len(points) < count:
        point = {name: rng.randrange(9, 32, 2) / 16 for name in "xyzwuv"}
        if abs(point["x"] * point["v"] - point["z"] * point["u"]) >= 0.25:
            points.append(point)
    return points


def test_closed_forms_match_the_ladder_form_on_the_box():
    # the complex arguments (xv < zu) and the orders off the mpmath grid
    for point in _box_points():
        for t in (-0.3, -0.15, 0.0, 0.15, 0.3):
            want_p, want_q = reference_gen_values(point, t)
            for got, want in ((gen_p_value(point, t), want_p), (gen_q_value(point, t), want_q)):
                assert abs(got - want.real) <= 1e-12 * max(1.0, abs(want)), (point, t)


def test_each_closed_form_makes_four_cylinder_evaluations(monkeypatch):
    calls = []
    real = specialfn.pcf_d_derivs
    monkeypatch.setattr(specialfn, "pcf_d_derivs", lambda a, z: calls.append(a) or real(a, z))
    for closed_form in (gen_p_value, gen_q_value):
        calls.clear()
        closed_form(SAMPLE, 0.15)
        assert len(calls) == 4, closed_form.__name__


def test_a_nan_imaginary_part_does_not_pass(monkeypatch):
    with pytest.raises(ImaginaryResidualError):
        specialfn._require_real(complex(1.0, math.nan))
    real = specialfn.pcf_d_derivs
    monkeypatch.setattr(specialfn, "pcf_d_derivs",
                        lambda a, z: tuple(d + complex(0.0, math.nan) for d in real(a, z)))
    for closed_form in (gen_p_value, gen_q_value):
        with pytest.raises(ImaginaryResidualError):
            closed_form(SAMPLE, 0.15)


def test_gen_q_is_log_derivative_of_gen_p():
    # numeric GenQ agrees with the exact-series d/dt log GenP at a sample
    from fractions import Fraction as F
    g = builtin("G")
    point = {"x": F(5, 4), "y": F(3, 4), "z": F(3, 2), "w": F(1), "u": F(1, 2), "v": F(7, 4)}
    t = F(1, 10)
    gz = gen_coeffs(g, g.poly("z"), 26)
    num = sum(gz[n + 1].evaluate(point) * t ** n / math.factorial(n) for n in range(26))
    den = sum(gz[n].evaluate(point) * t ** n / math.factorial(n) for n in range(26))
    assert abs(gen_q_value(SAMPLE, float(t)) - float(num / den)) < 1e-9


# -- against mpmath: the accurate region, and the guard where the series cancels ------

MP_A = (-1, -0.5, 0, 0.5, 1, 1.5)
MP_Z = (-3.5, -2.25, -1.0, -0.3, 0.0, 0.4, 1.25, 2.5, 3.5)
MP_TOL = 1e-11  # the worst relative error on this grid is about 1e-12


def _rel_err(got: complex, want) -> float:
    want = complex(want)
    return abs(got - want) / abs(want) if want else abs(got)


@pytest.mark.parametrize("a", MP_A)
def test_pcf_d_and_its_derivatives_match_mpmath_for_small_z(a):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for z in MP_Z:
            # D' = z/2 D - D_{a+1} (DLMF 12.8.3) and Weber's equation D'' = (z^2/4 - a - 1/2) D
            d, z_mp = mpmath.pcfd(a, z), mpmath.mpf(z)
            want = [d, z_mp / 2 * d - mpmath.pcfd(a + 1, z), (z_mp ** 2 / 4 - a - 0.5) * d]
            assert _rel_err(pcf_d(a, z), want[0]) <= MP_TOL, z
            for k, got in enumerate(pcf_d_derivs(a, z)):
                assert _rel_err(got, want[k]) <= MP_TOL, (z, k)


def test_hyp1f1_matches_mpmath_on_the_pcf_arguments():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for a in MP_A:
            for z in MP_Z:
                for args in ((-a / 2, 0.5, z * z / 2), ((1 - a) / 2, 1.5, z * z / 2), (a, 1.5, z)):
                    assert _rel_err(hyp1f1(*args), mpmath.hyp1f1(*args)) <= MP_TOL, args


@pytest.mark.parametrize("a,z", [(-1, 8.0), (-0.5, 8.0)])
def test_pcf_d_known_drift_at_large_z(a, z):
    # the 1F1 pair of the defining formula drifts here to relative errors
    # of 0.75 (a = -1) and 2.7e-2 (a = -1/2); the series notices and raises
    with pytest.raises(ConvergenceError):
        pcf_d(a, z)
    with pytest.raises(ConvergenceError):
        pcf_d_derivs(a, z)


GUARD_Z = [k / 2 for k in range(-17, 18)]  # -8.5 .. 8.5


@pytest.mark.parametrize("a", MP_A)
def test_pcf_d_is_within_tolerance_or_raises(a):
    # the guard's promise: an error of at most TOLERANCE * max(1, |D_a|), or
    # ConvergenceError; the worst error on this grid is 0.3 of that bound
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for z in GUARD_Z:
            want = complex(mpmath.pcfd(a, z))
            try:
                got = pcf_d(a, z)
            except ConvergenceError:
                continue
            assert abs(got - want) <= TOLERANCE * max(1.0, abs(want)), z
