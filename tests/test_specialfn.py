"""Floating-point special functions and the numeric closed forms."""

from __future__ import annotations

import cmath
import math

import pytest

from permgram.grammar import builtin, gen_coeffs
from permgram.specialfn import (ConvergenceError, EvalContext, GammaPoleError,
                                gamma, gen_p_value, gen_q_value, hyp1f1, pcf_d,
                                pcf_d_derivs, rgamma)


def test_gamma_and_rgamma():
    assert gamma(1) == 1.0
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(gamma(5) - 24.0) < 1e-10
    assert rgamma(0) == 0.0
    assert rgamma(-3) == 0.0
    assert abs(rgamma(0.5) - 1 / math.sqrt(math.pi)) < 1e-14
    with pytest.raises(GammaPoleError):
        gamma(0)
    with pytest.raises(GammaPoleError):
        gamma(-2)


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


def test_hyp1f1_guards():
    with pytest.raises(ValueError):
        hyp1f1(1, 0, 0.5)
    with pytest.raises(ValueError):
        hyp1f1(1, -2, 0.5)
    with pytest.raises(ConvergenceError):
        hyp1f1(1, 1.5, 100.0)


def test_eval_context_validation():
    with pytest.raises(ValueError):
        EvalContext(tolerance=0)


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
            assert abs(d0 - pcf_d(a, z)) < 1e-13
            assert abs(d1 - (z / 2 * d0 - pcf_d(a + 1, z))) < 1e-10
            assert abs(d1 - (a * pcf_d(a - 1, z) - z / 2 * d0)) < 1e-10
            assert abs(d2 - (z * z / 4 - a - 0.5) * d0) < 1e-10


def test_pcf_imaginary_argument():
    # at a pure imaginary argument the function splits into a real even part
    # and an imaginary odd part; check against the defining formula directly
    a, xi = 0.7, 1.1
    value = pcf_d(a, complex(0, xi))
    pref = 2 ** (a / 2) * math.sqrt(math.pi) * cmath.exp(xi * xi / 4)
    term1 = rgamma((1 - a) / 2) * hyp1f1(-a / 2, 0.5, -xi * xi / 2)
    term2 = math.sqrt(2) * complex(0, xi) * rgamma(-a / 2) * hyp1f1((1 - a) / 2, 1.5, -xi * xi / 2)
    assert abs(value - pref * (term1 - term2)) < 1e-12


SAMPLE = {"x": 1.25, "y": 0.75, "z": 1.5, "w": 1.0, "u": 0.5, "v": 1.75}  # xv - zu = 1.4375


def test_gen_values_at_zero_are_the_seeds():
    assert abs(gen_p_value(SAMPLE, 0.0) - SAMPLE["z"]) < 1e-12
    assert abs(gen_q_value(SAMPLE, 0.0) - SAMPLE["w"]) < 1e-12


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
