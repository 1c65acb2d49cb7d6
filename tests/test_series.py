"""Exact series arithmetic and the closed-form builders."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permgram.algebra import AlgebraError
from permgram.perms import specialized_poly
from permgram.series import (SamplingError, Series, exp_poly, hyp1f1_ct2,
                             rhs_barry_basset, rhs_carlitz_scoville, rhs_elizalde_noy,
                             rhs_fu, rhs_gessel, rhs_involutions, rhs_l, rhs_t,
                             rhs_ta_even, rhs_ta_odd, rhs_tbar, rhs_ttilde, trig_sqrt)


def geometric(order):
    return Series([F(1)] * (order + 1))


def exp_series(c, order):
    return exp_poly(c, 0, order)


# -- arithmetic ----------------------------------------------------------------


def test_mul_examples():
    one_plus = Series([1, 1, 0, 0])
    one_minus = Series([1, -1, 0, 0])
    assert one_plus * one_minus == Series([1, 0, -1, 0])
    assert exp_series(1, 8) * exp_series(-1, 8) == Series.one(8)


def test_div_examples():
    assert Series.one(6) / Series([1, -1, 0, 0, 0, 0, 0]) == geometric(6)
    assert Series([1, 0, -1, 0]) / Series([1, -1, 0, 0]) == Series([1, 1, 0, 0])
    assert Series.one(8) / exp_series(1, 8) == exp_series(-1, 8)
    assert (geometric(6) * Series([1, -1] + [0] * 5)) == Series.one(6)


def test_div_by_zero_constant_term():
    with pytest.raises(ZeroDivisionError):
        Series.one(3) / Series([0, 1, 0, 0])


def test_orders_truncate_to_min():
    a = Series([1, 2, 3, 4])
    b = Series([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_shared_prefix_equality():
    assert Series([1, 2, 3]) == Series([1, 2])
    assert Series([1, 2, 3]) != Series([1, 3])


def test_mul_t_and_integrate():
    assert Series.one(3).integrate() == Series([0, 1, 0, 0])
    assert geometric(4).integrate() == Series([0, 1, F(1, 2), F(1, 3), F(1, 4)])
    assert Series([1, 2, 3]).mul_t() == Series([0, 1, 2])
    assert Series([5]).mul_t() == Series([0])


def test_exp_poly():
    assert exp_poly(1, 0, 5) == Series([1, 1, F(1, 2), F(1, 6), F(1, 24), F(1, 120)])
    assert exp_poly(0, 0, 4) == Series.one(4)
    # exp(t + t^2) coefficient check against direct expansion
    direct = Series.one(6)
    base = Series([0, 1, 1, 0, 0, 0, 0])
    term = Series.one(6)
    for k in range(1, 7):
        term = term * base / k
        direct = direct + term
    assert exp_poly(1, 1, 6) == direct


def test_a_float_parameter_is_refused():
    # 0.1 is not the rational 1/10, so no builder takes it as a coefficient
    with pytest.raises(AlgebraError):
        exp_poly(0.1, 0, 3)
    with pytest.raises(AlgebraError):
        Series([1, 0.5])
    with pytest.raises(AlgebraError):
        Series.one(3) * 0.5


def test_exp_poly_inverse_pair():
    assert exp_poly(F(2, 3), F(-1, 2), 9) * exp_poly(F(-2, 3), F(1, 2), 9) == Series.one(9)


def test_hyp1f1_ct2():
    assert hyp1f1_ct2(1, 1, F(1, 3), 8) == exp_poly(0, F(1, 3), 8)
    assert hyp1f1_ct2(F(1, 2), F(3, 2), 0, 6) == Series.one(6)
    with pytest.raises(SamplingError):
        hyp1f1_ct2(1, 0, 1, 4)
    with pytest.raises(SamplingError):
        hyp1f1_ct2(1, -1, 1, 6)


def test_hyp1f1_erf_style_integral():
    # t*1F1(1; 3/2; -t^2) equals exp(-t^2) * integral of exp(s^2)
    order = 12
    lhs = hyp1f1_ct2(1, F(3, 2), -1, order).mul_t()
    rhs = exp_poly(0, -1, order) * exp_poly(0, 1, order).integrate()
    assert lhs == rhs


def test_trig_sqrt():
    even, odd = trig_sqrt(1, 6)
    assert even == Series([1, 0, F(1, 2), 0, F(1, 24), 0, F(1, 720)])
    assert odd == Series([0, 1, 0, F(1, 6), 0, F(1, 120), 0])
    even0, odd0 = trig_sqrt(0, 4)
    assert even0 == Series.one(4)
    assert odd0 == Series([0, 1, 0, 0, 0])
    # q < 0 gives the circular pair: E(-1) = cos t
    even_neg, _ = trig_sqrt(-1, 6)
    assert even_neg == Series([1, 0, F(-1, 2), 0, F(1, 24), 0, F(-1, 720)])


def test_mul_div_roundtrip():
    samples = [Series([1, F(1, 2), -2, 0, F(3, 7), 1]),
               Series([F(2, 3), 0, 1, -1, F(5, 2), F(-1, 6)]),
               exp_poly(F(1, 3), F(-1, 2), 5)]
    for a in samples:
        for b in samples:
            assert (a * b) / b == a


# -- the common-denominator loops against Fraction-only definitions ------------


def reference_mul(a: list, b: list) -> list:
    """c_n = sum_k a_k b_(n-k), one Fraction operation per term."""
    shared = min(len(a), len(b))
    return [sum((F(a[k]) * F(b[n - k]) for k in range(n + 1)), F(0)) for n in range(shared)]


def reference_div(a: list, b: list) -> list:
    """q_n = (a_n - sum_(k<n) q_k b_(n-k)) / b_0, one Fraction operation per term."""
    if b[0] == 0:
        raise ZeroDivisionError("zero constant term")
    out: list = []
    for n in range(min(len(a), len(b))):
        acc = F(a[n])
        for k in range(n):
            acc -= out[k] * F(b[n - k])
        out.append(acc / F(b[0]))
    return out


COEFFS = st.one_of(st.integers(min_value=-9, max_value=9),
                   st.fractions(min_value=-7, max_value=7, max_denominator=12))
COEFF_LISTS = st.lists(COEFFS, min_size=1, max_size=9)


@settings(max_examples=100, deadline=None)
@given(COEFF_LISTS, COEFF_LISTS)
@example([F(3, 4), F(-1, 6), 2], [F(-5, 7), F(2, 9), 0, F(1, 10)])  # unequal orders
@example([1, F(1, 2), F(1, 3)], [-3, 1, F(1, 5)])  # negative integral b0
@example([0, 0, 1], [F(-2, 3), 0, 0, F(7, 8)])  # fractional b0, zero head in a
@example([F(5, 4), 1], [0, 1, 2])  # zero constant term
def test_mul_and_div_match_the_fraction_definitions(a, b):
    sa, sb = Series(a), Series(b)
    for got, want in ((sa * sb, reference_mul(a, b)), (sb * sa, reference_mul(a, b))):
        assert list(got.coeffs) == want
        assert all(type(c) is F for c in got.coeffs)
    try:
        want = reference_div(a, b)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            sa / sb
        return
    got = sa / sb
    assert list(got.coeffs) == want
    assert all(type(c) is F for c in got.coeffs)


def test_kummer_series_level():
    for a, b, c in ((F(1, 3), F(5, 2), F(2)), (F(-1, 2), F(1, 2), F(3, 2))):
        lhs = hyp1f1_ct2(a, b, c, 12)
        rhs = exp_poly(0, c, 12) * hyp1f1_ct2(b - a, b, -c, 12)
        assert lhs == rhs


def test_contiguous_series_level():
    a, b, c = F(1, 3), F(5, 2), F(-2)
    lhs = (1 + a - b) * hyp1f1_ct2(a, b, c, 12)
    rhs = a * hyp1f1_ct2(a + 1, b, c, 12) + (1 - b) * hyp1f1_ct2(a, b - 1, c, 12)
    assert lhs == rhs


# -- builders against small frozen values ------------------------------------------


def test_involutions_series():
    inv = rhs_involutions(8)
    assert [inv[n] * math.factorial(n) for n in range(9)] == [1, 1, 2, 4, 10, 26, 76, 232, 764]


def test_gessel_at_degenerate_free_points():
    # x = 1 collapses the closed form to 1/(1-t): n! permutations in total
    assert rhs_gessel(1, 7) == geometric(7)
    series = rhs_gessel(0, 7)
    counts = [series[n] * math.factorial(n) for n in range(8)]
    assert counts == [1, 1, 1, 1, 1, 1, 1, 1]  # exterior-peak-free permutations


def test_l_at_one_is_geometric():
    assert rhs_l(1, 7) == geometric(7)


def test_elizalde_noy_rejects_degenerate_roots():
    for bad in (0, 1, -1):
        with pytest.raises(SamplingError):
            rhs_elizalde_noy(bad, 5)


def test_root_builders_reject_equal_roots():
    with pytest.raises(SamplingError):
        rhs_fu(2, 2, 1, 5)
    with pytest.raises(SamplingError):
        rhs_carlitz_scoville(F(1, 2), F(1, 2), 1, 5)


def test_t_builders_reject_x_equal_y():
    with pytest.raises(SamplingError):
        rhs_t(1, 1, 5)
    with pytest.raises(SamplingError):
        rhs_ta_even(F(2, 3), F(2, 3), 5)
    with pytest.raises(SamplingError):
        rhs_ta_odd(F(2, 3), F(2, 3), 5)


def test_carlitz_scoville_starts_at_t():
    _, series = rhs_carlitz_scoville(1, 2, F(1, 2), 6)
    assert series[0] == 0


def test_barry_basset_counts():
    series = rhs_barry_basset(7)
    counts = [series[n] * math.factorial(n) for n in range(8)]
    assert counts == [1, 1, 2, 5, 17, 70, 349, 2017]


def test_rendering():
    assert str(Series([1, F(1, 2)])) == "0: 1\n1: 1/2"


# -- spot checks against the enumeration oracle (full grids live in the checks) ----


def test_t_builder_against_oracle_spot():
    x, y = F(3), F(5)
    rhs = rhs_t(x, y, 6)
    for n in range(7):
        expected = specialized_poly(n, "T").evaluate({"x": x, "y": y}) / math.factorial(n)
        assert rhs[n] == expected


def test_ta_parity_builders_spot():
    x, y = F(2), F(3)
    even = rhs_ta_even(x, y, 6)
    odd = rhs_ta_odd(x, y, 6)
    for n in range(7):
        expected = specialized_poly(n, "TA").evaluate({"x": x, "y": y}) / math.factorial(n)
        if n % 2 == 0:
            assert even[n] == expected and odd[n] == 0
        else:
            assert odd[n] == expected and even[n] == 0
    assert odd[1] == 1  # the one-element permutation is alternating


def test_tbar_ttilde_spot():
    for x in (F(0), F(2)):
        rhs = rhs_tbar(x, 6)
        for n in range(7):
            expected = specialized_poly(n, "Tbar").evaluate({"x": x}) / math.factorial(n)
            assert rhs[n] == expected
        rhs = rhs_ttilde(x, 6)
        for n in range(7):
            expected = specialized_poly(n, "Ttilde").evaluate({"y": x}) / math.factorial(n)
            assert rhs[n] == expected
