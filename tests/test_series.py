"""Exact series arithmetic and the closed-form builders."""

from __future__ import annotations

import math
from fractions import Fraction
from fractions import Fraction as F
from operator import attrgetter, mul
from typing import Collection, Iterable, Union

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permgram.algebra import AlgebraError, Scalar, _as_fraction
from permgram.checks import ROOT_PAIRS, en_roots, x_grid, y_grid
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
        assert_canonical(got)
    try:
        want = reference_div(a, b)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            sa / sb
        return
    got = sa / sb
    assert list(got.coeffs) == want
    assert all(type(c) is F for c in got.coeffs)
    assert_canonical(got)


# -- the int series against the Fraction series it replaced ---------------------
#
# ReferenceSeries and the reference_* builders are the Fraction-coefficient
# implementation the int numerators replaced, kept verbatim apart from the
# names: every coefficient is a Fraction and every step one Fraction operation.

_reference_denominator = attrgetter("denominator")
_reference_numerator = attrgetter("numerator")


def _reference_scaled(coeffs: Collection[Fraction]) -> tuple[int, list[int]]:
    """``(d, integers)``: d is the lcm of the coefficients' denominators and
    the integers are the coefficients times d, in order."""
    d = math.lcm(*map(_reference_denominator, coeffs))
    return d, (list(map(_reference_numerator, coeffs)) if d == 1
               else [c.numerator * (d // c.denominator) for c in coeffs])


class ReferenceSeries:
    """Coefficients c_0..c_order of a truncated series in t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        self.coeffs = tuple(_as_fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def const(cls, value: Scalar, order: int) -> "ReferenceSeries":
        return cls([_as_fraction(value)] + [Fraction(0)] * order)

    @classmethod
    def one(cls, order: int) -> "ReferenceSeries":
        return cls.const(1, order)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        # Shared-prefix equality: operands of different orders agree when
        # their common coefficients do.
        if not isinstance(other, ReferenceSeries):
            return NotImplemented
        shared = min(self.order, other.order)
        return self.coeffs[: shared + 1] == other.coeffs[: shared + 1]

    __hash__ = None

    def __add__(self, other: Union["ReferenceSeries", Scalar]) -> "ReferenceSeries":
        if not isinstance(other, ReferenceSeries):
            other = ReferenceSeries.const(other, self.order)
        shared = min(self.order, other.order)
        return ReferenceSeries([self.coeffs[n] + other.coeffs[n] for n in range(shared + 1)])

    __radd__ = __add__

    def __neg__(self) -> "ReferenceSeries":
        return ReferenceSeries([-c for c in self.coeffs])

    def __sub__(self, other: Union["ReferenceSeries", Scalar]) -> "ReferenceSeries":
        if not isinstance(other, ReferenceSeries):
            other = ReferenceSeries.const(other, self.order)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "ReferenceSeries":
        return (-self) + other

    def __mul__(self, other: Union["ReferenceSeries", Scalar]) -> "ReferenceSeries":
        if not isinstance(other, ReferenceSeries):
            c = _as_fraction(other)
            return ReferenceSeries([coeff * c for coeff in self.coeffs])
        shared = min(self.order, other.order)
        d, nums = _reference_scaled(self.coeffs[: shared + 1] + other.coeffs[: shared + 1])
        a, b = nums[: shared + 1], nums[shared + 1:]
        dd = d * d
        return ReferenceSeries([Fraction(sum(map(mul, a[: n + 1], reversed(b[: n + 1]))), dd)
                       for n in range(shared + 1)])

    __rmul__ = __mul__

    def __truediv__(self, other: Union["ReferenceSeries", Scalar]) -> "ReferenceSeries":
        if not isinstance(other, ReferenceSeries):
            c = _as_fraction(other)
            return ReferenceSeries([coeff / c for coeff in self.coeffs])
        if other.coeffs[0] == 0:
            raise ZeroDivisionError("series divisor has zero constant term")
        # Fraction-free (Bareiss 1968): over one denominator the quotient is
        # a/b, and Q[n] = q[n] b0^(n+1) = a[n] b0^n - sum_k Q[k] b[n-k] b0^(n-1-k)
        # stays integral, so each q[n] is divided once
        shared = min(self.order, other.order)
        _, nums = _reference_scaled(self.coeffs[: shared + 1] + other.coeffs[: shared + 1])
        a, b = nums[: shared + 1], nums[shared + 1:]
        powers = [b[0] ** k for k in range(shared + 2)]
        scaled: list[int] = []  # Q[n]
        for n in range(shared + 1):
            scaled.append(a[n] * powers[n]
                          - sum(scaled[k] * b[n - k] * powers[n - 1 - k] for k in range(n)))
        return ReferenceSeries([Fraction(num, powers[n + 1]) for n, num in enumerate(scaled)])

    def __rtruediv__(self, other: Scalar) -> "ReferenceSeries":
        return ReferenceSeries.const(other, self.order) / self

    def mul_t(self) -> "ReferenceSeries":
        """Multiply by t, keeping the truncation order (top coefficient drops)."""
        if self.order == 0:
            return ReferenceSeries([Fraction(0)])
        return ReferenceSeries((Fraction(0),) + self.coeffs[:-1])

    def integrate(self) -> "ReferenceSeries":
        """Term-wise antiderivative with zero constant term, same order."""
        out = [Fraction(0)]
        for n in range(self.order):
            out.append(self.coeffs[n] / (n + 1))
        return ReferenceSeries(out)

    def __str__(self) -> str:
        return "\n".join(f"{n}: {c}" for n, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"<ReferenceSeries order={self.order} [{', '.join(str(c) for c in self.coeffs[:5])}...]>"


# -- elementary builders -----------------------------------------------------


def reference_exp_poly(c1: Scalar, c2: Scalar, order: int) -> ReferenceSeries:
    """Series of exp(c1*t + c2*t^2), via f' = (c1 + 2 c2 t) f."""
    c1, c2 = _as_fraction(c1), _as_fraction(c2)
    coeffs = [Fraction(1)]
    for n in range(order):
        nxt = c1 * coeffs[n]
        if n >= 1:
            nxt += 2 * c2 * coeffs[n - 1]
        coeffs.append(nxt / (n + 1))
    return ReferenceSeries(coeffs)


def reference_hyp1f1_ct2(a: Scalar, b: Scalar, c: Scalar, order: int) -> ReferenceSeries:
    """Confluent hypergeometric 1F1(a; b; c*t^2) as an exact series:
    coefficient of t^{2n} is (a)_n c^n / ((b)_n n!), odd coefficients zero."""
    a, b, c = _as_fraction(a), _as_fraction(b), _as_fraction(c)
    coeffs = [Fraction(0)] * (order + 1)
    term = Fraction(1)
    coeffs[0] = term
    for n in range(order // 2):
        if b + n == 0:
            raise SamplingError(f"1F1 parameter b={b} hits a pole at term {n + 1}")
        term = term * (a + n) * c / ((b + n) * (n + 1))
        coeffs[2 * (n + 1)] = term
    return ReferenceSeries(coeffs)


def reference_trig_sqrt(q: Scalar, order: int) -> tuple[ReferenceSeries, ReferenceSeries]:
    """Even/odd hyperbolic pair for the square-root-free parametrization:
    even = sum q^n t^{2n}/(2n)! and odd = sum q^n t^{2n+1}/(2n+1)!.

    For q > 0 these are cosh(sqrt(q) t) and sinh(sqrt(q) t)/sqrt(q); for
    q < 0 they are cos and sin of sqrt(-q) t (scaled); both stay rational.
    """
    q = _as_fraction(q)
    even = [Fraction(0)] * (order + 1)
    odd = [Fraction(0)] * (order + 1)
    power = Fraction(1)
    for n in range(order // 2 + 1):
        if 2 * n <= order:
            even[2 * n] = power / math.factorial(2 * n)
        if 2 * n + 1 <= order:
            odd[2 * n + 1] = power / math.factorial(2 * n + 1)
        power *= q
    return ReferenceSeries(even), ReferenceSeries(odd)


# -- theorem right-hand sides --------------------------------------------------


def reference_rhs_gessel(x: Scalar, order: int) -> ReferenceSeries:
    """Exterior peaks: 1/(E(1-x) - O(1-x)) with the even/odd pair above."""
    even, odd = reference_trig_sqrt(1 - _as_fraction(x), order)
    return ReferenceSeries.one(order) / (even - odd)


def reference_rhs_elizalde_noy(a: Scalar, order: int) -> tuple[dict[str, Fraction], ReferenceSeries]:
    """Proper double descents, sampled through y = a + 1/a - 1 so that
    sqrt((y-1)(y+3)) = |a - 1/a| is rational.  Returns the evaluation
    point {y} and the series."""
    a = _as_fraction(a)
    if a in (0, 1, -1):
        raise SamplingError("root parameter a must avoid 0 and +-1")
    y = a + 1 / a - 1
    s = a - 1 / a
    numerator = 2 * s * reference_exp_poly((1 - y + s) / 2, 0, order)
    denominator = (1 + y + s) - (1 + y - s) * reference_exp_poly(s, 0, order)
    return {"y": y}, numerator / denominator


def reference_rhs_barry_basset(order: int) -> ReferenceSeries:
    """Permutations with no proper double descent:
    exp(t/2) / (E(-3/4) - O(-3/4)/2)."""
    even, odd = reference_trig_sqrt(Fraction(-3, 4), order)
    return reference_exp_poly(Fraction(1, 2), 0, order) / (even - odd / 2)


def reference_rhs_fu(a: Scalar, b: Scalar, y: Scalar, order: int) -> tuple[dict[str, Fraction], ReferenceSeries]:
    """Exterior peaks and proper double descents, four variables, sampled
    with xz = ab and y + w = a + b so sqrt((y+w)^2 - 4xz) = |a-b|.
    Returns the evaluation point {x, y, z, w} and the series."""
    a, b, y = _as_fraction(a), _as_fraction(b), _as_fraction(y)
    if a == b:
        raise SamplingError("root parameters must be distinct")
    d = a - b
    w = a + b - y
    point = {"x": a * b, "y": y, "z": Fraction(1), "w": w}
    numerator = 2 * point["z"] * d * reference_exp_poly((w - y + d) / 2, 0, order)
    denominator = (y + w + d) - (y + w - d) * reference_exp_poly(d, 0, order)
    return point, numerator / denominator


def reference_rhs_carlitz_scoville(a: Scalar, b: Scalar, y: Scalar, order: int) -> tuple[dict[str, Fraction], ReferenceSeries]:
    """Peaks/valleys/double descents/double rises with roots alpha=a,
    beta=b: (e^{bt} - e^{at}) / (b e^{at} - a e^{bt}), xz = ab, y + w = a + b."""
    a, b, y = _as_fraction(a), _as_fraction(b), _as_fraction(y)
    if a == b:
        raise SamplingError("root parameters must be distinct")
    w = a + b - y
    point = {"x": a * b, "y": y, "z": Fraction(1), "w": w}
    numerator = reference_exp_poly(b, 0, order) - reference_exp_poly(a, 0, order)
    denominator = b * reference_exp_poly(a, 0, order) - a * reference_exp_poly(b, 0, order)
    return point, numerator / denominator


def reference_rhs_l(x: Scalar, order: int) -> ReferenceSeries:
    """Total count of consecutive 231 and 321 patterns.  The integral from
    t+1 to 1 in the closed form, shifted by s = 1 + u, cancels the
    prefactor and leaves E/(1 - x * integral(E)) with
    E = exp((1-x)(t + t^2/2)), which is rational term by term."""
    x = _as_fraction(x)
    e = reference_exp_poly(1 - x, (1 - x) / 2, order)
    return e / (ReferenceSeries.one(order) - x * e.integrate())


def reference_rhs_t(x: Scalar, y: Scalar, order: int) -> ReferenceSeries:
    """Joint exterior-peak patterns:
    e^{(x-y)t^2/2} / (1F1(a; 1/2; c t^2) - t * 1F1(a + 1/2; 3/2; c t^2))
    with a = (1-y)/(2(x-y)) and c = (x-y)/2."""
    x, y = _as_fraction(x), _as_fraction(y)
    if x == y:
        raise SamplingError("x = y is degenerate here; use the single-variable form")
    a = (1 - y) / (2 * (x - y))
    c = (x - y) / 2
    denominator = reference_hyp1f1_ct2(a, Fraction(1, 2), c, order) \
        - reference_hyp1f1_ct2(a + Fraction(1, 2), Fraction(3, 2), c, order).mul_t()
    return reference_exp_poly(0, c, order) / denominator


def reference_rhs_tbar(x: Scalar, order: int) -> ReferenceSeries:
    """Exterior 132-peaks alone: e^{(x-1)t^2/2}/(1 - int_0^t e^{(x-1)s^2/2} ds)."""
    x = _as_fraction(x)
    e = reference_exp_poly(0, (x - 1) / 2, order)
    return e / (ReferenceSeries.one(order) - e.integrate())


def reference_rhs_ttilde(y: Scalar, order: int) -> ReferenceSeries:
    """Exterior 231-peaks alone: 1/(1 - int_0^t e^{(y-1)s^2/2} ds)."""
    y = _as_fraction(y)
    return ReferenceSeries.one(order) / (ReferenceSeries.one(order) - reference_exp_poly(0, (y - 1) / 2, order).integrate())


def reference_rhs_ta_even(x: Scalar, y: Scalar, order: int) -> ReferenceSeries:
    """Alternating permutations of even length:
    e^{(x-y)t^2/2} / 1F1(-y/(2(x-y)); 1/2; (x-y)t^2/2)."""
    x, y = _as_fraction(x), _as_fraction(y)
    if x == y:
        raise SamplingError("x = y is degenerate in the alternating builder")
    c = (x - y) / 2
    return reference_exp_poly(0, c, order) / reference_hyp1f1_ct2(-y / (2 * (x - y)), Fraction(1, 2), c, order)


def reference_rhs_ta_odd(x: Scalar, y: Scalar, order: int) -> ReferenceSeries:
    """Alternating permutations of odd length:
    t e^{(x-y)t^2/2} 1F1(x/(2(x-y)); 3/2; -(x-y)t^2/2)
      / 1F1(-y/(2(x-y)); 1/2; (x-y)t^2/2)."""
    x, y = _as_fraction(x), _as_fraction(y)
    if x == y:
        raise SamplingError("x = y is degenerate in the alternating builder")
    c = (x - y) / 2
    numerator = (reference_exp_poly(0, c, order)
                 * reference_hyp1f1_ct2(x / (2 * (x - y)), Fraction(3, 2), -c, order)).mul_t()
    return numerator / reference_hyp1f1_ct2(-y / (2 * (x - y)), Fraction(1, 2), c, order)


def reference_rhs_involutions(order: int) -> ReferenceSeries:
    """exp(t + t^2/2): involution counts as n! times the coefficients."""
    return reference_exp_poly(1, Fraction(1, 2), order)


def assert_canonical(s: Series) -> None:
    """Int numerators over one positive int denominator, in lowest terms."""
    assert type(s.den) is int and s.den > 0
    assert type(s.nums) is list and all(type(num) is int for num in s.nums)
    assert math.gcd(s.den, *s.nums) == 1
    assert s.coeffs == tuple(F(num, s.den) for num in s.nums)


def assert_same(got: Series, want: ReferenceSeries) -> None:
    assert_canonical(got)
    assert got.coeffs == want.coeffs
    assert all(type(c) is F for c in got.coeffs)


@settings(max_examples=150, deadline=None)
@given(COEFF_LISTS, COEFF_LISTS, COEFFS, st.integers(min_value=0, max_value=8))
@example([F(3, 4), F(-1, 6), 2], [F(-5, 7), F(2, 9), 0, F(1, 10)], 0, 0)  # a zero scalar
@example([F(1, 2), F(1, 3)], [F(1, 2), F(1, 3), 5], F(-2, 3), 2)  # equal shared prefixes
@example([2, 4, 6], [F(-1, 2), 0], -2, 1)  # common factors in the numerators
def test_every_operation_matches_the_fraction_series(a, b, c, order):
    sa, sb, ra, rb = Series(a), Series(b), ReferenceSeries(a), ReferenceSeries(b)
    assert_same(sa, ra)
    assert_same(Series.const(c, order), ReferenceSeries.const(c, order))
    assert_same(Series.one(order), ReferenceSeries.one(order))
    pairs = [(sa + sb, ra + rb), (sa - sb, ra - rb), (-sa, -ra), (sa * sb, ra * rb),
             (sa + c, ra + c), (c + sa, c + ra), (sa - c, ra - c), (c - sa, c - ra),
             (sa * c, ra * c), (c * sa, c * ra), (sa.mul_t(), ra.mul_t()),
             (sa.integrate(), ra.integrate())]
    if c:
        pairs.append((sa / c, ra / c))
    else:
        with pytest.raises(ZeroDivisionError):
            sa / c
    if rb[0]:
        pairs += [(sa / sb, ra / rb), (c / sb, c / rb)]
    else:
        with pytest.raises(ZeroDivisionError):
            sa / sb
    for got, want in pairs:
        assert_same(got, want)
    for other in (b, a + b, a[:1] + [a[0] + 1]):
        assert (sa == Series(other)) is (ra == ReferenceSeries(other))
        assert (Series(other) == sa) is (ReferenceSeries(other) == ra)
    assert sa == Series(a + b)


@settings(max_examples=150, deadline=None)
@given(COEFFS, COEFFS, COEFFS, st.integers(min_value=0, max_value=16))
@example(1, -1, 1, 6)  # a pole of 1F1 within the order
@example(1, -3, 1, 6)  # a pole beyond it
def test_the_builders_match_the_fraction_builders(p, q, r, order):
    assert_same(exp_poly(p, q, order), reference_exp_poly(p, q, order))
    for got, want in zip(trig_sqrt(p, order), reference_trig_sqrt(p, order)):
        assert_same(got, want)
    try:
        want = reference_hyp1f1_ct2(p, q, r, order)
    except SamplingError as error:
        with pytest.raises(SamplingError) as raised:
            hyp1f1_ct2(p, q, r, order)
        assert str(raised.value) == str(error)
    else:
        assert_same(hyp1f1_ct2(p, q, r, order), want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(x_grid(14)), st.sampled_from(y_grid(14)),
       st.sampled_from(en_roots(14)), st.sampled_from(ROOT_PAIRS),
       st.integers(min_value=0, max_value=14))
def test_the_right_hand_sides_match_the_fraction_builders_on_the_grids(x, y, root, pair, order):
    # the sample points of the registry's exact-sampled rows, at orders up to 14
    for got, want in ((rhs_gessel(x, order), reference_rhs_gessel(x, order)),
                      (rhs_barry_basset(order), reference_rhs_barry_basset(order)),
                      (rhs_l(x, order), reference_rhs_l(x, order)),
                      (rhs_t(x, y, order), reference_rhs_t(x, y, order)),
                      (rhs_tbar(x, order), reference_rhs_tbar(x, order)),
                      (rhs_ttilde(x, order), reference_rhs_ttilde(x, order)),
                      (rhs_ta_even(x, y, order), reference_rhs_ta_even(x, y, order)),
                      (rhs_ta_odd(x, y, order), reference_rhs_ta_odd(x, y, order)),
                      (rhs_involutions(order), reference_rhs_involutions(order))):
        assert_same(got, want)
    for got, want in ((rhs_elizalde_noy(root, order), reference_rhs_elizalde_noy(root, order)),
                      (rhs_fu(*pair, y, order), reference_rhs_fu(*pair, y, order)),
                      (rhs_carlitz_scoville(*pair, y, order),
                       reference_rhs_carlitz_scoville(*pair, y, order))):
        assert got[0] == want[0]
        assert_same(got[1], want[1])


def test_the_t_builders_build_no_fraction_until_read(monkeypatch):
    # count every Fraction built, arithmetic included; the parameters are
    # built before counting starts
    x, y = F(5, 2), F(-2, 3)
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
    t, odd = rhs_t(x, y, 14), rhs_ta_odd(x, y, 14)
    assert built == []
    assert odd[1] == 1 and t[0] == 1 and len(built) == 2 * 15  # read: one per coefficient
    monkeypatch.undo()
    assert_same(t, reference_rhs_t(x, y, 14))
    assert_same(odd, reference_rhs_ta_odd(x, y, 14))


NEGATIVE_ORDER = {
    "exp_poly": lambda: exp_poly(1, 0, -1),
    "hyp1f1_ct2": lambda: hyp1f1_ct2(1, 1, 1, -1),
    "trig_sqrt": lambda: trig_sqrt(1, -1),
    "Series.const": lambda: Series.const(F(2, 3), -1),
    "Series.one": lambda: Series.one(-2),
    "rhs_gessel": lambda: rhs_gessel(2, -1),
    "rhs_elizalde_noy": lambda: rhs_elizalde_noy(2, -1),
    "rhs_barry_basset": lambda: rhs_barry_basset(-1),
    "rhs_fu": lambda: rhs_fu(1, 2, F(1, 3), -1),
    "rhs_carlitz_scoville": lambda: rhs_carlitz_scoville(1, 2, F(1, 3), -1),
    "rhs_l": lambda: rhs_l(2, -1),
    "rhs_t": lambda: rhs_t(2, 1, -3),
    "rhs_tbar": lambda: rhs_tbar(2, -1),
    "rhs_ttilde": lambda: rhs_ttilde(2, -1),
    "rhs_ta_even": lambda: rhs_ta_even(2, 1, -1),
    "rhs_ta_odd": lambda: rhs_ta_odd(2, 1, -1),
    "rhs_involutions": lambda: rhs_involutions(-5),
}


@pytest.mark.parametrize("name", list(NEGATIVE_ORDER))
def test_a_negative_order_is_an_error(name):
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        NEGATIVE_ORDER[name]()


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
