"""Truncated univariate power series in t with exact rational coefficients.

A series is a plain coefficient list (index n holds the coefficient of
t^n); arithmetic truncates to the shorter operand, and equality compares
the shared prefix.  The closed-form builders at the bottom produce the
right-hand sides of the generating-function identities at exact rational
parameter samples, so every comparison against an enumeration oracle is a
comparison of Fractions.

Products and quotients of two series run in ints over one common
denominator, the lcm of both operands' denominators: a product is a Cauchy
sum of ints, and a quotient follows the fraction-free recurrence of Bareiss
(Math. Comp. 22, 1968).  Each result coefficient is divided once.

Square roots never appear: surd-bearing closed forms are sampled through a
root parametrization chosen so the surd is rational (see the individual
builders), and cosh/sinh/cos/sin pairs are built as the even/odd series
E(q) = sum q^n t^{2n}/(2n)!, O(q) = sum q^n t^{2n+1}/(2n+1)!.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, mul
from typing import Collection, Iterable, Union

from .algebra import Scalar, _as_fraction

_denominator = attrgetter("denominator")
_numerator = attrgetter("numerator")


def _scaled(coeffs: Collection[Fraction]) -> tuple[int, list[int]]:
    """``(d, integers)``: d is the lcm of the coefficients' denominators and
    the integers are the coefficients times d, in order."""
    d = math.lcm(*map(_denominator, coeffs))
    return d, (list(map(_numerator, coeffs)) if d == 1
               else [c.numerator * (d // c.denominator) for c in coeffs])


class SamplingError(ValueError):
    """Degenerate parameter sample for a closed-form builder."""


class Series:
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
    def const(cls, value: Scalar, order: int) -> "Series":
        return cls([_as_fraction(value)] + [Fraction(0)] * order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.const(1, order)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        # Shared-prefix equality: operands of different orders agree when
        # their common coefficients do.
        if not isinstance(other, Series):
            return NotImplemented
        shared = min(self.order, other.order)
        return self.coeffs[: shared + 1] == other.coeffs[: shared + 1]

    __hash__ = None

    def __add__(self, other: Union["Series", Scalar]) -> "Series":
        if not isinstance(other, Series):
            other = Series.const(other, self.order)
        shared = min(self.order, other.order)
        return Series([self.coeffs[n] + other.coeffs[n] for n in range(shared + 1)])

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def __sub__(self, other: Union["Series", Scalar]) -> "Series":
        if not isinstance(other, Series):
            other = Series.const(other, self.order)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Series":
        return (-self) + other

    def __mul__(self, other: Union["Series", Scalar]) -> "Series":
        if not isinstance(other, Series):
            c = _as_fraction(other)
            return Series([coeff * c for coeff in self.coeffs])
        shared = min(self.order, other.order)
        d, nums = _scaled(self.coeffs[: shared + 1] + other.coeffs[: shared + 1])
        a, b = nums[: shared + 1], nums[shared + 1:]
        dd = d * d
        return Series([Fraction(sum(map(mul, a[: n + 1], reversed(b[: n + 1]))), dd)
                       for n in range(shared + 1)])

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Series", Scalar]) -> "Series":
        if not isinstance(other, Series):
            c = _as_fraction(other)
            return Series([coeff / c for coeff in self.coeffs])
        if other.coeffs[0] == 0:
            raise ZeroDivisionError("series divisor has zero constant term")
        # Fraction-free (Bareiss 1968): over one denominator the quotient is
        # a/b, and Q[n] = q[n] b0^(n+1) = a[n] b0^n - sum_k Q[k] b[n-k] b0^(n-1-k)
        # stays integral, so each q[n] is divided once
        shared = min(self.order, other.order)
        _, nums = _scaled(self.coeffs[: shared + 1] + other.coeffs[: shared + 1])
        a, b = nums[: shared + 1], nums[shared + 1:]
        powers = [b[0] ** k for k in range(shared + 2)]
        scaled: list[int] = []  # Q[n]
        for n in range(shared + 1):
            scaled.append(a[n] * powers[n]
                          - sum(scaled[k] * b[n - k] * powers[n - 1 - k] for k in range(n)))
        return Series([Fraction(num, powers[n + 1]) for n, num in enumerate(scaled)])

    def __rtruediv__(self, other: Scalar) -> "Series":
        return Series.const(other, self.order) / self

    def mul_t(self) -> "Series":
        """Multiply by t, keeping the truncation order (top coefficient drops)."""
        if self.order == 0:
            return Series([Fraction(0)])
        return Series((Fraction(0),) + self.coeffs[:-1])

    def integrate(self) -> "Series":
        """Term-wise antiderivative with zero constant term, same order."""
        out = [Fraction(0)]
        for n in range(self.order):
            out.append(self.coeffs[n] / (n + 1))
        return Series(out)

    def __str__(self) -> str:
        return "\n".join(f"{n}: {c}" for n, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"<Series order={self.order} [{', '.join(str(c) for c in self.coeffs[:5])}...]>"


# -- elementary builders -----------------------------------------------------


def exp_poly(c1: Scalar, c2: Scalar, order: int) -> Series:
    """Series of exp(c1*t + c2*t^2), via f' = (c1 + 2 c2 t) f."""
    c1, c2 = _as_fraction(c1), _as_fraction(c2)
    coeffs = [Fraction(1)]
    for n in range(order):
        nxt = c1 * coeffs[n]
        if n >= 1:
            nxt += 2 * c2 * coeffs[n - 1]
        coeffs.append(nxt / (n + 1))
    return Series(coeffs)


def hyp1f1_ct2(a: Scalar, b: Scalar, c: Scalar, order: int) -> Series:
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
    return Series(coeffs)


def trig_sqrt(q: Scalar, order: int) -> tuple[Series, Series]:
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
    return Series(even), Series(odd)


# -- theorem right-hand sides --------------------------------------------------


def rhs_gessel(x: Scalar, order: int) -> Series:
    """Exterior peaks: 1/(E(1-x) - O(1-x)) with the even/odd pair above."""
    even, odd = trig_sqrt(1 - _as_fraction(x), order)
    return Series.one(order) / (even - odd)


def rhs_elizalde_noy(a: Scalar, order: int) -> tuple[dict[str, Fraction], Series]:
    """Proper double descents, sampled through y = a + 1/a - 1 so that
    sqrt((y-1)(y+3)) = |a - 1/a| is rational.  Returns the evaluation
    point {y} and the series."""
    a = _as_fraction(a)
    if a in (0, 1, -1):
        raise SamplingError("root parameter a must avoid 0 and +-1")
    y = a + 1 / a - 1
    s = a - 1 / a
    numerator = 2 * s * exp_poly((1 - y + s) / 2, 0, order)
    denominator = (1 + y + s) - (1 + y - s) * exp_poly(s, 0, order)
    return {"y": y}, numerator / denominator


def rhs_barry_basset(order: int) -> Series:
    """Permutations with no proper double descent:
    exp(t/2) / (E(-3/4) - O(-3/4)/2)."""
    even, odd = trig_sqrt(Fraction(-3, 4), order)
    return exp_poly(Fraction(1, 2), 0, order) / (even - odd / 2)


def rhs_fu(a: Scalar, b: Scalar, y: Scalar, order: int) -> tuple[dict[str, Fraction], Series]:
    """Exterior peaks and proper double descents, four variables, sampled
    with xz = ab and y + w = a + b so sqrt((y+w)^2 - 4xz) = |a-b|.
    Returns the evaluation point {x, y, z, w} and the series."""
    a, b, y = _as_fraction(a), _as_fraction(b), _as_fraction(y)
    if a == b:
        raise SamplingError("root parameters must be distinct")
    d = a - b
    w = a + b - y
    point = {"x": a * b, "y": y, "z": Fraction(1), "w": w}
    numerator = 2 * point["z"] * d * exp_poly((w - y + d) / 2, 0, order)
    denominator = (y + w + d) - (y + w - d) * exp_poly(d, 0, order)
    return point, numerator / denominator


def rhs_carlitz_scoville(a: Scalar, b: Scalar, y: Scalar, order: int) -> tuple[dict[str, Fraction], Series]:
    """Peaks/valleys/double descents/double rises with roots alpha=a,
    beta=b: (e^{bt} - e^{at}) / (b e^{at} - a e^{bt}), xz = ab, y + w = a + b."""
    a, b, y = _as_fraction(a), _as_fraction(b), _as_fraction(y)
    if a == b:
        raise SamplingError("root parameters must be distinct")
    w = a + b - y
    point = {"x": a * b, "y": y, "z": Fraction(1), "w": w}
    numerator = exp_poly(b, 0, order) - exp_poly(a, 0, order)
    denominator = b * exp_poly(a, 0, order) - a * exp_poly(b, 0, order)
    return point, numerator / denominator


def rhs_l(x: Scalar, order: int) -> Series:
    """Total count of consecutive 231 and 321 patterns.  The integral from
    t+1 to 1 in the closed form, shifted by s = 1 + u, cancels the
    prefactor and leaves E/(1 - x * integral(E)) with
    E = exp((1-x)(t + t^2/2)), which is rational term by term."""
    x = _as_fraction(x)
    e = exp_poly(1 - x, (1 - x) / 2, order)
    return e / (Series.one(order) - x * e.integrate())


def rhs_t(x: Scalar, y: Scalar, order: int) -> Series:
    """Joint exterior-peak patterns:
    e^{(x-y)t^2/2} / (1F1(a; 1/2; c t^2) - t * 1F1(a + 1/2; 3/2; c t^2))
    with a = (1-y)/(2(x-y)) and c = (x-y)/2."""
    x, y = _as_fraction(x), _as_fraction(y)
    if x == y:
        raise SamplingError("x = y is degenerate here; use the single-variable form")
    a = (1 - y) / (2 * (x - y))
    c = (x - y) / 2
    denominator = hyp1f1_ct2(a, Fraction(1, 2), c, order) \
        - hyp1f1_ct2(a + Fraction(1, 2), Fraction(3, 2), c, order).mul_t()
    return exp_poly(0, c, order) / denominator


def rhs_tbar(x: Scalar, order: int) -> Series:
    """Exterior 132-peaks alone: e^{(x-1)t^2/2}/(1 - int_0^t e^{(x-1)s^2/2} ds)."""
    x = _as_fraction(x)
    e = exp_poly(0, (x - 1) / 2, order)
    return e / (Series.one(order) - e.integrate())


def rhs_ttilde(y: Scalar, order: int) -> Series:
    """Exterior 231-peaks alone: 1/(1 - int_0^t e^{(y-1)s^2/2} ds)."""
    y = _as_fraction(y)
    return Series.one(order) / (Series.one(order) - exp_poly(0, (y - 1) / 2, order).integrate())


def rhs_ta_even(x: Scalar, y: Scalar, order: int) -> Series:
    """Alternating permutations of even length:
    e^{(x-y)t^2/2} / 1F1(-y/(2(x-y)); 1/2; (x-y)t^2/2)."""
    x, y = _as_fraction(x), _as_fraction(y)
    if x == y:
        raise SamplingError("x = y is degenerate in the alternating builder")
    c = (x - y) / 2
    return exp_poly(0, c, order) / hyp1f1_ct2(-y / (2 * (x - y)), Fraction(1, 2), c, order)


def rhs_ta_odd(x: Scalar, y: Scalar, order: int) -> Series:
    """Alternating permutations of odd length:
    t e^{(x-y)t^2/2} 1F1(x/(2(x-y)); 3/2; -(x-y)t^2/2)
      / 1F1(-y/(2(x-y)); 1/2; (x-y)t^2/2)."""
    x, y = _as_fraction(x), _as_fraction(y)
    if x == y:
        raise SamplingError("x = y is degenerate in the alternating builder")
    c = (x - y) / 2
    numerator = (exp_poly(0, c, order)
                 * hyp1f1_ct2(x / (2 * (x - y)), Fraction(3, 2), -c, order)).mul_t()
    return numerator / hyp1f1_ct2(-y / (2 * (x - y)), Fraction(1, 2), c, order)


def rhs_involutions(order: int) -> Series:
    """exp(t + t^2/2): involution counts as n! times the coefficients."""
    return exp_poly(1, Fraction(1, 2), order)
