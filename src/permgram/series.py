"""Truncated univariate power series in t with exact rational coefficients.

A series holds coefficients c_0..c_order (index n holds the coefficient of
t^n); arithmetic truncates to the shorter operand, and equality compares
the shared prefix.  The closed-form builders at the bottom produce the
right-hand sides of the generating-function identities at exact rational
parameter samples, so every comparison against an enumeration oracle is an
exact comparison of rationals.

Coefficients are stored fraction-free, as ``LaurentPoly`` stores them: int
numerators ``nums`` over one positive int denominator ``den``, kept in
lowest terms, so every operation sums ints and ends with one ``math.gcd``.
A product is a Cauchy sum of ints, and a quotient follows the
fraction-free recurrence of Bareiss (Math. Comp. 22, 1968) with the
operands' denominators folded in once.  The builders run integer
recurrences on numerator/denominator pairs.  ``coeffs`` builds the
``Fraction`` view on first read.

Square roots never appear: surd-bearing closed forms are sampled through a
root parametrization chosen so the surd is rational (see the individual
builders), and cosh/sinh/cos/sin pairs are built as the even/odd series
E(q) = sum q^n t^{2n}/(2n)!, O(q) = sum q^n t^{2n+1}/(2n+1)!.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Union

from .algebra import Scalar, _as_fraction, _ratio

#: An exact rational as (numerator, nonzero denominator), not necessarily reduced.
_Ratio = tuple[int, int]


class SamplingError(ValueError):
    """Degenerate parameter sample for a closed-form builder."""


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")


def _series(den: int, nums: list[int]) -> "Series":
    """The series with coefficients ``nums[n] / den`` (den nonzero), in
    lowest terms with a positive denominator."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        nums = [num // g for num in nums]
    series = Series.__new__(Series)
    series.den, series.nums, series._coeffs = den, nums, None
    return series


class Series:
    """Coefficients c_0..c_order of a truncated series in t.

    Stored as int numerators ``nums`` over one positive int ``den`` with
    ``gcd(den, *nums) == 1`` (``den == 1`` for the zero series).  ``coeffs``
    is the tuple of ``Fraction`` coefficients, built on first read.
    """

    __slots__ = ("den", "nums", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar]):
        ratios = [_ratio(c) for c in coeffs]
        if not ratios:
            raise ValueError("a series needs at least its constant term")
        # the lcm of reduced fractions' denominators leaves no common factor
        den = math.lcm(*(q for _, q in ratios))
        self.den = den
        self.nums = [p * (den // q) for p, q in ratios]
        self._coeffs = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(num, den) for num in self.nums)
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @classmethod
    def const(cls, value: Scalar, order: int) -> "Series":
        _check_order(order)
        p, q = _ratio(value)
        return _series(q, [p] + [0] * order)

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
        da, db = self.den, other.den
        shared = min(len(self.nums), len(other.nums))
        return ([num * db for num in self.nums[:shared]]
                == [num * da for num in other.nums[:shared]])

    __hash__ = None

    def _plus(self, other: Union["Series", Scalar], sign: int) -> "Series":
        """self + sign * other over the lcm of the two denominators."""
        if not isinstance(other, Series):
            other = Series.const(other, self.order)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return _series(den, [a * fa + b * fb for a, b in zip(self.nums, other.nums)])

    def __add__(self, other: Union["Series", Scalar]) -> "Series":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return _series(self.den, [-num for num in self.nums])

    def __sub__(self, other: Union["Series", Scalar]) -> "Series":
        return self._plus(other, -1)

    def __rsub__(self, other: Scalar) -> "Series":
        return (-self) + other

    def __mul__(self, other: Union["Series", Scalar]) -> "Series":
        if not isinstance(other, Series):
            p, q = _ratio(other)
            return _series(self.den * q, [num * p for num in self.nums])
        a, b = self.nums, other.nums
        # map stops at the shorter operand, b[n::-1] = b_n, ..., b_0
        return _series(self.den * other.den,
                       [sum(map(mul, a, b[n::-1])) for n in range(min(len(a), len(b)))])

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Series", Scalar]) -> "Series":
        if not isinstance(other, Series):
            p, q = _ratio(other)
            if p == 0:
                raise ZeroDivisionError("series divided by zero")
            return _series(self.den * p, [num * q for num in self.nums])
        a, b = self.nums, other.nums
        if b[0] == 0:
            raise ZeroDivisionError("series divisor has zero constant term")
        # Fraction-free (Bareiss 1968): the quotient of the numerator lists
        # has Q[n] = q[n] b0^(n+1) = a[n] b0^n - sum_k Q[k] b[n-k] b0^(n-1-k),
        # which stays integral; the operands' denominators enter once, as
        # the factor other.den / self.den of the whole quotient
        shared = min(len(a), len(b)) - 1
        powers = [1]
        for _ in range(shared + 1):
            powers.append(powers[-1] * b[0])
        scaled: list[int] = []  # Q[n]; map stops after its n terms
        for n in range(shared + 1):
            scaled.append(a[n] * powers[n]
                          - sum(map(mul, map(mul, scaled, b[n:0:-1]), powers[n - 1::-1])))
        db = other.den
        return _series(self.den * powers[shared + 1],
                       [num * db * powers[shared - n] for n, num in enumerate(scaled)])

    def __rtruediv__(self, other: Scalar) -> "Series":
        return Series.const(other, self.order) / self

    def mul_t(self) -> "Series":
        """Multiply by t, keeping the truncation order (top coefficient drops)."""
        return _series(self.den, [0] + self.nums[:-1])

    def integrate(self) -> "Series":
        """Term-wise antiderivative with zero constant term, same order."""
        common = math.lcm(*range(1, len(self.nums)))
        return _series(self.den * common,
                       [0] + [num * (common // n) for n, num in enumerate(self.nums[:-1], 1)])

    def __str__(self) -> str:
        return "\n".join(f"{n}: {c}" for n, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"<Series order={self.order} [{', '.join(str(c) for c in self.coeffs[:5])}...]>"


# -- elementary builders -----------------------------------------------------
#
# Each builder runs an integer recurrence on its parameters as (numerator,
# denominator) pairs.  ``exp_poly`` and ``hyp1f1_ct2`` take the pairs
# through ``_exp_poly`` and ``_hyp1f1_ct2``, which the two 1F1 builders
# ``rhs_t`` and ``rhs_ta`` call directly, so those build no Fraction at all.


def _exp_poly(c1: _Ratio, c2: _Ratio, order: int) -> Series:
    """exp(c1*t + c2*t^2).  Over one denominator q, c1 = p1/q and c2 = p2/q,
    f' = (c1 + 2 c2 t) f gives c_n = C_n / (n! q^n) with C_0 = 1 and
    C_n = p1 C_(n-1) + 2 (n-1) p2 q C_(n-2)."""
    _check_order(order)
    (p1, q1), (p2, q2) = c1, c2
    q = math.lcm(q1, q2)
    p1, p2 = p1 * (q // q1), p2 * (q // q2)
    big = [1, p1]
    step = 2 * p2 * q
    for n in range(2, order + 1):
        big.append(p1 * big[n - 1] + (n - 1) * step * big[n - 2])
    nums = [0] * (order + 1)
    scale = 1  # order!/n! q^(order-n)
    for n in range(order, -1, -1):
        nums[n] = big[n] * scale
        scale *= n * q
    return _series(math.factorial(order) * q ** order, nums)


def _hyp1f1_ct2(a: _Ratio, b: _Ratio, c: _Ratio, order: int) -> Series:
    """1F1(a; b; c t^2): the coefficient of t^(2n) is the running product of
    (pa + k qa) qb pc over the running product of (pb + k qb) qa qc (k+1),
    k < n."""
    _check_order(order)
    (pa, qa), (pb, qb), (pc, qc) = a, b, c
    ups, downs = [1], []
    for k in range(order // 2):
        if pb + k * qb == 0:
            raise SamplingError(f"1F1 parameter b={Fraction(pb, qb)} hits a pole at term {k + 1}")
        ups.append(ups[k] * (pa + k * qa) * qb * pc)
        downs.append((pb + k * qb) * qa * qc * (k + 1))
    nums = [0] * (order + 1)
    scale = 1  # the product of downs[n:]
    for n in range(order // 2, -1, -1):
        nums[2 * n] = ups[n] * scale
        if n:
            scale *= downs[n - 1]
    return _series(scale, nums)


def exp_poly(c1: Scalar, c2: Scalar, order: int) -> Series:
    """Series of exp(c1*t + c2*t^2), via f' = (c1 + 2 c2 t) f."""
    return _exp_poly(_ratio(c1), _ratio(c2), order)


def hyp1f1_ct2(a: Scalar, b: Scalar, c: Scalar, order: int) -> Series:
    """Confluent hypergeometric 1F1(a; b; c*t^2) as an exact series:
    coefficient of t^{2n} is (a)_n c^n / ((b)_n n!), odd coefficients zero."""
    return _hyp1f1_ct2(_ratio(a), _ratio(b), _ratio(c), order)


def trig_sqrt(q: Scalar, order: int) -> tuple[Series, Series]:
    """Even/odd hyperbolic pair for the square-root-free parametrization:
    even = sum q^n t^{2n}/(2n)! and odd = sum q^n t^{2n+1}/(2n+1)!.

    For q > 0 these are cosh(sqrt(q) t) and sinh(sqrt(q) t)/sqrt(q); for
    q < 0 they are cos and sin of sqrt(-q) t (scaled); both stay rational.
    With q = p/r, coefficient k = 2n or 2n + 1 is p^n r^(top-n) order!/k!
    over order! r^top, where top = order // 2.
    """
    _check_order(order)
    p, r = _ratio(q)
    top = order // 2
    even, odd = [0] * (order + 1), [0] * (order + 1)
    scale = 1  # order!/k!
    for k in range(order, -1, -1):
        (odd if k % 2 else even)[k] = p ** (k // 2) * r ** (top - k // 2) * scale
        scale *= k
    den = math.factorial(order) * r ** top
    return _series(den, even), _series(den, odd)


# -- theorem right-hand sides --------------------------------------------------


def rhs_gessel(x: Scalar, order: int) -> Series:
    """Exterior peaks: 1/(E(1-x) - O(1-x)) with the even/odd pair above."""
    even, odd = trig_sqrt(1 - _as_fraction(x), order)
    return Series.one(order) / (even - odd)


def rhs_elizalde_noy(a: Scalar, order: int) -> tuple[dict[str, Fraction], Series]:
    """Proper double descents (Elizalde & Noy 2003): ``rhs_fu`` at
    x = z = w = 1, sampled through y = a + 1/a - 1 so that
    sqrt((y-1)(y+3)) = |a - 1/a| is rational.  Returns the evaluation
    point {y} and the series."""
    a = _as_fraction(a)
    if a in (0, 1, -1):
        raise SamplingError("root parameter a must avoid 0 and +-1")
    point, rhs = rhs_fu(a, 1 / a, a + 1 / a - 1, order)
    return {"y": point["y"]}, rhs


def rhs_barry_basset(order: int) -> Series:
    """Permutations with no proper double descent:
    exp(t/2) / (E(-3/4) - O(-3/4)/2)."""
    even, odd = trig_sqrt(Fraction(-3, 4), order)
    return exp_poly(Fraction(1, 2), 0, order) / (even - odd / 2)


def _root_point(a: Scalar, b: Scalar, y: Scalar) -> tuple[Fraction, Fraction, dict[str, Fraction]]:
    """Roots a != b and the point {x, y, z, w} with xz = ab, z = 1 and
    y + w = a + b, where sqrt((y+w)^2 - 4xz) = |a-b| is rational."""
    a, b, y = _as_fraction(a), _as_fraction(b), _as_fraction(y)
    if a == b:
        raise SamplingError("root parameters must be distinct")
    return a, b, {"x": a * b, "y": y, "z": Fraction(1), "w": a + b - y}


def rhs_fu(a: Scalar, b: Scalar, y: Scalar, order: int) -> tuple[dict[str, Fraction], Series]:
    """Exterior peaks and proper double descents, four variables, at the
    root point of a and b.  Returns the evaluation point and the series."""
    a, b, point = _root_point(a, b, y)
    y, w, d = point["y"], point["w"], a - b
    numerator = 2 * point["z"] * d * exp_poly((w - y + d) / 2, 0, order)
    denominator = (y + w + d) - (y + w - d) * exp_poly(d, 0, order)
    return point, numerator / denominator


def rhs_carlitz_scoville(a: Scalar, b: Scalar, y: Scalar, order: int) -> tuple[dict[str, Fraction], Series]:
    """Peaks/valleys/double descents/double rises with roots alpha=a,
    beta=b: (e^{bt} - e^{at}) / (b e^{at} - a e^{bt}) at the root point."""
    a, b, point = _root_point(a, b, y)
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


def _xy(x: Scalar, y: Scalar) -> tuple[int, int, int, _Ratio]:
    """``(s, x s, y s, c)``: x and y over one denominator s, and
    c = (x - y)/2 as ((x - y) s, 2 s), so a 1F1 parameter u/(2(x - y)) is
    (u s, 2 c[0]).  x = y is degenerate."""
    (px, qx), (py, qy) = _ratio(x), _ratio(y)
    s, xs, ys = qx * qy, px * qy, py * qx
    if xs == ys:
        raise SamplingError("x = y is degenerate here; use the single-variable form")
    return s, xs, ys, (xs - ys, 2 * s)


def rhs_t(x: Scalar, y: Scalar, order: int) -> Series:
    """Joint exterior-peak patterns:
    e^{(x-y)t^2/2} / (1F1(a; 1/2; c t^2) - t * 1F1(a + 1/2; 3/2; c t^2))
    with a = (1-y)/(2(x-y)) and c = (x-y)/2."""
    s, _, ys, c = _xy(x, y)
    dn = c[0]
    denominator = _hyp1f1_ct2((s - ys, 2 * dn), (1, 2), c, order) \
        - _hyp1f1_ct2((s - ys + dn, 2 * dn), (3, 2), c, order).mul_t()
    return _exp_poly((0, 1), c, order) / denominator


def rhs_tbar(x: Scalar, order: int) -> Series:
    """Exterior 132-peaks alone: e^{(x-1)t^2/2}/(1 - int_0^t e^{(x-1)s^2/2} ds)."""
    x = _as_fraction(x)
    e = exp_poly(0, (x - 1) / 2, order)
    return e / (Series.one(order) - e.integrate())


def rhs_ttilde(y: Scalar, order: int) -> Series:
    """Exterior 231-peaks alone: 1/(1 - int_0^t e^{(y-1)s^2/2} ds)."""
    y = _as_fraction(y)
    return Series.one(order) / (Series.one(order) - exp_poly(0, (y - 1) / 2, order).integrate())


def rhs_ta(x: Scalar, y: Scalar, order: int) -> Series:
    """Alternating permutations, both parities:
    e^{ct^2} (1 + t 1F1(x/(2(x-y)); 3/2; -ct^2)) / 1F1(-y/(2(x-y)); 1/2; ct^2)
    with c = (x-y)/2.  All but the factor t is even in t, so even lengths
    land on the even powers and odd lengths on the odd ones."""
    _, xs, ys, c = _xy(x, y)
    dn = c[0]
    numerator = 1 + _hyp1f1_ct2((xs, 2 * dn), (3, 2), (-dn, c[1]), order).mul_t()
    return _exp_poly((0, 1), c, order) * numerator / _hyp1f1_ct2((-ys, 2 * dn), (1, 2), c, order)


def rhs_involutions(order: int) -> Series:
    """exp(t + t^2/2): involution counts as n! times the coefficients."""
    return exp_poly(1, Fraction(1, 2), order)
