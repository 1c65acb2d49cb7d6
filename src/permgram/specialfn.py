"""Floating-point evaluation of reciprocal Gamma and the Weber parabolic
cylinder function, plus the two main closed forms that cannot be checked
exactly because their constants involve Gamma values.

The cylinder function D_a(z) and its first two derivatives come from one
power series, whose coefficients follow from Weber's equation and start
from reciprocal-Gamma values.  The reciprocal form matters: when (1-a)/2
or -a/2 sits at a pole of Gamma that parity's coefficients are exactly
zero, which is how the reduced closed forms for integer orders fall out
without special-casing.  Where the series cancels so far that rounding
could exceed the tolerance (large positive z), it raises ConvergenceError
instead of returning a drifted value.

Both master closed forms under G read one denominator f(t), a sum of two
cylinder functions of linear arguments in t.  Since exp(tD) is a ring
homomorphism, Gen(z) = z e^{(w-y)t/2 + d2 t^2/4} f(0)/f(t) and
Gen(w) = ((w-y) + d2 t)/2 - f'(t)/f(t), with d2 = xv - zu; four calls of
pcf_d_derivs give f(0), f(t) and f'(t).  Arguments may be complex: f pairs
D_a at a real point with D_a at an imaginary one (one of sqrt(xv-zu),
sqrt(zu-xv) is always imaginary), and only the final combination is real.
The leftover imaginary part is asserted small and then discarded.

The numeric policy is four module constants: ``TOLERANCE`` (1e-12, the
absolute target of every summation), ``MAX_TERMS`` (500, the term cutoff),
``T_RADIUS`` (0.3, the largest |t| for the closed forms) and
``IMAG_TOLERANCE`` (1e-10, the imaginary residual allowed before it is
discarded).
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Mapping, Union

Real = Union[int, float]
ComplexLike = Union[int, float, complex]

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)

#: Absolute target for function values; a summation stops once its last
#: term is below TOLERANCE / 10.
TOLERANCE = 1e-12
#: Terms a summation may take before it raises ConvergenceError.
MAX_TERMS = 500
#: Largest |t| at which the two closed forms are evaluated.
T_RADIUS = 0.3
#: Largest imaginary part a closed form may keep before it is discarded.
IMAG_TOLERANCE = 1e-10


class ConvergenceError(ArithmeticError):
    """Direct summation failed to converge within the term cutoff."""


class ImaginaryResidualError(ArithmeticError):
    """A value that should be real kept a large imaginary part."""


def rgamma(x: Real) -> float:
    """Reciprocal Gamma, entire: exactly 0 at the poles 0, -1, -2, ..."""
    if x <= 0 and float(x).is_integer():
        return 0.0
    return 1.0 / math.gamma(x)


def pcf_d(a: Real, z: ComplexLike) -> complex:
    """Weber parabolic cylinder function D_a(z): the value of pcf_d_derivs."""
    return pcf_d_derivs(a, z)[0]


def pcf_d_derivs(a: Real, z: ComplexLike) -> tuple[complex, complex, complex]:
    """(D_a, D_a', D_a'') at z from one power series (DLMF 12.2, 12.4).

    Writing D_a = C e^{-z^2/4} u(z) with C = 2^{a/2} sqrt(pi), u solves
    u'' - z u' + a u = 0, so u = sum c_k z^k with c_{k+2} = (k - a) c_k /
    ((k+1)(k+2)), c_0 = rg((1-a)/2) and c_1 = -sqrt2 rg(-a/2).  u, u' and
    u'' are summed term by term, and then
    D' = C e^{-z^2/4} (u' - z u / 2) and
    D'' = C e^{-z^2/4} (u'' - z u' + (z^2/4 - 1/2) u).

    Raises ConvergenceError when cancellation costs the value its
    precision: rounding in the sum is about eps * sum |c_k z^k|, and once
    that, times |C e^{-z^2/4}|, exceeds TOLERANCE * max(1, |D_a|) the
    value would drift without notice (a = -1 from z = 5.5 on, for one).
    The guard bounds the value only; the closed forms also read D'.
    """
    zz = complex(z)
    z2 = zz * zz
    c_k, c_next = rgamma((1 - a) / 2), -_SQRT_2 * rgamma(-a / 2)
    u = u1 = u2 = complex(0.0)
    mass = 0.0
    power = complex(1.0)           # z^k
    for k in range(MAX_TERMS):
        c_after = (k - a) * c_k / ((k + 1) * (k + 2))
        term0 = c_k * power
        term1 = (k + 1) * c_next * power
        term2 = (k + 1) * (k + 2) * c_after * power
        u += term0
        u1 += term1
        u2 += term2
        size = abs(term0)
        mass += size
        if k > 3 and size + abs(term1) + abs(term2) < TOLERANCE / 10:
            break
        c_k, c_next = c_next, c_after
        power *= zz
    else:
        raise ConvergenceError("cylinder-function series did not converge")
    pref = 2 ** (a / 2) * _SQRT_PI * cmath.exp(-z2 / 4)
    d0 = pref * u
    if sys.float_info.epsilon * mass * abs(pref) > TOLERANCE * max(1.0, abs(d0)):
        raise ConvergenceError(f"D_{a}({z}) loses its precision to cancellation")
    d1 = pref * (u1 - zz * u / 2)
    d2 = pref * (u2 - zz * u1 + (z2 / 4 - 0.5) * u)
    return d0, d1, d2


def _require_real(value: complex) -> float:
    if not abs(value.imag) <= IMAG_TOLERANCE:
        raise ImaginaryResidualError(
            f"imaginary residual {value.imag:.3e} exceeds {IMAG_TOLERANCE:.1e}")
    return value.real


def _denominator(params: Mapping[str, Real], t: float):
    """(w - y, d2, z, f(0), f(t), f'(t)) for the closed forms at (params, t).

    f(t) = A D_{a_del}(delta t + (w-y)/delta) + B D_{a_hat}(dhat t + (y-w)/dhat)
    with d2 = xv - zu, delta = sqrt(d2), dhat = sqrt(-d2), A = -(y+w)/2 q - dhat q'
    and B = (y+w)/2 p + delta p', where p, q are the two D at t = 0.
    """
    x, y, z, w, u, v = (float(params[name]) for name in ("x", "y", "z", "w", "u", "v"))
    d2 = x * v - z * u
    if d2 == 0:
        raise ValueError("sample point has xv = zu; the closed form degenerates")
    if abs(t) > T_RADIUS:
        raise ValueError(f"|t|={abs(t)} exceeds the radius {T_RADIUS}")
    delta = cmath.sqrt(complex(d2))
    dhat = cmath.sqrt(complex(-d2))
    a_del = (z * u - y * w) / d2          # order paired with the delta argument
    a_hat = (x * v - y * w) / (-d2)       # order paired with the delta-hat argument
    p, dp, _ = pcf_d_derivs(a_del, (w - y) / delta)
    q, dq, _ = pcf_d_derivs(a_hat, (y - w) / dhat)
    coef_a = -(y + w) / 2 * q - dhat * dq
    coef_b = (y + w) / 2 * p + delta * dp
    d_del, dd_del, _ = pcf_d_derivs(a_del, delta * t + (w - y) / delta)
    d_hat, dd_hat, _ = pcf_d_derivs(a_hat, dhat * t + (y - w) / dhat)
    return (w - y, d2, z, delta * dp * q - dhat * p * dq, coef_a * d_del + coef_b * d_hat,
            coef_a * delta * dd_del + coef_b * dhat * dd_hat)


def gen_p_value(params: Mapping[str, Real], t: float) -> float:
    """Exterior-scheme generating function z e^{(w-y)t/2 + d2 t^2/4} f(0)/f(t)."""
    wy, d2, z, f0, f, _ = _denominator(params, t)
    return _require_real(z * cmath.exp(wy * t / 2 + d2 * t * t / 4) * f0 / f)


def gen_q_value(params: Mapping[str, Real], t: float) -> float:
    """Peak-scheme generating function (w - y + d2 t)/2 - f'(t)/f(t)."""
    wy, d2, _, _, f, df = _denominator(params, t)
    return _require_real((wy + d2 * t) / 2 - df / f)
