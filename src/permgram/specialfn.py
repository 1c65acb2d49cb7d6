"""Floating-point evaluation of Gamma, 1F1 and the Weber parabolic
cylinder function, plus the two main closed forms that cannot be checked
exactly because their constants involve Gamma values.

The cylinder function D_a(z) is evaluated from its defining combination of
two 1F1 series with reciprocal-Gamma prefactors.  The reciprocal form
matters: when (1-a)/2 or -a/2 sits at a pole of Gamma the corresponding
term's prefactor is exactly zero, which is how the reduced closed forms
for integer orders fall out without special-casing.

Arguments may be complex: the closed forms pair D_a at a real point with
D_a at an imaginary one (one of the two square roots sqrt(xv-zu),
sqrt(zu-xv) is always imaginary), and only the final combination is real.
The leftover imaginary part is asserted small and then discarded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Union

Real = Union[int, float]
ComplexLike = Union[int, float, complex]

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)


class ConvergenceError(ArithmeticError):
    """Direct summation failed to converge within the term cutoff."""


class GammaPoleError(ArithmeticError):
    """Gamma evaluated at a nonpositive integer (use rgamma instead)."""


class ImaginaryResidualError(ArithmeticError):
    """A value that should be real kept a large imaginary part."""


@dataclass(frozen=True)
class EvalContext:
    """Numeric evaluation policy.

    tolerance: absolute target for function values; summation stops once
    the last added term is below tolerance/10.  t_radius bounds |t| in the
    closed-form-versus-truncated-series comparisons.
    """

    tolerance: float = 1e-12
    max_terms: int = 500
    t_radius: float = 0.3
    imag_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


DEFAULT_CONTEXT = EvalContext()


def gamma(x: Real) -> float:
    """Gamma on the real line; poles raise (use rgamma when 0 is wanted)."""
    if x <= 0 and float(x).is_integer():
        raise GammaPoleError(f"Gamma pole at {x}")
    return math.gamma(x)


def rgamma(x: Real) -> float:
    """Reciprocal Gamma, entire: exactly 0 at the poles 0, -1, -2, ..."""
    if x <= 0 and float(x).is_integer():
        return 0.0
    return 1.0 / math.gamma(x)


def hyp1f1(a: Real, b: Real, z: ComplexLike, ctx: EvalContext = DEFAULT_CONTEXT) -> complex:
    """1F1(a; b; z) by direct summation; desk-scale |z| only."""
    if b <= 0 and float(b).is_integer():
        raise ValueError(f"1F1 parameter b={b} is a nonpositive integer")
    if abs(z) > 40:
        raise ConvergenceError(f"|z|={abs(z):.3g} too large for direct summation")
    total = complex(1.0)
    term = complex(1.0)
    for n in range(ctx.max_terms):
        term = term * (a + n) / (b + n) * z / (n + 1)
        total += term
        if abs(term) < ctx.tolerance / 10 and n > 3:
            return total
    raise ConvergenceError("1F1 summation did not converge within the cutoff")


def pcf_d(a: Real, z: ComplexLike, ctx: EvalContext = DEFAULT_CONTEXT) -> complex:
    """Weber parabolic cylinder function D_a(z) from its defining formula."""
    zz = complex(z)
    half = zz * zz / 2
    pref = 2 ** (a / 2) * _SQRT_PI * cmath.exp(-zz * zz / 4)
    term1 = rgamma((1 - a) / 2) * hyp1f1(-a / 2, 0.5, half, ctx)
    term2 = _SQRT_2 * zz * rgamma(-a / 2) * hyp1f1((1 - a) / 2, 1.5, half, ctx)
    return pref * (term1 - term2)


def pcf_d_derivs(a: Real, z: ComplexLike,
                 ctx: EvalContext = DEFAULT_CONTEXT) -> tuple[complex, complex, complex]:
    """(D_a, D_a', D_a'') at z, with the derivatives taken term by term on
    the defining series (independent of the ladder recurrences, so the
    recurrences can be tested against this).

    Writing D_a = C e^{-z^2/4} u(z) with u = rg((1-a)/2) F - rg(-a/2) G,
    F even and G odd power series, the derivatives are
    D' = C e^{-z^2/4} (u' - z u / 2) and
    D'' = C e^{-z^2/4} (u'' - z u' + (z^2/4 - 1/2) u).
    """
    zz = complex(z)
    z2 = zz * zz
    c_f = rgamma((1 - a) / 2)
    c_g = _SQRT_2 * rgamma(-a / 2)
    u = u1 = u2 = complex(0.0)
    # F term n: poch(-a/2, n) / (poch(1/2, n) n! 2^n) z^{2n}
    # G term n: sqrt2 * poch((1-a)/2, n) / (poch(3/2, n) n! 2^n) z^{2n+1}
    cf = 1.0
    cg = 1.0
    pow_2n = complex(1.0)          # z^{2n}
    pow_2n_m1 = pow_2n_m2 = complex(0.0)
    converged = False
    for n in range(ctx.max_terms):
        f_coef = c_f * cf
        g_coef = c_g * cg
        pieces = [f_coef * pow_2n, -g_coef * pow_2n * zz]
        u += pieces[0] + pieces[1]
        d1_f = f_coef * (2 * n) * pow_2n_m1
        d1_g = -g_coef * (2 * n + 1) * pow_2n
        u1 += d1_f + d1_g
        pieces += [d1_f, d1_g]
        if n >= 1:
            d2_f = f_coef * (2 * n) * (2 * n - 1) * pow_2n_m2
            d2_g = -g_coef * (2 * n + 1) * (2 * n) * pow_2n_m1
            u2 += d2_f + d2_g
            pieces += [d2_f, d2_g]
        if n > 3 and sum(abs(piece) for piece in pieces) < ctx.tolerance / 10:
            converged = True
            break
        cf = cf * (-a / 2 + n) / ((0.5 + n) * (n + 1) * 2)
        cg = cg * ((1 - a) / 2 + n) / ((1.5 + n) * (n + 1) * 2)
        pow_2n_m2 = pow_2n
        pow_2n_m1 = pow_2n * zz
        pow_2n = pow_2n * z2
    if not converged:
        raise ConvergenceError("cylinder-function series did not converge")
    pref = 2 ** (a / 2) * _SQRT_PI * cmath.exp(-z2 / 4)
    d0 = pref * u
    d1 = pref * (u1 - zz * u / 2)
    d2 = pref * (u2 - zz * u1 + (z2 / 4 - 0.5) * u)
    return d0, d1, d2


def _require_real(value: complex, ctx: EvalContext) -> float:
    if abs(value.imag) > ctx.imag_tolerance:
        raise ImaginaryResidualError(
            f"imaginary residual {value.imag:.3e} exceeds {ctx.imag_tolerance:.1e}")
    return value.real


def _pcf_pieces(params: Mapping[str, Real], t: float, ctx: EvalContext):
    """Shared ingredients of the two main closed forms."""
    x, y, z, w, u, v = (float(params[name]) for name in ("x", "y", "z", "w", "u", "v"))
    d2 = x * v - z * u
    if d2 == 0:
        raise ValueError("sample point has xv = zu; the closed form degenerates")
    if abs(t) > ctx.t_radius:
        raise ValueError(f"|t|={abs(t)} exceeds the context radius {ctx.t_radius}")
    delta = cmath.sqrt(complex(d2))
    dhat = cmath.sqrt(complex(-d2))
    a_del = (z * u - y * w) / d2          # order paired with the delta argument
    a_hat = (x * v - y * w) / (-d2)       # order paired with the delta-hat argument
    p = pcf_d(a_del, (w - y) / delta, ctx)
    q = pcf_d(a_hat, (y - w) / dhat, ctx)
    r = pcf_d((x * v - y * w) / d2, (w - y) / delta, ctx)
    s = pcf_d((z * u - y * w) / (-d2), (y - w) / dhat, ctx)
    arg_del = delta * t + (w - y) / delta
    arg_hat = dhat * t + (y - w) / dhat
    coef_a = dhat * s - q * y
    coef_b = p * w - delta * r
    denominator = coef_a * pcf_d(a_del, arg_del, ctx) + coef_b * pcf_d(a_hat, arg_hat, ctx)
    return {
        "x": x, "y": y, "z": z, "w": w, "u": u, "v": v, "d2": d2,
        "delta": delta, "dhat": dhat, "a_del": a_del, "a_hat": a_hat,
        "p": p, "q": q, "r": r, "s": s,
        "arg_del": arg_del, "arg_hat": arg_hat,
        "coef_a": coef_a, "coef_b": coef_b, "denominator": denominator,
    }


def gen_p_value(params: Mapping[str, Real], t: float, ctx: EvalContext = DEFAULT_CONTEXT) -> float:
    """Closed form of the exterior-scheme generating function at (params, t)."""
    g = _pcf_pieces(params, t, ctx)
    w, y, z = g["w"], g["y"], g["z"]
    numerator = z * (g["p"] * g["q"] * (w - y)
                     + (g["dhat"] * g["p"] * g["s"] - g["delta"] * g["q"] * g["r"]))
    numerator *= cmath.exp((w - y) * t / 2 + g["d2"] * t * t / 4)
    return _require_real(numerator / g["denominator"], ctx)


def gen_q_value(params: Mapping[str, Real], t: float, ctx: EvalContext = DEFAULT_CONTEXT) -> float:
    """Closed form of the peak-scheme generating function at (params, t)."""
    g = _pcf_pieces(params, t, ctx)
    w, y = g["w"], g["y"]
    first = (g["d2"] * t + w - y) * g["coef_b"] * pcf_d(g["a_hat"], g["arg_hat"], ctx)
    second = (g["coef_a"] * g["delta"] * pcf_d((g["x"] * g["v"] - y * w) / g["d2"], g["arg_del"], ctx)
              + g["coef_b"] * g["dhat"] * pcf_d((g["z"] * g["u"] - y * w) / (-g["d2"]), g["arg_hat"], ctx))
    return _require_real((first + second) / g["denominator"], ctx)
