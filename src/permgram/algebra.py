"""Exact arithmetic kernel: half-integer exponents, monomials, Laurent polynomials.

A polynomial is a sparse map from exponent vectors to nonzero ``Fraction``
coefficients.  Exponents are half-integers stored as doubled integers, so
``x^-1/2`` is exact and exponent arithmetic never leaves the integers.
Coefficients are rationals because deriving a half-exponent monomial
produces factors like -1/2.

Everything here is an immutable value; operations are pure functions and
safe to share across threads.  Two polynomials built in different term
orders compare equal, and the text rendering (canonical term order,
``coeff*var^exp`` factors, fractions as ``p/q``) is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _NAME_START | set("0123456789_")


class AlgebraError(ValueError):
    """Operation outside the kernel's domain: mismatched variable sets,
    half-integer evaluation, invalid substitution, bad expression text."""


def _twice(value: Scalar) -> int:
    """Twice an integer or half-integer exponent, as an int."""
    if isinstance(value, int):
        return 2 * value
    frac = Fraction(value)
    if frac.denominator not in (1, 2):
        raise AlgebraError(f"exponent {frac} is not a half-integer")
    return int(frac * 2)


def _exp_str(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


@dataclass(frozen=True)
class Monomial:
    """A product of variable powers over a fixed, ordered variable set."""

    vars: tuple[str, ...]
    twice: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vars) != len(self.twice):
            raise AlgebraError("exponent vector does not match variable set")

    def __str__(self) -> str:
        parts = []
        for name, t in zip(self.vars, self.twice):
            if t == 0:
                continue
            parts.append(name if t == 2 else f"{name}^{_exp_str(t)}")
        return "*".join(parts) if parts else "1"


def _key(vars: tuple[str, ...], exponents: Mapping[str, Scalar]) -> tuple[int, ...]:
    """Doubled-exponent key of the monomial with these exponents over ``vars``."""
    key = [0] * len(vars)
    for name, exp in exponents.items():
        if name not in vars:
            raise AlgebraError(f"unknown variable {name!r}")
        key[vars.index(name)] = _twice(exp)
    return tuple(key)


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise AlgebraError(f"expected an exact rational, got {value!r}")


class LaurentPoly:
    """Sparse Laurent polynomial with rational coefficients.

    ``terms`` maps doubled-exponent tuples (one entry per variable) to
    nonzero coefficients.  The constructor normalizes: zero coefficients
    are dropped, so equality is plain coefficient-wise comparison.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], Scalar] | None = None):
        self.vars = tuple(vars)
        width = len(self.vars)
        clean: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in (terms or {}).items():
            if len(key) != width:
                raise AlgebraError("exponent vector does not match variable set")
            c = _as_fraction(coeff)
            if c:
                clean[tuple(key)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "LaurentPoly":
        return cls(vars)

    @classmethod
    def const(cls, vars: Sequence[str], value: Scalar) -> "LaurentPoly":
        return cls(vars, {(0,) * len(tuple(vars)): _as_fraction(value)})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str,
                 exponent: Scalar = 1) -> "LaurentPoly":
        vars = tuple(vars)
        return cls(vars, {_key(vars, {name: exponent}): Fraction(1)})

    @classmethod
    def monomial(cls, vars: Sequence[str], exponents: Mapping[str, Scalar],
                 coeff: Scalar = 1) -> "LaurentPoly":
        vars = tuple(vars)
        return cls(vars, {_key(vars, exponents): _as_fraction(coeff)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def coeff(self, exponents: Mapping[str, Scalar]) -> Fraction:
        """Coefficient of the monomial with these exponents (0 when absent)."""
        return self.terms.get(_key(self.vars, exponents), Fraction(0))

    # -- ring operations ------------------------------------------------

    def _check_vars(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise AlgebraError(f"mismatched variable sets {self.vars} vs {other.vars}")

    def __add__(self, other: Union["LaurentPoly", Scalar]) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(self.vars, other)
        self._check_vars(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return LaurentPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.vars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: Union["LaurentPoly", Scalar]) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: Union["LaurentPoly", Scalar]) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            c = _as_fraction(other)
            return LaurentPoly(self.vars, {k: coeff * c for k, coeff in self.terms.items()})
        self._check_vars(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return LaurentPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("polynomial powers must be nonnegative integers")
        result = LaurentPoly.const(self.vars, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; value identity via __eq__ only

    # -- substitution, evaluation, variable alignment --------------------

    def substitute(self, bindings: Mapping[str, Union["LaurentPoly", str, Scalar]]) -> "LaurentPoly":
        """Simultaneously replace variables by polynomials.

        A binding image may be any polynomial when the variable occurs only
        with nonnegative integer exponents; negative or half-integer powers
        are distributed only over single-monomial images with coefficient 1.
        """
        images: dict[int, LaurentPoly] = {}
        for name, value in bindings.items():
            if name not in self.vars:
                raise AlgebraError(f"unknown variable {name!r}")
            if isinstance(value, LaurentPoly):
                self._check_vars(value)
                img = value
            elif isinstance(value, str):
                img = LaurentPoly.variable(self.vars, value)
            else:
                img = LaurentPoly.const(self.vars, value)
            images[self.vars.index(name)] = img

        width = len(self.vars)
        out = LaurentPoly.zero(self.vars)
        for key, coeff in self.terms.items():
            fixed = [0] * width
            factors: list[LaurentPoly] = []
            for i, t in enumerate(key):
                if t == 0:
                    continue
                img = images.get(i)
                if img is None:
                    fixed[i] += t
                    continue
                if len(img.terms) == 1:
                    (mkey, mcoeff), = img.terms.items()
                    if mcoeff == 1:
                        for j, m in enumerate(mkey):
                            prod = m * t
                            if prod % 2:
                                raise AlgebraError(
                                    f"substituting {self.vars[i]}^{_exp_str(t)} creates a "
                                    "quarter-integer exponent")
                            fixed[j] += prod // 2
                        continue
                if t < 0 or t % 2:
                    raise AlgebraError(
                        f"cannot raise a non-monomial binding to power {_exp_str(t)} "
                        f"for variable {self.vars[i]!r}")
                factors.append(img ** (t // 2))
            term = LaurentPoly(self.vars, {tuple(fixed): coeff})
            for f in factors:
                term = term * f
            out = out + term
        return out

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point.

        Every variable that occurs must be bound, with an integer exponent;
        variables with negative exponents must map to nonzero values.
        """
        values: list[Fraction | None] = []
        for name in self.vars:
            values.append(_as_fraction(point[name]) if name in point else None)
        total = Fraction(0)
        for key, coeff in self.terms.items():
            term = coeff
            for i, t in enumerate(key):
                if t == 0:
                    continue
                if t % 2:
                    raise AlgebraError(
                        f"cannot evaluate half-integer exponent {self.vars[i]}^{_exp_str(t)}")
                value = values[i]
                if value is None:
                    raise AlgebraError(f"unbound variable {self.vars[i]!r}")
                e = t // 2
                if e < 0 and value == 0:
                    raise AlgebraError(f"zero raised to negative power {e}")
                term *= value ** e
            total += term
        return total

    def with_vars(self, vars: Sequence[str]) -> "LaurentPoly":
        """Re-express over another variable set (drop unused, reorder, extend)."""
        vars = tuple(vars)
        index = {name: j for j, name in enumerate(vars)}
        out: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in self.terms.items():
            built = [0] * len(vars)
            for i, t in enumerate(key):
                if t == 0:
                    continue
                name = self.vars[i]
                if name not in index:
                    raise AlgebraError(f"variable {name!r} occurs but is not in the target set")
                built[index[name]] = t
            new_key = tuple(built)
            out[new_key] = out.get(new_key, Fraction(0)) + coeff
        return LaurentPoly(vars, out)

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            mono = Monomial(self.vars, key)
            mono_str = str(mono)
            mag = abs(coeff)
            if mono_str == "1":
                body = str(mag)
            elif mag == 1:
                body = mono_str
            else:
                body = f"{mag}*{mono_str}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"<LaurentPoly[{','.join(self.vars)}] {self}>"


# -- expression parsing ----------------------------------------------------


def _split_terms(text: str) -> list[str]:
    """Split on top-level +/- (a sign after ``^`` starts an exponent, not a term)."""
    spans: list[str] = []
    start = 0
    for i, ch in enumerate(text):
        if ch in "+-" and i > start:
            prev = text[:i].rstrip()
            if prev and (prev[-1] in _NAME_CHARS):
                spans.append(text[start:i])
                start = i
    spans.append(text[start:])
    return [s for s in (span.strip() for span in spans) if s]


def _parse_exponent(token: str, context: str) -> int:
    frac_text = token
    try:
        frac = Fraction(frac_text)
    except (ValueError, ZeroDivisionError):
        raise AlgebraError(f"bad exponent {token!r} in {context!r}") from None
    if frac.denominator not in (1, 2):
        raise AlgebraError(f"exponent {token!r} is not a half-integer in {context!r}")
    return int(frac * 2)


def parse_poly(text: str, vars: Sequence[str]) -> LaurentPoly:
    """Parse ``3/2*x*y^-1 + z^1/2`` style expressions into a polynomial.

    Factors are ``*``-separated; each is a rational constant or a variable
    with an optional integer or half-integer exponent after ``^``.
    """
    vars = tuple(vars)
    index = {name: i for i, name in enumerate(vars)}
    stripped = text.strip()
    if not stripped:
        raise AlgebraError("empty polynomial expression")
    total: dict[tuple[int, ...], Fraction] = {}
    for term in _split_terms(stripped):
        sign = Fraction(1)
        body = term
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:].lstrip()
        if not body:
            raise AlgebraError(f"dangling sign in term {term!r}")
        coeff = sign
        key = [0] * len(vars)
        for factor in body.split("*"):
            factor = factor.strip()
            if not factor:
                raise AlgebraError(f"empty factor in term {term!r}")
            if factor[0] in _NAME_START:
                name, _, exp_text = factor.partition("^")
                name = name.strip()
                if name not in index:
                    raise AlgebraError(f"unknown variable {name!r}")
                twice = 2 if not exp_text else _parse_exponent(exp_text.strip(), term)
                key[index[name]] += twice
            else:
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError):
                    raise AlgebraError(f"bad factor {factor!r} in term {term!r}") from None
        k = tuple(key)
        total[k] = total.get(k, Fraction(0)) + coeff
    return LaurentPoly(vars, total)
