"""Exact arithmetic kernel: half-integer exponents, monomials, Laurent polynomials.

A polynomial is a sparse map from exponent vectors to nonzero exact
coefficients.  Exponents are half-integers stored as doubled integers, so
``x^-1/2`` is exact and exponent arithmetic never leaves the integers.
A coefficient is stored as a plain ``int`` whenever it is integral and as a
``Fraction`` only when it is not (deriving a half-exponent monomial produces
factors like -1/2); both go through the same loops by Python's numeric
tower.  Products and ``evaluate`` work over one common denominator (for a
product, the lcm of each factor's coefficient denominators): the sums run
in ints, and each result is divided once, in ``_over``.  A product packs
each exponent vector into one int, so adding two keys is one int addition.

Everything here is an immutable value; operations are pure functions and
safe to share across threads.  Two polynomials built in different term
orders compare equal, and the text rendering (canonical term order,
``coeff*var^exp`` factors, fractions as ``p/q``) is byte-stable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add, attrgetter, getitem, lshift
from typing import Collection, Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _NAME_START | set("0123456789_")
_denominator = attrgetter("denominator")
_numerator = attrgetter("numerator")


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


def monomial_str(vars: Sequence[str], twice: Sequence[int]) -> str:
    """The text of the monomial with doubled exponents ``twice`` over ``vars``:
    ``x^1/2*z^-1``, or ``1`` for the empty product."""
    parts = [name if t == 2 else f"{name}^{_exp_str(t)}"
             for name, t in zip(vars, twice) if t != 0]
    return "*".join(parts) if parts else "1"


def _key(vars: tuple[str, ...], exponents: Mapping[str, Scalar]) -> tuple[int, ...]:
    """Doubled-exponent key of the monomial with these exponents over ``vars``."""
    key = [0] * len(vars)
    for name, exp in exponents.items():
        if name not in vars:
            raise AlgebraError(f"unknown variable {name!r}")
        key[vars.index(name)] = 2 * exp if type(exp) is int else _twice(exp)
    return tuple(key)


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise AlgebraError(f"expected an exact rational, got {value!r}")


def _scalar(value: Scalar) -> Scalar:
    """The stored form of an exact coefficient: an ``int`` when it is integral,
    else a ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise AlgebraError(f"expected an exact rational, got {value!r}")


def _scaled(coeffs: Collection[Scalar]) -> tuple[int, list[int]]:
    """``(d, integers)``: d is the lcm of the coefficients' denominators and
    the integers are the coefficients times d, in order.  ``coeffs`` is read
    twice, so it is a collection (a list, or a term map's ``values()``)."""
    d = math.lcm(*map(_denominator, coeffs))
    return d, (list(map(_numerator, coeffs)) if d == 1
               else [c.numerator * (d // c.denominator) for c in coeffs])


def _width(a: Iterable[tuple[int, ...]], b: Iterable[tuple[int, ...]]) -> int:
    """Bits per exponent for packing the keys of products of a term keyed in
    a with one keyed in b: every exponent of such a product fits in
    [-2^(w-1), 2^(w-1))."""
    bound = sum(max(map(abs, chain.from_iterable(keys)), default=0) for keys in (a, b))
    return bound.bit_length() + 1


def _packed(terms: Mapping[tuple[int, ...], Scalar],
            width: int) -> tuple[int, list[tuple[int, tuple[int, ...], int]]]:
    """``(d, packed terms)``: the terms scaled to integers over d (``_scaled``),
    each as (packed key, key, integer coefficient), the packed key being the
    exponent vector as one int, sum_i t_i 2^(width i).  Packing is additive:
    a product term's packed key is the sum of its factors' packed keys."""
    d, nums = _scaled(terms.values())
    shifts = range(0, width * len(next(iter(terms), ())), width)
    return d, [(sum(map(lshift, key, shifts)), key, c) for key, c in zip(terms, nums)]


def _mul_into(out: dict[int, int], keys: dict[int, tuple[int, ...]],
              a: list[tuple[int, tuple[int, ...], int]],
              b: list[tuple[int, tuple[int, ...], int]], weight: int) -> dict[int, int]:
    """Add ``weight`` times the product of packed terms a and b to ``out``,
    keyed by packed exponent vector, and give ``keys`` the exponent vector of
    each packed key not yet in it.  Return ``out``."""
    get = out.get
    for pa, ka, ca in a:
        wa = weight * ca
        for pb, kb, cb in b:
            key = pa + pb
            out[key] = get(key, 0) + wa * cb
            if key not in keys:
                keys[key] = tuple(map(add, ka, kb))
    return out


def _over(vars: tuple[str, ...], nums: Mapping, den: int,
          keys: Mapping[int, tuple[int, ...]] | None = None) -> "LaurentPoly":
    """The polynomial with coefficients ``num / den`` (den > 0), the one exit
    of the kernel's common-denominator loops.  Each coefficient is divided
    once, to an ``int`` when den divides it and to a reduced ``Fraction``
    otherwise; zeros are dropped.  With ``keys``, the keys of ``nums`` are
    packed and ``keys`` maps them to exponent vectors.  The map is stored as
    built, without the public constructor's second normalization pass."""
    items = nums.items() if keys is None else ((keys[k], num) for k, num in nums.items())
    poly = LaurentPoly.__new__(LaurentPoly)
    poly.vars = vars
    poly.terms = ({k: num for k, num in items if num} if den == 1 else
                  {k: num // den if num % den == 0 else Fraction(num, den)
                   for k, num in items if num})
    return poly


class LaurentPoly:
    """Sparse Laurent polynomial with rational coefficients.

    ``terms`` maps doubled-exponent tuples (one entry per variable) to
    nonzero coefficients, each an ``int`` when integral and a ``Fraction``
    otherwise.  The constructor normalizes: zero coefficients are dropped
    and ``Fraction(k, 1)`` becomes ``k``, so equality is plain
    coefficient-wise comparison.  ``*`` scales each factor to integers over
    the lcm of its denominators and divides each product term once.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], Scalar] | None = None):
        self.vars = tuple(vars)
        width = len(self.vars)
        clean: dict[tuple[int, ...], Scalar] = {}
        for key, coeff in (terms or {}).items():
            if len(key) != width:
                raise AlgebraError("exponent vector does not match variable set")
            c = _scalar(coeff)
            if c:
                clean[tuple(key)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "LaurentPoly":
        return cls(vars)

    @classmethod
    def const(cls, vars: Sequence[str], value: Scalar) -> "LaurentPoly":
        return cls(vars, {(0,) * len(tuple(vars)): value})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str,
                 exponent: Scalar = 1) -> "LaurentPoly":
        vars = tuple(vars)
        return cls(vars, {_key(vars, {name: exponent}): 1})

    @classmethod
    def monomial(cls, vars: Sequence[str], exponents: Mapping[str, Scalar],
                 coeff: Scalar = 1) -> "LaurentPoly":
        vars = tuple(vars)
        return cls(vars, {_key(vars, exponents): coeff})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def coeff(self, exponents: Mapping[str, Scalar]) -> Fraction:
        """Coefficient of the monomial with these exponents (0 when absent)."""
        return Fraction(self.terms.get(_key(self.vars, exponents), 0))

    # -- ring operations ------------------------------------------------

    def _check_vars(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise AlgebraError(f"mismatched variable sets {self.vars} vs {other.vars}")

    def __add__(self, other: Union["LaurentPoly", Scalar]) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(self.vars, other)
        self._check_vars(other)
        out = dict(self.terms)
        get = out.get
        for key, coeff in other.terms.items():
            out[key] = get(key, 0) + coeff
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
            c = _scalar(other)
            return LaurentPoly(self.vars, {k: coeff * c for k, coeff in self.terms.items()})
        self._check_vars(other)
        width = _width(self.terms, other.terms)
        (da, a), (db, b) = _packed(self.terms, width), _packed(other.terms, width)
        keys: dict[int, tuple[int, ...]] = {}
        return _over(self.vars, _mul_into({}, keys, a, b, 1), da * db, keys)

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
        """Simultaneously replace variables by unit monomials, 1 or 0.

        An image is a variable name, the constant 1 or 0, or a polynomial of
        one term with coefficient 1; anything else raises ``AlgebraError``.
        A term with a positive integer power of a variable bound to 0 drops
        out; a negative or half power of one raises, as does an image that
        would leave a quarter-integer exponent.
        """
        images: dict[int, tuple[int, ...] | None] = {}  # None: bound to 0
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
            if img.is_zero():
                image = None
            elif list(img.terms.values()) == [1]:
                (image,) = img.terms
            else:
                raise AlgebraError(
                    f"binding for {name!r} must be a unit monomial, 1 or 0, not {img}")
            images[self.vars.index(name)] = image

        out: dict[tuple[int, ...], Scalar] = {}
        for key, coeff in self.terms.items():
            built = list(key)
            vanishes = False
            for i, image in images.items():
                t = key[i]
                if t == 0:
                    continue
                built[i] -= t
                if image is None:
                    if t < 0 or t % 2:
                        raise AlgebraError(
                            f"cannot bind {self.vars[i]} to 0 under power {_exp_str(t)}")
                    vanishes = True
                    continue
                for j, m in enumerate(image):
                    prod = m * t
                    if prod % 2:
                        raise AlgebraError(
                            f"substituting {self.vars[i]}^{_exp_str(t)} creates a "
                            "quarter-integer exponent")
                    built[j] += prod // 2
            if not vanishes:
                new = tuple(built)
                out[new] = out.get(new, 0) + coeff
        return LaurentPoly(self.vars, out)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point.

        Every variable that occurs must be bound, with an integer exponent;
        variables with negative exponents must map to nonzero values.

        The sum runs over one common denominator.  For a variable bound to
        a/b whose exponents span [lo, hi], a term's factor (a/b)^e is scaled
        to the integer a^(e-lo) b^(hi-e), read from a power table; the
        total is divided once by the product of the a^-lo b^hi.
        """
        values = {name: _as_fraction(point[name]) for name in self.vars if name in point}
        num = den = 1
        tables: list[dict[int, int]] = []  # per variable: doubled exponent -> scaled factor
        for name, column in zip(self.vars, zip(*self.terms)):
            lo, hi = min(column), max(column)
            if lo == hi == 0:
                tables.append({0: 1})
                continue
            odd = next((t for t in column if t % 2), None)
            if odd is not None:
                raise AlgebraError(f"cannot evaluate half-integer exponent {name}^{_exp_str(odd)}")
            if name not in values:
                raise AlgebraError(f"unbound variable {name!r}")
            a, b = values[name].numerator, values[name].denominator
            lo, hi = lo // 2, hi // 2
            if lo < 0 and a == 0:
                raise AlgebraError(f"zero raised to negative power {lo}")
            a_pows, b_pows = [1], [1]
            for _ in range(hi - lo):
                a_pows.append(a_pows[-1] * a)
                b_pows.append(b_pows[-1] * b)
            tables.append({2 * (lo + k): a_pows[k] * b_pows[hi - lo - k]
                           for k in range(hi - lo + 1)})
            # the value is the scaled sum times a^lo b^-hi
            if lo >= 0:
                num *= a ** lo
            else:
                den *= a ** -lo
            if hi <= 0:
                num *= b ** -hi
            else:
                den *= b ** hi
        total = sum(math.prod(map(getitem, tables, key), start=coeff)
                    for key, coeff in self.terms.items())
        return Fraction(total * num, den)

    def with_vars(self, vars: Sequence[str]) -> "LaurentPoly":
        """Re-express over another variable set (drop unused, reorder, extend)."""
        vars = tuple(vars)
        index = {name: j for j, name in enumerate(vars)}
        out: dict[tuple[int, ...], Scalar] = {}
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
            out[new_key] = out.get(new_key, 0) + coeff
        return LaurentPoly(vars, out)

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            mono_str = monomial_str(self.vars, key)
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
