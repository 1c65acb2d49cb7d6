"""Exact arithmetic kernel: half-integer exponents, monomials, Laurent polynomials.

A polynomial is a sparse map from exponent vectors to nonzero exact
coefficients.  Exponents are half-integers stored as doubled integers, so
``x^-1/2`` is exact and exponent arithmetic never leaves the integers.
Coefficients are stored fraction-free, as in Bareiss's method (Math. Comp.
22, 1968): int numerators over one positive int denominator shared by the
whole polynomial, kept reduced so that one ``math.gcd`` per result replaces
a division per term.  The ring operations, ``substitute`` and ``with_vars``
sum ints and build no ``Fraction``; ``evaluate`` divides once at the end,
and the ``terms`` view builds its Fractions on first read.  A product packs
each exponent vector into one int, so adding two keys is one int addition,
and unpacks each distinct key of the result once.

Like ``terms``, each polynomial keeps from first use a few facts per
variable about its column of exponents, and nothing per term
(``_span_cache``); ``evaluate`` reads them instead of rescanning the
exponents, and runs its per-term work as ``map`` pipelines over the
columns.

Everything here is an immutable value; operations are pure functions and
safe to share across threads.  Two polynomials built in different term
orders compare equal, and the text rendering (canonical term order,
``coeff*var^exp`` factors, fractions as ``p/q``) is byte-stable.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat, starmap
from operator import itemgetter, mul, sub, xor
from typing import Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _NAME_START | set("0123456789_")
_ODD = (1).__and__  # t -> t & 1, true for an odd doubled exponent


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
    """An exact coefficient as an ``int`` when it is integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise AlgebraError(f"expected an exact rational, got {value!r}")


def _ratio(value: Scalar) -> tuple[int, int]:
    """An exact rational as (numerator, positive denominator), in lowest terms."""
    value = _scalar(value)
    return (value, 1) if type(value) is int else (value.numerator, value.denominator)


def _raw(vars: tuple[str, ...], den: int, nums: dict) -> "LaurentPoly":
    """The polynomial stored as given: ``nums`` holds no zero and shares no
    factor with ``den`` (den is 1 when nums is empty)."""
    poly = LaurentPoly.__new__(LaurentPoly)
    poly.vars, poly.den, poly.nums = vars, den, nums
    return poly


def _reduced(vars: tuple[str, ...], den: int, nums: Mapping[tuple[int, ...], int]) -> "LaurentPoly":
    """The polynomial with coefficients ``num / den`` (den > 0): zeros are
    dropped and one gcd brings the rest to lowest terms."""
    g = math.gcd(den, *nums.values())
    nums = {k: num // g for k, num in nums.items() if num}
    return _raw(vars, den // g if nums else 1, nums)


def _bound(keys: Iterable[tuple[int, ...]]) -> int:
    """The largest |doubled exponent| in these keys (0 when there is none)."""
    return max(map(abs, chain.from_iterable(keys)), default=0)


class _Packing:
    """Exponent vectors packed into one int: field i holds t_i + 2^(w-2) at
    bit w i, for w = 8 * size with every |t_i| of a factor < 2^(w-2).

    Packing is additive, so a product's packed key is the sum of its
    factors' keys, and its field i holds t_i + 2^(w-1) with no carry between
    fields.  Flipping each field's top bit leaves t_i in two's complement,
    which ``struct`` reads back in one call per distinct key.  Packing runs
    the other way: ``struct`` writes the fields in two's complement, and
    flipping their top bits and subtracting the bias leaves t_i + 2^(w-2)."""

    __slots__ = ("bias", "mask", "nbytes", "encode", "unpack")

    def __init__(self, nvars: int, size: int):
        width = 8 * size
        self.bias = sum(1 << (width * i + width - 2) for i in range(nvars))
        self.mask = 2 * self.bias
        self.nbytes = size * nvars
        if size <= 8:
            layout = struct.Struct(f"<{nvars}{'bhiq'[size.bit_length() - 1]}")
            self.encode, self.unpack = layout.pack, layout.unpack
        else:
            self.encode = lambda *key: b"".join(t.to_bytes(size, "little", signed=True) for t in key)
            self.unpack = lambda raw: tuple(int.from_bytes(raw[i:i + size], "little", signed=True)
                                            for i in range(0, self.nbytes, size))

    def keys(self, keys: Iterable[tuple[int, ...]]) -> Iterator[int]:
        """The packed forms of these exponent vectors, in order."""
        raw = map(int.from_bytes, starmap(self.encode, keys), repeat("little"))
        return map(sub, map(xor, raw, repeat(self.mask)), repeat(self.bias))

    def pack(self, nums: Mapping[tuple[int, ...], int]) -> list[tuple[int, int]]:
        """The (packed key, value) pairs of a map from exponent vectors."""
        return list(zip(self.keys(nums), nums.values()))

    def over(self, vars: tuple[str, ...], den: int, nums: Mapping[int, int]) -> "LaurentPoly":
        """``_reduced`` for product terms keyed by packed keys: each distinct
        key is unpacked once."""
        unpack, mask, nbytes = self.unpack, self.mask, self.nbytes
        g = math.gcd(den, *nums.values())
        out = {unpack((p ^ mask).to_bytes(nbytes, "little")): num // g
               for p, num in nums.items() if num}
        return _raw(vars, den // g if out else 1, out)


@lru_cache(maxsize=64)
def _layout(nvars: int, size: int) -> _Packing:
    return _Packing(nvars, size)


def _packing(nvars: int, bound: int) -> _Packing:
    """The narrowest packing of ``nvars`` exponents whose factors' |t_i| are
    at most ``bound``; one object per layout, shared by every caller."""
    size = 1
    while bound >= 1 << (8 * size - 2):
        size *= 2
    return _layout(nvars, size)


def _mul_into(out: dict[int, int], a: list[tuple[int, int]], b: list[tuple[int, int]],
              weight: int) -> dict[int, int]:
    """Add ``weight`` times the product of packed terms a and b to ``out``,
    keyed by packed exponent vector.  Return ``out``."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for pa, ca in a:
        wa = weight * ca
        for pb, cb in b:
            key = pa + pb
            out[key] = get(key, 0) + wa * cb
    return out


class LaurentPoly:
    """Sparse Laurent polynomial with rational coefficients.

    Stored fraction-free: ``nums`` maps doubled-exponent tuples (one entry
    per variable) to nonzero int numerators over the one positive int
    ``den``, and ``gcd(den, *nums.values()) == 1``, with ``den == 1`` for the
    zero polynomial.  This form is canonical, so equality compares ``vars``,
    ``den`` and ``nums``.

    ``terms`` is the read-only view with rational coefficients: an ``int``
    where a coefficient is integral and a reduced ``Fraction`` otherwise.
    It is ``nums`` itself when ``den == 1`` and is built on first read
    otherwise.
    """

    __slots__ = ("vars", "den", "nums", "_terms", "_spans")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], Scalar] | None = None):
        self.vars = tuple(vars)
        width = len(self.vars)
        clean: dict[tuple[int, ...], Scalar] = {}
        den = 1
        for key, coeff in (terms or {}).items():
            if len(key) != width:
                raise AlgebraError("exponent vector does not match variable set")
            if type(coeff) is not int:
                coeff = _scalar(coeff)
                if type(coeff) is not int:
                    den = math.lcm(den, coeff.denominator)
            if coeff:
                clean[tuple(key)] = coeff
        self.den = den
        if den == 1:
            self.nums = clean
        else:
            # the lcm of reduced fractions' denominators leaves no common factor
            self.nums = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
            self._terms = clean

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

    @property
    def terms(self) -> Mapping[tuple[int, ...], Scalar]:
        """Exponent key -> coefficient, an ``int`` when integral and a
        reduced ``Fraction`` otherwise."""
        den = self.den
        if den == 1:
            return self.nums
        try:
            return self._terms
        except AttributeError:
            self._terms = {k: num // den if num % den == 0 else Fraction(num, den)
                           for k, num in self.nums.items()}
            return self._terms

    def is_zero(self) -> bool:
        return not self.nums

    def __len__(self) -> int:
        return len(self.nums)

    def coeff(self, exponents: Mapping[str, Scalar]) -> Fraction:
        """Coefficient of the monomial with these exponents (0 when absent)."""
        return Fraction(self.nums.get(_key(self.vars, exponents), 0), self.den)

    # -- ring operations ------------------------------------------------

    def _check_vars(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise AlgebraError(f"mismatched variable sets {self.vars} vs {other.vars}")

    def _plus(self, other: Union["LaurentPoly", Scalar], sign: int) -> "LaurentPoly":
        """self + sign * other over the lcm of the two denominators."""
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(self.vars, other)
        self._check_vars(other)
        den = math.lcm(self.den, other.den)
        scale = den // self.den
        out = dict(self.nums) if scale == 1 else {k: num * scale for k, num in self.nums.items()}
        scale = sign * (den // other.den)
        get = out.get
        for key, num in other.nums.items():
            out[key] = get(key, 0) + num * scale
        return _reduced(self.vars, den, out)

    def __add__(self, other: Union["LaurentPoly", Scalar]) -> "LaurentPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other: Union["LaurentPoly", Scalar]) -> "LaurentPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return _raw(self.vars, self.den, {k: -num for k, num in self.nums.items()})

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: Union["LaurentPoly", Scalar]) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            num, den = _ratio(other)
            return _reduced(self.vars, self.den * den, {k: c * num for k, c in self.nums.items()})
        self._check_vars(other)
        packing = _packing(len(self.vars), _bound(chain(self.nums, other.nums)))
        a, b = packing.pack(self.nums), packing.pack(other.nums)
        return packing.over(self.vars, self.den * other.den, _mul_into({}, a, b, 1))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("polynomial powers must be nonnegative integers")
        result = _raw(self.vars, 1, {(0,) * len(self.vars): 1})
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.nums == other.nums

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
            elif img.den == 1 and list(img.nums.values()) == [1]:
                (image,) = img.nums
            else:
                raise AlgebraError(
                    f"binding for {name!r} must be a unit monomial, 1 or 0, not {img}")
            images[self.vars.index(name)] = image

        out: dict[tuple[int, ...], int] = {}
        for key, num in self.nums.items():
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
                out[new] = out.get(new, 0) + num
        return _reduced(self.vars, self.den, out)

    def _span_cache(self) -> tuple[tuple[int, int, int | None, int | None], ...]:
        """Per variable, ``(lo, hi, odd, twin)`` of its column of doubled
        exponents: the least and greatest, the first odd one in term order
        (None when there is none), and the first earlier variable whose
        column differs from this one by a constant in every term (None when
        there is none, and for a constant column).  Computed on first use and
        kept, like ``terms``; an empty polynomial has the span 0..0
        everywhere."""
        try:
            return self._spans
        except AttributeError:
            pass
        nums = self.nums
        spans: list[tuple[int, int, int | None, int | None]] = []
        # one column at a time, read through itemgetter: no transposed copy of the keys
        for column in map(itemgetter, range(len(self.vars))):
            distinct = dict.fromkeys(map(column, nums)) or {0: None}  # in order of first occurrence
            lo, hi = min(distinct), max(distinct)
            twin = None
            if lo != hi:
                for j, (lo_j, hi_j, _, twin_j) in enumerate(spans):
                    if (twin_j is None and hi_j - lo_j == hi - lo
                            and all(map((lo - lo_j).__eq__,
                                        map(sub, map(column, nums), map(itemgetter(j), nums))))):
                        twin = j
                        break
            spans.append((lo, hi, next(filter(_ODD, distinct), None), twin))
        self._spans = tuple(spans)
        return self._spans

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point.

        Every variable that occurs must be bound, with an integer exponent;
        variables with negative exponents must map to nonzero values.

        The sum runs over one common denominator.  For a variable bound to
        a/b whose exponents span [lo, hi], a term's factor (a/b)^e is scaled
        to the integer a^(e-lo) b^(hi-e), read from a power table; the
        numerators' total is divided once, by ``den`` times the product of
        the a^-lo b^hi.  The spans come from ``_span_cache``, so a second
        point costs no scan of the exponents.  A constant column needs no
        table.  A column that is an earlier one shifted by a constant (x and
        v, z and u in every ``D^n(z)`` and ``D^n(w)`` under ``G``) picks the
        same entry in every term, so its table is folded into the earlier
        one's, entry by entry.  Each term then costs one lookup and one
        product per table, in a ``map`` pipeline over the columns.
        """
        values = {name: _ratio(point[name]) for name in self.vars if name in point}
        spans = self._span_cache()
        num, den = 1, self.den
        tables: dict[int, dict[int, int]] = {}  # per variable: doubled exponent -> scaled factor
        for i, (name, (lo, hi, odd, twin)) in enumerate(zip(self.vars, spans)):
            if lo == hi == 0:
                continue
            if odd is not None:
                raise AlgebraError(f"cannot evaluate half-integer exponent {name}^{_exp_str(odd)}")
            if name not in values:
                raise AlgebraError(f"unbound variable {name!r}")
            a, b = values[name]
            lo, hi = lo // 2, hi // 2
            if lo < 0 and a == 0:
                raise AlgebraError(f"zero raised to negative power {lo}")
            # the value is the scaled sum times a^lo b^-hi
            if lo >= 0:
                num *= a ** lo
            else:
                den *= a ** -lo
            if hi <= 0:
                num *= b ** -hi
            else:
                den *= b ** hi
            if lo == hi:
                continue
            a_pows = accumulate(repeat(a, hi - lo), mul, initial=1)
            b_pows = list(accumulate(repeat(b, hi - lo), mul, initial=1))
            scaled = map(mul, a_pows, reversed(b_pows))
            if twin is None:
                tables[i] = dict(zip(range(2 * lo, 2 * hi + 1, 2), scaled))
            else:  # the same entry in every term: fold this table into its twin's
                table = tables[twin]
                tables[twin] = dict(zip(table, map(mul, table.values(), scaled)))
        total = self.nums.values()
        for i, table in tables.items():
            total = map(mul, total, map(table.__getitem__, map(itemgetter(i), self.nums)))
        return Fraction(sum(total) * num, den)

    def with_vars(self, vars: Sequence[str]) -> "LaurentPoly":
        """Re-express over another variable set (drop unused, reorder, extend)."""
        vars = tuple(vars)
        index = {name: j for j, name in enumerate(vars)}
        out: dict[tuple[int, ...], int] = {}
        for key, num in self.nums.items():
            built = [0] * len(vars)
            for i, t in enumerate(key):
                if t == 0:
                    continue
                name = self.vars[i]
                if name not in index:
                    raise AlgebraError(f"variable {name!r} occurs but is not in the target set")
                built[index[name]] = t
            # distinct keys stay distinct: only variables at exponent 0 are dropped
            out[tuple(built)] = num
        return _raw(vars, self.den, out)

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        pieces: list[str] = []
        for key in sorted(terms):
            coeff = terms[key]
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
