"""Permutation statistics, grammatical labelings, and the statistic oracle.

Everything here is computed from the combinatorial definitions, never
through the derivative engine, so agreement between the two sides is a
meaningful check.  ``stats`` evaluates the definitions on one permutation;
the distributions over S_n come from a dynamic program over relative ranks
(``stat_counts``) that only compares integers, and is tested against the
brute-force sweep of ``stats`` over S_n.  Permutations are tuples of the
values 1..n; the boundary zeros required by the statistics are supplied
virtually.

``stats``, the two labelings, the insertion step and the consecutive-pattern
count each read one permutation.  The insertion certificates in ``checks``
rest on their locality: inserting n+1 changes only the triples around its
slot.

Statistic conventions (pi_0 = 0 on the left, pi_{n+1} = 0 on the right
where noted):

* exterior peak at 1 <= i <= n-1 (left boundary only):
  pi_{i-1} < pi_i > pi_{i+1}; pattern 132 when pi_{i-1} < pi_{i+1}
  (strict), pattern 231 when pi_{i-1} > pi_{i+1}.
* proper double descent at 2 <= i <= n-1: pi_{i-1} > pi_i > pi_{i+1}.
* peak / valley / double descent / double rise at 1 <= i <= n with both
  boundary zeros; a peak has pattern 132 when pi_{i-1} <= pi_{i+1}
  (non-strict: equality occurs only for the one-element permutation) and
  pattern 231 when pi_{i-1} > pi_{i+1}.  The two peak predicates are
  deliberately separate tests from the exterior ones.
* descents use the standard definition pi_i > pi_{i+1}, 1 <= i <= n-1.
* alternating means down-up: pi_1 > pi_2 < pi_3 > ...
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import lt
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .algebra import LaurentPoly, _raw

Perm = tuple[int, ...]

#: The variable set the weight monomials live over (matches grammar ``G``).
WEIGHT_VARS = ("x", "y", "z", "w", "u", "v")

#: Largest n a brute-force walk over S_n accepts: ``permutations`` and the
#: checks that walk S_0..S_n themselves (9! permutations take seconds, and
#: each step up multiplies that by n).  The statistic oracle is polynomial
#: time and has no cap.
WALK_CAP = 9


class EnumerationCapError(ValueError):
    """n exceeds the cap of a brute-force walk over S_n."""


class StatVector(NamedTuple):
    ep1: int
    ep2: int
    pdd: int
    p1: int
    p2: int
    dd: int
    dr: int
    valleys: int
    des: int
    alternating: bool


def check_permutation(values: Sequence[int]) -> Perm:
    """Validate and normalize a permutation of 1..n (n may be 0)."""
    perm = tuple(values)
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"{values!r} is not a permutation of 1..{len(perm)}")
    return perm


def _require_cap(n: int) -> None:
    """The one enforcement of the enumeration cap."""
    if n > WALK_CAP:
        raise EnumerationCapError(f"n={n} exceeds the enumeration cap {WALK_CAP}")


def permutations(n: int) -> Iterator[Perm]:
    """Every permutation of 1..n; n above ``WALK_CAP`` raises EnumerationCapError."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _require_cap(n)
    return itertools.permutations(range(1, n + 1))


def stats(perm: Sequence[int]) -> StatVector:
    """All tracked statistics of one permutation.

    >>> stats((5, 3, 4, 6, 2, 1))[:3]    # ep1, ep2, pdd
    (1, 1, 1)
    >>> stats((6, 5, 3, 4, 2, 1)).pdd
    2
    """
    perm = tuple(perm)
    n = len(perm)
    ep1 = ep2 = pdd = p1 = p2 = dd = dr = valleys = des = breaks = 0
    padded = (0,) + perm + (0,)  # both boundary zeros
    for i, left, mid, right in zip(range(1, n + 1), padded, perm, padded[2:]):
        interior = i < n  # right is pi_{i+1}, not the right boundary zero
        if left < mid > right:
            if left <= right:
                p1 += 1
            else:
                p2 += 1
            if interior:  # exterior statistics: left boundary zero only
                if left < right:
                    ep1 += 1
                else:
                    ep2 += 1
        elif left > mid < right:
            valleys += 1
        elif left > mid > right:
            dd += 1
            pdd += interior  # left > mid, so left is pi_{i-1} and i >= 2
        else:
            dr += 1
        if interior:
            descent = mid > right
            des += descent
            breaks += descent != (i % 2 == 1)
    return StatVector(ep1, ep2, pdd, p1, p2, dd, dr, valleys, des, breaks == 0)


# -- grammatical labelings ---------------------------------------------------


@dataclass(frozen=True)
class Labeling:
    """One variable label per position, including the appended zero."""

    labels: tuple[str, ...]
    weight: LaurentPoly


def _weight_key(exponents: Iterable[int]) -> tuple[int, ...]:
    """The ``LaurentPoly`` key of the monomial with these exponents, in the
    order of its variables (``WEIGHT_VARS`` for a weight): the doubled
    exponents."""
    return tuple([2 * e for e in exponents])


def _weight(exponents: Iterable[int]) -> LaurentPoly:
    """The monomial over ``WEIGHT_VARS`` with these exponents, in that order."""
    return _raw(WEIGHT_VARS, 1, {_weight_key(exponents): 1})  # canonical as built


def _assign(labels: list[str | None], pos: int, label: str) -> None:
    if labels[pos] is not None:
        raise AssertionError(f"position {pos + 1} labeled twice ({labels[pos]} and {label})")
    labels[pos] = label


def label_exterior(perm: Sequence[int]) -> Labeling:
    """Exterior-scheme labeling: a trailing 0 labeled z; an exterior peak of
    pattern 132 labels (pi_i, pi_{i+1}) by (x, v), pattern 231 by (u, z); a
    proper double descent labels pi_{i+1} by y; everything else gets w.

    >>> label_exterior((5, 3, 4, 6, 2, 1)).labels
    ('x', 'v', 'w', 'u', 'z', 'y', 'z')
    """
    perm = check_permutation(perm)
    labels: list[str | None] = [None] * len(perm) + ["z"]
    # i - 1 indexes pi_i for 1 <= i <= n-1; the left zero is never above pi_i,
    # so a double descent found here has i >= 2
    for i, left, mid, right in zip(itertools.count(1), (0,) + perm, perm, perm[1:]):
        if left < mid > right:
            if left < right:
                _assign(labels, i - 1, "x")
                _assign(labels, i, "v")
            else:
                _assign(labels, i - 1, "u")
                _assign(labels, i, "z")
        elif left > mid > right:
            _assign(labels, i, "y")
    filled = tuple([label or "w" for label in labels])
    return Labeling(filled, _weight(map(filled.count, WEIGHT_VARS)))


def label_peak(perm: Sequence[int]) -> Labeling:
    """Peak-scheme labeling with both boundary zeros: a peak of pattern 132
    labels (pi_i, pi_{i+1}) by (x, v), pattern 231 by (u, z); a double
    descent labels pi_{i+1} by y; a double rise labels pi_i by w.  Every
    position 1..n+1 receives exactly one label.

    >>> label_peak((2, 1)).labels
    ('x', 'v', 'y')
    """
    perm = check_permutation(perm)
    n = len(perm)
    if n < 1:
        raise ValueError("peak-scheme labeling needs a nonempty permutation")
    labels: list[str | None] = [None] * (n + 1)
    padded = (0,) + perm + (0,)  # both boundary zeros
    for i, left, mid, right in zip(itertools.count(1), padded, perm, padded[2:]):
        if left < mid > right:
            if left <= right:
                _assign(labels, i - 1, "x")
                _assign(labels, i, "v")
            else:
                _assign(labels, i - 1, "u")
                _assign(labels, i, "z")
        elif left > mid > right:
            _assign(labels, i, "y")
        elif left < mid < right:
            _assign(labels, i - 1, "w")
    if None in labels:
        raise AssertionError(f"peak labeling left a position unlabeled for {perm}")
    filled = tuple(labels)  # type: ignore[arg-type]
    return Labeling(filled, _weight(map(filled.count, WEIGHT_VARS)))


def _exterior_w(s: StatVector, n: int) -> int:
    """Positions of a permutation of [n] labeled w in the exterior scheme."""
    return n - 2 * (s.ep1 + s.ep2) - s.pdd


# -- insertion and consecutive patterns --------------------------------------


def insertion_children(perm: Sequence[int]) -> list[Perm]:
    """All permutations of [n+1] obtained by inserting n+1 into each slot,
    left to right (the last slot is just before the virtual trailing zero).

    >>> insertion_children((2, 1))
    [(3, 2, 1), (2, 3, 1), (2, 1, 3)]
    """
    perm = check_permutation(perm)
    new = len(perm) + 1
    return [perm[:i] + (new,) + perm[i:] for i in range(new)]


#: The positions of each valid pattern seen, in the order it ranks them.
_PATTERN_ORDERS: dict[tuple[int, ...], list[int]] = {}


def consecutive_count(perm: Sequence[int], pattern: Sequence[int]) -> int:
    """Number of adjacent windows order-isomorphic to the pattern: read in
    the order the pattern ranks its positions, a window's values increase.

    >>> consecutive_count((1, 2, 3, 4, 5, 6), (1, 2))
    5
    """
    key = tuple(pattern)
    order = _PATTERN_ORDERS.get(key)
    if order is None:  # validate and rank each distinct pattern once
        pattern = check_permutation(pattern)
        if not pattern:
            raise ValueError("empty pattern")
        order = _PATTERN_ORDERS[key] = sorted(range(len(pattern)), key=pattern.__getitem__)
    perm = tuple(perm)
    last = max(len(perm) - len(order) + 1, 0)  # number of windows
    # column j lists, window by window, the value at the j-th ranked position
    columns = [perm[k:last + k] for k in order]
    rises = [map(lt, low, high) for low, high in zip(columns, columns[1:])]
    return sum(map(all, zip(*rises))) if rises else last


def involution_count(n: int) -> int:
    """Number of self-inverse permutations of [n], by direct check."""
    count = 0
    for perm in permutations(n):
        # most permutations already fail at position 1
        if not perm or perm[perm[0] - 1] == 1 and all(perm[perm[i] - 1] == i + 1
                                                      for i in range(1, n)):
            count += 1
    return count


# -- the statistic oracle ----------------------------------------------------
#
# Every count in a StatVector is a sum over positions i of a function of the
# triple (pi_{i-1}, pi_i, pi_{i+1}), and ``alternating`` asks each descent
# to fall at the right parity.  So the distribution over S_n follows from a
# left-to-right transfer over relative ranks, the consecutive-pattern method
# of Elizalde & Noy (Consecutive patterns in permutations, Adv. Appl. Math.
# 2003).  After k values are placed, m = n - k are unplaced; ``below``
# counts those smaller than pi_k and ``below_prev`` those smaller than
# pi_{k-1}.  Placing the r-th smallest unplaced value next is a descent
# exactly when r < below.  Three facts keep a layer to O(m) maps of packed
# vectors, and its transfer to O(m) merges:
#
# 1. After a descent (pi_{k-1} > pi_k) the next triple is a double descent
#    or a valley, and neither compares pi_{k-1} with pi_{k+1}: a falling
#    state keeps only ``below``.  F[b] holds the falling states with below
#    = b, for b in 0..m.
# 2. After an ascent the map depends only on q = below_prev: every rank
#    r >= q reached it from the same sources, the states with below = q, by
#    the same step (a valley or a double rise).  So one map X[q] stands for
#    the m - q + 1 rising states with below in q..m.  The virtual left zero
#    is q = 0: no value lies below it, so a peak at pi_1 is of pattern 132.
# 3. Alternation is a flag, not a count: a vector carries the ``_BREAK``
#    bit once a descent or an ascent has fallen at the wrong parity, so
#    vectors that differ only in how often alternation broke are one.
#
# With ``S.D`` for the map D with every packed vector shifted by the step S,
# and FD = _DD+_PDD+_DES, P231 = _EP2+_P2+_DES, P132 = _EP1+_P1+_DES for a
# double descent and the two peaks, placing rank r gives the next layer:
#
#   F'[r] = FD.sum_{b>r} F[b] + P231.sum_{q>r} (m-q+1) X[q]
#           + P132.(m-r) sum_{q<=r} X[q]
#   X'[r] = VALLEY.F[r] + DR.sum_{q<=r} X[q]
#
# (X[q] stands for rising states with below in q..m, and those with below
# > r descend to rank r: m-q+1 of them for q > r, m-r for q <= r.)  One
# pass down over r and one up, each keeping its running sums, give every
# target.
#
# A partial statistic vector is packed into one int, a field per count in
# StatVector order and a last field for the broken-alternation flag, so
# extending a prefix adds one int.

_FIELD = 16  # bits per count; every count is at most n
_EP1, _EP2, _PDD, _P1, _P2, _DD, _DR, _VALLEY, _DES, _BREAK = (
    1 << (_FIELD * i) for i in range(10))
_FD, _P231, _P132 = _DD + _PDD + _DES, _EP2 + _P2 + _DES, _EP1 + _P1 + _DES

_STAT_COUNTS: dict[int, dict[StatVector, int]] = {}


def _unpack(packed: int) -> StatVector:
    mask = (1 << _FIELD) - 1
    fields = [(packed >> (_FIELD * i)) & mask for i in range(10)]
    return StatVector(*fields[:9], alternating=fields[9] == 0)


def _merge(target: dict[int, int], source: Mapping[int, int], step: int, weight: int,
           broken: int) -> None:
    """Add ``weight`` times ``source`` into ``target``, each packed vector
    shifted by ``step`` and or-ed with ``broken`` (0 or ``_BREAK``)."""
    get = target.get
    for packed, count in source.items():
        packed = packed + step | broken
        target[packed] = get(packed, 0) + weight * count


def _transfer(n: int) -> dict[StatVector, int]:
    """Multiplicity of each statistic vector over S_n, by the rank transfer."""
    if n == 0:
        return {stats(()): 1}
    # F = falling and X = rising with pi_1 placed: every pi_1 rises from the zero
    falling: list[dict[int, int]] = [{} for _ in range(n)]
    rising: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n - 1)]
    for k in range(1, n):  # place pi_{k+1}: the triple centred at pi_k
        m = n - k
        # down-up: a descent keeps alternation at an odd k, an ascent at an even k
        fall_broken, rise_broken = (0, _BREAK) if k % 2 else (_BREAK, 0)
        fell: list[dict[int, int]] = []  # F'[m-1], ..., F'[0]
        down: dict[int, int] = {}  # the FD and P231 terms of F'[r]
        for r in range(m - 1, -1, -1):
            _merge(down, falling[r + 1], _FD, 1, fall_broken)
            _merge(down, rising[r + 1], _P231, m - r, fall_broken)
            fell.append(dict(down))
        fell.reverse()
        rose: list[dict[int, int]] = []
        peak: dict[int, int] = {}  # P132.sum_{q<=r} X[q]
        rise: dict[int, int] = {}  # DR.sum_{q<=r} X[q]
        for r in range(m):
            _merge(peak, rising[r], _P132, 1, fall_broken)
            _merge(rise, rising[r], _DR, 1, rise_broken)
            _merge(fell[r], peak, 0, m - r, 0)
            target = dict(rise)
            _merge(target, falling[r], _VALLEY, 1, rise_broken)
            rose.append(target)
        falling, rising = fell, rose
    counts: dict[StatVector, int] = {}
    # the triple centred at n meets the right boundary zero: a double descent
    # or a peak, of pattern 132 only when pi_{n-1} is the left zero (n = 1)
    for vectors, step in ((falling[0], _DD), (rising[0], _P1 if n == 1 else _P2)):
        for packed, count in vectors.items():
            s = _unpack(packed + step)
            counts[s] = counts.get(s, 0) + count
    return counts


def stat_counts(n: int) -> Mapping[StatVector, int]:
    """Multiplicity of each statistic vector over S_n, as a read-only view
    of the per-n cache."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n not in _STAT_COUNTS:
        _STAT_COUNTS[n] = _transfer(n)
    return MappingProxyType(_STAT_COUNTS[n])


class _Distribution(NamedTuple):
    vars: tuple[str, ...]
    first_n: int
    #: Exponents of one statistic vector of S_n, or None to leave it out.
    exponents: Callable[[StatVector, int], "tuple[int, ...] | None"]


_DISTRIBUTIONS = {
    "P": _Distribution(WEIGHT_VARS, 0, lambda s, n: (
        s.ep1, s.pdd, s.ep2 + 1, _exterior_w(s, n), s.ep2, s.ep1)),
    "Q": _Distribution(WEIGHT_VARS, 1, lambda s, n: (s.p1, s.dd, s.p2, s.dr, s.p2, s.p1)),
    "W": _Distribution(WEIGHT_VARS, 1, lambda s, n: (s.p1, s.dd, s.valleys + 1, s.dr, s.p2, 0)),
    "T": _Distribution(("x", "y"), 0, lambda s, n: (s.ep1, s.ep2)),
    "L": _Distribution(("x",), 0, lambda s, n: (s.ep2 + s.pdd,)),
    "U": _Distribution(("y",), 0, lambda s, n: (s.pdd,)),
    "F": _Distribution(("x", "y", "z", "w"), 1,
                       lambda s, n: (s.p1 + s.p2 - 1, s.dd, s.valleys, s.dr)),
    "TA": _Distribution(("x", "y"), 0, lambda s, n: (s.ep1, s.ep2) if s.alternating else None),
    "Tbar": _Distribution(("x",), 0, lambda s, n: (s.ep1,)),
    "Ttilde": _Distribution(("y",), 0, lambda s, n: (s.ep2,)),
    "Eulerian": _Distribution(("x",), 0, lambda s, n: (s.des,)),
    "Gessel-T": _Distribution(("x",), 0, lambda s, n: (s.ep1 + s.ep2,)),
    "Fu": _Distribution(("x", "y", "z", "w"), 0, lambda s, n: (
        s.ep1 + s.ep2, s.pdd, s.ep1 + s.ep2 + 1, _exterior_w(s, n))),
}

ENUMERATED_FAMILIES = tuple(name for name, dist in _DISTRIBUTIONS.items()
                            if dist.vars == WEIGHT_VARS)
SPECIALIZED_TARGETS = tuple(name for name in _DISTRIBUTIONS if name not in ENUMERATED_FAMILIES)
TRIANGLE_TARGETS = tuple(name for name in SPECIALIZED_TARGETS
                         if len(_DISTRIBUTIONS[name].vars) == 1)


#: Each distribution polynomial projected, keyed by (row, n), with the S_n
#: counts it was projected from: a rebound row, or replaced counts, misses.
_PROJECTIONS: dict[tuple[_Distribution, int], tuple[dict[StatVector, int], LaurentPoly]] = {}


def _distribution(kind: str, name: str, n: int) -> LaurentPoly:
    """Sum over S_n of the monomials the table gives ``name``, projected
    once per row and n."""
    dist = _DISTRIBUTIONS[name]
    if dist.first_n and n < dist.first_n:  # stat_counts rejects negative n itself
        raise ValueError(f"{kind} {name} is defined for n >= {dist.first_n}")
    cached = _PROJECTIONS.get((dist, n))
    if cached is not None and cached[0] is _STAT_COUNTS.get(n):
        return cached[1]
    counts = stat_counts(n)
    # the count of each exponent tuple; None collects the vectors the row leaves out
    grouped: dict[tuple[int, ...] | None, int] = {}
    get = grouped.get
    for exps, count in zip(map(dist.exponents, counts, itertools.repeat(n)), counts.values()):
        grouped[exps] = get(exps, 0) + count
    grouped.pop(None, None)
    poly = _raw(dist.vars, 1, {_weight_key(exps): count for exps, count in grouped.items()})
    _PROJECTIONS[dist, n] = _STAT_COUNTS[n], poly
    return poly


def enumerate_poly(n: int, family: str) -> LaurentPoly:
    """Exact sum of weights over S_n for the P, Q, or W family.

    P is the exterior-scheme distribution (n >= 0), Q the peak-scheme one
    (n >= 1), and W the peak scheme with the valley count in the z slot
    (n >= 1).  All three live over the six weight variables.
    """
    if family not in ENUMERATED_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {ENUMERATED_FAMILIES}")
    return _distribution("family", family, n)


def specialized_poly(n: int, target: str) -> LaurentPoly:
    """Specialized distribution polynomials, each over its own variables.

    T       joint exterior peaks of pattern 132 (x) and 231 (y)
    L       total of exterior 231-peaks and proper double descents (x)
    U       proper double descents (y)
    F       peaks-1 (x), valleys (z), double descents (y), double rises (w); n >= 1
    TA      T restricted to alternating permutations
    Tbar    exterior 132-peaks alone; Ttilde: exterior 231-peaks alone
    Eulerian  descents (x)
    Gessel-T  exterior peaks regardless of pattern (x)
    Fu      exterior peaks (x, paired z) and proper double descents (y)
    """
    if target not in SPECIALIZED_TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {SPECIALIZED_TARGETS}")
    return _distribution("target", target, n)


def triangle(target: str, n_max: int) -> list[list[int]]:
    """Integer triangle of a univariate target: row n lists the counts for
    k = 0..deg, rows n = 0..n_max."""
    if target not in TRIANGLE_TARGETS:
        raise ValueError(f"target {target!r} is not univariate; expected one of {TRIANGLE_TARGETS}")
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    rows: list[list[int]] = []
    for n in range(n_max + 1):
        poly = specialized_poly(n, target)
        degree = max((key[0] // 2 for key in poly.terms), default=0)
        row = [int(poly.coeff({poly.vars[0]: k})) for k in range(degree + 1)]
        rows.append(row)
    return rows
