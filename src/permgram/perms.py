"""Permutation statistics, grammatical labelings, and exhaustive oracles.

Everything here is computed straight from the combinatorial definitions by
sweeping S_n, never through the derivative engine, so agreement between the
two sides is a meaningful check.  Permutations are tuples of the values
1..n; the boundary zeros required by the statistics are supplied virtually.

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
  deliberately separate code paths from the exterior ones.
* descents use the standard definition pi_i > pi_{i+1}, 1 <= i <= n-1.
* alternating means down-up: pi_1 > pi_2 < pi_3 > ...
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

from .algebra import LaurentPoly

Perm = tuple[int, ...]

#: The variable set the weight monomials live over (matches grammar ``G``).
WEIGHT_VARS = ("x", "y", "z", "w", "u", "v")

#: Largest n enumerated by default; 9! permutations stay sub-10s in CPython.
DEFAULT_CAP = 9

ENUMERATED_FAMILIES = ("P", "Q", "W")
SPECIALIZED_TARGETS = (
    "T", "L", "U", "F", "TA", "Tbar", "Ttilde", "Eulerian", "Gessel-T", "Fu",
)
TRIANGLE_TARGETS = ("L", "U", "Tbar", "Ttilde", "Eulerian", "Gessel-T")


class EnumerationCapError(ValueError):
    """n exceeds the configured enumeration cap."""


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


def permutations(n: int) -> Iterator[Perm]:
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
    ep1 = ep2 = pdd = 0
    for i in range(1, n):  # exterior statistics: left boundary zero only
        left = perm[i - 2] if i >= 2 else 0
        mid = perm[i - 1]
        right = perm[i]
        if left < mid > right:
            if left < right:
                ep1 += 1
            else:
                ep2 += 1
    for i in range(2, n):
        if perm[i - 2] > perm[i - 1] > perm[i]:
            pdd += 1
    p1 = p2 = dd = dr = valleys = 0
    for i in range(1, n + 1):  # both boundary zeros
        left = perm[i - 2] if i >= 2 else 0
        mid = perm[i - 1]
        right = perm[i] if i < n else 0
        if left < mid > right:
            if left <= right:
                p1 += 1
            else:
                p2 += 1
        elif left > mid < right:
            valleys += 1
        elif left > mid > right:
            dd += 1
        else:
            dr += 1
    des = sum(perm[i] > perm[i + 1] for i in range(n - 1))
    alternating = all((perm[i] > perm[i + 1]) == (i % 2 == 0) for i in range(n - 1))
    return StatVector(ep1, ep2, pdd, p1, p2, dd, dr, valleys, des, alternating)


# -- grammatical labelings ---------------------------------------------------


@dataclass(frozen=True)
class Labeling:
    """One variable label per position, including the appended zero."""

    labels: tuple[str, ...]
    weight: LaurentPoly


def _weight_from_labels(labels: Sequence[str]) -> LaurentPoly:
    counts = Counter(labels)
    return LaurentPoly.monomial(WEIGHT_VARS, {name: counts.get(name, 0) for name in WEIGHT_VARS})


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
    n = len(perm)
    labels: list[str | None] = [None] * n + ["z"]
    for i in range(1, n):
        left = perm[i - 2] if i >= 2 else 0
        mid, right = perm[i - 1], perm[i]
        if left < mid > right:
            if left < right:
                _assign(labels, i - 1, "x")
                _assign(labels, i, "v")
            else:
                _assign(labels, i - 1, "u")
                _assign(labels, i, "z")
    for i in range(2, n):
        if perm[i - 2] > perm[i - 1] > perm[i]:
            _assign(labels, i, "y")
    filled = tuple(label if label is not None else "w" for label in labels)
    return Labeling(filled, _weight_from_labels(filled))


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
    for i in range(1, n + 1):
        left = perm[i - 2] if i >= 2 else 0
        mid = perm[i - 1]
        right = perm[i] if i < n else 0
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
    if any(label is None for label in labels):
        raise AssertionError(f"peak labeling left a position unlabeled for {perm}")
    filled = tuple(labels)  # type: ignore[arg-type]
    return Labeling(filled, _weight_from_labels(filled))


def exterior_weight(perm: Sequence[int]) -> LaurentPoly:
    """Weight monomial of the exterior scheme, straight from the statistics."""
    s = stats(perm)
    n = len(tuple(perm))
    return LaurentPoly.monomial(WEIGHT_VARS, {
        "x": s.ep1, "v": s.ep1, "u": s.ep2, "z": s.ep2 + 1,
        "y": s.pdd, "w": n - 2 * (s.ep1 + s.ep2) - s.pdd,
    })


def peak_weight(perm: Sequence[int]) -> LaurentPoly:
    """Weight monomial of the peak scheme, straight from the statistics."""
    s = stats(perm)
    return LaurentPoly.monomial(WEIGHT_VARS, {
        "x": s.p1, "v": s.p1, "u": s.p2, "z": s.p2, "y": s.dd, "w": s.dr,
    })


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


def reduction(window: Sequence[int]) -> Perm:
    """Order-reduction of a window onto 1..m."""
    ranking = sorted(window)
    return tuple(ranking.index(value) + 1 for value in window)


def consecutive_count(perm: Sequence[int], pattern: Sequence[int]) -> int:
    """Number of adjacent windows whose reduction equals the pattern.

    >>> consecutive_count((1, 2, 3, 4, 5, 6), (1, 2))
    5
    """
    pattern = check_permutation(pattern)
    m = len(pattern)
    if m == 0:
        raise ValueError("empty pattern")
    perm = tuple(perm)
    return sum(
        reduction(perm[i:i + m]) == pattern
        for i in range(len(perm) - m + 1)
    )


def involution_count(n: int) -> int:
    """Number of self-inverse permutations of [n], by direct check."""
    count = 0
    for perm in permutations(n):
        if all(perm[perm[i] - 1] == i + 1 for i in range(n)):
            count += 1
    return count


# -- exhaustive distributions -------------------------------------------------

_STAT_COUNTS: dict[int, Counter] = {}


def _sweep(n: int) -> Counter:
    counts: Counter = Counter()
    for perm in permutations(n):
        counts[stats(perm)] += 1
    return counts


def _sweep_with_first(args: tuple[int, int]) -> Counter:
    n, first = args
    counts: Counter = Counter()
    rest = [k for k in range(1, n + 1) if k != first]
    for tail in itertools.permutations(rest):
        counts[stats((first,) + tail)] += 1
    return counts


def stat_counts(n: int, cap: int = DEFAULT_CAP, jobs: int = 1) -> Mapping[StatVector, int]:
    """Multiplicity of each statistic vector over S_n (cached per n).

    ``jobs > 1`` partitions S_n by first element across processes; the
    merge is a commutative sum, so the result is independent of order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise EnumerationCapError(
            f"n={n} exceeds the enumeration cap {cap}; raise the cap explicitly "
            "to spend the runtime")
    if n not in _STAT_COUNTS:
        if jobs > 1 and n >= 2:
            merged: Counter = Counter()
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for part in pool.map(_sweep_with_first, [(n, f) for f in range(1, n + 1)]):
                    merged.update(part)
            _STAT_COUNTS[n] = merged
        else:
            _STAT_COUNTS[n] = _sweep(n)
    return _STAT_COUNTS[n]


def enumerate_poly(n: int, family: str, cap: int = DEFAULT_CAP, jobs: int = 1) -> LaurentPoly:
    """Exact sum of weights over S_n for the P, Q, or W family.

    P is the exterior-scheme distribution (n >= 0), Q the peak-scheme one
    (n >= 1), and W the peak scheme with the valley count in the z slot
    (n >= 1).  All three live over the six weight variables.
    """
    if family not in ENUMERATED_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {ENUMERATED_FAMILIES}")
    if family in ("Q", "W") and n < 1:
        raise ValueError(f"family {family} is defined for n >= 1")
    terms: dict[tuple[int, ...], Fraction] = {}
    for s, count in stat_counts(n, cap, jobs).items():
        if family == "P":
            exps = (s.ep1, s.pdd, s.ep2 + 1, n - 2 * (s.ep1 + s.ep2) - s.pdd, s.ep2, s.ep1)
        elif family == "Q":
            exps = (s.p1, s.dd, s.p2, s.dr, s.p2, s.p1)
        else:
            exps = (s.p1, s.dd, s.valleys + 1, s.dr, s.p2, 0)
        key = tuple(2 * e for e in exps)
        terms[key] = terms.get(key, Fraction(0)) + count
    return LaurentPoly(WEIGHT_VARS, terms)


_TARGET_VARS = {
    "T": ("x", "y"),
    "L": ("x",),
    "U": ("y",),
    "F": ("x", "y", "z", "w"),
    "TA": ("x", "y"),
    "Tbar": ("x",),
    "Ttilde": ("y",),
    "Eulerian": ("x",),
    "Gessel-T": ("x",),
    "Fu": ("x", "y", "z", "w"),
}


def specialized_poly(n: int, target: str, cap: int = DEFAULT_CAP, jobs: int = 1) -> LaurentPoly:
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
    if target not in _TARGET_VARS:
        raise ValueError(f"unknown target {target!r}; expected one of {SPECIALIZED_TARGETS}")
    if target == "F" and n < 1:
        raise ValueError("target F is defined for n >= 1")
    vars = _TARGET_VARS[target]
    terms: dict[tuple[int, ...], Fraction] = {}
    for s, count in stat_counts(n, cap, jobs).items():
        if target == "T":
            key = (2 * s.ep1, 2 * s.ep2)
        elif target == "L":
            key = (2 * (s.ep2 + s.pdd),)
        elif target == "U":
            key = (2 * s.pdd,)
        elif target == "F":
            key = (2 * (s.p1 + s.p2 - 1), 2 * s.dd, 2 * s.valleys, 2 * s.dr)
        elif target == "TA":
            if not s.alternating:
                continue
            key = (2 * s.ep1, 2 * s.ep2)
        elif target == "Tbar":
            key = (2 * s.ep1,)
        elif target == "Ttilde":
            key = (2 * s.ep2,)
        elif target == "Eulerian":
            key = (2 * s.des,)
        elif target == "Gessel-T":
            key = (2 * (s.ep1 + s.ep2),)
        else:  # Fu
            ep = s.ep1 + s.ep2
            key = (2 * ep, 2 * s.pdd, 2 * (ep + 1), 2 * (n - 2 * ep - s.pdd))
        terms[key] = terms.get(key, Fraction(0)) + count
    return LaurentPoly(vars, terms)


def triangle(target: str, n_max: int, cap: int = DEFAULT_CAP) -> list[list[int]]:
    """Integer triangle of a univariate target: row n lists the counts for
    k = 0..deg, rows n = 0..n_max."""
    if target not in TRIANGLE_TARGETS:
        raise ValueError(f"target {target!r} is not univariate; expected one of {TRIANGLE_TARGETS}")
    rows: list[list[int]] = []
    for n in range(n_max + 1):
        poly = specialized_poly(n, target, cap)
        degree = max((key[0] // 2 for key in poly.terms), default=0)
        row = [int(poly.coeff({poly.vars[0]: k})) for k in range(degree + 1)]
        rows.append(row)
    return rows
