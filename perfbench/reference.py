"""Reference values computed apart from permgram.

Every function here derives its numbers from a textbook formula or a
recurrence, never from permgram, so the workload checks compare the
program against an independent computation.  ``self_test`` checks these
formulas against brute force over S_n at small n.
"""

from __future__ import annotations

import itertools
import math


def eulerian(n: int, k: int) -> int:
    """Permutations of [n] with k descents, by the explicit alternating sum."""
    return sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))


def eulerian_row(n: int) -> list[int]:
    return [eulerian(n, k) for k in range(max(n, 1))]


def zigzag(n_max: int) -> list[int]:
    """Euler zigzag numbers E_0..E_n_max by the Seidel-Entringer triangle."""
    values = [1]
    row = [1]
    for _ in range(n_max):
        nxt = [0]
        for value in reversed(row):
            nxt.append(nxt[-1] + value)
        row = nxt
        values.append(row[-1])
    return values


def involutions(n_max: int) -> list[int]:
    """Involution numbers by a(n) = a(n-1) + (n-1) a(n-2)."""
    values = [1, 1]
    for n in range(2, n_max + 1):
        values.append(values[n - 1] + (n - 1) * values[n - 2])
    return values[: n_max + 1]


def pcf_closed_form(a: int, z: float) -> float:
    """D_a(z) for a in {-1, 0, 1} from its elementary closed form."""
    if a == 0:
        return math.exp(-z * z / 4)
    if a == 1:
        return z * math.exp(-z * z / 4)
    if a == -1:
        return math.sqrt(math.pi / 2) * math.exp(z * z / 4) * math.erfc(z / math.sqrt(2))
    raise ValueError(f"no closed form for order {a}")


def _pcf_minus_one_by_quadrature(z: float, steps: int = 4000) -> float:
    """D_{-1}(z) = e^{-z^2/4} int_0^inf e^{-zs - s^2/2} ds, Simpson's rule on [0, 12]."""
    h = 12.0 / steps
    total = 0.0
    for i in range(steps + 1):
        s = i * h
        weight = 1 if i in (0, steps) else (4 if i % 2 else 2)
        total += weight * math.exp(-z * s - s * s / 2)
    return math.exp(-z * z / 4) * total * h / 3


def _brute(n: int) -> tuple[list[int], int, int]:
    """(descent counts by k, down-up alternating count, involution count) over S_n."""
    by_descents = [0] * max(n, 1)
    alternating = involution_count = 0
    for perm in itertools.permutations(range(n)):
        by_descents[sum(perm[i] > perm[i + 1] for i in range(n - 1))] += 1
        if all((perm[i] > perm[i + 1]) == (i % 2 == 0) for i in range(n - 1)):
            alternating += 1
        if all(perm[perm[i]] == i for i in range(n)):
            involution_count += 1
    return by_descents, alternating, involution_count


def self_test(n_max: int = 7) -> list[str]:
    """Errors found when checking the reference formulas against brute force."""
    errors = []
    zz, inv = zigzag(n_max), involutions(n_max)
    for n in range(n_max + 1):
        by_descents, alternating, involution_count = _brute(n)
        if eulerian_row(n) != by_descents:
            errors.append(f"reference Eulerian row {n}: {eulerian_row(n)} != {by_descents}")
        if zz[n] != alternating:
            errors.append(f"reference zigzag E_{n}: {zz[n]} != {alternating}")
        if inv[n] != involution_count:
            errors.append(f"reference involutions a({n}): {inv[n]} != {involution_count}")
    for z in (-1.0, 0.0, 1.5, 3.0):
        want = _pcf_minus_one_by_quadrature(z)
        if abs(pcf_closed_form(-1, z) - want) > 1e-9 * want:
            errors.append(f"reference D_-1({z}): closed form disagrees with quadrature")
    return errors
