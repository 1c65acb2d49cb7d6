"""Statistics, labelings, and the exhaustive enumeration oracles."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from collections import Counter
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permgram import perms as perms_module
from permgram.algebra import LaurentPoly, parse_poly
from permgram.checks import run_check
from permgram.grammar import builtin, gen_coeffs
from permgram.perms import (_BREAK, _DD, _DES, _DR, _EP1, _EP2, _P1, _P2, _PDD, _VALLEY,
                            _unpack, WALK_CAP, EnumerationCapError, consecutive_count,
                            enumerate_poly, insertion_children, involution_count,
                            label_exterior, label_peak, permutations,
                            specialized_poly, stat_counts, stats,
                            triangle, check_permutation, Perm, StatVector)

VARS = ("x", "y", "z", "w", "u", "v")


def test_check_permutation():
    assert check_permutation([2, 1]) == (2, 1)
    assert check_permutation(()) == ()
    with pytest.raises(ValueError):
        check_permutation((1, 3))
    with pytest.raises(ValueError):
        check_permutation((1, 1))


def test_stats_worked_examples():
    s = stats((5, 3, 4, 6, 2, 1))
    assert (s.ep1, s.ep2) == (1, 1)          # exterior peaks at 1 (132) and 4 (231)
    assert stats((6, 5, 3, 4, 2, 1)).pdd == 2  # proper double descents at 2 and 5
    s = stats((4, 3, 5, 6, 7, 2, 1))
    assert (s.p1 + s.p2, s.valleys, s.dr, s.dd) == (2, 1, 2, 2)
    assert stats(()).alternating and stats((1,)).alternating
    assert stats((2, 1, 3)).alternating and not stats((1, 2, 3)).alternating
    # the single peak of the one-element permutation has pattern 132 (0 <= 0)
    assert stats((1,)).p1 == 1 and stats((1,)).p2 == 0


def test_stats_bounds_exhaustive():
    for n in range(7):
        for perm in permutations(n):
            s = stats(perm)
            assert s.ep1 + s.ep2 <= n // 2
            assert 2 * (s.ep1 + s.ep2) + s.pdd <= n
            if n >= 1:
                assert s.p1 + s.p2 == s.valleys + 1


def test_label_exterior_worked_example():
    labeling = label_exterior((5, 3, 4, 6, 2, 1))
    assert labeling.labels == ("x", "v", "w", "u", "z", "y", "z")
    assert labeling.weight == parse_poly("x*y*z^2*w*u*v", VARS)


def test_label_exterior_empty():
    labeling = label_exterior(())
    assert labeling.labels == ("z",)
    assert labeling.weight == parse_poly("z", VARS)


def test_label_peak_small_cases():
    assert label_peak((2, 1)).labels == ("x", "v", "y")
    assert label_peak((2, 1)).weight == parse_poly("x*v*y", VARS)
    assert label_peak((1,)).labels == ("x", "v")
    with pytest.raises(ValueError):
        label_peak(())


def test_labelings_consistent_with_weight_formulas():
    for n in range(7):
        for perm in permutations(n):
            assert label_exterior(perm).weight == reference_exterior_weight(perm)
            if n >= 1:
                assert label_peak(perm).weight == reference_peak_weight(perm)


def test_labeling_totality_and_consistency_n8():
    # the peak labeling assigns every position exactly one label and its
    # product matches the weight formula on all of S_8
    for perm in permutations(8):
        assert label_peak(perm).weight == reference_peak_weight(perm)


def test_insertion_children():
    assert insertion_children(()) == [(1,)]
    assert insertion_children((2, 1)) == [(3, 2, 1), (2, 3, 1), (2, 1, 3)]


def test_insertion_matches_derivative():
    g = builtin("G")
    for n in range(5):
        for perm in permutations(n):
            total = parse_poly("0", VARS)
            for child in insertion_children(perm):
                total = total + label_exterior(child).weight
            assert total == g.derive(label_exterior(perm).weight)


def test_consecutive_counts():
    assert consecutive_count((1, 2, 3, 4, 5, 6), (1, 2)) == 5
    assert consecutive_count((3, 2, 1), (3, 2, 1)) == 1
    assert consecutive_count((1, 2), (1, 2, 3)) == 0
    with pytest.raises(ValueError):
        consecutive_count((1, 2), ())


def test_consecutive_identity_matches_stats():
    for n in range(6):
        for perm in permutations(n):
            s = stats(perm)
            total = consecutive_count(perm, (2, 3, 1)) + consecutive_count(perm, (3, 2, 1))
            assert total == s.ep2 + s.pdd


# -- the slow definitions the one-pass code replaces ---------------------------
#
# ``reference_stats`` is the three-pass ``stats`` and the two functions after
# it are the reduction-based ``consecutive_count``, kept verbatim as the
# definitions the fast paths are tested against.


def reference_stats(perm: Sequence[int]) -> StatVector:
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


def reference_reduction(window: Sequence[int]) -> Perm:
    """Order-reduction of a window onto 1..m."""
    ranking = sorted(window)
    return tuple(ranking.index(value) + 1 for value in window)


def reference_consecutive_count(perm: Sequence[int], pattern: Sequence[int]) -> int:
    pattern = check_permutation(pattern)
    m = len(pattern)
    if m == 0:
        raise ValueError("empty pattern")
    perm = tuple(perm)
    return sum(
        reference_reduction(perm[i:i + m]) == pattern
        for i in range(len(perm) - m + 1)
    )


PATTERNS = [pattern for m in range(1, 5) for pattern in itertools.permutations(range(1, m + 1))]


def assert_matches_the_definitions(perm):
    assert stats(perm) == reference_stats(perm), perm
    for pattern in PATTERNS:
        assert consecutive_count(perm, pattern) == reference_consecutive_count(perm, pattern), \
            (perm, pattern)


def test_one_pass_definitions_match_the_references_exhaustively():
    for n in range(8):
        for perm in permutations(n):
            assert_matches_the_definitions(perm)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 16).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_one_pass_definitions_match_the_references(perm):
    assert_matches_the_definitions(tuple(perm))


def test_long_permutations_match_the_per_permutation_code():
    # past the exhaustive tests' reach, against the weight formulas read from ``stats``
    rng = random.Random(3)
    for n in (127, 128, 300):
        shuffled = list(range(1, n + 1))
        rng.shuffle(shuffled)
        for perm in (tuple(range(1, n + 1)), tuple(range(n, 0, -1)), tuple(shuffled)):
            assert label_exterior(perm).weight == reference_exterior_weight(perm)
            assert label_peak(perm).weight == reference_peak_weight(perm)


@pytest.mark.parametrize("function, values", [
    (label_exterior, (1, 3)), (label_peak, [2, 2]), (insertion_children, (0,)),
    (label_exterior, (1, 1, 2))])
def test_the_exported_kernels_reject_a_non_permutation(function, values):
    with pytest.raises(ValueError) as raised:
        function(values)
    assert str(raised.value) == f"{values!r} is not a permutation of 1..{len(values)}"


def test_a_position_labeled_twice_raises():
    # the labelings' guard: a double descent that labeled pi_i, not pi_{i+1},
    # would label the position after a peak a second time
    labels = [None, "v", None]
    with pytest.raises(AssertionError, match=r"^position 2 labeled twice \(v and y\)$"):
        perms_module._assign(labels, 1, "y")
    assert labels == [None, "v", None]


# The weight monomials of the two schemes, keyed by variable name rather than
# read from the P and Q rows of the distribution table.
WEIGHT_VARS = perms_module.WEIGHT_VARS
_exterior_w = perms_module._exterior_w


def reference_exterior_weight(perm: Sequence[int]) -> LaurentPoly:
    """Weight monomial of the exterior scheme, straight from the statistics."""
    s = stats(perm)
    n = len(tuple(perm))
    return LaurentPoly.monomial(WEIGHT_VARS, {
        "x": s.ep1, "v": s.ep1, "u": s.ep2, "z": s.ep2 + 1,
        "y": s.pdd, "w": _exterior_w(s, n),
    })


def reference_peak_weight(perm: Sequence[int]) -> LaurentPoly:
    """Weight monomial of the peak scheme, straight from the statistics."""
    s = stats(perm)
    return LaurentPoly.monomial(WEIGHT_VARS, {
        "x": s.p1, "v": s.p1, "u": s.p2, "z": s.p2, "y": s.dd, "w": s.dr,
    })


def table_weight(row: str, perm: Perm) -> LaurentPoly:
    exponents = perms_module._DISTRIBUTIONS[row].exponents(stats(perm), len(perm))
    return perms_module._weight(exponents)


def test_table_weights_match_the_name_keyed_references():
    for n in range(8):
        for perm in permutations(n):
            assert table_weight("P", perm) == reference_exterior_weight(perm), perm
            if n >= 1:
                assert table_weight("Q", perm) == reference_peak_weight(perm), perm


def test_label_weights_match_counter_built_monomials():
    for n in range(7):
        for perm in permutations(n):
            for label in (label_exterior, label_peak) if n else (label_exterior,):
                labeling = label(perm)
                counts = Counter(labeling.labels)
                expected = LaurentPoly.monomial(VARS, {name: counts.get(name, 0) for name in VARS})
                assert labeling.weight == expected, (label.__name__, perm)


def test_distribution_coefficients_are_ints():
    for name, dist in perms_module._DISTRIBUTIONS.items():
        for n in range(dist.first_n, 10):
            poly = perms_module._distribution("family", name, n)
            assert all(type(c) is int for c in poly.terms.values()), (name, n)


def test_enumerate_poly_values():
    assert enumerate_poly(0, "P") == parse_poly("z", VARS)
    assert enumerate_poly(4, "P") == parse_poly(
        "6*x*z*w^2*v + 5*z^2*w^2*u + 5*x*y*z*w*v + y*z^2*w*u"
        " + x*y^2*z*v + 3*x^2*z*v^2 + 2*x*z^2*u*v + z*w^4", VARS)
    with pytest.raises(ValueError):
        enumerate_poly(0, "Q")
    with pytest.raises(ValueError):
        enumerate_poly(2, "X")


def test_q_specializes_to_w():
    for n in range(1, 6):
        assert enumerate_poly(n, "Q").substitute({"v": "z"}) == enumerate_poly(n, "W")


def test_simultaneous_substitution_reaches_l_target():
    # sending y,u to a fresh marker and everything else to 1 inside the
    # six-variable enumeration collapses it onto the L distribution; the
    # substitution is simultaneous, so y -> x is unaffected by x -> 1
    bindings = {"x": 1, "z": 1, "w": 1, "v": 1, "y": "x", "u": "x"}
    collapsed = enumerate_poly(4, "P").substitute(bindings).with_vars(("x",))
    assert collapsed == specialized_poly(4, "L")


def test_ta_of_zero_is_one():
    assert specialized_poly(0, "TA") == parse_poly("1", ("x", "y"))
    assert specialized_poly(1, "TA") == parse_poly("1", ("x", "y"))


def test_specialized_values():
    assert specialized_poly(2, "T") == parse_poly("1 + x", ("x", "y"))
    assert specialized_poly(3, "L") == parse_poly("4 + 2*x", ("x",))
    assert [int(specialized_poly(n, "L").coeff({})) for n in range(7)] == [1, 1, 2, 4, 10, 26, 76]
    with pytest.raises(ValueError):
        specialized_poly(0, "F")
    with pytest.raises(ValueError):
        specialized_poly(2, "nope")


def test_involution_counts():
    assert [involution_count(n) for n in range(8)] == [1, 1, 2, 4, 10, 26, 76, 232]


def test_involution_count_matches_the_inverse_definition():
    def inverse(perm):
        out = [0] * len(perm)
        for i, value in enumerate(perm, 1):
            out[value - 1] = i
        return tuple(out)

    for n in range(9):
        assert involution_count(n) == sum(perm == inverse(perm) for perm in permutations(n)), n


def test_an_invalid_pattern_raises_on_every_call(monkeypatch):
    monkeypatch.setattr(perms_module, "_PATTERN_ORDERS", {})
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^\[1, 3\] is not a permutation of 1..2$"):
            consecutive_count((1, 2, 3), [1, 3])
        with pytest.raises(ValueError, match="^empty pattern$"):
            consecutive_count((1, 2, 3), ())
    assert perms_module._PATTERN_ORDERS == {}
    # a valid pattern is ranked once, under its tuple, whatever sequence carries it
    assert consecutive_count((2, 3, 1, 4), [2, 3, 1]) == 1
    assert consecutive_count((2, 3, 1, 4), (2, 3, 1)) == 1
    assert consecutive_count((5, 1), (1,)) == 2
    assert perms_module._PATTERN_ORDERS == {(2, 3, 1): [2, 0, 1], (1,): [0]}


def test_coefficient_of_xyzwv_and_its_witnesses():
    # five permutations of [4] carry one 132-pattern exterior peak and one
    # proper double descent; the published list misprints one of them
    witnesses = [perm for perm in permutations(4)
                 if (lambda s: (s.ep1, s.ep2, s.pdd) == (1, 0, 1))(stats(perm))]
    assert len(witnesses) == 5
    assert set(witnesses) == {(2, 4, 3, 1), (1, 4, 3, 2), (4, 2, 1, 3), (4, 3, 1, 2), (3, 2, 1, 4)}
    d4 = gen_coeffs(builtin("G"), parse_poly("z", VARS), 4)[4]
    assert d4.coeff({"x": 1, "y": 1, "z": 1, "w": 1, "v": 1}) == 5


def test_alternating_parity_substitutions():
    # the x,y,z,w,u,v -> x,0,1,0,y,1 specialization keeps only alternating
    # permutations: the exterior scheme for even n, the peak scheme (divided
    # by one factor of y) for odd n >= 3
    sub = {"y": 0, "z": 1, "w": 0, "u": "y", "v": 1}
    for n in range(7):
        p_spec = enumerate_poly(n, "P").substitute(sub).with_vars(("x", "y"))
        ta = specialized_poly(n, "TA")
        if n % 2 == 0:
            assert p_spec == ta, n
        else:
            assert p_spec.is_zero(), n
    ydiv = parse_poly("y^-1", VARS)
    for n in range(1, 7):
        q_spec = (enumerate_poly(n, "Q").substitute(sub) * ydiv).with_vars(("x", "y"))
        if n % 2 and n >= 3:
            assert q_spec == specialized_poly(n, "TA"), n
        elif n % 2 == 0:
            assert q_spec.is_zero(), n


def test_triangles():
    assert triangle("Eulerian", 4) == [[1], [1], [1, 1], [1, 4, 1], [1, 11, 11, 1]]
    assert triangle("Gessel-T", 5) == [[1], [1], [1, 1], [1, 5], [1, 18, 5], [1, 58, 61]]
    assert [row[0] for row in triangle("L", 5)] == [1, 1, 2, 4, 10, 26]
    with pytest.raises(ValueError):
        triangle("T", 3)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        triangle("Eulerian", -1)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError, match=f"n={WALK_CAP + 1} exceeds the enumeration cap 9$"):
        permutations(WALK_CAP + 1)
    with pytest.raises(EnumerationCapError):
        involution_count(WALK_CAP + 1)
    assert involution_count(4) == 10
    # the cap bounds only the brute-force walks, never the oracle
    assert sum(stat_counts(WALK_CAP + 1).values()) == math.factorial(WALK_CAP + 1)


def test_walks_reject_a_negative_n():
    with pytest.raises(ValueError, match="n must be nonnegative"):
        permutations(-1)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        involution_count(-5)


def reference_sweep(n: int) -> Counter:
    """The distribution by definition: ``stats`` of every permutation of [n]."""
    counts: Counter = Counter()
    for perm in itertools.permutations(range(1, n + 1)):
        counts[stats(perm)] += 1
    return counts


def test_oracle_matches_the_sweep(monkeypatch):
    # the rank-transfer oracle against the brute-force definition, from a cold cache
    monkeypatch.setattr(perms_module, "_STAT_COUNTS", {})
    for n in range(9):
        assert stat_counts(n) == reference_sweep(n), n


# The rank transfer as it was before the layers held one map per falling
# ``below`` and per rising ``below_prev``: O(m^2) states and a merge per
# (state, rank) pair, each vector counting how often alternation broke.


def parent_triple(falling: bool, left_above_right: bool, descent: bool, i: int) -> int:
    """Packed counts of the triple centred at position i < n.

    ``falling``: pi_{i-1} > pi_i; ``left_above_right``: pi_{i-1} > pi_{i+1}
    (false for the virtual left zero); ``descent``: pi_i > pi_{i+1}.
    """
    if falling:
        packed = _DD + _PDD + _DES if descent else _VALLEY
    elif descent:  # a peak; its right neighbour is real, so 132 is strict
        packed = (_EP2 + _P2 if left_above_right else _EP1 + _P1) + _DES
    else:
        packed = _DR
    if descent != (i % 2 == 1):
        packed += _BREAK
    return packed


def parent_transfer(n: int) -> dict[StatVector, int]:
    """Multiplicity of each statistic vector over S_n, by the rank transfer."""
    if n == 0:
        return {stats(()): 1}
    # After k values are placed, a state is (below, below_prev, falling):
    # the unplaced values smaller than the last value, the same for the
    # value before it (None for the virtual left zero), and whether that
    # value is the larger of the two.  Each state maps the packed counts of
    # the triples centred at positions 1..k-1 to their multiplicity.
    layer: dict = {(rank, None, False): {0: 1} for rank in range(n)}
    for k in range(1, n):
        following: dict = {}
        for (below, below_prev, falling), vectors in layer.items():
            for rank in range(n - k):  # place the rank-th smallest unplaced value
                descent = rank < below
                step = parent_triple(falling, below_prev is not None and rank < below_prev,
                                     descent, k)
                state = rank, below - descent, descent
                target = following.get(state)
                if target is None:
                    target = following[state] = {}
                get = target.get
                for packed, count in vectors.items():
                    packed += step
                    target[packed] = get(packed, 0) + count
        layer = following
    counts: dict[StatVector, int] = {}
    for (_, below_prev, falling), vectors in layer.items():
        # the triple centred at n meets the right boundary zero
        step = _DD if falling else (_P1 if below_prev is None else _P2)
        for packed, count in vectors.items():
            s = _unpack(packed + step)
            counts[s] = counts.get(s, 0) + count
    return counts


def test_oracle_matches_the_parent_transfer(monkeypatch):
    # past the sweep's reach, against the per-state transfer, from a cold cache
    monkeypatch.setattr(perms_module, "_STAT_COUNTS", {})
    for n in range(15):
        assert stat_counts(n) == parent_transfer(n), n


def test_transfer_memory_stays_linear_in_the_states():
    # one map per falling below and per rising below_prev: the per-state
    # transfer peaks at about 7.6 MB here
    tracemalloc.start()
    try:
        perms_module._transfer(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_a_rebound_row_is_projected_afresh(monkeypatch):
    before = enumerate_poly(4, "Q")  # now cached
    assert enumerate_poly(4, "Q") is before
    row = perms_module._DISTRIBUTIONS["Q"]

    def swapped(s, n):  # the Q row with its x and u exponents swapped
        x, y, z, w, u, v = row.exponents(s, n)
        return u, y, z, w, x, v

    monkeypatch.setitem(perms_module._DISTRIBUTIONS, "Q", row._replace(exponents=swapped))
    after = enumerate_poly(4, "Q")
    assert after != before
    assert after == sum((table_weight("Q", perm) for perm in permutations(4)),
                        LaurentPoly(VARS))
    monkeypatch.undo()
    assert enumerate_poly(4, "Q") == before


def test_replacing_the_counts_drops_every_cached_projection(monkeypatch):
    names = perms_module.ENUMERATED_FAMILIES + perms_module.SPECIALIZED_TARGETS
    before = {name: perms_module._distribution("row", name, 4) for name in names}
    identity = stats((1, 2, 3, 4))
    monkeypatch.setattr(perms_module, "_STAT_COUNTS", {4: {identity: 1}})
    for name in names:
        dist = perms_module._DISTRIBUTIONS[name]
        exps = dist.exponents(identity, 4)
        expected = LaurentPoly(dist.vars, {} if exps is None else {tuple(2 * e for e in exps): 1})
        assert perms_module._distribution("row", name, 4) == expected, name
    monkeypatch.undo()
    for name in names:
        assert perms_module._distribution("row", name, 4) == before[name], name


def test_stat_counts_is_a_read_only_view():
    counts = stat_counts(4)
    with pytest.raises(TypeError):
        counts[stats((1, 2, 3, 4))] = 0
    with pytest.raises(TypeError):
        del counts[stats((1, 2, 3, 4))]
    assert counts == reference_sweep(4)


def test_oracle_beyond_the_sweep():
    # past brute-force range: closed counts for n <= 24
    n_max = 24
    zigzag = [  # Euler zigzag numbers: down-up permutations of [n]
        1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765, 22368256,
        199360981, 1903757312, 19391512145, 209865342976, 2404879675441, 29088885112832,
        370371188237525, 4951498053124096, 69348874393137901, 1015423886506852352,
        15514534163557086905]
    involutions = [1, 1]
    for n in range(2, n_max + 1):
        involutions.append(involutions[-1] + (n - 1) * involutions[-2])
    for n in range(n_max + 1):
        assert sum(stat_counts(n).values()) == math.factorial(n)
        eulerian = specialized_poly(n, "Eulerian")
        for k in range(max(n, 1)):
            explicit = sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n
                           for j in range(k + 1))
            assert eulerian.coeff({"x": k}) == explicit, (n, k)
        assert specialized_poly(n, "TA").evaluate({"x": 1, "y": 1}) == zigzag[n]
        assert specialized_poly(n, "L").coeff({}) == involutions[n]


@pytest.mark.parametrize("check_id", ["thm-P", "thm-Q", "g1-eulerian"])
def test_derivative_checks_agree_past_the_default_cap(check_id):
    report = run_check(check_id, n_max=11)
    assert report.passed and report.checked >= 11
