"""Statistics, labelings, and the exhaustive enumeration oracles."""

from __future__ import annotations

import pytest

from permgram.algebra import parse_poly
from permgram.grammar import builtin
from permgram.perms import (DEFAULT_CAP, EnumerationCapError, consecutive_count,
                            enumerate_poly, insertion_children, involution_count,
                            label_exterior, label_peak, peak_weight, permutations,
                            exterior_weight, specialized_poly, stat_counts, stats,
                            triangle, check_permutation)

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
            assert label_exterior(perm).weight == exterior_weight(perm)
            if n >= 1:
                assert label_peak(perm).weight == peak_weight(perm)


def test_labeling_totality_and_consistency_n8():
    # the peak labeling assigns every position exactly one label and its
    # product matches the weight formula on all of S_8
    for perm in permutations(8):
        assert label_peak(perm).weight == peak_weight(perm)


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


def test_coefficient_of_xyzwv_and_its_witnesses():
    # five permutations of [4] carry one 132-pattern exterior peak and one
    # proper double descent; the published list misprints one of them
    witnesses = [perm for perm in permutations(4)
                 if (lambda s: (s.ep1, s.ep2, s.pdd) == (1, 0, 1))(stats(perm))]
    assert len(witnesses) == 5
    assert set(witnesses) == {(2, 4, 3, 1), (1, 4, 3, 2), (4, 2, 1, 3), (4, 3, 1, 2), (3, 2, 1, 4)}
    d4 = builtin("G").derive_n(parse_poly("z", VARS), 4)
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


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        stat_counts(DEFAULT_CAP + 1)
    with pytest.raises(EnumerationCapError):
        enumerate_poly(DEFAULT_CAP + 1, "P")
    # raising the cap explicitly is allowed (kept tiny here)
    assert stat_counts(3, cap=3)


def test_parallel_sweep_matches_serial():
    serial = dict(stat_counts(6))
    from permgram import perms as perms_module
    perms_module._STAT_COUNTS.pop(6, None)
    parallel = dict(stat_counts(6, jobs=2))
    assert parallel == serial
