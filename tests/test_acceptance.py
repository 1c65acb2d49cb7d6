"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Every tolerance and bound is pinned here; nothing is deferred.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from permgram.algebra import parse_poly
from permgram.checks import run_check
from permgram.grammar import builtin, gen_coeffs
from permgram.perms import stats

GVARS = ("x", "y", "z", "w", "u", "v")


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{title}]: FAIL")
        raise
    print(f"criterion {number:2d} [{title}]: PASS")


def run_and_assert(check_id: str, **overrides):
    report = run_check(check_id, **overrides)
    assert report.passed, f"{check_id}: {report.counterexample}"
    return report


def test_criterion_01_grammar_enumeration_equivalence():
    with criterion(1, "grammar-enumeration equivalence, n <= 8, < 60 s"):
        start = time.perf_counter()
        run_and_assert("thm-P", n_max=8)
        run_and_assert("thm-Q", n_max=8)
        elapsed = time.perf_counter() - start
        d4 = gen_coeffs(builtin("G"), parse_poly("z", GVARS), 4)[4]
        display = parse_poly(
            "6*x*z*w^2*v + 5*z^2*w^2*u + 5*x*y*z*w*v + y*z^2*w*u"
            " + x*y^2*z*v + 3*x^2*z*v^2 + 2*x*z^2*u*v + z*w^4", GVARS)
        assert d4 == display
        assert sorted(abs(c) for c in d4.terms.values()) == [1, 1, 1, 2, 3, 5, 5, 6]
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60 s target"


def test_criterion_02_w_corollary():
    with criterion(2, "v -> z specialization matches the valley enumeration, n <= 8"):
        run_and_assert("w-cor", n_max=8)


def test_criterion_03_insertion_mechanism():
    with criterion(3, "insertion lemma for both labelings at every n, by certificate; "
                      "witness through S_6"):
        report = run_and_assert("insertion", n_max=6)
        assert "every n" in report.details[0] and report.details[0].endswith("n <= 6")


def test_criterion_04_convolution():
    with criterion(4, "binomial convolution with Q_0 = w, 1 <= n <= 7"):
        run_and_assert("conv", n_max=7)


def test_criterion_05_ode_and_exact_closed_forms():
    with criterion(5, "cylinder equation and Gen(x^-1 z) at every order, by certificate; "
                      "engine self-check through t^12"):
        for check_id, pairs in (("ode", 5), ("gen-x1z", 3)):
            report = run_and_assert(check_id)
            assert report.spec.order is None and report.checked == pairs
            assert "at every order" in report.details[0]
        run_and_assert("quotient", order=12)


def test_criterion_06_sampled_closed_forms():
    with criterion(6, "all sampled closed forms exact on their grids, orders 0..9"):
        for check_id in ("gessel", "elizalde-noy", "barry-basset", "fu",
                         "carlitz-scoville", "ln", "tn", "tbar", "ttilde",
                         "kitaev", "ta"):
            run_and_assert(check_id, order=9)
        run_and_assert("involutions", n_max=8)


def test_criterion_07_numeric_closed_forms():
    with criterion(7, "main closed forms within 1e-10 of exact N=25 truncations"):
        for check_id in ("genp-num", "genq-num"):
            report = run_and_assert(check_id)  # at the registry's tolerance
            assert report.spec.tol == 1e-10
            assert report.checked >= 5
            assert report.max_residual is not None and report.max_residual <= 1e-10


def test_criterion_08_special_function_suite():
    with criterion(8, "cylinder closed forms 1e-12; recurrences 1e-10; 1F1 identities exact "
                      "at series level"):
        run_and_assert("pcf-closed", tol=1e-12)
        run_and_assert("pcf-rec", tol=1e-10)
        for check_id in ("kummer", "contiguous"):
            report = run_and_assert(check_id)
            assert report.spec.tol is None and report.checked == 39


def test_criterion_09_statistic_identities():
    with criterion(9, "statistic and labeling identities at every n >= 1, by certificate; "
                      "witness through S_7"):
        report = run_and_assert("stats-id", n_max=7)
        assert "every n >= 1" in report.details[0] and report.details[0].endswith("n <= 7")
        # spot re-assertions of the three identities on one permutation
        s = stats((4, 3, 5, 6, 7, 2, 1))
        assert s.p1 + s.p2 == s.valleys + 1


def test_criterion_10_reference_grammars():
    with criterion(10, "G reduces to g1, g2, g3 at every n; g1 Eulerian, g2 exterior peaks, "
                       "g3 four-variable, n <= 8"):
        report = run_and_assert("grammar-chain")
        assert report.spec.n_max is None and report.details[0].endswith("at every n")
        run_and_assert("g1-eulerian", n_max=8)
        run_and_assert("g2-exterior", n_max=8)
        run_and_assert("g3-fu", n_max=8)
