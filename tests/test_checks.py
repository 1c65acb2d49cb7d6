"""Registry plumbing: report structure, determinism, failure reporting."""

from __future__ import annotations

import math

import pytest

from permgram import series, specialfn
from permgram.algebra import parse_poly
from permgram.checks import (EN_ROOTS, REGISTRY, X_GRID, Recorder, UnknownCheckError,
                             _gen_num_trials, check_ids, en_roots, run_check, run_many,
                             x_grid, y_grid)
from permgram.grammar import builtin, builtin_hash, flow_series, gen_coeffs

EXPECTED_IDS = {
    "thm-P", "thm-Q", "w-cor", "insertion", "conv", "ode", "gen-x1z", "quotient",
    "stats-id", "grammar-chain", "g1-eulerian", "g2-exterior", "g3-fu",
    "gessel", "elizalde-noy", "barry-basset", "fu", "carlitz-scoville", "ln",
    "tn", "tbar", "ttilde", "kitaev", "ta", "involutions",
    "genp-num", "genq-num", "pcf-closed", "pcf-rec", "kummer", "contiguous",
}


def test_registry_covers_every_identity():
    assert set(check_ids()) == EXPECTED_IDS
    for entry in REGISTRY.values():
        assert entry.mode in ("exact-symbolic", "exact-sampled", "numeric")
        if entry.mode == "numeric":
            assert entry.tol is not None
        else:
            assert entry.tol is None  # exact checks never carry a tolerance


def test_unknown_check():
    with pytest.raises(UnknownCheckError):
        run_check("no-such-check")
    with pytest.raises(UnknownCheckError):
        run_many(["thm-P", "bogus"])


def test_report_shape():
    report = run_check("thm-P", n_max=4)
    assert report.passed and report.checked == 5
    assert report.spec.mode == "exact-symbolic"
    data = report.to_dict()
    assert data["id"] == "thm-P" and data["passed"] is True
    assert data["provenance"]["grammar_sha256"]
    assert "elapsed_s" in data
    assert "PASS" in report.summary()


def test_reports_are_deterministic():
    a = run_check("conv", n_max=4).to_dict()
    b = run_check("conv", n_max=4).to_dict()
    del a["elapsed_s"], b["elapsed_s"]
    assert a == b


def test_recorder_counterexample_names_first_monomial():
    rec = Recorder()
    lhs = parse_poly("x + 3*y", ("x", "y"))
    rhs = parse_poly("x + 4*y", ("x", "y"))
    rec.poly_equal(lhs, rhs, "demo at n=2")
    assert not rec.passed
    assert rec.counterexample == "demo at n=2: coefficient of y is 3 on the left, 4 on the right"
    # only the first counterexample is kept
    rec.poly_equal(lhs, rhs, "later")
    assert rec.counterexample.startswith("demo")


def test_recorder_residuals():
    rec = Recorder()
    rec.residual(1e-12, 1e-10, "fine")
    assert rec.passed and rec.max_residual == 1e-12
    rec.residual(-5e-9, 1e-10, "too big")
    assert not rec.passed and rec.max_residual == 5e-9
    assert "too big" in rec.counterexample


def test_recorder_fails_a_nan():
    rec = Recorder()
    rec.residual(float("nan"), 1e-10, "nan residual")
    assert not rec.passed and math.isnan(rec.max_residual)
    rec.residual(1e-12, 1e-10, "later")
    assert math.isnan(rec.max_residual)
    rec = Recorder()
    rec.residual(1e-12, float("nan"), "nan tolerance")
    assert not rec.passed and rec.max_residual == 1e-12


def test_numeric_check_fails_a_nan_closed_form(monkeypatch):
    monkeypatch.setattr(specialfn, "gen_p_value", lambda point, t: float("nan"))
    report = run_check("genp-num")
    assert not report.passed
    assert math.isnan(report.max_residual)
    assert report.counterexample.startswith("trial 0 at t=")


@pytest.mark.parametrize("seed", ["z", "w"])
def test_gen_num_truncation_matches_the_symbolic_chain(seed):
    # the flow replaces D^n(seed).evaluate at the numeric checks' own samples;
    # both give the same Fractions, so the floats compared are the same
    g = builtin("G")
    order = 25
    chain = gen_coeffs(g, g.poly(seed), order)
    for point, t in _gen_num_trials(seed):
        flow = flow_series(g, g.poly(seed), point, order)
        values = [c.evaluate(point) for c in chain]
        assert [math.factorial(n) * c for n, c in enumerate(flow)] == values
        assert abs(flow[order]) * t ** order == \
            abs(values[order]) * t ** order / math.factorial(order)
        assert sum(c * t ** n for n, c in enumerate(flow)) == \
            sum(v * t ** n / math.factorial(n) for n, v in enumerate(values))


def test_overrides_only_apply_where_meaningful():
    report = run_check("pcf-closed", n_max=3, order=2)
    assert report.spec.n_max is None and report.spec.order is None
    report = run_check("ode", order=6, tol=1e-3)
    assert report.spec.order == 6 and report.spec.tol is None


def test_run_many_preserves_registry_order():
    reports = run_many(["conv", "thm-P"], n_max=3)
    assert [r.spec.check_id for r in reports] == ["thm-P", "conv"]


def test_runner_error_fails_only_its_check():
    gessel, pcf = run_many(["gessel", "pcf-closed"], order=6, cap=5)
    assert not gessel.passed
    assert gessel.counterexample.startswith("EnumerationCapError: ")
    assert pcf.passed


def test_a_check_that_compares_nothing_fails():
    report = run_check("thm-P", n_max=-1)
    assert not report.passed and report.checked == 0
    assert report.counterexample == "no comparison was made"
    assert report.summary().startswith("FAIL")


@pytest.mark.parametrize("check_id", ["insertion", "stats-id", "involutions"])
def test_brute_force_checks_respect_the_cap(check_id):
    # each of these walks S_n itself instead of asking stat_counts
    report = run_check(check_id, cap=5)
    assert not report.passed
    assert report.counterexample.startswith(
        "EnumerationCapError: n=6 exceeds the enumeration cap 5")


def test_provenance_names_the_grammars_each_check_used():
    uses = {"thm-P": "G", "thm-Q": "G", "w-cor": "G", "insertion": "G", "ode": "G",
            "gen-x1z": "G", "quotient": "G", "genp-num": "G", "genq-num": "G",
            "grammar-chain": "G g1 g2 g3", "g1-eulerian": "g1", "g2-exterior": "g2",
            "g3-fu": "g3"}
    for report in run_many(list(check_ids()), n_max=3, order=3):
        names = uses.get(report.spec.check_id, "").split()
        assert report.passed, report.spec.check_id
        assert report.provenance["grammar_sha256"] == {name: builtin_hash(name) for name in names}


def test_sample_grids_cover_the_degree_bound():
    for order in range(17):
        xs, ys, roots = x_grid(order), y_grid(order), en_roots(order)
        for grid in (xs, ys, roots, [a + 1 / a - 1 for a in roots]):
            assert len(set(grid)) == len(grid) >= max(10, order + 1)
        assert not set(xs) & set(ys)
        assert xs[:10] == X_GRID and roots[:10] == EN_ROOTS
    assert x_grid(9) == X_GRID and len(x_grid(16)) == 17


def test_sampled_check_can_fail(monkeypatch):
    monkeypatch.setattr(series, "rhs_ttilde", series.rhs_tbar)
    report = run_check("ttilde", order=5)
    assert not report.passed
    assert "coefficient of t^" in report.counterexample


def test_run_many_parallel():
    reports = run_many(["thm-P", "conv", "pcf-closed"], n_max=3, jobs=2)
    assert [r.spec.check_id for r in reports] == ["thm-P", "conv", "pcf-closed"]
    assert all(r.passed for r in reports)
