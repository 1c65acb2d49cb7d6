"""Registry plumbing: report structure, determinism, failure reporting."""

from __future__ import annotations

import dataclasses
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from permgram import checks, perms, series, specialfn
from permgram.algebra import AlgebraError, parse_poly
from permgram.checks import (EN_ROOTS, REGISTRY, X_GRID, CheckSpec, Report, UnknownCheckError,
                             _gen_num_trials, check_ids, en_roots, run_check, run_many,
                             x_grid, y_grid)
from permgram.grammar import (builtin, builtin_hash, builtin_source, flow_series, gen_coeffs,
                              parse_grammar)

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


def _blank_report() -> Report:
    """A report as a runner receives it: passed, nothing checked."""
    report = Report(CheckSpec("demo", "numeric", None, None, 1e-10))
    assert report.passed and report.checked == 0 and report.counterexample is None
    return report


def test_recorder_counterexample_names_first_monomial():
    rec = _blank_report()
    lhs = parse_poly("x + 3*y", ("x", "y"))
    rhs = parse_poly("x + 4*y", ("x", "y"))
    rec.poly_equal(lhs, rhs, "demo at n=2")
    assert not rec.passed
    assert rec.counterexample == "demo at n=2: coefficient of y is 3 on the left, 4 on the right"
    # only the first counterexample is kept
    rec.poly_equal(lhs, rhs, "later")
    assert rec.counterexample.startswith("demo")


def test_recorder_residuals():
    rec = _blank_report()
    rec.residual(1e-12, 1e-10, "fine")
    assert rec.passed and rec.max_residual == 1e-12
    rec.residual(-5e-9, 1e-10, "too big")
    assert not rec.passed and rec.max_residual == 5e-9
    assert "too big" in rec.counterexample


def test_recorder_fails_a_nan():
    rec = _blank_report()
    rec.residual(float("nan"), 1e-10, "nan residual")
    assert not rec.passed and math.isnan(rec.max_residual)
    rec.residual(1e-12, 1e-10, "later")
    assert math.isnan(rec.max_residual)
    rec = _blank_report()
    rec.residual(1e-12, float("nan"), "nan tolerance")
    assert not rec.passed and rec.max_residual == 1e-12


def test_genp_num_tolerance_kills_a_small_exponent_drift(monkeypatch):
    # a 2.5e-8 relative error in the exponent d2 t^2/4 moves the value by
    # 1.6e-10 to 4.7e-10 at the five trials: inside 1e-8, outside 1e-10
    real = specialfn.gen_p_value

    def drifted(point, t):
        d2 = point["x"] * point["v"] - point["z"] * point["u"]
        return real(point, t) * math.exp(2.5e-8 * d2 * t * t / 4)

    monkeypatch.setattr(specialfn, "gen_p_value", drifted)
    report = run_check("genp-num")
    assert not report.passed
    assert 1e-10 < report.max_residual < 1e-9
    assert report.counterexample.startswith("trial 0 at t=")


def test_pcf_rec_note_names_the_tolerance_it_held():
    note = "ladder recurrences hold to {} and the scaled Weber equation to 1e-8"
    assert run_check("pcf-rec").details == [note.format("1e-10")]
    assert run_check("pcf-rec", tol=1e-3).details == [note.format("0.001")]


def test_numeric_check_fails_a_nan_closed_form(monkeypatch):
    monkeypatch.setattr(specialfn, "gen_p_value", lambda point, t: float("nan"))
    report = run_check("genp-num")
    assert not report.passed
    assert math.isnan(report.max_residual)
    assert report.counterexample.startswith("trial 0 at t=")


@pytest.mark.parametrize("check_id, name", [("genp-num", "gen_p_value"),
                                            ("genq-num", "gen_q_value")])
def test_an_arithmetic_error_fails_only_its_trial(check_id, name, monkeypatch):
    # a closed form that raises at trial 0 fails that trial; the other four still run
    real, calls = getattr(specialfn, name), []

    def first_call_raises(point, t):
        calls.append(t)
        if len(calls) == 1:
            raise specialfn.ConvergenceError("no convergence within the term cutoff")
        return real(point, t)

    monkeypatch.setattr(specialfn, name, first_call_raises)
    report = run_check(check_id)
    assert not report.passed and len(calls) == 5 and report.checked == 4
    assert report.counterexample == ("trial 0: ConvergenceError: "
                                     "no convergence within the term cutoff")


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
    report = run_check("quotient", order=6, tol=1e-3)
    assert report.spec.order == 6 and report.spec.tol is None
    report = run_check("ode", n_max=3, order=6, tol=1e-3)  # a certificate row has no knob
    assert (report.spec.n_max, report.spec.order, report.spec.tol) == (None, None, None)


def test_run_many_preserves_registry_order():
    reports = run_many(["conv", "thm-P"], n_max=3)
    assert [r.spec.check_id for r in reports] == ["thm-P", "conv"]


def test_runner_error_fails_only_its_check():
    walk, pcf = run_many(["stats-id", "pcf-closed"], n_max=10)
    assert not walk.passed
    assert walk.counterexample.startswith("EnumerationCapError: ")
    assert pcf.passed


@pytest.mark.parametrize("check_id, bounds", [("conv", {"n_max": 9}), ("gessel", {"order": 10})],
                         ids=["conv", "gessel"])
def test_oracle_checks_take_no_cap(check_id, bounds):
    # the oracle behind these builds S_10 in milliseconds: only the check's own bound applies
    report = run_check(check_id, **bounds)
    assert report.passed, report.counterexample


def test_a_check_that_compares_nothing_fails():
    report = run_check("thm-P", n_max=-1)
    assert not report.passed and report.checked == 0
    assert report.counterexample == "no comparison was made"
    assert report.summary().startswith("FAIL")


@pytest.mark.parametrize("check_id", ["insertion", "stats-id", "involutions"])
def test_brute_force_checks_refuse_before_walking(check_id, monkeypatch):
    # n_max above the cap is known from the arguments: no S_n is walked first
    walked = []

    def recording(n):
        walked.append(n)
        return real(n)

    real = perms.permutations
    monkeypatch.setattr(perms, "permutations", recording)
    monkeypatch.setattr(checks, "permutations", recording)
    report = run_check(check_id, n_max=12)
    assert not report.passed and report.checked == 0
    assert report.counterexample == "EnumerationCapError: n=12 exceeds the enumeration cap 9"
    assert walked == []
    # refusing changes only the walk: the report names the grammars a walking run names
    assert report.provenance == run_check(check_id, n_max=1).provenance


# What every report compared and noted at n_max=3, order=3, as the checks
# counted before their runners became rows: a fold that drops or repeats a
# comparison changes a count here.
COUNTS_AT_3 = {
    "thm-P": (4, "D^n(z) equals the exterior-scheme enumeration for 0 <= n <= 3"),
    "thm-Q": (3, "D^n(w) equals the peak-scheme enumeration for 1 <= n <= 3"),
    "w-cor": (3, "D^n(w) at v=z equals the valley-marked enumeration for 1 <= n <= 3"),
    "insertion": (89, "wt(child)/wt(pi) = rule(L)/L under G at every slot of every n, L the "
                      "slot's label, for both labelings: 45 windows (44 for the peak scheme) "
                      "certified on S_0..S_4, every insertion into S_n witnessed for n <= 3"),
    "conv": (3, "P_(n+1) = sum C(n,k) P_k Q_(n-k) with Q_0 = w for 1 <= n <= 3"),
    "ode": (5, "f = Gen(x^-1/2 z^-1/2) solves f'' = (alpha + beta t + gamma t^2/2)/4 f at every "
               "order, with alpha = (y+w)^2 - 2xv - 2zu, beta = D(alpha), gamma = D(beta)"),
    "gen-x1z": (3, "Gen(x^-1 z) = x^-1 z exp((w-y)t + (xv-zu)t^2/2) at every order"),
    "quotient": (4, "Gen(z)^2 Gen(x^-1/2 z^-1/2)^2 = Gen(x^-1 z) through t^3: gen_coeffs "
                    "and gen_product respect the Leibniz rule (true under every grammar)"),
    "stats-id": (135, "consecutive-pattern, peak/valley, and labeling identities hold for every "
                      "n >= 1: base S_1, 44 windows certified on S_1..S_4, every insertion into "
                      "S_n witnessed for n <= 3"),
    "grammar-chain": (18, "G reduces to g1, g2, g3: each substitution maps every rule of G to a "
                          "rule of its reduction, so it commutes with D on every polynomial, at "
                          "every n"),
    "g1-eulerian": (4, "D^n(x) under g1 at y=1 equals x times the descent polynomial, n <= 3"),
    "g2-exterior": (4, "D^n(x) under g2 equals sum x^(2k+1) y^(n-2k) over exterior-peak "
                       "counts, n <= 3"),
    "g3-fu": (4, "D^n(z) under g3 equals the exterior-peak/descent enumeration, n <= 3"),
    "gessel": (40, "exterior-peak closed form matches enumeration at 10 points, orders 0..3 "
                   "(coefficient degree <= 3 < grid size)"),
    "elizalde-noy": (41, "double-descent closed form matches enumeration at 10 distinct y, "
                         "orders 0..3"),
    "barry-basset": (4, "no-proper-double-descent counts match exp(t/2)/(E - O/2) through t^3"),
    "fu": (200, "four-variable closed form matches enumeration on 5 root pairs x 10 y-samples "
                "(y-degree of coefficient n is <= n <= 3)"),
    "carlitz-scoville": (200, "peak/valley closed form matches enumeration on 5 root pairs "
                              "x 10 y-samples"),
    "ln": (40, "consecutive-231/321 closed form matches enumeration at 10 points"),
    "tn": (400, "joint peak-pattern closed form matches enumeration on a 10x10 grid "
                "(degree <= 3 in each variable)"),
    "tbar": (40, "132-pattern marginal matches enumeration at 10 points"),
    "ttilde": (40, "231-pattern marginal matches enumeration at 10 points"),
    "kitaev": (8, "avoider counts match both x=0 and y=0 specializations through t^3"),
    "ta": (800, "alternating closed form matches enumeration in both parities on a 10x10 grid"),
    "involutions": (8, "involution counts match exp(t + t^2/2) and L_n(0) for n <= 3"),
    "genp-num": (5, "exterior-scheme closed form matches the exact N=25 truncation at "
                    "5 box samples"),
    "genq-num": (5, "peak-scheme closed form matches the exact N=25 truncation at 5 box samples"),
    "pcf-closed": (21, "integer-order cylinder functions match their elementary closed forms"),
    "pcf-rec": (153, "ladder recurrences hold to 1e-10 and the scaled Weber equation to 1e-8"),
    "kummer": (39, "Kummer transformation holds exactly at series level at 3 rational (a, b, c), "
                   "through t^12"),
    "contiguous": (39, "contiguous relation holds exactly at series level at 3 rational "
                       "(a, b, c), through t^12"),
}


def test_provenance_names_the_grammars_each_check_used():
    uses = {"thm-P": "G", "thm-Q": "G", "w-cor": "G", "insertion": "G", "ode": "G",
            "gen-x1z": "G", "quotient": "G", "genp-num": "G", "genq-num": "G",
            "grammar-chain": "G g1 g2 g3", "g1-eulerian": "g1", "g2-exterior": "g2",
            "g3-fu": "g3"}
    reports = run_many(list(check_ids()), n_max=3, order=3)
    assert [report.spec.check_id for report in reports] == list(COUNTS_AT_3)
    for report in reports:
        names = uses.get(report.spec.check_id, "").split()
        assert report.passed, report.spec.check_id
        assert report.provenance["grammar_sha256"] == {name: builtin_hash(name) for name in names}
        checked, note = COUNTS_AT_3[report.spec.check_id]
        assert (report.checked, report.details) == (checked, [note]), report.spec.check_id


def test_sample_grids_cover_the_degree_bound():
    for order in range(17):
        xs, ys, roots = x_grid(order), y_grid(order), en_roots(order)
        for grid in (xs, ys, roots, [a + 1 / a - 1 for a in roots]):
            assert len(set(grid)) == len(grid) >= max(10, order + 1)
        assert not set(xs) & set(ys)
        assert xs[:10] == X_GRID and roots[:10] == EN_ROOTS
    assert x_grid(9) == X_GRID and len(x_grid(16)) == 17


# Every row whose oracle values ``_run_samples`` reads over one denominator.
ORACLE_ROWS = ("gessel", "elizalde-noy", "barry-basset", "fu", "carlitz-scoville", "ln", "tn",
               "tbar", "ttilde", "kitaev", "ta")


@pytest.mark.parametrize("order", [None, 20])
def test_sampled_oracle_values_match_evaluate(order, monkeypatch):
    # every part of every such row, at every sample and every n: the numerator
    # over its denominator against LaurentPoly.evaluate, None counting as 0
    reader = checks._oracle_reader
    reads = Counter()

    def checked_reader(polys):
        read = reader(polys)

        def checked_read(point):
            nums, den = read(point)
            assert len(nums) == len(polys)
            for n, (poly, num) in enumerate(zip(polys, nums)):
                assert Fraction(num, den) == (0 if poly is None else poly.evaluate(point)), (point, n)
            reads[check_id] += 1
            return nums, den
        return checked_read

    monkeypatch.setattr(checks, "_oracle_reader", checked_reader)
    for check_id in ORACLE_ROWS:
        report = run_check(check_id, order=order)
        assert report.passed, report.counterexample
        # each comparison but elizalde-noy's distinct-y count reads an oracle value
        comparisons = report.checked - (check_id == "elizalde-noy")
        assert reads[check_id] * (report.spec.order + 1) == comparisons, check_id


@pytest.mark.parametrize("text", ["x^-1 + y", "x*y^1/2"])
def test_oracle_reader_refuses_negative_and_half_exponents(text):
    polys = [parse_poly("1 + x*y", ("x", "y")), None, parse_poly(text, ("x", "y"))]
    with pytest.raises(AlgebraError, match="nonnegative integer exponents"):
        checks._oracle_reader(polys)


# A wrong but well-formed builder for each exact-sampled check, bound now so
# that each one calls the original builders.
WRONG_BUILDERS = {
    "gessel": {"rhs_gessel": series.rhs_l},
    "elizalde-noy": {"rhs_elizalde_noy": lambda a, order, en=series.rhs_elizalde_noy:
                     (en(a, order)[0], en(a + 1, order)[1])},
    "barry-basset": {"rhs_barry_basset": series.rhs_involutions},
    "fu": {"rhs_fu": lambda a, b, y, order, fu=series.rhs_fu, cs=series.rhs_carlitz_scoville:
           (fu(a, b, y, order)[0], cs(a, b, y, order)[1])},
    "carlitz-scoville": {"rhs_carlitz_scoville": series.rhs_fu},
    "ln": {"rhs_l": series.rhs_gessel},
    "tn": {"rhs_t": series.rhs_ta_even},
    "tbar": {"rhs_tbar": series.rhs_ttilde},
    "ttilde": {"rhs_ttilde": series.rhs_tbar},
    "kitaev": {"rhs_tbar": series.rhs_ttilde},
    "ta": {"rhs_ta_even": series.rhs_ta_odd, "rhs_ta_odd": series.rhs_ta_even},
    "involutions": {"rhs_involutions": lambda order: series.exp_poly(1, 1, order)},
    # 1F1(a; b; 2c t^2): Kummer's e^{c t^2} no longer matches, while scaling c
    # keeps the contiguous relation; shifting b by 1 breaks that one
    "kummer": {"hyp1f1_ct2": lambda a, b, c, order, h=series.hyp1f1_ct2: h(a, b, 2 * c, order)},
    "contiguous": {"hyp1f1_ct2": lambda a, b, c, order, h=series.hyp1f1_ct2: h(a, b + 1, c, order)},
}


@pytest.mark.parametrize("check_id", list(WRONG_BUILDERS))
def test_sampled_check_can_fail(check_id, monkeypatch):
    # every exact-sampled check looks its builders up on ``series`` when it runs
    assert set(WRONG_BUILDERS) == {entry.check_id for entry in REGISTRY.values()
                                   if entry.mode == "exact-sampled"}
    for name, wrong in WRONG_BUILDERS[check_id].items():
        monkeypatch.setattr(series, name, wrong)
    report = run_check(check_id, n_max=5, order=5)
    assert not report.passed
    assert "coefficient of t^" in report.counterexample
    if check_id in SAMPLED_FAILURES:
        assert report.counterexample == SAMPLED_FAILURES[check_id]


# The first failure of two wrong builders, word for word as the Fraction
# comparison wrote it: the int comparison words a failure the same way.
SAMPLED_FAILURES = {
    "tn": "rhs_t at (x,y)=(0,1/3), coefficient of t^1: 0 != 1",
    "elizalde-noy": "rhs_elizalde_noy at a=2, coefficient of t^3: 11/9 != 13/12",
}


def _edited_g(name):
    """Built-in grammars, with G's rule y -> z*u edited to y -> x*v."""
    if name != "G":
        return builtin(name)
    return parse_grammar(builtin_source("G").replace("rule y -> z*u", "rule y -> x*v"), name="G")


def _swapped_q(monkeypatch):
    row = perms._DISTRIBUTIONS["Q"]

    def swapped(s, n):  # the Q row with its x and u exponents swapped
        x, y, z, w, u, v = row.exponents(s, n)
        return u, y, z, w, x, v

    monkeypatch.setitem(perms._DISTRIBUTIONS, "Q", row._replace(exponents=swapped))


def _involutions_off_at_3(monkeypatch):
    count = checks.involution_count
    monkeypatch.setattr(checks, "involution_count", lambda n: count(n) + (n == 3))


# One wrong ingredient for each brute-force walk, and the failure it must
# report, word for word.
WALK_MUTANTS = {
    "insertion": (lambda mp: mp.setattr(checks, "builtin", _edited_g),
                  "peak weight vs rule(L)/L steps at window (2, 1, 0, None) (slot 2 of (2, 1)): "
                  "y^-1*z*u != x*y^-1*v"),
    "stats-id": (_swapped_q, "peak labeling weight vs Q row steps at window (0, 1, 0, None) "
                             "(slot 1 of (1,)): x^-1*z*w*u*v^-1 != x*z*w*u^-1*v^-1"),
    "involutions": (_involutions_off_at_3, "involution count, coefficient of t^3: 2/3 != 5/6"),
}


@pytest.mark.parametrize("check_id", list(WALK_MUTANTS))
def test_walk_can_fail(check_id, monkeypatch):
    mutate, failure = WALK_MUTANTS[check_id]
    assert run_check(check_id, n_max=4).passed
    mutate(monkeypatch)
    report = run_check(check_id, n_max=4)
    assert not report.passed
    assert report.counterexample == failure


def _swapped_q_at_three_231_peaks(monkeypatch):
    row = perms._DISTRIBUTIONS["Q"]

    def swapped(s, n):  # the Q row with its x and u exponents swapped where ep2 = 3
        x, y, z, w, u, v = row.exponents(s, n)
        return (u, y, z, w, x, v) if s.ep2 == 3 else (x, y, z, w, u, v)

    monkeypatch.setitem(perms._DISTRIBUTIONS, "Q", row._replace(exponents=swapped))


def _doubled_rule(var, grammar="G"):
    """Built-in grammars, with every term of ``grammar``'s rule for ``var`` doubled."""
    def doubled(name):
        g = builtin(name)
        if name != grammar:
            return g
        return dataclasses.replace(g, rules=tuple(2 * rule if v == var else rule
                                                  for v, rule in zip(g.vars, g.rules)))
    return doubled


@pytest.mark.parametrize("var", builtin("G").vars)
def test_certificate_rows_fail_under_a_doubled_rule(var, monkeypatch):
    # the certificates prove their identities at every order, so neither may
    # be vacuous: doubling any one rule of G breaks a pair of each row
    monkeypatch.setattr(checks, "builtin", _doubled_rule(var))
    for check_id in ("ode", "gen-x1z"):
        report = run_check(check_id)
        assert not report.passed, (var, check_id)
        assert report.counterexample.startswith("D("), report.counterexample


def test_insertion_fails_under_a_doubled_rule_in_both_schemes(monkeypatch):
    # the certificate compares rule(L)/L at a window of each label, so each
    # doubled rule of G fails it there, in whichever labeling first has that label
    schemes = set()
    for var in builtin("G").vars:
        monkeypatch.setattr(checks, "builtin", _doubled_rule(var))
        report = run_check("insertion")
        assert not report.passed, var
        scheme, rest = report.counterexample.split(" weight vs rule(L)/L steps at window ", 1)
        step, factor = rest.rsplit(": ", 1)[1].split(" != ")
        assert factor == f"2*{step}", report.counterexample
        schemes.add(scheme)
    assert schemes == {"exterior", "peak"}


@pytest.mark.parametrize("name, var", [(name, var) for name in ("g1", "g2", "g3")
                                       for var in builtin(name).vars])
def test_grammar_chain_fails_under_a_doubled_reduced_rule(name, var, monkeypatch):
    # the row compares rules, not chains: a doubled rule of a reduction fails it
    monkeypatch.setattr(checks, "builtin", _doubled_rule(var, name))
    report = run_check("grammar-chain")
    assert not report.passed
    assert report.counterexample.startswith(f"{name}: reduced rule for "), report.counterexample


class _OffOnU3:
    """A grammar whose derivative is off by the input on terms with u^3."""

    def __init__(self, grammar):
        self.grammar = grammar

    def __getattr__(self, name):
        return getattr(self.grammar, name)

    def derive(self, poly):
        derived = self.grammar.derive(poly)
        return derived + poly if any(key[4] == 6 for key in poly.terms) else derived


def test_a_derivative_off_on_u3_fails_thm_p(monkeypatch):
    # u^3 first occurs in D^7(z), so the chain goes wrong at n = 8, the row's
    # default depth; insertion compares the rules of G and derives nothing
    real = checks.builtin
    monkeypatch.setattr(checks, "builtin", lambda name: _OffOnU3(real(name)))
    report = run_check("thm-P")
    assert (report.passed, report.checked) == (False, 9)
    assert report.counterexample == ("derivative vs enumeration at n=8: coefficient of z*w^7 "
                                     "is 1 on the left, 0 on the right")
    assert run_check("insertion").passed


def test_a_non_local_mutant_passes_the_certificate_and_fails_the_witness(monkeypatch):
    # the Q row swapped only at three exterior 231-peaks, which first occur in
    # S_7: every window's steps are the true ones, so the certificate and a
    # witness to S_6 pass; the first insertion into S_7 that makes three such
    # peaks steps unlike its window
    _swapped_q_at_three_231_peaks(monkeypatch)
    assert run_check("stats-id", n_max=6).passed
    report = run_check("stats-id", n_max=7)
    assert not report.passed
    assert report.counterexample == (
        "Q row step into (4, 7, 3, 5, 2, 6, 1) against its window (0, 2, 1, 3): "
        "x^2*z*w*u^-2*v^-1 != x^-1*z*w*u*v^-1")


def test_stats_id_fails_a_wrong_base(monkeypatch):
    # the Q row with one more w everywhere: every step is the true one, so
    # only the base at S_1 can see it
    row = perms._DISTRIBUTIONS["Q"]

    def offset(s, n):
        x, y, z, w, u, v = row.exponents(s, n)
        return x, y, z, w + 1, u, v

    monkeypatch.setitem(perms._DISTRIBUTIONS, "Q", row._replace(exponents=offset))
    report = run_check("stats-id", n_max=4)
    assert not report.passed
    assert report.counterexample == "peak labeling weight vs Q row at (1,): x*v != x*w*v"


def test_a_window_first_seen_past_s_4_fails(monkeypatch):
    # a window that also marks whether the parent is past S_4 is new at S_5,
    # where the certificate compares no steps
    window = checks._window
    monkeypatch.setattr(checks, "_window", lambda perm, slot: window(perm, slot) + (len(perm) > 4,))
    report = run_check("stats-id", n_max=6)
    assert not report.passed
    assert report.counterexample == ("consecutive 231+321: window (None, 0, 1, 2, True) of slot 0 "
                                     "of (1, 2, 3, 4, 5) does not occur on S_0..S_4")


def test_the_windows_all_occur_on_s_0_to_s_4():
    # 1, 3, 9, 21 and 45 windows on the slots of S_0..S_n, and none new on S_5..S_7
    seen, totals = set(), []
    for n in range(8):
        seen.update(checks._window(perm, slot) for perm in perms.permutations(n)
                    for slot in range(n + 1))
        totals.append(len(seen))
    assert totals == [1, 3, 9, 21, 45, 45, 45, 45]
    assert checks.WINDOW_N == 4
    assert checks._window((), 0) == (None, 0, 0, None)
    assert checks._window((4, 3, 5, 2, 6, 1), 1) == (0, 2, 1, 3)


@pytest.mark.parametrize("check_id, n_max, bound_mb", [("stats-id", 7, 0.2), ("insertion", 6, 0.3)])
def test_walks_hold_a_block_at_a_time(check_id, n_max, bound_mb):
    # the walks hold one parent and its children at a time, and peak at about
    # 0.05 MB; holding S_n whole (S_7 has 5,040 permutations, S_6 720) goes
    # past the bound
    import tracemalloc

    assert run_check(check_id, n_max=n_max).passed  # parse the grammar and rank the patterns
    tracemalloc.start()
    try:
        assert run_check(check_id, n_max=n_max).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


def test_stats_id_computes_each_statistic_vector_once(monkeypatch):
    calls = []

    def counting(perm):
        calls.append(perm)
        return real(perm)

    real = perms.stats
    monkeypatch.setattr(perms, "stats", counting)
    monkeypatch.setattr(checks, "stats", counting)
    assert run_check("stats-id", n_max=4).passed
    # once for the base (1,), once for each parent of S_1..S_4 the
    # certificate reads, and once for each child of S_2..S_5
    assert len(calls) == 1 + sum(math.factorial(n) for n in range(1, 5)) + \
        sum(math.factorial(n) for n in range(2, 6)) == 186
    assert max(Counter(calls).values()) == 2


def test_stats_id_validates_each_pattern_once(monkeypatch):
    callers = []

    def counting(values):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(values)

    real = perms.check_permutation
    monkeypatch.setattr(perms, "check_permutation", counting)
    monkeypatch.setattr(perms, "_PATTERN_ORDERS", {})  # as in a fresh process
    assert run_check("stats-id", n_max=4).passed
    assert callers.count("consecutive_count") == 2


def test_run_many_parallel():
    reports = run_many(["thm-P", "conv", "pcf-closed"], n_max=3, jobs=2)
    assert [r.spec.check_id for r in reports] == ["thm-P", "conv", "pcf-closed"]
    assert all(r.passed for r in reports)


def test_the_pool_has_at_most_one_worker_per_check(monkeypatch):
    # on Linux a ProcessPoolExecutor forks all max_workers workers up front, so
    # --jobs 64 must not ask for more workers than there are checks; the
    # stand-in pool records its size and runs the checks in this process
    import concurrent.futures
    import multiprocessing

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    ids = ["thm-P", "conv", "pcf-closed"]
    for jobs in (64, 3, 2):
        reports = run_many(ids, n_max=3, jobs=jobs)
        assert [r.spec.check_id for r in reports] == ids
        assert all(r.passed for r in reports)
    assert sizes == [3, 3, 2]
    assert multiprocessing.active_children() == []
