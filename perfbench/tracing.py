"""Per-layer tracing from outside the program.

``install`` replaces public functions and methods of the permgram modules
with wrappers that record a span per call: its self time (duration minus
the time of the spans it caused), a call count and a count of work done.
Nothing under ``src/`` changes; the wrappers are set on the loaded modules
and classes of one worker process.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

from permgram import algebra, checks, cli, grammar, perms, sequences, series, specialfn


class Tracer:
    """Span totals of one process, kept in memory until the round ends."""

    def __init__(self) -> None:
        self.enabled = False
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.check_s: dict[str, float] = {}
        self._stack: list[float] = []  # child time accumulated by each open span
        self._swept: set[int] = set()

    def span(self, name, fn, work=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[name] += duration - stack.pop()
                self.total_s[name] += duration
                self.calls[name] += 1
                if stack:
                    stack[-1] += duration
            if work is not None:
                self.work[name] += work(args, result)
            return result
        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            if self.enabled:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def stat_counts(self, fn):
        """The first successful call for an n sweeps S_n; later ones hit the cache."""
        cold = self.span("perms.sweep", fn, work=lambda args, _: math.factorial(args[0]))
        warm = self.span("perms.stat_counts", fn)

        def traced(n, *args, **kwargs):
            if n in self._swept:
                return warm(n, *args, **kwargs)
            result = cold(n, *args, **kwargs)
            self._swept.add(n)
            return result
        return traced

    def run_check(self, fn):
        def traced(*args, **kwargs):
            report = fn(*args, **kwargs)
            if self.enabled:
                self.check_s[report.spec.check_id] = report.elapsed_s
            return report
        return traced

    def metrics(self, check_ids) -> dict[str, float]:
        """Per-layer metrics of one round."""
        s, calls, work = self.self_s, self.calls, self.work

        def rate(name):
            return work[name] / s[name] if s[name] > 0 else 0.0

        out = {
            "algebra.evaluate_s": s["algebra.evaluate"],
            "algebra.evaluate_terms_per_s": rate("algebra.evaluate"),
            "algebra.mul_s": s["algebra.mul"],
            "algebra.mul_term_pairs_per_s": rate("algebra.mul"),
            "grammar.derive_s": s["grammar.derive"],
            "grammar.derive_terms_per_s": rate("grammar.derive"),
            "grammar.derive_calls": calls["grammar.derive"],
            "grammar.parse_s": s["grammar.parse"],
            "perms.sweep_s": s["perms.sweep"],
            "perms.perms_per_s": rate("perms.sweep"),
            "perms.sweeps": calls["perms.sweep"],
            "perms.stat_counts_calls": calls["perms.sweep"] + calls["perms.stat_counts"],
            "perms.specialize_s": s["perms.specialize"],
            "series.build_s": s["series.build"],
            "series.builds": calls["series.build"],
            "specialfn.closed_form_s": s["specialfn.closed_form"],
            "specialfn.pcf_d_calls": calls["specialfn.pcf_d"],
            "sequences.export_s": s["sequences.export"],
            "sequences.compare_s": s["sequences.compare"],
            "cli.main_s": self.total_s["cli.main"],
        }
        for check_id in check_ids:
            out[f"checks.{check_id}_s"] = self.check_s.get(check_id, 0.0)
        return out


def _replace(original, wrapper) -> None:
    """Rebind every name in the loaded permgram modules that refers to ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "permgram" and not module_name.startswith("permgram."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    poly = algebra.LaurentPoly

    def pairs(args, _):
        other = args[1]
        return len(args[0].terms) * (len(other.terms) if isinstance(other, poly) else 1)

    poly.evaluate = tracer.span("algebra.evaluate", poly.evaluate,
                                work=lambda args, _: len(args[0].terms))
    poly.__mul__ = poly.__rmul__ = tracer.span("algebra.mul", poly.__mul__, work=pairs)
    grammar.Grammar.derive = tracer.span("grammar.derive", grammar.Grammar.derive,
                                         work=lambda args, _: len(args[1].terms))
    _replace(grammar.parse_grammar, tracer.span("grammar.parse", grammar.parse_grammar))
    _replace(perms.stat_counts, tracer.stat_counts(perms.stat_counts))
    for fn in (perms.enumerate_poly, perms.specialized_poly):
        _replace(fn, tracer.span("perms.specialize", fn))
    for name in dir(series):
        if name.startswith("rhs_"):
            fn = getattr(series, name)
            _replace(fn, tracer.span("series.build", fn))
    for fn in (specialfn.gen_p_value, specialfn.gen_q_value):
        _replace(fn, tracer.span("specialfn.closed_form", fn))
    _replace(specialfn.pcf_d, tracer.counter("specialfn.pcf_d", specialfn.pcf_d))
    _replace(sequences.write_triangle_csv, tracer.span("sequences.export", sequences.write_triangle_csv))
    _replace(sequences.compare_file, tracer.span("sequences.compare", sequences.compare_file))
    _replace(checks.run_check, tracer.run_check(checks.run_check))
    _replace(cli.main, tracer.span("cli.main", cli.main))
