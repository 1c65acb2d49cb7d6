"""The four workloads: inputs made from a seed, the program calls that are
timed, and the checks of their outputs, which run after the timed span.

Every program call goes through a module attribute (``perms.stat_counts``,
not a name bound at import), so the tracer in ``tracing.py`` sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import reference

# derive-eval: chain order, box points per chain, tolerance of genp-num.
DERIVE_ORDER = 28
POINTS_PER_CHAIN = 4
TOL = 1e-8
# D_a(z) probes.  The grid does not depend on the seed: for a = -1 and
# z >= 6, pcf_d loses digits to cancellation, so those probes fail in every
# round until the cylinder function guards its precision.
PROBE_ORDERS = (-1, 0, 1)
PROBE_Z = (-3.0, -1.5, 0.5, 2.0, 3.5, 5.0, 6.0, 7.0, 8.0, 8.5)
# half-seed: order of the squared-quotient identity and the residual.
HALF_ORDER = 14
# oracle-sweep: largest n swept (the default enumeration cap).
SWEEP_N = 9
# Written out rather than read from the program, so that a lost or renamed
# check fails the verify-all check and the per-layer metric names stay fixed.
REGISTRY_IDS = (
    "thm-P", "thm-Q", "w-cor", "insertion", "conv", "ode", "gen-x1z", "quotient",
    "stats-id", "grammar-chain", "g1-eulerian", "g2-exterior", "g3-fu", "gessel",
    "elizalde-noy", "barry-basset", "fu", "carlitz-scoville", "ln", "tn", "tbar",
    "ttilde", "kitaev", "ta", "involutions", "genp-num", "genq-num", "pcf-closed",
    "pcf-rec", "kummer", "contiguous",
)


@dataclass
class Verdict:
    """What the checks of one round found."""

    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str | None = None

    def expect(self, condition: bool, label: str) -> None:
        if not condition and len(self.errors) < 20:
            self.errors.append(label)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[str, str], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], Verdict]


def _coefficient_sum(poly) -> Fraction:
    """Value at the all-ones point: the sum of the coefficients."""
    return sum(poly.terms.values(), Fraction(0))


# -- verify-all ------------------------------------------------------------------


def _verify_inputs(seed: str, outdir: str) -> dict:
    # `verify all` takes no input that a seed could vary.
    return {"path": os.path.join(outdir, f"verify-{os.getpid()}.json")}


def _verify_run(inputs: dict) -> dict:
    from permgram import cli
    return {"exit": cli.main(["verify", "all", "--json", inputs["path"]])}


def _verify_check(inputs: dict, outputs: dict) -> Verdict:
    verdict = Verdict(attempted=len(REGISTRY_IDS))
    verdict.expect(outputs["exit"] == 0, f"verify all exited {outputs['exit']}")
    try:
        with open(inputs["path"], encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        verdict.errors.append(f"no readable report: {exc}")
        return verdict
    finally:
        if os.path.exists(inputs["path"]):
            os.remove(inputs["path"])
    reports = document.get("checks", [])
    ids = [report.get("id") for report in reports]
    verdict.expect(sorted(ids) == sorted(REGISTRY_IDS), f"report lists ids {ids}")
    for report in reports:
        verdict.expect(report.get("passed") is True and report.get("checked", 0) > 0,
                       f"check {report.get('id')} did not pass with checked > 0")
        report.pop("elapsed_s", None)
    verdict.expect(document.get("passed") is True, "report is not marked passed")
    stripped = json.dumps(document, sort_keys=True).encode("utf-8")
    verdict.digest = hashlib.sha256(stripped).hexdigest()
    return verdict


# -- derive-eval -----------------------------------------------------------------


def _box_point(rng: random.Random) -> tuple[dict[str, Fraction], Fraction]:
    """A point of the [9/16, 31/16] box with |xv - zu| >= 1/4, and t in [1/10, 1/5].
    Every coordinate is odd/16: one denominator keeps the cost of exact
    evaluation close from point to point."""
    while True:
        point = {name: Fraction(rng.randrange(9, 32, 2), 16) for name in "xyzwuv"}
        if abs(point["x"] * point["v"] - point["z"] * point["u"]) >= Fraction(1, 4):
            return point, Fraction(rng.randrange(10, 21), 100)


def _derive_inputs(seed: str, outdir: str) -> dict:
    rng = random.Random(seed)
    return {name: [_box_point(rng) for _ in range(POINTS_PER_CHAIN)] for name in ("z", "w")}


def _derive_run(inputs: dict) -> dict:
    from permgram import grammar, specialfn
    g = grammar.builtin("G")
    g1 = grammar.builtin("g1")
    outputs = {
        "eulerian": grammar.gen_coeffs(g1, g1.poly("x"), DERIVE_ORDER),
        "probes": [],
    }
    closed_forms = {"z": specialfn.gen_p_value, "w": specialfn.gen_q_value}
    for name, closed_form in closed_forms.items():
        chain = grammar.gen_coeffs(g, g.poly(name), DERIVE_ORDER)
        outputs[name] = chain
        samples = []
        for point, t in inputs[name]:
            values = [poly.evaluate(point) for poly in chain]
            floats = {var: float(value) for var, value in point.items()}
            try:
                numeric = closed_form(floats, float(t))
            except ArithmeticError as exc:
                numeric = exc
            samples.append((values, numeric))
        outputs[name + "_samples"] = samples
    for a in PROBE_ORDERS:
        for z in PROBE_Z:
            try:
                value = specialfn.pcf_d(a, z).real
            except ArithmeticError:
                value = None
            outputs["probes"].append((a, z, value))
    return outputs


def _derive_check(inputs: dict, outputs: dict) -> Verdict:
    verdict = Verdict(attempted=3 + 2 * POINTS_PER_CHAIN + len(outputs["probes"]))
    for name in ("z", "w"):
        chain = outputs[name]
        verdict.expect(len(chain) == DERIVE_ORDER + 1, f"D^n({name}) chain has {len(chain)} entries")
        for n, poly in enumerate(chain):
            verdict.expect(_coefficient_sum(poly) == math.factorial(n),
                           f"D^{n}({name}) at all-ones is not {n}!")
        for (point, t), (values, numeric) in zip(inputs[name], outputs[name + "_samples"]):
            tail = abs(values[-1]) * t ** DERIVE_ORDER / math.factorial(DERIVE_ORDER)
            verdict.expect(tail <= TOL / 10, f"truncation tail {float(tail):.2e} of D({name}) too large")
            exact = sum(v * t ** n / math.factorial(n) for n, v in enumerate(values))
            verdict.expect(isinstance(numeric, float) and abs(numeric - float(exact)) <= TOL,
                           f"closed form for seed {name} at t={t}: {numeric} vs {float(exact)}")
    x, y, z, w, u, v = range(6)
    for n, poly in enumerate(outputs["z"]):
        for key in poly.terms:
            verdict.expect(key[x] == key[v] and key[z] == key[u] + 2
                           and sum(key) == 2 * (n + 1),
                           f"D^{n}(z) has a monomial with doubled exponents {key}")
    for n, poly in enumerate(outputs["eulerian"]):
        at_y1: dict[int, Fraction] = {}
        for (ex, _), coeff in poly.terms.items():
            at_y1[ex // 2] = at_y1.get(ex // 2, 0) + coeff
        want = {k + 1: count for k, count in enumerate(reference.eulerian_row(n)) if count}
        verdict.expect(at_y1 == want, f"g1: D^{n}(x) at y=1 is not x times the Eulerian row")
    for a, z, value in outputs["probes"]:
        want = reference.pcf_closed_form(a, z)
        if value is None or abs(value - want) > TOL * abs(want):
            verdict.failed += 1
    return verdict


# -- half-seed -------------------------------------------------------------------


def _half_inputs(seed: str, outdir: str) -> dict:
    rng = random.Random(seed)
    return {"scale": rng.choice((1, -1)) * Fraction(rng.randint(1, 9), rng.randint(2, 9))}


def _half_run(inputs: dict) -> dict:
    from permgram import grammar
    g = grammar.builtin("G")
    c = inputs["scale"]
    seed = c * g.poly("x^-1/2*z^-1/2")
    chain = grammar.gen_coeffs(g, seed, HALF_ORDER + 2)
    gz = grammar.gen_coeffs(g, g.poly("z"), HALF_ORDER)
    lhs = grammar.gen_product(grammar.gen_product(gz, gz),
                              grammar.gen_product(chain[:HALF_ORDER + 1], chain[:HALF_ORDER + 1]))
    rhs = grammar.gen_coeffs(g, (c * c) * g.poly("x^-1*z"), HALF_ORDER)
    alpha = g.poly("y^2 + 2*y*w + w^2 - 2*x*v - 2*z*u")
    beta = 2 * (g.poly("w") - g.poly("y")) * g.poly("x*v - z*u")
    gamma = 2 * g.poly("x*v - z*u") ** 2
    residuals = []
    for n in range(HALF_ORDER + 1):
        residual = chain[n + 2] - Fraction(1, 4) * alpha * chain[n]
        if n >= 1:
            residual = residual - Fraction(n, 4) * beta * chain[n - 1]
        if n >= 2:
            residual = residual - Fraction(n * (n - 1), 8) * gamma * chain[n - 2]
        residuals.append(residual)
    return {"chain": chain, "lhs": lhs, "rhs": rhs, "residuals": residuals}


def _half_check(inputs: dict, outputs: dict) -> Verdict:
    verdict = Verdict(attempted=1 + 2 * (HALF_ORDER + 1))
    c = inputs["scale"]
    # D(c x^-1/2 z^-1/2) = -1/2 (y + w) c x^-1/2 z^-1/2, in doubled exponents over (x y z w u v).
    want = {(-1, 2, -1, 0, 0, 0): -c / 2, (-1, 0, -1, 2, 0, 0): -c / 2}
    verdict.expect(outputs["chain"][1].terms == want, "D(seed) is not -1/2 (y + w) seed")
    for n, residual in enumerate(outputs["residuals"]):
        verdict.expect(not residual.terms, f"cylinder-equation residual at t^{n} is not zero")
    lhs, rhs = outputs["lhs"], outputs["rhs"]
    verdict.expect(len(lhs) == len(rhs) == HALF_ORDER + 1, "quotient streams have the wrong length")
    for n, (left, right) in enumerate(zip(lhs, rhs)):
        verdict.expect(left.terms == right.terms, f"squared-quotient identity fails at t^{n}")
    return verdict


# -- oracle-sweep ----------------------------------------------------------------


def _oracle_inputs(seed: str, outdir: str) -> dict:
    from permgram import perms
    rng = random.Random(seed)
    sweep = list(range(SWEEP_N + 1))
    rng.shuffle(sweep)
    requests = [(family, n) for n in range(SWEEP_N + 1)
                for family in perms.ENUMERATED_FAMILIES + perms.SPECIALIZED_TARGETS
                if n >= 1 or family not in ("Q", "W", "F")]
    rng.shuffle(requests)
    csv = {target: os.path.join(outdir, f"{target}-{os.getpid()}.csv")
           for target in perms.TRIANGLE_TARGETS}
    return {"sweep": sweep, "requests": requests, "csv": csv}


def _oracle_run(inputs: dict) -> dict:
    from permgram import perms, sequences
    totals = {n: sum(perms.stat_counts(n).values()) for n in inputs["sweep"]}
    dists = {}
    for family, n in inputs["requests"]:
        if family in perms.ENUMERATED_FAMILIES:
            dists[family, n] = perms.enumerate_poly(n, family)
        else:
            dists[family, n] = perms.specialized_poly(n, family)
    triangles = {target: perms.triangle(target, SWEEP_N) for target in inputs["csv"]}
    for target, path in inputs["csv"].items():
        sequences.write_triangle_csv(triangles[target], path)
    comparisons = [sequences.compare_file(inputs["csv"]["Gessel-T"], "A008971"),
                   sequences.compare_file(inputs["csv"]["L"], "A000085", column=0)]
    return {"totals": totals, "dists": dists, "triangles": triangles, "comparisons": comparisons}


def _packaged_sequence(seq_id: str) -> list[int]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "src", "permgram", "data", "oeis", f"{seq_id}.seq")
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0]
            if ":" in line:
                return [int(token) for token in line.split(":", 1)[1].split()]
    raise ValueError(f"no terms in {path}")


def _fold(poly, key_map) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for key, coeff in poly.terms.items():
        new = key_map(key)
        out[new] = out.get(new, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def _oracle_check(inputs: dict, outputs: dict) -> Verdict:
    dists, triangles = outputs["dists"], outputs["triangles"]
    verdict = Verdict(attempted=len(outputs["totals"]) + len(dists) + 2 * len(triangles)
                      + len(outputs["comparisons"]))
    for path in inputs["csv"].values():
        if os.path.exists(path):
            os.remove(path)
    for n, total in outputs["totals"].items():
        verdict.expect(total == math.factorial(n), f"stat_counts({n}) covers {total} permutations")
    zigzag, involutions = reference.zigzag(SWEEP_N), reference.involutions(SWEEP_N)
    for (family, n), poly in dists.items():
        want = zigzag[n] if family == "TA" else math.factorial(n)
        verdict.expect(_coefficient_sum(poly) == want, f"{family}_{n} at all-ones is not {want}")
    for n in range(SWEEP_N + 1):
        verdict.expect(dists["L", n].terms.get((0,), 0) == involutions[n],
                       f"L_{n}(0) is not the involution number {involutions[n]}")
        t = dists["T", n]
        verdict.expect(_fold(t, lambda k: (k[0],)) == dists["Tbar", n].terms, f"T_{n}(x,1) != Tbar_{n}")
        verdict.expect(_fold(t, lambda k: (k[1],)) == dists["Ttilde", n].terms, f"T_{n}(1,y) != Ttilde_{n}")
        verdict.expect(_fold(t, lambda k: (k[0] + k[1],)) == dists["Gessel-T", n].terms,
                       f"T_{n}(x,x) != Gessel-T_{n}")
    verdict.expect(triangles["Eulerian"] == [reference.eulerian_row(n) for n in range(SWEEP_N + 1)],
                   "Eulerian triangle differs from the explicit formula")
    gessel = [value for row in triangles["Gessel-T"] for value in row]
    packaged = _packaged_sequence("A008971")
    verdict.expect(gessel == packaged[:len(gessel)], "Gessel-T triangle differs from A008971")
    column = [row[0] for row in triangles["L"]]
    verdict.expect(column == _packaged_sequence("A000085")[:len(column)],
                   "L column 0 differs from A000085")
    verdict.expect(column == involutions, "L column 0 differs from the involution recurrence")
    for comparison in outputs["comparisons"]:
        verdict.expect(comparison.passed and comparison.overlap >= SWEEP_N + 1,
                       f"sequence comparison: {comparison.describe()}")
    return verdict


WORKLOADS = {
    "verify-all": Workload(_verify_inputs, _verify_run, _verify_check),
    "derive-eval": Workload(_derive_inputs, _derive_run, _derive_check),
    "half-seed": Workload(_half_inputs, _half_run, _half_check),
    "oracle-sweep": Workload(_oracle_inputs, _oracle_run, _oracle_check),
}
