"""permgram benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Each round is a fresh, serial interpreter (worker.py),
so the process-wide caches start cold in every round.  Rounds start while
the run is younger than ``--seconds``; each makes its inputs from ``--seed``
and its round index, and checks its outputs after its timed span.

With ``--trace 0`` the run reports the end-to-end metrics (medians over
rounds).  With ``--trace 1`` rounds alternate untraced and traced, and the
run reports the per-layer metrics of the traced rounds together with the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import reference
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUTDIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
# setup_s (about 0.15 s) is the median of at least SETUP_SAMPLES cold
# starts: each untraced round's own set-up, and set-up-only interpreters
# spread over the run, one before each round until there are enough.
SETUP_SAMPLES = 16
# A run ends, round timeouts included, well within 180 s.
DEADLINE_S = 160.0


class BenchError(RuntimeError):
    """A round could not run to its end; the run prints no result."""


def _worker(mode: str, workload: str, seed: int, round_index: int, deadline: float) -> dict:
    spawn = time.monotonic()
    cmd = [sys.executable, "-I", WORKER, mode, workload, str(seed), str(round_index),
           repr(spawn), OUTDIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} round of {workload} passed the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} round of {workload} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} round of {workload} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def _source_digest() -> str:
    """Hash of the program's source tree, so stored reports are tied to one version."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "permgram")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _stable_report_errors(digests: list[str]) -> list[str]:
    """`verify all --json` minus elapsed_s must be byte-identical in every
    round of every run of one source version."""
    errors = []
    if len(set(digests)) > 1:
        errors.append("verify-all report differs between rounds of this run")
    stored = os.path.join(OUTDIR, f"verify-all-{_source_digest()[:16]}.sha256")
    if os.path.exists(stored):
        with open(stored, encoding="utf-8") as handle:
            if handle.read().strip() != digests[0]:
                errors.append("verify-all report differs from an earlier run of this source")
    else:
        with open(stored, "w", encoding="utf-8") as handle:
            handle.write(digests[0] + "\n")
    return errors


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Run the rounds of one run; return their results and the set-up samples."""
    deadline = time.monotonic() + DEADLINE_S
    _worker("setup", workload, seed, 0, deadline)  # warm-up: compiles bytecode, untimed
    setups: list[float] = []

    def probe_setup():
        setups.append(_worker("setup", workload, seed, 0, deadline)["setup_s"])

    # Rounds start while the run is younger than `seconds`.  Each round makes
    # fresh inputs from (seed, round index); a traced round reuses the inputs
    # of the untraced round before it, so the two times compare.
    rounds: list[dict] = []
    start = time.monotonic()
    while time.monotonic() - start < seconds or (trace and len(rounds) < 2):
        if len(setups) < SETUP_SAMPLES:
            probe_setup()
        mode = "trace" if trace and len(rounds) % 2 == 1 else "run"
        round_index = len(rounds) // 2 if trace else len(rounds)
        rounds.append(_worker(mode, workload, seed, round_index, deadline))
        if mode == "run":
            setups.append(rounds[-1]["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        probe_setup()
    return rounds, setups


def metrics(rounds: list[dict], setups: list[float], trace: bool) -> dict[str, dict]:
    """End-to-end metrics, or per-layer metrics and tracing overhead: medians over rounds."""
    plain = [result for result in rounds if "layers" not in result]
    wall = statistics.median(result["wall_s"] for result in plain)
    if not trace:
        return {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    traced = [result for result in rounds if "layers" in result]
    layers = {name: statistics.median(result["layers"][name] for result in traced)
              for name in traced[0]["layers"]}
    layers["trace.wall_s"] = statistics.median(result["wall_s"] for result in traced)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
    return {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "permgram", "__init__.py")):
        print(f"error: no permgram source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)
    errors = reference.self_test()
    try:
        rounds, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in rounds:
        errors.extend(result["errors"])
    digests = [result["digest"] for result in rounds if result["digest"]]
    if digests:
        errors.extend(_stable_report_errors(digests))
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics(rounds, setups, bool(args.trace)),
    }
    for error in errors:
        print(f"check failed: {error}")
    traced = sum("layers" in r for r in rounds)
    print(f"{args.workload} seed {args.seed}: {len(rounds) - traced} untraced and {traced} traced "
          f"rounds, {len(setups)} set-ups; {result['attempted']} operations, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
