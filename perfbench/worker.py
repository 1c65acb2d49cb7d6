"""One round of a workload, in a fresh interpreter started by run.py.

    worker.py MODE WORKLOAD SEED ROUND SPAWN_TIME OUTDIR

MODE is ``setup`` (set up and stop), ``run`` (untraced round) or ``trace``
(round with per-layer tracing).  SEED and ROUND together fix the inputs.  SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, ``import permgram`` and parsing the four built-in
grammars.  The last line of standard output is one JSON object.

Only ``sys``, ``os`` and ``time`` are imported before set-up ends, so the
benchmark's own modules add nothing to ``setup_s``.
"""

import os
import sys
import time


def main() -> int:
    mode, workload_name, seed, round_index, spawn_time, outdir = sys.argv[1:7]
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench_dir), "src")
    sys.path[:0] = [src, bench_dir]

    import permgram
    import permgram.cli  # noqa: F401  (the verify-all entry point)
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True
    for name in ("G", "g1", "g2", "g3"):
        permgram.builtin(name)
    setup_s = time.monotonic() - float(spawn_time)

    import json
    import resource

    if not os.path.abspath(permgram.__file__).startswith(os.path.join(src, "")):
        print(f"permgram was imported from {permgram.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode != "setup":
        import workloads
        workload = workloads.WORKLOADS[workload_name]
        inputs = workload.make_inputs(f"{seed}/{round_index}", outdir)
        start = time.perf_counter()
        outputs = workload.run(inputs)
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
            result["layers"] = tracer.metrics(workloads.REGISTRY_IDS)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdict = workload.check(inputs, outputs)
        result.update(attempted=verdict.attempted, failed=verdict.failed,
                      errors=verdict.errors, digest=verdict.digest)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
