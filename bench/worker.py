"""One timed pass of one workload, in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED TRACE SPANS_PATH

Every pass starts from the same cold caches because it is a new process.
The clock starts before the package is imported, so ``setup_s`` covers the
import and the workload's prewarm; ``wall_s`` covers the op list.  The
yardstick (``yardstick.py``) runs ``YARDSTICK_FIRST`` times before the first
op and then between ops, once every ``YARDSTICK_EVERY_S`` seconds; its time
is in neither ``wall_s`` nor any op's latency.  The last line of
standard output is one JSON object with the pass's timings, the yardstick
times, peak resident memory, op outputs and, when TRACE is 1, the per-layer
metrics; the spans go to SPANS_PATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import opgen

YARDSTICK_FIRST = 3
YARDSTICK_EVERY_S = 0.5


def main(argv: list[str]) -> int:
    workload_name, seed, trace, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    ops = opgen.make_ops(workload_name, seed)

    t_start = time.perf_counter()
    import workloads  # imports the package
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[workload_name]()
    workload.prewarm(ops)
    setup_s = time.perf_counter() - t_start

    import yardstick  # only now, so that setup_s still includes numpy's import
    stick = yardstick.Yardstick()
    for _ in range(YARDSTICK_FIRST):
        stick.run()
    stick_between_ops_s = 0.0
    t_stick = t_ops = time.perf_counter()
    latencies, outputs, errors = [], [], {}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception:  # an unexpected exception is a failed op; keep going
            out = None
            errors[i] = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outputs.append(out)
        if t1 - t_stick >= YARDSTICK_EVERY_S:
            stick.run()
            t_stick = time.perf_counter()
            stick_between_ops_s += t_stick - t1
    workload.finish()
    t_end = time.perf_counter()

    result = {
        "setup_s": setup_s,
        "wall_s": t_end - t_ops - stick_between_ops_s,
        "latencies_s": latencies,
        "yardstick_s": stick.times_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["cache_info"] = tracer.cache_info()
        tracer.dump(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
