"""Benchmark of the ultrafriable package: one workload, one seed per run.

Usage (from the repository root; no install, the package is imported from
``src/``):

    python3 bench/run.py --workload exact --seed 1 --seconds 55 --trace 0

Workloads (inputs are generated from the seed, see ``opgen.py``):

* ``exact``          -- exact count rows through ``cli.compute_row`` with
                        engines prebuilt in set-up, then
                        ``reconstruct_progression`` and ``t3_bound`` rows,
                        then exact engines against ``naive_oracle`` with
                        engines built cold;
* ``estimate_grid``  -- saddle estimate rows (T1i, T1ii, T1iii, UPS).

One caller drives the package in a closed loop.  A run repeats passes over
the workload's fixed op list, each pass in a fresh interpreter so that every
pass starts from the same cold caches, until ``--seconds`` is used up.
Times are scaled to a machine of reference speed by the yardstick, a fixed
task timed in each pass (``yardstick.py``); the raw times go to the result file.
Reported values are medians over passes, except ``wall_s`` (see
``metrics.py``); op latencies are pooled over passes.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
from the spans, plus ``trace.overhead_ratio``.

Outputs are checked after the timed passes, by identities and the sieve
oracle (``workloads.py``) and, for the default seed, against the stored
reference in ``reference/``.  A failed op is a wrong output or an unexpected
exception; an out-of-domain row that reports its status is not one.
``--write-reference`` stores the outputs of a run whose checks all pass.

Machine and toolchain details, per-pass figures and failures go to
``out/result-*.json``; spans of traced passes to ``out/spans-*.jsonl``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import opgen
from metrics import COMPUTED, END_TO_END, LAYER_METRICS
from yardstick import YARDSTICK_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

RUN_DEADLINE_S = 150  # a run must end well inside 180 s
FLOAT_REL_TOL = 1e-9


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_caches": _cpu_caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def _cpu_caches() -> dict:
    """Cache sizes in bytes as ``getconf`` reports them; empty where unknown."""
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    caches = {}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        value = value.strip()
        if name.endswith("CACHE_SIZE") and value.isdigit() and int(value) > 0:
            caches[name] = int(value)
    return caches


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload: str, seed: int, traced: bool, index: int, timeout: float) -> dict:
    spans = OUT / f"spans-{workload}-seed{seed}-pass{index}.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), "1" if traced else "0",
         str(spans)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass {index} of {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and \
            math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=1e-12)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def check_outputs(workload: str, seed: int, ops: list, passes: list[dict]) -> tuple[list, int]:
    """Failure reasons for the first pass's ops, and failed ops over all passes."""
    import workloads

    first = passes[0]["outputs"]
    done = [i for i, out in enumerate(first) if out is not None]
    reasons: list = ["unexpected exception"] * len(ops)
    for i, reason in zip(done, workloads.WORKLOADS[workload]().check(
            [ops[i] for i in done], [first[i] for i in done])):
        reasons[i] = reason

    ref_path = REFERENCE / f"{workload}.json"
    if seed == opgen.DEFAULT_SEED and ref_path.is_file():
        ref = json.loads(ref_path.read_text())["outputs"]
        for i, (out, want) in enumerate(zip(first, ref)):
            if reasons[i] is None and not _close(out, want):
                reasons[i] = f"differs from the reference: {out} != {want}"
        if len(ref) != len(first):
            reasons = [r or "reference has another op count" for r in reasons]

    failed = 0
    for p in passes:
        for i, out in enumerate(p["outputs"]):
            if reasons[i] is not None or str(i) in p["errors"] or out != first[i]:
                failed += 1
    return reasons, failed


def speed_scales(passes: list[dict]) -> list[float]:
    """Per pass, YARDSTICK_S over the pass's median yardstick time."""
    return [YARDSTICK_S / statistics.median(p["yardstick_s"]) for p in passes]


def scaled_wall(passes: list[dict]) -> float:
    return statistics.fmean(f * p["wall_s"] for p, f in zip(passes, speed_scales(passes)))


def end_to_end_metrics(passes: list[dict], scales: list[float]) -> tuple[dict, int]:
    lat_ms = [1000.0 * f * v for p, f in zip(passes, scales) for v in p["latencies_s"]]
    values = {
        "setup_s": statistics.median(f * p["setup_s"] for p, f in zip(passes, scales)),
        "wall_s": statistics.fmean(f * p["wall_s"] for p, f in zip(passes, scales)),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, len(lat_ms)


def layer_metrics(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_ratio"] = scaled_wall(traced) / scaled_wall(plain)
    return {k: {"value": values[k], "unit": unit} for k, unit in LAYER_METRICS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(opgen.GENERATORS))
    ap.add_argument("--seed", type=int, default=opgen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the reference for its seed")
    args = ap.parse_args(argv)

    if not (SRC / "ultrafriable" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  -- fails early on a broken package and compiles it before timing

    # SIGTERM unwinds subprocess.run, which kills and waits for the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    OUT.mkdir(exist_ok=True)
    info = machine_info()
    ops = opgen.make_ops(args.workload, args.seed)
    min_passes = 2 if args.trace else 1
    start = time.monotonic()
    passes: list[dict] = []
    durations: list[float] = []
    try:
        while True:
            elapsed = time.monotonic() - start
            if len(passes) >= min_passes and elapsed + statistics.median(durations) > args.seconds:
                break
            t0 = time.monotonic()
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(args.workload, args.seed, traced, len(passes),
                                   RUN_DEADLINE_S - elapsed))
            durations.append(time.monotonic() - t0)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    t_check = time.monotonic()
    reasons, failed = check_outputs(args.workload, args.seed, ops, passes)
    check_s = time.monotonic() - t_check
    attempted = len(ops) * len(passes)
    plain = [p for p in passes if not p["traced"]]
    e2e, samples = end_to_end_metrics(plain, speed_scales(plain))
    raw, _ = end_to_end_metrics(plain, [1.0] * len(plain))
    metrics = layer_metrics(passes) if args.trace else e2e

    if args.write_reference:
        if failed:
            print("not writing a reference from a run with failed ops", file=sys.stderr)
            return 1
        REFERENCE.mkdir(exist_ok=True)
        (REFERENCE / f"{args.workload}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "outputs": passes[0]["outputs"]},
            separators=(",", ":")) + "\n")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "ops": len(ops), "check_s": check_s,
        "passes": [{k: p.get(k) for k in ("traced", "setup_s", "wall_s", "peak_rss_mb",
                                          "cache_info", "latencies_s", "yardstick_s")}
                   for p in passes],
        "end_to_end": e2e, "end_to_end_raw": raw, "latency_samples": samples,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "failures": {i: r for i, r in enumerate(reasons) if r is not None},
        "errors": {i: e for p in passes for i, e in p["errors"].items()},
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print("# machine " + json.dumps(info))
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} ops/pass={len(ops)} "
          f"latency samples={samples} details in {result_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        if name in raw and name != "peak_rss_mb":
            label = f" (raw {raw[name]['value']:.6g})"
        print(f"#   {name:32s} {m['value']:.6g} {m['unit']}{label}")
    print(f"#   {'fail_ratio':32s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for i, reason in list(record["failures"].items())[:5]:
        print(f"# failed op {i}: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
