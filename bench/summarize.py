"""Medians and spreads over the runs stored in out/.

Usage: python3 bench/summarize.py [--trace 0|1] [--write-baseline] WORKLOAD...

For each workload, reads every ``out/result-WORKLOAD-seed*-traceT.json`` and
prints, per metric, the median over runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median; for untraced runs
also the same figures of the unscaled times (``raw_metrics``).  With
``--write-baseline`` the figures and the machine they came from are stored
in ``baseline.json``, under ``end_to_end`` for untraced runs and
``per_layer`` for traced ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def summarize(workload: str, trace: int) -> dict:
    runs = [json.loads(p.read_text())
            for p in sorted((BENCH / "out").glob(f"result-{workload}-seed*-trace{trace}.json"))]
    if len(runs) < 2:
        raise SystemExit(f"need at least two runs of {workload} in out/, found {len(runs)}")
    out = {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs),
           "failed": sum(r["failed"] for r in runs), "machine": runs[-1]["machine"]}
    fields = [("metrics", "metrics")] + ([] if trace else [("raw_metrics", "end_to_end_raw")])
    for key, field in fields:
        out[key] = {}
        for name, m in runs[0][field].items():
            values = [r[field][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            out[key][name] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                              "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)

    summaries = {w: summarize(w, args.trace) for w in args.workloads}
    for w, s in summaries.items():
        print(f"{w}: {s['runs']} runs, seeds {s['seeds']}, {s['failed']} failed ops")
        for name, m in s["metrics"].items():
            raw = s.get("raw_metrics", {}).get(name)
            note = f" (raw spread {raw['spread']:.3f})" if raw and name != "peak_rss_mb" else ""
            print(f"  {name:32s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.3f} {m['unit']}{note}")
    if args.write_baseline:
        path = BENCH / "baseline.json"
        base = json.loads(path.read_text()) if path.is_file() else {}
        kind = "per_layer" if args.trace else "end_to_end"
        for w, s in summaries.items():
            base.setdefault(w, {})[kind] = s
        path.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
