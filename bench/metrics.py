"""Names and units of the metrics the benchmark reports.

``END_TO_END`` metrics come from untraced passes (``--trace 0``), the
per-layer ones from the spans of traced passes (``--trace 1``).  A layer's
time is the self time of its spans: span durations minus their child spans.
End-to-end times are scaled to a machine of reference speed
(``yardstick.py``); per-layer times are not.
"""

END_TO_END = {
    "setup_s": "s",  # import plus the workload's prewarm
    # The op list, including the pass's closing JSON document; the mean over
    # passes.  On a shared 2-vCPU x86-64 VM the speed switched between two
    # states for seconds at a time: the mean moves smoothly with the share of
    # time spent in each, while the median of a few passes jumps between them
    # (over ten 28-second runs of the count rows alone the spread was 0.165
    # with the mean and 0.221 with the median).
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

LAYER_METRICS = {
    "primes.build_table_s": "s",
    "primes.build_table_hit_ratio": "ratio",
    "counting.query_s": "s",
    "counting.queries": "count",
    "counting.engine_build_s": "s",
    "counting.engine_builds": "count",
    "counting.tail_entries": "count",
    "counting.prefix_cells": "count",
    "counting.oracle_s": "s",
    "counting.oracle_rebuilds": "count",
    "counting.friable_s": "s",
    "saddle.solve_s": "s",
    "saddle.solves": "count",
    "saddle.beta_hit_ratio": "ratio",
    "saddle.iterations_mean": "count",
    "saddle.residual_max": "ratio",
    "saddle.series_s": "s",
    "estimators.self_s": "s",
    "estimators.calls": "count",
    "characters.sum_s": "s",
    "characters.group_build_s": "s",
    "characters.group_misses": "count",
    "characters.chi_evals": "count",
    "cli.row_self_s": "s",
    "cli.format_s": "s",
    "trace.overhead_ratio": "ratio",  # traced wall_s over untraced wall_s
}

# Counts derived from engine sizes (sum of len(tail_divs), sum of
# tail_prefix.size) or from call arguments (residues x characters), not timed.
COMPUTED = ("counting.tail_entries", "counting.prefix_cells", "characters.chi_evals")
