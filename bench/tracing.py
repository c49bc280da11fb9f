"""Spans around calls into the package's public functions.

The tracer swaps module attributes of ``ultrafriable`` for wrappers that
record a span per call: (name, start, end, parent span, op id).  Spans stay
in memory and are written out when the pass ends.  A layer's self time is
its spans' durations minus the time their child spans cover.  Cache
counters are read from ``cache_info()`` and engine attributes only.  The
package's source is untouched: the swap lives in the traced worker process.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from ultrafriable import characters as ch
from ultrafriable import cli
from ultrafriable import counting as ct
from ultrafriable import estimators as es
from ultrafriable import primes as pr
from ultrafriable import saddle as sd


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1  # -1 while setting up
        self.counters: dict[str, float] = defaultdict(float)
        self.residual_max = 0.0
        self._originals = {}

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, out)
            return out

        return traced

    def install(self):
        """Swap the public entry points of every layer for traced wrappers."""
        self._originals = {
            "build_table": pr.build_table,
            "beta_cached": sd.beta_cached,
            "character_group": ch.character_group,
            "oracle_arrays": ct._oracle_arrays,
        }

        def engine_built(args, engine):
            self.counters["counting.tail_entries"] += len(engine.tail_divs)
            prefix = getattr(engine, "tail_prefix", None)
            if prefix is not None:
                self.counters["counting.prefix_cells"] += prefix.size

        def solved(args, res):
            self.counters["saddle.iterations"] += res.iterations
            self.residual_max = max(self.residual_max, res.residual)

        def summed_all(args, sums):
            counts, chars = args[0], args[1]
            self.counters["characters.chi_evals"] += len(counts.counts) * len(chars)

        def summed_one(args, s):
            self.counters["characters.chi_evals"] += args[2].modulus

        patches = [
            (pr, "build_table", "primes.build_table", None),
            (ct, "DivisorCounter", "counting.engine_build", engine_built),
            (ct, "ResidueDivisorCounter", "counting.engine_build", engine_built),
            (ct, "count_ultrafriable", "counting.query", None),
            (ct, "count_ultrafriable_below", "counting.query", None),
            (ct, "count_ultrafriable_residues", "counting.query", None),
            (ch, "count_ultrafriable_residues", "counting.query", None),
            (ct, "naive_oracle", "counting.oracle", None),
            (ct, "count_friable", "counting.friable", None),
            (ct, "count_friable_progression", "counting.friable", None),
            (ct, "character_sum", "characters.sum", summed_one),
            (sd, "solve_beta", "saddle.solve", solved),
            (sd, "solve_alpha", "saddle.solve", solved),
            (sd, "log_Z_q", "saddle.series", None),
            (sd, "arithmetic_factors", "saddle.series", None),
            (sd, "gaussian_G", "saddle.series", None),
            (ch, "CharacterGroup", "characters.group_build", None),
            (ch, "character_sums_from_residues", "characters.sum", summed_all),
            (ch, "reconstruct_progression", "characters.sum", None),
            (cli, "compute_row", "cli.row", None),
            (cli, "rows_to_csv", "cli.format", None),
            (cli, "rows_to_json", "cli.format", None),
        ]
        for name in ("estimate_upsilon", "estimate_upsilon_q", "estimate_t2",
                     "estimate_progression", "estimate_noncoprime", "t3_bound", "compare"):
            patches.append((es, name, "estimators.call", None))
        for module, attr, span, after in patches:
            setattr(module, attr, self.wrap(span, getattr(module, attr), after))

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self) -> dict[str, float]:
        self_s, calls = self.self_times()
        o = self._originals

        def hit_ratio(info) -> float:
            total = info.hits + info.misses
            return info.hits / total if total else 0.0

        solves = calls["saddle.solve"]
        m = {
            "primes.build_table_s": self_s["primes.build_table"],
            "primes.build_table_hit_ratio": hit_ratio(o["build_table"].cache_info()),
            "counting.query_s": self_s["counting.query"],
            "counting.queries": calls["counting.query"],
            "counting.engine_build_s": self_s["counting.engine_build"],
            "counting.engine_builds": calls["counting.engine_build"],
            "counting.tail_entries": self.counters["counting.tail_entries"],
            "counting.prefix_cells": self.counters["counting.prefix_cells"],
            "counting.oracle_s": self_s["counting.oracle"],
            "counting.oracle_rebuilds": o["oracle_arrays"].cache_info().misses,
            "counting.friable_s": self_s["counting.friable"],
            "saddle.solve_s": self_s["saddle.solve"],
            "saddle.solves": solves,
            "saddle.beta_hit_ratio": hit_ratio(o["beta_cached"].cache_info()),
            "saddle.iterations_mean": self.counters["saddle.iterations"] / solves if solves else 0.0,
            "saddle.residual_max": self.residual_max,
            "saddle.series_s": self_s["saddle.series"],
            "estimators.self_s": self_s["estimators.call"],
            "estimators.calls": calls["estimators.call"],
            "characters.sum_s": self_s["characters.sum"],
            "characters.group_build_s": self_s["characters.group_build"],
            "characters.group_misses": o["character_group"].cache_info().misses,
            "characters.chi_evals": self.counters["characters.chi_evals"],
            "cli.row_self_s": self_s["cli.row"],
            "cli.format_s": self_s["cli.format"],
        }
        return {k: float(v) for k, v in m.items()}

    def cache_info(self) -> dict[str, dict]:
        return {k: f.cache_info()._asdict() for k, f in self._originals.items()}

    def dump(self, path: str):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
