"""Seeded op lists for the benchmark workloads.

Op lists are plain data built from the workload name and the seed only, so
the worker and the checker regenerate the same list without importing the
package.  Inputs are stratified: each (y, q) combination gets a fixed number
of ops whose log x falls one per stratum of the workload's range, at a seeded
position near the middle of the stratum.  Query cost grows steeply with x,
so a point free to move across its whole stratum made the median op latency
differ by up to 8% from seed to seed; moving it across a fifth of the
stratum gives every seed different inputs with nearly the same cost profile.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 0
JITTER = 0.2  # share of a stratum across which the seed moves its point


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One seeded point near the middle of each of n equal strata of [lo, hi)."""
    h = (hi - lo) / n
    return [lo + (i + 0.5 + JITTER * (rng.random() - 0.5)) * h for i in range(n)]


def count_rows(rng: random.Random) -> list[dict]:
    """Count rows: plain counts at y in {150, 200}, residue classes at y = 100.

    x is an exact integer.  The plain range tops out at e^27 for y = 150 and
    at e^24 for y = 200, where one query already takes about 0.3 s with the
    pruned walk; residue classes at y = 100 go up to e^30.
    """
    ops = []
    for y, top, n in ((150, 27.0, 12), (200, 24.0, 10)):
        for q in (1, 2, 6):
            for lx in _strata(rng, 14.0, top, n):
                ops.append({"kind": "count", "x": int(math.exp(lx)), "y": y, "q": q, "a": None})
    for q in (7, 30, 210):
        for lx in _strata(rng, 14.0, 30.0, 12):
            ops.append({"kind": "count", "x": int(math.exp(lx)), "y": 100, "q": q,
                        "a": rng.randrange(q)})
    return ops


ESTIMATE_YS = tuple(int(round(50 * 60 ** (i / 23))) for i in range(24))  # 50 .. 3000
ESTIMATE_VARIANTS = ("T1i", "T1ii", "T1iii", "UPS")
LOG_X_CAP = 700.0  # x travels as a float


def estimate_grid(rng: random.Random) -> list[dict]:
    """Estimate rows: four variants sharing each (x, y, q) point.

    log x spans (0.1 .. 1.1) * y / 2, which by psi(y) ~ y puts about nine
    points in ten inside the small-y domain psi(y) > 2 log x; the rest are
    out-of-domain rows that report their status.
    """
    ops = []
    for y in ESTIMATE_YS:
        hi = min(0.55 * y, LOG_X_CAP)
        lo = min(0.05 * y, hi / 2)
        for i, lx in enumerate(_strata(rng, lo, hi, 45)):
            q = (1, 6, 30)[i % 3]
            for variant in ESTIMATE_VARIANTS:
                ops.append({"x": math.exp(lx), "y": y, "q": q, "variant": variant})
    return ops


# (y, q, log-x range, x points, reconstructed classes per x, characters per x);
# every q is prime, so character index 0 is the principal one.  x stays low
# at q = 331 and 1009 so that a t3_bound row costs mostly its character sum.
# The counts put as many ops below the t3_bound rows at q = 1009 (the cheaper
# rows at q = 101 and 331) as above them (reconstructions and engine builds):
# the median then falls in the middle of the q = 1009 rows and the 90th
# percentile among the reconstructions at q = 101, not between two groups of
# ops whose costs differ.
CHARS_PLAN = (
    (120, 101, (12.0, 18.0), 3, 4, 3),
    (400, 331, (9.5, 11.5), 2, 1, 3),
    (1100, 1009, (8.5, 9.5), 1, 1, 72),
)


def character_rows(rng: random.Random) -> list[dict]:
    """reconstruct_progression and t3_bound rows at three prime moduli."""
    ops = []
    for y, q, (lo, hi), n_x, n_a, n_chi in CHARS_PLAN:
        for lx in _strata(rng, lo, hi, n_x):
            x = int(math.exp(lx))
            for a in rng.sample(range(1, q), n_a):
                ops.append({"kind": "reconstruct", "x": x, "y": y, "q": q, "a": a})
            for index in sorted(rng.sample(range(1, q - 1), n_chi)):
                ops.append({"kind": "t3", "x": x, "y": y, "q": q, "index": index})
    return ops


# Fixed (y, q) pairs keep the set of engines, and so peak memory, the same
# for every seed; the seed draws x and the residue class.
ORACLE_PAIRS = ((21, 4), (34, 15), (55, 12), (89, 30), (144, 49), (200, 35))


def oracle_tuples(rng: random.Random) -> list[dict]:
    """Criterion-1 style tuples with x <= 10^6, sorted by (y, q, x)."""
    ops = []
    for y, q in ORACLE_PAIRS:
        for lx in _strata(rng, math.log(10.0), math.log(1e6), 17):
            ops.append({"kind": "verify", "x": int(math.exp(lx)), "y": y, "q": q,
                        "a": rng.randrange(q)})
    ops.sort(key=lambda op: (op["y"], op["q"], op["x"]))
    return ops


def exact(rng: random.Random) -> list[dict]:
    """Count rows, then character rows, then oracle tuples."""
    return count_rows(rng) + character_rows(rng) + oracle_tuples(rng)


GENERATORS = {
    "exact": exact,
    "estimate_grid": estimate_grid,
}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one workload for one seed."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
