"""The yardstick: a fixed task that gauges how fast the machine runs.

The benchmark was written on two vCPUs of a shared x86-64 host whose speed
moves with the other tenants' load: the same pass of the same code ran
anywhere from 1.2 to 2.6 s, and the median of ten runs of a workload moved
by a third between two sets of runs taken hours apart.  The worker times
this task between ops, and the benchmark scales each pass's times by
``YARDSTICK_S`` over the median time of the task in that pass (``run.py``).
Over ten 55-second runs of each workload, in which the raw figures spread by
0.15 to 0.28 (distance between the quartiles over the median), the scaled
figures spread by 0.03 to 0.12.  Across passes the logarithm of a pass's
time followed that of the task's with correlation 0.93 (``exact``) and 0.80
(``estimate_grid``), and with slope 1.33 and 1.05: scaling removes most of
the machine's drift but not all of it.

The task uses none of the package and little memory: it adds about 2 MB to
a pass's peak resident memory.  It does Python integer, list and dict work
like the pruned walks and the saddle solver, and numpy passes over
half-megabyte arrays like the character and residue tables.  Since the task
never changes, a change to the package moves the scaled times as it moves
the raw ones.  Work the package left running between ops would slow the
task too, so the raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

YARDSTICK_S = 0.020  # the task's time on a machine of reference speed


class Yardstick:
    def __init__(self):
        self.keys = list(range(0, 3 << 13, 3))
        self.array = np.arange(1 << 16, dtype=np.int64)
        self.scratch = np.empty_like(self.array)
        self.times_s: list[float] = []
        self._task()  # untimed warm-up

    def run(self) -> None:
        t0 = time.perf_counter()
        self._task()
        self.times_s.append(time.perf_counter() - t0)

    def _task(self) -> int:
        keys, table, acc = self.keys, {}, 0
        for i in range(9000):
            j = bisect.bisect_right(keys, (i * 2654435761) % 24576)
            acc += j * j % 1000003
            table[j & 1023] = acc
        for _ in range(24):
            np.cumsum(self.array & 7, out=self.scratch)
            np.maximum(self.scratch[1:], self.scratch[:-1], out=self.scratch[1:])
        return acc + int(self.scratch[-1]) + len(table)
