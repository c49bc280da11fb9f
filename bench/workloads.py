"""Prewarm, per-op execution and output checks for each workload.

Every call goes through a module attribute (``cli.compute_row``,
``ct.count_ultrafriable`` ...) so that the tracer's wrappers see it.  An
op's output is a small JSON-able list; ``check`` turns the outputs of one
pass into a failure reason per op (None when the output is right) using
identities and the sieve oracle, and runs outside the timed phase.
"""

from __future__ import annotations

import cmath
import math

from ultrafriable import characters as ch
from ultrafriable import cli
from ultrafriable import counting as ct
from ultrafriable import estimators as es
from ultrafriable import primes as pr
from ultrafriable import saddle as sd

ORACLE_CHECK_X = 10**7  # rows with x up to here are checked against naive_oracle


def _status(row: dict) -> str:
    """"ok", or the exception class of an out-of-domain row."""
    return row["status"].split(":", 1)[0]


class Workload:
    """Prewarm builds the prime-power table of every y in the op list."""

    def prewarm(self, ops):
        for y in sorted({op["y"] for op in ops}):
            pr.build_table(y)

    def finish(self):
        pass


class RowWorkload(Workload):
    """Rows through the CLI path: each op computes a row and prints it as
    CSV; the pass ends by printing all rows as one JSON document."""

    def __init__(self):
        self.rows = []

    def run(self, op) -> list:
        row = cli.compute_row(self.spec(op))
        cli.rows_to_csv([row])
        self.rows.append(row)
        return self.output(row)

    def finish(self):
        cli.rows_to_json(self.rows, {"command": "bench"}, 0.0)


# ---------------------------------------------------------------------------
# the exact workload: count rows, character rows and oracle tuples
# ---------------------------------------------------------------------------

class CountRows(RowWorkload):
    """Count rows through the CLI row path, engines built in prewarm."""

    def prewarm(self, ops):
        super().prewarm(ops)
        for y, q, per_class in sorted({(op["y"], op["q"], op["a"] is not None) for op in ops}):
            table = pr.build_table(y)
            if per_class:
                ct.get_residue_counter(table, q)
            else:
                ct.get_counter(table, pr.modulus_context(q, table))

    def spec(self, op) -> dict:
        return {"mode": "count", "x": op["x"], "y": op["y"], "q": op["q"], "a": op["a"]}

    def output(self, row) -> list:
        return [_status(row), row["exact_value_or_log"]]

    def check(self, ops, outputs) -> list:
        out = []
        for op, (status, count) in zip(ops, outputs):
            if status != "ok":
                out.append(f"status {status}")
                continue
            x, y, q, a = op["x"], op["y"], op["q"], op["a"]
            table = pr.build_table(y)
            n = int(count)
            if a is None:
                ctx = pr.modulus_context(q, table)
                N, tau = pr.N_q(table, ctx), pr.tau_N(table, ctx)
                # divisor symmetry costs a second walk as deep as the query,
                # so it is applied up to x = e^22 only
                if x <= math.exp(22) and n + ct.count_ultrafriable_below(N, table, ctx, den=x) != tau:
                    out.append("divisor symmetry")
                    continue
                if x <= ORACLE_CHECK_X and n != ct.naive_oracle(x, y, q=q):
                    out.append("oracle")
                    continue
            else:
                rc = ct.count_ultrafriable_residues(x, table, q)
                if n != rc[a]:
                    out.append("class count differs from a fresh residue vector")
                    continue
                if rc.total() != ct.count_ultrafriable(x, table):
                    out.append("classes do not sum to the plain count")
                    continue
                if rc.coprime_total() != ct.count_ultrafriable(x, table, pr.modulus_context(q, table)):
                    out.append("coprime classes do not sum to the coprime count")
                    continue
                if x <= ORACLE_CHECK_X and n != ct.naive_oracle(x, y, a=a, q=q):
                    out.append("oracle")
                    continue
            out.append(None)
        return out


class CharacterRows(Workload):
    """Orthogonality reconstruction and T3 ratios."""

    def run(self, op) -> list:
        table = pr.build_table(op["y"])
        if op["kind"] == "reconstruct":
            v = ch.reconstruct_progression(op["x"], table, op["a"], op["q"])
            return [v.real, v.imag]
        ctx = pr.modulus_context(op["q"], table)
        chi = ch.enumerate_characters(op["q"])[op["index"]]
        d = es.t3_bound(op["x"], table, ctx, chi)
        return [d.bound_theta0, d.bound_theta1, d.exact_ratio, d.u]

    def check(self, ops, outputs) -> list:
        out = []
        for op, res in zip(ops, outputs):
            x, q = op["x"], op["q"]
            rc = ct.count_ultrafriable_residues(x, pr.build_table(op["y"]), q)
            if op["kind"] == "reconstruct":
                exact = rc[op["a"]]
                tol = 1e-7 * max(1, exact)
                if abs(res[0] - exact) > tol or abs(res[1]) > tol:
                    out.append(f"orthogonality gives {res[0]}+{res[1]}i, class count {exact}")
                    continue
            else:
                # |sum chi(n)| / Upsilon_q rebuilt from the residue vector, whose
                # coprime classes must add up to Upsilon_q
                chi = ch.enumerate_characters(q)[op["index"]]
                L = chi.group.exponent
                s = 0j
                for a, c in enumerate(rc.counts):
                    k = chi.value_index(a) if c else None
                    if k is not None:
                        s += c * cmath.exp(2j * math.pi * k / L)
                ratio = abs(s) / rc.coprime_total()
                if abs(res[2] - ratio) > 1e-9 * max(ratio, 1e-12) or not 0 < res[0] <= res[1]:
                    out.append(f"t3 ratio {res[2]} against {ratio}")
                    continue
            out.append(None)
        return out


class OracleTuples(Workload):
    """Engines, friable recursion and the sieve oracle, engines built cold."""

    def run(self, op) -> list:
        x, y, q, a = op["x"], op["y"], op["q"], op["a"]
        table = pr.build_table(y)
        return [
            ct.count_ultrafriable(x, table, pr.modulus_context(q, table)),
            ct.naive_oracle(x, y, q=q, mode="ultrafriable"),
            ct.count_friable(x, y, q),
            ct.naive_oracle(x, y, q=q, mode="friable"),
            ct.count_ultrafriable_residues(x, table, q)[a],
            ct.naive_oracle(x, y, a=a, q=q, mode="ultrafriable"),
        ]

    def check(self, ops, outputs) -> list:
        names = ("coprime count", "friable count", "residue class")
        out = []
        for res in outputs:
            bad = [n for n, e, o in zip(names, res[0::2], res[1::2]) if e != o]
            out.append(f"{', '.join(bad)} differ from the oracle" if bad else None)
        return out


class Exact(Workload):
    """Count rows (engines prebuilt), then character rows and oracle tuples
    (engines built in the timed phase)."""

    def __init__(self):
        self.counts = CountRows()
        characters = CharacterRows()
        self.parts = {"count": self.counts, "reconstruct": characters, "t3": characters,
                      "verify": OracleTuples()}

    def prewarm(self, ops):
        super().prewarm(ops)
        self.counts.prewarm([op for op in ops if op["kind"] == "count"])

    def run(self, op) -> list:
        return self.parts[op["kind"]].run(op)

    def finish(self):
        self.counts.finish()

    def check(self, ops, outputs) -> list:
        out: list = [None] * len(ops)
        for part in set(self.parts.values()):
            idx = [i for i, op in enumerate(ops) if self.parts[op["kind"]] is part]
            for i, reason in zip(idx, part.check([ops[i] for i in idx], [outputs[i] for i in idx])):
                out[i] = reason
        return out


# ---------------------------------------------------------------------------
# estimate_grid: estimate rows through the CLI row path
# ---------------------------------------------------------------------------

class EstimateGrid(RowWorkload):
    def spec(self, op) -> dict:
        return {"mode": "estimate", "x": op["x"], "y": op["y"], "q": op["q"],
                "variant": op["variant"]}

    def output(self, row) -> list:
        return [_status(row), row["est_log_main"], row["beta"], row["sigma2"], row["budget"]]

    def check(self, ops, outputs) -> list:
        out = []
        t1i_q1 = {}
        for op, (status, log_main, beta, sigma2, budget) in zip(ops, outputs):
            if op["variant"] == "T1i" and op["q"] == 1 and status == "ok":
                t1i_q1[(op["x"], op["y"])] = log_main
        for op, (status, log_main, beta, sigma2, budget) in zip(ops, outputs):
            x, y = op["x"], op["y"]
            table = pr.build_table(y)
            small_y = pr.classify_regime(x, table).small_y
            if status != "ok":
                # out-of-domain rows are not failures when the domain says so
                ok = (status == "RegimeError" and not small_y) or \
                     (status == "DomainError" and op["variant"] in ("T1ii", "T1iii"))
                out.append(None if ok else f"status {status}")
                continue
            if not small_y:
                out.append("estimate outside the small-y domain")
                continue
            lx = math.log(x)
            residual = abs(sd.phi1(beta, table) - lx) / lx
            if not residual <= sd.RESIDUAL_TOL:
                out.append(f"saddle residual {residual:.3g}")
                continue
            if not (math.isfinite(log_main) and sigma2 > 0 and budget >= 0):
                out.append("non-finite estimate or negative budget")
                continue
            ref = t1i_q1.get((x, y))
            if op["variant"] == "UPS" and ref is not None and \
                    abs(log_main - ref) > 1e-12 * abs(ref):
                out.append("UPS differs from T1i at q=1")
                continue
            out.append(None)
        return out


WORKLOADS = {
    "exact": Exact,
    "estimate_grid": EstimateGrid,
}
