"""Command-line front end: single queries, sweeps, calibration, CSV/JSON.

Subcommands: count, saddle, estimate, compare, chars, sweep, calibrate.
Each declares only the flags it reads, so the parser alone decides which
flags may be given: an unread flag, a missing x or y, or a point given with
its grid (--x with --x-grid) is a usage error, exit 2.  ``sweep`` is
``compare`` under another name.
Rows follow one fixed column schema across all modes (unused cells stay
empty); re-running an identical configuration yields byte-identical rows.
x accepts decimal (123), scientific (1e6) and log-space (e30 or e^30)
literals; grids are either comma lists or lo:hi:n, log-spaced.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import sys
import time

from . import __version__
from . import calibration as cal
from . import characters as ch
from . import counting as ct
from . import estimators as es
from . import primes as pr
from . import saddle as sd
from .errors import DomainError, UltrafriableError

COLUMNS = [
    "mode", "x", "log_x", "y", "q", "a", "variant", "regime",
    "exact_value_or_log", "est_log_main", "rel_error", "budget",
    "error_over_budget", "beta", "sigma2", "u", "eta", "omega_q",
    "delta_q", "d_q", "c_q", "status",
    # saddle-mode extras, appended after the core schema
    "alpha", "sigma3", "sigma4", "residual",
]

EXACT_PRINT_LIMIT = 10**30


class XRangeError(ValueError, argparse.ArgumentTypeError):
    """An x literal past the float range; argparse prints its message."""


def parse_x(text: str) -> int | float:
    """Parse decimal, scientific, or e^k / ek log-space literals.

    A plain integer literal stays an exact int, so x above 2^53 is not rounded.
    A float literal past the float range, such as e^800 or 1e400, raises
    XRangeError, a ValueError.
    """
    t = text.strip()
    if re.fullmatch(r"[+-]?\d+", t):
        return int(t)
    k = t[2:] if t.startswith("e^") else t[1:] if t[:1] == "e" else None
    try:
        v = float(t) if k is None else math.exp(float(k))
    except OverflowError:
        v = math.inf
    if math.isinf(v):
        raise XRangeError(f"x = {text} is beyond the float range; "
                          "give x as an integer literal, all of its digits")
    return v


def parse_grid(text: str) -> list:
    """A comma list, or lo:hi:n expanded log-spaced, of parse_x points.

    The endpoints are the parsed lo and hi themselves, not exp(log(lo)),
    which can fall just below an integer endpoint and change its floor.
    """
    if ":" in text:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = parse_x(lo_s), parse_x(hi_s), int(n_s)
        if n < 1:
            raise ValueError("grid needs n >= 1")
        if n == 1:
            return [lo]
        if min(lo, hi) <= 0:
            raise ValueError(f"grid {text} is log-spaced: lo and hi must be > 0")
        llo, lhi = math.log(lo), math.log(hi)
        inner = [math.exp(llo + i * (lhi - llo) / (n - 1)) for i in range(1, n - 1)]
        return [lo, *inner, hi]
    points = [parse_x(p) for p in text.split(",") if p.strip()]
    if not points:
        raise ValueError(f"grid {text!r} has no points")
    return points


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _fmt_count(n: int) -> str:
    """Counts are printed exactly below 10^30, as log10 beyond."""
    if n < EXACT_PRINT_LIMIT:
        return str(n)
    return "log10=" + format(math.log10(n), ".12g")


def _blank_row(spec: dict) -> dict:
    row = {c: None for c in COLUMNS}
    row["mode"] = spec["mode"]
    if spec.get("x") is not None:
        row["x"] = _fmt(spec["x"])
        # no log for x <= 0: x = 0 counts 0 and x < 0 is a DomainError row
        row["log_x"] = math.log(spec["x"]) if spec["x"] > 0 else None
    for col in ("y", "q", "a", "variant"):
        row[col] = spec.get(col)
    return row


def _fill_budget(row: dict, bud: es.ErrorBudget):
    row.update(regime=bud.regime.kind, u=bud.u, eta=bud.eta, omega_q=bud.omega_q,
               delta_q=bud.delta_q, d_q=bud.dd_q, c_q=bud.cc_q, budget=bud.stated_bound)


def compute_row(spec: dict) -> dict:
    """Evaluate one grid point; errors land in the status column."""
    row = _blank_row(spec)
    try:
        _dispatch(spec, row)
        if row["status"] is None:
            row["status"] = "ok"
    except UltrafriableError as exc:
        row["status"] = f"{type(exc).__name__}: {exc}"
    return row


def _dispatch(spec: dict, row: dict):
    mode = spec["mode"]
    x, y, a = spec.get("x"), spec.get("y"), spec.get("a")
    q = 1 if spec.get("q") is None else spec["q"]

    if mode == "count":
        kind = spec.get("variant") or "ultrafriable"
        row["variant"] = kind
        if kind not in ("ultrafriable", "friable"):
            raise DomainError(f"unknown count variant {kind!r}; use ultrafriable or friable")
        if kind == "friable":
            n = ct.count_friable(x, y, q) if a is None else ct.count_friable_progression(x, y, a, q)
        else:
            table = pr.build_table(y)
            row["regime"] = pr.classify_regime(max(x, 2.0), table).kind
            if a is None:
                n = ct.count_ultrafriable(x, table, pr.modulus_context(q, table))
            else:
                n = ct.count_ultrafriable_residues(x, table, q)[a]
        row["exact_value_or_log"] = _fmt_count(n)
        return

    if mode == "saddle":
        table = pr.build_table(y)
        regime = pr.classify_regime(x, table)
        row["regime"] = regime.kind
        row["u"] = regime.u
        row["eta"] = regime.eta
        if regime.small_y:
            res = sd.solve_beta(x, table)
            row["beta"] = res.sigma
            row["sigma2"] = res.sigma_j[2]
            row["sigma3"] = sd.phi_j_q(3, res.sigma, table)
            row["sigma4"] = sd.phi_j_q(4, res.sigma, table)
            row["residual"] = res.residual
        if x >= y:
            row["alpha"] = sd.solve_alpha(x, y).sigma
        return

    if mode == "chars":
        # one row per character: index in the a column, t3 ratio as exact value
        idx = spec["char_index"]
        chi = ch.enumerate_characters(q)[idx]
        row["a"] = idx
        row["variant"] = "T3"
        row["status"] = (
            f"order={chi.order}"
            + (";principal" if chi.is_principal else "")
            + (";real" if chi.is_real else "")
        )
        if x is not None and y is not None and not chi.is_principal:
            table = pr.build_table(y)
            diag = es.t3_bound(x, table, pr.modulus_context(q, table), chi,
                               c1=spec.get("c1", es.DEFAULT_C1))
            row["exact_value_or_log"] = _fmt(diag.exact_ratio)
            row["budget"] = diag.bound_theta1
            row["error_over_budget"] = diag.exact_ratio / diag.bound_theta1
            row["u"] = diag.u
            row["regime"] = diag.regime.kind
        return

    table = pr.build_table(y)
    ctx = pr.modulus_context(q, table)

    if mode in ("estimate", "compare"):
        variant = spec.get("variant") or "T1i"
        row["variant"] = variant
        est = es.estimate(variant, x, table, ctx, a, spec.get("c1", es.DEFAULT_C1),
                          classes=mode == "compare")
        if mode == "compare":  # the count first: a refused count leaves the row empty
            exact = es.exact_count(variant, x, table, ctx, a)
            rec = es.compare(exact, est)
            row.update(exact_value_or_log=_fmt_count(exact), rel_error=rec.rel_error,
                       error_over_budget=rec.error_over_budget)
        row.update(est_log_main=est.log_main, beta=est.beta, sigma2=est.sigma2)
        _fill_budget(row, est.budget)
        return

    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _cells(row: dict) -> list:
    """The row's cells in COLUMNS order, formatted once for CSV and JSON alike;
    an empty cell stays None (csv.writer writes it as "", JSON as null)."""
    return [None if v is None else _fmt(v) for v in map(row.get, COLUMNS)]


_CSV_HEADER = ",".join(COLUMNS) + "\n"


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(_CSV_HEADER)
    csv.writer(buf, lineterminator="\n").writerows(map(_cells, rows))
    return buf.getvalue()


def rows_to_json(rows: list[dict], config: dict, elapsed: float) -> str:
    payload = {
        "meta": {
            "version": __version__,
            "config": config,
            "timing_seconds": round(elapsed, 6),
        },
        "rows": [dict(zip(COLUMNS, _cells(row))) for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, out: str | None) -> int:
    try:
        if out:
            with open(out, "w", encoding="utf-8") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing and grid expansion
# ---------------------------------------------------------------------------

def _jobs(text: str) -> int:
    """A --jobs value: a worker count >= 0, where 0 means one per CPU."""
    if not re.fullmatch(r"\+?\d+", text.strip()):
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {text!r}")
    return int(text)


def _c1(text: str) -> float:
    """A --c1 value: a finite float > 0."""
    try:
        c1 = float(text)
    except ValueError:
        c1 = math.nan
    if not (math.isfinite(c1) and c1 > 0):
        raise argparse.ArgumentTypeError(f"need a finite c1 > 0, got {text!r}")
    return c1


_OUTPUT = ("format", "out", "jobs")
_ESTIMATE = ("variant", "c1", *_OUTPUT)

# name, help, the axes it reads (each a point or a grid), the other flags it reads
_SUBCOMMANDS = (
    ("count", "exact counts (ultrafriable by default, --variant friable)", "xyqa",
     ("variant", *_OUTPUT)),
    ("saddle", "solve the saddle equations at (x, y)", "xy", _OUTPUT),
    ("estimate", "main term and error budget for a theorem variant", "xyqa", _ESTIMATE),
    ("compare", "exact count vs estimate with error/budget ratio", "xyqa", _ESTIMATE),
    ("chars", "character table and character-sum diagnostics", "", ("x", "y", "q", "c1", *_OUTPUT)),
    ("sweep", "compare over the full grid cross-product", "xyqa", _ESTIMATE),
    ("calibrate", "run band calibration, print key=value constants", "", ("out",)),
)

_FLAGS = {
    "x": {"type": parse_x},
    "y": {"type": int},
    "q": {"type": int},
    "a": {"type": int},
    "variant": {"help": "|".join(es.VARIANTS) + ", or count kind; comma list"},
    "c1": {"type": _c1, "default": es.DEFAULT_C1, "help": "c1 of the T4, R6 and chars budgets"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "out": {},
    "jobs": {"type": _jobs, "default": 0,
             "help": "worker processes for sweep rows; 0 = available parallelism"},
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, declaring only the flags it reads.

    An axis takes a point (--x) or a grid (--x-grid), not both, and the x and
    y axes are required; chars reads x and y as points only and requires q.
    """
    ap = argparse.ArgumentParser(
        prog="ultrafriable",
        description="Exact ultrafriable/friable counts and their saddle-point estimates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, descr, axes, flags in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=descr)
        for axis in axes:
            group = sp.add_mutually_exclusive_group(required=axis in "xy")
            group.add_argument(f"--{axis}", **_FLAGS[axis])
            group.add_argument(f"--{axis}-grid", metavar="GRID", help="comma list, or lo:hi:n log-spaced")
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag], required=(name, flag) == ("chars", "q"))
    return ap


def _axis_values(opts: dict, axis: str) -> list:
    """The points of one axis: its grid if given, else its point (None if unread).

    On the integer axes y, q and a every listed point and both endpoints must
    be integer literals; the inner points of lo:hi:n are floored.
    """
    grid = opts.get(f"{axis}_grid")
    if grid is None:
        return [opts.get(axis)]
    points = parse_grid(grid)
    if axis == "x":
        return points
    if not all(isinstance(v, int) for v in ((points[0], points[-1]) if ":" in grid else points)):
        raise ValueError(f"--{axis}-grid {grid} takes integer literals")
    return [int(v) for v in points]


def _expand_grids(args) -> list[dict]:
    opts = vars(args)
    mode = "compare" if args.command == "sweep" else args.command
    variants = opts["variant"].split(",") if opts.get("variant") else [None]
    c1 = opts.get("c1", es.DEFAULT_C1)
    axes = [_axis_values(opts, axis) for axis in "xyqa"]
    return [{"mode": mode, "x": x, "y": y, "q": q, "a": a, "variant": variant, "c1": c1}
            for variant in variants for x, y, q, a in itertools.product(*axes)]


def _compute_all(specs: list[dict], jobs: int) -> list[dict]:
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs == 1 or len(specs) <= 1:
        return [compute_row(s) for s in specs]
    # loads multiprocessing and socket, which only a parallel sweep needs
    from concurrent.futures import ProcessPoolExecutor

    # about four chunks per worker: one row per task costs a pickle round trip per row
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(compute_row, specs, chunksize=-(-len(specs) // (4 * jobs))))


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)

    if args.command == "calibrate":
        return _emit(cal.format_constants(cal.run_calibration()), args.out)

    t0 = time.perf_counter()
    if args.command == "chars":
        if (args.x is None) != (args.y is None):
            ap.error("chars takes --x and --y together, or neither")
        try:
            n_chars = ch.character_group(args.q).phi_q
        except UltrafriableError as exc:
            print(f"chars: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        specs = [{
            "mode": "chars", "x": args.x, "y": args.y, "q": args.q, "char_index": i, "c1": args.c1,
        } for i in range(n_chars)]
    else:
        try:
            specs = _expand_grids(args)
        except ValueError as exc:  # a malformed grid, or an endpoint past the float range
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2

    rows = _compute_all(specs, args.jobs)
    elapsed = time.perf_counter() - t0
    config = {k: v for k, v in vars(args).items() if k not in ("command",) and v is not None}
    config["command"] = args.command
    text = rows_to_json(rows, config, elapsed) if args.format == "json" else rows_to_csv(rows)
    return _emit(text, args.out)


if __name__ == "__main__":
    sys.exit(main())
