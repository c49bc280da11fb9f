"""Calibration sweeps for the asymptotic band constants.

The theorems assert error terms with unnamed absolute constants.  Every
band test in the acceptance suite therefore runs against a frozen
constant produced here: a sweep measures the empirical worst case of
|error| / budget-expression (or of a ratio that should be bounded above
and below), and the frozen value adds 2x headroom on the appropriate
side.  ``ultrafriable calibrate`` regenerates the key=value file; the
copy shipped in ``data/calibrated_bands.txt`` is what the tests consume.
"""

from __future__ import annotations

import math
from importlib import resources

import numpy as np

from . import characters as ch
from . import counting as ct
from . import estimators as es
from . import primes as pr
from . import saddle as sd

DATA_FILE = "calibrated_bands.txt"
_HEADROOM = 2.0


def _beta_sweep(points):
    """(y, eta, u, beta) rows for grid points inside x >= y, psi(y) > 2 log x."""
    rows = []
    for y, t in points:
        table = pr.build_table(y)
        lx = table.psi_y * t
        if lx < math.log(y):  # the saddle statements assume x >= y
            continue
        x = math.exp(lx)
        res = sd.solve_beta(x, table)
        eta = table.psi_y / lx - 2.0
        rows.append((y, eta, lx / math.log(y), res.sigma))
    return rows


def calibrate_saddle_bands() -> dict[str, float]:
    ys = (30, 60, 100, 200, 400, 1000)
    ts = np.linspace(0.06, 0.46, 9)
    rows = _beta_sweep([(y, float(t)) for y in ys for t in ts])

    beta_K = 0.0      # |beta log y / log(1+eta) - 1| <= K / log y
    omb_lo, omb_hi = math.inf, 0.0   # (1-beta) log y / log 2u
    ypw_lo, ypw_hi = math.inf, 0.0   # y^(1-beta) / (u log 2u)
    for y, eta, u, beta in rows:
        ly = math.log(y)
        beta_K = max(beta_K, abs(beta * ly / math.log1p(eta) - 1.0) * ly)
        r = (1.0 - beta) * ly / math.log(2.0 * u)
        omb_lo, omb_hi = min(omb_lo, r), max(omb_hi, r)
        r = y ** (1.0 - beta) / (u * math.log(2.0 * u))
        ypw_lo, ypw_hi = min(ypw_lo, r), max(ypw_hi, r)

    alpha_K = 0.0
    for y in (1000, 10000, 100000):
        for u in (2.0, 4.0, 8.0, 16.0):
            x = math.exp(u * math.log(y))
            res = sd.solve_alpha(x, y)
            approx = 1.0 - sd.xi(u) / math.log(y)
            scale = 1.0 / (u * math.log(y) ** 2) + 1.0 / es.L_eps(y)
            alpha_K = max(alpha_K, abs(res.sigma - approx) / scale)

    return {
        "beta_approx_K": beta_K * _HEADROOM,
        "alpha_approx_K": alpha_K * _HEADROOM,
        "one_minus_beta_lo": omb_lo / _HEADROOM,
        "one_minus_beta_hi": omb_hi * _HEADROOM,
        "y_pow_one_minus_beta_lo": ypw_lo / _HEADROOM,
        "y_pow_one_minus_beta_hi": ypw_hi * _HEADROOM,
    }


def calibrate_delta_remark() -> dict[str, float]:
    """Delta_q * eta / (1 + omega(q)) should be bounded above and below
    when 0 < eta <= 1 (so D_q is comparable to omega(q))."""
    lo, hi = math.inf, 0.0
    for y in (100, 300, 1000):
        table = pr.build_table(y)
        for eta in (0.25, 0.5, 1.0):
            lx = table.psi_y / (2.0 + eta)
            x = math.exp(lx)
            for q in (2, 6, 30, 210):
                ctx = pr.modulus_context(q, table)
                bud = es.error_budget(x, table, ctx)
                r = bud.delta_q * eta / (1.0 + ctx.omega_q)
                lo, hi = min(lo, r), max(hi, r)
    return {"delta_remark_lo": lo / _HEADROOM, "delta_remark_hi": hi * _HEADROOM}


def _compared(variant: str, points):
    """(estimate, comparison with the exact count) of a variant at each (x, table, ctx, a)."""
    for x, table, ctx, a in points:
        est = es.estimate(variant, x, table, ctx, a)
        yield est, es.compare(es.exact_count(variant, x, table, ctx, a), est)


def calibrate_t1() -> dict[str, float]:
    table = pr.build_table(100)
    ctxs = [pr.modulus_context(q, table) for q in (1, 6, 30)]
    ratio_max = q1_C = 0.0
    for est, rec in _compared("T1i", [(math.exp(lx), table, ctx, None)
                                      for lx in np.linspace(20.0, 40.0, 10) for ctx in ctxs]):
        ratio_max = max(ratio_max, rec.error_over_budget)
        if est.budget.omega_q == 0:
            # q = 1, whose statement has budget 1/u: record C with |rel| <= C/u
            q1_C = max(q1_C, abs(rec.rel_error) * est.budget.u)
    return {"t1_band_C": ratio_max * _HEADROOM, "t1_q1_u_C": q1_C * _HEADROOM}


def calibrate_t2() -> dict[str, float]:
    tables = [pr.build_table(y) for y in (500, 1000, 2000)]
    points = [(10**6, t, pr.modulus_context(q, t), None) for t in tables for q in (1, 2, 6, 15)]
    worst = max(rec.error_over_budget for _, rec in _compared("T2", points))
    return {"t2_band_C": worst * _HEADROOM}


def _progression_devs(x: float, table: pr.PrimePowerTable, q: int) -> list[float]:
    rc = ct.count_ultrafriable_residues(x, table, q)
    uq = rc.coprime_total()
    phi = pr.modulus_context(q, table).phi_q
    return [abs(rc[a] * phi / uq - 1.0) for a in range(q) if math.gcd(a, q) == 1]


def calibrate_t4_t5() -> dict[str, float]:
    table = pr.build_table(100)
    dev_max = 0.0
    for q in (3, 7, 11):
        dev_max = max(dev_max, max(_progression_devs(math.exp(30), table, q)))
    out = {"t4_dev_band": dev_max * _HEADROOM}

    t5_ratio = 0.0
    table5 = pr.build_table(1000)
    for q in (3, 11, 31):
        ctx = pr.modulus_context(q, table5)
        est = es.estimate("T5", 10**6, table5, ctx, 1)
        dev = max(_progression_devs(10**6, table5, q))
        t5_ratio = max(t5_ratio, dev / est.budget.stated_bound)
    out["t5_band_C"] = t5_ratio * _HEADROOM
    return out


def calibrate_r6() -> dict[str, float]:
    table = pr.build_table(50)
    points = [(math.exp(25), table, pr.modulus_context(q, table), a)
              for q, a in ((6, 2), (15, 5), (10, 4))]
    worst = max(abs(rec.rel_error) for _, rec in _compared("R6", points))
    return {"r6_dev_band": worst * _HEADROOM}


def calibrate_t3() -> dict[str, float]:
    """Largest admissible c1 for the theta=1 ceiling, halved for headroom.

    No exact ratio on this grid reaches the floor 1/Y_eps(100) = 2.07e-4 (the
    largest is 1.11e-4), so every c1 up to the cap 5.0 is admissible: t3_c1 is
    the cap halved, and the ceiling holds by its 1/Y_eps term alone.
    """
    table = pr.build_table(100)
    c1_cap = 5.0
    c1_min = c1_cap
    inv_y = 1.0 / es.Y_eps(table.y)
    for x in (math.exp(20), math.exp(30), math.exp(40)):
        for q in (3, 5, 7, 8, 11):
            ctx = pr.modulus_context(q, table)
            for chi in ch.enumerate_characters(q):
                if chi.is_principal:
                    continue
                diag = es.t3_bound(x, table, ctx, chi)
                ratio, u = diag.exact_ratio, diag.u
                if ratio <= inv_y:
                    continue
                c1_min = min(c1_min, -math.log(ratio - inv_y) * (1.0 + math.log(u) ** 4) / u)
    return {"t3_c1": c1_min / _HEADROOM}


def run_calibration() -> dict[str, float]:
    out: dict[str, float] = {}
    out.update(calibrate_saddle_bands())
    out.update(calibrate_delta_remark())
    out.update(calibrate_t1())
    out.update(calibrate_t2())
    out.update(calibrate_t4_t5())
    out.update(calibrate_r6())
    out.update(calibrate_t3())
    return out


def format_constants(constants: dict[str, float]) -> str:
    lines = ["# frozen band constants (2x headroom already applied)"]
    for k, v in constants.items():
        lines.append(f"{k} = {v:.12g}")
    return "\n".join(lines) + "\n"


def parse_constants(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        k, _, v = line.partition("=")
        out[k.strip()] = float(v.strip())
    return out


def load_constants() -> dict[str, float]:
    """Read the frozen constants from the packaged data file."""
    ref = resources.files("ultrafriable").joinpath(f"data/{DATA_FILE}")
    return parse_constants(ref.read_text(encoding="utf-8"))
