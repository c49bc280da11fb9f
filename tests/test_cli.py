import argparse
import collections
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ultrafriable import (__version__, build_table, compare, count_ultrafriable,
                          count_ultrafriable_residues, enumerate_characters, error_budget,
                          estimate_noncoprime, estimate_progression, estimate_t2, estimate_upsilon,
                          estimate_upsilon_q, exact_count, modulus_context, naive_oracle, t3_bound,
                          tau_N)
from ultrafriable import characters as ch
from ultrafriable import cli
from ultrafriable import counting as ct
from ultrafriable import estimators as es
from ultrafriable import primes as pr
from ultrafriable import saddle as sd
from ultrafriable.calibration import DATA_FILE
from ultrafriable.cli import COLUMNS, _fmt, build_parser, compute_row, main, parse_grid, parse_x
from ultrafriable.estimators import C2, DEFAULT_C1, VARIANTS, Y_eps


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parse_x():
    assert parse_x("123") == 123.0
    assert parse_x("1e6") == 1e6
    assert parse_x("e^30") == pytest.approx(math.exp(30))
    assert parse_x("e30") == pytest.approx(math.exp(30))


def test_parse_grid():
    pts = parse_grid("e20:e40:5")
    assert len(pts) == 5
    assert pts[0] == pytest.approx(math.exp(20))
    assert pts[-1] == pytest.approx(math.exp(40))
    assert pts[2] == pytest.approx(math.exp(30))
    assert parse_grid("10,50") == [10.0, 50.0]


def test_count_row(capsys):
    code, out = run_cli(["count", "--x", "2520", "--y", "10"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == COLUMNS
    row = dict(zip(COLUMNS, lines[1].split(",")))
    assert row["exact_value_or_log"] == "48"
    assert row["status"] == "ok"


def test_count_row_100(capsys):
    _, out = run_cli(["count", "--x", "100", "--y", "10"], capsys)
    row = dict(zip(COLUMNS, out.strip().splitlines()[1].split(",")))
    assert row["exact_value_or_log"] == "31"


def test_saddle_row(capsys):
    code, out = run_cli(["saddle", "--x", "1e6", "--y", "100"], capsys)
    assert code == 0
    row = dict(zip(COLUMNS, out.strip().splitlines()[1].split(",")))
    assert float(row["residual"]) <= 1e-10
    assert 0 < float(row["beta"]) < 1
    assert float(row["sigma2"]) > 0
    assert float(row["sigma3"]) > 0
    assert float(row["sigma4"]) > 0
    assert float(row["alpha"]) > 0


def test_compare_sweep_rows(capsys):
    code, out = run_cli(
        ["compare", "--variant", "T1i", "--x-grid", "e20:e40:5", "--y", "100", "--q", "6"],
        capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    for line in lines[1:]:
        row = dict(zip(COLUMNS, line.split(",")))
        assert row["status"] == "ok"
        assert float(row["error_over_budget"]) > 0


def test_out_of_domain_row_carries_error(capsys):
    code, out = run_cli(
        ["estimate", "--variant", "T1i", "--x", "1e6", "--y", "10"], capsys)
    assert code == 0  # domain problems are row-level, not process-level
    row = dict(zip(COLUMNS, out.strip().splitlines()[1].split(",")))
    assert row["est_log_main"] == ""
    assert "RegimeError" in row["status"]


def test_determinism(capsys):
    args = ["compare", "--variant", "T2", "--x", "1e6",
            "--y-grid", "500,1000", "--q-grid", "1,6"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args + ["--jobs", "2"], capsys)
    assert out1 == out2


def test_json_format(capsys):
    code, out = run_cli(
        ["count", "--x", "2520", "--y", "10", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["version"]
    assert payload["meta"]["config"]["command"] == "count"
    assert "timing_seconds" in payload["meta"]
    assert payload["rows"][0]["exact_value_or_log"] == "48"
    assert list(payload["rows"][0].keys()) == COLUMNS


def test_chars_mode(capsys):
    code, out = run_cli(["chars", "--q", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + phi(5) characters
    assert "principal" in lines[1]


def test_chars_with_diagnostics(capsys):
    code, out = run_cli(["chars", "--q", "5", "--x", "e30", "--y", "100"], capsys)
    assert code == 0
    rows = [dict(zip(COLUMNS, l.split(","))) for l in out.strip().splitlines()[1:]]
    nonprincipal = [r for r in rows if r["exact_value_or_log"]]
    assert len(nonprincipal) == 3
    for r in nonprincipal:
        assert float(r["exact_value_or_log"]) <= float(r["budget"])


def test_sweep_multi_variant(capsys):
    code, out = run_cli(
        ["sweep", "--variant", "T1i,T1ii", "--x", "e22", "--y", "100", "--q", "2"],
        capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    variants = [l.split(",")[6] for l in lines[1:]]
    assert variants == ["T1i", "T1ii"]


def test_calibrate_reproduces_frozen_constants(capsys):
    """The shipped constants are a fixed point of a full calibration run."""
    code, out = run_cli(["calibrate"], capsys)
    assert code == 0
    frozen = Path(__file__).resolve().parents[1] / "src" / "ultrafriable" / "data" / DATA_FILE
    assert out == frozen.read_text(encoding="utf-8")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _ = run_cli(["count", "--x", "100", "--y", "10", "--out", str(target)], capsys)
    assert code == 0
    assert target.read_text().splitlines()[0].split(",") == COLUMNS


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as ei:
        build_parser().parse_args(["count", "--bogus"])
    assert ei.value.code == 2


@pytest.mark.parametrize("jobs", ["-1", "x"])
def test_negative_jobs_is_a_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as ei:
        main(["count", "--x-grid", "1e3:1e4:3", "--y", "30", "--jobs", jobs])
    captured = capsys.readouterr()
    assert ei.value.code == 2 and captured.out == ""
    assert "--jobs: need an integer >= 0" in captured.err


@pytest.mark.parametrize("flag", ["--epsilon", "--c0", "--c2"])
def test_fixed_constants_are_not_flags(flag):
    # eps, c0 and c2 are fixed at the values the frozen bands were calibrated at
    with pytest.raises(SystemExit) as ei:
        main(["estimate", "--x", "e20", "--y", "100", flag, "0.2"])
    assert ei.value.code == 2


@pytest.mark.parametrize("variant, x, y, q, a", [("T4", "e20", 100, 7, 1), ("R6", "e25", 50, 6, 2)])
def test_c1_reaches_the_progression_budgets(capsys, variant, x, y, q, a):
    args = ["estimate", "--variant", variant, "--x", x, "--y", str(y), "--q", str(q), "--a", str(a)]
    budgets = []
    for extra in ([], ["--c1", "0.5"]):
        _, out = run_cli(args + extra, capsys)
        budgets.append(dict(zip(COLUMNS, out.strip().splitlines()[1].split(",")))["budget"])
    table = build_table(y)
    if variant == "T4":
        est = estimate_progression(parse_x(x), table, modulus_context(q, table), a, "T4", c1=0.5)
    else:
        est = estimate_noncoprime(parse_x(x), table, q, a, c1=0.5)
    assert budgets[1] == _fmt(est.budget.stated_bound)
    assert budgets[1] != budgets[0]


def test_c1_reaches_the_character_sum_ceiling(capsys):
    _, out = run_cli(["chars", "--q", "7", "--x", "e30", "--y", "100", "--c1", "2.5"], capsys)
    rows = [dict(zip(COLUMNS, l.split(","))) for l in out.strip().splitlines()[1:]]
    table = build_table(100)
    ctx = modulus_context(7, table)
    for chi, row in zip(enumerate_characters(7), rows):
        if chi.is_principal:
            assert row["budget"] == ""
            continue
        assert row["budget"] == _fmt(t3_bound(parse_x("e30"), table, ctx, chi, c1=2.5).bound_theta1)
        assert row["budget"] != _fmt(t3_bound(parse_x("e30"), table, ctx, chi).bound_theta1)


@pytest.mark.parametrize("c1", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["estimate", "compare", "sweep", "chars"])
def test_meaningless_c1_is_a_usage_error(capsys, command, c1):
    args = ["--q", "7", "--x", "e30", "--y", "100", f"--c1={c1}"]
    if command != "chars":
        args += ["--variant", "T4", "--a", "3"]
    with pytest.raises(SystemExit) as ei:
        main([command] + args)
    captured = capsys.readouterr()
    assert ei.value.code == 2 and captured.out == ""
    assert "--c1: need a finite c1 > 0" in captured.err


def test_missing_args_exit_2(capsys):
    with pytest.raises(SystemExit) as ei:
        run_cli(["estimate", "--y", "100"], capsys)
    assert ei.value.code == 2
    assert "--x" in capsys.readouterr().err


def _grid(*names):
    return {f"--{n}" for n in names} | {f"--{n}-grid" for n in names}


_OUTPUT = {"--format", "--out", "--jobs"}
_ESTIMATE = _grid("x", "y", "q", "a") | {"--variant", "--c1"} | _OUTPUT


def test_each_subcommand_declares_only_the_flags_it_reads():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    flags = {name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
             for name, sp in subparsers.items()}
    assert flags == {
        "count": _grid("x", "y", "q", "a") | {"--variant"} | _OUTPUT,
        "saddle": _grid("x", "y") | _OUTPUT,
        "estimate": _ESTIMATE,
        "compare": _ESTIMATE,
        "sweep": _ESTIMATE,
        "chars": {"--q", "--x", "--y", "--c1"} | _OUTPUT,
        "calibrate": {"--out"},
    }
    assert sum(map(len, flags.values())) == 66


@pytest.mark.parametrize("args", [
    ["saddle", "--x", "1e6", "--y", "100", "--q", "6"],
    ["saddle", "--x", "1e6", "--y", "100", "--a", "1"],
    ["saddle", "--x", "1e6", "--y", "100", "--variant", "T1i"],
    ["saddle", "--x", "1e6", "--y", "100", "--c1", "1"],
    ["count", "--x", "2520", "--y", "10", "--c1", "1"],
    ["chars", "--q", "5", "--x-grid", "e20:e30:3", "--y", "100"],
    ["chars", "--q", "5", "--a", "1"],
    ["chars", "--q", "5", "--variant", "T1i"],
    ["chars", "--q", "5", "--x", "e20"],
    ["chars", "--q", "5", "--y", "100"],
    ["calibrate", "--fast"],
    ["estimate", "--x", "e20", "--x-grid", "e20:e30:3", "--y", "100"],
    ["count", "--x", "2520", "--y", "10", "--q", "1", "--q-grid", "1,6"],
])
def test_unread_or_conflicting_flag_is_a_usage_error(capsys, args):
    with pytest.raises(SystemExit) as ei:
        main(args)
    captured = capsys.readouterr()
    assert ei.value.code == 2 and captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("args", [
    ["--x-grid", ",", "--y", "100"],
    ["--x", "e20", "--y-grid", ""],
    ["--x", "e20", "--y", "100", "--q-grid", " , "],
])
def test_empty_grid_is_a_usage_error(capsys, args):
    code = main(["estimate"] + args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "no points" in captured.err


def test_friable_count_variant(capsys):
    _, out = run_cli(["count", "--x", "100", "--y", "3", "--variant", "friable"], capsys)
    row = dict(zip(COLUMNS, out.strip().splitlines()[1].split(",")))
    assert row["exact_value_or_log"] == "20"


@pytest.mark.parametrize("kind", ["ultrafriable", "friable"])
def test_count_rows_refuse_p_plus_q_above_y_at_every_x(capsys, kind):
    # x = 0 included: the precondition is checked before any count
    code, out = run_cli(["count", "--variant", kind, "--x-grid", "0,1,10", "--y", "5", "--q", "7",
                         "--jobs", "1"], capsys)
    assert code == 0
    rows = [dict(zip(COLUMNS, line.split(","))) for line in out.strip().splitlines()[1:]]
    assert [r["x"] for r in rows] == ["0", "1", "10"]
    for r in rows:
        assert r["status"].startswith("PreconditionError: P+(q)=7 exceeds y=5"), r
        assert r["exact_value_or_log"] == ""


@pytest.mark.parametrize("args", [
    ["count", "--variant", "oracle"],
    ["count", "--variant", "frieble"],
    ["estimate", "--variant", "T9"],
    ["estimate", "--variant", "R6", "--q", "7"],
])
def test_unknown_or_incomplete_variant_is_a_row_error(capsys, args):
    code, out = run_cli(args + ["--x", "1e6", "--y", "100"], capsys)
    assert code == 0
    row = dict(zip(COLUMNS, out.strip().splitlines()[1].split(",")))
    assert row["status"].startswith("DomainError"), row["status"]
    assert row["exact_value_or_log"] == ""


def test_parse_x_integer_literal_is_exact():
    x = parse_x("10000000000000000001")
    assert isinstance(x, int) and x == 10**19 + 1
    assert parse_x(" -42 ") == -42
    assert isinstance(parse_x("123.0"), float)
    assert isinstance(parse_x("1e6"), float)


def test_x_beyond_float_range_is_a_usage_error(capsys):
    for text in ("e^800", "e800", "1e400"):
        with pytest.raises(ValueError, match="integer literal"):
            parse_x(text)
    with pytest.raises(SystemExit) as ei:
        main(["estimate", "--x", "e^800", "--y", "3000"])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "integer literal" in err and "Traceback" not in err
    assert main(["estimate", "--x-grid", "e^700:e^800:3", "--y", "3000"]) == 2
    assert "integer literal" in capsys.readouterr().err


def test_estimate_row_beyond_float_range():
    # log x = 921 > 709.78: the saddle is solved from log x, never from exp(log x)
    x = 10**400
    est = compute_row({"mode": "estimate", "x": x, "y": 3000, "q": 1, "variant": "T1i"})
    sad = compute_row({"mode": "saddle", "x": x, "y": 3000})
    assert est["status"] == "ok" and sad["status"] == "ok"
    assert est["beta"] == sad["beta"] and 0.1 < est["beta"] < 0.2
    assert math.isfinite(est["est_log_main"]) and est["sigma2"] == sad["sigma2"]


def test_parse_grid_keeps_integer_endpoints():
    pts = parse_grid("1000:1000000:4")
    assert pts[0] == 1000 and pts[-1] == 1000000
    assert pts[1] == pytest.approx(10**4) and pts[2] == pytest.approx(10**5)
    assert parse_grid("7:343:3") == [7, pytest.approx(49.0), 343]
    assert parse_grid("10000000000000000001:10000000000000000003:2") == [10**19 + 1, 10**19 + 3]


def test_estimate_row_below_sqrt_y(capsys):
    # x < sqrt(y), so u < 1/2 and u log 2u < 0: the large-y Delta_q branch is undefined
    code, out = run_cli(
        ["estimate", "--x", "10", "--y", "1000", "--q", "3", "--a", "1", "--variant", "T5"], capsys)
    assert code == 0
    row = dict(zip(COLUMNS, out.strip().splitlines()[1].split(",")))
    assert row["status"] == "ok"
    assert float(row["u"]) < 0.5
    assert math.isnan(float(row["delta_q"]))
    for col in ("budget", "u", "eta", "d_q", "c_q"):
        assert math.isfinite(float(row[col])), col


def test_chars_bad_modulus_exit_2(capsys):
    for q, err in (("20000", "ResourceError"), ("0", "DomainError")):
        code = main(["chars", "--q", q])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and err in lines[0]


def _contexts_built(args, capsys) -> tuple[int, str]:
    """The contexts a --jobs 1 run builds from a cold context cache, and its output."""
    pr._modulus_context.cache_clear()
    code, out = run_cli(args + ["--jobs", "1"], capsys)
    assert code == 0
    return pr._modulus_context.cache_info().misses, out


def test_chars_builds_one_modulus_context(capsys):
    # the phi(q) rows of a chars run share the context of (q, y)
    built, out = _contexts_built(["chars", "--q", "11", "--x", "e30", "--y", "100"], capsys)
    assert len(out.strip().splitlines()) == 1 + 10
    assert built == 1


def test_estimate_grid_builds_one_context_per_q_and_y(capsys):
    # x is the outermost axis, so each (y, q) pair recurs once per x point
    built, out = _contexts_built(["estimate", "--variant", "T1i,T1iii", "--x-grid", "e10:e30:4",
                                  "--y-grid", "100,1000", "--q-grid", "1,6,30"], capsys)
    assert len(out.strip().splitlines()) == 1 + 2 * 4 * 2 * 3
    assert built == 6


def test_ups_and_t2_rows_share_the_contexts_of_the_grid(capsys):
    # a UPS row reads the context of (1, y), a T2 row that of (q, y): each is built once
    args = ["estimate", "--variant", "UPS,T2", "--x-grid", "e10:e40:5",
            "--y-grid", "1000,3000", "--q-grid", "6,30"]
    built, out = _contexts_built(args, capsys)
    assert built == 2 * 2 + 2
    assert "ok" in {r["status"] for r in csv.DictReader(io.StringIO(out))}
    assert run_cli(args + ["--jobs", "1"], capsys)[1] == out
    assert pr._modulus_context.cache_info().misses == built  # the second run builds none


def test_r6_grid_builds_each_context_of_q_d_and_q_over_d_once(capsys):
    qs, as_, ys = (6, 30, 210), (0, 2, 3, 6, 10, 15), (50, 100)
    built, out = _contexts_built(["compare", "--variant", "R6", "--x-grid", "e10:e15:2",
                                  "--y-grid", "50,100", "--q-grid", "6,30,210",
                                  "--a-grid", "0,2,3,6,10,15"], capsys)
    assert {r["status"] for r in csv.DictReader(io.StringIO(out))} == {"ok"}
    expect = {(m, y) for q in qs for a in as_ for d in [math.gcd(a, q)]
              for m in (q, d, q // d) for y in ys}
    assert built == len(expect)
    for key in expect:  # each one is cached: none is built again
        pr._modulus_context(*key)
    assert pr._modulus_context.cache_info().misses == built


def test_context_of_each_y_reaches_its_rows(capsys):
    # theta_q = log z_q / log y differs with y, and 7 > 5 fails P+(q) <= y at y = 5
    pr._modulus_context.cache_clear()
    for y in (5, 100, 1000):
        ctx = modulus_context(7, build_table(y))  # z_q = 2, the omega(7) = 1st prime
        assert (ctx.y, ctx.theta_q, ctx.p_plus_le_y) == (y, math.log(2) / math.log(y), y >= 7)
    for grid in ("5,100,1000", "1000,100,5"):
        pr._modulus_context.cache_clear()
        _, out = run_cli(["estimate", "--x", "e10", "--y-grid", grid, "--q", "7", "--jobs", "1"],
                         capsys)
        rows = {int(r["y"]): r for r in csv.DictReader(io.StringIO(out))}
        assert rows[5]["status"].startswith("PreconditionError"), rows[5]["status"]
        for y in (100, 1000):
            table = build_table(y)
            bud = error_budget(parse_x("e10"), table, modulus_context(7, table))
            assert rows[y]["status"] == "ok"
            assert rows[y]["delta_q"] == _fmt(bud.delta_q), grid


def _clear_every_cache():
    """Empty every lru_cache of the package, as a fresh process starts with."""
    for module in (pr, ct, sd, es, ch, cli):
        for obj in list(vars(module).values()):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _log_Z_q_calls(monkeypatch, capsys, args) -> tuple[collections.Counter, list[dict]]:
    """The log_Z_q calls of a --jobs 1 run from cold caches, per (s, y, q), and its rows."""
    _clear_every_cache()
    calls = collections.Counter()
    real = sd.log_Z_q

    def counted(s, table, ctx=None):
        calls[s, table.y, ctx.q] += 1
        return real(s, table, ctx)

    monkeypatch.setattr(sd, "log_Z_q", counted)
    code, out = run_cli(args + ["--jobs", "1"], capsys)
    assert code == 0
    return calls, list(csv.DictReader(io.StringIO(out)))


_T1_GRID = ["--x-grid", "e10:e600:7", "--y-grid", "1000,3000"]


def test_variant_rows_of_a_point_evaluate_its_main_term_once(monkeypatch, capsys):
    # T1i, T1ii, T1iii and UPS at one (x, y, q) share its main-term factors, and a
    # UPS row at q = 1 is the T1i point itself
    calls, rows = _log_Z_q_calls(monkeypatch, capsys, ["estimate", "--variant", "T1i,T1ii,T1iii,UPS",
                                                       *_T1_GRID, "--q-grid", "1,6,30"])
    points = {(r["x"], r["y"], r["q"]) for r in rows if r["variant"] == "T1i" and r["status"] == "ok"}
    assert len(points) == (7 + 5) * 3  # the last two x are past the saddle domain of y = 1000
    assert len(calls) == len(points) and set(calls.values()) == {1}
    assert {q for _, _, q in calls} == {1, 6, 30}


def test_ups_rows_evaluate_the_q1_point_once_per_x_and_y(monkeypatch, capsys):
    calls, rows = _log_Z_q_calls(monkeypatch, capsys, ["estimate", "--variant", "UPS", *_T1_GRID,
                                                       "--q-grid", "6,30"])
    pairs = {(r["x"], r["y"]) for r in rows if r["status"] == "ok"}
    assert len(pairs) == 7 + 5
    assert len(calls) == len(pairs) and set(calls.values()) == {1}
    assert {q for _, _, q in calls} == {1}


@pytest.mark.parametrize("args", [
    ["estimate", "--variant", "T1i,T1ii,T1iii,UPS", "--x-grid", "e10:e300:5",
     "--y-grid", "1000,3000", "--q-grid", "1,6,30"],
    ["compare", "--variant", "T1i,T4,R6,UPS", "--x-grid", "e10:e25:4", "--y-grid", "50,100",
     "--q-grid", "1,6,7", "--a-grid", "1,2"],
    ["saddle", "--x-grid", "e10:e300:6", "--y-grid", "1000,3000"],
], ids=["estimate", "compare", "saddle"])
def test_rows_from_cold_caches_are_the_rows_of_one_warm_pass(args):
    # every cache holds values of its key alone: a row is the same from any cache state
    specs = cli._expand_grids(build_parser().parse_args(args))
    _clear_every_cache()
    warm = [compute_row(spec) for spec in specs]
    cold = []
    for spec in specs:
        _clear_every_cache()
        cold.append(compute_row(spec))
    assert cli.rows_to_csv(cold) == cli.rows_to_csv(warm)
    assert [r["status"] for r in warm].count("ok") >= len(specs) // 3


def test_saddle_row_sigma3_and_sigma4_are_phi_j_q():
    # the solve carries sigma_2 alone; sigma_3 and sigma_4 are the values the
    # fused phi_3/phi_4 pass gave, to the bit
    for x, y in ((parse_x("e20"), 100), (parse_x("e200"), 3000), (10**6, 100)):
        row = compute_row({"mode": "saddle", "x": x, "y": y})
        assert row["status"] == "ok"
        table, beta = build_table(y), row["beta"]
        fused = sd._phi(beta, sd._series(y, ()), (3, 4))
        assert row["sigma3"] == sd.phi_j_q(3, beta, table) == fused[0]
        assert row["sigma4"] == sd.phi_j_q(4, beta, table) == fused[1]
        assert row["sigma2"] == sd.solve_beta(x, table).sigma_j[2]


@pytest.mark.parametrize("spec", [
    {"mode": "compare", "x": parse_x("e30"), "y": 100, "q": 7, "a": 3, "variant": "T4"},
    {"mode": "compare", "x": 10**6, "y": 1000, "q": 11, "a": 3, "variant": "T5"},
])
def test_progression_compare_row_reads_one_class_vector(monkeypatch, spec):
    # Upsilon_q is the coprime total of the class vector that the exact count
    # reads: a compare row builds that vector once and makes no plain count
    plain = []
    real = ct.count_ultrafriable
    monkeypatch.setattr(ct, "count_ultrafriable", lambda *args: plain.append(args) or real(*args))
    ct._class_vector.cache_clear()
    row = compute_row(spec)
    assert row["status"] == "ok"
    assert ct._class_vector.cache_info().misses == 1 and plain == []
    table = build_table(spec["y"])
    ctx = modulus_context(spec["q"], table)
    est = estimate_progression(spec["x"], table, ctx, spec["a"], spec["variant"])
    assert len(plain) == 1  # an estimate alone makes its plain count
    assert row["est_log_main"] == est.log_main
    assert row["exact_value_or_log"] == str(count_ultrafriable_residues(spec["x"], table, spec["q"])[spec["a"]])
    # an estimate row alone keeps the plain count and builds no vector
    ct._class_vector.cache_clear()
    assert compute_row({**spec, "mode": "estimate"})["est_log_main"] == est.log_main
    assert len(plain) == 2 and ct._class_vector.cache_info().misses == 0


def test_estimate_row_with_cached_beta_makes_no_phi_pass(monkeypatch):
    # g_q alone: gamma_q' and gamma_q'' are not printed, so their phi_j pass is not made
    spec = {"mode": "estimate", "x": 1e12, "y": 1000, "q": 6, "variant": "T1i"}
    first = compute_row(spec)
    assert first["status"] == "ok"
    calls = []
    real = sd._phi
    monkeypatch.setattr(sd, "_phi", lambda *args: calls.append(args) or real(*args))
    assert compute_row(spec) == first
    assert calls == []


def _reference_csv(rows):
    """The CSV writer the row schema was defined by: csv.writer, _fmt per cell."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(COLUMNS)
    for row in rows:
        w.writerow([_fmt(row.get(c)) for c in COLUMNS])
    return buf.getvalue()


def _rows_of_every_mode():
    specs = [
        {"mode": "estimate", "x": 1e12, "y": 1000, "q": 6, "variant": "T1i"},
        {"mode": "estimate", "x": parse_x("e40"), "y": 100, "q": 1, "variant": "UPS"},
        {"mode": "compare", "x": parse_x("e20"), "y": 100, "q": 7, "a": 3, "variant": "T4"},
        {"mode": "compare", "x": parse_x("e20"), "y": 100, "q": 6, "a": 2, "variant": "T4"},
        {"mode": "count", "x": 10**6, "y": 50, "q": 6},
        {"mode": "count", "x": parse_x("e50"), "y": 100, "q": 1},
        {"mode": "count", "x": 10**5, "y": 50, "q": 7, "a": 3, "variant": "friable"},
        {"mode": "chars", "x": parse_x("e30"), "y": 100, "q": 11, "char_index": 1, "c1": 0.1},
        {"mode": "saddle", "x": parse_x("e20"), "y": 100},
        {"mode": "saddle", "x": 10**30, "y": 10},
    ]
    rows = [compute_row(spec) for spec in specs]
    blank = dict.fromkeys(COLUMNS)
    rows += [
        blank,
        {**blank, "mode": "estimate", "log_x": math.nan, "budget": math.inf,
         "rel_error": -math.inf, "beta": np.float64(0.1) / 3, "omega_q": True, "q": 2**70},
        {**blank, "status": 'DomainError: x=1, y=2, "quoted" and\nsplit'},
        {**blank, "status": "a\r\nb\rc"},
        {**blank, "status": "RegimeError: \u03c8(y) \u2264 2 log x, \u00e9t\u00e9"},
        {**blank, "variant": 'T"1', "status": ","},
    ]
    return rows


def test_csv_is_the_reference_writers_bytes():
    rows = _rows_of_every_mode()
    assert {r["mode"] for r in rows} >= {"estimate", "compare", "count", "chars", "saddle"}
    assert cli.rows_to_csv(rows) == _reference_csv(rows)
    for row in rows:  # one row per call, as a streaming caller prints them
        assert cli.rows_to_csv([row]) == _reference_csv([row])
    assert cli.rows_to_csv([]) == _reference_csv([])


def test_json_is_json_dumps_of_the_formatted_cells():
    rows = _rows_of_every_mode()
    config = {"command": "estimate", "jobs": 1}
    payload = {
        "meta": {"version": __version__, "config": config, "timing_seconds": 1.234568},
        "rows": [{c: (None if row.get(c) is None else _fmt(row[c])) for c in COLUMNS}
                 for row in rows],
    }
    assert cli.rows_to_json(rows, config, 1.2345678) == json.dumps(payload, indent=2) + "\n"


def test_import_loads_no_scipy_or_process_pool():
    """Start-up needs numpy only; multiprocessing waits for a parallel sweep."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, ultrafriable, ultrafriable.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
            " or m == 'concurrent.futures.process'))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_jobs_2_matches_jobs_1(capsys):
    args = ["sweep", "--variant", "T1i,T4", "--x-grid", "e15:e25:3", "--y", "100",
            "--q-grid", "1,7", "--a", "1"]
    _, out1 = run_cli(args + ["--jobs", "1"], capsys)
    _, out2 = run_cli(args + ["--jobs", "2"], capsys)
    assert len(out1.strip().splitlines()) == 1 + 2 * 3 * 2
    assert out1 == out2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_without_residue_class_is_a_row_error(capsys, jobs):
    code, out = run_cli(["sweep", "--variant", "T1i,T4", "--x-grid", "e15:e25:3", "--y", "100",
                         "--q-grid", "1,7", "--jobs", jobs], capsys)
    assert code == 0
    rows = [dict(zip(COLUMNS, line.split(","))) for line in out.strip().splitlines()[1:]]
    assert len(rows) == 2 * 3 * 2
    for row in rows:
        if row["variant"] == "T1i":
            assert row["status"] == "ok"
        else:
            assert row["variant"] == "T4" and row["status"].startswith("DomainError"), row


@pytest.mark.parametrize("mode", ["count", "estimate", "compare"])
def test_rows_at_x_zero_negative_x_and_q_zero(capsys, mode):
    zero = compute_row({"mode": mode, "x": 0, "y": 10})
    assert zero["log_x"] is None
    if mode == "count":
        assert zero["status"] == "ok" and zero["exact_value_or_log"] == "0"
    else:
        assert zero["status"].startswith("DomainError"), zero["status"]
    negative = compute_row({"mode": mode, "x": -5, "y": 10})
    assert negative["log_x"] is None
    assert negative["status"].startswith("DomainError"), negative["status"]
    q0 = compute_row({"mode": mode, "x": 100, "y": 10, "q": 0})
    assert q0["status"].startswith("DomainError"), q0["status"]
    for args in (["--x", "0", "--y", "10"], ["--x=-5", "--y", "10"],
                 ["--x", "100", "--y", "10", "--q", "0"]):
        code, out = run_cli([mode] + args, capsys)
        assert code == 0 and len(out.strip().splitlines()) == 2


@pytest.mark.parametrize("spec", [
    {"mode": "count", "x": 10**400, "y": 3000},
    {"mode": "compare", "x": 10**400, "y": 3000, "q": 1, "variant": "T1i"},
    {"mode": "estimate", "x": 10**400, "y": 3000, "q": 7, "a": 1, "variant": "T4"},
    {"mode": "estimate", "x": 10**400, "y": 3000, "q": 6, "a": 2, "variant": "R6"},
])
def test_exact_count_past_the_split_budget_is_a_status_row(spec):
    # 430 rows peeled one by one past 2^63: the plan passes SPLIT_CAP sub-bounds
    # and is refused before any list is built, as a row status rather than a traceback
    start = time.perf_counter()
    row = compute_row(spec)
    assert time.perf_counter() - start < 1
    assert row["status"].startswith("ResourceError"), row["status"]


@pytest.mark.parametrize("args, q, a", [
    (["count"], 7, 3),
    (["compare", "--variant", "T4"], 7, 3),
    (["compare", "--variant", "R6"], 6, 2),
])
def test_class_rows_past_2_63(capsys, args, q, a):
    # e^45 > 2^63: the class count is planned past 2^63 like a plain count, and
    # the row's count is its class in a vector that sums to the plain count
    code, out = run_cli(args + ["--x", "e45", "--y", "100", "--q", str(q), "--a", str(a),
                                "--jobs", "1"], capsys)
    row = dict(zip(COLUMNS, out.strip().splitlines()[1].split(",")))
    assert code == 0 and row["status"] == "ok", row["status"]
    table = build_table(100)
    rc = count_ultrafriable_residues(parse_x("e45"), table, q)
    assert row["exact_value_or_log"] == str(rc[a])
    assert rc.total() == count_ultrafriable(parse_x("e45"), table)


@pytest.mark.parametrize("spec", [
    {"mode": "count", "x": 10**6, "y": 100},
    {"mode": "count", "x": 10**6, "y": 100, "variant": "friable"},
    {"mode": "compare", "x": math.exp(30), "y": 100, "variant": "T1i"},
    {"mode": "estimate", "x": math.exp(30), "y": 100},
])
def test_modulus_past_trial_division_is_a_status_row(spec):
    # q = 2^61 - 1 is prime: trial division to sqrt(q) would take hours
    start = time.perf_counter()
    row = compute_row({**spec, "q": 2**61 - 1})
    assert time.perf_counter() - start < 1
    assert row["status"].startswith(("ResourceError", "PreconditionError")), row["status"]


def test_count_past_n_prints_log10_of_tau(capsys):
    # every y-ultrafriable integer divides N < 10^1400, so the count is tau(N) >= 10^30
    code, out = run_cli(["count", "--x", str(10**1400), "--y", "3000"], capsys)
    row = dict(zip(COLUMNS, out.strip().splitlines()[1].split(",")))
    table = build_table(3000)
    assert code == 0 and row["status"] == "ok"
    assert row["exact_value_or_log"] == "log10=133.981961976"
    assert row["exact_value_or_log"] == cli._fmt_count(tau_N(table, modulus_context(1, table)))


def test_grid_of_one_point_and_of_none(capsys):
    code, out = run_cli(["count", "--x-grid", "e20:e20:1", "--y", "100"], capsys)
    assert code == 0 and len(out.strip().splitlines()) == 1 + 1
    assert parse_grid("0:10:1") == [0] and parse_grid("-5:10:1") == [-5]  # no log is taken
    code = main(["count", "--x-grid", "1:10:0", "--y", "100"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "grid needs n >= 1" in captured.err


@pytest.mark.parametrize("axis, grid", [
    ("--x-grid", "0:10:3"), ("--x-grid", "-5:10:2"), ("--y-grid", "0:10:3"),
    ("--q-grid", "0:6:3"), ("--a-grid", "0:6:3"), ("--a-grid", "6:-1:2"),
])
def test_log_spaced_grid_with_an_endpoint_at_most_0_is_a_usage_error(capsys, axis, grid):
    point = [] if axis == "--x-grid" else ["--x", "1000"]
    point += [] if axis == "--y-grid" else ["--y", "10"]
    code = main(["count", *point, f"{axis}={grid}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"count: grid {grid} is log-spaced: lo and hi must be > 0\n"


def test_integer_axis_grid_points_stay_exact(capsys):
    # 2^53 + 1 is no float: a grid point keeps the class that --a counts
    args = ["count", "--x", "1000", "--y", "100", "--q", "2", "--jobs", "1"]
    _, grid = run_cli(args + ["--a-grid", "9007199254740993"], capsys)
    _, point = run_cli(args + ["--a", "9007199254740993"], capsys)
    assert grid == point
    row = dict(zip(COLUMNS, grid.strip().splitlines()[1].split(",")))
    assert row["a"] == "9007199254740993"
    assert row["exact_value_or_log"] == str(naive_oracle(1000, 100, a=1, q=2)) == "261"
    # the inner points of lo:hi:n keep their floor
    assert cli._axis_values({"y_grid": "50:3000:4"}, "y") == [50, 195, 766, 3000]


@pytest.mark.parametrize("grid", [
    ["--y-grid", "100.9"],
    ["--y-grid", "1e3"],
    ["--y-grid", "e4:1000:3"],
    ["--y-grid", "50:3e3:3"],
    ["--y", "100", "--q-grid", "6.5"],
    ["--y", "100", "--q", "7", "--a-grid", "1,2.5"],
])
def test_integer_axis_grid_point_that_is_no_integer_is_a_usage_error(capsys, grid):
    code = main(["count", "--x", "1000"] + grid)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "takes integer literals" in captured.err


@pytest.mark.parametrize("q", [6, 210])
def test_ups_row_is_the_q1_row(q):
    # UPS is T1i at q = 1: its budget cells are those of q = 1 whatever the row's q
    spec = {"mode": "compare", "x": math.exp(30), "y": 100, "variant": "UPS"}
    row, ref = compute_row({**spec, "q": q}), compute_row({**spec, "q": 1})
    assert row["status"] == "ok"
    assert row["omega_q"] == row["d_q"] == row["c_q"] == 0
    assert {k: v for k, v in row.items() if k != "q"} == {k: v for k, v in ref.items() if k != "q"}


# one point per variant, in its domain, with the estimator each variant names
VARIANT_ROWS = [
    ("T1i", "e30", 100, 6, None, lambda x, t, c: estimate_upsilon_q(x, t, c, "T1i")),
    ("T1ii", "e40", 100, 6, None, lambda x, t, c: estimate_upsilon_q(x, t, c, "T1ii")),
    ("T1iii", "e46", 100, 6, None, lambda x, t, c: estimate_upsilon_q(x, t, c, "T1iii")),
    ("REMC", "1e6", 1000, 6, None, lambda x, t, c: estimate_upsilon_q(x, t, c, "REMC")),
    ("T2", "1e6", 1000, 6, None, lambda x, t, c: estimate_t2(x, t.y, c.q)),
    ("T4", "e30", 100, 7, 3, lambda x, t, c: estimate_progression(x, t, c, 3, "T4")),
    ("T5", "1e6", 1000, 7, 3, lambda x, t, c: estimate_progression(x, t, c, 3, "T5")),
    ("R6", "e25", 50, 6, 2, lambda x, t, c: estimate_noncoprime(x, t, 6, 2)),
    ("UPS", "e30", 100, 6, None, lambda x, t, c: estimate_upsilon(x, t)),
]


def test_variant_rows_cover_every_variant():
    assert tuple(r[0] for r in VARIANT_ROWS) == VARIANTS


@pytest.mark.parametrize("variant, x, y, q, a, direct", VARIANT_ROWS)
def test_compare_row_is_the_estimator_beside_its_count(variant, x, y, q, a, direct):
    x = parse_x(x)
    table = build_table(y)
    ctx = modulus_context(q, table)
    est = direct(x, table, ctx)
    exact = exact_count(variant, x, table, ctx, a)
    rec = compare(exact, est)
    bud = est.budget
    row = compute_row({"mode": "compare", "x": x, "y": y, "q": q, "a": a, "variant": variant})
    assert row["status"] == "ok"
    assert row["exact_value_or_log"] == str(exact)
    assert (row["est_log_main"], row["beta"], row["sigma2"]) == (est.log_main, est.beta, est.sigma2)
    assert (row["rel_error"], row["error_over_budget"]) == (rec.rel_error, rec.error_over_budget)
    assert (row["regime"], row["u"], row["eta"], row["omega_q"]) == (
        bud.regime.kind, bud.u, bud.eta, bud.omega_q)
    assert (row["delta_q"], row["d_q"], row["c_q"], row["budget"]) == (
        bud.delta_q, bud.dd_q, bud.cc_q, bud.stated_bound)


def _stated_bound(row: dict) -> float:
    """A variant's stated budget at a row's own u, eta, omega_q and d_q cells."""
    u, eta, omega, dq = row["u"], row["eta"], row["omega_q"], row["d_q"]
    q, y = row["q"], row["y"]
    ly = math.log(y)
    gap = q * u * math.log(2 * u) / (modulus_context(q, build_table(y)).phi_q * math.sqrt(y) * ly)
    t1i = (1 + dq * dq) / u + dq * (1 + eta) / (math.sqrt(u) + eta * u)
    t4 = math.exp(-DEFAULT_C1 * u / math.log(max(u, 1 + 1e-12)) ** 4) + 1 / Y_eps(y)
    return {
        "T1i": t1i,
        "UPS": t1i,
        "T1ii": omega * (1 + eta) / (math.sqrt(u) + eta * u) + (1 + omega * omega) / u,
        "T1iii": eta * omega + math.log(q) / (math.sqrt(u) * ly) + omega * omega / u,
        "REMC": gap + 1 / u,
        "T2": gap,
        "T4": t4,
        "R6": t4,
        "T5": math.log(q) / (u**C2 * ly) + 1 / ly,
    }[row["variant"]]


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_row_states_its_budget_at_its_own_cells(variant):
    # R6 at d = (a, q) > 1 states the bound of (x/d, y): its u and eta cells are those of x/d
    xs = [10**4, 10**6, math.exp(15), math.exp(20), math.exp(22), math.exp(24), math.exp(25)]
    ok = 0
    for x, y, q, a in itertools.product(xs, (50, 1000), (6, 30), (1, 2, 5)):
        row = compute_row({"mode": "estimate", "x": x, "y": y, "q": q, "a": a, "variant": variant})
        if row["status"] != "ok":
            continue
        ok += 1
        assert row["budget"] == pytest.approx(_stated_bound(row), rel=1e-12), row
        if variant not in ("REMC", "T2", "T5"):
            assert row["eta"] > 0, row
    assert ok >= 4


@pytest.mark.parametrize("kind", ["ultrafriable", "friable"])
def test_count_rows_per_class_match_the_oracle(capsys, kind):
    code, out = run_cli(["count", "--x", "5000", "--y", "30", "--q", "12", "--a-grid", "0,1,5,6,11",
                         "--variant", kind, "--jobs", "1"], capsys)
    assert code == 0
    rows = [dict(zip(COLUMNS, line.split(","))) for line in out.strip().splitlines()[1:]]
    assert [r["a"] for r in rows] == ["0", "1", "5", "6", "11"]
    for r in rows:
        assert r["status"] == "ok"
        assert r["exact_value_or_log"] == str(naive_oracle(5000, 30, a=int(r["a"]), q=12, mode=kind))


@pytest.mark.parametrize("kind", ["ultrafriable", "friable"])
def test_a_grid_at_one_point_builds_one_class_vector(capsys, kind):
    # the first row of the grid counts its class alone, and the other four
    # read the vector of (x, y, q), built once
    ct._class_vector.cache_clear()
    ct._asked.clear()
    code, out = run_cli(["count", "--x", "e20", "--y", "300", "--q", "30", "--a-grid", "1,7,11,13,29",
                         "--variant", kind, "--jobs", "1"], capsys)
    assert code == 0
    assert ct._class_vector.cache_info().misses == 1
    vec = ct._class_vector(int(parse_x("e20")), 300, 30, kind)
    rows = [dict(zip(COLUMNS, line.split(","))) for line in out.strip().splitlines()[1:]]
    assert [r["exact_value_or_log"] for r in rows] == [str(vec[a]) for a in (1, 7, 11, 13, 29)]


@pytest.mark.parametrize("kind", ["ultrafriable", "friable"])
@pytest.mark.parametrize("x, y, q, a", [("e20.5", 100, 210, 11), ("e18", 5000, 7, -3),
                                        ("e20", 50, 12, 30), ("1000000", 200, 1001, 0)])
def test_count_row_with_a_class_prints_the_vector_entry(kind, x, y, q, a):
    # a lone count --a row builds no vector, and prints the entry a mod q of one
    ct._class_vector.cache_clear()
    ct._asked.clear()
    row = compute_row({"mode": "count", "x": parse_x(x), "y": y, "q": q, "a": a, "variant": kind})
    assert row["status"] == "ok" and ct._class_vector.cache_info().misses == 0
    assert row["exact_value_or_log"] == str(ct._class_vector(int(parse_x(x)), y, q, kind)[a])


def test_friable_rows_below_y_2(capsys):
    # no n is y-friable for y < 1; for y = 1 only n = 1 is, in the class of 1
    code, out = run_cli(["count", "--variant", "friable", "--x", "10", "--y-grid=-3,0,1",
                         "--a-grid", "0,1", "--q", "3"], capsys)
    assert code == 0
    rows = [dict(zip(COLUMNS, line.split(","))) for line in out.strip().splitlines()[1:]]
    got = [(r["y"], r["a"], r["exact_value_or_log"], r["status"]) for r in rows]
    assert got == [("-3", "0", "0", "ok"), ("-3", "1", "0", "ok"), ("0", "0", "0", "ok"),
                   ("0", "1", "0", "ok"), ("1", "0", "0", "ok"), ("1", "1", "1", "ok")]
    _, out = run_cli(["count", "--x", "10", "--y", "0", "--variant", "friable"], capsys)
    assert dict(zip(COLUMNS, out.strip().splitlines()[1].split(",")))["exact_value_or_log"] == "0"


@pytest.mark.parametrize("args, code, err", [
    (["count", "--x", "100", "--y", "10", "--out", "{tmp}/missing/rows.csv"], 1, "I/O error: "),
    (["estimate", "--x", "e30", "--y", "100", "--c1", "abc"], 2,
     "--c1: need a finite c1 > 0, got 'abc'"),
])
def test_cli_exit_codes(tmp_path, capsys, args, code, err):
    argv = [a.format(tmp=tmp_path) for a in args]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code and captured.out == ""
    assert err in captured.err


def test_compute_row_refuses_an_unknown_mode():
    with pytest.raises(ValueError) as ei:
        compute_row({"mode": "bogus", "x": 100, "y": 10})
    assert str(ei.value) == "unknown mode 'bogus'"
