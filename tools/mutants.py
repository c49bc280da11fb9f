"""Mutation check: each mutant of the package must fail the tests named for it.

Usage, from the repository root (no install; each copy imports its own
``src/``):

    python3 tools/mutants.py

Each entry of ``MUTANTS`` is (name, file, old text, new text, test files).
The old text must occur exactly once in its file; every entry is checked
before any test runs.  An unmutated copy of the repository runs every test
file named in the list and must pass, so that a broken suite cannot pass
for a killed mutant.  Then each mutant is applied to a fresh temporary copy,
where ``pytest -x`` runs its test files: a failing test kills it.  One line
is printed per mutant, killed or survived with its time.  The exit status is
1 if any mutant survives, or if a run neither passes nor fails (a timeout, a
collection error).

A mutant here changes a count.  A change of path or spelling that never
changes a result (say ``bound * bound >= N`` made ``>``) is an equivalent
mutant: no test can kill it, and it does not belong in the list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHARACTERS = "src/ultrafriable/characters.py"
CLI = "src/ultrafriable/cli.py"
COUNTING = "src/ultrafriable/counting.py"
ESTIMATORS = "src/ultrafriable/estimators.py"
PRIMES = "src/ultrafriable/primes.py"
SADDLE = "src/ultrafriable/saddle.py"
COUNTING_TESTS = ("tests/test_counting.py",)
ESTIMATOR_TESTS = ("tests/test_estimators.py",)
BETA_GRID_TEST = ("tests/test_saddle.py::test_beta_grid_newton_evaluations",)
TIMEOUT_S = 300  # per pytest run

MUTANTS = (
    # the list entries up to sqrt(X) must include sqrt(X) itself, on both sides
    ("small parts cut left", COUNTING,
     'k = int(A.searchsorted(s, "right"))', 'k = int(A.searchsorted(s, "left"))', COUNTING_TESTS),
    ("B side cut left", COUNTING,
     'B[:B.searchsorted(s, "right")]', 'B[:B.searchsorted(s, "left")]', COUNTING_TESTS),
    # each block of the class sweep starts from the last row of the block before
    ("class sweep carry dropped", COUNTING, "        C[0] += carry\n", "", COUNTING_TESTS),
    # divisors > bound pair with divisors < N/bound, strictly
    ("reflected bound not strict", COUNTING, "(N - 1) // bound", "N // bound", COUNTING_TESTS),
    # the squarefree d | rad(q) up to M, inclusive
    ("inclusion-exclusion stops below max M", COUNTING,
     "if d * p <= M]", "if d * p < M]", COUNTING_TESTS),
    # the tail's m are coprime to q: a multiple of a prime of q is no such n
    ("tail keeps multiples of the primes of q", COUNTING,
     "m = m[m % p != 0]", "pass", COUNTING_TESTS),
    # the float floor of log(bound) / log(p) is corrected up when p^(e+1) == bound
    ("exponent upward correction strict", PRIMES,
     "e += p ** (e + 1) <= bound", "e += p ** (e + 1) < bound",
     ("tests/test_primes.py", "tests/test_counting.py")),
    # peeling p^e off a bound past 2^63 multiplies the classes below it by p^e
    ("split multiplier dropped", COUNTING, "m * p ** e % q)", "m)", COUNTING_TESTS),
    # mod q > 1 the class of N/d is not a function of the class of d
    ("reflection at every q", COUNTING,
     "(q == 1 and bound * bound >= N)", "(bound * bound >= N)", COUNTING_TESTS),
    # a bound >= N counts every divisor of the rows
    ("full-divisor leaf dropped", COUNTING,
     "leaves.append((sign, k, None, m))", "pass", COUNTING_TESTS),
    # a reflection reads N_k exactly, so the prefix products run past bound^2
    ("plan capped at bound, not bound^2", COUNTING,
     "cap, prefix = bound * bound, [1]", "cap, prefix = bound, [1]", COUNTING_TESTS),
    # one row is listed directly, whatever _DIRECT_TAU is: halving it recurses forever
    ("one-row leaf dropped", COUNTING,
     "self.leaf = len(rows) == 1 or math.prod(", "self.leaf = math.prod(", COUNTING_TESTS),
    # the divisors > bound are tau(N) minus those below N/bound: the reflected leaf subtracts
    ("reflection's sign kept", COUNTING,
     "sign, bound = -sign, (N - 1) // bound", "sign, bound = sign, (N - 1) // bound", COUNTING_TESTS),
    # a prime of q above sqrt(x) divides no n coprime to q: it leaves Buchstab's tail
    ("tail keeps the large primes of q", COUNTING,
     "            tail = tail[tail != r]\n", "            pass\n", COUNTING_TESTS),
    # the halves deal every row, A B B A A B B A ...: a row dealt to neither drops its divisors
    ("a row dropped from the halves", COUNTING,
     "cycle((1, 0, 0, 1))", "cycle((1, 0, 0, 0))", COUNTING_TESTS),
    # every class r * v of the sweep's fold is reduced mod q, in int32
    ("class fold's remainder mod 2q", COUNTING,
     "folded -= folded // q * q", "folded -= folded // (2 * q) * (2 * q)", COUNTING_TESTS),
    ("class fold's remainder dropped", COUNTING,
     "        folded -= folded // q * q  # the remainder mod q; // by a scalar is the faster op\n", "",
     COUNTING_TESTS),
    # a leaf row's power p^e times the prefix of the list below 2^63 / p^e, every entry of it
    ("leaf prefix ends shifted by one", COUNTING,
     'ends = d.searchsorted(top // pw, "right")', 'ends = d.searchsorted(top // pw, "right") - 1',
     COUNTING_TESTS),
    # a primitive root g mod p with g^(p-1) = 1 mod p^2 does not generate mod p^2; g + p does
    ("primitive root lift dropped", CHARACTERS,
     "        g += p\n", "        pass\n", ("tests/test_characters.py",)),
    # chi(n)'s value index weighs generator i's discrete log by L / o_i
    ("value-index weights dropped", CHARACTERS,
     "np.array([L // o for o in self.orders]", "np.array([1 for o in self.orders]",
     ("tests/test_characters.py",)),
    # y, q and a take integer literals only; a float point is refused, not floored
    ("integer axes take floats", CLI,
     "if not all(isinstance(v, int) for v in", "if not all(isinstance(v, (int, float)) for v in",
     ("tests/test_cli.py",)),
    # g_q(s) = prod (1 - p^-s) / (1 - p^-(nu_p+1)s), a factor in (0, 1]
    ("g_q quotient inverted", SADDLE,
     "np.prod(em[:n] / em[n:])", "np.prod(em[n:] / em[:n])", ("tests/test_saddle.py",)),
    # a context carries its own y: a cache keyed on q alone hands every y
    # the context of the first y it saw
    ("row context keyed on q alone", PRIMES,
     "    return _modulus_context(q, table.y)\n",
     "    return _modulus_context(q, _FIRST_Y.setdefault(q, table.y))\n\n\n"
     "_FIRST_Y: dict = {}\n", ("tests/test_cli.py",)),
    # a beta start is the cubic Hermite interpolant between two nodes, whose
    # slopes d log s / d log eta are positive
    ("Hermite slope's sign flipped", SADDLE,
     "+ h * t * (1.0 - t) * ((1.0 - t) * m0 - t * m1))",
     "- h * t * (1.0 - t) * ((1.0 - t) * m0 - t * m1))", BETA_GRID_TEST),
    # the bracket search starts at the node of the calibrated start, floor(D log10 eta)
    ("bracket index one node low", SADDLE,
     "k = math.floor(_NODES_PER_DECADE * math.log10(eta))",
     "k = math.floor(_NODES_PER_DECADE * math.log10(eta)) - 1", BETA_GRID_TEST),
    ("nodes per decade halved", SADDLE,
     "_NODES_PER_DECADE = 2  #", "_NODES_PER_DECADE = 1  #", BETA_GRID_TEST),
    # gamma_q'' = (log g_q)'' is -phi_2 of the primes of q, never positive
    ("gamma_q'' sign kept", SADDLE,
     "    g2 = 0.0 - g2  # not -g2, which makes the empty series' 0.0 a -0.0\n", "",
     ("tests/test_saddle.py::test_g_q_range_and_gamma_signs",)),
    # no n is y-friable for y < 1: P+(1) = 1 > y
    ("friable y < 1 guard made y < 0", COUNTING,
     "or y < 1:  # P+(n) >= P+(1) = 1 > y for every n\n        return 0\n    if y < 2:",
     "or y < 0:  # P+(n) >= P+(1) = 1 > y for every n\n        return 0\n    if y < 2:",
     ("tests/test_counting.py::test_friable_counts_below_y_2_match_oracle",)),
    # p_5 = 11: nth_prime's one sieve must reach it below k = 6
    ("nth_prime small-k bound below p_5", PRIMES,
     "bound = 15 if k < 6", "bound = 10 if k < 6",
     ("tests/test_primes.py::test_nth_prime_is_the_kth_entry_of_one_sieve",)),
    # h_d(s) = prod_{p | d} (1 - p^(-nu_p s)) / (1 - p^(-(nu_p+1) s))
    ("h_d exponent off by one", SADDLE,
     "dnu = np.array(ctx_d.nu_divisors, dtype=np.float64)",
     "dnu = np.array(ctx_d.nu_divisors, dtype=np.float64) + 1.0",
     ("tests/test_saddle.py", "tests/test_estimators.py")),
    # Z_q and g_q belong to the modulus: a point cache keyed on (log x, y)
    # alone hands every q the factors of the first q it saw
    ("point cache keyed without q", ESTIMATORS,
     "    f = _main_factors(lx, table.y, ctx.q)\n",
     "    f = _main_factors(lx, table.y,\n"
     "                      globals().setdefault('_FIRST_Q', {}).setdefault((lx, table.y), ctx.q))\n",
     ("tests/test_cli.py", "tests/test_estimators.py")),
    # every saddle variant (T1i-iii, T4, R6) refuses x outside psi(y) > 2 log x
    ("small_y check dropped", ESTIMATORS,
     "    elif not bud.regime.small_y:\n"
     '        raise RegimeError(f"{variant} needs the saddle domain psi(y) > 2 log x")\n',
     "", ESTIMATOR_TESTS),
    # REMC, T2 and T5 refuse x outside the large-y regime y >= (log x)^(2+eps)
    ("large_y check dropped", ESTIMATORS,
     "        if not bud.regime.large_y:\n"
     '            raise RegimeError(f"{variant} needs y >= (log x)^(2+eps)")\n',
     "        pass\n", ESTIMATOR_TESTS),
    # T1(ii) holds for eta <= 1/2, the end point included
    ("T1ii eta bound strict", ESTIMATORS,
     'if variant == "T1ii" and eta > 0.5:', 'if variant == "T1ii" and eta >= 0.5:', ESTIMATOR_TESTS),
    # T1(iii) holds for eta * sqrt(u) < 0.2, the end point excluded
    ("T1iii eta*sqrt(u) end point admitted", ESTIMATORS,
     "eta * math.sqrt(u) >= T1III_ETA_SQRT_U:", "eta * math.sqrt(u) > T1III_ETA_SQRT_U:",
     ESTIMATOR_TESTS),
)


def _check():
    """Each old text occurs exactly once in its file."""
    for name, path, old, _, _ in MUTANTS:
        n = (ROOT / path).read_text().count(old)
        if n != 1:
            sys.exit(f"mutant {name!r}: its old text occurs {n} times in {path}, not once")


def _copy(dest: Path) -> Path:
    tree = dest / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "out", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
    return tree


def _pytest(tree: Path, tests) -> int | None:
    """pytest's exit code on the test files in the copy, or None on a timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return run.returncode


def _run(mutant=None, tests=()) -> tuple[int | None, float]:
    """(exit code, seconds) of the tests in a fresh copy, with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = _copy(Path(tmp))
        if mutant is not None:
            _, path, old, new, tests = mutant
            f = tree / path
            f.write_text(f.read_text().replace(old, new))
        start = time.perf_counter()
        code = _pytest(tree, tests)
        return code, time.perf_counter() - start


def main() -> int:
    _check()
    tests = sorted({t for m in MUTANTS for t in m[4]})
    code, secs = _run(tests=tests)
    print(f"{'unmutated':9} {secs:6.1f} s  {' '.join(tests)}", flush=True)
    if code != 0:
        print(f"the unmutated tests exit {code}; no mutant can be judged", file=sys.stderr)
        return 1

    bad = 0
    for mutant in MUTANTS:
        code, secs = _run(mutant)
        status = {0: "SURVIVED", 1: "killed"}.get(code, "ERROR" if code is not None else "TIMEOUT")
        bad += status != "killed"
        print(f"{status:9} {secs:6.1f} s  {mutant[0]}  ({mutant[1]})", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
