"""Acceptance suite: one test per shipped guarantee, with timing budgets.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` or ``-rA``
to see them) and asserts the guarantee at its stated tolerance.
"""

import contextlib
import io
import json
import math
import random
import time

import support
from nestrad import (
    PHI,
    RAMANUJAN_SUP_BOUND,
    ARCTAN,
    SupQuery,
    cli,
    constant_normalized,
    constant_raw,
    golden,
    kappa_enclosure,
    kappa_limit,
    nested_eval,
    power_tower,
    ramanujan,
    sup_enclosure,
    u_eval,
    u_inverse,
)
from nestrad.kappa import phi_pow

GOLDEN_VALUE = 1.61803398874989485
DOUBLE_PHI = 3.23606797749979


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def run_cli_quiet(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.run(list(argv))
    return status, buffer.getvalue()


def test_criterion_01_golden_radical():
    kappa_limit(golden(), 1e-6)  # warm-up outside the timed region
    start = time.perf_counter()
    status, out = run_cli_quiet("eval", "--family", "golden", "--tol", "1e-10")
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    error = abs(doc["mid"] - GOLDEN_VALUE)
    ok = status == 0 and doc["converged"] and error <= 1e-10 and elapsed < 0.010
    report(1, ok, f"golden mid error {error:.2e}, {elapsed * 1e3:.2f} ms")


def test_criterion_02_power_tower_homogeneity():
    start = time.perf_counter()
    status, out = run_cli_quiet("eval", "--family", "powertower", "--tol", "1e-9")
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    error = abs(doc["mid"] - DOUBLE_PHI)
    ok = status == 0 and doc["converged"] and error <= 1e-9 and elapsed < 0.010
    report(2, ok, f"power tower mid error {error:.2e}, {elapsed * 1e3:.2f} ms")


def test_criterion_03_constant_radical():
    result = kappa_limit(constant_raw(6.0), 1e-9)
    error = abs(result.enclosure.mid - 3.0)
    ok = result.converged and error <= 1e-9 and result.enclosure.lo <= 3.0 <= result.enclosure.hi
    report(3, ok, f"constant raw 6 mid error {error:.2e} at depth {result.enclosure.depth}")


def test_criterion_04_ramanujan():
    # oracle first: plain-arithmetic truncation of the multiplier form,
    # continuation-seeded from below and above
    under_24 = support.ramanujan_multiplier_oracle(24)
    under_32 = support.ramanujan_multiplier_oracle(32)
    over_32 = support.ramanujan_multiplier_oracle(32, seed=32 + 4)
    oracle_ok = abs(under_24 - under_32) <= 1e-8 and under_32 <= 3.0 <= over_32

    start = time.perf_counter()
    result = kappa_limit(ramanujan(), 1e-6)
    elapsed = time.perf_counter() - start
    error = abs(result.enclosure.mid - 3.0)
    ok = (
        oracle_ok
        and result.converged
        and result.enclosure.depth <= 32
        and error <= 1e-6
        and elapsed < 0.050
    )
    report(
        4,
        ok,
        f"oracle agreement {abs(under_24 - under_32):.2e}, engine error {error:.2e} "
        f"at depth {result.enclosure.depth}, {elapsed * 1e3:.2f} ms",
    )


def test_criterion_05_width_law():
    enclosure = kappa_enclosure(golden(), 21)
    golden_bound = phi_pow(20) - 1.0 + enclosure.fp_slack
    golden_ok = enclosure.width <= golden_bound

    worst = 0.0
    families = [golden(), power_tower(), ramanujan(), constant_raw(6.0), constant_normalized(2.0)]
    for spec in families:
        for depth in range(4, 65):
            e = kappa_enclosure(spec, depth)
            denominator = e.analytic_width_bound + e.fp_slack
            if denominator == 0.0:
                assert e.width == 0.0
                continue
            worst = max(worst, e.width / denominator)
    ok = golden_ok and worst <= 1.0
    report(
        5,
        ok,
        f"golden depth-21 width {enclosure.width:.2e} <= {golden_bound:.2e}, "
        f"worst width/bound ratio {worst:.3f} over depths 4..64",
    )


def test_criterion_06_inequality_suites():
    start = time.perf_counter()
    support.run_concave_drop_suite(1000, random.Random(1))
    support.run_gap_dominance_suite(1000, random.Random(2))
    support.run_seed_gap_suite(1000, random.Random(3))
    support.run_swap_suite(1000, random.Random(4))
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    report(6, ok, f"4 x 1000 randomized inequality cases in {elapsed:.2f} s")


def test_criterion_07_u_function():
    start = time.perf_counter()
    at_one = u_eval(1.0, 1e-9)
    phi_ok = at_one.lo <= PHI <= at_one.hi and at_one.width <= 1e-9

    constant_ok = all(
        abs(u_eval(r, 1e-6).mid - PHI) <= 1e-6 for r in (0.0, 0.25, 0.5, 0.9)
    )

    grid = [1.0 + 19.0 * i / 49.0 for i in range(50)]
    enclosures = [u_eval(r, 1e-9) for r in grid]
    sandwich_ok = all(
        e.lo > r and e.hi <= r * PHI * (1 + 1e-12) + 1e-12
        for r, e in zip(grid, enclosures)
    )
    lipschitz_ok = all(
        abs(b.mid - a.mid) <= (s - r) + a.width + b.width
        for (r, a), (s, b) in zip(zip(grid, enclosures), list(zip(grid, enclosures))[1:])
    )

    round_trip_worst = 0.0
    for y in (PHI, 2.0, 3.0, 5.0, 10.0, 100.0):
        r = u_inverse(y, 1e-6)
        round_trip_worst = max(round_trip_worst, abs(u_eval(r, 1e-7).mid - y))
    round_trip_ok = round_trip_worst <= 2e-6
    elapsed = time.perf_counter() - start

    ok = phi_ok and constant_ok and sandwich_ok and lipschitz_ok and round_trip_ok and elapsed < 2.0
    report(
        7,
        ok,
        f"U(1) width {at_one.width:.2e}, worst round trip {round_trip_worst:.2e}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_08_cap_estimator_soundness():
    ramanujan_sup = support.ramanujan_sup_oracle()
    assert ramanujan_sup <= RAMANUJAN_SUP_BOUND
    families = [
        ("golden", lambda k: 1.0, 1.0),
        ("constant alpha=2", lambda k: 2.0, 2.0),
        ("ramanujan", lambda k: math.exp(ramanujan().terms_lograw(k)[-1]), ramanujan_sup),
    ]
    start = time.perf_counter()
    failures = []
    for name, alpha_at, true_sup in families:
        for observed in (6, 10, 14):
            epsilon, m_h = support.manufacture_modulus(alpha_at, observed)
            lo, hi = sup_enclosure(SupQuery(m_h, epsilon))
            if not lo <= true_sup <= hi:
                failures.append((name, observed, lo, hi, true_sup))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 2.0
    report(8, ok, f"9 manufactured-modulus intervals all contain their sup, {elapsed:.2f} s"
           if not failures else f"missed: {failures}")


def test_criterion_09_continued_arctan():
    start = time.perf_counter()
    rng = random.Random(7)
    bounds = [support.arctan_error_bound(n) for n in range(1, 41)]
    validity_ok = True
    for _ in range(200):
        terms = [rng.uniform(0.0, 3.0) for _ in range(40)]
        deep = nested_eval(ARCTAN, terms, 0.0)
        for n in range(1, 41):
            if abs(deep - nested_eval(ARCTAN, terms[:n], 0.0)) > bounds[n - 1] + 1e-12:
                validity_ok = False
    ratio = support.arctan_error_bound(10**4) * math.sqrt(2 * 10**4 / 3.0)
    asymptotic_ok = 0.95 <= ratio <= 1.05
    elapsed = time.perf_counter() - start
    ok = validity_ok and asymptotic_ok and elapsed < 1.0
    report(9, ok, f"200 lists bound-valid, decay ratio {ratio:.4f}, {elapsed:.2f} s")


def test_criterion_10_scale_safety():
    results = {}
    for name, spec in (("ramanujan", ramanujan()), ("powertower", power_tower())):
        results[name] = kappa_enclosure(spec, 256)
    ok = all(
        math.isfinite(e.lo) and math.isfinite(e.hi) and not math.isnan(e.width)
        for e in results.values()
    )
    widths = ", ".join(f"{name} width {e.width:.2e}" for name, e in results.items())
    report(10, ok, f"depth-256 enclosures finite: {widths}")
