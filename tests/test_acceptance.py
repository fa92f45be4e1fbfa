"""Acceptance suite: one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 10(a) compares the counts with the predicted constant
c through the proof's whole main term B * P(log B), whose degree-6
polynomial P has leading coefficient c.  At heights up to 1e6 the leading
term c * B * log^6 B is a small part of N(B), so a free fit of all seven
coefficients cannot isolate c; the lower coefficients of P come from the
same Euler product and archimedean density, and the ratio N / (B * P(log B))
tests all of them at once.
"""

import itertools
import math
import os
import random
import time
from fractions import Fraction

import numpy as np

from e6cubic import arith, counting, density, surface, torsor, verify

THREADS = max(1, min(8, os.cpu_count() or 1))


def report(criterion, passed, detail):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(f"\n{line}")
    return line


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    brute = surface.brute_counts_upto(500)
    agree = counting.counts_upto(500) == brute
    # the tau2 scan and the class walk give the same torsor points at 500,
    # hence the same counts at every B <= 500
    scan = sorted(
        xi + (t1, t2, tl)
        for xi, t1, t2, tl, *_ in counting._scan(500, torsor.T1_SCHEME)
    )
    walk = sorted(t.coords() for t in counting.enumerate_torsor_points(500))
    agree = agree and scan == walk
    spot_ok = all(
        counting.count_torsor(B).count
        == counting.count_torsor_fast(B).count
        == brute[B]
        for B in (1, 73, 250, 500)
    )
    # point sets at 500 agree, so the height-filtered sets agree at every
    # B <= 500, which upgrades the count equality to a bijection check
    brute_set = set(surface.brute_points(500))
    image_set = set(counting.enumerate_points(500))
    sets_ok = brute_set == image_set and len(image_set) == brute[500]
    elapsed = time.perf_counter() - t0
    ok = agree and spot_ok and sets_ok and elapsed < 300
    report(
        1, ok,
        f"brute = torsor = fast for all B <= 500 and the point sets "
        f"coincide (N(500) = {brute[500]}, {elapsed:.1f}s)",
    )
    assert agree, "counting methods disagree below 500"
    assert spot_ok
    assert sets_ok, "enumerated point set differs from the brute scan"
    assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds the 5 minute budget"


def test_criterion_02_seven_points_at_height_one():
    pts = set()
    for x3 in range(-1, 2):
        for x0 in range(-1, 2):
            x1 = -(x0 * x0 + x3**3)
            if abs(x1) <= 1:
                pts.add((x0, x1, 1, x3))
    ok = len(pts) == 7 and counting.count_torsor(1).count == 7
    report(2, ok, f"independent scan finds {len(pts)} points at height 1")
    assert ok


def test_criterion_03_bijection_suite():
    t0 = time.perf_counter()
    checks, failures, detail = verify._bijection_checks(200)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60
    report(
        3, ok,
        f"{checks} round-trip checks at B = 200, {failures} failures "
        f"({elapsed:.1f}s)",
    )
    assert failures == 0, detail
    assert elapsed < 60


def test_criterion_04_case_analysis_grid():
    grid = range(13)
    multi = inverse_fail = 0
    for tup in itertools.product(grid, grid, grid, grid):
        if len(torsor.phi_matching_cases(*tup)) != 1:
            multi += 1
        if len(torsor.phi_prime_matching_cases(*tup)) != 1:
            multi += 1
        n1, n3, n6, m1 = tup
        if n3 <= 1 and (m1 == 0 or (n3 == 0 and n6 == 0)):
            if torsor.phi_prime_exponents(*torsor.phi_exponents(*tup)) != tup:
                inverse_fail += 1
        if n1 + n3 <= 1:
            if torsor.phi_exponents(*torsor.phi_prime_exponents(*tup)) != tup:
                inverse_fail += 1
    ok = multi == 0 and inverse_fail == 0
    report(
        4, ok,
        f"exactly one case fires on all {13**4} tuples; "
        f"{inverse_fail} inverse failures on scheme-valid tuples",
    )
    assert ok


def test_criterion_05_cone_volume():
    exact_ok = density.alpha_exact() == Fraction(1, 6220800)
    est, err = density.alpha_simplex_check(samples=10**6, seed=12345)
    dev = abs(est - float(density.ALPHA)) / err
    ok = exact_ok and dev <= 3
    report(
        5, ok,
        f"alpha = 1/6220800 exactly; Monte-Carlo at 1e6 samples deviates "
        f"{dev:.2f} standard errors",
    )
    assert ok


def test_criterion_06_archimedean_dual_evaluation():
    t0 = time.perf_counter()
    a, ea = density.omega_inf_g2()
    b, eb = density.omega_inf_direct()
    elapsed = time.perf_counter() - t0
    spread = abs(a - b)
    ok = spread <= ea + eb and elapsed < 60
    report(
        6, ok,
        f"iterated form {a:.9f} vs direct slicing {b:.9f}, "
        f"spread {spread:.2e} within the error estimates {ea + eb:.2e} ({elapsed:.1f}s)",
    )
    assert spread <= ea + eb
    assert elapsed < 60


def test_criterion_07_euler_product_stability():
    lo = density.omega0(10**5)
    hi = density.omega0(10**6)
    drift = abs(lo.value - hi.value)
    ok = drift <= 1e-6 and drift <= lo.tail_bound
    report(
        7, ok,
        f"omega0 drift 1e5 -> 1e6 is {drift:.2e}, "
        f"reported tail bound {lo.tail_bound:.2e}",
    )
    assert drift <= 1e-6
    assert drift <= lo.tail_bound, "observed drift exceeds the reported tail bound"


def test_criterion_08_local_factor_cross_check():
    worst = 0.0
    for p in (2, 3, 5, 7, 11):
        for s in (0.25, 0.5, 1.0):
            gap = abs(
                density.local_factor_closed(p, s)
                - density.local_factor_sum(p, s, cutoff=40)
            )
            worst = max(worst, gap)
    ok = worst <= 1e-8
    report(8, ok, f"closed form vs truncated sum, worst gap {worst:.2e}")
    assert ok


def test_criterion_09_congruence_identities():
    rng = random.Random(20260811)
    failures = 0
    for _ in range(10_000):
        q = rng.randrange(1, 5000)
        a = rng.randrange(-2 * q, 2 * q + 1)
        while math.gcd(a, q) != 1:
            a = rng.randrange(-2 * q, 2 * q + 1)
        b1 = Fraction(rng.randrange(-10**7, 10**7), rng.randrange(1, 60))
        b2 = b1 + Fraction(rng.randrange(0, 10**7), rng.randrange(1, 60))
        res = arith.count_congruence_interval(b1, b2, a, q)
        if Fraction(res.exact_count) != res.main_term + res.remainder:
            failures += 1
    eta_violations = 0
    for q in range(1, 10_000, 2):
        n = np.arange(1, q + 1, dtype=np.int64)
        squares = np.bincount((n * n) % q, minlength=q)
        coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
        if coprime.any() and int(squares[coprime].max()) > 2 ** arith.omega_distinct(q):
            eta_violations += 1
    ok = failures == 0 and eta_violations == 0
    report(
        9, ok,
        f"decomposition exact on 10^4 random instances ({failures} failures); "
        f"square-root-count bound holds for all odd q < 10^4 "
        f"({eta_violations} violations)",
    )
    assert ok


def test_criterion_10_asymptotic_diagnostic():
    pc = density.peyre_constant(P=10**5, quad_tol=1e-9)
    poly = density.main_term_coefficients(P=10**5)
    print(
        f"\n    constant: alpha = {float(pc.alpha):.6e}, "
        f"omega0 = {pc.omega0.value:.8e}, omega_inf = {pc.omega_inf.value:.8f}, "
        f"c = {pc.c:.6e}"
    )
    print("    main term P = [" + ", ".join(f"{a:.5g}" for a in poly) + "]")
    t0 = time.perf_counter()
    heights = [round(10 ** (3 + 3 * k / 24)) for k in range(25)]
    samples = [(r.B, r.count) for r in counting.count_torsor_grid(heights, threads=THREADS)]
    elapsed = time.perf_counter() - t0
    print(f"    counted {len(samples)} samples up to 1e6 in {elapsed:.0f}s")

    ratios = [
        (B, n / (B * math.log(B) ** 6))
        for B, n in samples
        if B >= samples[-1][0] / 10
    ]
    steps = [
        abs(b[1] / a[1] - 1.0) for a, b in zip(ratios, ratios[1:])
    ]
    smooth_ok = max(steps) < 0.10
    print(
        f"    top-decade N/(B log^6 B) variation: max {max(steps):.3%} "
        f"over {len(steps)} consecutive steps"
    )

    # (a) The leading coefficient of the main term is c, and the counts
    # follow the whole main term: its lower coefficients scale with
    # omega_0 * omega_inf just as c does.
    def main_term(B):
        return B * np.polynomial.polynomial.polyval(math.log(B), poly)

    main = [(B, n / main_term(B)) for B, n in samples]
    lead_ok = abs(poly[6] - pc.c) <= pc.c_error
    band_ok = all(0.5 <= r <= 2.0 for _, r in main)
    top = [(B, r) for B, r in main if B >= 10**5]
    top_worst = max(abs(r - 1.0) for _, r in top)
    top_ok = top_worst <= 0.02
    decades = ", ".join(
        f"{r:.4f} at {B:.0e}" for B, r in main if B in (10**3, 10**4, 10**5, 10**6)
    )
    print(
        f"    N/(B P(log B)): {decades}; worst {max(abs(r - 1.0) for _, r in main):.2%} "
        f"overall, {top_worst:.2%} for B >= 1e5"
    )
    B_max, n_max = samples[-1]
    leading_term = pc.c * B_max * math.log(B_max) ** 6
    print(
        f"    at B = 1e6: N/(c B log^6 B) = {n_max / leading_term:.0f}, "
        f"(N - B P(log B))/(c B log^6 B) = "
        f"{(n_max - main_term(B_max)) / leading_term:.2f}"
    )
    lead_dev = abs(poly[6] - pc.c) / pc.c
    report(
        10, smooth_ok and lead_ok and band_ok and top_ok,
        f"(b) smoothness {'holds' if smooth_ok else 'fails'} "
        f"(max step {max(steps):.1%}); (a) P[6]/c - 1 = {lead_dev:.1e}, "
        f"N/(B P(log B)) in [{min(r for _, r in main):.4f}, "
        f"{max(r for _, r in main):.4f}], within {top_worst:.2%} of 1 "
        f"for B >= 1e5",
    )
    assert smooth_ok, f"top-decade variation {max(steps):.1%} exceeds 10%"
    # A free fit of all seven coefficients cannot isolate c here: at B = 1e6
    # the remainder N - B P(log B) is larger than the leading term itself
    # (see the printed line), so c is checked through the predicted P.
    assert lead_ok, (
        f"main-term leading coefficient {poly[6]:.6e} differs from "
        f"c = {pc.c:.6e} by more than c_error = {pc.c_error:.1e}"
    )
    assert band_ok, f"N/(B P(log B)) leaves [0.5, 2]: {main}"
    assert top_ok, (
        f"N/(B P(log B)) is {top_worst:.2%} from 1 for B >= 1e5 "
        f"(bound 2%): {top}"
    )
    # the grid counts 1e6 anyway: pin its exact value, far above the other
    # exact checks
    assert samples[-1] == (10**6, 103_591_243)
