"""Correctness checks of the benchmark, apart from the program's own code.

Each check takes the program's outputs plus reference data and returns a
list of problems; an empty list means the outputs are correct.  The
references are the brute surface oracle, the stored exact counts of
``reference_counts.json``, the predicted main term B*P(log B), numbers
computed here from the sizes of the inputs, and an Euler product computed
here with numpy.  The benchmark's tests feed wrong answers into these
functions to show that each check rejects them.
"""

import collections
import math

import numpy as np

# band of N(B) / (B * P(log B)) at every height, and the tolerance from 1
# above RATIO_TIGHT_FROM (acceptance criterion 10)
RATIO_BAND = (0.5, 2.0)
RATIO_TIGHT_FROM = 10**5
RATIO_TIGHT = 0.02
OMEGA_INF_AGREEMENT = 1e-6
OMEGA0_REL = 1e-12


def main_term(poly, B):
    L = math.log(B)
    return B * sum(a * L**k for k, a in enumerate(poly))


def check_counts(counts, poly, exact):
    """counts: [(B, N)] in the order computed; exact: {B: N} known exactly."""
    problems = []
    for B, n in counts:
        ratio = n / main_term(poly, B)
        if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
            problems.append(f"N({B})/(B*P(log B)) = {ratio:.4f} outside {RATIO_BAND}")
        if B >= RATIO_TIGHT_FROM and abs(ratio - 1.0) > RATIO_TIGHT:
            problems.append(f"N({B})/(B*P(log B)) = {ratio:.5f} not within {RATIO_TIGHT} of 1")
        if B in exact and exact[B] != n:
            problems.append(f"N({B}) = {n}, exact count {exact[B]}")
    ordered = sorted(counts)
    for (b1, n1), (b2, n2) in zip(ordered, ordered[1:]):
        if n2 < n1:
            problems.append(f"N({b2}) = {n2} < N({b1}) = {n1}")
    return problems


def case_grid_checks(grid):
    """Checks verify's case grid makes on the exponent box [0, grid]^4, grid >= 1.

    Two per tuple, one per T1-valid tuple (n3 <= 1 and m1 = 0, or
    n3 = n6 = 0: (grid+1) * (3*grid+2) of them) and one per T2-valid tuple
    (n1 + n3 <= 1: 3 * (grid+1)^2 of them).
    """
    g = grid + 1
    return 2 * g**4 + g * (3 * grid + 2) + 3 * g * g


def bijection_checks(points):
    """Checks of verify's bijection property when the oracle finds ``points``.

    Four per enumerated torsor point, two for the image set, one per brute
    point; a correct enumeration has exactly as many points as the oracle.
    """
    return 5 * points + 2


def eta_checks(qmax):
    return (qmax + 1) // 2  # odd q <= qmax


def parse_verify_output(text):
    """{property: (status, checks, failures)} from ``e6cubic verify`` lines."""
    out = {}
    for line in text.splitlines():
        status, _, rest = line.partition(" ")
        name, _, tail = rest.partition(": ")
        words = tail.split()
        if status in ("PASS", "FAIL") and len(words) >= 4 and words[1] == "checks,":
            out[name] = (status, int(words[0]), int(words[2]))
    return out


def check_verify(rc, text, expected_checks):
    """expected_checks: {property: checks it must report}."""
    problems = [] if rc == 0 else [f"verify exited with {rc}"]
    found = parse_verify_output(text)
    for name, want in expected_checks.items():
        if name not in found:
            problems.append(f"verify reported no line for {name}")
            continue
        status, checks, failures = found[name]
        if status != "PASS" or failures:
            problems.append(f"{name}: {status} with {failures} failures")
        if checks != want:
            problems.append(f"{name}: {checks} checks, expected {want}")
    return problems


def check_counts_upto(counts, oracle):
    if counts != oracle:
        diff = [b for b in range(min(len(counts), len(oracle))) if counts[b] != oracle[b]]
        return [f"counts_upto differs from the brute oracle (lengths {len(counts)}, "
                f"{len(oracle)}; first differing B {diff[:1]})"]
    return []


def summarize_points(points):
    """(points, distinct points, {height: points}) of (x0, x1, x2, x3) tuples."""
    heights = collections.Counter(max(abs(v) for v in p) for p in points)
    return len(points), len(set(points)), dict(heights)


def check_enumerated(summary, B, oracle):
    """summary: summarize_points of enumerate_points(B); oracle: brute N(b), b <= B."""
    n, distinct, heights = summary
    problems = []
    if distinct != n:
        problems.append(f"enumerate_points yields {n - distinct} points twice")
    if any(h > B for h in heights):
        problems.append(f"enumerate_points yields points above height {B}")
    acc = 0
    for b in range(B + 1):
        acc += heights.get(b, 0)
        if acc != oracle[b]:
            problems.append(f"enumerate_points has {acc} points of height <= {b}, "
                            f"the brute oracle {oracle[b]}")
            break
    return problems


def primes_upto(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    sieve[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = False
    return np.flatnonzero(sieve)


def omega0_logsum(P):
    """prod_{p <= P} (1 - 1/p)^7 (1 + 7/p + 1/p^2) as exp of a sum of logs."""
    inv = 1.0 / primes_upto(P).astype(np.float64)
    return math.exp(float(np.sum(7.0 * np.log1p(-inv) + np.log1p(inv * (7.0 + inv)))))


def check_constant(rc, payload, poly, omega0_reference):
    """payload: the JSON of ``e6cubic constant``; poly: main_term_coefficients
    at the same truncation prime; omega0_reference: omega0_logsum(P)."""
    if rc != 0 or "error" in payload:
        return [f"constant exited with {rc}: {payload.get('error', '')}"]
    problems = []
    # the reported error is the spread of the two forms plus the g2 form's
    # own error estimate, so bounding it bounds the spread
    if not payload["omegaInf"]["error"] <= OMEGA_INF_AGREEMENT:
        problems.append(f"omega_inf forms differ by up to {payload['omegaInf']['error']:.3e}")
    w0 = payload["omega0"]["value"]
    rel = abs(w0 / omega0_reference - 1.0)
    if not rel <= OMEGA0_REL:
        problems.append(f"omega0 = {w0!r}, numpy log-sum {omega0_reference!r} (rel {rel:.2e})")
    if not abs(poly[6] - payload["c"]) <= payload["c_error"]:
        problems.append(f"P[6] = {poly[6]!r} differs from c = {payload['c']!r} "
                        f"by more than c_error = {payload['c_error']:.3e}")
    return problems
