"""Executable verification of the structural claims behind the counter.

Each property runs as a batch of concrete checks and reports how many were
run and how many failed.  The CLI's ``verify`` command and the acceptance
tests both drive this module.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith, counting, surface, torsor

__all__ = ["PropertyResult", "run_suite"]

# the eta bound is checked over the odd moduli up to this one
_ETA_QMAX = 2001


@dataclass(frozen=True)
class PropertyResult:
    name: str
    checks: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        """No check failed, and at least one ran: an empty batch proves nothing."""
        return self.checks > 0 and self.failures == 0


def _bijection_checks(B):
    """psi/lift/phi round trips over every torsor point enumerated at B."""
    brute = set(surface.brute_points(B))
    images = []
    checks = failures = 0
    notes = []
    for t1_point in counting.enumerate_torsor_points(B):
        x = torsor.psi(t1_point)
        images.append(x)
        t2_point = torsor.phi(t1_point)
        checks += 4
        if torsor.psi(t2_point) != x:
            failures += 1
            notes.append(f"psi not phi-invariant at {t1_point}")
        if not torsor.satisfies_scheme(t2_point, torsor.T2_SCHEME):
            failures += 1
            notes.append(f"phi image violates T2 at {t1_point}")
        if torsor.phi_prime(t2_point) != t1_point:
            failures += 1
            notes.append(f"phi_prime(phi(t)) != t at {t1_point}")
        if torsor.lift(x) != t2_point:
            failures += 1
            notes.append(f"lift(psi(t)) mismatch at {t1_point}")
    image_set = set(images)
    checks += 2
    if len(image_set) != len(images):
        failures += 1
        notes.append("duplicate psi-images in the enumeration")
    if image_set != brute:
        failures += 1
        notes.append(
            f"enumerated {len(image_set)} points, brute scan {len(brute)}"
        )
    # lift already runs on every enumerated image above; also check the
    # brute points directly so the two sides are tied together explicitly
    for x in brute:
        checks += 1
        if torsor.psi(torsor.lift(x)) != x:
            failures += 1
            notes.append(f"psi(lift(x)) != x at {x}")
    return checks, failures, "; ".join(notes[:4])


def _case_grid_checks(grid):
    """Exactly one transport case fires per tuple; maps invert on valid ones."""
    checks = failures = 0
    notes = []
    rng = range(grid + 1)
    for n1 in rng:
        for n3 in rng:
            for n6 in rng:
                for m1 in rng:
                    checks += 2
                    if len(torsor.phi_matching_cases(n1, n3, n6, m1)) != 1:
                        failures += 1
                        notes.append(f"phi cases at {(n1, n3, n6, m1)}")
                    if len(torsor.phi_prime_matching_cases(n1, n3, n6, m1)) != 1:
                        failures += 1
                        notes.append(f"phi_prime cases at {(n1, n3, n6, m1)}")
                    # T1-valid: xi3 squarefree, tau1 coprime to xi3 and xi6
                    if n3 <= 1 and (m1 == 0 or (n3 == 0 and n6 == 0)):
                        checks += 1
                        out = torsor.phi_exponents(n1, n3, n6, m1)
                        if torsor.phi_prime_exponents(*out) != (n1, n3, n6, m1):
                            failures += 1
                            notes.append(f"phi round trip at {(n1, n3, n6, m1)}")
                    # T2-valid: xi1, xi3 squarefree and coprime
                    if n1 + n3 <= 1:
                        checks += 1
                        out = torsor.phi_prime_exponents(n1, n3, n6, m1)
                        if torsor.phi_exponents(*out) != (n1, n3, n6, m1):
                            failures += 1
                            notes.append(f"phi_prime round trip at {(n1, n3, n6, m1)}")
    return checks, failures, "; ".join(notes[:4])


def _congruence_checks(samples, seed):
    """Exact interval-count decomposition on random instances."""
    rng = random.Random(seed)
    checks = failures = 0
    notes = []
    for _ in range(samples):
        q = rng.randrange(1, 3000)
        while True:
            a = rng.randrange(-3 * q, 3 * q + 1)
            if math.gcd(a, q) == 1:
                break
        b1 = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 50))
        b2 = b1 + Fraction(rng.randrange(0, 10**6), rng.randrange(1, 50))
        res = arith.count_congruence_interval(b1, b2, a, q)
        checks += 1
        if Fraction(res.exact_count) != res.main_term + res.remainder:
            failures += 1
            notes.append(f"identity fails at {(b1, b2, a, q)}")
    return checks, failures, "; ".join(notes[:4])


def _eta_bound_checks(qmax):
    """eta(a; q) <= 2^omega(q) over odd q <= qmax, gcd(a, q) = 1."""
    checks = failures = 0
    notes = []
    for q in range(1, qmax + 1, 2):
        n = np.arange(1, q + 1, dtype=np.int64)
        counts = np.bincount((n * n) % q, minlength=q)
        coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
        worst = int(counts[coprime].max()) if coprime.any() else 0
        bound = 2 ** arith.omega_distinct(q)
        checks += 1
        if worst > bound:
            failures += 1
            notes.append(f"eta bound fails at q={q}: {worst} > {bound}")
    return checks, failures, "; ".join(notes[:4])


def run_suite(
    B: int = 200,
    seed: int = 0,
    congruence_samples: int = 10_000,
    grid: int = 12,
) -> list[PropertyResult]:
    """Run all verification properties; every failure count should be zero."""
    out = []
    c, f, d = _bijection_checks(B)
    out.append(PropertyResult("bijection_round_trips", c, f, d))
    c, f, d = _case_grid_checks(grid)
    out.append(PropertyResult("case_analysis_grid", c, f, d))
    c, f, d = _congruence_checks(congruence_samples, seed)
    out.append(PropertyResult("congruence_identities", c, f, d))
    c, f, d = _eta_bound_checks(_ETA_QMAX)
    out.append(PropertyResult("eta_bound_odd_moduli", c, f, d))
    return out

