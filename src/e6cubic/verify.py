"""Executable verification of the structural claims behind the counter.

Each property yields one outcome per concrete check, None on a pass and a
note on a failure; ``_tally`` reports how many checks ran, how many failed
and the first notes.  The CLI's ``verify`` command and the acceptance tests
both drive this module.
"""

import functools
import itertools
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


def _tally(prop):
    """prop, a generator of one outcome per check (None on a pass, a note on
    a failure), as a function giving (checks, failures, detail); detail
    joins the first four notes."""

    @functools.wraps(prop)
    def tally(*args):
        outcomes = list(prop(*args))
        notes = [note for note in outcomes if note is not None]
        return len(outcomes), len(notes), "; ".join(notes[:4])

    return tally


@_tally
def _bijection_checks(B):
    """psi/lift/phi round trips at B, tied to the brute points: these reuse the
    walk's lifts where it settled psi(lift(x)) == x, and are lifted otherwise."""
    brute = set(surface.brute_points(B))
    back, images = {}, 0  # image x -> psi(lift(x)) == x is known; the number of images
    for t in counting.enumerate_torsor_points(B):
        x = torsor.psi(t)
        images += 1
        t2 = torsor.phi(t)
        y = torsor.psi(t2)
        yield None if y == x else f"psi not phi-invariant at {t}"
        in_t2 = torsor.satisfies_scheme(t2, torsor.T2_SCHEME)
        yield None if in_t2 else f"phi image violates T2 at {t}"
        yield None if torsor.phi_prime(t2) == t else f"phi_prime(phi(t)) != t at {t}"
        lifted = torsor.lift(x)
        yield None if lifted == t2 else f"lift(psi(t)) mismatch at {t}"
        back[x] = lifted == t2 and y == x
    yield None if len(back) == images else "duplicate psi-images in the enumeration"
    yield None if back.keys() == brute else (
        f"enumerated {len(back)} points, brute scan {len(brute)}"
    )
    for x in brute:
        ok = back.get(x) or torsor.psi(torsor.lift(x)) == x
        yield None if ok else f"psi(lift(x)) != x at {x}"


@_tally
def _case_grid_checks(grid):
    """Exactly one transport case fires per tuple; maps invert on valid ones."""
    for n in itertools.product(range(grid + 1), repeat=4):
        n1, n3, n6, m1 = n
        yield None if len(torsor.phi_matching_cases(*n)) == 1 else f"phi cases at {n}"
        yield None if len(torsor.phi_prime_matching_cases(*n)) == 1 else f"phi_prime cases at {n}"
        # T1-valid: xi3 squarefree, tau1 coprime to xi3 and xi6
        if n3 <= 1 and (m1 == 0 or (n3 == 0 and n6 == 0)):
            ok = torsor.phi_prime_exponents(*torsor.phi_exponents(*n)) == n
            yield None if ok else f"phi round trip at {n}"
        # T2-valid: xi1, xi3 squarefree and coprime
        if n1 + n3 <= 1:
            ok = torsor.phi_exponents(*torsor.phi_prime_exponents(*n)) == n
            yield None if ok else f"phi_prime round trip at {n}"


@_tally
def _congruence_checks(samples, seed):
    """Exact interval-count decomposition on random instances."""
    rng = random.Random(seed)
    for _ in range(samples):
        q = rng.randrange(1, 3000)
        while True:
            a = rng.randrange(-3 * q, 3 * q + 1)
            if math.gcd(a, q) == 1:
                break
        n1, d1 = rng.randrange(-10**6, 10**6), rng.randrange(1, 50)
        m, d2 = rng.randrange(0, 10**6), rng.randrange(1, 50)
        b1, b2 = Fraction(n1, d1), Fraction(n1 * d2 + m * d1, d1 * d2)  # b2 = b1 + m/d2
        res = arith.count_congruence_interval(b1, b2, a, q)
        ok = res.main_term + res.remainder == res.exact_count
        yield None if ok else f"identity fails at {(b1, b2, a, q)}"


def _eta_worst(qs):
    """(q, max over gcd(a, q) = 1 of eta(a; q)) for each odd q of qs.  Blocks of
    consecutive moduli hold at most counting._BATCH residues, as
    ``counting._batches`` packs them (a larger q is alone); q's row there
    tallies the squares of 0..q-1 in one bincount, less the multiples of q's
    primes, and one maximum.reduceat takes each row's worst.  A block of 2^16
    residues raised verify's peak RSS."""
    worst = []
    for block in counting._batches((q, q, 1) for q in qs):
        sizes = np.array(block, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        row = np.repeat(starts, sizes)  # each slot's row start
        r = np.arange(row.size) - row  # and its residue
        counts = np.bincount(r * r % np.repeat(sizes, sizes) + row, minlength=row.size)
        unit = np.ones(row.size, dtype=bool)
        for start, q in zip(starts.tolist(), block):
            for p, _ in arith.factorize(q):
                unit[start : start + q : p] = False
        worst += zip(block, np.maximum.reduceat(counts * unit, starts).tolist())
    return worst


@_tally
def _eta_bound_checks(qmax):
    """eta(a; q) <= 2^omega(q) over odd q <= qmax, gcd(a, q) = 1 (see _eta_worst)."""
    for q, worst in _eta_worst(range(1, qmax + 1, 2)):
        bound = 2 ** arith.omega_distinct(q)
        yield None if worst <= bound else f"eta bound fails at q={q}: {worst} > {bound}"


def run_suite(
    B: int = 200,
    seed: int = 0,
    congruence_samples: int = 10_000,
    grid: int = 12,
) -> list[PropertyResult]:
    """Run all verification properties; every failure count should be zero."""
    properties = (
        ("bijection_round_trips", _bijection_checks, (B,)),
        ("case_analysis_grid", _case_grid_checks, (grid,)),
        ("congruence_identities", _congruence_checks, (congruence_samples, seed)),
        ("eta_bound_odd_moduli", _eta_bound_checks, (_ETA_QMAX,)),
    )
    return [PropertyResult(name, *prop(*args)) for name, prop, args in properties]
