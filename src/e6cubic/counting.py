"""Enumeration of torsor points under the lifted height conditions.

The height conditions |x_i| <= B pull back to exact integer inequalities on
the torsor coordinates, so the whole counter runs on integer arithmetic:

    xi^LAMBDA <= B                  (the x2 bound)
    |tau1| * xi^X3_EXPONENTS <= B   (the x3 bound)
    |tau2| * xi^X0_EXPONENTS <= B   (the x0 bound)
    |tauL| <= B                     (the x1 bound; tauL is solved for)

Three inner strategies share the same xi/tau1 nest:

- the tau2 scan tries every tau2 with |tau2| <= B/x0_unit; it is the plain
  oracle, reached through ``count_torsor`` for the count and through
  ``_solutions(B, scheme, False)`` for the points, with no public knob.
- the class walk (``enumerate_points``, ``enumerate_torsor_points``,
  ``counts_upto`` and ``verify``) solves
  tau2^2 * xi2 = -tau1^3 * xi1^2 * xi3 modulo fl = xiL^3 * xi4^2 * xi5 with
  modular square roots and steps only through the admissible residues,
  testing the two gcd conditions on each; it is the oracle for the count.
- the class count (``count_torsor_fast``) counts each root class in its
  tau2 interval without visiting its points: writing tau2 = r + fl*k, the k
  with p | tau2 or p | tauL are a few residues mod each prime p of the
  partner products, and inclusion-exclusion over their CRT classes counts
  the k that avoid them all.

All three must agree exactly, the class count with the class walk at every
(xi, tau1); the brute surface scan is the independent oracle for all.

Parallel counts deal the xi tuples round-robin to the workers, in the
canonical order of ``_xi_tuples``: a xi tuple's tau1/tau2 sums are
independent of every other tuple's, and summing the shard counts reproduces
the full count, so parallel runs are deterministic.
"""

import math
import time
from itertools import islice
from multiprocessing import Pool
from typing import Iterator

from .arith import _prime_power_roots, _sqrt_mod_factored, factorize
from .surface import CountReport, RationalPoint, _cumulative_counts
from .torsor import (
    F1_EXPONENTS,
    FL_EXPONENTS,
    LAMBDA,
    T1_SCHEME,
    TAU_NAMES,
    X0_EXPONENTS,
    X3_EXPONENTS,
    XI_NAMES,
    CoprimalityScheme,
    TorsorPoint,
    monomial,
)

__all__ = [
    "count_torsor",
    "count_torsor_fast",
    "enumerate_points",
    "enumerate_torsor_points",
    "counts_upto",
]

# Loop nest order: largest lambda exponent outermost, xi1 innermost.
_LOOP_ORDER = (6, 5, 4, 3, 2, 1, 0)  # indices into XI_NAMES / LAMBDA


def _squarefree_table(limit):
    flags = bytearray([1]) * (limit + 1)
    d = 2
    while d * d <= limit:
        flags[d * d :: d * d] = bytearray(len(range(d * d, limit + 1, d * d)))
        d += 1
    return flags


def _scheme_tables(scheme):
    """Precompute per-level filters for the xi nest and tau partner sets."""
    for a, b in scheme.pairs:
        if a in TAU_NAMES and b in TAU_NAMES:
            raise NotImplementedError("tau-tau coprimality is not supported")
    if any(name in TAU_NAMES for name in scheme.squarefree):
        raise NotImplementedError("squarefree taus are not supported")
    sf = [XI_NAMES[i] in scheme.squarefree for i in _LOOP_ORDER]
    earlier = []
    for pos, i in enumerate(_LOOP_ORDER):
        checks = []
        for prev in range(pos):
            j = _LOOP_ORDER[prev]
            if scheme.requires_coprime(XI_NAMES[i], XI_NAMES[j]):
                checks.append(prev)
        earlier.append(tuple(checks))
    # 0/1 exponent vectors: monomial(xi, partners) is the product of the xi's
    # a tau must be coprime to
    tau_partners = []
    for tau in TAU_NAMES:
        names = scheme.coprime_partners(tau)
        tau_partners.append(tuple(int(n in names) for n in XI_NAMES))
    return sf, earlier, tau_partners


def _xi_tuples(B, scheme):
    """Yield admissible xi-tuples (canonical order) with xi^LAMBDA <= B.

    Applies the xi conditions of the scheme incrementally.
    """
    sf, earlier, _ = _scheme_tables(scheme)
    sqfree = _squarefree_table(math.isqrt(B) + 1)
    exps = tuple(LAMBDA[i] for i in _LOOP_ORDER)
    vals = [1] * 7  # in loop order
    gcd = math.gcd

    def rec(level, mono):
        if level == 7:
            yield (vals[6], vals[5], vals[4], vals[3], vals[2], vals[1], vals[0])
            return
        e = exps[level]
        checks = earlier[level]
        squarefree_needed = sf[level]
        v = 1
        while True:
            m = mono * v**e
            if m > B:
                break
            if (not squarefree_needed or sqfree[v]) and all(
                gcd(v, vals[j]) == 1 for j in checks
            ):
                vals[level] = v
                yield from rec(level + 1, m)
            v += 1

    if B >= 1:
        yield from rec(0, 1)


def _frames(B, scheme, xis=None):
    """Yield, per xi tuple of xis (default: all), the data of its tau loops.

    (xi, x2, x0_unit, x3_unit, fl, f1, c1, c2, cl, tau1_max, tau2_max), where
    fl and f1 are the coefficients of tauL and tau1^3 in the equation and
    c1, c2, cl the products of the xi's that tau1, tau2, tauL must be
    coprime to.
    """
    _, _, (e1, e2, el) = _scheme_tables(scheme)
    for xi in _xi_tuples(B, scheme) if xis is None else xis:
        m0 = monomial(xi, X0_EXPONENTS)
        m3 = monomial(xi, X3_EXPONENTS)
        yield (
            xi, monomial(xi, LAMBDA), m0, m3,
            monomial(xi, FL_EXPONENTS), monomial(xi, F1_EXPONENTS),
            monomial(xi, e1), monomial(xi, e2), monomial(xi, el),
            B // m3, B // m0,
        )


def _tau1_visits(B, xi2, fl, f1, c1, t1max, t2max):
    """Yield (tau1, A, roots, intervals) for the tau1 with a tau2 class to visit.

    A = tau1^3 * f1; the tau2 with |tauL| <= B and |tau2| <= tau2_max lie in
    the intervals, and tauL is integral exactly for tau2 = r (mod fl) with r
    in roots, the square roots of -A / xi2 modulo fl.
    """
    gcd = math.gcd
    isqrt = math.isqrt
    bfl = B * fl
    fl_factors = factorize(fl) if fl > 1 else []
    inv2 = pow(xi2, -1, fl)
    root_cache = {}
    for run in (range(0, t1max + 1), range(-1, -t1max - 1, -1)):
        for t1 in run:
            if gcd(t1, c1) != 1:
                continue
            # tau2 window from |tauL| <= B, i.e. |tau2^2*xi2 + A| <= B*fl,
            # intersected with |tau2| <= t2max
            A = t1 * t1 * t1 * f1
            hi_num = bfl - A
            if hi_num < 0:
                break  # stays negative for all larger t1
            lo_num = -bfl - A
            if lo_num > 0:
                lo_sq = -((-lo_num) // xi2)  # ceil(lo_num / xi2)
                lo = isqrt(lo_sq - 1) + 1
            else:
                lo = 0
            if lo > t2max:
                break  # window above the x0 bound for good (monotone in |t1|)
            hi = min(t2max, isqrt(hi_num // xi2))
            if lo > hi:
                continue
            target = (-A * inv2) % fl
            roots = root_cache.get(target)
            if roots is None:
                roots = _sqrt_mod_factored(target, fl, fl_factors)
                root_cache[target] = roots
            if roots:
                ivs = ((-hi, hi),) if lo == 0 else ((-hi, -lo), (lo, hi))
                yield t1, A, roots, ivs


def _solutions(B, scheme, fast, xis=None):
    """Yield (xi, tau1, tau2, tauL, x2, x0_unit, x3_unit) for all solutions."""
    gcd = math.gcd
    for xi, x2, m0, m3, fl, f1, c1, c2, cl, t1max, t2max in _frames(B, scheme, xis):
        xi2 = xi[1]
        if fast:
            for t1, A, roots, ivs in _tau1_visits(B, xi2, fl, f1, c1, t1max, t2max):
                for r in roots:
                    for a_lo, a_hi in ivs:
                        start = a_lo + ((r - a_lo) % fl)
                        for t2 in range(start, a_hi + 1, fl):
                            tl = -((t2 * t2 * xi2 + A) // fl)
                            if gcd(t2, c2) == 1 and gcd(tl, cl) == 1:
                                yield (xi, t1, t2, tl, x2, m0, m3)
        else:
            for t1 in range(-t1max, t1max + 1):
                if gcd(t1, c1) != 1:
                    continue
                A = t1 * t1 * t1 * f1
                for t2 in range(-t2max, t2max + 1):
                    num = t2 * t2 * xi2 + A
                    tl, rem = divmod(num, fl)
                    if rem:
                        continue
                    tl = -tl
                    if tl < -B or tl > B:
                        continue
                    if gcd(t2, c2) == 1 and gcd(tl, cl) == 1:
                        yield (xi, t1, t2, tl, x2, m0, m3)


def _count_avoiding(lo, hi, bad):
    """Number of k in [lo, hi] with k mod p outside S for every (p, S) in bad.

    Inclusion-exclusion over the CRT classes of the bad residues: a term is
    an arithmetic progression (first k, step) inside [lo, hi] with a sign;
    refining it by one bad residue of the next prime gives a term of the
    opposite sign.  An empty term is dropped together with all its
    refinements, so the work stays near the number of nonempty classes.
    """
    total = hi - lo + 1
    if total <= 0:
        return 0
    terms = [(lo, 1, 1)]
    for p, residues in bad:
        refined = []
        for first, step, sign in terms:
            inv = pow(step, -1, p)
            step_p = step * p
            for s in residues:
                k = first + step * ((s - first) * inv % p)
                if k <= hi:
                    total -= sign * ((hi - k) // step_p + 1)
                    refined.append((k, step_p, -sign))
        terms += refined
    return total


def _class_counts(B, scheme, xis=None):
    """Yield (xi, tau1, n) for each (xi, tau1) visit, n its number of points.

    Counts each (root r, tau2 interval) class without walking it.  Writing
    tau2 = r + fl*k gives tauL = -(n0 + 2*r*xi2*k + fl*xi2*k^2) with
    n0 = (r^2*xi2 + A) / fl, so for every prime p of rad(c2*cl) the k with
    p | tau2 or p | tauL form a few residues mod p, and _count_avoiding
    counts the k left in the interval.  For p not dividing fl, k -> tau2 is
    a bijection mod p, and the bad tau2 residues (0, and the roots of
    tau2^2*xi2 + A) are found once per visit.  tau2 = 0 and tauL = 0 fall in
    every bad set, as gcd(0, c) = c demands.
    """
    _, _, (_, e2, el) = _scheme_tables(scheme)
    prime_cache = {}

    def primes_of(v):
        ps = prime_cache.get(v)
        if ps is None:
            ps = prime_cache[v] = tuple(p for p, _ in factorize(v)) if v > 1 else ()
        return ps

    for xi, _, _, _, fl, f1, c1, _, _, t1max, t2max in _frames(B, scheme, xis):
        xi2 = xi[1]
        flags = {}  # p -> (p | c2, p | cl)
        for i, v in enumerate(xi):
            if e2[i] or el[i]:
                for p in primes_of(v):
                    in_c2, in_cl = flags.get(p, (False, False))
                    flags[p] = (in_c2 or e2[i] == 1, in_cl or el[i] == 1)
        # free: p does not divide fl, and k -> tau2 is onto mod p;
        # tied: p | fl, so p | tau2 iff p | r, and tauL = n0 + 2*r*xi2*k mod p
        free, tied = [], []
        for p, (in_c2, in_cl) in flags.items():
            if fl % p:
                # m = -1/xi2 mod p, so p | tauL iff tau2^2 = A*m; None if p | xi2
                m = -pow(xi2, -1, p) % p if xi2 % p else None
                free.append((p, in_c2, in_cl, m, pow(fl, -1, p)))
            else:
                tied.append((p, in_c2, in_cl, 2 * xi2 % p))
        for t1, A, roots, ivs in _tau1_visits(B, xi2, fl, f1, c1, t1max, t2max):
            n = 0
            tau2_bad = []
            for p, in_c2, in_cl, m, fl_inv in free:
                res = [0] if in_c2 else []
                if in_cl:
                    if m is None:
                        if A % p == 0:
                            break  # p divides every tauL
                    else:
                        res += [s for s in _prime_power_roots(A * m, p, 1) if s not in res]
                if len(res) == p:
                    break  # every tau2 is bad mod p: no points at this visit
                if res:
                    tau2_bad.append((p, fl_inv, res))
            else:
                for r in roots:
                    bad = [(p, [(s - r) * fl_inv % p for s in res]) for p, fl_inv, res in tau2_bad]
                    n0 = (r * r * xi2 + A) // fl
                    for p, in_c2, in_cl, two_xi2 in tied:
                        if in_c2 and r % p == 0:
                            break  # p divides every tau2 of the class
                        if in_cl:
                            b = r * two_xi2 % p
                            if b:
                                bad.append((p, (-n0 * pow(b, -1, p) % p,)))
                            elif n0 % p == 0:
                                break  # p divides every tauL of the class
                    else:
                        for a_lo, a_hi in ivs:
                            n += _count_avoiding(-((r - a_lo) // fl), (a_hi - r) // fl, bad)
            yield xi, t1, n


def _count_part(args):
    """Points of every parts-th xi tuple, from the part-th on."""
    B, fast, parts, part, scheme = args
    xis = islice(_xi_tuples(B, scheme), part, None, parts)
    if fast:
        return sum(n for _, _, n in _class_counts(B, scheme, xis))
    return sum(1 for _ in _solutions(B, scheme, False, xis))


def _count(B, fast, threads, scheme):
    if B < 0:
        raise ValueError("height bound must be non-negative")
    threads = max(1, int(threads))
    if threads == 1:
        return _count_part((B, fast, 1, 0, scheme)), 1
    jobs = [(B, fast, threads, p, scheme) for p in range(threads)]
    with Pool(threads) as pool:
        partial = pool.map(_count_part, jobs)
    return sum(partial), threads


def count_torsor(B: int, threads: int = 1, scheme: CoprimalityScheme = T1_SCHEME) -> CountReport:
    """Exact N(B) by torsor enumeration with a scanned tau2 loop."""
    t0 = time.perf_counter()
    n, shards = _count(B, False, threads, scheme)
    return CountReport(B, n, "torsor", time.perf_counter() - t0, shards)


def count_torsor_fast(B: int, threads: int = 1, scheme: CoprimalityScheme = T1_SCHEME) -> CountReport:
    """Exact N(B) stepping tau2 through admissible congruence classes."""
    t0 = time.perf_counter()
    n, shards = _count(B, True, threads, scheme)
    return CountReport(B, n, "fast", time.perf_counter() - t0, shards)


def enumerate_torsor_points(B: int, scheme: CoprimalityScheme = T1_SCHEME) -> Iterator[TorsorPoint]:
    """All torsor points meeting the scheme and height conditions at B."""
    for xi, t1, t2, tl, _, _, _ in _solutions(B, scheme, True):
        yield TorsorPoint(*xi, t1, t2, tl)


def enumerate_points(B: int, scheme: CoprimalityScheme = T1_SCHEME) -> Iterator[RationalPoint]:
    """Surface points of height <= B as psi-images, each exactly once."""
    for _, t1, t2, tl, x2, m0, m3 in _solutions(B, scheme, True):
        yield RationalPoint(m0 * t2, tl, x2, m3 * t1)


def counts_upto(Bmax: int, scheme: CoprimalityScheme = T1_SCHEME) -> list[int]:
    """N(B) for every B in [0, Bmax] from a single enumeration at Bmax."""
    heights = (
        max(x2, m0 * abs(t2), m3 * abs(t1), abs(tl))
        for _, t1, t2, tl, x2, m0, m3 in _solutions(Bmax, scheme, True)
    )
    return _cumulative_counts(heights, Bmax)
