"""Enumeration of torsor points under the lifted height conditions.

The height conditions |x_i| <= B pull back to exact integer inequalities on
the torsor coordinates, so the whole counter runs on integer arithmetic:

    xi^LAMBDA <= B                  (the x2 bound)
    |tau1| * xi^X3_EXPONENTS <= B   (the x3 bound)
    |tau2| * xi^X0_EXPONENTS <= B   (the x0 bound)
    |tauL| <= B                     (the x1 bound; tauL is solved for)

Three inner strategies share the same xi/tau1 nest, and the class count
serves a fourth use:

- the tau2 scan tries every tau2 with |tau2| <= B/x0_unit; it is the plain
  oracle, reached through ``count_torsor`` for the count and through
  ``_solutions(B, scheme, False)`` for the points, with no public knob.
- the class walk (``enumerate_points``, ``enumerate_torsor_points``,
  ``counts_upto`` and ``verify``) steps only through the admissible
  residues, the roots of tau2^2 * xi2 = -tau1^3 * xi1^2 * xi3 modulo
  fl = xiL^3 * xi4^2 * xi5, testing the two gcd conditions on each; it is
  the oracle for the count.  The walk and the class count take their
  (xi, tau1) visits from ``_visit_arrays``, int64 arrays over tau1 that
  read every visit's roots off one sorted table of the squares modulo fl
  (``_root_slices``).
- the class count (``count_torsor_fast``) counts each root class in its
  tau2 window without visiting its points, in one array pass per xi tuple
  (``_class_counts``): writing tau2 = r + fl*k, the k with p | tau2 or
  p | tauL are at most three residues mod each prime p of the partner
  products, held for every class of the xi tuple in one array, and
  inclusion-exclusion over their CRT classes runs on arrays of terms, one
  prime at a time (``_avoiding_counts``), to count the k that avoid them
  all.  tau2 enters only through tau2^2 and gcd(tau2, c2), and the roots r
  are closed under negation, so the count takes tau2 >= 0 only and doubles
  it, less tau2 = 0 once.  The class walk keeps both signs of tau2, as the
  count's independent oracle.
- the grid count (``count_torsor_grid``) is the class count at the largest
  height of a grid, which counts every smaller height in the same pass: a
  (xi, tau1) visit at B_max counts at B_j when x2 <= B_j and
  m3 * |tau1| <= B_j, and only its tau2 window shrinks with B_j, inside the
  larger windows, so each term counts its k in the windows of all heights
  at once, broadcast over a height axis.  ``count_torsor_fast`` runs the
  same pass on one height.

All must agree exactly, the class count with the class walk at every
(xi, tau1), the grid with the class count at every height; the brute surface
scan is the independent oracle for all.

Parallel counts deal the xi tuples round-robin to the workers, in the
canonical order of ``_xi_tuples``: a xi tuple's tau1/tau2 sums are
independent of every other tuple's, and summing the shard counts reproduces
the full count, so parallel runs are deterministic.
"""

import math
import time
from bisect import bisect_left
from itertools import islice
from multiprocessing import Pool
from typing import Iterable, Iterator

import numpy as np

from .arith import factorize
from .surface import CountReport, RationalPoint, _cumulative_counts, _height
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
    "count_torsor_grid",
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
    """Admissible xi-tuples (canonical order) with xi^LAMBDA <= B, as an iterator.

    Applies the xi conditions of the scheme incrementally.  Every count and
    enumeration starts here, so a negative B raises here, at the call.
    """
    sf, earlier, _ = _scheme_tables(scheme)
    sqfree = _squarefree_table(math.isqrt(_height(B)) + 1)
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

    return rec(0, 1) if B >= 1 else iter(())


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


def _tau2_windows(bfl, A, xi2, t2max):
    """The tau2 windows (lo, hi) at bfl = B * fl, elementwise over int64 arrays.

    |tauL| <= B, i.e. |tau2^2*xi2 + A| <= bfl, and the x0 bound
    |tau2| <= t2max hold iff lo <= |tau2| <= hi.  lo > hi when no tau2
    qualifies, and hi = -1 when A > bfl.  bfl + |A| must stay below 2^62.
    """
    num = bfl - A
    hi = np.where(num < 0, -1, np.minimum(_isqrt_array(np.maximum(num, 0) // xi2), t2max))
    c = np.maximum(-((bfl + A) // xi2), 0)  # ceil((-bfl - A) / xi2), at least 0
    lo = _isqrt_array(c)
    lo += lo * lo < c  # ceil(sqrt(c))
    return lo, hi


def _icbrt(n):
    """floor(n^(1/3)) for an integer n >= 0."""
    r = round(n ** (1 / 3))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def _isqrt_array(n):
    """floor(sqrt(n)) of each entry of an int64 array n with 0 <= n < 2^62.

    The float root is within 1 of the exact one there, and one exact int64
    step each way corrects it.
    """
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def _visit_arrays(B, xi2, fl, f1, c1, t1max, t2max):
    """(tau1, A, roots, first, last), int64 arrays over the tau1 with a tau2
    class to visit.

    A = tau1^3 * f1, and tauL is integral exactly for tau2 = r (mod fl) with
    r in roots[first[v]:last[v]], the square roots of -A / xi2 modulo fl,
    ascending.  tau1 runs 0, 1, 2, ... and then -1, -2, ...

    A visit has a tau2 window (``_tau2_windows``) with hi >= 0, i.e.
    A <= B*fl, and lo <= t2max, i.e. -A <= B*fl + t2max^2*xi2, so each sign
    of tau1 ends at an exact cube root, and |A| and the window numerators
    stay inside int64.  The roots come from one table of the squares modulo
    fl (``_root_slices``), with the targets -A / xi2 formed from tau1 mod fl,
    never from tau1^3.
    """
    bfl = B * fl
    a_max = bfl + t2max * t2max * xi2
    if a_max >= 1 << 62:  # |A| <= a_max, and B*fl - A, B*fl + A must fit in int64
        raise OverflowError(f"height B = {B} is too large for the int64 tau1 arrays")
    pos = min(t1max, _icbrt(bfl // f1))  # hi >= 0
    neg = min(t1max, _icbrt(a_max // f1))  # lo <= t2max
    t1 = np.concatenate((np.arange(pos + 1), -np.arange(1, neg + 1)))
    t1 = t1[np.gcd(t1, c1) == 1]
    u = t1 % fl
    targets = u * u % fl * u % fl * (-f1 * pow(xi2, -1, fl) % fl) % fl
    roots, first, last = _root_slices(targets, fl)
    keep = first < last
    t1 = t1[keep]
    return t1, t1 * t1 * t1 * f1, roots, first[keep], last[keep]


def _tau1_visits(B, xi2, fl, f1, c1, t1max, t2max):
    """Yield (tau1, A, roots, lo, hi) for each visit of ``_visit_arrays``, with
    its roots as a list and (lo, hi) its tau2 window at B."""
    t1, A, roots, first, last = _visit_arrays(B, xi2, fl, f1, c1, t1max, t2max)
    lo, hi = _tau2_windows(B * fl, A, xi2, t2max)
    roots = roots.tolist()
    for t, a, i, j, l, h in zip(*(x.tolist() for x in (t1, A, first, last, lo, hi))):
        yield t, a, roots[i:j], l, h


_SQUARE_CHUNK = 1 << 16  # residues squared at once by _root_slices


def _root_slices(targets, fl):
    """(roots, first, last), int64 arrays: roots[first[i]:last[i]] are the
    square roots of targets[i] modulo fl, ascending, for an int64 array of
    targets in [0, fl).

    Squares every r in [0, fl), a chunk at a time, and keeps the r whose
    square is a target, sorted stably by their square, so that each target's
    roots are one slice.  Besides the roots kept, only the targets' mask of
    fl bytes grows with fl.
    """
    wanted = np.zeros(fl, dtype=bool)
    wanted[targets] = True
    r, r_sq = [], []
    for start in range(0, fl, _SQUARE_CHUNK):
        chunk = np.arange(start, min(start + _SQUARE_CHUNK, fl), dtype=np.int64)
        squares = chunk * chunk % fl
        hit = wanted[squares]
        r.append(chunk[hit])
        r_sq.append(squares[hit])
    r, r_sq = np.concatenate(r), np.concatenate(r_sq)
    order = np.argsort(r_sq, kind="stable")
    r_sq = r_sq[order]
    return r[order], np.searchsorted(r_sq, targets, "left"), np.searchsorted(r_sq, targets, "right")


def _solutions(B, scheme, fast, xis=None):
    """Yield (xi, tau1, tau2, tauL, x2, x0_unit, x3_unit) for all solutions."""
    gcd = math.gcd
    for xi, x2, m0, m3, fl, f1, c1, c2, cl, t1max, t2max in _frames(B, scheme, xis):
        xi2 = xi[1]
        if fast:
            for t1, A, roots, lo, hi in _tau1_visits(B, xi2, fl, f1, c1, t1max, t2max):
                ivs = ((-hi, hi),) if lo == 0 else ((-hi, -lo), (lo, hi))
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


def _avoiding_counts(k_lo, k_hi, cls, bad):
    """(cls, n) over inclusion-exclusion terms: cls[t] is the class of term
    t and n[t, j] its signed count in column j.  Summed over the terms of a
    class c of the given cls, n[:, j] is the number of k in
    [k_lo[c, j], k_hi[c, j]] with k mod p outside the bad residues of c at
    p, for every p of bad.

    bad holds (p, res, holds) with res[c] the bad residues mod p of class c,
    distinct where they hold, and holds[c] the mask of those that do.  The
    window of column j lies inside the last column's, or is empty with
    k_hi = k_lo - 1.  Inclusion-exclusion runs on arrays of terms, one prime
    at a time: a term is the progression of k = first (mod step) from first
    on, step the product of the primes in its mask, and refining it by one
    bad residue of the next prime gives a term of the opposite sign.  first
    is the least such k in the last window, and a term whose first is above
    that window's top is dropped with all its refinements, so the terms stay
    near the number of nonempty classes.  Every term counts its k in every
    column at once.
    """
    top = k_hi[:, -1]
    first = k_lo[cls, -1]
    mask = np.zeros_like(cls)
    steps, signs = [1], [1]  # of each mask
    for i, (p, res, holds) in enumerate(bad):
        inv = np.array([pow(s, -1, p) for s in steps])[mask, None]
        step = np.array(steps)[mask, None]
        k = first[:, None] + step * ((res[cls] - first[:, None]) % p * inv % p)
        rows, cols = np.nonzero(holds[cls] & (k <= top[cls, None]))
        cls = np.concatenate((cls, cls[rows]))
        first = np.concatenate((first, k[rows, cols]))
        mask = np.concatenate((mask, mask[rows] + (1 << i)))
        steps += [s * p for s in steps]
        signs += [-s for s in signs]
    step, first = np.array(steps)[mask, None], first[:, None]
    n = (k_hi[cls] - first) // step - (k_lo[cls] - 1 - first) // step
    return cls, n * np.array(signs)[mask, None]


def _class_counts(hs, frame):
    """(tau1, ns) for one xi tuple's frame: ns[v, j] is the number of points
    of the visit (xi, tau1[v]) at the height hs[j].

    hs is an ascending int64 array of heights with x2 <= hs[0], and the
    frame's height is hs[-1].  Each root class r is counted without walking
    it, on tau2 >= 0 only: tau2 enters tauL through tau2^2 and the conditions
    through gcd(tau2, c2), and the roots are closed under negation, so the
    points with tau2 < 0 mirror those with tau2 > 0, and a visit has twice
    its classes' sum, less tau2 = 0 (class 0 at k = 0, its own mirror image)
    where it is in the window and a point.

    Writing tau2 = r + fl*k gives tauL = -(n0 + 2*r*xi2*k + fl*xi2*k^2) with
    n0 = (r^2*xi2 + A) / fl, so for every prime p of rad(c2*cl) the k with
    p | tau2 or p | tauL are at most three residues mod p, which
    ``_avoiding_counts`` leaves out of each class's k window at every height
    at once.  A class is dead where p divides every tau2 or every tauL of it
    or of its visit.  For p not dividing fl, k -> tau2 is onto mod p, and the
    bad tau2 residues (0, and the roots of tau2^2*xi2 + A, off a table of the
    squares mod p) are found per visit.  tau2 = 0 and tauL = 0 fall in every
    bad set, as gcd(0, c) = c demands.  The int64 arithmetic is exact while
    the product of the primes times the largest, and fl*p*xi2 for each
    p | fl, stay below 2^62; otherwise OverflowError.
    """
    xi, _, m0, m3, fl, f1, c1, c2, cl, t1max, t2max = frame
    B, xi2 = int(hs[-1]), xi[1]
    primes = [p for p, _ in factorize(c2 * cl)]
    big = math.prod(primes) * max(primes, default=1) >= 1 << 62
    if big or any(fl * p * xi2 >= 1 << 62 for p in primes if fl % p == 0):
        raise OverflowError(f"height B = {B} is too large for the int64 class arrays")
    t1, A, roots, first, last = _visit_arrays(B, xi2, fl, f1, c1, t1max, t2max)
    # class c has root r[c] and visit vis[c]; the classes of a visit are contiguous
    size = last - first
    vis = np.repeat(np.arange(t1.size), size)
    r = roots[np.arange(vis.size) + np.repeat(first - np.cumsum(size) + size, size)]
    lo, hi = _tau2_windows(fl * hs, A[:, None], xi2, hs // m0)
    empty = (lo > hi) | (m3 * np.abs(t1)[:, None] > hs)  # or the x3 bound fails
    lo[empty], hi[empty] = 1, 0  # an empty k window, k_hi = k_lo - 1, in every class
    k_lo = -((r[:, None] - lo[vis]) // fl)  # ceil((lo - r) / fl)
    k_hi = (hi[vis] - r[:, None]) // fl
    alive = k_lo[:, -1] <= k_hi[:, -1]
    bad = []  # (p, each class's bad k residues mod p, the mask of those that hold)
    for p in primes:
        in_c2, in_cl = c2 % p == 0, cl % p == 0
        if fl % p:  # free: the bad tau2 residues of each visit
            res = [np.zeros((t1.size, 1), np.int64)] if in_c2 else []
            if in_cl and xi2 % p:  # p | tauL iff tau2^2 = A*m with m = -1/xi2 mod p
                s = np.arange(p)
                roots_p = np.full((p, 2), -1)
                roots_p[s * s % p, (2 * s > p).astype(np.int64)] = s
                res.append(roots_p[A % p * (-pow(xi2, -1, p) % p) % p])
                if in_c2:
                    res[-1][res[-1] == 0] = -1  # 0 is in the set already
            elif in_cl:  # p | xi2: p divides every tauL of the visit or none
                alive &= (A % p != 0)[vis]
            if res:
                res = np.concatenate(res, axis=1)[vis]
                bad.append((p, (res - r[:, None]) % p * pow(fl, -1, p) % p, res >= 0))
        else:  # tied: p | tau2 iff p | r, and tauL = -(n0 + b*k) mod p
            if in_c2:
                alive &= r % p != 0
            if in_cl:
                b = r * (2 * xi2 % p) % p
                M = fl * p
                n0 = (r * r % M * xi2 + A[vis]) % M // fl  # n0 mod p
                alive &= (b != 0) | (n0 != 0)
                inv = np.array([pow(x, -1, p) if x else 0 for x in range(p)])  # p <= B^(1/3)
                bad.append((p, (-n0 * inv[b] % p)[:, None], (b != 0)[:, None]))
    cls, n = _avoiding_counts(k_lo, k_hi, np.flatnonzero(alive), bad)
    ns = np.zeros((t1.size, hs.size), np.int64)
    np.add.at(ns, vis[cls], n)
    ns *= 2  # class -r at tau2 <= 0 mirrors class r at tau2 >= 0
    if c2 == 1:  # tau2 = 0 is a point where tauL = -A/fl is prime to cl
        ns -= ((A % fl == 0) & (np.gcd(A // fl, cl) == 1))[:, None] & (lo == 0)
    return t1, ns


def _grid_class_counts(Bs, scheme, xis=None):
    """Yield (xi, tau1, ns) for each xi tuple at B = Bs[-1], Bs a sorted
    tuple of distinct heights.

    ns[v, j] is the number of points of the visit (xi, tau1[v]) at the
    height Bs[len(Bs) - ns.shape[1] + j]: the columns are the heights with
    x2 <= Bj, and the xi tuple has no points below them (``_class_counts``).
    """
    heights = np.array(Bs, dtype=np.int64)
    for frame in _frames(Bs[-1], scheme, xis):
        yield (frame[0], *_class_counts(heights[bisect_left(Bs, frame[1]):], frame))


def _count_part(args):
    """Points of every parts-th xi tuple, from the part-th on."""
    B, fast, parts, part, scheme = args
    xis = islice(_xi_tuples(B, scheme), part, None, parts)
    if fast:
        return int(sum(ns.sum() for _, _, ns in _grid_class_counts((B,), scheme, xis)))
    return sum(1 for _ in _solutions(B, scheme, False, xis))


def _grid_part(args):
    """Points at each height of Bs of every parts-th xi tuple, from the part-th on."""
    Bs, parts, part, scheme = args
    xis = islice(_xi_tuples(Bs[-1], scheme), part, None, parts)
    counts = np.zeros(len(Bs), np.int64)
    for _, _, ns in _grid_class_counts(Bs, scheme, xis):
        counts[len(Bs) - ns.shape[1]:] += ns.sum(axis=0)
    return tuple(counts.tolist())


def _sharded(worker, job, threads):
    """([worker(job(parts, part)) for part in range(parts)], parts), parts = threads.

    With more than one part, the parts run on one pool of that many processes.
    """
    parts = max(1, int(threads))
    jobs = [job(parts, part) for part in range(parts)]
    if parts == 1:
        return [worker(jobs[0])], 1
    with Pool(parts) as pool:
        return pool.map(worker, jobs), parts


def _count(B, fast, threads, scheme):
    _height(B)  # raise before any worker starts
    partial, shards = _sharded(
        _count_part, lambda parts, part: (B, fast, parts, part, scheme), threads
    )
    return sum(partial), shards


def count_torsor(B: int, threads: int = 1, scheme: CoprimalityScheme = T1_SCHEME) -> CountReport:
    """Exact N(B) by torsor enumeration with a scanned tau2 loop."""
    t0 = time.perf_counter()
    n, shards = _count(B, False, threads, scheme)
    return CountReport(B, n, "torsor", time.perf_counter() - t0, shards)


def count_torsor_fast(B: int, threads: int = 1, scheme: CoprimalityScheme = T1_SCHEME) -> CountReport:
    """Exact N(B) counting each admissible tau2 class without visiting its points."""
    t0 = time.perf_counter()
    n, shards = _count(B, True, threads, scheme)
    return CountReport(B, n, "fast", time.perf_counter() - t0, shards)


def count_torsor_grid(
    heights: Iterable[int], threads: int = 1, scheme: CoprimalityScheme = T1_SCHEME
) -> list[CountReport]:
    """Exact N(B) for every B of heights, from one class-count pass at max(heights).

    heights may come in any order and repeat; there is one report per entry,
    in the order given, each as ``count_torsor_fast`` would give it.  All
    reports of a call share one pass: elapsed_s is the wall time of the
    whole pass and parts its number of worker processes.
    """
    t0 = time.perf_counter()
    heights = [_height(B) for B in heights]
    if not heights:
        return []
    Bs = tuple(sorted(set(heights)))
    partial, shards = _sharded(
        _grid_part, lambda parts, part: (Bs, parts, part, scheme), threads
    )
    counts = dict(zip(Bs, map(sum, zip(*partial))))
    elapsed = time.perf_counter() - t0
    return [CountReport(B, counts[B], "fast", elapsed, shards) for B in heights]


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
