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
  (xi, tau1) visits from ``_tau1_visits``, which reads every visit's roots
  off one sorted table of the squares modulo fl (``_root_slices``); the
  class count reads its roots modulo a prime off such a table too.
- the class count (``count_torsor_fast``) counts each root class in its
  tau2 interval without visiting its points: writing tau2 = r + fl*k, the k
  with p | tau2 or p | tauL are a few residues mod each prime p of the
  partner products, and inclusion-exclusion over their CRT classes counts
  the k that avoid them all.  tau2 enters only through tau2^2 and
  gcd(tau2, c2), and the roots r are closed under negation, so the count
  takes tau2 >= 0 only and doubles it, less tau2 = 0 once.  The class walk
  keeps both signs of tau2, as the count's independent oracle.
- the grid count (``count_torsor_grid``) is the class count at the largest
  height of a grid, which counts every smaller height on the way: a
  (xi, tau1) visit at B_max counts at B_j when x2 <= B_j and
  m3 * |tau1| <= B_j, and only its tau2 window shrinks with B_j, so the
  inclusion-exclusion terms of a class serve every height.  There is one
  class-count loop, over a sorted tuple of heights; ``count_torsor_fast``
  runs it on one height.

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
from itertools import accumulate, islice
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


def _tau2_window(bfl, A, xi2, t2max):
    """The tau2 window (lo, hi) of a height B, with bfl = B * fl.

    |tauL| <= B, i.e. |tau2^2*xi2 + A| <= bfl, and the x0 bound
    |tau2| <= t2max hold iff lo <= |tau2| <= hi.  lo > hi when no tau2
    qualifies, and hi = -1 when A > bfl.
    """
    hi_num = bfl - A
    if hi_num < 0:
        return 0, -1
    lo_num = -bfl - A
    lo = math.isqrt(-((-lo_num) // xi2) - 1) + 1 if lo_num > 0 else 0  # ceil(lo_num / xi2)
    return lo, min(t2max, math.isqrt(hi_num // xi2))


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


def _tau1_visits(B, xi2, fl, f1, c1, t1max, t2max):
    """Yield (tau1, A, roots, lo, hi) for the tau1 with a tau2 class to visit.

    A = tau1^3 * f1; the tau2 with |tauL| <= B and |tau2| <= tau2_max are
    those with lo <= |tau2| <= hi (``_tau2_window``), and tauL is integral
    exactly for tau2 = r (mod fl) with r in roots, the square roots of
    -A / xi2 modulo fl, ascending.  tau1 runs 0, 1, 2, ... and then
    -1, -2, ...

    One xi tuple's visits are computed in int64 arrays over tau1.  A visit
    has hi >= 0, i.e. A <= B*fl, and lo <= t2max, i.e.
    -A <= B*fl + t2max^2*xi2, so each sign of tau1 ends at an exact cube
    root, and |A| and the window numerators stay inside int64.  The roots
    come from one table of the squares modulo fl (``_root_slices``), with
    the targets -A / xi2 formed from tau1 mod fl, never from tau1^3.
    """
    bfl = B * fl
    a_max = bfl + t2max * t2max * xi2
    if a_max >= 1 << 62:  # |A| <= a_max, and B*fl - A, B*fl + A must fit in int64
        raise OverflowError(f"height B = {B} is too large for the int64 tau1 arrays")
    pos = min(t1max, _icbrt(bfl // f1))  # hi >= 0
    neg = min(t1max, _icbrt(a_max // f1))  # lo <= t2max
    t1 = np.concatenate((np.arange(pos + 1), -np.arange(1, neg + 1)))
    t1 = t1[np.gcd(t1, c1) == 1]
    if not t1.size:
        return
    A = t1 * t1 * t1 * f1
    hi = np.minimum(_isqrt_array((bfl - A) // xi2), t2max)
    c = np.maximum(-((bfl + A) // xi2), 0)  # ceil((-B*fl - A) / xi2), at least 0
    lo = _isqrt_array(c)
    lo += lo * lo < c  # ceil(sqrt(c))
    u = t1 % fl
    targets = u * u % fl * u % fl * (-f1 * pow(xi2, -1, fl) % fl) % fl
    roots, first, last = _root_slices(targets, fl)
    for t, a, i, j, l, h in zip(t1.tolist(), A.tolist(), first, last, lo.tolist(), hi.tolist()):
        if i < j:
            yield t, a, roots[i:j], l, h


def _root_slices(targets, fl):
    """(roots, first, last): roots[first[i]:last[i]] are the square roots of
    targets[i] modulo fl, ascending, for an int64 array of targets in [0, fl).

    Squares every r in [0, fl) and keeps the r whose square is a target,
    sorted stably by their square, so that each target's roots are one slice.
    """
    wanted = np.zeros(fl, dtype=bool)
    wanted[targets] = True
    squares = np.arange(fl, dtype=np.int64)
    squares *= squares
    squares %= fl
    r = np.flatnonzero(wanted[squares])
    r_sq = squares[r]
    order = np.argsort(r_sq, kind="stable")
    r_sq = r_sq[order]
    return (
        r[order].tolist(),
        np.searchsorted(r_sq, targets, "left").tolist(),
        np.searchsorted(r_sq, targets, "right").tolist(),
    )


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


def _avoiding_terms(lo, hi, bad):
    """(n, terms): n the number of k in [lo, hi] with k mod p outside S for
    every (p, S) in bad, terms the inclusion-exclusion terms that give it.

    A term (first, step, sign) is the progression of k = first (mod step)
    from first on, first in [lo, hi]; refining it by one bad residue of the
    next prime gives a term of the opposite sign.  A term with no k in
    [lo, hi] is dropped together with all its refinements, so the work stays
    near the number of nonempty classes.  The terms also count every
    subrange of [lo, hi] (``_count_between``).
    """
    n = hi - lo + 1
    if n <= 0:
        return 0, []
    terms = [(lo, 1, 1)]
    for p, residues in bad:
        refined = []
        for first, step, sign in terms:
            inv = pow(step, -1, p)
            step_p = step * p
            for s in residues:
                k = first + step * ((s - first) * inv % p)
                if k <= hi:
                    n -= sign * ((hi - k) // step_p + 1)
                    refined.append((k, step_p, -sign))
        terms += refined
    return n, terms


def _count_between(terms, a, b):
    """Number of k in [a, b] that avoid the bad residues, for terms from
    _avoiding_terms(lo, hi, bad) with lo <= a and b <= hi."""
    n = 0
    for first, step, sign in terms:
        if first <= b:
            below = a - 1 - first  # the progression's k < a, none if first >= a
            n += sign * ((b - first) // step - (below // step if below >= 0 else -1))
    return n


def _window_runs(Bs, jx, x3, m0, fl, xi2, A, lo, hi):
    """The runs of heights of Bs with the same tau2 window, for one visit.

    (lo, hi) is the visit's window at the top height, Bs[jx:] the heights
    with x2 <= Bj and x3 = m3*|tau1|.  Returns [(start, lo, hi)], from the
    top down: run d covers the heights Bs[start] up to the start of run
    d - 1 (to the top for d = 0), and (lo, hi) is their window.  The windows
    are nested, and nonempty down to the last run's start.
    """
    runs = []
    j = len(Bs) - 1  # the lowest height seen so far; (lo, hi) is its window
    while j > jx and Bs[j - 1] >= x3:
        lo_j, hi_j = _tau2_window(Bs[j - 1] * fl, A, xi2, Bs[j - 1] // m0)
        if (lo_j, hi_j) != (lo, hi):
            runs.append((j, lo, hi))
            if lo_j > hi_j:
                return runs
            lo, hi = lo_j, hi_j
        j -= 1
    runs.append((j, lo, hi))
    return runs


def _grid_class_counts(Bs, scheme, xis=None):
    """Yield (xi, tau1, runs, ns) for each (xi, tau1) visit at B = Bs[-1].

    Bs is a sorted tuple of distinct heights.  The heights where the visit
    has points fall into runs with the same tau2 window (``_window_runs``):
    the visit has ns[d] points at every height of runs[d], and none below
    the last run.  With one height, ns[0] is the count.

    Counts each root class r without walking it, on tau2 >= 0 only.  tau2
    enters tauL through tau2^2 and the conditions through gcd(tau2, c2), and
    the roots are closed under negation, so the points with tau2 < 0 mirror
    those with tau2 > 0: a visit has twice the classes' sum, less tau2 = 0
    (k = 0 of class 0, its own mirror image) where it is in the window and
    counts.  Writing tau2 = r + fl*k gives
    tauL = -(n0 + 2*r*xi2*k + fl*xi2*k^2) with n0 = (r^2*xi2 + A) / fl, so
    for every prime p of rad(c2*cl) the k with p | tau2 or p | tauL form a
    few residues mod p, and inclusion-exclusion (``_avoiding_terms``)
    counts the k left in the window.  For p not dividing fl, k -> tau2 is a
    bijection mod p, and the bad tau2 residues (0, and the roots of
    tau2^2*xi2 + A, off one table of the squares mod p) are found per visit.
    tau2 = 0 and tauL = 0 fall in every bad set, as gcd(0, c) = c demands.

    Everything but the tau2 window is shared by the heights: the visit
    counts at B_j when x2 <= B_j and m3*|tau1| <= B_j, and its window at B_j
    lies inside the window at every larger height.  So the terms of each
    class are built once, on the top window, and evaluated on the smaller
    ones.
    """
    top = len(Bs) - 1
    B = Bs[top]
    for xi, x2, m0, m3, fl, f1, c1, c2, cl, t1max, t2max in _frames(B, scheme, xis):
        xi2 = xi[1]
        # free: p does not divide fl, and k -> tau2 is onto mod p;
        # tied: p | fl, so p | tau2 iff p | r, and tauL = n0 + 2*r*xi2*k mod p
        free, tied = [], []
        for p, _ in factorize(c2 * cl):
            in_c2, in_cl = c2 % p == 0, cl % p == 0
            if fl % p:
                # m = -1/xi2 mod p, so p | tauL iff tau2^2 = A*m; None if p | xi2
                m = -pow(xi2, -1, p) % p if xi2 % p else None
                squares = _root_slices(np.arange(p), p) if in_cl and m is not None else None
                free.append((p, in_c2, in_cl, m, squares, pow(fl, -1, p)))
            else:
                tied.append((p, in_c2, in_cl, 2 * xi2 % p))
        jx = bisect_left(Bs, x2)  # the heights Bs[jx:] have x2 <= Bj
        for t1, A, roots, lo, hi in _tau1_visits(B, xi2, fl, f1, c1, t1max, t2max):
            if jx == top:  # no smaller height counts this xi tuple
                runs = ((top, lo, hi),)
            else:
                runs = _window_runs(Bs, jx, m3 * abs(t1), m0, fl, xi2, A, lo, hi)
            ns = [0] * len(runs)
            tau2_bad = []
            for p, in_c2, in_cl, m, squares, fl_inv in free:
                res = [0] if in_c2 else []
                if in_cl:
                    if m is None:
                        if A % p == 0:
                            break  # p divides every tauL
                    else:
                        sq_roots, first, last = squares
                        a = A * m % p
                        res += [s for s in sq_roots[first[a]:last[a]] if s not in res]
                if res:  # all p residues bad leaves every class with no k
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
                    else:  # doubled: class -r at tau2 <= 0 mirrors class r at tau2 >= 0
                        k_lo, k_hi = -((r - lo) // fl), (hi - r) // fl
                        if bad:
                            n, terms = _avoiding_terms(k_lo, k_hi, bad)
                            ns[0] += 2 * n
                            for d, (_, lo_d, hi_d) in enumerate(runs[1:], 1):
                                ns[d] += 2 * _count_between(terms, -((r - lo_d) // fl), (hi_d - r) // fl)
                        else:  # every k counts, as in most classes; saves the calls
                            ns[0] += 2 * (k_hi - k_lo + 1)
                            for d, (_, lo_d, hi_d) in enumerate(runs[1:], 1):
                                ns[d] += 2 * ((hi_d - r) // fl + (r - lo_d) // fl + 1)
                        if r == 0 and all(0 not in residues for _, residues in bad):
                            for d, (_, lo_d, _) in enumerate(runs):  # tau2 = 0 is its own mirror
                                ns[d] -= lo_d == 0
            yield xi, t1, runs, ns


def _count_part(args):
    """Points of every parts-th xi tuple, from the part-th on."""
    B, fast, parts, part, scheme = args
    xis = islice(_xi_tuples(B, scheme), part, None, parts)
    if fast:
        return sum(ns[0] for _, _, _, ns in _grid_class_counts((B,), scheme, xis))
    return sum(1 for _ in _solutions(B, scheme, False, xis))


def _grid_part(args):
    """Points at each height of Bs of every parts-th xi tuple, from the part-th on."""
    Bs, parts, part, scheme = args
    xis = islice(_xi_tuples(Bs[-1], scheme), part, None, parts)
    steps = [0] * (len(Bs) + 1)  # steps[j] = count at Bs[j] - count at Bs[j - 1]
    for _, _, runs, ns in _grid_class_counts(Bs, scheme, xis):
        end = len(Bs)
        for (j, _, _), n in zip(runs, ns):
            steps[j] += n
            steps[end] -= n
            end = j
    return tuple(accumulate(steps[:-1]))


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
