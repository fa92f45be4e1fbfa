"""Enumeration of torsor points under the lifted height conditions.

The height conditions |x_i| <= B pull back to exact integer inequalities on
the torsor coordinates, so the whole counter runs on integer arithmetic:

    xi^LAMBDA <= B                  (the x2 bound)
    |tau1| * xi^X3_EXPONENTS <= B   (the x3 bound)
    |tau2| * xi^X0_EXPONENTS <= B   (the x0 bound)
    |tauL| <= B                     (the x1 bound; tauL is solved for)

Three inner strategies share the same xi/tau1 nest:

- the tau2 scan (``_scan``) tries every tau2 with |tau2| <= B/x0_unit; it
  is the plain oracle, reached through ``count_torsor`` for the count.
- the class walk (``_walk``: ``enumerate_points``, ``enumerate_torsor_points``,
  ``counts_upto`` and ``verify``) steps only through the admissible
  residues, the roots of tau2^2 * xi2 = -tau1^3 * xi1^2 * xi3 modulo
  fl = xiL^3 * xi4^2 * xi5, testing the two gcd conditions on each; it is
  the oracle for the count.  The walk and the class count read the same
  chunks of (xi, tau1) visits (``_visit_chunks``): consecutive xi tuples
  with at most _BATCH tau1 values in all, their visits int64 arrays over
  tau1 that read every visit's roots off one sorted table of the squares
  modulo each fl of the chunk (``_root_slices``).
- the class count (``count_torsor_grid``, and ``count_torsor_fast`` on one
  height) counts each root class in its tau2 window without visiting its
  points (``_class_counts``): writing tau2 = r + fl*k, the k with p | tau2
  or p | tauL are at most three residues mod each prime p of the partner
  products, and inclusion-exclusion over their CRT classes runs on arrays
  of terms, one prime slot at a time (``_avoiding_counts``), to count the
  k that avoid them all.  tau2 enters only through tau2^2 and
  gcd(tau2, c2), and the roots r are closed under negation, so the count
  takes tau2 >= 0 only and doubles it, less tau2 = 0 once.  The class walk
  keeps both signs of tau2, as the count's independent oracle.  The count
  takes the xi tuples of a chunk together: a batch of at most _BATCH
  classes times heights is one array pass, slot i holding each tuple's
  i-th prime, with the square roots mod each prime off ``_root_slices``
  and one table of inverses per prime.  A larger xi tuple is a chunk or a
  batch alone.  One pass at the largest height of a grid counts every
  smaller height too: a (xi, tau1) visit at B_max counts at B_j when
  x2 <= B_j and m3 * |tau1| <= B_j, and only its tau2 window shrinks with
  B_j, inside the larger windows, so each term counts its k in the windows
  of all heights at once, broadcast over a height axis.

All must agree exactly, the class count with the class walk at every
(xi, tau1) and every height; the brute surface scan is the independent
oracle for all.

Parallel counts deal the xi tuples round-robin to the workers (``_scan_part``
for the scan, ``_grid_part`` for the class count), in the canonical order of
``_xi_tuples``: a xi tuple's tau1/tau2 sums are independent of every other
tuple's, and summing the shard counts reproduces the full count, so parallel
runs are deterministic.
"""

import math
import time
from bisect import bisect_left
from itertools import islice
from multiprocessing import Pool
from typing import Iterable, Iterator

import numpy as np
import numpy.ma  # np.unique reads it, and numpy loads it lazily: load it before a pool forks

from .arith import factorize, is_squarefree
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
    _compiled,
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


def _xi_tuples(B, scheme):
    """Admissible xi-tuples (canonical order) with xi^LAMBDA <= B, as an iterator.

    Applies the xi conditions of the scheme incrementally: level L checks
    each earlier level whose group in ``_compiled`` lists L.  Every count and
    enumeration starts here, so a negative B, one beyond the int64 monomials
    of ``_frames``, or a tau-tau pair or squarefree tau raises here, at the
    call, before any table.
    """
    if _height(B) >= 1 << 63:
        raise OverflowError(f"height B = {B} is too large for the int64 monomials")
    tau_groups, tau_squarefree = _compiled(scheme, TAU_NAMES)
    if tau_groups:
        raise NotImplementedError("tau-tau coprimality is not supported")
    if tau_squarefree:
        raise NotImplementedError("squarefree taus are not supported")
    groups, squarefree = _compiled(scheme, tuple(XI_NAMES[i] for i in _LOOP_ORDER))
    earlier = [tuple(i for i, js in groups if level in js) for level in range(7)]
    exps = tuple(LAMBDA[i] for i in _LOOP_ORDER)
    vals = [1] * 7  # in loop order
    gcd = math.gcd

    def rec(level, mono):
        if level == 7:
            yield (vals[6], vals[5], vals[4], vals[3], vals[2], vals[1], vals[0])
            return
        e = exps[level]
        checks = earlier[level]
        squarefree_needed = level in squarefree
        v = 1
        while True:
            m = mono * v**e
            if m > B:
                break
            if (not squarefree_needed or is_squarefree(v)) and all(
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
    coprime to, read off ``_compiled`` on the xi's and taus.  The eight
    monomials of a batch of xi tuples (``_batches``) come from one int64
    pass; each exponent is at most LAMBDA's, so every monomial and partial
    product is at most x2 <= B < 2^63, as ``_xi_tuples`` checks.
    """
    later = dict(_compiled(scheme, XI_NAMES + TAU_NAMES)[0])
    # 0/1 exponent vectors: monomial(xi, partners) is the product of the xi's
    # a tau must be coprime to
    partners = [[int(j in later.get(i, ())) for i in range(7)] for j in range(7, 10)]
    xis = _xi_tuples(B, scheme) if xis is None else xis
    exps = np.array((LAMBDA, X0_EXPONENTS, X3_EXPONENTS, FL_EXPONENTS, F1_EXPONENTS, *partners))
    for chunk in _batches((xi, 1, 1) for xi in xis):
        monos = np.prod(np.array(chunk, np.int64)[:, None, :] ** exps, axis=2).tolist()
        for xi, (x2, m0, m3, fl, f1, c1, c2, cl) in zip(chunk, monos):
            yield xi, x2, m0, m3, fl, f1, c1, c2, cl, B // m3, B // m0


def _tau2_windows(bfl, A, xi2, t2max):
    """The tau2 windows (lo, hi) at bfl = B * fl, elementwise over int64 arrays.

    |tauL| <= B, i.e. |tau2^2*xi2 + A| <= bfl, and the x0 bound
    |tau2| <= t2max hold iff lo <= |tau2| <= hi.  lo > hi when no tau2
    qualifies, and hi = -1 when A > bfl.  bfl + |A| must stay below 3 * 2^61,
    as it does under the height limit (``_class_height``).
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
    """floor(sqrt(n)) of each entry of an int64 array n with 0 <= n < 3 * 2^61.

    Two roundings of relative size 2^-53, of n and of its root, leave the
    float root of n < 2^63 within 1e-6 of the exact one, so its floor is
    within 1 of floor(sqrt(n)), and one exact int64 step each way corrects
    it; the largest square formed, (floor(sqrt(n)) + 1)^2 < n + 2^33, stays
    below 2^63.
    """
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


# The one height limit of the class walk and the class count, B^2 < 2^61.
# Every xi tuple with x2 <= B has fl <= x2 <= B, as FL_EXPONENTS <= LAMBDA
# entry by entry, and t2max = B // m0 with m0 >= xi2^2, so _tau1_range's
# a_max = B*fl + t2max^2*xi2 <= 2B^2 < 2^62 bounds |A|, and the tau2 window
# numerators B*fl + |A| stay below 3B^2 < 3 * 2^61 (_tau2_windows).  Every
# LAMBDA entry is at least 2, so the product of the xi's is at most sqrt(B),
# and so are the product of the primes of c2*cl and the largest of them: the
# product times the largest is at most B (_avoiding_counts).  A prime p of
# fl divides xiL, xi4 or xi5, so fl*p*xi2 <= x2*xiL <= B^(4/3)
# (_class_counts).  The tuple (1, 1, 1, floor(B^(1/3)), 1, 1, 1) has a_max
# near 2B^2, so the limit is tight for this proof.
_MAX_CLASS_HEIGHT = math.isqrt((1 << 61) - 1)  # 1,518,500,249


def _class_height(B):
    """Check B as a height bound of the class walk or count: OverflowError above the limit."""
    if _height(B) > _MAX_CLASS_HEIGHT:
        raise OverflowError(f"height B = {B} is too large for the int64 tau1 arrays")


def _tau1_range(B, xi2, fl, f1, t1max, t2max):
    """(pos, neg): the tau1 of a xi tuple with a tau2 class to visit lie in
    0..pos and -1..-neg.

    A visit has a tau2 window (``_tau2_windows``) with hi >= 0, i.e.
    A = tau1^3 * f1 <= B*fl, and lo <= t2max, i.e. -A <= B*fl + t2max^2*xi2,
    so each sign of tau1 ends at an exact cube root.  Under the height limit
    (``_MAX_CLASS_HEIGHT``) |A| and the window numerators fit in int64.
    """
    bfl = B * fl
    a_max = bfl + t2max * t2max * xi2
    return min(t1max, _icbrt(bfl // f1)), min(t1max, _icbrt(a_max // f1))


def _visit_arrays(loops):
    """(tup, tau1, A, roots, first, last), int64 arrays over the visits of
    loops, a list of (xi2, fl, f1, c1, pos, neg), one per xi tuple.

    Visit v is tau1[v] of loops[tup[v]], in the order of loops and, within
    one, tau1 = 0, 1, ..., pos and then -1, ..., -neg (``_tau1_range``),
    less the tau1 sharing a prime with c1 or without a root.  A = tau1^3 * f1,
    and tauL is integral exactly for tau2 = r (mod fl) with r in
    roots[first[v]:last[v]], the square roots of -A / xi2 modulo fl,
    ascending.  The roots come from one table of the squares modulo each
    distinct fl of loops (``_root_slices``), with the targets -A / xi2 formed
    from tau1 mod fl, never from tau1^3.
    """
    _, fl, f1, c1, pos, neg = np.array(loops, np.int64).T
    coef = np.array([-f * pow(x, -1, m) % m for x, m, f, *_ in loops], np.int64)
    size = pos + neg + 1
    tup = np.repeat(np.arange(len(loops)), size)
    t1 = np.arange(tup.size) - np.repeat(np.cumsum(size) - size, size)  # 0, 1, ... per loop
    t1 = np.where(t1 <= pos[tup], t1, pos[tup] - t1)
    keep = np.gcd(t1, c1[tup]) == 1
    t1, tup = t1[keep], tup[keep]
    m = fl[tup]
    targets = t1 % m
    targets = targets * targets % m * targets % m * coef[tup] % m
    roots, first, last = _root_slices(targets, m)
    keep = first < last
    t1, tup = t1[keep], tup[keep]
    return tup, t1, t1 * t1 * t1 * f1[tup], roots, first[keep], last[keep]


def _visit_chunks(B, scheme, xis=None):
    """Yield (frames, visits) for chunks of consecutive xi tuples of xis
    (default: all) at B: frames as ``_frames`` gives them, and visits =
    (tup, tau1, A, roots, first, last) as ``_visit_arrays`` gives them, visit
    v being (xi, tau1[v]) of frames[tup[v]].  A chunk has at most _BATCH
    tau1 values, or one xi tuple."""

    def loops():
        for frame in _frames(B, scheme, xis):
            xi, _, _, _, fl, f1, c1, _, _, t1max, t2max = frame
            pos, neg = _tau1_range(B, xi[1], fl, f1, t1max, t2max)
            yield (frame, (xi[1], fl, f1, c1, pos, neg)), pos + neg + 1, 1

    for chunk in _batches(loops()):
        yield [frame for frame, _ in chunk], _visit_arrays([loop for _, loop in chunk])


_SQUARE_CHUNK = 1 << 14  # residues squared at once by _root_slices


def _root_slices(targets, moduli):
    """(roots, first, last), int64 arrays: roots[first[i]:last[i]] are the
    square roots of targets[i] modulo moduli[i], ascending, for int64 arrays
    of moduli >= 1 and of targets in [0, moduli[i]).

    For each distinct modulus q, squares every r in [0, q/2], a chunk at a
    time, keeps the r whose square is a target, with q - r, which has the
    same square, and sorts them by square and then by root, so that each
    target's roots are one ascending slice of q's table; the tables are
    concatenated, and q's targets are looked up in ascending order, on which
    searchsorted is fastest.  Besides the roots kept, only the targets' mask
    of q bytes grows with q, one modulus at a time.
    """
    first, last = np.empty_like(targets), np.empty_like(targets)
    order = np.lexsort((targets, moduli))  # by modulus, then by target
    qs, starts = np.unique(moduli[order], return_index=True)
    tables, base = [np.zeros(0, np.int64)], 0
    for q, at in zip(qs.tolist(), np.split(order, starts[1:])):
        t = targets[at]
        wanted = np.zeros(q, dtype=bool)
        wanted[t] = True
        r, r_sq = [], []
        for start in range(0, q // 2 + 1, _SQUARE_CHUNK):
            chunk = np.arange(start, min(start + _SQUARE_CHUNK, q // 2 + 1), dtype=np.int64)
            squares = chunk * chunk % q
            hit = wanted[squares]
            r.append(chunk[hit])
            r_sq.append(squares[hit])
        r, r_sq = np.concatenate(r), np.concatenate(r_sq)
        pair = (r > 0) & (2 * r < q)  # r and q - r are distinct roots
        r, r_sq = np.concatenate((r, q - r[pair])), np.concatenate((r_sq, r_sq[pair]))
        by_square = np.argsort(r_sq * q + r)
        r_sq = r_sq[by_square]
        first[at] = np.searchsorted(r_sq, t, "left") + base
        last[at] = np.searchsorted(r_sq, t, "right") + base
        tables.append(r[by_square])
        base += r.size
    return np.concatenate(tables), first, last


def _walk(B, scheme):
    """An iterator of (xi, tau1, tau2, tauL, x2, x0_unit, x3_unit) over all
    solutions, visit by visit in the order of ``_visit_chunks``; a B above
    the height limit raises at the call (``_class_height``)."""
    _class_height(B)
    gcd = math.gcd

    def solutions():
        for frames, (tup, t1, A, roots, first, last) in _visit_chunks(B, scheme):
            xi2, fl, t2max = np.array([(f[0][1], f[4], f[10]) for f in frames], np.int64)[tup].T
            lo, hi = _tau2_windows(B * fl, A, xi2, t2max)
            roots = roots.tolist()
            for v, t, a, i, j, l, h in np.stack((tup, t1, A, first, last, lo, hi), 1).tolist():
                xi, x2, m0, m3, f, _, _, c2, cl, _, _ = frames[v]
                ivs = ((-h, h),) if l == 0 else ((-h, -l), (l, h))
                for r in roots[i:j]:
                    for a_lo, a_hi in ivs:
                        start = a_lo + ((r - a_lo) % f)
                        for t2 in range(start, a_hi + 1, f):
                            tl = -((t2 * t2 * xi[1] + a) // f)
                            if gcd(t2, c2) == 1 and gcd(tl, cl) == 1:
                                yield (xi, t, t2, tl, x2, m0, m3)

    return solutions()


def _scan(B, scheme, xis=None):
    """_walk's solutions, of the xi tuples xis if given, by the tau2 scan."""
    gcd = math.gcd
    for xi, x2, m0, m3, fl, f1, c1, c2, cl, t1max, t2max in _frames(B, scheme, xis):
        xi2 = xi[1]
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


def _avoiding_counts(k_lo, k_hi, grp, primes, bad):
    """n, with n[c, j] the number of k in [k_lo[c, j], k_hi[c, j]] with
    k mod p outside the bad residues of class c at p, for every prime p of c.

    Class c has the primes primes[grp[c]], distinct and padded with 1s to one
    width, and bad[i] = (res, holds) its bad residues at its i-th prime:
    res[c] the residues, distinct where they hold, and holds[c] the mask of
    those that do.  The window of column j lies inside the last column's, or
    is empty with k_hi = k_lo - 1.  Inclusion-exclusion runs on arrays of
    terms, one prime slot at a time: a term is the progression of
    k = first (mod step) from first on, step the product of its class's
    primes in its mask, and refining it by one bad residue of the next prime
    gives a term of the opposite sign.  first is the least such k in the last
    window, and a term whose first is above that window's top is dropped
    with all its refinements, so the terms stay near the number of classes.
    Every term counts its k in every column at once; a class's own term,
    with step 1, counts them without a division.  The int64 arithmetic is
    exact while a class's primes times its largest stay below 2^62, as they
    do under the height limit (``_MAX_CLASS_HEIGHT``).
    """
    top = k_hi[:, -1]
    cls = np.arange(len(k_lo))  # the class of each term, its own term first
    first = k_lo[:, -1]
    mask = np.zeros_like(cls)
    steps = np.ones((len(primes), 1), np.int64)  # steps[g, mask]: the product of g's primes in mask
    signs = [1]  # of each mask
    for i, (res, holds) in enumerate(bad):
        p = primes[:, i]
        inv = np.array([[pow(s, -1, q) for s in row] for row, q in zip(steps.tolist(), p.tolist())])
        t, j = np.nonzero(holds[cls])  # term t refined by its class's residue j
        c, f, msk = cls[t], first[t], mask[t]
        g = grp[c]
        q = p[g]
        k = f + steps[g, msk] * ((res[c, j] - f) % q * inv[g, msk] % q)
        keep = k <= top[c]
        cls = np.concatenate((cls, c[keep]))
        first = np.concatenate((first, k[keep]))
        mask = np.concatenate((mask, msk[keep] + (1 << i)))
        steps = np.concatenate((steps, steps * p[:, None]), axis=1)
        signs += [-s for s in signs]
    n = k_hi - k_lo + 1  # the classes' own terms
    own = len(k_lo)
    cls, first, mask = cls[own:], first[own:, None], mask[own:]
    step = steps[grp[cls], mask, None]
    counts = (k_hi[cls] - first) // step - (k_lo[cls] - 1 - first) // step
    np.add.at(n, cls, counts * np.array(signs)[mask, None])
    return n


def _k_windows(lo, hi, fl, vis, r):
    """(k_lo, k_hi): tau2 = r[c] + fl*k lies in the window [lo, hi] of its
    visit vis[c] iff k_lo[c] <= k <= k_hi[c], elementwise over the columns,
    for 0 <= r < fl; one division per visit, none per class."""
    q, rem = np.divmod(lo, fl[:, None])
    k_lo = q[vis] + (rem[vis] > r[:, None])  # ceil((lo - r) / fl)
    q, rem = np.divmod(hi, fl[:, None])
    return k_lo, q[vis] - (rem[vis] < r[:, None])  # floor((hi - r) / fl)


# the cap of every packed array pass: xi tuples of a frame batch, tau1 values
# of a visit chunk, classes times heights of a class batch, and residues of a
# block of verify's eta tally
_BATCH = 1 << 12


def _batches(sized):
    """Lists of consecutive items of sized, an iterable of (item, n, w): the
    n of a list times its largest w is at most _BATCH, or the list is one
    item.  The one packer of every capped array pass."""
    batch, total, wide = [], 0, 0
    for item, n, w in sized:
        if batch and (total + n) * max(wide, w) > _BATCH:
            yield batch
            batch, total, wide = [], 0, 0
        batch.append(item)
        total, wide = total + n, max(wide, w)
    if batch:
        yield batch


def _class_counts(hs, frames, visits):
    """ns for a batch of xi tuples, counted in one array pass: ns[v, j] is
    the number of points of visit v at the height hs[j].

    frames are consecutive frames of ``_frames`` at the height hs[-1], an
    ascending int64 array of heights, and visits = (tup, tau1, A, roots,
    first, last) their visits as ``_visit_arrays`` gives them, visit v being
    (xi, tau1[v]) of frames[tup[v]].  The batch's classes, with each xi
    tuple's data, lie in one set of arrays.  A height below a tuple's x2 has
    an empty window in each of its classes, like a height below m3*|tau1|.
    Each root class r is counted without walking it, on tau2 >= 0 only:
    tau2 enters tauL through tau2^2 and the conditions through
    gcd(tau2, c2), and the roots are closed under negation, so the points
    with tau2 < 0 mirror those with tau2 > 0, and a visit has twice its
    classes' sum, less tau2 = 0 (class 0 at k = 0, its own mirror image)
    where it is in the window and a point.

    Writing tau2 = r + fl*k gives tauL = -(n0 + 2*r*xi2*k + fl*xi2*k^2) with
    n0 = (r^2*xi2 + A) / fl, so for every prime p of rad(c2*cl) the k with
    p | tau2 or p | tauL are at most three residues mod p, which
    ``_avoiding_counts`` leaves out of each class's k window at every height
    at once.  Slot i holds each tuple's i-th prime, so a batch has as many
    slots as its tuples have primes at most.  A class is dead where p
    divides every tau2 or every tauL of it or of its visit.  For p not
    dividing fl, k -> tau2 is onto mod p, and the bad tau2 residues (0, and
    the roots of tau2^2*xi2 + A, off the table of squares mod p of
    ``_root_slices``) are found per visit; for p | fl, k -> tauL is affine
    mod p, solved with a table of inverses mod p.  Each prime has one table
    of each kind per batch: one ``_root_slices`` call serves every prime of
    the batch.  tau2 = 0 and tauL = 0 fall in every bad set, as
    gcd(0, c) = c demands.  The int64 arithmetic is exact under the height
    limit (``_MAX_CLASS_HEIGHT``): the product of a tuple's primes times the
    largest is at most B, and fl*p*xi2 <= B^(4/3) for each p | fl.
    """
    tup, t1, A, roots, first, last = visits
    prime_sets = [[p for p, _ in factorize(f[7] * f[8])] for f in frames]
    rows = [(fl, xi[1], m0, m3, x2, c2, cl) for xi, x2, m0, m3, fl, _, _, c2, cl, _, _ in frames]
    fl, xi2, m0, m3, x2, c2, cl = np.array(rows, np.int64)[tup].T  # of each visit
    # class c has root r[c] and visit vis[c]; the classes of a visit are contiguous
    size = last - first
    vis = np.repeat(np.arange(t1.size), size)
    r = roots[np.arange(vis.size) + np.repeat(first - np.cumsum(size) + size, size)]
    lo, hi = _tau2_windows(fl[:, None] * hs, A[:, None], xi2[:, None], hs // m0[:, None])
    empty = (lo > hi) | (m3[:, None] * np.abs(t1)[:, None] > hs) | (x2[:, None] > hs)
    lo[empty], hi[empty] = 1, 0  # an empty k window, k_hi = k_lo - 1, in every class
    # slot i of a tuple holds its i-th prime p, padded with p = 1, as
    # (p, m, finv, zero, has_roots, kill_a, kill_r, at_inv): m = -1/xi2 and
    # finv = 1/fl mod p, zero where tau2 = 0 is bad, has_roots where the
    # roots of A*m are, kill_a and kill_r where p | A and p | r kill a class,
    # at_inv the first row of p's table of inverses, or row 0 for none
    width = max(map(len, prime_sets))
    inv_at = {}
    slots = []
    for (f, x, *_, c2_, cl_), primes in zip(rows, prime_sets):
        for p in primes:
            in_c2, in_cl = c2_ % p == 0, cl_ % p == 0
            if f % p == 0:  # tied: p | tau2 iff p | r, and tauL = -(n0 + b*k) mod p
                at_inv = inv_at.setdefault(p, 1 + sum(inv_at)) if in_cl else 0
                slots.append((p, 0, 0, 0, 0, 0, in_c2, at_inv))
            elif in_cl and x % p:  # free: p | tauL iff tau2^2 = A*m, m = -1/xi2 mod p
                slots.append((p, -pow(x, -1, p) % p, pow(f, -1, p), in_c2, 1, 0, 0, 0))
            else:  # free, with p | xi2 where p | cl: p divides every tauL of a visit or none
                slots.append((p, 0, pow(f, -1, p), in_c2, 0, in_cl, 0, 0))
        slots += [(1, 0, 0, 0, 0, 0, 0, 0)] * (width - len(primes))
    slots = np.array(slots, np.int64).reshape(len(rows), width, 8)
    v, i = np.nonzero(slots[tup, :, 4])  # the roots of A*m mod p at each visit's slots
    p, m = slots[tup[v], i, 0], slots[tup[v], i, 1]
    roots_am = np.full((t1.size, width, 2), -1)  # 0, 1 or 2 roots, ascending, padded with -1
    found, a, b = _root_slices(A[v] % p * m % p, p)
    for j in range(2):
        has = b - a > j
        roots_am[v[has], i[has], j] = found[a[has] + j]
    inv_table = np.array([0] + [pow(x, -1, p) if x else 0 for p in inv_at for x in range(p)])
    ct = tup[vis]  # the tuple of each class
    dead = np.zeros(r.size, bool)  # where p divides every tau2 or every tauL of a class

    def bad():  # each slot's bad k residues in turn, marking the dead classes
        for i in range(width):
            p, _, finv, zero, has_roots, kill_a, kill_r, at_inv = slots[:, i].T
            res, holds = np.empty((r.size, 3), np.int64), np.zeros((r.size, 3), bool)
            if kill_r.any():
                dead[:] |= (kill_r[ct] == 1) & (r % p[ct] == 0)
            if kill_a.any():
                dead[:] |= (kill_a[ct] == 1) & (A[vis] % p[ct] == 0)
            if (zero | has_roots).any():  # free: the k with tau2 = 0 or tau2^2 = A*m mod p
                c = np.flatnonzero((zero | has_roots)[ct])
                g, q = ct[c], p[ct[c], None]
                s = roots_am[vis[c], i]
                s[(s == 0) & (zero[g, None] == 1)] = -1  # 0 is in the set already
                s = np.column_stack((np.where(zero[g] == 1, 0, -1), s))
                res[c] = (s - r[c, None]) % q * finv[g, None] % q
                holds[c] = s >= 0
            if at_inv.any():  # tied, p | cl: the k with b*k = -n0 mod p
                c = np.flatnonzero(at_inv[ct])
                g, v, rc = ct[c], vis[c], r[c]
                q, x, f = p[g], xi2[v], fl[v]
                b = rc * (2 * x % q) % q
                M = f * q
                n0 = (rc * rc % M * x + A[v]) % M // f  # n0 mod p
                dead[c] |= (b == 0) & (n0 == 0)
                res[c, 0] = -n0 * inv_table[at_inv[g] + b] % q
                holds[c, 0] = b != 0
            yield res, holds

    n = _avoiding_counts(*_k_windows(lo, hi, fl, vis, r), ct, slots[:, :, 0], bad())
    n[dead] = 0  # dead is complete once the terms are
    ns = np.add.reduceat(n, np.cumsum(size) - size) if t1.size else n[:0]
    ns *= 2  # class -r at tau2 <= 0 mirrors class r at tau2 >= 0
    # tau2 = 0 is a point where c2 = 1 and tauL = -A/fl is prime to cl
    ns -= ((c2 == 1) & (A % fl == 0) & (np.gcd(A // fl, cl) == 1))[:, None] & (lo == 0)
    return ns


def _grid_class_counts(Bs, scheme, xis=None):
    """Yield (xi, tau1, ns) for each xi tuple at B = Bs[-1], Bs a sorted
    tuple of distinct heights.

    ns[v, j] is the number of points of the visit (xi, tau1[v]) at the
    height Bs[len(Bs) - ns.shape[1] + j]: the columns are the heights with
    x2 <= Bj, and the xi tuple has no points below them.  The xi tuples come
    in the chunks of ``_visit_chunks``, and a chunk's tuples in batches of
    at most _BATCH classes times heights, each counted in one array pass
    (``_class_counts``) on the heights from its lowest x2 on; a tuple above
    the cap is a batch alone.
    """
    heights = np.array(Bs, dtype=np.int64)
    for frames, (tup, t1, A, roots, first, last) in _visit_chunks(Bs[-1], scheme, xis):
        at = np.searchsorted(tup, np.arange(len(frames) + 1))  # each tuple's first visit
        classes = np.diff(np.concatenate(([0], np.cumsum(last - first)))[at]).tolist()
        at = at.tolist()
        low = [bisect_left(Bs, frame[1]) for frame in frames]  # each tuple's lowest height
        for batch in _batches(zip(range(len(frames)), classes, (len(Bs) - j for j in low))):
            a, b = batch[0], batch[-1] + 1
            part, j0 = slice(at[a], at[b]), min(low[a:b])
            visits = (tup[part] - a, t1[part], A[part], roots, first[part], last[part])
            ns = _class_counts(heights[j0:], frames[a:b], visits)
            for i in batch:
                v = slice(at[i] - at[a], at[i + 1] - at[a])
                yield frames[i][0], t1[at[i]:at[i + 1]], ns[v, low[i] - j0:]


def _scan_part(args):
    """Points of every parts-th xi tuple at B, from the part-th on, by the tau2 scan."""
    B, parts, part, scheme = args
    return sum(1 for _ in _scan(B, scheme, islice(_xi_tuples(B, scheme), part, None, parts)))


def _grid_part(args):
    """Points at each height of Bs of every parts-th xi tuple, from the part-th on."""
    Bs, parts, part, scheme = args
    xis = islice(_xi_tuples(Bs[-1], scheme), part, None, parts)
    counts = np.zeros(len(Bs), np.int64)
    for _, _, ns in _grid_class_counts(Bs, scheme, xis):
        counts[len(Bs) - ns.shape[1]:] += ns.sum(axis=0)
    return tuple(counts.tolist())


def _sharded(worker, top, threads, scheme):
    """([worker((top, parts, part, scheme)) for part < parts], parts), parts = threads.

    With more than one part, the parts run on one pool of that many processes.
    """
    parts = max(1, int(threads))
    jobs = [(top, parts, part, scheme) for part in range(parts)]
    if parts == 1:
        return [worker(jobs[0])], 1
    with Pool(parts) as pool:
        return pool.map(worker, jobs), parts


def count_torsor(B: int, threads: int = 1, scheme: CoprimalityScheme = T1_SCHEME) -> CountReport:
    """Exact N(B) by torsor enumeration with a scanned tau2 loop."""
    t0 = time.perf_counter()
    partial, shards = _sharded(_scan_part, _height(B), threads, scheme)
    return CountReport(B, sum(partial), "torsor", time.perf_counter() - t0, shards)


def count_torsor_fast(B: int, threads: int = 1, scheme: CoprimalityScheme = T1_SCHEME) -> CountReport:
    """Exact N(B) counting each admissible tau2 class without visiting its
    points: ``count_torsor_grid`` on the one height B."""
    return count_torsor_grid([B], threads, scheme)[0]


def count_torsor_grid(
    heights: Iterable[int], threads: int = 1, scheme: CoprimalityScheme = T1_SCHEME
) -> list[CountReport]:
    """Exact N(B) for every B of heights, from one class-count pass at max(heights).

    heights may come in any order and repeat; there is one report per entry,
    in the order given, with method "fast".  All reports of a call share one
    pass: elapsed_s is the wall time of the whole pass and parts its number
    of worker processes.  A height above the limit raises before any worker
    starts (``_class_height``).
    """
    t0 = time.perf_counter()
    heights = [_height(B) for B in heights]
    if not heights:
        return []
    Bs = tuple(sorted(set(heights)))
    _class_height(Bs[-1])
    partial, shards = _sharded(_grid_part, Bs, threads, scheme)
    counts = dict(zip(Bs, map(sum, zip(*partial))))
    elapsed = time.perf_counter() - t0
    return [CountReport(B, counts[B], "fast", elapsed, shards) for B in heights]


def enumerate_torsor_points(B: int, scheme: CoprimalityScheme = T1_SCHEME) -> Iterator[TorsorPoint]:
    """All torsor points meeting the scheme and height conditions at B."""
    return (TorsorPoint(*xi, t1, t2, tl) for xi, t1, t2, tl, _, _, _ in _walk(B, scheme))


def enumerate_points(B: int, scheme: CoprimalityScheme = T1_SCHEME) -> Iterator[RationalPoint]:
    """Surface points of height <= B as psi-images, each exactly once."""
    points = _walk(B, scheme)
    return (RationalPoint(m0 * t2, tl, x2, m3 * t1) for _, t1, t2, tl, x2, m0, m3 in points)


def counts_upto(Bmax: int, scheme: CoprimalityScheme = T1_SCHEME) -> list[int]:
    """N(B) for every B in [0, Bmax] from a single enumeration at Bmax."""
    heights = (
        max(x2, m0 * abs(t2), m3 * abs(t1), abs(tl))
        for _, t1, t2, tl, x2, m0, m3 in _walk(Bmax, scheme)
    )
    return _cumulative_counts(heights, Bmax)
