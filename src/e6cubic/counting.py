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
  products, and inclusion-exclusion over their CRT classes makes terms
  (``_avoiding_terms``) that count the k avoiding them all, on tau2 >= 0,
  doubled.  A batch of a chunk's xi tuples with at most _BATCH classes is
  one array pass at the top height of a grid.  Its lower heights only
  shrink a visit's tau2 window, so they reuse its terms, on ragged
  (class, height) cells in blocks of at most _BATCH cells.

All must agree exactly, the class count with the class walk at every
(xi, tau1) and every height; the brute surface scan is the independent
oracle for all.

Every strategy reads its xi tuples off one frame table (``_frames``), int64
columns over the tuples in the nest's canonical order.  Parallel counts deal
its rows round-robin to the workers (``_scan_part`` for the scan,
``_grid_part`` for the class count): a xi tuple's tau1/tau2 sums are
independent of every other tuple's, and summing the shard counts reproduces
the full count, so parallel runs are deterministic.
"""

import math
import time
from collections import namedtuple
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


_Frames = namedtuple("_Frames", "xi x2 m0 m3 fl f1 c1 c2 cl t1max t2max")


def _frames(B, scheme):
    """The frame table at B: int64 columns with one row per admissible xi
    tuple with xi^LAMBDA <= B, in the canonical order of the nest, xi6
    outermost and xi1 innermost, each ascending.  A table of some of its
    rows is ``frames._make(column[rows] for column in frames)``.

    xi holds the tuples (rows x 7); x2, m0 and m3 are the monomials of x2
    and of the units of x0 and x3; fl and f1 the coefficients of tauL and
    tau1^3 in the equation; c1, c2 and cl the products of the xi's that
    tau1, tau2 and tauL must be coprime to; t1max = B // m3, t2max = B // m0.

    The nest grows one level at a time, in _LOOP_ORDER: each row so far
    takes v = 1, ..., floor((B // x2)^(1/e)), e the level's LAMBDA entry;
    the rows where v shares a prime with an earlier level whose group in
    ``_compiled`` lists this one, or fails this level's squarefree flag, go;
    and v enters each of the eight monomials with its exponent there.  Every
    such exponent is at most LAMBDA's, so each monomial is at most
    x2 <= B, and B is under the height limit at every caller
    (``_class_height``).  Every count and enumeration starts here, so a
    negative B, or a tau-tau pair or squarefree tau, raises here, before any
    table.
    """
    _height(B)
    tau_groups, tau_squarefree = _compiled(scheme, TAU_NAMES)
    if tau_groups:
        raise NotImplementedError("tau-tau coprimality is not supported")
    if tau_squarefree:
        raise NotImplementedError("squarefree taus are not supported")
    groups, squarefree = _compiled(scheme, tuple(XI_NAMES[i] for i in _LOOP_ORDER))
    later = dict(_compiled(scheme, XI_NAMES + TAU_NAMES)[0])
    # 0/1 exponent vectors: monomial(xi, partners) is the product of the xi's
    # a tau must be coprime to
    partners = [[int(j in later.get(i, ())) for i in range(7)] for j in range(7, 10)]
    exps = np.array((LAMBDA, X0_EXPONENTS, X3_EXPONENTS, FL_EXPONENTS, F1_EXPONENTS, *partners)).T
    xi = np.ones((int(B >= 1), 0), np.int64)  # the levels so far, in loop order
    monos = np.ones((len(xi), 8), np.int64)  # x2, m0, m3, fl, f1, c1, c2, cl
    for level, i in enumerate(_LOOP_ORDER):
        size = _iroot_array(B // monos[:, 0], LAMBDA[i])
        row = np.repeat(np.arange(len(xi)), size)
        v = np.arange(1, row.size + 1) - np.repeat(np.cumsum(size) - size, size)
        checks = [j for j, js in groups if level in js]  # their product is at most sqrt(B)
        keep = np.gcd(v, xi[:, checks].prod(axis=1)[row]) == 1
        if level in squarefree and v.size:
            flags = np.ones(v.max() + 1, bool)  # flags[v]: no d^2 > 1 divides v
            for d in range(2, math.isqrt(flags.size - 1) + 1):
                flags[d * d :: d * d] = False
            keep &= flags[v]
        row, v = row[keep], v[keep]
        xi = np.column_stack((xi[row], v))
        monos = monos[row] * v[:, None] ** exps[i]
    return _Frames(xi[:, ::-1], *monos.T, B // monos[:, 2], B // monos[:, 1])


def _iroot_array(n, e):
    """floor(n^(1/e)) of each entry of an int64 array n with 0 <= n < 3 * 2^61.

    The float root of n is below 2^32 and errs by a few 2^-53 relative (the
    roundings of n, of 1/e and of the power), so by less than 1e-5, and its
    floor is within 1 of the exact one; one exact int64 step each way
    corrects it.  The largest power formed, (floor(n^(1/e)) + 1)^e, stays
    below 2^63: with x = n^(1/e) it is at most n * exp(e/x) < 4/3 * n where
    x > 3.5e, and at most 22^6 where x <= 3.5e <= 21.
    """
    s = (n.astype(np.float64) ** (1 / e)).astype(np.int64)
    s -= s**e > n
    s += (s + 1) ** e <= n
    return s


def _tau2_windows(bfl, A, xi2, t2max):
    """The tau2 windows (lo, hi) at bfl = B * fl, elementwise over int64 arrays.

    |tauL| <= B, i.e. |tau2^2*xi2 + A| <= bfl, and the x0 bound
    |tau2| <= t2max hold iff lo <= |tau2| <= hi.  lo > hi when no tau2
    qualifies, and hi = -1 when A > bfl.  bfl + |A| must stay below 3 * 2^61,
    as it does under the height limit (``_class_height``).
    """
    num = bfl - A
    hi = np.where(num < 0, -1, np.minimum(_iroot_array(np.maximum(num, 0) // xi2, 2), t2max))
    c = np.maximum(-((bfl + A) // xi2), 0)  # ceil((-bfl - A) / xi2), at least 0
    lo = _iroot_array(c, 2)
    lo += lo * lo < c  # ceil(sqrt(c))
    return lo, hi


# The one height limit of every torsor count and enumeration, B^2 < 2^61.
# Every xi tuple with x2 <= B has fl <= x2 <= B, as FL_EXPONENTS <= LAMBDA
# entry by entry, and t2max = B // m0 with m0 >= xi2^2, so the tau1 ranges'
# a_max = B*fl + t2max^2*xi2 <= 2B^2 < 2^62 bounds |A| (_visit_chunks), and
# the tau2 window numerators B*fl + |A| stay below 3B^2 < 3 * 2^61
# (_tau2_windows).  Every LAMBDA entry is at least 2, so the product of the
# xi's is at most sqrt(B), and so are the product of the primes of c2*cl and
# the largest of them: the product times the largest is at most B
# (_avoiding_terms).  A prime p of fl divides xiL, xi4 or xi5, so
# fl*p*xi2 <= x2*xiL <= B^(4/3) (_class_counts).  The tuple
# (1, 1, 1, floor(B^(1/3)), 1, 1, 1) has a_max near 2B^2, so the limit is
# tight for this proof.
_MAX_CLASS_HEIGHT = math.isqrt((1 << 61) - 1)  # 1,518,500,249


def _class_height(B):
    """Check B as a height bound of a torsor count or enumeration: OverflowError above the limit."""
    if _height(B) > _MAX_CLASS_HEIGHT:
        raise OverflowError(f"height B = {B} is too large for the int64 tau1 arrays")


def _visit_chunks(B, frames):
    """Yield (chunk, visits) for runs of consecutive rows of the frame table
    at B, each with at most _BATCH tau1 values or one row: chunk is their
    table, and visits = (tup, tau1, A, roots, first, last) int64 arrays over
    their visits.

    Visit v is tau1[v] of row tup[v] of chunk, in the order of the rows and,
    within one, tau1 = 0, 1, ..., pos and then -1, ..., -neg, less the tau1
    sharing a prime with c1 or without a root.  A visit has a tau2 window
    (``_tau2_windows``) with hi >= 0, i.e. A = tau1^3 * f1 <= B*fl, and
    lo <= t2max, i.e. -A <= a_max = B*fl + t2max^2*xi2, so pos and neg are
    exact cube roots, taken over all rows at once; under the height limit
    (``_MAX_CLASS_HEIGHT``) a_max and the window numerators fit in int64.
    tauL is integral exactly for tau2 = r (mod fl) with r in
    roots[first[v]:last[v]], the square roots of -A / xi2 modulo fl,
    ascending.  The roots come from one table of the squares modulo each
    distinct fl of the chunk (``_root_slices``), with the targets -A / xi2
    formed from tau1 mod fl, never from tau1^3.
    """
    xi2, fl, f1 = frames.xi[:, 1], frames.fl, frames.f1
    bfl = B * fl
    pos = np.minimum(frames.t1max, _iroot_array(bfl // f1, 3))
    neg = np.minimum(frames.t1max, _iroot_array((bfl + frames.t2max**2 * xi2) // f1, 3))
    coef = [-f * pow(x, -1, m) % m for x, m, f in zip(xi2.tolist(), fl.tolist(), f1.tolist())]
    coef = np.array(coef, np.int64)
    sizes = pos + neg + 1
    for a, b in _batches(sizes):
        rows = slice(a, b)
        size = sizes[rows]
        tup = np.repeat(np.arange(a, b), size)
        t1 = np.arange(tup.size) - np.repeat(np.cumsum(size) - size, size)  # 0, 1, ... per row
        t1 = np.where(t1 <= pos[tup], t1, pos[tup] - t1)
        keep = np.gcd(t1, frames.c1[tup]) == 1
        t1, tup = t1[keep], tup[keep]
        m = fl[tup]
        targets = t1 % m
        targets = targets * targets % m * targets % m * coef[tup] % m
        roots, first, last = _root_slices(targets, m)
        keep = first < last
        t1, tup = t1[keep], tup[keep]
        visits = (tup - a, t1, t1 * t1 * t1 * f1[tup], roots, first[keep], last[keep])
        yield frames._make(column[rows] for column in frames), visits


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
    grows with q: one buffer of the largest q's bytes, cleared after each q.
    """
    first, last = np.empty_like(targets), np.empty_like(targets)
    order = np.lexsort((targets, moduli))  # by modulus, then by target
    ordered = moduli[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=0))  # each modulus's first place
    tables, base = [np.zeros(0, np.int64)], 0
    mask = np.zeros(ordered[-1] if ordered.size else 0, dtype=bool)
    for q, at in zip(ordered[starts].tolist(), np.split(order, starts[1:])):
        t = targets[at]
        wanted = mask[:q]
        wanted[t] = True
        r, r_sq = [], []
        for start in range(0, q // 2 + 1, _SQUARE_CHUNK):
            chunk = np.arange(start, min(start + _SQUARE_CHUNK, q // 2 + 1), dtype=np.int64)
            squares = chunk * chunk % q
            hit = wanted[squares]
            r.append(chunk[hit])
            r_sq.append(squares[hit])
        wanted[t] = False
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
        for chunk, (tup, t1, A, roots, first, last) in _visit_chunks(B, _frames(B, scheme)):
            lo, hi = _tau2_windows(B * chunk.fl[tup], A, chunk.xi[tup, 1], chunk.t2max[tup])
            xis = list(map(tuple, chunk.xi.tolist()))
            rows = np.stack((chunk.x2, chunk.m0, chunk.m3, chunk.fl, chunk.c2, chunk.cl), 1).tolist()
            roots = roots.tolist()
            for v, t, a, i, j, l, h in np.stack((tup, t1, A, first, last, lo, hi), 1).tolist():
                xi, (x2, m0, m3, f, c2, cl) = xis[v], rows[v]
                ivs = ((-h, h),) if l == 0 else ((-h, -l), (l, h))
                for r in roots[i:j]:
                    for a_lo, a_hi in ivs:
                        start = a_lo + ((r - a_lo) % f)
                        for t2 in range(start, a_hi + 1, f):
                            tl = -((t2 * t2 * xi[1] + a) // f)
                            if gcd(t2, c2) == 1 and gcd(tl, cl) == 1:
                                yield (xi, t, t2, tl, x2, m0, m3)

    return solutions()


def _scan(B, frames):
    """_walk's solutions at B, of the rows of a frame table, by the tau2 scan."""
    gcd = math.gcd
    rows = zip(map(tuple, frames.xi.tolist()), *(column.tolist() for column in frames[1:]))
    for xi, x2, m0, m3, fl, f1, c1, c2, cl, t1max, t2max in rows:
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


def _avoiding_terms(k_lo, k_hi, grp, primes, bad):
    """(cls, (first, step, sign)), int64 arrays over the inclusion-exclusion
    terms beyond each class's own: with them ``_term_counts`` counts the k in
    [k_lo[c], k_hi[c]], or in any window inside it, with k mod p outside the
    bad residues of class c at p, for every prime p of c.

    Class c has the primes primes[grp[c]], distinct and padded with 1s to one
    width, and bad[i] = (res, holds) its bad residues at its i-th prime:
    res[c] the residues, distinct where they hold, and holds[c] the mask of
    those that do.  Inclusion-exclusion runs on arrays of terms, one prime
    slot at a time: term t of class cls[t] is the progression of
    k = first[t] (mod step[t]), counted with sign[t], step the product of its
    class's primes in its mask, and refining it by one bad residue of the
    next prime gives a term of the opposite sign.  first is the least such k
    in [k_lo, k_hi], and a term whose first is above k_hi is dropped with all
    its refinements, so the terms stay near the number of classes.  The int64
    arithmetic is exact while a class's primes times its largest stay below
    2^62, as they do under the height limit (``_MAX_CLASS_HEIGHT``).
    """
    cls = np.arange(len(k_lo))  # the class of each term, its own term first
    first = k_lo
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
        keep = k <= k_hi[c]
        cls = np.concatenate((cls, c[keep]))
        first = np.concatenate((first, k[keep]))
        mask = np.concatenate((mask, msk[keep] + (1 << i)))
        steps = np.concatenate((steps, steps * p[:, None]), axis=1)
        signs += [-s for s in signs]
    own = len(k_lo)
    cls, mask = cls[own:], mask[own:]
    return cls, (first[own:], steps[grp[cls], mask], np.array(signs)[mask])


def _term_counts(k_lo, k_hi, at, terms):
    """n, n[w] the k of the window [k_lo[w], k_hi[w]] (empty: k_hi = k_lo - 1)
    plus, for each term (first, step, sign)[t] of ``_avoiding_terms`` with
    at[t] = w, sign times its k = first (mod step) there."""
    first, step, sign = terms
    n = k_hi - k_lo + 1
    np.add.at(n, at, sign * ((k_hi[at] - first) // step - (k_lo[at] - 1 - first) // step))
    return n


def _k_windows(lo, hi, fl, at, r):
    """(k_lo, k_hi): tau2 = r[c] + fl[w]*k lies in the window [lo[w], hi[w]]
    of w = at[c] iff k_lo[c] <= k <= k_hi[c], for 0 <= r < fl, with
    k_hi = k_lo - 1 where no k does; one division per window, none per class."""
    q, rem = np.divmod(lo, fl)
    k_lo = q[at] + (rem[at] > r)  # ceil((lo - r) / fl)
    q, rem = np.divmod(np.maximum(hi, lo - 1), fl)  # floor((lo - 1 - r) / fl) = k_lo - 1
    return k_lo, q[at] - (rem[at] < r)  # floor((hi - r) / fl)


# the cap of every packed array pass: tau1 values of a visit chunk, classes
# of a class batch, (class, height) cells of its lower heights, and residues
# of a block of verify's eta tally
_BATCH = 1 << 12


def _batches(sizes):
    """Yield (a, b) for runs items[a:b] of consecutive items of sizes >= 0:
    a run takes the items in turn while their sizes sum to at most _BATCH,
    or one larger item alone.  The one packer of every capped array pass."""
    ends = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    a = 0
    while a < ends.size - 1:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] + _BATCH, "right")) - 1)
        yield a, b
        a = b


def _class_counts(hs, frames, visits):
    """Yield ns for each xi tuple of a batch in turn: ns[v, j] is the number
    of points of its v-th visit at the height hs[len(hs) - ns.shape[1] + j],
    the columns being the heights from its x2 on.

    frames is a table of consecutive rows of the frame table at the height
    hs[-1], an ascending int64 array of heights, and visits = (tup, tau1, A,
    roots, first, last) their visits as ``_visit_chunks`` gives them, visit
    v being (xi, tau1[v]) of row tup[v].  The batch's classes, with each xi
    tuple's data, lie in one set of arrays.  Each root class r is counted
    without walking it, on tau2 >= 0 only: tau2 enters tauL through tau2^2
    and the conditions through gcd(tau2, c2), and the roots are closed under
    negation, so the points with tau2 < 0 mirror those with tau2 > 0, and a
    visit has twice its classes' sum, less tau2 = 0 (class 0 at k = 0, its
    own mirror image) where it is in the window and a point.

    Writing tau2 = r + fl*k gives tauL = -(n0 + 2*r*xi2*k + fl*xi2*k^2) with
    n0 = (r^2*xi2 + A) / fl, so for every prime p of rad(c2*cl) the k with
    p | tau2 or p | tauL are at most three residues mod p, which the terms
    of ``_avoiding_terms`` leave out of each class's k window.  Slot i holds
    each tuple's i-th prime.  A class is dead where p divides every tau2 or
    every tauL of it or of its visit.  For p not dividing fl, k -> tau2 is
    onto mod p, and the bad tau2 residues (0, and the roots of
    tau2^2*xi2 + A, off one ``_root_slices`` call for every prime of the
    batch) are found per visit; for p | fl, k -> tauL is affine mod p,
    solved with one table of inverses mod p per batch.  tau2 = 0 and
    tauL = 0 fall in every bad set, as gcd(0, c) = c demands.

    The terms are made on the top height's windows and count it; a lower
    height B_j only shrinks a visit's tau2 window, so they count it too, on
    (class, height) cells: a class not dead, with a k at the top, has a cell
    at each B_j < hs[-1] from its visit's first (x2, m3*|tau1| <= B_j and a
    tau2 in reach), in blocks of whole classes of at most _BATCH cells
    (``_batches``).  The int64 arithmetic is exact under the height limit
    (``_MAX_CLASS_HEIGHT``): the product of a tuple's primes times the
    largest is at most B, and fl*p*xi2 <= B^(4/3) for each p | fl.
    """
    tup, t1, A, roots, first, last = visits
    prime_sets = [[p for p, _ in factorize(c)] for c in (frames.c2 * frames.cl).tolist()]
    rows = (frames.fl, frames.xi[:, 1], frames.m0, frames.m3, frames.x2, frames.c2, frames.cl)
    fl, xi2, m0, m3, x2, c2, cl = (column[tup] for column in rows)  # of each visit
    # class c has root r[c] and visit vis[c]; the classes of a visit are contiguous
    size = last - first
    vis = np.repeat(np.arange(t1.size), size)
    r = roots[np.arange(vis.size) + np.repeat(first - np.cumsum(size) + size, size)]
    lo, hi = _tau2_windows(fl * hs[-1], A, xi2, hs[-1] // m0)
    # slot i of a tuple holds its i-th prime p, padded with p = 1, as
    # (p, m, finv, zero, has_roots, kill_a, kill_r, at_inv): m = -1/xi2 and
    # finv = 1/fl mod p, zero where tau2 = 0 is bad, has_roots where the
    # roots of A*m are, kill_a and kill_r where p | A and p | r kill a class,
    # at_inv the first row of p's table of inverses, or row 0 for none
    width = max(map(len, prime_sets))
    inv_at = {}
    slots = []
    for f, x, *_, c2_, cl_, primes in zip(*(column.tolist() for column in rows), prime_sets):
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
    slots = np.array(slots, np.int64).reshape(len(prime_sets), width, 8)
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

    k_lo, k_hi = _k_windows(lo, hi, fl, vis, r)
    cls, terms = _avoiding_terms(k_lo, k_hi, ct, slots[:, :, 0], bad())
    n = _term_counts(k_lo, k_hi, cls, terms)
    n[dead] = 0  # dead is complete once the terms are
    # tau2 = 0 is a point where c2 = 1 and tauL = -A/fl is prime to cl
    zero = (c2 == 1) & (A % fl == 0) & (np.gcd(A // fl, cl) == 1)
    top = np.add.reduceat(n, np.cumsum(size) - size) if t1.size else n[:0]
    top = 2 * top - (zero & (lo == 0) & (hi >= 0))
    at = np.searchsorted(tup, np.arange(len(prime_sets) + 1)).tolist()  # each tuple's first visit
    if hs.size == 1:  # no cells
        yield from (top[at[k]:at[k + 1], None] for k in range(len(prime_sets)))
        return
    order = np.argsort(cls, kind="stable")  # the terms by class
    terms = tuple(column[order] for column in terms)
    t_at = np.searchsorted(cls[order], np.arange(r.size + 1))  # each class's first term
    zero = zero[vis] & (r == 0)  # the class that holds tau2 = 0, where it is a point
    # each visit's first cell: x2, m3*|tau1| <= B, and a tau2 <= B/m0 with
    # |tau2^2*xi2 + A| <= B*fl, so A <= B*fl and (B/m0)^2*xi2 + B*fl + A >= 0;
    # the floats err by under 1e-14 relative, so the root is shrunk by 1e-12
    a, f, m = (column.astype(np.float64) for column in (np.abs(A), fl, m0))
    least = 2 * a / (f + np.sqrt(f * f + 4 * xi2 * np.where(A < 0, a, 0) / (m * m)))
    jv = np.searchsorted(hs, np.maximum(np.maximum(x2, m3 * np.abs(t1)), least * (1 - 1e-12)))
    cells = np.where(dead | (k_lo > k_hi), 0, hs.size - 1 - jv[vis])  # of each class
    c_at = np.concatenate(([0], np.cumsum(size)))[at]  # each tuple's first class
    low = np.searchsorted(hs, frames.x2).tolist()  # each tuple's lowest height
    blocks, cb, out = _batches(cells), 0, {}
    for k in range(len(low)):  # each tuple once its last block is done
        while cb < c_at[k + 1]:
            ca, cb = next(blocks)
            c = np.flatnonzero(cells[ca:cb]) + ca  # the block's classes with cells
            if not c.size:
                continue
            cc = np.repeat(c, cells[c])  # the class cells (cc, j), each class's heights ascending
            j = hs.size - 1 - np.repeat(np.cumsum(cells[c]), cells[c]) + np.arange(cc.size)
            v = vis[cc]
            lo, hi = _tau2_windows(fl[v] * hs[j], A[v], xi2[v], hs[j] // m0[v])
            kl, kh = _k_windows(lo, hi, fl[v], slice(None), r[cc])
            tn = t_at[cc + 1] - t_at[cc]  # the term cells: each class cell with its class's terms
            tc = np.repeat(np.arange(cc.size), tn)
            tt = np.repeat(t_at[cc] - np.cumsum(tn) + tn, tn) + np.arange(tc.size)
            n = 2 * _term_counts(kl, kh, tc, tuple(column[tt] for column in terms))
            n -= zero[cc] & (lo == 0) & (hi >= 0)
            bounds = np.searchsorted(cc, c_at).tolist()
            for u in range(ct[c[0]], ct[c[-1]] + 1):  # the block's tuples
                if u not in out:
                    out[u] = np.zeros((at[u + 1] - at[u], hs.size - low[u]), np.int64)
                s = slice(bounds[u], bounds[u + 1])
                np.add.at(out[u].ravel(), (v[s] - at[u]) * out[u].shape[1] + j[s] - low[u], n[s])
        ns = out.pop(k) if k in out else np.zeros((at[k + 1] - at[k], hs.size - low[k]), np.int64)
        ns[:, -1] = top[at[k]:at[k + 1]]
        yield ns


def _grid_class_counts(Bs, frames):
    """Yield (xi, tau1, ns) for each row of the frame table at B = Bs[-1],
    Bs a sorted tuple of distinct heights: ns[v, j] is the number of points
    of the visit (xi, tau1[v]) at Bs[len(Bs) - ns.shape[1] + j], the columns
    being the heights with x2 <= Bj, below which the xi tuple has no points.
    The rows of a chunk of ``_visit_chunks`` are counted in batches of at
    most _BATCH classes, or of one row (``_class_counts``)."""
    heights = np.array(Bs, dtype=np.int64)
    for chunk, (tup, t1, A, roots, first, last) in _visit_chunks(Bs[-1], frames):
        xis = chunk.xi.tolist()
        at = np.searchsorted(tup, np.arange(len(xis) + 1))  # each tuple's first visit
        classes = np.diff(np.concatenate(([0], np.cumsum(last - first)))[at])
        at = at.tolist()
        for a, b in _batches(classes):
            part = slice(at[a], at[b])
            visits = (tup[part] - a, t1[part], A[part], roots, first[part], last[part])
            counted = _class_counts(heights, chunk._make(column[a:b] for column in chunk), visits)
            for i, ns in enumerate(counted, a):  # to its end, which frees its arrays
                yield tuple(xis[i]), t1[at[i]:at[i + 1]], ns


def _scan_part(args):
    """Points of every parts-th xi tuple at B, from the part-th on, by the tau2 scan."""
    B, parts, part, scheme = args
    frames = _frames(B, scheme)
    return sum(1 for _ in _scan(B, frames._make(column[part::parts] for column in frames)))


def _grid_part(args):
    """Points at each height of Bs of every parts-th xi tuple, from the part-th on."""
    Bs, parts, part, scheme = args
    frames = _frames(Bs[-1], scheme)
    frames = frames._make(column[part::parts] for column in frames)
    counts = np.zeros(len(Bs), np.int64)
    for _, _, ns in _grid_class_counts(Bs, frames):
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
    """Exact N(B) by torsor enumeration with a scanned tau2 loop; a B above
    the height limit raises before any worker starts (``_class_height``)."""
    t0 = time.perf_counter()
    _class_height(B)
    partial, shards = _sharded(_scan_part, B, threads, scheme)
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
