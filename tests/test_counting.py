import collections
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e6cubic import arith, counting, surface, torsor


def scanned(B, scheme=torsor.T1_SCHEME):
    """The torsor solutions of the tau2 scan, the counter's plain oracle."""
    return counting._scan(B, counting._frames(B, scheme))


def xi_tuples(frames):
    """The xi tuples of a frame table, in its order."""
    return list(map(tuple, frames.xi.tolist()))


def frame_rows(frames):
    """The rows of a frame table as tuples (xi, x2, m0, m3, fl, f1, c1, c2, cl, t1max, t2max)."""
    return list(zip(xi_tuples(frames), *(column.tolist() for column in frames[1:])))


class TestOracleEquivalence:
    def test_matches_brute_scan_up_to_60(self):
        # equal point lists at 60 give equal counts at every B <= 60
        scan = sorted(
            surface.RationalPoint(m0 * t2, tl, x2, m3 * t1)
            for _, t1, t2, tl, x2, m0, m3 in scanned(60)
        )
        assert scan == sorted(surface.brute_points(60))
        assert counting.counts_upto(60) == surface.brute_counts_upto(60)

    def test_spot_counts(self):
        for B in (1, 37, 100):
            scan = counting.count_torsor(B).count
            fast = counting.count_torsor_fast(B).count
            assert scan == fast == surface.brute_count(B).count

    def test_trivial_bounds(self):
        assert counting.count_torsor(0).count == 0
        assert counting.count_torsor_fast(0).count == 0
        assert counting.count_torsor(1).count == 7

    def test_point_sets_agree(self):
        brute = set(surface.brute_points(40))
        torsor_pts = set(counting.enumerate_points(40))
        assert torsor_pts == brute


def tau2_window(bfl, A, xi2, t2max):
    """The tau2 window (lo, hi) of a height B, with bfl = B * fl, in scalar ints."""
    hi_num = bfl - A
    if hi_num < 0:
        return 0, -1
    lo_num = -bfl - A
    lo = math.isqrt(-((-lo_num) // xi2) - 1) + 1 if lo_num > 0 else 0  # ceil(lo_num / xi2)
    return lo, min(t2max, math.isqrt(hi_num // xi2))


def reference_visits(B, xi2, fl, f1, c1, t1max, t2max):
    """The tau1 visits of one xi tuple, one tau1 and one root solve at a time."""
    for run in (range(0, t1max + 1), range(-1, -t1max - 1, -1)):
        for t1 in run:
            if math.gcd(t1, c1) != 1:
                continue
            A = t1**3 * f1
            lo, hi = tau2_window(B * fl, A, xi2, t2max)
            if hi < 0 or lo > t2max:
                break  # both stay so for every larger |t1|
            roots = arith.sqrt_mod(-A * pow(xi2, -1, fl), fl)
            if roots:
                yield t1, A, roots, lo, hi


class TestClassCount:
    # in T1 every prime of fl = xiL^3*xi4^2*xi5 divides c2; without the
    # tau2-xi4 pair a prime of xi4 alone divides fl but not c2.  Without the
    # tau1-xiL pair a class can have every tau2 divisible by a prime of fl,
    # and its targets need not be units mod fl; with the tau2-xi6 pair every
    # tau2 residue can be bad at a free prime
    SCHEMES = pytest.mark.parametrize(
        "scheme, top",
        [
            (torsor.T1_SCHEME, 10**4),
            (torsor.T1_SCHEME.without_pair("xi1", "xi2"), 10**4),
            (torsor.T1_SCHEME.without_pair("tau2", "xi4"), 10**4),
            (torsor.T1_SCHEME.without_pair("tau1", "xiL"), 2000),
            (torsor.T1_SCHEME.with_pair("tau2", "xi6"), 2000),
            (torsor.T2_SCHEME, 10**4),
        ],
        ids=[
            "T1", "T1-without-xi1-xi2", "T1-without-tau2-xi4", "T1-without-tau1-xiL",
            "T1-with-tau2-xi6", "T2",
        ],
    )
    HEIGHTS = (1, 37, 100, 500, 2000, 10**4)

    @SCHEMES
    def test_visits_match_scalar_reference(self, scheme, top):
        # every visit of every xi tuple as the shared chunks give it, with
        # its tau2 window as the walk forms it
        for B in (b for b in self.HEIGHTS if b <= top):
            tuples = []
            frames = counting._frames(B, scheme)
            for chunk, (tup, t1, A, roots, first, last) in counting._visit_chunks(B, frames):
                lo, hi = counting._tau2_windows(B * chunk.fl[tup], A, chunk.xi[tup, 1], chunk.t2max[tup])
                got = collections.defaultdict(list)
                columns = (x.tolist() for x in (tup, t1, A, first, last, lo, hi))
                for v, t, a, i, j, l, h in zip(*columns):
                    got[v].append((t, a, roots[i:j].tolist(), l, h))
                for v, (xi, _, _, _, fl, f1, c1, _, _, t1max, t2max) in enumerate(frame_rows(chunk)):
                    args = (B, xi[1], fl, f1, c1, t1max, t2max)
                    assert got[v] == list(reference_visits(*args)), (B, xi)
                tuples += xi_tuples(chunk)
            assert tuples == xi_tuples(frames), B

    @SCHEMES
    def test_walk_visits_in_canonical_order(self, scheme, top):
        # the xi tuples in the frame table's order, each in one run of
        # visits, and within a tuple tau1 = 0, 1, ... and then -1, -2, ...
        for B in (b for b in self.HEIGHTS if b <= 2000):
            rank = {xi: k for k, xi in enumerate(xi_tuples(counting._frames(B, scheme)))}
            keys = [(rank[xi], t1 < 0, abs(t1)) for xi, t1, *_ in counting._walk(B, scheme)]
            keys = [key for k, key in enumerate(keys) if k == 0 or key != keys[k - 1]]
            assert keys == sorted(set(keys)), B

    @SCHEMES
    def test_tau1_arrays_fit_under_the_height_limit(self, scheme, top):
        # _MAX_CLASS_HEIGHT's bound: a_max = B*fl + t2max^2*xi2 <= 2B^2 for
        # every xi tuple, so |A| <= 2B^2 and the window numerators B*fl + |A|
        # of every visit stay at most 3B^2
        for B in (b for b in self.HEIGHTS if b <= top):
            frames = counting._frames(B, scheme)
            for xi, _, _, _, fl, _, _, _, _, _, t2max in frame_rows(frames):
                a_max = B * fl + t2max * t2max * xi[1]
                assert a_max <= 2 * B * B, (B, xi)
            for chunk, (tup, _, A, *_) in counting._visit_chunks(B, frames):
                assert (B * chunk.fl[tup] + np.abs(A) <= 3 * B * B).all(), B
        # the tuple that nearly attains it, at the limit, without counting
        B = counting._MAX_CLASS_HEIGHT
        xi = (1, 1, 1, round(B ** (1 / 3)), 1, 1, 1)
        assert xi[3] ** 3 <= B < (xi[3] + 1) ** 3
        fl, m0 = torsor.monomial(xi, torsor.FL_EXPONENTS), torsor.monomial(xi, torsor.X0_EXPONENTS)
        a_max = B * fl + (B // m0) ** 2 * xi[1]
        assert 1.99 * B * B < a_max < 1 << 62

    def test_height_limit_proof_holds_on_every_row_at_the_limit(self):
        # each inequality of the proof above _MAX_CLASS_HEIGHT, in Python ints,
        # on every row of the T1 frame table at the limit, where it is tight
        B = counting._MAX_CLASS_HEIGHT
        frames = counting._frames(B, torsor.T1_SCHEME)
        assert frames.x2.size == 268_680
        columns = (frames.x2, frames.fl, frames.t2max)
        for xi, x2, fl, t2max in zip(frames.xi.tolist(), *(column.tolist() for column in columns)):
            xi2, xiL = xi[1], xi[3]
            assert fl <= x2 <= B, xi
            a_max = B * fl + t2max * t2max * xi2
            assert a_max < 1 << 62 and B * fl + a_max < 3 << 61, xi
            assert math.prod(xi) ** 2 <= B, xi
            assert fl * max(xi[3:6]) * xi2 <= x2 * xiL and (x2 * xiL) ** 3 <= B**4, xi

    @staticmethod
    def iroot(n, e):
        """floor(n^(1/e)), exactly."""
        s = round(n ** (1 / e))
        while s**e > n:
            s -= 1
        while (s + 1) ** e <= n:
            s += 1
        return s

    def test_iroot_is_exact_below_three_times_two_to_the_61(self):
        # the window numerators reach 3B^2 < 3 * 2^61 under the height limit,
        # and the nest takes roots of B // x2 for e = 2, ..., 6: s^e - 1, s^e
        # and s^e + 1 for the top roots s and for small ones
        top = 3 << 61
        rng = random.Random(5)
        for e in range(2, 7):
            k = self.iroot(top - 1, e)
            n = [s**e + d for s in [*range(k - 50, k + 1), *range(60)] for d in (-1, 0, 1)]
            n += [rng.randrange(1 << 62, top) for _ in range(2000)] + [top - 1, 0, 1]
            n = [x for x in n if 0 <= x < top]
            got = counting._iroot_array(np.array(n, np.int64), e).tolist()
            assert got == [self.iroot(x, e) for x in n], e

    @SCHEMES
    def test_frames_match_monomials(self, scheme, top):
        # torsor.monomial is the scalar definition, and the tau partner
        # vectors come from the scheme's own coprime_partners
        partners = [
            [int(name in scheme.coprime_partners(tau)) for name in torsor.XI_NAMES]
            for tau in torsor.TAU_NAMES
        ]
        exps = (torsor.LAMBDA, torsor.X0_EXPONENTS, torsor.X3_EXPONENTS,
                torsor.FL_EXPONENTS, torsor.F1_EXPONENTS, *partners)
        for xi, *monos, t1max, t2max in frame_rows(counting._frames(top, scheme)):
            want = [torsor.monomial(xi, e) for e in exps]
            assert (monos, t1max, t2max) == (want, top // want[2], top // want[1]), xi

    @staticmethod
    def boxed_xi_tuples(B, scheme):
        """Every 7-tuple with xi^LAMBDA <= B that xi_scheme_satisfied accepts,
        by a plain box recursion, xi6 outermost and xi1 innermost."""

        def box(i, tail, mono):  # tail = (xi_{i+1}, ..., xi6)
            if i < 0:
                yield tail
                return
            v = 1
            while mono * v ** torsor.LAMBDA[i] <= B:
                yield from box(i - 1, (v,) + tail, mono * v ** torsor.LAMBDA[i])
                v += 1

        return [xi for xi in box(6, (), 1) if torsor.xi_scheme_satisfied(xi, scheme)]

    @SCHEMES
    def test_xi_tuples_match_their_definition(self, scheme, top):
        for B in (0, 1, 37, 500, 2000, 10**4):
            assert xi_tuples(counting._frames(B, scheme)) == self.boxed_xi_tuples(B, scheme), B

    @SCHEMES
    def test_matches_class_walk_per_visit(self, scheme, top):
        for B in (b for b in self.HEIGHTS if b <= top):
            walked = collections.Counter(
                (xi, t1) for xi, t1, *_ in counting._walk(B, scheme)
            )
            counted = {}
            for xi, t1s, ns in counting._grid_class_counts((B,), counting._frames(B, scheme)):
                for t1, n in zip(t1s.tolist(), ns[:, 0].tolist()):
                    assert (xi, t1) not in counted
                    counted[(xi, t1)] = n
            assert {k: n for k, n in counted.items() if n} == dict(walked), B

    def test_t2_count_equals_t1_count(self):
        # the second scheme is a second witness of every count
        for B, n in ((100, 1_477), (1000, 27_145), (10**4, 440_199)):
            assert counting.count_torsor_fast(B, scheme=torsor.T2_SCHEME).count == n
            assert counting.count_torsor_fast(B).count == n

    @staticmethod
    def avoiding(windows, bad):
        """The counts of _avoiding_terms' terms with one class per row of
        windows, whose columns are (lo, hi) pairs, the last the widest: the
        terms are made on the last column and counted in every column by
        _term_counts; every class has the same bad set."""
        k_lo, k_hi = (np.array([[w[i] for w in row] for row in windows]) for i in (0, 1))
        rows = len(windows)
        arrays = []
        for p, residues in bad:
            res = np.array([list(residues) + [-1] * (3 - len(residues))] * rows)
            arrays.append((res % p, res >= 0))
        primes = np.array([[p for p, _ in bad]], np.int64).reshape(1, len(bad))
        grp = np.zeros(rows, np.int64)
        cls, terms = counting._avoiding_terms(k_lo[:, -1], k_hi[:, -1], grp, primes, arrays)
        columns = [counting._term_counts(lo, hi, cls, terms) for lo, hi in zip(k_lo.T, k_hi.T)]
        return np.column_stack(columns).tolist()

    @staticmethod
    def scan(lo, hi, bad):
        return sum(
            1 for k in range(lo, hi + 1) if all(k % p not in residues for p, residues in bad)
        )

    def test_count_avoiding_matches_scan(self):
        bad = [(2, [1]), (3, [0, 2]), (5, [1, 4]), (7, [3])]
        windows = [
            [(lo, hi)] for lo in range(-12, 5) for hi in range(lo - 1, 250, 7)
        ]
        assert self.avoiding(windows, bad) == [[self.scan(lo, hi, bad)] for [(lo, hi)] in windows]

    def test_count_avoiding_random_bad_sets(self):
        rng = random.Random(11)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
        for _ in range(60):
            bad = [
                (p, rng.sample(range(p), rng.randint(1, min(3, p))))
                for p in rng.sample(primes, rng.randint(0, 5))
            ]
            windows = []
            for _ in range(20):
                lo = rng.randint(-400, 100)
                hi = lo + rng.choice([-1, 0, 1, rng.randint(2, 600)])  # empty, one point, ...
                inner = []
                for _ in range(3):  # inside (lo, hi), or empty with hi = lo - 1
                    a = rng.randint(lo, hi + 1)
                    inner.append((a, rng.randint(a - 1, hi)))
                windows.append(inner + [(lo, hi)])
            expected = [[self.scan(a, b, bad) for a, b in row] for row in windows]
            assert self.avoiding(windows, bad) == expected, bad

    @staticmethod
    def batched(monkeypatch, cap, Bs, scheme):
        """_grid_class_counts as lists, with the batch cap set to cap, and the
        number of class batches it counted."""
        passes = []
        class_counts = counting._class_counts

        def counted(*args):
            passes.append(1)
            return class_counts(*args)

        monkeypatch.setattr(counting, "_BATCH", cap)
        monkeypatch.setattr(counting, "_class_counts", counted)
        frames = counting._frames(Bs[-1], scheme)
        rows = [
            (xi, t1.tolist(), ns.tolist()) for xi, t1, ns in counting._grid_class_counts(Bs, frames)
        ]
        return rows, len(passes)

    @staticmethod
    def runs(sizes):
        """_batches' runs of sizes as lists of item indices."""
        return [list(range(a, b)) for a, b in counting._batches(sizes)]

    def test_batches_keep_under_the_cap(self, monkeypatch):
        monkeypatch.setattr(counting, "_BATCH", 10)
        assert self.runs([4, 6, 11, 0, 3, 8]) == [[0, 1], [2], [3, 4], [5]]
        assert self.runs([0, 0, 10, 0, 1]) == [[0, 1, 2, 3], [4]]
        assert self.runs(np.array([3, 3, 3, 3], np.int64)) == [[0, 1, 2], [3]]
        assert self.runs([]) == []

    @given(st.lists(st.integers(0, 40), max_size=30), st.integers(-1, 300))
    @settings(max_examples=300, deadline=None)
    def test_batches_pack_greedily_under_the_cap(self, sizes, cap):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(counting, "_BATCH", cap)
            batches = self.runs(sizes)
        assert [k for batch in batches for k in batch] == list(range(len(sizes)))
        for batch, after in zip(batches, batches[1:] + [None]):
            total = sum(sizes[k] for k in batch)
            assert len(batch) == 1 or total <= cap, batch
            if after:  # the next item would not have fit
                assert total + sizes[after[0]] > cap, (batch, after)

    # a geometric grid whose low heights lie below the x2 of some xi tuples
    # and the m3*|tau1| of some visits, and a dense one
    CELL_GRIDS = [tuple(sorted({round(10 * 50 ** (k / 12)) for k in range(13)})), tuple(range(1, 301))]

    @SCHEMES
    def test_counts_do_not_depend_on_batches(self, scheme, top, monkeypatch):
        # a cap below every size puts each xi tuple in a batch of its own, a cap
        # above their sum puts all in one; the small grid's lower heights lie
        # below the x2 of some tuples of the batch
        grids = [(B,) for B in self.HEIGHTS if B <= top] + [tuple(sorted(set(TestGrid.SMALL_GRID)))]
        for Bs in grids:
            alone, passes = self.batched(monkeypatch, -1, Bs, scheme)
            assert passes == len(alone)
            together, passes = self.batched(monkeypatch, 1 << 62, Bs, scheme)
            assert passes == 1
            assert together == alone, Bs

    @SCHEMES
    def test_cells_match_class_walk_at_every_height(self, scheme, top, monkeypatch):
        # caps of 1, 3 and 7 cut a visit's classes and a tuple's visits into
        # several blocks of cells; every visit's counts equal the class walk's
        # at every height, and it has no points below its columns
        for Bs in self.CELL_GRIDS:
            walked = collections.defaultdict(list)  # the heights of each visit's points
            for xi, t1, t2, tl, x2, m0, m3 in counting._walk(Bs[-1], scheme):
                walked[xi, t1].append(max(x2, m0 * abs(t2), m3 * abs(t1), abs(tl)))
            for cap in (1, 3, 7):
                seen = set()
                for xi, t1s, ns in self.batched(monkeypatch, cap, Bs, scheme)[0]:
                    for t1, row in zip(t1s, ns):
                        heights = np.sort(walked.get((xi, t1), []))
                        below = Bs[: len(Bs) - len(row)]  # the heights without a column
                        assert row == np.searchsorted(heights, Bs[len(below):], "right").tolist(), (xi, t1)
                        assert not below or not np.any(heights <= below[-1]), (xi, t1)
                        seen.add((xi, t1))
                assert seen >= walked.keys(), (Bs, cap)

    @SCHEMES
    def test_class_arrays_fit_under_the_height_limit(self, scheme, top):
        # _MAX_CLASS_HEIGHT's bound on the class arrays: the primes of c2*cl
        # times the largest is at most B, and fl*p*xi2 <= x2*xiL <= B^(4/3)
        # for each prime p of fl
        for B in (b for b in self.HEIGHTS if b <= top):
            for xi, x2, _, _, fl, _, _, c2, cl, _, _ in frame_rows(counting._frames(B, scheme)):
                primes = [p for p, _ in arith.factorize(c2 * cl)]
                assert math.prod(primes) * max(primes, default=1) <= B, (B, xi)
                for p in (p for p, _ in arith.factorize(fl)):
                    assert fl * p * xi[1] <= x2 * xi[3] and (x2 * xi[3]) ** 3 <= B**4, (B, xi)


class TestGrid:
    GRIDS = [
        [10**4, 1, 0, 5000, 37, 37, 2000, 999, 1000, 1001],  # unsorted, repeats, 0 and 1
        [round(100 * 100 ** (k / 24)) for k in range(25)],  # geometric, 100 to 1e4
        list(range(90, 131)) + [130, 90],  # consecutive heights
        random.Random(3).sample(range(2, 3000), 30),
    ]

    SMALL_GRID = [2000, 0, 1, 37, 100, 101, 500, 999, 1000, 1499, 1999, 37]
    # GRIDS are kept for the first two schemes of TestClassCount
    WIDE = (torsor.T1_SCHEME, torsor.T1_SCHEME.without_pair("xi1", "xi2"))

    @TestClassCount.SCHEMES
    def test_matches_per_height_count(self, scheme, top):
        # the small grid against the class walk, an independent count, and the
        # wider grids against the grid on each of their heights alone
        walk = counting.counts_upto(max(self.SMALL_GRID), scheme)
        cases = [(self.SMALL_GRID, {B: walk[B] for B in self.SMALL_GRID})]
        for heights in self.GRIDS if scheme in self.WIDE else []:
            alone = {B: counting.count_torsor_fast(B, scheme=scheme).count for B in set(heights)}
            cases.append((heights, alone))
        for heights, expected in cases:
            for threads in (1, 2):
                reports = counting.count_torsor_grid(heights, threads=threads, scheme=scheme)
                assert [r.B for r in reports] == heights
                assert [r.count for r in reports] == [expected[B] for B in heights], threads

    def test_matches_class_walk_at_every_height(self):
        grid = counting.count_torsor_grid(range(2001))
        assert [r.count for r in grid] == counting.counts_upto(2000)

    def test_reports_share_one_pass(self):
        reports = counting.count_torsor_grid([5, 3, 5], threads=2)
        assert [(r.B, r.count, r.method, r.parts) for r in reports] == [
            (5, 27, "fast", 2), (3, 13, "fast", 2), (5, 27, "fast", 2),
        ]
        assert len({r.elapsed_s for r in reports}) == 1
        assert counting.count_torsor_grid([]) == []


class TestNegativeHeight:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: counting.counts_upto(-3),
            lambda: list(counting.enumerate_points(-3)),
            lambda: list(counting.enumerate_torsor_points(-3)),
            lambda: counting.count_torsor(-3),
            lambda: counting.count_torsor_fast(-3),
            lambda: counting.count_torsor_fast(-3, threads=2),
            lambda: counting.count_torsor_grid([5, -3, 1]),
            lambda: counting.count_torsor_grid([-3], threads=2),
            lambda: surface.brute_counts_upto(-3),
        ],
        ids=[
            "counts_upto", "enumerate_points", "enumerate_torsor_points", "count_torsor",
            "count_torsor_fast", "count_torsor_fast-2", "count_torsor_grid", "count_torsor_grid-2", "brute_counts_upto",
        ],
    )
    def test_one_message(self, call):
        with pytest.raises(ValueError, match="^height bound must be non-negative$"):
            call()


class TestOversizedHeight:
    @pytest.mark.parametrize(
        "B, call",
        [
            (10**14, lambda: counting.count_torsor_fast(10**14)),
            (10**14, lambda: counting.count_torsor_grid([10**14], threads=2)),
            (10**14, lambda: list(counting.enumerate_points(10**14))),
            (10**12, lambda: counting.counts_upto(10**12)),
            (2 * 10**6, lambda: surface.brute_counts_upto(2 * 10**6)),
            (2**63, lambda: counting.count_torsor(2**63)),
        ],
        ids=[
            "count_torsor_fast", "count_torsor_grid-2", "enumerate_points", "counts_upto",
            "brute_counts_upto", "count_torsor",
        ],
    )
    def test_refused_before_allocating(self, B, call, monkeypatch):
        refused_at_the_call(B, call, monkeypatch)

    ABOVE = 1_518_500_250  # the proven limit, plus 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda B: counting.count_torsor_fast(B),
            lambda B: counting.count_torsor_grid([1, B, 2], threads=2),
            lambda B: list(counting.enumerate_points(B)),
            lambda B: counting.counts_upto(B),
            lambda B: counting.count_torsor(B, threads=2),
        ],
        ids=["count_torsor_fast", "count_torsor_grid-2", "enumerate_points", "counts_upto", "count_torsor"],
    )
    def test_refused_just_above_the_limit(self, call, monkeypatch):
        # the old first-tuple check let heights from about 1.519e9 to 2^31
        # start and fail partway through; a count that starts fails at once
        def started(*args):
            raise AssertionError("the count started")

        monkeypatch.setattr(counting, "_frames", started)
        refused_at_the_call(self.ABOVE, lambda: call(self.ABOVE), monkeypatch)

    def test_limit_is_accepted_at_the_call(self, monkeypatch):
        # 2B^2 < 2^62 at the limit and not above; the class count reaches its
        # shards and the walk returns its iterator, neither started here
        B = counting._MAX_CLASS_HEIGHT
        assert B == 1_518_500_249 and 2 * B * B < 1 << 62 <= 2 * (B + 1) ** 2
        sharded = []  # the stub's one shard counts each height as itself
        monkeypatch.setattr(
            counting, "_sharded", lambda worker, Bs, threads, scheme: sharded.append(Bs) or ([Bs], 1)
        )
        assert counting.count_torsor_fast(B).count == B
        assert [r.count for r in counting.count_torsor_grid([B, 1], threads=2)] == [B, 1]
        assert sharded == [(B,), (1, B)]
        counting.enumerate_points(B)
        counting.enumerate_torsor_points(B)


def refused_at_the_call(B, call, monkeypatch):
    """call() raises OverflowError for B, having made nothing that grows with
    B and started no pool: the class count's tables grow like sqrt(B), the
    histograms like B."""
    monkeypatch.setattr(counting, "Pool", None)
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError, match=f"B = {B} is too large"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


class TestPartitioning:
    def test_partition_sums_to_total(self):
        # both shard workers, against the class walk: the scan's at one height,
        # the grid's summed per height
        grid = (0, 1, 2, 37, 100, 149, 150)
        for scheme in (torsor.T1_SCHEME, torsor.T2_SCHEME):
            walk = counting.counts_upto(150, scheme)
            for parts in (2, 3, 5):
                for B in (1, 150):
                    sliced = sum(counting._scan_part((B, parts, p, scheme)) for p in range(parts))
                    assert sliced == walk[B], (scheme, B, parts)
                shards = [counting._grid_part((grid, parts, p, scheme)) for p in range(parts)]
                assert [sum(col) for col in zip(*shards)] == [walk[B] for B in grid], (scheme, parts)

    def test_worker_pool_matches_sequential(self):
        lone = counting.count_torsor_fast(200).count
        pooled = counting.count_torsor_fast(200, threads=2)
        assert pooled.count == lone
        assert pooled.parts == 2
        scanned = counting.count_torsor(200, threads=2)
        assert scanned.count == counting.count_torsor(200).count == lone
        assert scanned.parts == 2

    def test_enumeration_deterministic(self):
        first = list(counting.enumerate_points(80))
        second = list(counting.enumerate_points(80))
        assert first == second


class TestEnumeration:
    def test_no_duplicates_up_to_ten_thousand(self):
        seen = set()
        for p in counting.enumerate_points(10**4):
            assert p not in seen
            seen.add(p)
        assert len(seen) == counting.count_torsor_fast(10**4).count

    def test_emitted_points_valid(self):
        for p in counting.enumerate_points(50):
            assert surface.surface_form(*p.coords()) == 0
            assert not surface.on_line(p)
            assert surface.height(p) <= 50

    def test_torsor_points_satisfy_conditions(self):
        for t in counting.enumerate_torsor_points(50):
            assert torsor.satisfies_scheme(t, torsor.T1_SCHEME)
            assert torsor.torsor_residual(t.coords()) == 0

    def test_scan_and_class_walk_agree_pointwise(self):
        scan = sorted(xi + (t1, t2, tl) for xi, t1, t2, tl, *_ in scanned(80))
        walk = sorted(t.coords() for t in counting.enumerate_torsor_points(80))
        assert scan == walk


class TestSchemeInjection:
    @staticmethod
    def images(scheme):
        return [torsor.psi(t) for t in counting.enumerate_torsor_points(60, scheme)]

    def test_dropping_coprimality_creates_duplicates(self):
        # xi3-tau1 coprimality separates the two normal forms; dropping it
        # admits both representatives of the same point, which must show as
        # duplicate images of the same point set
        images = self.images(torsor.T1_SCHEME.without_pair("xi3", "tau1"))
        assert len(set(images)) < len(images)
        assert set(images) == set(self.images(torsor.T1_SCHEME))

    def test_reference_scheme_is_duplicate_free(self):
        images = self.images(torsor.T1_SCHEME)
        assert len(set(images)) == len(images)

    def test_equation_makes_xi1_xi2_coprimality_redundant(self):
        # a shared prime of xi1 and xi2 would divide tauL through the
        # equation, which the tauL conditions already forbid; dropping the
        # pair therefore changes nothing
        inert = torsor.T1_SCHEME.without_pair("xi1", "xi2")
        assert (
            counting.count_torsor_fast(100, scheme=inert).count
            == counting.count_torsor_fast(100).count
        )

    def test_equation_makes_tau2_xi4_coprimality_redundant(self):
        # a shared prime of tau2 and xi4 would divide tau1^3*xi1^2*xi3
        # through the equation, and T1 makes xi4 coprime to all three; the
        # class count then meets a prime of fl that tau2 need not avoid
        inert = torsor.T1_SCHEME.without_pair("tau2", "xi4")
        assert (
            counting.count_torsor_fast(100, scheme=inert).count
            == counting.count_torsor_fast(100).count
            == 1477
        )

    @pytest.mark.parametrize(
        "entry",
        [
            lambda s: counting.count_torsor(10, scheme=s),
            lambda s: counting.count_torsor_fast(10, scheme=s),
            lambda s: counting.count_torsor_grid([5, 10], threads=2, scheme=s),
            lambda s: list(counting.enumerate_points(10, s)),
            lambda s: counting.counts_upto(10, s),
        ],
        ids=["count_torsor", "count_torsor_fast", "count_torsor_grid", "enumerate_points", "counts_upto"],
    )
    @pytest.mark.parametrize(
        "scheme, message",
        [
            (torsor.T1_SCHEME.with_pair("tau1", "tau2"), "tau-tau coprimality is not supported"),
            (torsor.T1_SCHEME.with_squarefree("tau2"), "squarefree taus are not supported"),
        ],
        ids=["tau-tau", "squarefree-tau"],
    )
    def test_tau_tau_pairs_unsupported(self, entry, scheme, message):
        with pytest.raises(NotImplementedError, match=f"^{message}$"):
            entry(scheme)


class TestMonotonicity:
    def test_counts_monotone(self):
        counts = counting.counts_upto(120)
        assert all(a <= b for a, b in zip(counts, counts[1:]))
