import collections
import math
from fractions import Fraction

import pytest

from e6cubic import counting, surface, torsor, verify
from e6cubic.counting import HeightBounds, _count_part


class TestOracleEquivalence:
    def test_matches_brute_scan_up_to_60(self):
        brute = surface.brute_counts_upto(60)
        assert counting.counts_upto(60, fast=False) == brute
        assert counting.counts_upto(60, fast=True) == brute

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


class TestClassCount:
    @pytest.mark.parametrize(
        "scheme",
        [torsor.T1_SCHEME, torsor.T1_SCHEME.without_pair("xi1", "xi2")],
        ids=["T1", "T1-without-xi1-xi2"],
    )
    def test_matches_class_walk_per_visit(self, scheme):
        for B in (1, 37, 100, 500, 2000, 10**4):
            walked = collections.Counter(
                (xi, t1) for xi, t1, *_ in counting._solutions(B, scheme, True)
            )
            counted = {}
            for xi, t1, n in counting._class_counts(B, scheme):
                assert (xi, t1) not in counted
                counted[(xi, t1)] = n
            assert {k: n for k, n in counted.items() if n} == dict(walked), B

    def test_count_avoiding_matches_scan(self):
        bad = [(2, [1]), (3, [0, 2]), (5, [1, 4]), (7, [3])]
        for lo in range(-12, 5):
            for hi in range(lo - 1, 250, 7):
                scan = sum(
                    1
                    for k in range(lo, hi + 1)
                    if all(k % p not in residues for p, residues in bad)
                )
                assert counting._count_avoiding(lo, hi, bad) == scan


class TestPartitioning:
    def test_partition_sums_to_total(self):
        for B in (1, 150):
            total = counting.count_torsor_fast(B).count
            for fast in (True, False):
                for parts in (2, 3, 5):
                    sliced = sum(
                        _count_part((B, fast, parts, p, torsor.T1_SCHEME))
                        for p in range(parts)
                    )
                    assert sliced == total, (B, fast, parts)

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
        scan = sorted(t.coords() for t in counting.enumerate_torsor_points(80, fast=False))
        walk = sorted(t.coords() for t in counting.enumerate_torsor_points(80, fast=True))
        assert scan == walk


class TestHeightBounds:
    def test_integer_forms_match_float_forms(self):
        B = 80
        for t in counting.enumerate_torsor_points(B):
            hb = HeightBounds(B, t.xi)
            assert hb.admissible()
            # x2 bound vs X0 <= 1
            assert (hb.X0() <= 1) == (hb.x2 <= B)
            # tau ranges against the scaled float forms
            if t.tau1:
                exact = Fraction(abs(t.tau1) * hb.x3_unit, B)
                scaled = abs(t.tau1 / hb.X1()) * hb.X0() ** 4
                assert math.isclose(float(exact), scaled, rel_tol=1e-9)
                assert exact <= 1
            if t.tau2:
                exact = Fraction(abs(t.tau2) * hb.x0_unit, B)
                scaled = abs(t.tau2 / hb.X2()) * hb.X0() ** 3
                assert math.isclose(float(exact), scaled, rel_tol=1e-9)
                assert exact <= 1
            assert abs(t.tau1) <= hb.tau1_max()
            assert abs(t.tau2) <= hb.tau2_max()

    def test_x1_bound_is_the_equation_combination(self):
        # |tauL| <= B encodes |(tau2/X2)^2 + (tau1/X1)^3| <= 1
        B = 60
        for t in counting.enumerate_torsor_points(B):
            hb = HeightBounds(B, t.xi)
            lhs = (t.tau2 / hb.X2()) ** 2 + (t.tau1 / hb.X1()) ** 3
            assert math.isclose(lhs, -t.tauL / B, rel_tol=1e-9, abs_tol=1e-9)
            assert abs(t.tauL) <= B


class TestSchemeInjection:
    def test_dropping_coprimality_creates_duplicates(self):
        # xi3-tau1 coprimality separates the two normal forms; dropping it
        # admits both representatives of the same point, which the harness
        # must flag as duplicate images
        mutant = torsor.T1_SCHEME.without_pair("xi3", "tau1")
        assert verify.duplicate_images_with_scheme(mutant, B=60)

    def test_reference_scheme_is_duplicate_free(self):
        assert not verify.duplicate_images_with_scheme(torsor.T1_SCHEME, B=60)

    def test_equation_makes_xi1_xi2_coprimality_redundant(self):
        # a shared prime of xi1 and xi2 would divide tauL through the
        # equation, which the tauL conditions already forbid; dropping the
        # pair therefore changes nothing
        inert = torsor.T1_SCHEME.without_pair("xi1", "xi2")
        assert (
            counting.count_torsor_fast(100, scheme=inert).count
            == counting.count_torsor_fast(100).count
        )

    def test_tau_tau_pairs_unsupported(self):
        weird = torsor.T1_SCHEME.with_pair("tau1", "tau2")
        with pytest.raises(NotImplementedError):
            counting.count_torsor(10, scheme=weird)


class TestMonotonicity:
    def test_counts_monotone(self):
        counts = counting.counts_upto(120)
        assert all(a <= b for a, b in zip(counts, counts[1:]))
