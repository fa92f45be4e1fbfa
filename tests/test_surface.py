import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e6cubic import surface

# Counts N(B) for B = 0..20, frozen from an exhaustive triple-loop scan
# run before the torsor machinery was built.
FROZEN_COUNTS = [
    0, 7, 9, 13, 21, 27, 29, 31, 55, 73, 81,
    85, 91, 95, 95, 103, 133, 147, 149, 161, 169,
]

B1_POINTS = {
    (-1, -1, 1, 0), (-1, 0, 1, -1), (0, -1, 1, 1), (0, 0, 1, 0),
    (0, 1, 1, -1), (1, -1, 1, 0), (1, 0, 1, -1),
}


def oracle_points(B):
    """Direct triple loop, no divisibility shortcuts, in the scan's order."""
    pts = []
    for x2 in range(1, B + 1):
        for x3 in range(-B, B + 1):
            for x0 in range(-B, B + 1):
                num = -(x2 * x0 * x0 + x3**3)
                if num % (x2 * x2):
                    continue
                x1 = num // (x2 * x2)
                if abs(x1) > B:
                    continue
                if math.gcd(math.gcd(x0, x1), math.gcd(x2, x3)) != 1:
                    continue
                pts.append((x0, x1, x2, x3))
    return pts


class TestNormalize:
    def test_divides_gcd(self):
        assert surface.normalize((2, -4, 2, 2)).coords() == (1, -2, 1, 1)

    def test_fixed_point(self):
        assert surface.normalize((0, 0, 1, 0)).coords() == (0, 0, 1, 0)

    def test_sign_rule(self):
        assert surface.normalize((0, 0, -3, 0)).coords() == (0, 0, 1, 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            surface.normalize((0, 0, 0, 0))

    def test_rejects_off_surface(self):
        with pytest.raises(ValueError):
            surface.normalize((1, 1, 1, 1))

    @given(st.sampled_from(sorted(B1_POINTS)), st.integers(min_value=-9, max_value=9))
    @settings(max_examples=120, deadline=None)
    def test_scale_invariance_and_idempotence(self, coords, k):
        if k == 0:
            return
        scaled = tuple(k * v for v in coords)
        p = surface.normalize(scaled)
        assert p == surface.normalize(p.coords())
        assert p == surface.normalize(coords)

    def test_point_type_enforces_invariants(self):
        with pytest.raises(ValueError):
            surface.RationalPoint(2, -4, 2, 2)  # not primitive
        with pytest.raises(ValueError):
            surface.RationalPoint(0, 0, -1, 0)  # sign rule
        with pytest.raises(ValueError):
            surface.RationalPoint(1, 1, 1, 1)  # off the surface


class TestLineAndHeight:
    def test_singularity_on_line(self):
        assert surface.on_line(surface.RationalPoint(0, 1, 0, 0))

    def test_generic_points_off_line(self):
        assert not surface.on_line(surface.RationalPoint(0, 0, 1, 0))
        assert not surface.on_line(surface.RationalPoint(1, -2, 1, 1))

    def test_heights(self):
        assert surface.height(surface.RationalPoint(0, 0, 1, 0)) == 1
        assert surface.height(surface.RationalPoint(1, -2, 1, 1)) == 2
        assert surface.height(surface.RationalPoint(4, -3, 8, 4)) == 8


class TestBruteCount:
    def test_empty_range(self):
        assert surface.brute_count(0).count == 0

    def test_seven_points_at_height_one(self):
        pts = {p.coords() for p in surface.brute_points(1)}
        assert pts == B1_POINTS
        assert surface.brute_count(1).count == 7

    def test_matches_inline_oracle(self):
        for B in (2, 5, 9, 12):
            assert [p.coords() for p in surface.brute_points(B)] == oracle_points(B)

    def test_scan_does_not_depend_on_blocks(self, monkeypatch):
        scans = {}
        for cells in (1, 2**62):  # one x3 row per block; every row in one block
            monkeypatch.setattr(surface, "_BLOCK_CELLS", cells)
            scans[cells] = {B: list(surface.brute_points(B)) for B in (0, 1, 2, 5, 12, 40)}
        assert scans[1] == scans[2**62]
        for B, points in scans[1].items():
            if B <= 12:
                assert [p.coords() for p in points] == oracle_points(B)

    def test_refuses_heights_beyond_int64(self, monkeypatch):
        # 2*B^3 >= 2^63 from B = 1664511 on; no array is made before the check
        monkeypatch.setattr(surface, "np", None)
        for B in (1_664_511, 2_000_000):
            with pytest.raises(OverflowError, match=f"B = {B} "):
                next(surface.brute_points(B))

    def test_frozen_table(self):
        assert surface.brute_counts_upto(20) == FROZEN_COUNTS

    def test_monotone(self):
        counts = surface.brute_counts_upto(20)
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_emitted_points_are_valid(self):
        for p in surface.brute_points(15):
            # construction would have raised otherwise; re-check explicitly
            assert surface.surface_form(*p.coords()) == 0
            assert math.gcd(*p.coords()) == 1
            assert not surface.on_line(p)
            assert surface.height(p) <= 15
