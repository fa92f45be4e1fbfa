import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from e6cubic import arith, counting, density

# frozen by a pre-build nested quadrature oracle (cross-checked against the
# reduction 2 + 2*int_0^1 sqrt(1-u^3) du)
G2_AT_ONE = 3.6826185263905455


def limit_constant():
    """C = lim g2 / 2 = int_-1^1 sqrt(1 - u^3) du + int_1^inf (sqrt(1 + s^3) -
    sqrt(s^3 - 1)) ds, at mpmath's working precision."""
    near = mpmath.quad(lambda u: mpmath.sqrt(1 - u**3), [-1, 0, 1])
    far = mpmath.quad(
        lambda s: 2 / (mpmath.sqrt(s**3 + 1) + mpmath.sqrt(s**3 - 1)),
        [1, 2, 10, 100, mpmath.inf],
    )
    return near + far


def g2_by_quadrature(v, digits=30):
    """g2(v) as mpmath's integral of g1's own piecewise formula, split at its
    kinks and at powers of 4 below u = -1, at 6*log10(1/v) + digits digits:
    the capped layer near u = -v^-2 is about v^4 wide."""
    with mpmath.workdps(int(6 * max(0, -math.log10(v))) + digits):
        v = mpmath.mpf(v)
        cap = v**-3

        def g1(u):
            hi_sq, lo_sq = 1 - u**3, -1 - u**3
            if hi_sq <= 0:
                return mpmath.mpf(0)
            lo = mpmath.sqrt(lo_sq) if lo_sq > 0 else 0
            return 2 * max(0, min(mpmath.sqrt(hi_sq), cap) - lo)

        a1 = mpmath.cbrt(max(0, v**-6 - 1))
        e = min(v**-4, mpmath.cbrt(v**-6 + 1))
        ends = {mpmath.mpf(1), mpmath.mpf(-1), -e, -a1}
        u = mpmath.mpf(-4)
        while u > -e:
            ends.add(u)
            u *= 4
        return +mpmath.quad(g1, sorted(x for x in ends if -e <= x <= 1))


class TestAlpha:
    def test_exact_value(self):
        assert density.alpha_exact() == Fraction(1, 6220800)
        assert density.ALPHA == Fraction(1, 6220800)
        assert math.factorial(6) * math.prod(density.LAMBDA) == 6220800

    def test_unit_weights_give_unit_simplex(self):
        assert density.alpha_exact((1,) * 7) == Fraction(1, math.factorial(6))

    def test_monte_carlo_within_three_sigma(self):
        est, err = density.alpha_simplex_check(samples=2 * 10**5, seed=42)
        assert abs(est - float(density.ALPHA)) <= 3 * err

    def test_monte_carlo_unit_weights(self):
        est, err = density.alpha_simplex_check(
            samples=2 * 10**5, seed=4, weights=(1,) * 7
        )
        assert abs(est - 1 / math.factorial(6)) <= 3 * err

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            density.alpha_simplex_check(samples=10)


class TestEulerProduct:
    def test_local_factor_at_two(self):
        assert density.omega_p(2) == Fraction(19, 512)
        assert density.omega_p(2) == Fraction(1, 2) ** 7 * Fraction(19, 4)

    def test_large_primes_approach_one(self):
        assert abs(float(density.omega_p(1_000_003)) - 1) < 1e-9

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            density.omega_p(10)

    def test_log_decay_constant_is_proven(self):
        # _OMEGA_LOG_DECAY's proof: in y = 1/p, omega_p = (1 - y)^7 (1 + 7y + y^2)
        # and, times D = (1 - y)(1 + 7y + y^2), the derivatives of log omega_p
        # and of 27y^2 + log omega_p are -54y - 9y^2 and y^2 (315 - 324y - 54y^2)
        for p in (2, 3, 5, 7, 101):
            y = Fraction(1, p)
            assert density.omega_p(p) == (1 - y) ** 7 * (1 + 7 * y + y * y)

        def dlog(y):  # the derivative of log omega_p in y
            return -7 / (1 - y) + (7 + 2 * y) / (1 + 7 * y + y * y)

        log_omega = lambda t: 7 * mpmath.log(1 - t) + mpmath.log(1 + 7 * t + t * t)
        with mpmath.workdps(30):
            for y in (0.1, 0.25, 0.5):
                assert mpmath.almosteq(mpmath.diff(log_omega, y), dlog(mpmath.mpf(y)), 1e-20)
        # D times either derivative is a polynomial of degree <= 4, so six
        # points fix it
        for k in range(6):
            y = Fraction(k, 10)
            d = (1 - y) * (1 + 7 * y + y * y)
            assert d * dlog(y) == -54 * y - 9 * y * y
            assert d * (54 * y + dlog(y)) == y * y * (315 - 324 * y - 54 * y * y)
        # D > 0, and 315 - 324y - 54y^2 falls on y >= 0 to 139.5 at y = 1/2: on
        # (0, 1/2] log omega_p falls from 0 and 27y^2 + log omega_p rises from 0
        assert 315 - 324 * Fraction(1, 2) - 54 * Fraction(1, 4) == Fraction(279, 2)
        assert density._OMEGA_LOG_DECAY == 27

    def test_log_decay_constant_fits(self):
        # |log omega_p| <= 27/p^2, approached from below as p grows
        worst = 0.0
        for p in (2, 3, 5, 7, 11, 101, 1009, 10007, 99991):
            worst = max(worst, p * p * abs(math.log(float(density.omega_p(p)))))
        print(f"\nfitted decay constant: {worst:.4f} (bound 27)")
        assert worst <= 27.0

    def test_truncation_convergence(self):
        a = density.omega0(10**4)
        b = density.omega0(5 * 10**4)
        assert abs(a.value - b.value) <= a.tail_bound
        assert b.tail_bound < a.tail_bound

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError):
            density.omega0(50)

    @pytest.mark.parametrize("P", [2000, 10**4])
    def test_matches_product_of_exact_factors(self, P):
        # omega0 is G(0) of the log series; the ascending product of the
        # exact factors, each rounded once, is an independent evaluation
        expected = 1.0
        for p in range(2, P + 1):
            if arith.is_prime(p):
                expected *= float(density.omega_p(p))
        assert density.omega0(P).value == pytest.approx(expected, rel=1e-13, abs=0)


def u_section_by_quadrature(u):
    """2 * the integral of min(c, w(t)) over the t band of u, with
    w(t) = min(1, t^(-1/3)) and c = min(1, |u|^(-1/4)), as mpmath's integral
    at 60 digits, split at t = 1 and t = |u|^(3/4): the band below u = -1e9
    is about 3e-14 wide at t ~ 3e13, so 27 of those digits cancel."""
    with mpmath.workdps(60):
        u = mpmath.mpf(u)
        if u**3 >= 1:
            return mpmath.mpf(0)
        hi, lo = mpmath.sqrt(1 - u**3), mpmath.sqrt(max(0, -1 - u**3))
        c = min(1, abs(u) ** mpmath.mpf(-0.25))
        w = lambda t: 1 if t <= 1 else t ** (-mpmath.mpf(1) / 3)
        ends = [lo, *sorted(p for p in (1, abs(u) ** mpmath.mpf(0.75)) if lo < p < hi), hi]
        return 2 * mpmath.quad(lambda t: min(c, w(t)), ends)


class TestArchimedean:
    def test_g1_whole_interval(self):
        assert density.g1(0.0, 1.0) == 2.0

    def test_g1_empty(self):
        assert density.g1(2.0, 0.5) == 0.0

    def test_g1_closed_form_value(self):
        assert math.isclose(
            density.g1(-2.0, 0.1), 2 * (3 - math.sqrt(7)), rel_tol=1e-14
        )

    def test_g1_rejects_bad_v(self):
        with pytest.raises(ValueError):
            density.g1(0.0, 0.0)

    def test_g1_against_indicator_scan(self):
        for u, v in ((-2.0, 0.1), (-0.5, 0.8), (0.5, 0.3), (-3.5, 0.45), (0.99, 1.0)):
            cap = v**-3.0
            n = 400_001
            h = 2 * cap / n
            acc = sum(
                1
                for i in range(n)
                if abs(((-cap + (i + 0.5) * h)) ** 2 + u**3) <= 1
            )
            # the scan resolves each window edge to one grid cell
            assert math.isclose(density.g1(u, v), acc * h, abs_tol=5 * h)

    def test_g2_frozen_value(self):
        assert math.isclose(density.g2(1.0), G2_AT_ONE, abs_tol=1e-9)

    def test_g2_nonnegative_and_bounded(self):
        vals = [density.g2(v) for v in (0.01, 0.1, 0.5, 0.9, 1.0)]
        assert all(0 <= g <= 8 for g in vals)

    def test_g2_domain(self):
        for v in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                density.g2(v)

    def test_g2_matches_a_high_precision_integral(self):
        # on both sides of each kink and of the split between g2's two forms
        k1, k2 = density._G2_V_KINKS
        split = density._G2_V_SPLIT
        vs = [1e-8, 1e-5, 1e-3, 0.01, 0.1, 0.35, split * (1 - 1e-9), split,
              split * (1 + 1e-9), 0.8, k1 * (1 - 1e-9), k1 * (1 + 1e-9),
              k2 * (1 - 1e-9), k2 * (1 + 1e-9), 0.9999, 1 - 1e-12, 1.0]
        for v in vs:
            exact = g2_by_quadrature(v)
            assert abs(density.g2(v) / exact - 1) <= 1e-13, v

    def test_g2_gauss_branch_matches_its_hypergeometric_form(self):
        # from the split up g2 integrates -S(-a1) and L(e) by Gauss rules;
        # their 2F1 forms at 30 digits, on 120 points, both kinks and v = 1,
        # where a1 = 0 and e = 1
        def g2_hyp(v):
            with mpmath.workdps(30):
                v, third = mpmath.mpf(v), mpmath.mpf(1) / 3
                a1 = mpmath.cbrt(max(0, v**-6 - 1))
                e = min(v**-4, mpmath.cbrt(v**-6 + 1))
                w = 1 - e**-3
                minus_s = a1 * mpmath.hyp2f1(-0.5, third, 1 + third, -(a1**3))
                ell = 2 * e**2.5 * w**1.5 * mpmath.hyp2f1(2 * third, 1, 2.5, w) / 9
                return 2 * (mpmath.mpf(density._S_ONE) + minus_s + v**-3 * (e - a1) - ell)

        vs = np.append(np.linspace(density._G2_V_SPLIT, 1.0, 118), density._G2_V_KINKS)
        assert vs[117] == 1.0
        for v, got in zip(vs.tolist(), density.g2(vs).tolist()):
            assert abs(got / g2_hyp(v) - 1) <= 2e-15, v

    def test_g2_on_arrays_is_elementwise(self):
        v = np.array([[1e-6, 0.3, 0.65], [0.9, 0.95, 1.0]])
        got = density.g2(v)
        assert got.shape == v.shape
        expected = [[density.g2(x) for x in row] for row in v.tolist()]
        assert got.tolist() == [pytest.approx(row, rel=1e-15, abs=0) for row in expected]
        assert type(density.g2(0.5)) is float

    def test_g2_limit_constant(self):
        with mpmath.workdps(40):
            assert density._G2_C == float(limit_constant())
            one = mpmath.quad(lambda u: mpmath.sqrt(1 - u**3), [0, 1])
        assert density._S_ONE == pytest.approx(float(one), rel=1e-15)

    def test_g2_small_v_expansion(self):
        # g2 = 2C - 4v - (20/351) v^13 + O(v^19): the v^7 terms of T(a1) and
        # R(v) cancel.  60-digit integrals show the v^13 coefficient ...
        for v in (0.1, 0.2):
            with mpmath.workdps(60):
                gap = (g2_by_quadrature(v, 60) - 2 * limit_constant() + 4 * mpmath.mpf(v)) / (
                    mpmath.mpf(v) ** 13
                )
            assert float(gap) == pytest.approx(-20 / 351, rel=1e-6), v
        # ... and the float g2 keeps to it down to rounding
        for v in np.geomspace(1e-8, 0.1, 15):
            gap = density.g2(v) - (2 * density._G2_C - 4 * v)
            assert abs(gap) <= 20 / 351 * v**13 + 4 * np.spacing(8.0), v

    def test_g2_form_error_estimate_covers_a_25_digit_value(self):
        # 6 * int_0^1 g2 at 25 digits, with g2 in its 2F1 form at a working
        # precision that outgrows the form's cancellation
        def g2_mp(v):
            with mpmath.extradps(int(5 * max(0, -mpmath.log10(v))) + 10):
                third = mpmath.mpf(1) / 3
                a1 = mpmath.cbrt(max(0, v**-6 - 1))
                e = min(v**-4, mpmath.cbrt(v**-6 + 1))
                w = 1 - e**-3
                s = lambda u: u * mpmath.hyp2f1(-0.5, third, 1 + third, u**3)
                ell = 2 * e**2.5 * w**1.5 * mpmath.hyp2f1(2 * third, 1, 2.5, w) / 9
                return +(2 * (s(1) - s(-a1) + v**-3 * (e - a1) - ell))

        with mpmath.workdps(25):
            k1 = mpmath.mpf(2) ** (-mpmath.mpf(1) / 6)
            k2 = ((1 + mpmath.sqrt(5)) / 2) ** (-mpmath.mpf(1) / 6)
            exact = 6 * (
                mpmath.quad(g2_mp, [0, 0.35, 0.65], method="gauss-legendre")
                + mpmath.quad(g2_mp, [0.65, k1, k2, 1])
            )
        value, err = density.omega_inf_g2()
        assert abs(value - exact) <= err
        assert err < 1e-12

    def test_u_section_matches_a_high_precision_integral(self):
        # every branch of the closed form, and both sides of the tail's
        # break points: the window bottom crossing t = 1 and the switch T
        golden = ((1 + math.sqrt(5)) / 2) ** (2 / 3)
        us = [1.0, 0.999, 0.5, 0.0, -0.3, -0.999, -1.0, -1.0001,
              -(2 ** (1 / 3)) * (1 - 1e-9), -(2 ** (1 / 3)) * (1 + 1e-9),
              -golden * (1 - 1e-9), -golden * (1 + 1e-9),
              -2.0, -10.0, -1e3, -1e6, -1e9]
        for u in us:
            exact = u_section_by_quadrature(u)
            got = density._u_section(u)
            if exact == 0:
                assert got == 0.0, u
            else:
                assert abs(got / exact - 1) <= 2e-14, u

    def test_direct_form_panels_end_at_the_break_points(self, monkeypatch):
        # the sections are closed forms, so the Gauss nodes at which the
        # u-integral calls them show its panels: one per stretch between the
        # break points -1, 0, 1 and -golden of u, each a 32- and a 20-point
        # rule, in u or r = -1/u or the y that takes out a square-root end
        seen = []
        section = density._u_section
        monkeypatch.setattr(density, "_u_section", lambda u: seen.append(u) or section(u))
        _, estimate = density.omega_inf_direct()
        assert estimate <= 1e-13
        golden = ((1 + math.sqrt(5)) / 2) ** (2 / 3)
        u = np.array(seen)
        x_top = np.polynomial.legendre.leggauss(32)[0].max()
        pieces = [
            (u[(u > -1) & (u < 0)], (-1, 0)),
            (np.sqrt(1 - u[(u > 0) & (u < 1)]), (0, 1)),
            (-1 / u[u < -golden], (0, 1 / golden)),
            (np.sqrt(1 + 1 / u[(u > -golden) & (u < -1)]), (0, math.sqrt(1 - 1 / golden))),
        ]
        assert sum(len(z) for z, _ in pieces) == len(seen) == 4 * (32 + 20)
        for z, ends in pieces:
            assert len(z) == 32 + 20
            mid, half = (z.max() + z.min()) / 2, (z.max() - z.min()) / (2 * x_top)
            assert (mid - half, mid + half) == pytest.approx(ends, abs=1e-12)

    def test_direct_form_halves_its_panels_up_to_400(self, monkeypatch):
        # a tol no float estimate meets halves every panel, from 4 up to 256,
        # since 512 would pass QUADPACK's limit of 400, and the estimate is
        # returned as it stands there
        calls = []
        section = density._u_section
        monkeypatch.setattr(density, "_u_section", lambda u: calls.append(u) or section(u))
        b, eb = density.omega_inf_direct(1e-30)
        assert len(calls) == (32 + 20) * (4 + 8 + 16 + 32 + 64 + 128 + 256)
        a, ea = density.omega_inf_g2()
        assert abs(a - b) <= ea + eb and eb <= 1e-13

    def test_dual_evaluations_agree(self):
        a, ea = density.omega_inf_g2()
        b, eb = density.omega_inf_direct()
        # every break point ends a quadrature piece, so the forms agree to
        # rounding: 2.1e-14 at the default tolerance
        assert abs(a - b) <= 1e-13
        assert ea < 1e-6 and eb < 1e-6

    def test_k0_is_the_g2_form(self):
        # one panel quadrature serves both: K(0) = omega_inf bit for bit
        assert density._archimedean_moments(6)[0] == density.omega_inf_g2()[0]

    def test_g2_calls_per_quadrature(self, monkeypatch):
        # 6 panels: 32 + 20 nodes for omega_inf_g2, 32 for the moments, each
        # rule's nodes in one array call
        calls = []
        g2 = density.g2
        monkeypatch.setattr(density, "g2", lambda v: calls.append(np.size(v)) or g2(v))
        density.omega_inf_g2()
        assert calls == [192, 120]
        calls.clear()
        density._archimedean_moments(6)
        assert calls == [192]

    def test_omega_inf_record(self):
        r = density.omega_inf()
        _, ea = density.omega_inf_g2()
        _, eb = density.omega_inf_direct()
        assert r.value == r.g2_form
        assert abs(r.g2_form - r.direct_form) <= ea + eb
        assert 35.0 < r.value < 36.0


class TestVartheta:
    def test_unit(self):
        assert density.vartheta((1,) * 7) == 1

    def test_violating_tuple_vanishes(self):
        assert density.vartheta((2, 2, 1, 1, 1, 1, 1)) == 0

    def test_single_support(self):
        assert density.vartheta((2, 1, 1, 1, 1, 1, 1)) == Fraction(1, 2)

    def test_overlap_quotient(self):
        # xi4 and xi1 may not share primes, but xi4 and xi6 overlaps with
        # xi1*xi2*xi3 only through xi6-side primes
        val = density.vartheta((3, 1, 1, 1, 1, 1, 3))
        # phi*(3)*phi*(3)*phi*(3)/phi*(3) = (2/3)^2
        assert val == Fraction(4, 9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            density.vartheta((1, 1, 1))
        with pytest.raises(ValueError):
            density.vartheta((0, 1, 1, 1, 1, 1, 1))

    def test_multiplicative_on_disjoint_primes(self):
        import random

        rng = random.Random(3)
        pool_a = [1, 2, 4, 8]
        pool_b = [1, 3, 9, 27]
        for _ in range(120):
            xa = tuple(rng.choice(pool_a) for _ in range(7))
            xb = tuple(rng.choice(pool_b) for _ in range(7))
            prod = tuple(a * b for a, b in zip(xa, xb))
            assert density.vartheta(prod) == density.vartheta(xa) * density.vartheta(xb)


class TestLocalFactor:
    def test_divergence_guard(self):
        # the series converges while every 1 + lambda_i * s > 0: s > -1/6
        for f in (density.local_factor_closed, density.local_factor_sum):
            with pytest.raises(ValueError):
                f(2, -1 / 6)
            with pytest.raises(ValueError):
                f(2, -0.5)
        for p in (2, 3, 5, 7):
            closed = density.local_factor_closed(p, 0.0)
            assert closed == pytest.approx(1 + 7 / p + 1 / p**2, rel=1e-14)
            assert abs(closed - density.local_factor_sum(p, 0.0, cutoff=40)) < 1e-8

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            density.local_factor_sum(2, 0.5, cutoff=5)

    def test_closed_matches_sum(self):
        for p in (2, 5):
            for s in (0.25, 1.0):
                closed = density.local_factor_closed(p, s)
                summed = density.local_factor_sum(p, s, cutoff=40)
                assert abs(closed - summed) < 1e-8, (p, s)

    def test_gap_shrinks_monotonically(self):
        closed = density.local_factor_closed(2, 0.25)
        gaps = [
            closed - density.local_factor_sum(2, 0.25, cutoff=c)
            for c in (20, 22, 24, 26, 28)
        ]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_normalized_limit_matches_euler_factor(self):
        # the zeta-normalized local factor tends to the local density as the
        # shift goes to 0; probe the limit by linear extrapolation at 1e-3
        def normalized(p, s):
            out = density.local_factor_closed(p, s)
            for lam in density.LAMBDA:
                out *= 1.0 - p ** -(lam * s + 1.0)
            return out

        for p in (2, 3, 5, 7):
            probe = 2 * normalized(p, 5e-4) - normalized(p, 1e-3)
            assert abs(probe - float(density.omega_p(p))) <= 1e-3, p

    def test_factor_tends_to_one(self):
        assert abs(density.local_factor_closed(99991, 0.5) - 1.0) < 1e-4

    def test_closed_is_builtin_float(self):
        for p, s in ((2, 0.0), (7, 0.25), (99991, 1.0), (2**89 - 1, 0.5)):
            assert type(density.local_factor_closed(p, s)) is float


class TestClearedTable:
    """_H_TABLE holds H_p = F_p * prod_i (1 - x_i) as integer coefficients of
    y^j z^k, with y = 1/p and x_i = y * z^lambda_i.  The oracle sums F_p
    exactly from vartheta, as local_factor_sum does but with every geometric
    series summed to infinity, in Fractions."""

    # the y^2 row of H_p: -sum_mu c_mu y^2 z^mu
    C = {2: 1, 3: 2, 4: 4, 5: 4, 6: 5, 7: 4, 8: 4, 9: 2, 10: 1}
    PRIMES = [p for p in range(2, 50) if arith.is_prime(p)]

    @staticmethod
    def table(y, z):
        return sum(
            int(a) * y**j * z**k for (j, k), a in np.ndenumerate(density._H_TABLE) if a
        )

    @staticmethod
    def vartheta_terms(p):
        # (weight, support, summed): summed[i] when x_i^e has the same weight
        # for every e >= 1, so that coordinate contributes x_i / (1 - x_i)
        terms = []
        for mask in range(128):
            support = [(mask >> i) & 1 for i in range(7)]
            weight = density.vartheta(tuple(p**e for e in support))
            if weight == 0:
                continue
            summed = []
            for i, e in enumerate(support):
                probe = tuple(p ** (2 if j == i else f) for j, f in enumerate(support))
                summed.append(bool(e) and density.vartheta(probe) != 0)
            terms.append((weight, support, summed))
        return terms

    @staticmethod
    def oracle(p, z, terms):
        x = [Fraction(z) ** lam / p for lam in density.LAMBDA]
        f = 0
        for weight, support, summed in terms:
            term = weight
            for xi, e, s in zip(x, support, summed):
                if e:
                    term *= xi / (1 - xi) if s else xi
            f += term
        return f * math.prod(1 - xi for xi in x)

    def test_value_at_w_zero_is_omega_p(self):
        for p in self.PRIMES:
            assert self.table(Fraction(1, p), 1) == density.omega_p(p), p

    def test_matches_vartheta_sum_on_a_grid(self):
        # H_p has degree <= 9 in y and <= 27 in z, so equality on 15 values
        # of y times 28 values of z pins every coefficient
        assert density._H_TABLE.shape == (10, 28)
        for p in self.PRIMES:
            terms = self.vartheta_terms(p)
            for d in range(2, 30):
                z = Fraction(1, d)
                assert self.table(Fraction(1, p), z) == self.oracle(p, z, terms), (p, d)

    def test_closed_form_at_rational_points(self):
        for y, z in ((Fraction(3, 7), Fraction(5, 11)), (Fraction(2, 3), Fraction(9, 4)),
                     (Fraction(1, 10), Fraction(1, 3))):
            x = [y * z**lam for lam in density.LAMBDA]
            x1, _, _, xl, _, _, x6 = x
            closed = density._cleared_factor(y, x) / ((1 - x1) * (1 - xl) * (1 - x6))
            assert self.table(y, z) == closed * math.prod(1 - xi for xi in x)

    def test_low_rows(self):
        assert density._H_TABLE.dtype == np.int64
        assert density._H_TABLE[0].tolist() == [1] + [0] * 27
        assert not density._H_TABLE[1].any()
        row = {k: -int(a) for k, a in enumerate(density._H_TABLE[2]) if a}
        assert row == self.C
        assert sum(self.C.values()) == 27  # log omega_p = -27/p^2 + O(p^-3)
        assert np.count_nonzero(density._H_TABLE) == 68


class TestEulerTaylor:
    @staticmethod
    def cauchy_oracle(P, order, radius="0.02", nodes=32):
        # G(w) at 30 digits on the nodes of |w| = radius, with F_p in its
        # division form; the Taylor coefficients by the trapezoid rule
        with mpmath.workdps(30):
            r = mpmath.mpf(radius)
            primes = arith._primes_upto(P).tolist()
            values = []
            for k in range(nodes):
                w = r * mpmath.expjpi(mpmath.mpf(2 * k) / nodes)
                g = mpmath.mpc(1)
                for p in primes:
                    z = mpmath.exp(-w * mpmath.log(p))
                    x = [z**lam / p for lam in density.LAMBDA]
                    x1, x2, x3, xl, x4, x5, x6 = x
                    pm = 1 - mpmath.mpf(1) / p
                    f = (
                        pm / (1 - x6) * (x2 + pm * (x3 + x6) / (1 - x1)
                                         + pm * (x4 + x5 + xl * x6) / (1 - xl))
                        + 1 + pm * (x1 / (1 - x1) + xl / (1 - xl))
                    )
                    for xi in x:
                        f *= 1 - xi
                    g *= f
                values.append((w, g))
            return [
                float(mpmath.re(sum(g * w**-n for w, g in values)) / nodes)
                for n in range(order + 1)
            ]

    def test_matches_a_30_digit_cauchy_integral(self):
        got = density._euler_taylor(1000, 6)
        assert all(type(v) is float for v in got)
        assert got == pytest.approx(self.cauchy_oracle(1000, 6), rel=1e-12, abs=0)

    def test_constant_coefficient_is_omega0(self):
        # G(0) = prod_{p <= P} F_p(0) (1 - 1/p)^7 = omega0(P), bit for bit:
        # c and the main term read the same value
        for P in (10**3, 10**4):
            assert density._euler_taylor(P, 6)[0] == density.omega0(P).value, P


class TestZetaTaylor:
    def test_stieltjes_literals(self):
        with mpmath.workdps(30):
            for k, gamma in enumerate(density._STIELTJES):
                assert gamma == float(mpmath.stieltjes(k)), k
        assert len(density._STIELTJES) == len(density.LAMBDA) - 1


class TestAssembledConstant:
    def test_fields(self):
        pc = density.peyre_constant(P=2000, quad_tol=1e-8)
        assert pc.alpha == Fraction(1, 6220800)
        assert pc.beta == 1
        assert pc.c == float(pc.alpha) * pc.omega0.value * pc.omega_inf.value
        assert pc.c_error > 0

    def test_truncation_floor(self):
        with pytest.raises(ValueError):
            density.peyre_constant(P=100)


class TestMainTerm:
    @pytest.fixture(scope="class")
    def poly(self):
        return density.main_term_coefficients(P=10**5)

    @staticmethod
    def main_term(B, poly):
        return B * np.polynomial.polynomial.polyval(math.log(B), poly)

    def test_leading_coefficient_is_peyre_constant(self, poly):
        # G(0) from the same log series as omega0, and K(0) = omega_inf's g2
        # form, on both sides: only rounding remains
        pc = density.peyre_constant(P=10**5)
        assert math.isclose(poly[6], pc.c, rel_tol=1e-13)

    def test_coefficients_are_builtin_floats(self, poly):
        assert all(type(v) is float for v in poly)

    def test_stable_under_prime_cutoff(self, poly):
        finer = density.main_term_coefficients(P=10**6)
        lo, hi = self.main_term(10**6, poly), self.main_term(10**6, finer)
        assert abs(hi / lo - 1.0) < 1e-5

    def test_matches_count(self, poly):
        n = counting.count_torsor_fast(10**4).count
        assert abs(n / self.main_term(10**4, poly) - 1.0) <= 0.02

    def test_truncation_floor(self):
        with pytest.raises(ValueError):
            density.main_term_coefficients(P=100)
