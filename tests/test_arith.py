import bisect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from e6cubic import arith, counting


def naive_factor(n):
    """Trial-division oracle, independent of the library path."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def eta_brute(a, q):
    a %= q
    return sum(1 for n in range(1, q + 1) if (n * n - a) % q == 0)


class TestPrimesUpto:
    def test_matches_is_prime(self):
        # every n below 3000, so that each parity of n and each square of an
        # odd prime ends the odd-only sieve once
        primes = [p for p in range(3000) if arith.is_prime(p)]
        for n in range(3000):
            got = arith._primes_upto(n)
            assert got.dtype == np.int64
            assert got.tolist() == primes[: bisect.bisect_right(primes, n)], n

    def test_prime_count_to_a_million(self):
        assert len(arith._primes_upto(10**6)) == 78_498


class TestFactorize:
    def test_unit(self):
        assert arith.factorize(1) == []

    def test_twelve(self):
        assert arith.factorize(12) == [(2, 2), (3, 1)]

    def test_cone_volume_denominator(self):
        # 6! * 2*3*4*3*4*5*6; oracle plus reconstruction
        fac = arith.factorize(6220800)
        assert fac == naive_factor(6220800) == [(2, 10), (3, 5), (5, 2)]
        prod = 1
        for p, e in fac:
            prod *= p**e
        assert prod == 6220800

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            arith.factorize(0)

    def test_negative_uses_magnitude(self):
        assert arith.factorize(-12) == [(2, 2), (3, 1)]

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, n):
        assert arith.factorize(n) == naive_factor(n)

    @given(st.integers(min_value=2, max_value=10**12))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_primality(self, n):
        fac = arith.factorize(n)
        prod = 1
        prev = 0
        for p, e in fac:
            assert p > prev and e >= 1 and arith.is_prime(p)
            prev = p
            prod *= p**e
        assert prod == n

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert arith.factorize(p * q) == [(p, 1), (q, 1)]

    def test_memo_returns_a_new_list_each_call(self):
        fac = arith.factorize(360)
        fac.append((7, 1))
        fac[0] = (11, 1)
        assert arith.factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert arith.factorize(-360) == [(2, 3), (3, 2), (5, 1)]
        assert arith.factorize(-12) == [(2, 2), (3, 1)]
        with pytest.raises(ValueError):
            arith.factorize(0)

    def test_memo_is_bounded(self):
        assert arith._factorization.cache_info().maxsize is not None


class TestMultiplicativeFunctions:
    def test_unit_values(self):
        assert arith.phi_star(1) == 1
        assert arith.omega_distinct(1) == 0

    def test_thirty(self):
        assert arith.omega_distinct(30) == 3

    def test_phi_star_twelve(self):
        assert arith.phi_star(12) == Fraction(1, 3)

    def test_zero_rejected(self):
        for fn in (arith.omega_distinct, arith.phi_star):
            with pytest.raises(ValueError):
                fn(0)

    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_on_coprime_pairs(self, m, n):
        if math.gcd(m, n) != 1:
            return
        assert arith.phi_star(m * n) == arith.phi_star(m) * arith.phi_star(n)


def assert_root_slices(targets, q):
    """counting._root_slices gives, for each target, sqrt_mod's roots in its order."""
    moduli = np.full(len(targets), q)
    roots, first, last = counting._root_slices(np.array(targets, dtype=np.int64), moduli)
    assert len(first) == len(last) == len(targets)
    for a, i, j in zip(targets, first, last):
        assert roots[i:j].tolist() == arith.sqrt_mod(a, q), (a, q)


class TestSqrtMod:
    def test_examples(self):
        assert arith.sqrt_mod(1, 5) == [1, 4]
        assert arith.sqrt_mod(0, 1) == [0]
        assert arith.sqrt_mod(2, 5) == []

    def test_eta_examples(self):
        for a in (-3, 0, 1, 7):
            assert len(arith.sqrt_mod(a, 1)) == 1
        assert len(arith.sqrt_mod(1, 5)) == 2
        assert len(arith.sqrt_mod(3, 11)) == 2

    def test_exhaustive_small_moduli(self):
        for q in range(1, 128):
            for a in range(q):
                roots = arith.sqrt_mod(a, q)
                assert roots == sorted(
                    n for n in range(q) if (n * n - a) % q == 0
                ), (a, q)
                assert len(arith.sqrt_mod(a, q)) == eta_brute(a, q)
            # every target, units and not, unsorted and repeated
            assert_root_slices(list(range(q - 1, -1, -1)) + list(range(0, q, 3)), q)

    def test_sampled_moduli_up_to_2000(self):
        import random

        rng = random.Random(7)
        for _ in range(300):
            q = rng.randrange(128, 2001)
            a = rng.randrange(q)
            roots = arith.sqrt_mod(a, q)
            assert all((r * r - a) % q == 0 for r in roots)
            assert len(roots) == len(set(roots)) == eta_brute(a, q)

    def test_prime_power_moduli(self):
        cases = [(2, k) for k in range(1, 12)] + [(3, 7), (5, 6), (7, 5), (997, 2)]
        for p, e in cases:
            q = p**e
            targets = (0, 1, 2, p, p * p, q - 1, 3 * p + 1)
            for a in targets:
                roots = arith.sqrt_mod(a, q)
                assert all((r * r - a) % q == 0 for r in roots)
                if q <= 20000:
                    assert len(roots) == eta_brute(a, q), (a, q)
            assert_root_slices([a % q for a in targets], q)

    def test_root_slices_span_several_chunks(self):
        # every residue is a target: each r is the root of r^2 once, in order;
        # the squared r run over [0, q/2], three chunks and a remainder
        q = 6 * counting._SQUARE_CHUNK + 5
        roots, first, last = counting._root_slices(np.arange(q, dtype=np.int64), np.full(q, q))
        assert sorted(roots.tolist()) == list(range(q))
        owner = np.repeat(np.arange(q), last - first)
        assert (roots * roots % q == owner).all()
        assert (np.diff(roots)[owner[1:] == owner[:-1]] > 0).all()

    def test_root_slices_of_mixed_moduli(self, monkeypatch):
        # every residue of each prime below 200 and of a few composite moduli,
        # shuffled into one call; 360 and 1001 square several chunks of 64
        monkeypatch.setattr(counting, "_SQUARE_CHUNK", 64)
        primes = [q for q in range(2, 200) if all(q % d for d in range(2, q))]
        moduli = primes + [1, 2, 8, 360, 1001]
        q = np.array([m for m in moduli for _ in range(m)])
        a = np.array([x for m in moduli for x in range(m)])
        order = np.random.default_rng(5).permutation(q.size)
        q, a = q[order], a[order]
        roots, first, last = counting._root_slices(a, q)
        for m, x, i, j in zip(q.tolist(), a.tolist(), first.tolist(), last.tolist()):
            assert roots[i:j].tolist() == arith.sqrt_mod(x, m), (x, m)
        assert [x.size for x in counting._root_slices(a[:0], q[:0])] == [0, 0, 0]

    def test_root_slices_keep_one_mask(self):
        # one buffer of the larger modulus's bytes serves both moduli, cleared
        # after each; a mask per modulus alive at once would peak near their sum
        q = np.array([(1 << 22) - 3, (1 << 22) + 15], np.int64)
        targets = np.array([1, 4], np.int64)
        tracemalloc.start()
        try:
            roots, first, last = counting._root_slices(targets, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * int(q.max()), peak
        for a, m, i, j in zip(targets.tolist(), q.tolist(), first.tolist(), last.tolist()):
            assert roots[i:j].tolist() == arith.sqrt_mod(a, m), (a, m)

    def test_modulus_beyond_int64_squares_raises_before_allocating(self, monkeypatch):
        def no_array(*args, **kwargs):
            raise AssertionError("sqrt_mod allocated for a rejected modulus")

        monkeypatch.setattr(arith.np, "arange", no_array)
        for q in (2**31, 2**31 + 1, 1_000_003**2, 10**30):
            with pytest.raises(ValueError, match="too large"):
                arith.sqrt_mod(1, q)
        with pytest.raises(ValueError, match="positive"):
            arith.sqrt_mod(1, 0)

    def test_eta_bound_odd_moduli_sample(self):
        for q in range(1, 500, 2):
            bound = 2 ** arith.omega_distinct(q)
            for a in range(q):
                if math.gcd(a, q) == 1:
                    assert len(arith.sqrt_mod(a, q)) <= bound, (a, q)

    def test_eta_bound_fails_for_even_moduli(self):
        # the classical counterexample: four square roots of 1 modulo 8,
        # against 2^omega(8) = 2; this is why the bound is only asserted
        # for odd moduli
        assert len(arith.sqrt_mod(1, 8)) == 4
        assert 4 > 2 ** arith.omega_distinct(8)


class TestSawtooth:
    def test_integer_values(self):
        assert arith.psi_frac(3) == Fraction(-1, 2)
        assert arith.psi_tilde(3) == Fraction(1, 2)

    def test_fractional_values(self):
        assert arith.psi_frac(Fraction(-1, 3)) == Fraction(1, 6)
        assert arith.psi_frac(Fraction(1, 4)) == Fraction(-1, 4)
        assert arith.psi_tilde(Fraction(1, 4)) == Fraction(-1, 4)

    @given(st.fractions(max_denominator=500))
    @settings(max_examples=200, deadline=None)
    def test_tilde_shifts_only_integers(self, t):
        assert arith.psi_frac(t) == t - math.floor(t) - Fraction(1, 2)
        shift = arith.psi_tilde(t) - arith.psi_frac(t)
        assert shift == (1 if t.denominator == 1 else 0)


class TestCongruenceInterval:
    def test_worked_example(self):
        res = arith.count_congruence_interval(0, 10, 1, 3)
        assert res.exact_count == 4
        assert res.main_term == Fraction(10, 3)
        assert res.remainder == Fraction(2, 3)

    def test_one_per_period(self):
        for q, a in ((5, 2), (7, 3), (12, 5)):
            assert arith.count_congruence_interval(0, q, a, q).exact_count == 1

    def test_fractional_endpoints(self):
        res = arith.count_congruence_interval(Fraction(1, 2), Fraction(5, 2), 1, 2)
        assert res.exact_count == 1

    @pytest.mark.parametrize(
        "b1, b2", [(1, 7), (Fraction(-7, 3), Fraction(22, 5)), (0.5, 9.25), ("-7/3", "22/5")]
    )
    def test_endpoint_types_agree_with_fractions(self, b1, b2):
        # ints and Fractions give their ratios directly, anything else goes through Fraction
        res = arith.count_congruence_interval(b1, b2, 2, 5)
        assert res == arith.count_congruence_interval(Fraction(b1), Fraction(b2), 2, 5)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            arith.count_congruence_interval(3, 2, 1, 5)

    def test_decomposition_omitted_without_coprimality(self):
        res = arith.count_congruence_interval(0, 100, 4, 6)
        assert res.main_term is None and res.remainder is None
        assert res.exact_count == sum(1 for n in range(0, 101) if n % 6 == 4)

    @given(
        st.fractions(min_value=-1000, max_value=1000, max_denominator=40),
        st.fractions(min_value=0, max_value=2000, max_denominator=40),
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=400, deadline=None)
    def test_identity_and_brute_count(self, b1, length, a, q):
        b2 = b1 + length
        res = arith.count_congruence_interval(b1, b2, a, q)
        lo = math.ceil(b1)
        hi = math.floor(b2)
        brute = sum(1 for n in range(lo, hi + 1) if (n - a) % q == 0)
        assert res.exact_count == brute
        if math.gcd(a, q) == 1:
            assert Fraction(res.exact_count) == res.main_term + res.remainder

    @given(
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=1, max_value=400),
        st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=40)),
        st.one_of(st.integers(0, 10), st.fractions(min_value=0, max_value=10, max_denominator=40)),
    )
    @settings(max_examples=400, deadline=None)
    def test_decomposition_equals_its_definition(self, a, q, k1, k):
        # b1 = a + q*k1 and b2 = b1 + q*k: an integer k1 or k1 + k puts that
        # endpoint on the class, where psi_tilde jumps
        assume(math.gcd(a, q) == 1)
        b1 = a + q * Fraction(k1)
        b2 = b1 + q * Fraction(k)
        res = arith.count_congruence_interval(b1, b2, a, q)
        assert type(res.main_term) is Fraction and type(res.remainder) is Fraction
        assert res.main_term == (b2 - b1) / q
        assert res.remainder == arith.psi_tilde((b1 - a) / q) - arith.psi_frac((b2 - a) / q)


def test_square_sum_cancellation_diagnostic():
    """Average of the sawtooth over quadratic residue classes stays small.

    Reports the fitted constant C with |sum| <= C * q^0.55 over sampled
    prime moduli; diagnostic only, no sharp bound asserted.
    """
    import random

    rng = random.Random(11)
    primes = [q for q in range(101, 5000, 2) if arith.is_prime(q)]
    worst = 0.0
    for q in rng.sample(primes, 40):
        a = rng.randrange(1, q)
        t = rng.randrange(q)
        total = sum(
            arith.psi_frac(Fraction(t - a * rho * rho, q))
            for rho in range(1, q)
        )
        worst = max(worst, abs(float(total)) / q**0.55)
    print(f"\nsawtooth square-sum diagnostic: fitted C = {worst:.3f}")
    assert math.isfinite(worst)
