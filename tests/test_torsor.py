import itertools
import math
import random

import pytest

from e6cubic import arith, surface, torsor
from e6cubic.counting import enumerate_torsor_points


def units(**overrides):
    fields = dict(
        xi1=1, xi2=1, xi3=1, xiL=1, xi4=1, xi5=1, xi6=1,
        tau1=0, tau2=0, tauL=0,
    )
    fields.update(overrides)
    return torsor.TorsorPoint(**fields)


class TestResidual:
    def test_on_torsor_examples(self):
        assert torsor.torsor_residual((1,) * 7 + (1, 1, -2)) == 0
        assert torsor.torsor_residual((1,) * 7 + (0, 0, 0)) == 0
        assert torsor.torsor_residual((1, 2, 1, 1, 1, 1, 1, 1, 1, -3)) == 0

    def test_off_torsor(self):
        assert torsor.torsor_residual((1,) * 7 + (1, 1, -1)) == 1

    def test_rejects_nonpositive_xi(self):
        with pytest.raises(ValueError):
            torsor.torsor_residual((0, 1, 1, 1, 1, 1, 1, 0, 0, 0))

    def test_point_type_enforces_equation(self):
        with pytest.raises(ValueError):
            units(tau1=1, tau2=1, tauL=-1)


class TestSchemes:
    def test_t1_squarefree_set(self):
        assert torsor.T1_SCHEME.squarefree == {"xi2", "xi3", "xi4", "xi5"}

    def test_t2_squarefree_set(self):
        assert torsor.T2_SCHEME.squarefree == {"xi1", "xi2", "xi3", "xi4", "xi5"}

    def test_pair_counts(self):
        assert len(torsor.T1_SCHEME.pairs) == 29
        assert len(torsor.T2_SCHEME.pairs) == 28

    def test_tau_partner_products(self):
        assert torsor.T1_SCHEME.coprime_partners("tau1") == (
            "xi2", "xi3", "xiL", "xi4", "xi5", "xi6",
        )
        assert torsor.T1_SCHEME.coprime_partners("tau2") == (
            "xi1", "xi3", "xiL", "xi4", "xi5",
        )
        assert torsor.T1_SCHEME.coprime_partners("tauL") == (
            "xi1", "xi2", "xi3", "xi4", "xi5", "xi6",
        )

    def test_t2_modifications(self):
        t1, t2 = torsor.T1_SCHEME, torsor.T2_SCHEME
        assert t1.requires_coprime("xi3", "tau1") and not t2.requires_coprime("xi3", "tau1")
        assert t1.requires_coprime("xi6", "tau1") and not t2.requires_coprime("xi6", "tau1")
        assert t2.requires_coprime("xi1", "xi3") and not t1.requires_coprime("xi1", "xi3")

    def test_xi_only_pairs_allow_sharing(self):
        # xi1-xi3, xi6-anything, xiL-xi4, xiL-xi5 may share primes in T1
        for a, b in (("xi1", "xi3"), ("xi1", "xi6"), ("xiL", "xi4"),
                     ("xiL", "xi5"), ("xi4", "xi6")):
            assert not torsor.T1_SCHEME.requires_coprime(a, b)

    def test_satisfies_scheme_examples(self):
        good = units(tau1=1, tau2=1, tauL=-2)
        assert torsor.satisfies_scheme(good, torsor.T1_SCHEME)
        bad = torsor.TorsorPoint(2, 2, 1, 1, 1, 1, 1, 1, 1, -6)
        assert not torsor.satisfies_scheme(bad, torsor.T1_SCHEME)

    def test_scheme_example_distinguishes_t1_t2(self):
        # xi3 = 2, tau1 = 2 shares a prime: fails T1 (xi3-tau1 coprime),
        # passes T2 (that condition is traded away there)
        p = torsor.TorsorPoint(1, 1, 2, 1, 1, 1, 1, 2, 1, -17)
        assert not torsor.satisfies_scheme(p, torsor.T1_SCHEME)
        assert torsor.satisfies_scheme(p, torsor.T2_SCHEME)

    def test_zero_tau_uses_gcd_zero_convention(self):
        # tau1 = 0 forces its coprimality partners to be units
        p = torsor.TorsorPoint(1, 2, 1, 1, 1, 1, 1, 0, 1, -2)
        assert torsor.torsor_residual(p.coords()) == 0
        assert not torsor.satisfies_scheme(p, torsor.T1_SCHEME)
        q = units(xi1=2, tau2=1, tauL=-1)
        assert torsor.satisfies_scheme(q, torsor.T1_SCHEME)


def naive_scheme_holds(values: dict, scheme) -> bool:
    """The pairwise oracle: every flag of the scheme whose names are in ``values``."""
    for a, b in scheme.pairs:
        if a in values and b in values and math.gcd(values[a], values[b]) != 1:
            return False
    for name in scheme.squarefree:
        if name in values and not arith.is_squarefree(values[name]):
            return False
    return True


class Coords(tuple):
    """Ten values standing in for a torsor point: the side conditions read only coords()."""

    def coords(self):
        return tuple(self)


class TestSchemeOracle:
    SCHEMES = [
        torsor.T1_SCHEME,
        torsor.T1_SCHEME.without_pair("xi1", "xi2"),
        torsor.T1_SCHEME.without_pair("tau2", "xi4"),
        torsor.T1_SCHEME.without_pair("tau1", "xiL"),
        torsor.T1_SCHEME.with_pair("tau2", "xi6"),
        torsor.T2_SCHEME,
    ]

    @staticmethod
    def agree(values, scheme):
        p = Coords(values)
        want = naive_scheme_holds(dict(zip(torsor.ALL_NAMES, values)), scheme)
        assert torsor.satisfies_scheme(p, scheme) == want, (values, scheme)
        want_xi = naive_scheme_holds(dict(zip(torsor.XI_NAMES, values)), scheme)
        assert torsor.xi_scheme_satisfied(values[:7], scheme) == want_xi, (values, scheme)
        return want, want_xi

    def test_random_tuples_match_the_pairwise_oracle(self):
        # xi's of the primes 2, 3, 5 only, so they often share one; tau's of
        # either sign, and 0, where gcd(0, n) = |n|
        rng = random.Random(24)
        outcomes = set()
        for _ in range(3000):
            xi = [
                2 ** rng.choice((0, 0, 1, 2)) * 3 ** rng.choice((0, 0, 1)) * 5 ** rng.choice((0, 0, 0, 1))
                for _ in range(7)
            ]
            tau = [rng.choice((0, 1, -1, rng.randrange(-30, 31))) for _ in range(3)]
            for scheme in self.SCHEMES:
                outcomes.add(self.agree(tuple(xi + tau), scheme))
        assert outcomes == {(False, False), (False, True), (True, True)}

    def test_enumerated_points_match_the_pairwise_oracle(self):
        for t in itertools.islice(enumerate_torsor_points(60), 400):
            for p in (t, torsor.phi(t)):
                for scheme in self.SCHEMES:
                    self.agree(p.coords(), scheme)

    def test_one_pair_decides(self):
        # units but a = b = 2 (b = 0 for a tau): only the pair (a, b) can fail
        ones = dict.fromkeys(torsor.ALL_NAMES, 1)
        for a, b in itertools.combinations(torsor.ALL_NAMES, 2):
            values = tuple({**ones, a: 2, b: 0 if b.startswith("tau") else 2}.values())
            without = torsor.T1_SCHEME.without_pair(a, b)
            assert self.agree(values, without) == (True, True)
            held = self.agree(values, without.with_pair(a, b))
            assert held == (False, b.startswith("tau")), (a, b)

    def test_squarefree_flag_decides(self):
        for i, name in enumerate(torsor.XI_NAMES):
            values = (1,) * i + (4,) + (1,) * (9 - i)
            scheme = torsor.T1_SCHEME.with_squarefree(name)
            assert self.agree(values, scheme) == (False, False)
            if name not in torsor.T1_SCHEME.squarefree:
                assert self.agree(values, torsor.T1_SCHEME) == (True, True)


class TestPsi:
    def test_examples(self):
        assert torsor.psi(units(tau1=1, tau2=1, tauL=-2)).coords() == (1, -2, 1, 1)
        assert torsor.psi(
            torsor.TorsorPoint(1, 2, 1, 1, 1, 1, 1, 1, 1, -3)
        ).coords() == (4, -3, 8, 4)
        assert torsor.psi(units()).coords() == (0, 0, 1, 0)

    def test_x2_is_the_weighted_monomial(self):
        assert torsor.LAMBDA == (2, 3, 4, 3, 4, 5, 6)
        assert sum(torsor.LAMBDA) == 27
        assert math.prod(torsor.LAMBDA) == 8640
        for t in itertools.islice(enumerate_torsor_points(40), 200):
            raw_x2 = torsor.monomial(t.xi, torsor.LAMBDA)
            assert torsor.psi(t).x2 * math.gcd(
                torsor.monomial(t.xi, torsor.X0_EXPONENTS) * t.tau2,
                t.tauL, raw_x2,
                torsor.monomial(t.xi, torsor.X3_EXPONENTS) * t.tau1,
            ) == raw_x2


class TestLift:
    def test_worked_example(self):
        t = torsor.lift(surface.RationalPoint(4, -3, 8, 4))
        assert t.coords() == (1, 2, 1, 1, 1, 1, 1, 1, 1, -3)

    def test_degenerate_point(self):
        t = torsor.lift(surface.RationalPoint(0, 0, 1, 0))
        assert t.coords() == (1, 1, 1, 1, 1, 1, 1, 0, 0, 0)

    def test_trivial_x2(self):
        t = torsor.lift(surface.RationalPoint(1, -2, 1, 1))
        assert t.coords() == (1,) * 7 + (1, 1, -2)

    def test_rejects_line(self):
        for coords in ((0, 1, 0, 0), (1, 0, 0, 0)):
            with pytest.raises(ValueError):
                torsor.lift(surface.RationalPoint(*coords))

    def test_zero_tau1_lifts(self):
        # points with x3 = 0 lift to tau1 = 0
        t = torsor.lift(surface.RationalPoint(2, -1, 4, 0))
        assert t.coords() == (2, 1, 1, 1, 1, 1, 1, 0, 1, -1)
        t = torsor.lift(surface.RationalPoint(4, -1, 16, 0))
        assert t.coords() == (1, 1, 2, 1, 1, 1, 1, 0, 1, -1)

    def test_round_trip_on_brute_points(self):
        for p in surface.brute_points(60):
            t = torsor.lift(p)
            assert torsor.satisfies_scheme(t, torsor.T2_SCHEME)
            assert torsor.psi(t) == p


class TestTransport:
    def test_phi_worked_example(self):
        t1 = torsor.TorsorPoint(4, 1, 1, 1, 1, 1, 1, 1, 1, -17)
        t2 = torsor.phi(t1)
        assert t2.coords() == (1, 1, 2, 1, 1, 1, 1, 2, 1, -17)
        image = surface.RationalPoint(4, -17, 16, 16)
        assert torsor.psi(t1) == image and torsor.psi(t2) == image
        assert torsor.phi_prime(t2) == t1

    def test_all_units_fixed(self):
        t = units(tau1=1, tau2=1, tauL=-2)
        assert torsor.phi(t) == t
        assert torsor.phi_prime(t) == t

    def test_rejects_wrong_scheme(self):
        bad_t1 = torsor.TorsorPoint(1, 1, 2, 1, 1, 1, 1, 2, 1, -17)
        with pytest.raises(ValueError):
            torsor.phi(bad_t1)
        bad_t2 = torsor.TorsorPoint(4, 1, 1, 1, 1, 1, 1, 1, 1, -17)
        with pytest.raises(ValueError):
            torsor.phi_prime(bad_t2)

    def test_zero_tau1_transport(self):
        t2 = torsor.TorsorPoint(1, 1, 2, 1, 1, 1, 1, 0, 1, -1)
        t1 = torsor.phi_prime(t2)
        assert t1.coords() == (4, 1, 1, 1, 1, 1, 1, 0, 1, -1)
        assert torsor.phi(t1) == t2
        assert torsor.psi(t1) == torsor.psi(t2)

    def test_round_trips_on_enumeration(self):
        for t in enumerate_torsor_points(60):
            image = torsor.psi(t)
            t2 = torsor.phi(t)
            assert torsor.satisfies_scheme(t2, torsor.T2_SCHEME)
            assert torsor.psi(t2) == image
            assert torsor.phi_prime(t2) == t
            assert torsor.lift(image) == t2


GRID = range(0, 9)


class TestExponentCases:
    def test_exactly_one_case_fires(self):
        for tup in itertools.product(GRID, GRID, GRID, GRID):
            assert len(torsor.phi_matching_cases(*tup)) == 1, tup
            assert len(torsor.phi_prime_matching_cases(*tup)) == 1, tup

    def test_mutual_inverse_on_valid_tuples(self):
        for n1, n3, n6, m1 in itertools.product(GRID, GRID, GRID, GRID):
            if n3 <= 1 and (m1 == 0 or (n3 == 0 and n6 == 0)):
                out = torsor.phi_exponents(n1, n3, n6, m1)
                assert torsor.phi_prime_exponents(*out) == (n1, n3, n6, m1)
            if n1 + n3 <= 1:
                out = torsor.phi_prime_exponents(n1, n3, n6, m1)
                assert torsor.phi_exponents(*out) == (n1, n3, n6, m1)

    def test_infinite_valuation_passes_through(self):
        # tau1 = 0 is carried as m1 = None and never becomes finite
        assert torsor.phi_exponents(2, 0, 0, None) == (0, 1, 0, None)
        assert torsor.phi_prime_exponents(0, 1, 0, None) == (2, 0, 0, None)
