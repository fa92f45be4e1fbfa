"""The universal torsor above the surface.

Ten integer coordinates (xi1, xi2, xi3, xiL, xi4, xi5, xi6; tau1, tau2, tauL)
subject to one equation

    tauL * xiL^3 * xi4^2 * xi5  +  tau2^2 * xi2  +  tau1^3 * xi1^2 * xi3  =  0

and a table of coprimality and squarefreeness side conditions.  Two variants
of the side conditions are used: T1 (the counting normal form) and T2 (the
form produced by the constructive lift).  The projection ``psi`` sends torsor
points to surface points; ``lift`` inverts it onto T2; ``phi``/``phi_prime``
convert between the T1 and T2 normal forms prime by prime.
"""

import functools
import math
from dataclasses import dataclass

from .arith import factorize, is_squarefree
from .surface import RationalPoint, normalize, on_line, surface_form

__all__ = [
    "XI_NAMES",
    "TAU_NAMES",
    "LAMBDA",
    "X0_EXPONENTS",
    "X3_EXPONENTS",
    "FL_EXPONENTS",
    "F1_EXPONENTS",
    "TorsorPoint",
    "CoprimalityScheme",
    "T1_SCHEME",
    "T2_SCHEME",
    "monomial",
    "torsor_residual",
    "psi",
    "satisfies_scheme",
    "xi_scheme_satisfied",
    "lift",
    "phi",
    "phi_prime",
    "phi_exponents",
    "phi_prime_exponents",
    "phi_matching_cases",
    "phi_prime_matching_cases",
]

XI_NAMES = ("xi1", "xi2", "xi3", "xiL", "xi4", "xi5", "xi6")
TAU_NAMES = ("tau1", "tau2", "tauL")
ALL_NAMES = XI_NAMES + TAU_NAMES

# Exponent vectors over (xi1, xi2, xi3, xiL, xi4, xi5, xi6).
LAMBDA = (2, 3, 4, 3, 4, 5, 6)  # x2 = xi^LAMBDA; also the anticanonical weights
X0_EXPONENTS = (1, 2, 2, 0, 1, 2, 3)  # x0 = xi^... * tau2
X3_EXPONENTS = (2, 2, 3, 1, 2, 3, 4)  # x3 = xi^... * tau1
FL_EXPONENTS = (0, 0, 0, 3, 2, 1, 0)  # coefficient of tauL in the equation
F1_EXPONENTS = (2, 0, 1, 0, 0, 0, 0)  # coefficient of tau1^3


def monomial(xi, exponents) -> int:
    return math.prod(map(pow, xi, exponents))


def torsor_residual(coords) -> int:
    """Left-hand side of the torsor equation on a candidate ten-tuple.

    Coordinate order (xi1, xi2, xi3, xiL, xi4, xi5, xi6, tau1, tau2, tauL).
    Zero exactly when the tuple lies on the torsor.  Exact integers
    throughout, so there is no overflow to guard.
    """
    xi = tuple(coords[:7])
    tau1, tau2, tau_l = coords[7:]
    if any(v <= 0 for v in xi):
        raise ValueError("xi coordinates must be positive")
    return (
        tau_l * monomial(xi, FL_EXPONENTS)
        + tau2 * tau2 * xi[1]
        + tau1**3 * monomial(xi, F1_EXPONENTS)
    )


@dataclass(frozen=True)
class TorsorPoint:
    """An integral point on the torsor: positive xi's, equation satisfied."""

    xi1: int
    xi2: int
    xi3: int
    xiL: int
    xi4: int
    xi5: int
    xi6: int
    tau1: int
    tau2: int
    tauL: int

    def __post_init__(self):
        if torsor_residual(self.coords()) != 0:
            raise ValueError(f"not on the torsor: {self.coords()}")

    def coords(self):
        return (
            self.xi1, self.xi2, self.xi3, self.xiL, self.xi4, self.xi5,
            self.xi6, self.tau1, self.tau2, self.tauL,
        )

    @property
    def xi(self):
        return self.coords()[:7]


@dataclass(frozen=True)
class CoprimalityScheme:
    """Which coordinate pairs must be coprime and which must be squarefree.

    ``pairs`` holds name pairs in canonical coordinate order; gcd uses the
    convention gcd(0, n) = |n|, so a zero tau demands its partners be units.
    """

    pairs: frozenset
    squarefree: frozenset

    @staticmethod
    def _key(a, b):
        ia, ib = ALL_NAMES.index(a), ALL_NAMES.index(b)
        if ia == ib:
            raise ValueError("pair must join two distinct variables")
        return (a, b) if ia < ib else (b, a)

    def requires_coprime(self, a: str, b: str) -> bool:
        return self._key(a, b) in self.pairs

    def coprime_partners(self, name: str) -> tuple:
        out = [b if a == name else a for a, b in self.pairs if name in (a, b)]
        return tuple(sorted(out, key=ALL_NAMES.index))

    def with_pair(self, a, b):
        return CoprimalityScheme(self.pairs | {self._key(a, b)}, self.squarefree)

    def without_pair(self, a, b):
        return CoprimalityScheme(self.pairs - {self._key(a, b)}, self.squarefree)

    def with_squarefree(self, name):
        return CoprimalityScheme(self.pairs, self.squarefree | {name})


def _scheme(pair_list, squarefree):
    pairs = frozenset(CoprimalityScheme._key(a, b) for a, b in pair_list)
    return CoprimalityScheme(pairs, frozenset(squarefree))


# The T1 side-condition table.  Within the xi's: xi1-xi3, xi6-anything and
# xiL-xi4, xiL-xi5 may share primes; all other xi pairs are coprime.  Each
# tau is coprime to the xi's not appearing in its own monomial's cofactor.
T1_SCHEME = _scheme(
    [
        ("xi1", "xi2"), ("xi1", "xiL"), ("xi1", "xi4"), ("xi1", "xi5"),
        ("xi2", "xi3"), ("xi2", "xiL"), ("xi2", "xi4"), ("xi2", "xi5"),
        ("xi3", "xiL"), ("xi3", "xi4"), ("xi3", "xi5"),
        ("xi4", "xi5"),
        ("tau1", "xi2"), ("tau1", "xi3"), ("tau1", "xiL"),
        ("tau1", "xi4"), ("tau1", "xi5"), ("tau1", "xi6"),
        ("tau2", "xi1"), ("tau2", "xi3"), ("tau2", "xiL"),
        ("tau2", "xi4"), ("tau2", "xi5"),
        ("tauL", "xi1"), ("tauL", "xi2"), ("tauL", "xi3"),
        ("tauL", "xi4"), ("tauL", "xi5"), ("tauL", "xi6"),
    ],
    ["xi2", "xi3", "xi4", "xi5"],
)

# T2 swaps two tau1 conditions for squarefreeness of xi1 and xi1-xi3 coprimality.
T2_SCHEME = (
    T1_SCHEME.without_pair("xi3", "tau1")
    .without_pair("xi6", "tau1")
    .with_pair("xi1", "xi3")
    .with_squarefree("xi1")
)


@functools.lru_cache(maxsize=64)
def _compiled(scheme: CoprimalityScheme, names: tuple) -> tuple:
    """The scheme's flags on ``names``' indices: groups (i, later j coprime to i), squarefree i."""
    groups = [
        (i, tuple(j for j in range(i + 1, len(names)) if scheme.requires_coprime(a, names[j])))
        for i, a in enumerate(names)
    ]
    squarefree = tuple(i for i, name in enumerate(names) if name in scheme.squarefree)
    return tuple((i, js) for i, js in groups if js), squarefree


def _scheme_holds(values, names: tuple, scheme: CoprimalityScheme) -> bool:
    """Every coprimality and squarefree flag of the scheme holds on ``values``.

    ``values`` holds the coordinates ``names`` in order; flags naming others
    are skipped.  gcd(v[i], prod of its partners v[j]) = 1 is the pairwise
    test for all integers, 0 and negatives included: one gcd per group.
    """
    groups, squarefree = _compiled(scheme, names)
    get = values.__getitem__
    for i, partners in groups:
        if math.gcd(values[i], math.prod(map(get, partners))) != 1:
            return False
    for i in squarefree:
        if not is_squarefree(values[i]):
            return False
    return True


def satisfies_scheme(p: TorsorPoint, scheme: CoprimalityScheme) -> bool:
    """Check all pairwise coprimality and squarefreeness flags of a scheme."""
    return _scheme_holds(p.coords(), ALL_NAMES, scheme)


def xi_scheme_satisfied(xi, scheme: CoprimalityScheme = T1_SCHEME) -> bool:
    """The xi-only part of a scheme, on a plain 7-tuple of positive integers."""
    return _scheme_holds(xi, XI_NAMES, scheme)


def psi(p: TorsorPoint) -> RationalPoint:
    """Project a torsor point to its surface point.

    The image of a valid torsor point automatically satisfies the cubic;
    this is asserted, then the quadruple is normalized.
    """
    xi = p.xi
    x0 = monomial(xi, X0_EXPONENTS) * p.tau2
    x1 = p.tauL
    x2 = monomial(xi, LAMBDA)
    x3 = monomial(xi, X3_EXPONENTS) * p.tau1
    if surface_form(x0, x1, x2, x3) != 0:
        raise AssertionError(f"torsor equation holds but image off surface: {p}")
    return normalize((x0, x1, x2, x3))


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"inexact division in lift ({what}): {num}/{den}")
    return q


def lift(p: RationalPoint) -> TorsorPoint:
    """The unique T2 torsor point above a surface point off the line.

    Nine exact reduction steps peel the coordinates apart; every division
    is asserted exact, since an inexact one would contradict the bijection
    this map realizes.
    """
    if on_line(p):
        raise ValueError("points on the line x2 = x3 = 0 do not lift")
    x0, x1, x2, x3 = p.coords()

    # 1. x2 = y1 * y2^2 * y3^3 with exponent e = 3a + b: p^a -> y3, the
    #    leftover b goes to y2 (b = 2) or y1 (b = 1), making y1*y2 squarefree.
    y1 = y2 = y3 = 1
    for q, e in factorize(x2):
        a, b = divmod(e, 3)
        y3 *= q**a
        if b == 2:
            y2 *= q
        elif b == 1:
            y1 *= q
    z = _exact_div(x3, y1 * y2 * y3, "x3 / y1*y2*y3")
    # 2. y1*y2 divides x0.
    w = _exact_div(x0, y1 * y2, "x0 / y1*y2")
    # 3. y2 divides z.
    z1 = _exact_div(z, y2, "z / y2")
    # 4. y1 divides y3.
    y3p = _exact_div(y3, y1, "y3 / y1")
    # 5. split off the common part of y3' and z'.
    a = math.gcd(y3p, z1)
    y3pp = _exact_div(y3p, a, "y3' / a")
    z2 = _exact_div(z1, a, "z' / a")
    # 6. a = xi6^2 * xi2 with xi2 squarefree; then xi6^3 * xi2^2 divides w.
    xi6 = xi2 = 1
    for q, e in factorize(a):
        al, be = divmod(e, 2)
        xi6 *= q**al
        if be:
            xi2 *= q
    w1 = _exact_div(w, xi6**3 * xi2**2, "w / xi6^3*xi2^2")
    # 7. xi5 = gcd(y3'', w'); the rest of y3'' is xiL.
    xi5 = math.gcd(y3pp, w1)
    xiL = _exact_div(y3pp, xi5, "y3'' / xi5")
    w2 = _exact_div(w1, xi5, "w' / xi5")
    # 8. xi5 divides y2.
    xi1 = _exact_div(y2, xi5, "y2 / xi5")
    # 9. xi3 = gcd(w'', y1); the quotients are tau2, xi4 and tau1.
    xi3 = math.gcd(w2, y1)
    tau2 = _exact_div(w2, xi3, "w'' / xi3")
    xi4 = _exact_div(y1, xi3, "y1 / xi3")
    tau1 = _exact_div(z2, xi3, "z'' / xi3")
    return TorsorPoint(xi1, xi2, xi3, xiL, xi4, xi5, xi6, tau1, tau2, x1)


# --- exponent transport between the T1 and T2 normal forms ----------------
#
# Both maps act prime by prime on the exponents (n1, n3, n6, m1) of
# (xi1, xi3, xi6, tau1); every other coordinate and all signs pass through.
# ``m1 = None`` encodes tau1 = 0, whose valuation is infinite at every prime;
# None survives any finite shift.  Valid inputs have n3 in {0, 1} (xi3 is
# squarefree in both forms); the classifiers read any n3 > 0 as the
# n3 = 1 branch so that they are total on arbitrary exponent grids.


def _shift(m, d):
    return None if m is None else m + d


def phi_exponents(n1, n3, n6, m1):
    """T1 -> T2 exponent move at one prime, keyed on n1 mod 3 and n3."""
    k, r = divmod(n1, 3)
    if r != 0 and n3 != 0:
        return (r - 1, 0, n6 + k + 1, _shift(m1, 2 * k + 1))
    if r == 2:
        return (0, 1, n6 + k, _shift(m1, 2 * k + 1))
    return (r, n3, n6 + k, _shift(m1, 2 * k))


def phi_prime_exponents(n1, n3, n6, m1):
    """T2 -> T1 exponent move at one prime; inverse of :func:`phi_exponents`."""
    if m1 is not None and m1 % 2 == 1:
        k = (m1 - 1) // 2
        if n6 >= k + 1:
            if n3 == 0:
                return (n1 + 3 * k + 1, 1, n6 - k - 1, 0)
            return (n1 + 3 * k + 2, 0, n6 - k, 0)
    if m1 is None or m1 > 2 * n6:
        k = n6
        if n3 != 0:
            return (n1 + 3 * k + 2, 0, 0, _shift(m1, -2 * k - 1))
        return (n1 + 3 * k, 0, 0, _shift(m1, -2 * k))
    k = m1 // 2  # m1 even and n6 >= m1/2 here
    return (n1 + 3 * k, n3, n6 - k, 0)


def phi_matching_cases(n1, n3, n6, m1) -> list[int]:
    """Which of the three T1 -> T2 case clauses accept the tuple (1-based)."""
    k, r = divmod(n1, 3)
    out = []
    if r in (1, 2) and n3 != 0:
        out.append(1)
    if r == 2 and n3 == 0:
        out.append(2)
    if r in (0, 1) and (r == 0 or n3 == 0):
        out.append(3)
    return out


def phi_prime_matching_cases(n1, n3, n6, m1) -> list[int]:
    """Which of the three T2 -> T1 case clauses accept the tuple (1-based).

    Each case is the union of the clauses listed for it; a case is reported
    once even if both its clauses match (they are disjoint anyway).
    """
    out = []
    odd = m1 % 2 == 1
    k_odd = (m1 - 1) // 2 if odd else None
    if odd and n6 >= k_odd + 1 and n3 == 0:
        out.append(1)
    if (odd and n6 >= k_odd + 1 and n3 != 0) or (m1 > 2 * n6 and n3 != 0):
        out.append(2)
    if (m1 > 2 * n6 and n3 == 0) or (m1 % 2 == 0 and n6 >= m1 // 2):
        out.append(3)
    return out


def _transport(p: TorsorPoint, expmap) -> TorsorPoint:
    tau1 = p.tau1
    # {prime: exponent} of xi1, xi3, xi6 and |tau1|
    v1, v3, v6, vt = (
        dict(factorize(n)) if n > 1 else {} for n in (p.xi1, p.xi3, p.xi6, abs(tau1))
    )
    new1 = new3 = new6 = 1
    tau_mag = 1
    for q in sorted(v1.keys() | v3.keys() | v6.keys() | vt.keys()):
        m = None if tau1 == 0 else vt.get(q, 0)
        a, b, c, d = expmap(v1.get(q, 0), v3.get(q, 0), v6.get(q, 0), m)
        new1 *= q**a
        new3 *= q**b
        new6 *= q**c
        if d is not None:
            tau_mag *= q**d
    # every prime of tau1 is in the transport set, so the new magnitude is
    # exactly the product of the transported exponents
    new_tau1 = 0 if tau1 == 0 else (1 if tau1 > 0 else -1) * tau_mag
    return TorsorPoint(
        new1, p.xi2, new3, p.xiL, p.xi4, p.xi5, new6, new_tau1, p.tau2, p.tauL
    )


def phi(p: TorsorPoint) -> TorsorPoint:
    """Convert a T1 torsor point to the T2 point with the same psi-image."""
    if not satisfies_scheme(p, T1_SCHEME):
        raise ValueError("input does not satisfy the T1 conditions")
    return _transport(p, phi_exponents)


def phi_prime(p: TorsorPoint) -> TorsorPoint:
    """Convert a T2 torsor point to the T1 point with the same psi-image."""
    if not satisfies_scheme(p, T2_SCHEME):
        raise ValueError("input does not satisfy the T2 conditions")
    return _transport(p, phi_prime_exponents)
