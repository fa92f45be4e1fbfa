"""Exact elementary number theory.

Factorization, the multiplicative functions omega and phi*, square roots
modulo q < 2^31 by squaring residues (the paper's root count eta(a; q) is
``len(sqrt_mod(a, q))``), and exact interval congruence counts built on the
sawtooth function.  Everything in this module is exact: values are ``int`` or
``Fraction``, never floats, so the counting identities hold as equalities.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "is_prime",
    "factorize",
    "is_squarefree",
    "omega_distinct",
    "phi_star",
    "sqrt_mod",
    "psi_frac",
    "psi_tilde",
    "CongruenceCount",
    "count_congruence_interval",
]


def _primes_upto(n):
    """The primes p <= n, ascending, as a numpy integer array."""
    if n < 2:
        return np.zeros(0, dtype=np.intp)
    # odd numbers only: sieve[i] stands for 2i + 1, so odd p is at p // 2
    sieve = np.ones((n + 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(n) + 1, 2):
        if sieve[p // 2]:
            sieve[p * p // 2 :: p] = False
    primes = np.flatnonzero(sieve)
    primes *= 2  # in place: no second array of the primes' size
    primes += 1
    primes[0] = 2  # in place of 1, which sieve[0] stands for
    return primes


# Python ints: n % p with a numpy int64 p overflows for n >= 2^63
_TRIAL_PRIMES = tuple(_primes_upto(10_000).tolist())

# Witness set making Miller-Rabin deterministic for n < 3.3 * 10^24,
# far beyond the 64-bit widths this library needs.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n):
    """Find a nontrivial factor of composite odd n.  Deterministic restarts."""
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def _factor_into(n, counts):
    if n == 1:
        return
    if is_prime(n):
        counts[n] = counts.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, counts)
    _factor_into(n // d, counts)


@functools.lru_cache(maxsize=1 << 14)
def _factorization(n):
    """factorize(n) for n > 0, as a tuple: one bounded memo serves every caller."""
    counts = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            counts[p] = e
    if n > 1:
        _factor_into(n, counts)
    return tuple(sorted(counts.items()))


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor ``abs(n)`` into (prime, exponent) pairs with primes ascending.

    Trial division takes the small primes, Brent's rho the rest after a
    deterministic primality check.  Zero is rejected; each call returns a new list.
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    return list(_factorization(abs(n)))


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for _, e in _factorization(abs(n)))


def omega_distinct(n: int) -> int:
    """Number of distinct prime factors."""
    if n < 1:
        raise ValueError("omega is defined for n >= 1")
    return len(_factorization(n))


def phi_star(n: int) -> Fraction:
    """phi(n)/n as an exact rational, i.e. the product of (1 - 1/p) over p | n."""
    if n < 1:
        raise ValueError("phi_star is defined for n >= 1")
    out = Fraction(1)
    for p, _ in factorize(n):
        out *= Fraction(p - 1, p)
    return out


# --- square roots ----------------------------------------------------------


def sqrt_mod(a: int, q: int) -> list[int]:
    """All residues x in [0, q) with x^2 = a (mod q), ascending.

    Works for any a (including a shared factor with q) by squaring every
    residue, a fixed-size chunk at a time, in int64: so q < 2^31.  It is the
    oracle of the counter's root tables; its time grows linearly with q.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    if q >= 1 << 31:
        raise ValueError(f"modulus {q} is too large: its squares overflow int64")
    roots = []
    for start in range(0, q, 1 << 16):  # 512 KiB per int64 array, whatever q is
        x = np.arange(start, min(start + (1 << 16), q), dtype=np.int64)
        roots += x[x * x % q == a % q].tolist()
    return roots


# --- sawtooth and interval congruence counting ----------------------------


def _sawtooth_numerator(t: int, e: int, tilde: bool) -> int:
    """2e times the sawtooth of t/e for e > 0: psi_tilde's when tilde, else psi_frac's."""
    r = t % e
    return 2 * r - e + (2 * e if tilde and r == 0 else 0)


def psi_frac(t) -> Fraction:
    """Sawtooth {t} - 1/2, exact on rationals."""
    t = Fraction(t)
    return Fraction(_sawtooth_numerator(t.numerator, t.denominator, False), 2 * t.denominator)


def psi_tilde(t) -> Fraction:
    """Sawtooth shifted up by 1 at integers; equals psi_frac elsewhere."""
    t = Fraction(t)
    return Fraction(_sawtooth_numerator(t.numerator, t.denominator, True), 2 * t.denominator)


@dataclass(frozen=True)
class CongruenceCount:
    """Exact count of a residue class in an interval, with its decomposition.

    ``exact_count == main_term + remainder`` holds as an identity of rationals
    whenever the decomposition is present (it is omitted when gcd(a, q) > 1,
    where the decomposition lemma's hypothesis fails).
    """

    exact_count: int
    main_term: Fraction | None
    remainder: Fraction | None


def count_congruence_interval(b1, b2, a: int, q: int) -> CongruenceCount:
    """Count n in [b1, b2] with n = a (mod q); b1, b2 may be rationals.

    The count is always computed directly.  When gcd(a, q) = 1 the main
    term (b2 - b1)/q and the sawtooth remainder
    psi_tilde((b1 - a)/q) - psi_frac((b2 - a)/q) are attached and satisfy
    the exact identity above.  With b1 = n1/d1 and b2 = n2/d2, each is one
    Fraction of integers: (b_i - a)/q = (n_i - a*d_i)/(q*d_i), and the
    sawtooth of t/e is (2*(t mod e) - e)/(2e), plus 1 for psi_tilde at e | t.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    n1, d1 = (b1 if isinstance(b1, (int, Fraction)) else Fraction(b1)).as_integer_ratio()
    n2, d2 = (b2 if isinstance(b2, (int, Fraction)) else Fraction(b2)).as_integer_ratio()
    if n1 * d2 > n2 * d1:
        raise ValueError("empty interval: b1 > b2")
    lo = -(-n1 // d1)  # ceil(b1)
    hi = n2 // d2  # floor(b2)
    first = lo + ((a - lo) % q)
    exact = (hi - first) // q + 1 if first <= hi else 0
    if math.gcd(a, q) != 1:
        return CongruenceCount(exact, None, None)
    e1, e2 = q * d1, q * d2  # (b_i - a)/q = (n_i - a*d_i)/e_i
    main = Fraction(n2 * d1 - n1 * d2, d1 * e2)
    rem = Fraction(
        _sawtooth_numerator(n1 - a * d1, e1, True) * e2
        - _sawtooth_numerator(n2 - a * d2, e2, False) * e1,
        2 * e1 * e2,
    )
    return CongruenceCount(exact, main, rem)
