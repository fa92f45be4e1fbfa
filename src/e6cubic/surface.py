"""The singular cubic surface x1*x2^2 + x2*x0^2 + x3^3 = 0.

Point representation and normalization, the height, membership of the unique
line, and an exhaustive counting oracle that scans primitive integer
quadruples directly.  The oracle is deliberately simple: it is the reference
against which the torsor-based counter is checked.  ``CountReport`` is the
record that every counter, this one included, returns.
"""

import math
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from .arith import factorize

__all__ = [
    "CountReport",
    "RationalPoint",
    "surface_form",
    "normalize",
    "on_line",
    "height",
    "brute_points",
    "brute_count",
    "brute_counts_upto",
]


@dataclass(frozen=True)
class CountReport:
    """One counting run: how many points of height <= B, and how it was obtained.

    ``method`` is one of ``brute``, ``torsor``, ``fast``.  ``parts`` records
    how many work slices the run was split into (1 for a sequential run).
    """

    B: int
    count: int
    method: str
    elapsed_s: float
    parts: int = 1


def surface_form(x0: int, x1: int, x2: int, x3: int) -> int:
    """The defining cubic form; zero exactly on the surface."""
    return x1 * x2 * x2 + x2 * x0 * x0 + x3**3


@dataclass(frozen=True, order=True)
class RationalPoint:
    """A projective rational point in its normalized primitive representation.

    Invariants, enforced at construction: the coordinates are coprime
    integers on the surface, x2 >= 0, and when x2 = 0 the first nonzero
    coordinate is positive.
    """

    x0: int
    x1: int
    x2: int
    x3: int

    def __post_init__(self):
        c = self.coords()
        if all(v == 0 for v in c):
            raise ValueError("zero quadruple is not a projective point")
        if math.gcd(*c) != 1:
            raise ValueError(f"coordinates not primitive: {c}")
        if self.x2 < 0:
            raise ValueError("normalized points have x2 >= 0")
        if self.x2 == 0 and next(v for v in c if v != 0) < 0:
            raise ValueError("sign normalization violated")
        if surface_form(*c) != 0:
            raise ValueError(f"point not on the surface: {c}")

    def coords(self) -> tuple[int, int, int, int]:
        return (self.x0, self.x1, self.x2, self.x3)


def normalize(coords) -> RationalPoint:
    """Normalize an integer quadruple to its canonical representative.

    Divides out the gcd and fixes the overall sign (x2 > 0, or first nonzero
    coordinate positive when x2 = 0).  Rejects the zero quadruple and
    quadruples not on the surface.  Idempotent.
    """
    x0, x1, x2, x3 = (int(v) for v in coords)
    if x0 == x1 == x2 == x3 == 0:
        raise ValueError("zero quadruple is not a projective point")
    g = math.gcd(x0, x1, x2, x3)
    x0, x1, x2, x3 = x0 // g, x1 // g, x2 // g, x3 // g
    lead = x2 if x2 != 0 else next(v for v in (x0, x1, x2, x3) if v != 0)
    if lead < 0:
        x0, x1, x2, x3 = -x0, -x1, -x2, -x3
    return RationalPoint(x0, x1, x2, x3)


def on_line(p: RationalPoint) -> bool:
    """True iff p lies on the line x2 = x3 = 0 (the accumulating locus)."""
    return p.x2 == 0 and p.x3 == 0


def height(p: RationalPoint) -> int:
    """Sup-norm of the primitive representative."""
    return max(abs(v) for v in p.coords())


def _cube_divisor_step(n: int) -> int:
    """Smallest m > 0 with n | m^3."""
    step = 1
    for p, e in factorize(n):
        step *= p ** ((e + 2) // 3)
    return step


def _height(B):
    """B, checked to be a height bound."""
    if B < 0:
        raise ValueError("height bound must be non-negative")
    return B


def brute_points(B: int) -> Iterator[RationalPoint]:
    """All points of the surface off the line with height <= B, each once.

    Scans x2 in [1, B], then x3 in [-B, B] restricted to x2 | x3^3, then
    x0 in [-B, B]; x1 is solved for and kept when the division is exact,
    the height bound holds, and the quadruple is primitive.  Points with
    x2 = 0 lie on the line (the cubic forces x3 = 0 there), so starting at
    x2 = 1 both excludes the line and picks one representative per point.
    """
    for x2 in range(1, _height(B) + 1):
        x2sq = x2 * x2
        step = _cube_divisor_step(x2)
        for x3 in range(-(B // step) * step, B + 1, step):
            x3cu = x3**3
            for x0 in range(-B, B + 1):
                num = -(x2 * x0 * x0 + x3cu)
                x1, r = divmod(num, x2sq)
                if r or abs(x1) > B:
                    continue
                if math.gcd(math.gcd(x0, x1), math.gcd(x2, x3)) != 1:
                    continue
                yield RationalPoint(x0, x1, x2, x3)


def brute_count(B: int) -> CountReport:
    """Exact count of points with height <= B by exhaustive scan."""
    t0 = time.perf_counter()
    n = sum(1 for _ in brute_points(B))
    return CountReport(B, n, "brute", time.perf_counter() - t0)


def _cumulative_counts(heights, Bmax: int) -> list[int]:
    """[number of heights <= B for B in 0..Bmax]; every height is in [0, Bmax]."""
    hist = [0] * (Bmax + 1)
    for h in heights:
        hist[h] += 1
    return list(accumulate(hist))


def brute_counts_upto(Bmax: int) -> list[int]:
    """Counts N(B) for every B in [0, Bmax], from one scan at Bmax."""
    return _cumulative_counts(map(height, brute_points(Bmax)), Bmax)
