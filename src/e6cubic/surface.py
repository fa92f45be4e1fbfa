"""The singular cubic surface x1*x2^2 + x2*x0^2 + x3^3 = 0.

Point representation and normalization, the height, membership of the unique
line, and an exhaustive counting oracle that scans primitive integer
quadruples directly.  The oracle is deliberately simple: it is the reference
against which the torsor-based counter is checked.  It tries every x0 for
every (x2, x3) with x2 | x3^3, in numpy int64 blocks of x3 rows, so 2*B^3
must stay below 2^63 (B <= 1,664,510); it uses nothing of the torsor
and no residue-class shortcut beyond x2 | x3^3.  Its own oracle is the plain
triple loop of the tests.  ``CountReport`` is the record that every counter,
this one included, returns.
"""

import math
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

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


# int64 cells of one block of the brute scan, a few x3 rows times every x0:
# its arrays stay near 2^14 cells whatever B, or one row of 2B + 1 cells
_BLOCK_CELLS = 1 << 14


def brute_points(B: int) -> Iterator[RationalPoint]:
    """All points of the surface off the line with height <= B, each once.

    Scans x2 in [1, B], then x3 in [-B, B] restricted to x2 | x3^3, then
    x0 in [-B, B]; x1 is solved for and kept when the division is exact,
    the height bound holds, and the quadruple is primitive.  Points with
    x2 = 0 lie on the line (the cubic forces x3 = 0 there), so starting at
    x2 = 1 both excludes the line and picks one representative per point.
    The points come in that order: x2, then x3, then x0, ascending.

    Each x2 takes its x3 rows in blocks of about _BLOCK_CELLS int64 cells,
    every x0 of a row at once.  |x2*x0^2 + x3^3| <= 2*B^3 must fit in int64,
    so a larger B raises OverflowError at the call, before anything is
    allocated.
    """
    B = _height(B)
    if 2 * B**3 >= 1 << 63:
        raise OverflowError(f"height bound B = {B} is too large for the int64 brute scan")

    def scan():
        x0 = np.arange(-B, B + 1, dtype=np.int64)
        rows = max(1, _BLOCK_CELLS // x0.size)
        for x2 in range(1, B + 1):
            x2x0sq = x2 * x0 * x0
            step = _cube_divisor_step(x2)
            x3s = np.arange(-(B // step) * step, B + 1, step, dtype=np.int64)
            for start in range(0, x3s.size, rows):
                x3 = x3s[start : start + rows]
                x1, r = np.divmod(-(x2x0sq + (x3 * x3 * x3)[:, None]), x2 * x2)
                i, j = np.nonzero((r == 0) & (np.abs(x1) <= B))  # row-major: x3, then x0
                a0, a1, a3 = x0[j], x1[i, j], x3[i]
                keep = np.gcd(np.gcd(a0, a1), np.gcd(a3, x2)) == 1
                for c0, c1, c3 in zip(a0[keep].tolist(), a1[keep].tolist(), a3[keep].tolist()):
                    yield RationalPoint(c0, c1, x2, c3)

    return scan()


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
