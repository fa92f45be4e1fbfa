"""The expected leading constant: cone volume, local densities, and the
archimedean density.

The constant factors as  c = alpha * beta * omega_inf * omega_0  with

    alpha     = 1 / (6! * product of the seven anticanonical weights), exact,
    beta      = 1 (the surface is split),
    omega_0   = product over primes of (1 - 1/p)^7 (1 + 7/p + 1/p^2),
    omega_inf = 6 * the volume of a bounded 3-dimensional region, computed
                both through the iterated integrals g1/g2 and through an
                independent slicing of the same region.

g1 is a closed form.  g2 sums two integrals of analytic functions by fixed
32-point Gauss rules for v >= 0.65 and, below, where those cancel, a fast
binomial series plus a fixed 8-point Gauss rule; it takes arrays, so each
Gauss rule over v costs one call of g2.  alpha and omega_p are exact
rationals; omega_0 and omega_inf are floats with explicit tail and quadrature
error estimates.  A closed form of the height zeta function's local factor is
cross-checked against a direct truncated sum weighted by vartheta.

The same pieces give the proof's whole main term: main_term_coefficients
returns the degree-6 polynomial P with N(B) ~ B * P(log B), whose top
coefficient is c; omega_0 is the constant term of P's Euler product.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import _primes_upto, is_prime, phi_star
from .torsor import LAMBDA, T1_SCHEME, xi_scheme_satisfied

__all__ = [
    "LAMBDA",
    "ALPHA",
    "BETA",
    "alpha_exact",
    "alpha_simplex_check",
    "omega_p",
    "omega0",
    "EulerProduct",
    "g1",
    "g2",
    "omega_inf",
    "omega_inf_g2",
    "omega_inf_direct",
    "ArchimedeanDensity",
    "vartheta",
    "local_factor_closed",
    "local_factor_sum",
    "PeyreConstant",
    "peyre_constant",
    "main_term_coefficients",
]

ALPHA = Fraction(1, 6220800)
BETA = Fraction(1)


# 0 < -log omega_p <= 27/p^2: in y = 1/p <= 1/2, over (1 - y)(1 + 7y + y^2) > 0,
# the derivative of log omega_p = 7 log(1 - y) + log(1 + 7y + y^2) has numerator
# -54y - 9y^2 < 0, that of 27y^2 + log omega_p has y^2 (315 - 324y - 54y^2) > 0,
# and both vanish at y = 0; with sum_{p > P} 1/p^2 < 1/P this bounds omega0's tail.
_OMEGA_LOG_DECAY = 27.0


def alpha_exact(weights=LAMBDA) -> Fraction:
    """Slice volume of the weighted simplex {t >= 0 : weights.t = 1}.

    Equals 1/(6! * prod(weights)); with the anticanonical weights this is
    1/6220800, and with unit weights the standard simplex value 1/6!.
    """
    denom = math.factorial(len(weights) - 1)
    for w in weights:
        denom *= w
    return Fraction(1, denom)


assert alpha_exact() == ALPHA


def alpha_simplex_check(samples: int = 10**6, seed: int = 12345, weights=LAMBDA):
    """Monte-Carlo estimate of alpha_exact, with its standard error.

    The slice measure is 7 times the volume of the corner simplex
    {t >= 0, weights.t <= 1}; points are drawn uniformly from the bounding
    box prod [0, 1/w_i].
    """
    if samples < 10**5:
        raise ValueError("use at least 1e5 samples")
    rng = np.random.default_rng(seed)
    w = np.array(weights, dtype=float)
    box = 1.0 / w
    hits = 0
    chunk = 250_000
    remaining = samples
    while remaining > 0:
        n = min(chunk, remaining)
        pts = rng.random((n, len(w))) * box
        hits += int(np.count_nonzero(pts @ w <= 1.0))
        remaining -= n
    box_volume = float(np.prod(box))
    frac = hits / samples
    estimate = len(w) * frac * box_volume
    stderr = len(w) * box_volume * math.sqrt(max(frac * (1 - frac), 1e-300) / samples)
    return estimate, stderr


def omega_p(p: int) -> Fraction:
    """Local density (1 - 1/p)^7 * (1 + 7/p + 1/p^2), exact."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Fraction((p - 1) ** 7 * (p * p + 7 * p + 1), p**9)


@dataclass(frozen=True)
class EulerProduct:
    """Truncated product of omega_p with a rigorous tail estimate."""

    value: float
    truncation_prime: int
    tail_bound: float


def omega0(P: int = 10**5) -> EulerProduct:
    """Product of omega_p = H_p(0) over p <= P, the constant term G(0) of
    _euler_taylor: c and the main term read one product.  The true value
    lies in [value * exp(-27/P), value] (_OMEGA_LOG_DECAY).
    """
    if P < 100:
        raise ValueError("truncation prime must be at least 100")
    value = _euler_taylor(P, 0)[0]
    tail = value * (1.0 - math.exp(-_OMEGA_LOG_DECAY / P))
    return EulerProduct(value, int(P), tail)


# --- archimedean density ---------------------------------------------------


def g1(u: float, v: float) -> float:
    """Length of {t : |t v^3| <= 1, |t^2 + u^3| <= 1}, in closed form.

    The admissible |t| run from sqrt(max(0, -1 - u^3)) to
    min(sqrt(1 - u^3), v^-3); empty when 1 - u^3 < 0.  For u far below -1
    the two square roots agree to many digits, so the differences are
    evaluated through their conjugates.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    u3 = u**3
    hi_sq = 1.0 - u3
    if hi_sq < 0:
        return 0.0
    cap = v**-3.0
    lo_sq = -1.0 - u3
    if lo_sq <= 0.0:
        return 2.0 * min(math.sqrt(hi_sq), cap)
    lo = math.sqrt(lo_sq)
    if lo >= cap:
        return 0.0
    hi = math.sqrt(hi_sq)
    if hi <= cap:
        return 4.0 / (hi + lo)  # 2*(hi - lo) via the conjugate
    return 2.0 * (cap * cap - lo_sq) / (cap + lo)  # 2*(cap - lo)


# g2's two forms meet here, at a panel edge of _g2_integrals.  Against
# 30-digit integrals of g1 at 161 values of v in [1e-8, 1], g2 errs by at most
# 6.7e-16 relative; the Gauss form alone errs by 2.6e-13 at v = 0.36 and 7e-8
# at v = 0.2, where its terms cancel and a1 outgrows the zeros of 1 + t^3
_G2_V_SPLIT = 0.65
# S(1) = int_0^1 sqrt(1 - s^3) ds, by Gauss's sum of the 2F1 at 1
_S_ONE = math.gamma(4.0 / 3.0) * math.gamma(1.5) / math.gamma(11.0 / 6.0)
# C = int_-1^1 sqrt(1 - u^3) du + int_1^inf (sqrt(1 + s^3) - sqrt(s^3 - 1)) ds
# = 3.98111817831836663720..., the limit of g2 / 2 as v -> 0
_G2_C = 3.9811181783183667
# T(x) = x^(-1/2) sum_j _T_COEF[j] x^(-6j), the terms k = 2j + 1 of
# sum_{k odd} 2 binom(1/2, k) x^(5/2 - 3k) / (3k - 5/2).  Each term is
# positive, and the next one is less than x^-6 times it, since
# (k - 1/2)(k + 1/2) < (k + 1)(k + 2) and 3k - 5/2 < 3k + 7/2.  Below
# _G2_V_SPLIT, x = a1 and x^-6 = (v^-6 - 1)^-2 < 0.00665, so the terms
# dropped after these eight sum to less than 0.00665^8 / (1 - 0.00665) < 4e-18
# times the first, which is 2 x^(-1/2) < 2
_T_COEF = [
    2.0 * math.prod(0.5 - i for i in range(k)) / math.factorial(k) / (3 * k - 2.5)
    for k in range(1, 17, 2)
]
# R(v) = v^7 int_-1^1 (1 - q) / (3 (1 + sqrt(1 + (q - 1) v^6)) (1 + q v^6)^(2/3)) dq,
# with s^3 = v^-6 + q.  Below _G2_V_SPLIT, v^6 < 0.0755: inside the ellipse
# with foci -1, 1 and semi-major axis 6, |q| <= 6, both roots' arguments stay
# within 0.53 of 1, so the integrand is analytic, and below 7 / (3 * 0.669)
# < 3.5 in modulus (|1 + sqrt| >= 1).  So the 8-point Gauss rule errs by
# less than (64/15) 3.5 rho^-16 / (rho^2 - 1) < 1e-18, rho = 6 + 35^(1/2)
# (Trefethen, SIAM Rev. 50, 2008, Thm 4.5)
_R_NODES, _R_WEIGHTS = np.polynomial.legendre.leggauss(8)
# From _G2_V_SPLIT up, g2's two integrals run over [0, X], as X (1 + x) / 2 for
# x in [-1, 1]: -S(-a1) with X = a1 <= 2.306 and integrand sqrt(1 + t^3), and
# L(e) with X = (e - 1)^(1/2) <= 1.194 and integrand 2 y^2 (y^4 + 3 y^2 + 3)^(1/2).
# A smaller X maps each ellipse with foci -1, 1 into the one for the largest X,
# which is convex and holds 0.  With rho = 2, |1 + x| <= 2.25 on the ellipse,
# so |t| < 2.6; the zeros of 1 + t^3 lie outside it (the nearest, e^(i pi/3),
# at rho 2.13), and (X/2) |1 + t^3|^(1/2) < 1.153 * 18.6^(1/2) < 5.  With
# rho = 4, |1 + x| <= 3.125 and |y| < 1.87; the zeros of y^4 + 3 y^2 + 3, of
# modulus 3^(1/4) at arguments +-75 and +-105 degrees, lie at rho >= 4.55, and
# the integrand times X/2 stays below 1.194 * 3.5 * 5.1 < 22.  So the 32-point
# rule errs by less than (64/15) 5 * 2^-64 / 3 < 4e-19 on the first and
# (64/15) 22 * 4^-64 / 15 < 2e-38 on the second (Trefethen, as for R)
_GAUSS = {n: np.polynomial.legendre.leggauss(n) for n in (20, 32)}


def _g2_small(v):
    # 2 [C - T(a1) + R(v)], with a1^(-1/2) = v (1 - v^6)^(-1/6) and
    # a1^-6 = v^12 / (1 - v^6)^2: nothing overflows as v -> 0
    v6 = v**6
    t = v * (1.0 - v6) ** (-1.0 / 6.0) * np.polynomial.polynomial.polyval(
        v6 * v6 / (1.0 - v6) ** 2, _T_COEF
    )
    s = _R_NODES[:, None]
    r = v6 * v * (_R_WEIGHTS @ (
        (1.0 - s) / (3.0 * (1.0 + np.sqrt(1.0 + (s - 1.0) * v6)) * (1.0 + s * v6) ** (2.0 / 3.0))
    ))
    return 2.0 * (_G2_C - t + r)


def g2(v):
    """Integral of g1(., v) over |u| <= v^-4, for 0 < v <= 1.

    v may be a float or an array of floats, evaluated elementwise.  With
    a1 = (v^-6 - 1)^(1/3) and a2 = (v^-6 + 1)^(1/3), the t-window top
    crosses its cap v^-3 at u = -a1, and g1 vanishes below
    u = -e, e = min(v^-4, a2).  Hence, in s = -u,

        g2 = 2 [S(1) - S(-a1) + v^-3 (e - a1) - L(e)],

    with S(u) = int_0^u sqrt(1 - s^3) ds and L(x) = int_1^x sqrt(s^3 - 1) ds.
    This serves v >= _G2_V_SPLIT, where -S(-a1) = int_0^a1 sqrt(1 + t^3) dt
    and, in s = 1 + y^2, L(e) = int_0^(e - 1)^(1/2) 2 y^2 sqrt(y^4 + 3 y^2 + 3) dy
    are fixed 32-point Gauss rules on analytic integrands (_GAUSS).  Below it
    S(-a1) and L(e) are both of size v^-5 and cancel, and e = a2, so g2 is
    summed as

        g2 = 2 [C - T(a1) + R(v)],

    C = _G2_C, T(x) = int_x^inf (sqrt(s^3 + 1) - sqrt(s^3 - 1)) ds from its
    binomial series and R(v) = int_a1^a2 (v^-3 - sqrt(s^3 - 1)) ds by a
    fixed Gauss rule (_g2_small).  Expanding both in v^6, with
    a1^(-1/2) = v (1 - v^6)^(-1/6) = v + v^7/6 + 7 v^13/72 + O(v^19),

        T(a1) = 2 a1^(-1/2) + a1^(-13/2) / 52 + ... = 2v + v^7/3 + (7/36 + 1/52) v^13 + ...,
        R(v) = v^7/3 + 5 v^13/27 + O(v^19),

    so the v^7 terms cancel and g2 = 2C - 4v - (20/351) v^13 + O(v^19).
    """
    v = np.asarray(v, dtype=float)
    if not np.all((v > 0.0) & (v <= 1.0)):
        raise ValueError("v must lie in (0, 1]")
    out = np.empty_like(v)
    small = v < _G2_V_SPLIT
    out[small] = _g2_small(v[small])
    big = v[~small]
    a1 = np.maximum(0.0, big**-6.0 - 1.0) ** (1.0 / 3.0)
    e = np.minimum(big**-4.0, (big**-6.0 + 1.0) ** (1.0 / 3.0))
    y_top = np.sqrt(e - 1.0)
    x, w = _GAUSS[32]
    t = (0.5 * a1)[:, None] * (1.0 + x)
    y2 = ((0.5 * y_top)[:, None] * (1.0 + x)) ** 2
    out[~small] = 2.0 * (
        _S_ONE + 0.5 * a1 * (np.sqrt(1.0 + t**3) @ w)
        + big**-3.0 * (e - a1)
        - y_top * ((y2 * np.sqrt(y2 * y2 + 3.0 * y2 + 3.0)) @ w)
    )
    return out if out.ndim else float(out)


# v-locations where the structure of g2 changes: the t-window cap crossing
# enters u = -1, and the u-cap v^-4 overtakes the window's vanishing point
_G2_V_KINKS = (2.0 ** (-1.0 / 6.0), ((1.0 + math.sqrt(5.0)) / 2.0) ** (-1.0 / 6.0))


def _g2_integrals(f, n):
    """n-point Gauss-Legendre values of the integral of f on each panel of
    [0, 1], as an array whose last axis runs over the six panels.

    The panels follow the smooth stretches of g2 between its kinks and its
    two forms.  The bottom one is substituted as v = a*y^6, which flattens a
    logarithmic singularity of f at 0, and the top two as v = 1 - y^3, which
    removes the cube-root cusp of g2 at v = 1.  f is called once, on the
    array of all nodes, and may return an array with leading axes, for
    several integrands sharing their g2 values.
    """
    k1, k2 = _G2_V_KINKS  # 2^(-1/6) < phi^(-1/6)
    a, y_top = 0.35, (1.0 - k2) ** (1.0 / 3.0)
    lo = np.array([0.0, a, _G2_V_SPLIT, k1, 0.0, 0.5 * y_top])
    hi = np.array([1.0, _G2_V_SPLIT, k1, k2, 0.5 * y_top, y_top])
    x, w = _GAUSS[n]
    half = 0.5 * (hi - lo)
    y = 0.5 * (lo + hi)[:, None] + half[:, None] * x
    v, jac = y.copy(), np.ones_like(y)
    v[0], jac[0] = a * y[0] ** 6, 6.0 * a * y[0] ** 5
    v[4:], jac[4:] = 1.0 - y[4:] ** 3, 3.0 * y[4:] ** 2
    return half * (f(v) * jac * w).sum(axis=-1)


def omega_inf_g2():
    """6 * integral of g2 over [0, 1]; returns (value, error estimate).

    This is K(0) of the main term's K(w) = 6 * int_0^1 g2(v) v^(6w) dv, on
    the same panels and nodes as _archimedean_moments.  g2 is smooth between
    its two structural kinks and has a cube-root cusp at v = 1 (the cap
    crossing scales like (1 - v)^(1/3)), so the integral runs as fixed
    32-point Gauss-Legendre panels (_g2_integrals).  Fixed nodes keep the
    evaluation deterministic; the error estimate is 6 times the summed
    differences from a 20-point rule on each panel.
    """
    hi, lo = _g2_integrals(g2, 32), _g2_integrals(g2, 20)
    return float(6.0 * hi.sum()), float(6.0 * np.abs(hi - lo).sum())


def _u_section(u):
    """Integral over t of the v-measure along the band -1 - u^3 <= t^2 <= 1 - u^3
    (both signs of t), in closed form.

    The measure of {v in [0, 1] : |t v^3| <= 1, |u v^4| <= 1} is c up to t = T
    and t^(-1/3) above, with c = s^(-1/4), T = s^(3/4), s = max(1, |u|), so
    c*T = T^(2/3).  Its antiderivative is F(t) = c*t below T and
    1.5 t^(2/3) - 0.5 T^(2/3) above, and the section is 2 (F(hi) - F(lo)) with
    hi = sqrt(1 - u^3), lo = sqrt(max(0, -1 - u^3)).  Below u = -1 the band is
    narrow and hi^2 - lo^2 = 2 exactly, so with both ends on one side of T the
    difference is taken without cancellation: 4c / (hi + lo) below T, and
    6 / (a^2 + ab + b^2) with a = hi^(2/3), b = lo^(2/3) above.
    """
    u3 = u**3
    hi_sq = 1.0 - u3
    if hi_sq <= 0.0:
        return 0.0
    s = max(1.0, abs(u))
    c, t_switch = s**-0.25, s**0.75
    hi, lo = math.sqrt(hi_sq), math.sqrt(max(0.0, -1.0 - u3))
    if lo > 0.0 and hi <= t_switch:
        return 4.0 * c / (hi + lo)
    if lo >= t_switch:
        a, b = hi ** (2.0 / 3.0), lo ** (2.0 / 3.0)
        return 6.0 / (a * a + a * b + b * b)
    # here lo < T, so F(lo) = c*lo
    upper = c * hi if hi <= t_switch else 1.5 * hi ** (2.0 / 3.0) - 0.5 * math.sqrt(s)
    return 2.0 * (upper - c * lo)


# r = -1/u where the t-window bottom crosses the switch T = |u|^(3/4), at
# |u|^(3/2) = the golden ratio: the tail's one kink (T > 1 where it crosses 1)
_R_KINK = ((1.0 + math.sqrt(5.0)) / 2.0) ** (-2.0 / 3.0)


def _gauss(f, a, b, n):
    # n-point Gauss-Legendre value of the integral of the scalar f over [a, b]
    x, w = _GAUSS[n]
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    return half * float(w @ [f(t) for t in (mid + half * x).tolist()])


def omega_inf_direct(tol: float = 1e-9):
    """The same volume, sliced the other way: v-fibers measured exactly and
    integrated over t in closed form (_u_section), then over u by Gauss rules.
    Returns (value, error estimate).

    The unbounded u < -1 part is mapped to r = -1/u in (0, 1].  The pieces end
    at the section's break points: u in [-1, 0] and, as u = 1 - y^2, in
    [0, 1]; r in (0, _R_KINK] and, as r = 1 - y^2, in [_R_KINK, 1].  The two
    substitutions take out the square roots of 1 - u^3 at u = 1 and of
    -1 - u^3 at u = -1, so each integrand is analytic.  As in omega_inf_g2,
    the value is the 32-point rule's and the estimate its distance from the
    20-point rule's.  tol acts only here: while the estimate exceeds
    tol * max(1, value), QUADPACK's test with epsabs = epsrel = tol, every
    panel is halved, up to QUADPACK's limit of 400 panels, where the
    estimate is returned as it stands.
    """
    far = lambda r: _u_section(-1.0 / r) / (r * r)  # the section at u = -1/r, times du/dr
    pieces = (
        (_u_section, -1.0, 0.0),
        (lambda y: 2.0 * y * _u_section(1.0 - y * y), 0.0, 1.0),
        (far, 0.0, _R_KINK),
        (lambda y: 2.0 * y * far(1.0 - y * y), 0.0, math.sqrt(1.0 - _R_KINK)),
    )
    splits = 1
    while True:
        value = error = 0.0
        for f, lo, hi in pieces:
            ends = np.linspace(lo, hi, splits + 1).tolist()
            for a, b in zip(ends, ends[1:]):
                fine = _gauss(f, a, b, 32)
                value += fine
                error += abs(fine - _gauss(f, a, b, 20))
        if error <= tol * max(1.0, value) or 2 * splits * len(pieces) > 400:
            return 6.0 * value, 6.0 * error
        splits *= 2


@dataclass(frozen=True)
class ArchimedeanDensity:
    """omega_inf with the spread between its two independent evaluations."""

    value: float
    error: float
    g2_form: float
    direct_form: float


def omega_inf(tol: float = 1e-9) -> ArchimedeanDensity:
    """Archimedean density, computed two ways and cross-checked.

    Raises ArithmeticError when the two evaluations disagree by more than
    the sum of their own error estimates.  tol is the direct slicing's
    quadrature tolerance; the g2 form has fixed nodes.
    """
    a, ea = omega_inf_g2()
    b, eb = omega_inf_direct(tol)
    spread = abs(a - b)
    if spread > ea + eb:
        raise ArithmeticError(
            f"omega_inf evaluations disagree: {a!r} vs {b!r} (spread {spread:.3e})"
        )
    return ArchimedeanDensity(a, spread + ea, a, b)


# --- the arithmetic density weight and the local factor --------------------


def vartheta(xi) -> Fraction:
    """Multiplicative weight attached to a xi-tuple by the tau1/tau2 counts.

    Zero unless the xi-part of the T1 conditions holds; otherwise the
    product of phi* factors over the three coordinate blocks, corrected by
    the overlap of (xi4, xi5, xi6) with (xi1, xi2, xi3).
    """
    xi = tuple(int(v) for v in xi)
    if len(xi) != 7 or any(v < 1 for v in xi):
        raise ValueError("xi must be seven positive integers")
    if not xi_scheme_satisfied(xi, T1_SCHEME):
        return Fraction(0)
    x1, x2, x3, xl, x4, x5, x6 = xi
    block = phi_star(x4 * x5 * x6)
    overlap = phi_star(math.gcd(x4 * x5 * x6, x1 * x2 * x3))
    return phi_star(x1 * x3) * phi_star(x2 * x3 * xl * x4 * x5 * x6) * block / overlap


def local_factor_closed(p: int, s: float) -> float:
    """Closed form of the local factor F_p at shifted argument s, s > -1/6."""
    if s <= -1 / 6:
        raise ValueError("the local factor series diverges for s <= -1/6")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    y, z = 1.0 / p, float(p) ** -s
    x = [y * z**lam for lam in LAMBDA]
    return float(_cleared_factor(y, x) / ((1 - x[0]) * (1 - x[3]) * (1 - x[6])))


def _cleared_factor(y, x):
    # F_p(s) = sum over e of vartheta(p^e) * prod_i x_i^e_i, with y = 1/p and
    # x_i = p^-(1 + lambda_i s), summed in closed form and multiplied by
    # (1 - x1)(1 - xl)(1 - x6).  It uses only +, - and *, so it evaluates on
    # floats, on Fractions and on the polynomials of _cleared_table alike
    x1, x2, x3, xl, x4, x5, x6 = x
    pm, u1, ul, u6 = 1 - y, 1 - x1, 1 - xl, 1 - x6
    return (
        pm * (x2 * u1 * ul + pm * ((x3 + x6) * ul + (x4 + x5 + xl * x6) * u1))
        + u1 * ul * u6 + pm * u6 * (x1 * ul + xl * u1)
    )


def local_factor_sum(p: int, s: float, cutoff: int = 40) -> float:
    """Truncated vartheta-weighted sum defining the local factor.

    Sums vartheta(p^e) * p^(-sum_i e_i (lambda_i s + 1)) over exponent
    vectors e in {0..cutoff}^7.  Vanishing terms are recognized through
    vartheta itself: a support pattern is skipped when its representative
    weight is zero, and a coordinate is capped at exponent 1 when raising
    it to 2 kills the weight.  The surviving terms factor into geometric
    partial sums, so the result equals the full boxed sum exactly.
    The series converges when every 1 + lambda_i * s is positive, that is
    for s > -1/6.
    """
    if s <= -1 / 6:
        raise ValueError("the local factor series diverges for s <= -1/6")
    if cutoff < 20:
        raise ValueError("cutoff must be at least 20")
    x = [p ** -(lam * s + 1) for lam in LAMBDA]
    total = 0.0
    for mask in range(128):
        support = [(mask >> i) & 1 for i in range(7)]
        rep = tuple(p**e for e in support)
        weight = vartheta(rep)
        if weight == 0:
            continue
        term = float(weight)
        for i in range(7):
            if not support[i]:
                continue
            probe = tuple(p ** (2 if j == i else support[j]) for j in range(7))
            cap = cutoff if vartheta(probe) != 0 else 1
            xi_pow = x[i]
            term *= xi_pow * (1.0 - xi_pow**cap) / (1.0 - xi_pow)
        total += term
    return total


# --- assembly ---------------------------------------------------------------


@dataclass(frozen=True)
class PeyreConstant:
    """The assembled constant c = alpha * beta * omega_inf * omega_0."""

    alpha: Fraction
    beta: Fraction
    omega0: EulerProduct
    omega_inf: ArchimedeanDensity
    c: float
    c_error: float


def peyre_constant(P: int = 10**5, quad_tol: float = 1e-9) -> PeyreConstant:
    """Compute the full constant with propagated error estimates."""
    if P < 10**3:
        raise ValueError("truncation prime must be at least 1000")
    w0 = omega0(P)
    winf = omega_inf(quad_tol)
    a = float(ALPHA) * float(BETA)
    c = a * w0.value * winf.value
    c_err = a * (w0.tail_bound * winf.value + w0.value * winf.error)
    return PeyreConstant(ALPHA, BETA, w0, winf, c, c_err)


# --- the main term ------------------------------------------------------------

def _cleared_table():
    """Integer coefficients a[j, k] of y^j z^k in H_p = F_p * prod_i (1 - x_i),
    with y = 1/p, z = p^-s and x_i = y * z^lambda_i.

    _cleared_factor runs on polynomials in one variable t, with z = t and
    y = t^K: the coefficient of y^j z^k lands at t^(jK + k), without overlap
    because no monomial has a z-degree above sum(LAMBDA) < K.  The float
    coefficients are exact integers.
    """
    K = sum(LAMBDA) + 1
    t = np.polynomial.Polynomial([0.0, 1.0])
    y = t**K
    x = [y * t**lam for lam in LAMBDA]
    # times the four factors 1 - x_i that _cleared_factor has not cleared
    h = _cleared_factor(y, x) * (1 - x[1]) * (1 - x[2]) * (1 - x[4]) * (1 - x[5])
    coef = np.zeros(-(-len(h.coef) // K) * K)
    coef[: len(h.coef)] = h.coef
    return np.rint(coef).astype(np.int64).reshape(-1, K)


# row j, column k: the coefficient of y^j z^k in H_p; row 0 is the constant 1
# and row 1 is zero, so H_p = 1 + O(1/p^2)
_H_TABLE = _cleared_table()
_PRIME_CHUNK = 2**13


def _series_mul(a, b):
    # product of two power series, truncated to the length of a
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]


def _archimedean_moments(order):
    """Taylor coefficients of K(w) = 6 * int_0^1 g2(v) v^(6w) dv up to w^order.

    The coefficient of w^n is 6 * int_0^1 g2(v) (6 log v)^n / n! dv, from the
    32-point panels of _g2_integrals; the w^0 one equals omega_inf_g2's value
    bit for bit.
    """
    n = np.arange(order + 1)[:, None, None]
    fact = np.array([math.factorial(k) for k in range(order + 1)], dtype=float)[:, None, None]
    total = _g2_integrals(lambda v: g2(v) * (6.0 * np.log(v)) ** n / fact, 32).sum(axis=-1)
    return [6.0 * float(t) for t in total]


def _euler_taylor(P, order):
    """Taylor coefficients of G(w) = prod_{p <= P} H_p(w), with
    H_p(w) = F_p(w) prod_i (1 - p^(-1 - lambda_i w)), up to w^order.

    In y = 1/p and z = p^-w, H_p = sum_jk a_jk y^j z^k (_H_TABLE), and
    z^k = e^(-k L w) with L = log p.  So the w^n coefficient of H_p - 1 is
    (-L)^n / n! * sum_{j >= 2} y^j b_jn, with the exact integers
    b_jn = sum_k a_jk k^n.  The power series of log H_p is summed over the
    primes in real arithmetic, and exponentiated once.  The w^0 coefficient
    is omega0(P), whose tail is bounded; above it the truncation at P has no
    error bound yet: the w^n coefficient carries sum_{p > P} (log p)^n / p^2.
    """
    # b[n, j - 2] = sum_k a_jk k^n, exact in float while below 2^53
    k = np.arange(_H_TABLE.shape[1], dtype=float)
    b = k ** np.arange(order + 1.0)[:, None] @ _H_TABLE[2:].T.astype(float)
    log_g = np.zeros(order + 1)
    primes = _primes_upto(P).astype(float)
    for start in range(0, len(primes), _PRIME_CHUNK):
        p = primes[start : start + _PRIME_CHUNK]
        pw = p ** -np.arange(2.0, 2 + b.shape[1])[:, None]
        # one product per row, so row 0 rounds alike at every order
        u = np.empty((order + 1, len(p)))
        for row, out in zip(b, u):
            np.matmul(row, pw, out=out)
        scale, minus_log_p = np.ones_like(p), -np.log(p)
        for m in range(1, order + 1):
            scale *= minus_log_p / m
            u[m] *= scale
        # log(1 + u) as a power series in w, one column per prime
        log_h = np.empty_like(u)
        log_h[0] = np.log1p(u[0])
        inv = 1.0 / (1.0 + u[0])
        for m in range(1, order + 1):
            acc = m * u[m]
            for j in range(1, m):
                acc -= j * log_h[j] * u[m - j]
            log_h[m] = acc * inv / m
        log_g += log_h.sum(axis=1)
    log_g = log_g.tolist()
    g = [math.exp(log_g[0])]
    for m in range(1, order + 1):
        g.append(sum(j * log_g[j] * g[m - j] for j in range(1, m + 1)) / m)
    return g


# the Stieltjes constants gamma_0, ..., gamma_5, rounded from mpmath.stieltjes
_STIELTJES = (
    0.5772156649015329, -0.07281584548367673, -0.00969036319287232,
    0.002053834420303346, 0.0023253700654673, 0.0007933238173010627,
)


def _zeta_taylor(order):
    """Taylor coefficients of w^7 * prod_i zeta(1 + lambda_i w) up to w^order.

    Each factor comes from the Laurent expansion
    zeta(1 + s) = 1/s + sum_n (-1)^n gamma_n s^n / n!  (Stieltjes constants,
    _STIELTJES; order <= 6).
    """
    gammas = _STIELTJES[:order]
    out = [1.0] + [0.0] * order
    for lam in LAMBDA:
        factor = [1.0 / lam] + [
            (-1) ** k * gammas[k] * lam**k / math.factorial(k) for k in range(order)
        ]
        out = _series_mul(out, factor)
    return out


def main_term_coefficients(P: int = 10**5) -> tuple:
    """Coefficients of L^0, ..., L^6 in the polynomial P of the main term
    B * P(log B) of the counting function.

    The proof's main term N*(B) = B * sum_xi vartheta(xi) X0 g2(X0) / prod xi,
    with X0 = (prod xi_i^lambda_i / B)^(1/6), is the Mellin integral of
    B^(1+w) K(w) F(w), where F(w) = sum_xi vartheta(xi) prod xi_i^-(1 +
    lambda_i w) = prod_p F_p(w) and K(w) = 6 * int_0^1 g2(v) v^(6w) dv.
    Writing F(w) = G(w) prod_i zeta(1 + lambda_i w), the pole of order 7 at
    w = 0 leaves  P(L) = Res_{w=0} K(w) G(w) prod_i zeta(1 + lambda_i w) e^(wL).

    The leading coefficient is K(0) G(0) / (6! prod lambda_i), that is
    omega_inf * omega_0 * alpha = c.  G's Taylor coefficients come from the
    power series of log H_p, summed over the primes p <= P (_euler_taylor);
    G(0) is omega0(P).  For n >= 1 the truncation has no error bound yet:
    the w^n coefficient of G carries sum_{p > P} (log p)^n / p^2.
    """
    if P < 10**3:
        raise ValueError("truncation prime must be at least 1000")
    order = len(LAMBDA) - 1
    h = _series_mul(
        _series_mul(_archimedean_moments(order), _euler_taylor(P, order)),
        _zeta_taylor(order),
    )
    return tuple(h[order - k] / math.factorial(k) for k in range(order + 1))
