"""Counting rational points of bounded height on the E6-singular cubic
surface x1*x2^2 + x2*x0^2 + x3^3 = 0 through its universal torsor, with a
numerical check of the expected leading constant."""

from .arith import (
    CongruenceCount,
    count_congruence_interval,
    factorize,
    omega_distinct,
    phi_star,
    psi_frac,
    psi_tilde,
    sqrt_mod,
)
from .counting import (
    count_torsor,
    count_torsor_fast,
    count_torsor_grid,
    counts_upto,
    enumerate_points,
    enumerate_torsor_points,
)
from .density import (
    ALPHA,
    BETA,
    ArchimedeanDensity,
    EulerProduct,
    PeyreConstant,
    alpha_exact,
    alpha_simplex_check,
    g1,
    g2,
    local_factor_closed,
    local_factor_sum,
    main_term_coefficients,
    omega0,
    omega_inf,
    omega_p,
    peyre_constant,
    vartheta,
)
from .surface import (
    CountReport,
    RationalPoint,
    brute_count,
    brute_counts_upto,
    brute_points,
    height,
    normalize,
    on_line,
    surface_form,
)
from .torsor import (
    LAMBDA,
    T1_SCHEME,
    T2_SCHEME,
    CoprimalityScheme,
    TorsorPoint,
    lift,
    phi,
    phi_prime,
    psi,
    satisfies_scheme,
    torsor_residual,
)

__version__ = "0.1.0"
