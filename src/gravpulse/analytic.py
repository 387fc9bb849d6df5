"""Closed-form and weak-field expressions for the overlap functionals.

Every formula here is pinned against the adaptive-quadrature evaluation in
:mod:`gravpulse.overlap`; where published transcriptions of these results
disagree internally on exponents or coefficients, the convention kept is
the one that matches quadrature to machine precision (the test suite and
``gravpulse validate`` enforce this).  The phase parameterizations are
those of :mod:`gravpulse.profiles`:

* linear    psi(z) = -phi*(z + z0)
* quadratic psi(z) = -phi**2*(z + z0)**2

Gaussian envelope.  With the phase slope psi'(z) = a + b*z of
`profiles.phase_slope` (linear: a = -phi, b = 0; quadratic: a = -2*phi^2*z0,
b = -2*phi^2) the pure overlap is one complex Gaussian integral.  With
P = chi^2 - 1, Q = chi^4 + 1 and g = 2*b*(chi^4 - 1)/Q:

    xi = 1 + g^2,   a1 = a*b*chi^2*P/(4*Q^2*xi),   a2 = (1 + 4*b^2)/(Q*xi)
    Delta_p(z_bar) = sqrt(2)*chi/sqrt(Q) * xi**-0.25
                     * exp(-a^2*P^2/(Q*xi) - 16*a1*z_bar - a2*z_bar^2/4)

and Delta_m is the case a = b = 0.  The pure-state maximizer is
z_bar_opt = -32*a1/a2, with gain factor exp(256*a1^2/a2); the linear phase
has xi = 1 and a1 = 0.

Weak field, every family (what `weak_field_optimum` reports).  Let
K = -i(z*d/dz + 1/2) generate dilations and P = -i*d/dz translations of
the normalized amplitude G.  To second order in delta1 the received
overlap at z_bar = delta1*s is <G|exp(i*delta1*(2K + s*P))|G> up to a
phase, so optimizing the shift projects P out of K (the second-order
fidelity expansion of Braunstein & Caves, PRL 72, 3439, 1994):

    1 - Delta_p_opt = 2*delta1^2*[Var K - Cov(K,P)^2/Var P]
    z_bar_opt       = -2*delta1*Cov(K,P)/Var P
    1 - Delta_m_opt = the same with |G| in place of G

With the phase slope psi'(z) = a + b*z and the moments m2 = int z^2 f^2,
m4 = int z^4 f^2, w0 = int f'^2, w2 = int z^2 f'^2 of the even envelope
f = |G|, Var P = w0 + b^2*m2 and Cov(K,P) = a*b*m2, and the deficits
1 - Delta = c*delta1^2 have

    c_m           = 2*w2 - 1/2
    c_p - c_m     = 2*[a^2*m2*w0/Var P + b^2*(m4 - m2^2)]
    c_naive - c_m = 2*[a^2*m2 + b^2*(m4 - m2^2)]            (z_bar = 0)

Each overlap is reported as exp(-c*delta1^2); c_naive >= c_p >= c_m >= 0
keeps the values in (0, 1] and in order.  This is the one weak-field route
for combs: `relative_change` and `comb_quadratic_optimal` both report it.

The moments are exact tooth-pair sums.  Teeth n, m of the comb add to f^2
a Gaussian in z of mean mu = s*d*(n + m)/alpha, variance 1/(2*alpha) and
weight exp(-s*d^2*((n - m)^2/2 + (n + m)^2/(4*alpha))), s = sigma^2/4,
alpha = 1/2 + 2*s, and to f'^2 the same times alpha^2*(z - mu)^2 - (s*d*(n - m))^2.
Each moment is the pair sum of Gaussian moments over the pair sum for
int f^2.  The Gaussian is the one pair s = 0, n = m = 0: (m2, m4, w0, w2) =
(1, 3, 1/4, 3/4), so c_m = 1 and c_p = 1 + 2*a^2/(1 + 4*b^2) + 4*b^2.

Comb with linear phase, the theta-series form of
`comb_linear_near_earth_optimal` (z_bar_opt = 0): an approximation kept as a
reference, about 1e-4 off the moment formula in eta/delta1^2 for
comb(10.163, 2.0074, phi_tilde=4.035).  With x0 = (sigma^2/(1+sigma^2))*d^2/2,

    Delta_m_opt = (1 - delta1^2) * theta3(e^{-x0*(1+sigma^2*delta1^2)}) / theta3(e^{-x0})
    Delta_p_opt = Delta_m_opt * exp(-2*delta1^2*phi^2/sigma^2          [tooth width]
                                    - B^2/2 * <n^2>)                   [tooth dephasing]
    B = (sigma^2/(1+sigma^2)) * phi*d*(chi^4-1)/(chi^4+1)
    <n^2> = 2*sum n^2 q^{n^2} / theta3(q)

The tooth-dephasing term reflects the linear spectral phase sampled at the
tooth positions; it vanishes exponentially for well-separated teeth
(large d), where the pure/mixed ratio reduces to exp(-2*delta1^2*phi^2/sigma^2).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ValidityError
from .optimize import OptimizationResult
from .profiles import (Profile, gaussian_linear, gaussian_quadratic, jacobi_theta3,
                       phase_slope)

__all__ = [
    "WeakFieldCoefficients",
    "gaussian_linear_closed",
    "gaussian_linear_lambda",
    "gaussian_linear_optimal",
    "gaussian_linear_near_earth",
    "gaussian_quadratic_coefficients",
    "gaussian_quadratic_closed",
    "gaussian_quadratic_optimal",
    "gaussian_quadratic_deficit_coefficient",
    "gaussian_quadratic_near_earth",
    "comb_linear_near_earth_optimal",
    "comb_quadratic_optimal",
    "estimate_zeta",
    "relative_change",
    "weak_field_coefficients",
    "weak_field_optimum",
]

# -- Gaussian envelope ---------------------------------------------------------


def _gaussian_overlap(profile: Profile, chi: float,
                      p: float) -> tuple[float, float, float, float]:
    """(xi, a1, a2, log_gap) of the Gaussian-envelope `profile` at chi, given
    p = chi^2 - 1 formed by the caller; log_gap is log(Delta_p/Delta_m) at
    z_bar = 0.  See the module docstring."""
    if chi <= 0.0:
        raise ValidityError(f"chi must be positive, got {chi!r}")
    a, b = phase_slope(profile)
    q = chi**4 + 1.0
    g = 2.0 * b * p * (2.0 + p) / q
    xi = 1.0 + g * g
    a1 = a * b * chi * chi * p / (4.0 * q * q * xi)
    a2 = (1.0 + 4.0 * b * b) / (q * xi)
    return xi, a1, a2, -0.25 * math.log1p(g * g) - a * a * p * p / (q * xi)


def _gaussian_closed(profile: Profile, chi: float, z_bar: float) -> tuple[float, float]:
    _, a1, a2, gap = _gaussian_overlap(profile, chi, chi * chi - 1.0)
    q = chi**4 + 1.0
    dm0 = math.sqrt(2.0) * chi / math.sqrt(q)
    return (dm0 * math.exp(gap - 16.0 * a1 * z_bar - 0.25 * a2 * z_bar**2),
            dm0 * math.exp(-z_bar**2 / (4.0 * q)))


def _gaussian_optimal(profile: Profile, chi: float) -> tuple[float, float, float]:
    _, a1, a2, gap = _gaussian_overlap(profile, chi, chi * chi - 1.0)
    dm0 = math.sqrt(2.0) * chi / math.sqrt(chi**4 + 1.0)
    return dm0 * math.exp(gap + 256.0 * a1 * a1 / a2), dm0, -32.0 * a1 / a2


def gaussian_linear_closed(chi: float, phi_tilde: float, z_bar: float) -> tuple[float, float]:
    """(Delta_p, Delta_m) for the linear-phase Gaussian at arbitrary shift.

    The z_bar dependence is Gaussian, exp(-z_bar^2/(4*(chi^4+1))): the
    exponent is quadratic, which is what makes z_bar = 0 a stationary
    point.
    """
    return _gaussian_closed(gaussian_linear(phi_tilde), chi, z_bar)


def gaussian_linear_lambda(chi: float, phi_tilde: float, z_bar: float) -> complex:
    """Complex pure overlap; the argument is -phi*z_bar*(chi^2+1)/(chi^4+1)."""
    dp, _ = gaussian_linear_closed(chi, phi_tilde, z_bar)
    arg = -phi_tilde * z_bar * (chi**2 + 1.0) / (chi**4 + 1.0)
    return dp * complex(math.cos(arg), math.sin(arg))


def gaussian_linear_optimal(chi: float, phi_tilde: float) -> tuple[float, float, float]:
    """(Delta_p_opt, Delta_m_opt, z_bar_opt = 0)."""
    dp, dm, _ = _gaussian_optimal(gaussian_linear(phi_tilde), chi)
    return dp, dm, 0.0


def gaussian_linear_near_earth(delta1: float, phi_tilde: float) -> tuple[float, float]:
    """Weak-field optimal overlaps to second order in delta1."""
    c = weak_field_coefficients(gaussian_linear(phi_tilde))
    d2 = delta1 * delta1
    return 1.0 - c.c_p * d2, 1.0 - c.c_m * d2


def gaussian_quadratic_coefficients(chi: float, phi_tilde: float,
                                    z0: float) -> tuple[float, float, float]:
    """(xi, a1, a2) of the quadratic-phase Gaussian overlap; see the module
    docstring."""
    return _gaussian_overlap(gaussian_quadratic(phi_tilde, z0), chi, chi * chi - 1.0)[:3]


def gaussian_quadratic_closed(chi: float, phi_tilde: float, z0: float,
                              z_bar: float) -> tuple[float, float]:
    """(Delta_p, Delta_m) for the quadratic-phase Gaussian at arbitrary shift."""
    return _gaussian_closed(gaussian_quadratic(phi_tilde, z0), chi, z_bar)


def gaussian_quadratic_optimal(chi: float, phi_tilde: float,
                               z0: float) -> tuple[float, float, float]:
    """(Delta_p_opt, Delta_m_opt, z_bar_opt) with z_bar_opt = -32*a1/a2 for
    the pure state (0 for the mixed one)."""
    return _gaussian_optimal(gaussian_quadratic(phi_tilde, z0), chi)


def gaussian_quadratic_deficit_coefficient(phi_tilde: float, z0: float) -> float:
    """Coefficient c in 1 - Delta_p_opt = c*delta1^2 for the quadratic phase."""
    return weak_field_coefficients(gaussian_quadratic(phi_tilde, z0)).c_p


def gaussian_quadratic_near_earth(delta1: float, phi_tilde: float,
                                  z0: float) -> tuple[float, float]:
    """Weak-field optimal overlaps to second order in delta1.

    The z0^2 term carries the 1/(1+16*phi^4) reduction from optimizing the
    shift; at this order no separate delta1^4 correction survives.
    """
    c = weak_field_coefficients(gaussian_quadratic(phi_tilde, z0))
    d2 = delta1 * delta1
    return 1.0 - c.c_p * d2, 1.0 - c.c_m * d2


# -- frequency comb ------------------------------------------------------------


def _theta_mean_square_index(q: float) -> float:
    """<n^2> under tooth weights q^(n^2), n over all integers; the series
    stops at the first term below 1e-16."""
    num = 0.0
    n = 1
    while True:
        term = 2.0 * n * n * q ** (n * n)
        num += term
        if term < 1e-16:
            break
        n += 1
    return num / jacobi_theta3(q)


def comb_linear_near_earth_optimal(delta1: float, sigma_tilde: float,
                                   d_tilde: float, phi_tilde: float
                                   ) -> tuple[float, float, float]:
    """(Delta_p_opt, Delta_m_opt, z_bar_opt = 0) for the linear-phase comb
    in the weak field: the theta_3 ratio, then tooth width and dephasing;
    see the module docstring for the expression.

    For d_tilde -> 0 the theta_3 ratio reduces to 1 - sigma^2*delta1^2/2;
    for well-separated teeth the dephasing term vanishes and the
    pure/mixed ratio reduces to exp(-2*delta1^2*phi^2/sigma^2).
    """
    s2 = sigma_tilde * sigma_tilde
    x0 = 0.5 * (s2 / (1.0 + s2)) * d_tilde * d_tilde
    qh = math.exp(-x0 * (1.0 + s2 * delta1 * delta1))
    dm = (1.0 - delta1 * delta1) * jacobi_theta3(qh) / jacobi_theta3(math.exp(-x0))
    p = delta1 * (2.0 + delta1)              # chi^2 - 1 at chi = 1 + delta1
    chi4m1 = p * (2.0 + p)
    b = (s2 / (1.0 + s2)) * phi_tilde * d_tilde * chi4m1 / (chi4m1 + 2.0)
    dephase = 0.5 * b * b * _theta_mean_square_index(qh)
    return dm * math.exp(-2.0 * delta1**2 * phi_tilde**2 / s2 - dephase), dm, 0.0


def estimate_zeta(x: float) -> float:
    """zeta(x) = x * sum_{n>=1} cosh(n*x)**-2; the sum stops at the first
    term below 1e-16.

    The integral comparison sum ~ integral cosh(t)**-2 dt / x = 1/x predicts
    zeta -> 1 as x -> 0.  Valid for 0 < x <= 0.3.  No route of the package
    uses it; the name stays only because the benchmark's tracer looks it
    up, until the benchmark change of ROADMAP item 5.
    """
    if not 0.0 < x <= 0.3:
        raise ValidityError(f"zeta estimate valid for 0 < x <= 0.3, got {x!r}")
    total = 0.0
    n = 1
    while True:
        term = math.cosh(n * x) ** -2
        total += term
        if term < 1e-16:
            break
        n += 1
    return x * total


def comb_quadratic_optimal(profile: Profile, delta1: float) -> OptimizationResult:
    """`weak_field_optimum(profile, delta1)`.  The name stays only because
    the benchmark's tracer looks it up, until the benchmark change of
    ROADMAP item 5."""
    return weak_field_optimum(profile, delta1)


# -- relative change -----------------------------------------------------------


def relative_change(profile: Profile, delta1: float) -> float:
    """eta = Delta_p_opt/Delta_m_opt - 1 of `profile` at chi = 1 + delta1.

    Gaussians take the exact closed form through expm1 on the log-ratio, so
    that the delta1^2 scale survives down to real near-Earth magnitudes
    (~1e-20) where the overlap values themselves round to 1.0 in double
    precision.  Combs take `weak_field_optimum`'s eta, second order in
    delta1.
    """
    if profile.kind.is_comb:
        return weak_field_optimum(profile, delta1).eta
    _, a1, a2, log_gap = _gaussian_overlap(profile, 1.0 + delta1, delta1 * (2.0 + delta1))
    return math.expm1(log_gap + 256.0 * a1 * a1 / a2)


# -- weak-field optimum per profile --------------------------------------------


class WeakFieldCoefficients(NamedTuple):
    """Weak-field deficits 1 - Delta = c*delta1^2 and the optimal shift per
    unit delta1; see the module docstring."""

    c_p: float                # pure overlap at its optimal shift
    c_m: float                # mixed overlap (optimal shift 0)
    c_naive: float            # pure overlap at z_bar = 0
    z_rate: float             # z_bar_opt/delta1


@functools.lru_cache(maxsize=256)
def _envelope_moments(sigma_tilde: float, d_tilde: float,
                      n_max: int) -> tuple[float, float, float, float]:
    """(m2, m4, w0, w2) of the comb envelope f = |G| with these parameters,
    the Gaussian at sigma_tilde = n_max = 0, as exact tooth-pair sums (see
    the module docstring)."""
    s = 0.25 * sigma_tilde**2
    alpha = 0.5 + 2.0 * s
    v = 0.5 / alpha
    sums = np.zeros(5)
    # Pairs with n - m = q and n + m = p; pair -q equals pair q.  The weights
    # fall like exp(-s*d^2*q^2/2), so the loop ends where all underflow.
    for q in range(2 * n_max + 1):
        p = np.arange(q - 2 * n_max, 2 * n_max - q + 1, 2, dtype=float)
        w = np.exp(-s * d_tilde**2 * (0.5 * q * q + p * p / (4.0 * alpha)))
        if not w.any():
            break
        mu2 = (s * d_tilde / alpha * p) ** 2
        e2 = mu2 + v
        sdq2 = (s * d_tilde * q) ** 2
        sums += (2.0 if q else 1.0) * np.array(
            [w.sum(), w @ e2, w @ (mu2 * (mu2 + 6.0 * v) + 3.0 * v * v),
             (0.5 * alpha - sdq2) * w.sum(), w @ (0.5 * alpha * mu2 + 0.75 - sdq2 * e2)])
    return tuple(float(x) for x in sums[1:] / sums[0])


def weak_field_coefficients(profile: Profile) -> WeakFieldCoefficients:
    """(c_p, c_m, c_naive, z_rate) of `profile` from its envelope moments and
    phase slope, by the moment formula of the module docstring."""
    env = ((profile.sigma_tilde, profile.d_tilde, profile.n_max) if profile.kind.is_comb
           else (0.0, 0.0, 0))
    m2, m4, w0, w2 = _envelope_moments(*env)
    a, b = phase_slope(profile)
    var_p = w0 + b * b * m2
    c_m = 2.0 * w2 - 0.5
    spread = b * b * (m4 - m2 * m2)
    # w0/var_p <= 1 also after rounding, so c_p <= c_naive
    return WeakFieldCoefficients(c_m + 2.0 * (a * a * m2 * (w0 / var_p) + spread), c_m,
                                 c_m + 2.0 * (a * a * m2 + spread), -2.0 * a * b * m2 / var_p)


def weak_field_optimum(profile: Profile, delta1: float) -> OptimizationResult:
    """Optimal overlaps of `profile` at chi = 1 + delta1 to second order in
    delta1, as the "weak-field" record: each overlap is exp(-c*delta1^2)
    with c from `weak_field_coefficients`, eta = expm1(-(c_p - c_m)*delta1^2)
    keeps the delta1^2 scale where both overlaps round to 1, and the mixed
    optimum sits at z_bar = 0 with no overlap evaluated."""
    c = weak_field_coefficients(profile)
    d2 = delta1 * delta1
    # + 0.0 turns the -0.0 of an unshifted profile at delta1 < 0 into 0.0
    return OptimizationResult(c.z_rate * delta1 + 0.0, math.exp(-c.c_p * d2),
                              math.exp(-c.c_m * d2), math.exp(-c.c_naive * d2),
                              math.expm1(-(c.c_p - c.c_m) * d2), 0, True, "weak-field")
