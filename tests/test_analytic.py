import math

import numpy as np
import pytest

from gravpulse import analytic
from gravpulse.analytic import (comb_linear_near_earth_optimal,
                                comb_quadratic_optimal, estimate_zeta,
                                gaussian_linear_closed, gaussian_linear_lambda,
                                gaussian_linear_near_earth,
                                gaussian_linear_optimal,
                                gaussian_quadratic_closed,
                                gaussian_quadratic_coefficients,
                                gaussian_quadratic_deficit_coefficient,
                                gaussian_quadratic_near_earth,
                                gaussian_quadratic_optimal, relative_change,
                                weak_field_coefficients, weak_field_optimum)
from gravpulse.errors import ValidityError
from gravpulse.optimize import OptimizationResult, maximize_shift
from gravpulse.overlap import evaluate_overlap, lambda_pure
from gravpulse.profiles import comb, gaussian_linear, gaussian_quadratic
from gravpulse.validation import numeric_weak_field_coefficients


def test_trivial_points():
    assert gaussian_linear_closed(1.0, 0.0, 0.0) == (1.0, 1.0)
    assert gaussian_linear_optimal(1.0, 2.0)[:2] == (1.0, 1.0)
    dp, dm = gaussian_quadratic_closed(1.0, 0.0, 5.0, 0.0)
    assert (dp, dm) == (1.0, 1.0)
    assert gaussian_linear_near_earth(0.0, 3.0) == (1.0, 1.0)


def test_closed_forms_vs_quadrature_grid():
    # relative error < 1e-7 over a coarse (chi, phi, z_bar) grid
    worst = 0.0
    for chi in (1.001, 1.02, 1.05, 1.1):
        for phi in (0.0, 0.7, 3.0):
            for zb in (-1.0, 0.0, 0.6):
                res = evaluate_overlap(gaussian_linear(phi), chi, zb, tol=1e-12)
                dp, dm = gaussian_linear_closed(chi, phi, zb)
                worst = max(worst,
                            abs(res.delta_p - dp) / dp,
                            abs(res.delta_m - dm) / dm)
    assert worst < 1e-7


def test_lambda_phase_matches_quadrature():
    chi, phi, zb = 1.07, 1.4, 0.8
    lam_q = lambda_pure(gaussian_linear(phi), chi, zb, tol=1e-12)
    lam_c = gaussian_linear_lambda(chi, phi, zb)
    assert lam_q.real == pytest.approx(lam_c.real, abs=1e-10)
    assert lam_q.imag == pytest.approx(lam_c.imag, abs=1e-10)


def test_quadratic_closed_vs_quadrature():
    for chi, phi, z0, zb in ((1.01, 0.7, 50.0, 0.2), (1.2, 0.7, 3.0, 0.4),
                             (1.05, 1.5, 5.0, -0.3)):
        res = evaluate_overlap(gaussian_quadratic(phi, z0=z0), chi, zb, tol=1e-12)
        dp, dm = gaussian_quadratic_closed(chi, phi, z0, zb)
        assert res.delta_p == pytest.approx(dp, rel=1e-7)
        assert res.delta_m == pytest.approx(dm, rel=1e-7)


def test_quadratic_reduces_to_linear_at_zero_phase():
    # both at zero phase: sqrt(2)*chi/sqrt(chi^4 + 1)*exp(-z_bar^2/(4*(chi^4 + 1)))
    chi, zb = 1.04, 0.5
    q = chi**4 + 1.0
    ref = math.sqrt(2.0) * chi / math.sqrt(q) * math.exp(-zb**2 / (4.0 * q))
    for dp, dm in (gaussian_quadratic_closed(chi, 0.0, 7.0, zb),
                   gaussian_linear_closed(chi, 0.0, zb)):
        assert dp == pytest.approx(ref, rel=1e-14)
        assert dm == pytest.approx(ref, rel=1e-14)


def test_quadratic_coefficients_chi_one():
    xi, a1, a2 = gaussian_quadratic_coefficients(1.0, 0.9, 10.0)
    assert xi == 1.0
    assert a1 == 0.0
    assert a2 == pytest.approx((1.0 + 16.0 * 0.9**4) / 2.0)


def test_quadratic_optimal_consistency():
    chi, phi, z0 = 1.02, 0.8, 30.0
    dp_opt, dm_opt, zb_opt = gaussian_quadratic_optimal(chi, phi, z0)
    assert zb_opt != 0.0
    dp_at, dm_at = gaussian_quadratic_closed(chi, phi, z0, zb_opt)
    assert dp_at == pytest.approx(dp_opt, rel=1e-12)
    # a true interior maximum of the closed form
    for h in (1e-3, 1e-2):
        assert gaussian_quadratic_closed(chi, phi, z0, zb_opt + h)[0] < dp_opt
        assert gaussian_quadratic_closed(chi, phi, z0, zb_opt - h)[0] < dp_opt
    assert dm_opt == pytest.approx(gaussian_quadratic_closed(chi, phi, z0, 0.0)[1], rel=1e-13)
    assert gaussian_quadratic_optimal(chi, phi, 0.0)[2] == 0.0


def test_benchmark_identity_exact():
    for chi in (1.01, 1.3):
        _, dm, _ = gaussian_linear_optimal(chi, 1.0)
        assert dm == math.sqrt(2.0) * chi / math.sqrt(1.0 + chi**4)


@pytest.mark.parametrize("phi", [0.5, 1.0, 5.0])
def test_linear_near_earth_expansion_order(phi):
    # |exact - expansion| / d1^3 stays bounded as d1 halves
    ratios = []
    for d1 in (4e-3, 2e-3, 1e-3, 5e-4):
        exact = gaussian_linear_optimal(1.0 + d1, phi)[0]
        approx = gaussian_linear_near_earth(d1, phi)[0]
        ratios.append(abs(exact - approx) / d1**3)
    assert max(ratios) / min(ratios) < 4.0


def test_linear_near_earth_values():
    d1, phi = 1e-3, 1.0
    dp, dm = gaussian_linear_near_earth(d1, phi)
    assert dp - dm == pytest.approx(-2e-6, rel=1e-12)
    # gap to the exact closed form shrinks as O(d1^3)
    exact = gaussian_linear_optimal(1.0 + d1, 5.0)[0]
    approx = gaussian_linear_near_earth(d1, 5.0)[0]
    assert abs(exact - approx) < 60.0 * d1**3


@pytest.mark.parametrize("phi,z0", [(0.5, 100.0), (1.5, 20.0), (0.0, 50.0)])
def test_quadratic_near_earth_expansion_order(phi, z0):
    ratios = []
    for d1 in (4e-3, 2e-3, 1e-3, 5e-4):
        exact = gaussian_quadratic_optimal(1.0 + d1, phi, z0)[0]
        approx = gaussian_quadratic_near_earth(d1, phi, z0)[0]
        ratios.append(abs(exact - approx) / d1**3)
    assert max(ratios) / min(ratios) < 8.0


def test_quadratic_near_earth_zero_phase():
    d1 = 2e-3
    assert gaussian_quadratic_near_earth(d1, 0.0, 40.0) == (1.0 - d1**2, 1.0 - d1**2)


def test_quadratic_optimal_shift_near_earth_scaling():
    # |z_bar_opt| = 32 phi^4 z0 delta1 / (1 + 16 phi^4) to leading order
    d1, phi, z0 = 1e-3, 0.5, 100.0
    _, _, zb = gaussian_quadratic_optimal(1.0 + d1, phi, z0)
    lead = -32.0 * phi**4 * z0 * d1 / (1.0 + 16.0 * phi**4)
    assert zb == pytest.approx(lead, rel=5e-3)


def test_comb_linear_near_earth_against_quadrature():
    d1 = 1e-3
    chi = 1.0 + d1
    for phi in (0.0, 5.0):
        prof = comb(10.0, 2.0, phi_tilde=phi)
        res = evaluate_overlap(prof, chi, 0.0, tol=1e-11)
        dp, dm, zb = comb_linear_near_earth_optimal(d1, 10.0, 2.0, phi)
        assert zb == 0.0
        assert abs(dp - res.delta_p) < 1e-6
        assert abs(dm - res.delta_m) < 1e-6


def test_comb_linear_near_earth_trivials():
    assert comb_linear_near_earth_optimal(0.0, 10.0, 2.0, 3.0) == (1.0, 1.0, 0.0)
    dp, dm, _ = comb_linear_near_earth_optimal(1e-3, 10.0, 2.0, 0.0)
    assert dp == dm


def test_comb_linear_small_spacing_limit():
    # d -> 0: the theta ratio tends to the printed 1 - sigma^2 d1^2 / 2 form
    d1, sig = 1e-3, 40.0
    dp, dm, _ = comb_linear_near_earth_optimal(d1, sig, 0.05, 0.0)
    printed = (1.0 - d1**2) * (1.0 - 0.5 * sig**2 * d1**2)
    assert dm == pytest.approx(printed, abs=2e-6)


def test_estimate_zeta():
    z = estimate_zeta(0.01)
    assert 0.9 <= z <= 1.1
    # stability: neighboring scales agree within 5 percent
    assert abs(estimate_zeta(0.1) - estimate_zeta(0.05)) / estimate_zeta(0.05) < 0.05
    with pytest.raises(ValidityError):
        estimate_zeta(0.0)
    with pytest.raises(ValidityError):
        estimate_zeta(0.5)


def test_relative_change_values():
    d1 = 1e-3
    assert relative_change(gaussian_linear(0.0), d1) == 0.0
    eta = relative_change(gaussian_linear(1.0), d1)
    assert eta == pytest.approx(-2e-6, rel=5e-3)
    eta_c = relative_change(comb(10.0, 6.0, phi_tilde=1.0), d1)
    assert eta_c == pytest.approx(-2e-8, rel=1e-2)
    # eta <= 0 for the linear-phase families
    for phi in (0.5, 2.0):
        assert relative_change(gaussian_linear(phi), d1) <= 0.0
        assert relative_change(comb(12.0, 1.0, phi_tilde=phi), d1) <= 0.0


def test_relative_change_quadratic_matches_exact_ratio():
    # the written-out xi, a1, a2 of the quadratic-phase Gaussian
    d1, phi, z0 = 1e-3, 0.8, 30.0
    eta = relative_change(gaussian_quadratic(phi, z0=z0), d1)
    chi = 1.0 + d1
    p, q, ph4 = chi * chi - 1.0, chi**4 + 1.0, phi**4
    xi = 1.0 + 16.0 * ph4 * (chi**4 - 1.0) ** 2 / (q * q)
    a1 = chi * chi * p * ph4 * z0 / (q * q * xi)
    a2 = (1.0 + 16.0 * ph4) / (q * xi)
    ratio = xi**-0.25 * math.exp(-4.0 * ph4 * p * p * z0 * z0 / (q * xi) + 256.0 * a1 * a1 / a2)
    assert eta == pytest.approx(ratio - 1.0, rel=1e-9)


def test_relative_change_survives_tiny_delta():
    eta = relative_change(gaussian_linear(1.0), 1.74e-10)
    assert eta == pytest.approx(-2.0 * (1.74e-10) ** 2, rel=1e-6, abs=0.0)
    eta_q = relative_change(gaussian_quadratic(1.0, z0=100.0), 1e-10)
    coeff = 16.0 + 8.0 * 100.0**2 / 17.0
    assert eta_q == pytest.approx(-coeff * 1e-20, rel=1e-5, abs=0.0)


def test_relative_change_comb_linear_matches_numeric_fit():
    # eta/delta1^2 = -(c_p - c_m) of the numeric Richardson fit; the theta
    # series form of comb_linear_near_earth_optimal is ~1e-4 off here.
    prof = comb(10.163, 2.0074, phi_tilde=4.035)
    d1 = 2.3e-10
    ref = numeric_weak_field_coefficients(prof)
    assert relative_change(prof, d1) / d1**2 == pytest.approx(-(ref.c_p - ref.c_m), rel=1e-6)


def test_relative_change_comb_quadratic_survives_tiny_delta():
    # eta/delta1^2 = -(c_p - c_m) from the numeric Richardson fit, while both
    # overlaps round to 1 in double precision.
    eta = relative_change(comb(20.0, 0.5, 3.0, "quadratic"), 1e-10)
    ref = numeric_weak_field_coefficients(comb(20.0, 0.5, 3.0, "quadratic"))
    assert eta < 0.0
    assert eta / 1e-20 == pytest.approx(-(ref.c_p - ref.c_m), rel=1e-4)


def test_comb_quadratic_subnormal_phi_is_unshifted():
    # phi*phi underflows to 0: no shift, rather than a division by zero.
    prof = comb(20.0, 0.5, 5e-324, "quadratic")
    res = weak_field_optimum(prof, 1e-10)
    assert res.z_bar_opt == 0.0 and math.copysign(1.0, res.z_bar_opt) == 1.0
    assert all(map(math.isfinite, (res.delta_p_opt, res.delta_m_opt, res.naive_delta_p)))
    assert comb_quadratic_optimal(prof, 1e-10) == res


def test_weak_field_coefficients_reproduce_gaussian_closed_forms():
    c = weak_field_coefficients(gaussian_linear(1.5))
    assert (c.c_p, c.c_m, c.c_naive) == pytest.approx((5.5, 1.0, 5.5), rel=1e-12)
    for phi, z0 in ((0.5, 100.0), (1.5, 20.0)):
        c = weak_field_coefficients(gaussian_quadratic(phi, z0=z0))
        ph4 = phi**4
        c_p = 1.0 + 16.0 * ph4 + 8.0 * ph4 * z0 * z0 / (1.0 + 16.0 * ph4)
        assert c.c_p == pytest.approx(c_p, rel=1e-12)
        assert gaussian_quadratic_deficit_coefficient(phi, z0) == pytest.approx(c_p, rel=1e-12)
        _, a1, a2 = gaussian_quadratic_coefficients(1.0 + 1e-8, phi, z0)
        assert c.z_rate == pytest.approx(-32.0 * a1 / a2 / 1e-8, rel=1e-7)
    # an unshifted profile reports +0.0, not -0.0, at negative delta1
    assert math.copysign(1.0, weak_field_optimum(gaussian_linear(1.5), -1e-10).z_bar_opt) == 1.0


def test_weak_field_optimum_is_the_optimizer_record():
    res = weak_field_optimum(gaussian_quadratic(1.5, z0=20.0), 1e-10)
    assert isinstance(res, OptimizationResult)
    assert res.path == "weak-field"
    assert res.n_evals == 0 and res.converged
    assert res.z_bar_opt != 0.0 and res.eta < 0.0
    assert maximize_shift(gaussian_linear(1.0), 1.05).path == "numeric"


def test_gaussian_envelope_moments_are_exact():
    assert analytic._envelope_moments(0.0, 0.0, 0) == (1.0, 3.0, 0.25, 0.75)
    assert weak_field_coefficients(gaussian_linear(0.0)).c_m == 1.0


def _quadrature_moments(sigma_tilde, d_tilde):
    """(m2, m4, w0, w2) of the comb envelope by adaptive quadrature of the
    tooth sum and its derivative, with the teeth as breakpoints."""
    from scipy.integrate import quad

    p = comb(sigma_tilde, d_tilde)
    s = 0.25 * sigma_tilde**2
    teeth = np.arange(-p.n_max, p.n_max + 1) * d_tilde

    def f_and_df(z):
        g = np.exp(-0.25 * z * z - s * (z - teeth) ** 2)
        return g.sum(), ((-0.5 * z - 2.0 * s * (z - teeth)) * g).sum()

    lim = p.z_extent

    def integral(fn):
        return quad(fn, -lim, lim, points=teeth.tolist(), limit=20 * teeth.size,
                    epsabs=0.0, epsrel=2e-14)[0]

    norm = integral(lambda z: f_and_df(z)[0] ** 2)
    return [integral(fn) / norm for fn in (
        lambda z: z**2 * f_and_df(z)[0] ** 2, lambda z: z**4 * f_and_df(z)[0] ** 2,
        lambda z: f_and_df(z)[1] ** 2, lambda z: z**2 * f_and_df(z)[1] ** 2)]


@pytest.mark.parametrize("sigma_tilde, d_tilde", [(10.0, 2.0), (25.0, 0.5)])
def test_comb_envelope_moments_match_quadrature(sigma_tilde, d_tilde):
    p = comb(sigma_tilde, d_tilde)
    got = analytic._envelope_moments(p.sigma_tilde, p.d_tilde, p.n_max)
    for g, r in zip(got, _quadrature_moments(sigma_tilde, d_tilde)):
        assert g == pytest.approx(r, rel=1e-12)
