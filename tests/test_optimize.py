import tracemalloc
import warnings

import numpy as np
import pytest

from gravpulse.analytic import gaussian_quadratic_optimal
from gravpulse.optimize import (SCAN_POINTS, FlatObjectiveWarning, maximize_shift,
                                naive_corrected_overlap)
from gravpulse import optimize, overlap
from gravpulse.overlap import CHUNK_BYTES, overlap_batch, overlap_mixed, overlap_pure
from gravpulse.profiles import comb, gaussian_linear, gaussian_quadratic


def test_gaussian_linear_optimum_at_zero():
    for phi in (0.0, 1.0, 3.0):
        res = maximize_shift(gaussian_linear(phi), 1.05)
        assert abs(res.z_bar_opt) < 1e-8
        assert res.converged


def test_quadratic_stationary_point_matches_analytic():
    chi, phi, z0 = 1.001, 0.5, 100.0
    res = maximize_shift(gaussian_quadratic(phi, z0=z0), chi)
    _, _, zb = gaussian_quadratic_optimal(chi, phi, z0)
    assert res.z_bar_opt == pytest.approx(zb, rel=1e-6)
    assert res.converged


def test_flat_chi_one():
    with pytest.warns(FlatObjectiveWarning) as caught:
        res = maximize_shift(gaussian_linear(1.0), 1.0)
    assert res.z_bar_opt == 0.0
    assert res.delta_p_opt == pytest.approx(1.0, abs=1e-10)
    # one warning, and no evaluation beyond the scan
    assert len(caught) == 1
    assert res.n_evals == SCAN_POINTS
    assert res.converged


def test_flat_mixed_objective_alone_does_not_warn():
    # At chi - 1 = 1e-7 Delta_m is flat to double precision, Delta_p is not.
    prof, chi = gaussian_linear(4.0), 1.0000001
    with warnings.catch_warnings():
        warnings.simplefilter("error", FlatObjectiveWarning)
        res = maximize_shift(prof, chi)
    assert res.converged
    assert res.delta_m_opt == float(overlap_batch(prof, chi, [0.0], tol=1e-12)[1][0])


def test_optimality_against_random_probes():
    rng = np.random.default_rng(11)
    prof = gaussian_quadratic(0.7, z0=20.0)
    chi = 1.02
    res = maximize_shift(prof, chi)
    for zb in rng.uniform(-10.0, 10.0, size=100):
        assert res.delta_p_opt >= overlap_pure(prof, chi, float(zb)) - 1e-9


def test_optimum_beats_naive():
    chi = 1.01
    prof = gaussian_quadratic(0.7, z0=50.0)
    res = maximize_shift(prof, chi)
    naive, _ = naive_corrected_overlap(prof, chi)
    assert res.delta_p_opt > naive
    # for the linear phase the naive correction is already optimal
    lin = gaussian_linear(2.0)
    res_lin = maximize_shift(lin, chi)
    assert res_lin.delta_p_opt == pytest.approx(naive_corrected_overlap(lin, chi)[0],
                                                abs=1e-8)


def test_mixed_objective_even_about_maximizer():
    chi = 1.05
    prof = gaussian_quadratic(1.2, z0=10.0)
    res = maximize_shift(prof, chi)
    assert res.delta_m_opt == pytest.approx(overlap_mixed(prof, chi, 0.0), rel=1e-9)
    for h in (0.3, 1.1):
        lo = overlap_mixed(prof, chi, -h)
        hi = overlap_mixed(prof, chi, +h)
        assert lo == pytest.approx(hi, rel=1e-9)
        assert hi < res.delta_m_opt


def test_comb_objective_multimodal_global_max():
    prof = comb(10.0, 2.0, phi_tilde=1.0)
    chi = 1.01
    res = maximize_shift(prof, chi)
    # sidelobes sit a tooth spacing away; the global maximum stays at 0
    assert abs(res.z_bar_opt) < 1e-6
    for side in (-prof.d_tilde * chi, prof.d_tilde * chi):
        assert overlap_pure(prof, chi, side) < res.delta_p_opt


def test_eval_counter_positive():
    res = maximize_shift(gaussian_linear(0.5), 1.03)
    assert res.n_evals > 200


def test_optimizer_makes_no_quadrature_call(monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("the optimizer must run on the fixed-node kernel")

    monkeypatch.setattr(overlap, "quad", no_quad)
    prof = gaussian_quadratic(0.7, z0=20.0)
    res = maximize_shift(prof, 1.02)
    naive, _ = naive_corrected_overlap(prof, 1.02)
    monkeypatch.undo()
    # the reported overlaps are the kernel's, and agree with quadrature
    assert res.delta_p_opt == pytest.approx(
        overlap_pure(prof, 1.02, res.z_bar_opt, tol=1e-12), abs=1e-12)
    assert res.delta_m_opt == pytest.approx(
        overlap_mixed(prof, 1.02, 0.0, tol=1e-12), abs=1e-12)
    assert naive == pytest.approx(overlap_pure(prof, 1.02, 0.0, tol=1e-12), abs=1e-12)


def test_comb_scan_memory_stays_within_chunk_budget():
    prof = comb(25.0, 0.5, phi_tilde=1.0)
    assert prof.n_max == 18                      # 37 teeth
    tracemalloc.start()
    try:
        res = maximize_shift(prof, 1.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(res.z_bar_opt) < 1e-6
    assert peak < CHUNK_BYTES + 2**20


@pytest.mark.parametrize("prof,chi", [(gaussian_linear(2.0), 1.05),
                                      (gaussian_quadratic(0.7, z0=20.0), 1.02),
                                      (gaussian_quadratic(1.2, z0=-40.0), 1.08)])
@pytest.mark.parametrize("objective", [pytest.param(np.abs, id="Objective.PURE")])
def test_newton_refinement_eval_budget(prof, chi, objective, monkeypatch):
    # The one refinement, of Delta_p, is one _maximize call; count the shifts
    # it evaluates.
    spent = []
    real = optimize._maximize

    def counted(ev, *args):
        n = 0

        def ev_counted(xs):
            nonlocal n
            n += len(xs)
            return ev(xs)
        out = real(ev_counted, *args)
        spent.append(n)
        return out

    monkeypatch.setattr(optimize, "_maximize", counted)
    res = maximize_shift(prof, chi)
    monkeypatch.undo()
    assert len(spent) == 1
    assert spent[0] <= 30
    # the scan and the refinement
    assert res.n_evals <= SCAN_POINTS + 30
    assert res.converged
    # the objective's slope at the returned optimum, from the kernel
    z = res.z_bar_opt
    lam, _ = overlap_batch(prof, chi, [z - 1e-5, z + 1e-5], tol=1e-12)
    y = objective(lam)
    assert abs(y[1] - y[0]) / 2e-5 < 1e-5


def test_newton_refinement_matches_quadratic_closed_form():
    rng = np.random.default_rng(20261017)
    for _ in range(20):
        phi = rng.uniform(0.2, 1.5)
        z0 = rng.uniform(-60.0, 60.0)
        chi = 1.0 + rng.uniform(2e-3, 5e-2)
        res = maximize_shift(gaussian_quadratic(phi, z0=z0), chi)
        _, _, zb = gaussian_quadratic_optimal(chi, phi, z0)
        assert res.converged
        assert res.z_bar_opt == pytest.approx(zb, rel=1e-9, abs=0.0)


def test_newton_falls_back_to_bisection(monkeypatch):
    # log(objective) = 1 - sqrt(1 + (u/w)^2) with u = z_bar - z_star: concave
    # everywhere, but nearly linear a few widths out, where a Newton step
    # -u*(1 + (u/w)^2) overshoots far past the scan bracket.
    z_star, w = 0.037, 0.01

    def kernel(profile, chi, z_bars, tol):
        u = (np.asarray(z_bars, dtype=float) - z_star) / w
        dm = np.exp(1.0 - np.sqrt(1.0 + u * u))
        return dm.astype(complex), dm

    monkeypatch.setattr(optimize, "overlap_batch", kernel)
    u0 = 0.0 - z_star                      # the best grid point is z_bar = 0
    assert abs(u0 * (1.0 + (u0 / w) ** 2)) > 0.1     # first step leaves [-0.1, 0.1]
    res = maximize_shift(gaussian_linear(0.0), 1.05)
    assert res.converged
    assert res.z_bar_opt == pytest.approx(z_star, abs=1e-9)
    assert res.delta_p_opt == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("prof,chi", [(gaussian_quadratic(0.7, z0=20.0), 1.02),
                                      (comb(10.0, 2.0, phi_tilde=1.0, phase_kind="quadratic",
                                            delta_z0=0.3), 1.01)])
def test_one_pass_reports_the_kernel_values(prof, chi):
    res = maximize_shift(prof, chi)
    lam, dm = overlap_batch(prof, chi, [res.z_bar_opt, 0.0], tol=1e-12)
    assert res.delta_p_opt == float(abs(lam[0]))
    assert res.delta_m_opt == float(dm[1])
    assert res.naive_delta_p == float(abs(lam[1]))
    assert res.eta == res.delta_p_opt / res.delta_m_opt - 1.0


def test_zero_shift_values_are_exact_where_linspace_misses_zero():
    # 2*ceil(40/0.273) + 1 = 295 scan points, whose linspace midpoint is not
    # 0.0; the offset quadratic phase makes Delta_p(z_bar) sloped there.
    prof = comb(40.0, 0.273, phi_tilde=1.0, phase_kind="quadratic", delta_z0=2.0)
    chi = 1.01
    assert np.linspace(-10.0, 10.0, 295)[147] != 0.0
    res = maximize_shift(prof, chi)
    assert res.n_evals > 295
    lam, dm = overlap_batch(prof, chi, [0.0], tol=1e-12)
    assert res.naive_delta_p == float(abs(lam[0]))
    assert res.delta_m_opt == float(dm[0])


MIXED_FAMILIES = [gaussian_linear(1.5), gaussian_quadratic(1.2, z0=5.0),
                  comb(10.0, 1.0, phi_tilde=1.0),                    # d_tilde*sigma_tilde = 10
                  comb(13.0, 0.77, phi_tilde=3.0, phase_kind="quadratic", delta_z0=0.5)]


@pytest.mark.parametrize("chi", [0.7, 0.9, 1.001, 1.1, 1.5])
@pytest.mark.parametrize("prof", MIXED_FAMILIES, ids=lambda p: p.kind.value)
def test_mixed_overlap_is_even_and_peaks_at_zero_over_the_scan(prof, chi, monkeypatch):
    # Delta_m is positive definite (Bochner), so the optimizer takes it at
    # z_bar = 0; check that on the scan the optimizer itself evaluates.
    scans = []

    def recorded(profile, chi, z_bars, tol):
        lam, dm = overlap_batch(profile, chi, z_bars, tol=tol)
        scans.append((np.asarray(z_bars, dtype=float), dm))
        return lam, dm

    monkeypatch.setattr(optimize, "overlap_batch", recorded)
    res = maximize_shift(prof, chi)
    grid, dm = scans[0]
    centre = grid.size // 2
    assert grid.size % 2 == 1 and grid[centre] == 0.0
    assert res.delta_m_opt == dm[centre]
    np.testing.assert_allclose(dm, dm[::-1], rtol=1e-12, atol=0.0)
    assert np.all(dm <= dm[centre])
