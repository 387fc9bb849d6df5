"""Acceptance suite: every release criterion with its pinned tolerance.

Each test prints one PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` for the full report.  The real
near-Earth regime (delta1 ~ 1e-10) puts overlap deficits below double
precision, so the criteria combine exaggerated-redshift reproduction of
the closed forms with scaling checks of the weak-field expansions.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from gravpulse import analytic, validation
from gravpulse.analytic import (comb_linear_near_earth_optimal,
                                gaussian_linear_near_earth,
                                gaussian_linear_optimal,
                                gaussian_quadratic_coefficients,
                                gaussian_quadratic_deficit_coefficient,
                                gaussian_quadratic_near_earth,
                                gaussian_quadratic_optimal, relative_change)
from gravpulse.cli import main
from gravpulse.multiphoton import coherent_overlap, fock_overlap, squeezed_overlap
from gravpulse.optimize import maximize_shift
from gravpulse.overlap import evaluate_overlap, overlap_mixed, overlap_pure
from gravpulse.profiles import comb, gaussian_linear, gaussian_quadratic
from gravpulse.states import (FrequencyGrid, apply_redshift, fidelity,
                              mixed_state, pure_state, purity)


def report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_gaussian_mixed_benchmark():
    t0 = time.perf_counter()
    worst = 0.0
    for chi in (1.01, 1.05, 1.1):
        res = maximize_shift(gaussian_linear(1.0), chi)
        target = math.sqrt(2.0) * chi / math.sqrt(1.0 + chi**4)
        worst = max(worst, abs(res.delta_m_opt - target) / target)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-7
    assert elapsed < 1.0
    report(1, f"mixed benchmark within {worst:.2e} (<1e-7), {elapsed:.2f} s (<1 s)")


def test_criterion_02_phase_penalty():
    chi = 1.02
    worst = 0.0
    for phi in (0.5, 1.0, 2.0, 3.0):
        res = maximize_shift(gaussian_linear(phi), chi)
        ratio = res.delta_p_opt / res.delta_m_opt
        target = math.exp(-((chi**2 - 1.0) ** 2) * phi**2 / (chi**4 + 1.0))
        worst = max(worst, abs(ratio - target) / target)
    assert worst < 1e-7
    report(2, f"pure/mixed penalty exp factor within {worst:.2e} (<1e-7)")


def test_criterion_03_quadratic_stationary_point():
    chi, phi, z0 = 1.001, 0.5, 100.0
    prof = gaussian_quadratic(phi, z0=z0)
    res = maximize_shift(prof, chi)
    _, a1, a2 = gaussian_quadratic_coefficients(chi, phi, z0)
    z_pred = -32.0 * a1 / a2
    rel = abs(res.z_bar_opt - z_pred) / abs(z_pred)
    naive = res.naive_delta_p
    assert rel < 1e-6
    assert naive < res.delta_p_opt
    report(3, f"z_bar_opt = {res.z_bar_opt:.6g} matches -32*a1/a2 within {rel:.2e}; "
              f"naive {naive:.9f} < optimal {res.delta_p_opt:.9f}")


def test_criterion_04_near_earth_expansion_order():
    # Coefficients confirmed by Richardson fit of the exact optimal overlaps.
    # The linear-phase deficit is (1 + 2 phi^2) d1^2.  For the quadratic
    # phase the quadrature-validated deficit is
    # (1 + 16 phi^4 + 8 phi^4 z0^2/(1 + 16 phi^4)) d1^2; both the phi^4
    # weight and the shift-gain reduction of the z0^2 term follow from the
    # complex Gaussian integral and are pinned against direct quadrature by
    # the validation battery (published transcriptions of this formula
    # disagree internally; the oracle decides).
    ladder = (4e-3, 2e-3, 1e-3, 5e-4)

    def richardson(exact_fn, c_impl, label):
        deficits = [(1.0 - exact_fn(1.0 + d)) / d**2 for d in ladder]
        fits = [2.0 * b - a for a, b in zip(deficits, deficits[1:])]
        for fit in fits:
            assert abs(fit - c_impl) / c_impl < 1e-2, label
        return fits[-1]

    worst_ratio = 0.0
    for phi in (0.5, 2.0):
        c = 1.0 + 2.0 * phi**2
        richardson(lambda chi: gaussian_linear_optimal(chi, phi)[0], c, "linear")
        ratios = [abs(gaussian_linear_optimal(1.0 + d, phi)[0]
                      - gaussian_linear_near_earth(d, phi)[0]) / d**3
                  for d in ladder]
        assert max(ratios) / min(ratios) < 5.0
        for a, b in zip(ratios, ratios[1:]):
            assert b <= 1.05 * a          # residual never grows as d1 shrinks
        worst_ratio = max(worst_ratio, max(ratios) / min(ratios))

    for phi, z0 in ((0.5, 100.0), (1.5, 20.0)):
        c = gaussian_quadratic_deficit_coefficient(phi, z0)
        richardson(lambda chi: gaussian_quadratic_optimal(chi, phi, z0)[0], c, "quadratic")
        ratios = [abs(gaussian_quadratic_optimal(1.0 + d, phi, z0)[0]
                      - gaussian_quadratic_near_earth(d, phi, z0)[0]) / d**3
                  for d in ladder]
        assert max(ratios) / min(ratios) < 5.0
        for a, b in zip(ratios, ratios[1:]):
            assert b <= 1.05 * a
        worst_ratio = max(worst_ratio, max(ratios) / min(ratios))
    report(4, f"deficit coefficients confirmed to 1% by Richardson fit; "
              f"|exact-expansion|/d1^3 bounded (max spread {worst_ratio:.2f})")


def test_criterion_05_comb_linear_optimal():
    t0 = time.perf_counter()
    d1 = 1e-3
    chi = 1.0 + d1
    worst = 0.0
    for phi in (0.0, 5.0):
        prof = comb(10.0, 2.0, phi_tilde=phi)
        dp, dm, zb = comb_linear_near_earth_optimal(d1, 10.0, 2.0, phi)
        assert zb == 0.0
        worst = max(worst,
                    abs(dp - overlap_pure(prof, chi, 0.0, tol=1e-11)),
                    abs(dm - overlap_mixed(prof, chi, 0.0, tol=1e-11)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6        # combined O(d1^3) + truncation envelope
    assert elapsed < 30.0
    report(5, f"comb weak-field optimal within {worst:.2e} of quadrature "
              f"(<1e-6), {elapsed:.1f} s (<30 s)")


def test_criterion_06_purity_invariance():
    grid = FrequencyGrid.centered(2048, 20.0 / 2048)
    prof = gaussian_linear(1.0)
    worst = 0.0
    for build in (pure_state, mixed_state):
        s = build(prof, grid)
        r = apply_redshift(s, 1.05)
        worst = max(worst, abs(purity(r) - purity(s)))
    assert worst < 1e-9
    report(6, f"purity drift {worst:.2e} (<1e-9) on the 2048-bin grid at chi=1.05")


def test_criterion_07_oracle_equivalence():
    chi = 1.05
    prof = gaussian_linear(1.0)
    target = overlap_mixed(prof, chi, 0.0, tol=1e-12)
    gaps = []
    for lam_inv in (64, 128, 256, 512):
        lam = 1.0 / lam_inv
        grid = FrequencyGrid.centered(int(round(24.0 * lam_inv)), lam)
        sent = mixed_state(prof, grid)
        gaps.append(abs(fidelity(sent, apply_redshift(sent, chi)) - target))
    assert gaps[-1] < 1e-4
    # Midpoint sampling of analytic profiles superconverges, so refinement
    # at least halves the gap until the 1e-12 comparison floor.
    floor = 1e-12
    for a, b in zip(gaps, gaps[1:]):
        assert b <= max(0.55 * a, floor)
    report(7, f"oracle gap at lam=1/512 is {gaps[-1]:.2e} (<1e-4); "
              f"ladder {['%.1e' % g for g in gaps]} within the halving bound")


def test_criterion_08_ordering_property():
    rng = np.random.default_rng(123)
    n_cases = 500
    violations = 0
    worst_gap = -1.0
    for _ in range(n_cases):
        u = rng.uniform()
        if u < 0.4:
            prof = gaussian_linear(rng.uniform(-3, 3))
        elif u < 0.8:
            prof = gaussian_quadratic(rng.uniform(0, 2), z0=rng.uniform(0, 10))
        elif u < 0.9:
            prof = comb(10.0, 2.0, phi_tilde=rng.uniform(-2, 2))
        else:
            prof = comb(12.0, 1.5, phi_tilde=rng.uniform(0, 1.5),
                        phase_kind="quadratic", delta_z0=rng.uniform(-1, 1))
        chi = rng.uniform(0.9, 1.1)
        zb = rng.uniform(-3.0, 3.0)
        res = evaluate_overlap(prof, chi, zb)
        ok = 0.0 <= res.delta_p <= res.delta_m + 1e-9 and res.delta_m <= 1.0 + 1e-9
        violations += not ok
        worst_gap = max(worst_gap, res.delta_p - res.delta_m, res.delta_m - 1.0)
    assert violations == 0
    report(8, f"0 <= delta_p <= delta_m <= 1 held in {n_cases}/{n_cases} cases "
              f"(worst signed excess {worst_gap:.2e})")


def test_criterion_09_multiphoton_laws():
    worst = 0.0
    for lam in (0.999, 0.95 + 0.02j, 0.5):
        for n in (0.0, 1.0, 10.0, 1e4):
            lam_c = complex(lam)
            dp = coherent_overlap(lam_c, n)
            worst = max(worst, abs(dp - math.exp(-(1.0 - lam_c.real) * n)))
            if lam_c.imag == 0.0:
                dp_s = squeezed_overlap(lam_c.real, n)
                worst = max(worst, abs(dp_s - 1.0 / (1.0 + 0.5 * (1.0 - lam_c.real) * n)))
    assert worst < 1e-12
    focks = [fock_overlap(0.995, n) for n in range(1, 101)]
    assert all(b < a for a, b in zip(focks, focks[1:]))
    report(9, f"coherent/squeezed laws reproduced to {worst:.1e} (<1e-12); "
              f"Fock overlap strictly decreasing over N=1..100")


def test_criterion_10_relative_change_headline():
    d1 = 1e-3
    eta_ga = relative_change(gaussian_linear(1.0), d1)
    rel_ga = abs(eta_ga - (-2.0 * d1**2)) / (2.0 * d1**2)
    # The 1/sigma^2 comb suppression requires well-separated teeth (the
    # tooth-dephasing term dies off exponentially in the spacing); d=6
    # satisfies that while meeting the comb preconditions.
    eta_co = relative_change(comb(10.0, 6.0, phi_tilde=1.0), d1)
    rel_co = abs(eta_co - (-2.0 * d1**2 / 100.0)) / (2.0 * d1**2 / 100.0)
    assert rel_ga < 1e-2
    assert rel_co < 1e-2
    assert eta_ga < eta_co < 0.0
    report(10, f"eta_gaussian = -2 phi^2 d1^2 within {rel_ga:.1e}; "
               f"eta_comb = eta_gaussian/sigma^2 within {rel_co:.1e} "
               f"(coherence enhances distortion; separated comb suppresses it)")


def test_criterion_11_earth_scale_sanity(capsys):
    assert main(["redshift", "--preset", "earth-leo"]) == 0
    out = capsys.readouterr().out
    values = {line.split(" = ")[0]: float(line.split(" = ")[1].split()[0])
              for line in out.strip().splitlines() if " = " in line}
    approx = -0.125 * 8.87e-3 / 6.371e6
    assert abs(values["delta1"] - approx) / abs(approx) < 0.25
    kw = abs(values["kappa*omega0"])
    assert 1e4 <= kw <= 1e6          # of order 1e5 rad/s, one-order tolerance
    assert math.isfinite(kw)
    report(11, f"earth-LEO: delta1 = {values['delta1']:.3e} ~ -(1/8) r_s/r_a; "
               f"|kappa*omega0| = {kw:.3e} rad/s within one order of 1e5")


def test_criterion_12_mutation_sensitivity(monkeypatch):
    # A 1e-3 perturbation of any closed-form constant must fail validation.
    def battery_fails() -> bool:
        return not all(r.passed for r in validation.run_battery(validation.FAST))

    mutations = []

    orig_lin_opt = analytic.gaussian_linear_optimal
    def mutated_lin_opt(chi, phi):
        dp, dm, zb = orig_lin_opt(chi, phi)
        return dp, dm * (1.0 + 1e-3), zb       # the mixed-overlap constant
    mutations.append(("gaussian_linear_optimal", mutated_lin_opt))

    orig_coeffs = analytic.gaussian_quadratic_coefficients
    def mutated_coeffs(chi, phi, z0):
        xi, a1, a2 = orig_coeffs(chi, phi, z0)
        return xi, a1 * (1.0 + 1e-3), a2
    mutations.append(("gaussian_quadratic_coefficients", mutated_coeffs))

    orig_lin_ne = analytic.gaussian_linear_near_earth
    def mutated_lin_ne(d1, phi):
        dp, dm = orig_lin_ne(d1, phi)
        return 1.0 - (1.0 - dp) * (1.0 + 1e-3), dm
    mutations.append(("gaussian_linear_near_earth", mutated_lin_ne))

    orig_quad_ne = analytic.gaussian_quadratic_near_earth
    def mutated_quad_ne(d1, phi, z0):
        dp, dm = orig_quad_ne(d1, phi, z0)
        return 1.0 - (1.0 - dp) * (1.0 + 1e-3), dm
    mutations.append(("gaussian_quadratic_near_earth", mutated_quad_ne))

    orig_comb = analytic.comb_linear_near_earth_optimal
    def mutated_comb(d1, sig, d, phi):
        dp, dm, zb = orig_comb(d1, sig, d, phi)
        return dp * (1.0 + 1e-3), dm, zb
    mutations.append(("comb_linear_near_earth_optimal", mutated_comb))

    orig_rc = analytic.relative_change
    def mutated_rc(profile, d1):
        return orig_rc(profile, d1) * (1.0 + 1e-3)
    mutations.append(("relative_change", mutated_rc))

    orig_wfo = analytic.weak_field_optimum
    def mutated_wfo(profile, d1):
        res = orig_wfo(profile, d1)
        return dataclasses.replace(res, delta_m_opt=res.delta_m_opt * (1.0 + 1e-3))
    mutations.append(("weak_field_optimum", mutated_wfo))

    orig_wf = analytic.weak_field_coefficients
    def mutated_wf(profile):
        return analytic.WeakFieldCoefficients(*(c * (1.0 + 1e-3) for c in orig_wf(profile)))
    mutations.append(("weak_field_coefficients", mutated_wf))

    caught = []
    for name, mutant in mutations:
        with monkeypatch.context() as m:
            m.setattr(analytic, name, mutant)
            caught.append(battery_fails())
        assert caught[-1], f"validation did not catch a 1e-3 drift in {name}"

    assert not battery_fails()     # pristine build still passes
    report(12, f"validation caught {sum(caught)}/{len(mutations)} seeded "
               f"1e-3 coefficient drifts and passes when pristine")
