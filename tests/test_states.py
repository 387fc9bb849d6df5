import math

import numpy as np
import pytest

from gravpulse import states
from gravpulse.errors import (GridMismatchError, SupportEscapeError,
                              ValidityError)
from gravpulse.overlap import overlap_mixed, overlap_pure
from gravpulse.profiles import comb, gaussian_linear, gaussian_quadratic, phase
from gravpulse.states import (DiscreteState, FrequencyGrid, StateKind,
                              apply_redshift, fidelity, mixed_state,
                              pure_state, purity,
                              sharp_frequency_diagonal_trace)


def grid_with(lam, widths=24.0):
    return FrequencyGrid.centered(int(round(widths / lam)), lam)


def test_grid_validation():
    with pytest.raises(ValidityError):
        FrequencyGrid.centered(100, 0.2)       # lam too coarse
    with pytest.raises(ValidityError):
        FrequencyGrid.centered(100, 0.01)      # covers only 1 width
    g = FrequencyGrid.centered(2048, 20.0 / 2048)
    assert g.z_max == -g.z_min
    assert len(g.centers()) == 2048


def test_pure_state_construction():
    prof = gaussian_quadratic(0.8, z0=2.0)
    grid = grid_with(1.0 / 64)
    s = pure_state(prof, grid)
    assert s.kind is StateKind.PURE
    # discretized norm is 1 well before renormalization
    assert s.prenorm_residual < 1e-8
    assert np.vdot(s.amplitudes, s.amplitudes).real == pytest.approx(1.0, abs=1e-14)
    # bin phases equal the profile phase at the centers exactly
    z = grid.centers()
    idx = np.abs(z) < 3.0
    assert np.allclose(np.angle(s.amplitudes[idx]),
                       np.angle(np.exp(1j * phase(prof, z[idx]))))


def test_mixed_matches_pure_diagonal():
    prof = gaussian_linear(1.3)
    grid = grid_with(1.0 / 64)
    sp = pure_state(prof, grid)
    sm = mixed_state(prof, grid)
    assert np.max(np.abs(sm.probabilities - np.abs(sp.amplitudes) ** 2)) < 1e-12
    assert sm.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_mixed_purity_value():
    # sum p^2 discretizes lam * integral |F|^4 = lam / (2 sqrt(pi))
    prof = gaussian_linear(0.0)
    for lam in (1.0 / 64, 1.0 / 128):
        s = mixed_state(prof, grid_with(lam))
        assert purity(s) == pytest.approx(lam / (2.0 * math.sqrt(math.pi)), rel=1e-10)
        assert 0.0 < purity(s) <= 1.0


def test_purity_pure_is_one():
    s = pure_state(gaussian_linear(2.0), grid_with(1.0 / 32))
    assert purity(s) == 1.0
    assert purity(apply_redshift(s, 1.07)) == 1.0


def test_mixed_purity_below_one():
    s = mixed_state(gaussian_linear(0.5), grid_with(1.0 / 32))
    assert purity(s) < 1.0


def test_apply_redshift_identity():
    prof = gaussian_linear(1.0)
    grid = grid_with(1.0 / 64)
    s = pure_state(prof, grid)
    r = apply_redshift(s, 1.0)
    assert np.allclose(r.amplitudes, s.amplitudes, rtol=0, atol=1e-15)


def test_apply_redshift_trace_and_purity_invariance():
    prof = gaussian_linear(1.0)
    grid = FrequencyGrid.centered(2048, 20.0 / 2048)
    for build in (pure_state, mixed_state):
        s = build(prof, grid)
        r = apply_redshift(s, 1.05)
        if r.kind is StateKind.MIXED_DIAGONAL:
            assert r.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(purity(r) - purity(s)) < 1e-9


def test_purity_invariance_composition():
    prof = gaussian_quadratic(0.6, z0=1.0)
    grid = grid_with(1.0 / 128)
    s = mixed_state(prof, grid)
    r1 = apply_redshift(s, 1.02)
    r2 = apply_redshift(r1, 1.02)
    assert abs(purity(r2) - purity(s)) < 1e-9
    assert r2.chi_applied == pytest.approx(1.02**2)


def test_support_escape():
    prof = gaussian_linear(0.0)
    grid = FrequencyGrid.centered(300, 11.0 / 300)   # barely covers 10 widths
    for build in (pure_state, mixed_state):
        s = build(prof, grid)
        with pytest.raises(SupportEscapeError):
            apply_redshift(s, 0.7)   # expansion by 1/chi^2 ~ 2 leaks the tails


def test_redshifting_a_pure_state_samples_the_profile_once(monkeypatch):
    s = pure_state(gaussian_quadratic(0.6, z0=1.0), grid_with(1.0 / 64))
    calls = []
    for name in ("evaluate", "modulus"):
        real = getattr(states, name)
        monkeypatch.setattr(states, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    r = apply_redshift(s, 1.03)
    assert calls == ["evaluate"]
    assert np.vdot(r.amplitudes, r.amplitudes).real == pytest.approx(1.0, abs=1e-14)


def test_fidelity_trivials():
    prof = gaussian_linear(1.0)
    grid = grid_with(1.0 / 64)
    sp = pure_state(prof, grid)
    sm = mixed_state(prof, grid)
    assert fidelity(sp, sp) == pytest.approx(1.0, abs=1e-14)
    assert fidelity(sm, sm) == pytest.approx(1.0, abs=1e-14)
    # pure/diagonal mixed case via the trace formula
    assert fidelity(sp, sm) == pytest.approx(
        math.sqrt(float(np.sum(sm.probabilities**2))), rel=1e-12)


def test_fidelity_orthogonal_supports():
    grid = grid_with(1.0 / 32, widths=40.0)
    a = pure_state(gaussian_linear(0.0, z0=0.0), grid)
    # displace by editing amplitudes directly: shift by 60 bins * lam
    shift = np.roll(a.amplitudes, 500)
    b = DiscreteState(StateKind.PURE, grid, a.profile, amplitudes=shift.copy())
    assert fidelity(a, b) < 1e-6


def test_fidelity_grid_mismatch():
    a = pure_state(gaussian_linear(0.0), grid_with(1.0 / 32))
    b = pure_state(gaussian_linear(0.0), grid_with(1.0 / 64))
    with pytest.raises(GridMismatchError):
        fidelity(a, b)


@pytest.mark.parametrize("chi", [1.01, 1.05])
def test_oracle_matches_quadrature(chi):
    prof = gaussian_linear(1.0)
    target_m = overlap_mixed(prof, chi, 0.0, tol=1e-12)
    target_p = overlap_pure(prof, chi, 0.0, tol=1e-12)
    gaps_m, gaps_p = [], []
    for lam in (1.0 / 64, 1.0 / 128, 1.0 / 256):
        grid = grid_with(lam)
        sm = mixed_state(prof, grid)
        sp = pure_state(prof, grid)
        gaps_m.append(abs(fidelity(sm, apply_redshift(sm, chi)) - target_m))
        gaps_p.append(abs(fidelity(sp, apply_redshift(sp, chi)) - target_p))
    # Midpoint sampling of these analytic profiles superconverges, so each
    # refinement at least halves the gap until the 1e-12 comparison floor.
    floor = 1e-12
    for gaps in (gaps_m, gaps_p):
        assert gaps[-1] < 1e-4
        for a, b in zip(gaps, gaps[1:]):
            assert b <= max(0.55 * a, floor)


def test_oracle_comb_profile():
    chi = 1.02
    prof = comb(10.0, 2.0, phi_tilde=1.0)
    grid = grid_with(1.0 / 128, widths=30.0)
    sm = mixed_state(prof, grid)
    rm = apply_redshift(sm, chi)
    assert fidelity(sm, rm) == pytest.approx(
        overlap_mixed(prof, chi, 0.0, tol=1e-12), abs=1e-6)


def test_sharp_frequency_trace_diverges():
    prof = gaussian_linear(0.0)
    t = [sharp_frequency_diagonal_trace(prof, grid_with(lam))
         for lam in (1.0 / 32, 1.0 / 64, 1.0 / 128)]
    assert t[1] / t[0] == pytest.approx(2.0, rel=1e-6)
    assert t[2] / t[1] == pytest.approx(2.0, rel=1e-6)
