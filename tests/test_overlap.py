import math

import numpy as np
import pytest

from gravpulse.analytic import gaussian_linear_closed
from gravpulse import overlap
from gravpulse.errors import NonConvergenceError, ValidityError
from gravpulse.overlap import (SubPeak, evaluate_overlap, lambda_pure, overlap_batch,
                               overlap_mixed, overlap_multipeak, overlap_pure)
from gravpulse.profiles import (comb, gaussian_linear, gaussian_quadratic, modulus,
                                phase_difference)


@pytest.mark.parametrize("profile", [
    gaussian_linear(1.5),
    gaussian_quadratic(0.8, z0=3.0),
    comb(10.0, 2.0, phi_tilde=1.0),
    comb(10.0, 2.0, phi_tilde=0.7, phase_kind="quadratic", delta_z0=0.4),
])
def test_flat_spacetime_fixed_point(profile):
    res = evaluate_overlap(profile, 1.0, 0.0)
    assert res.delta_p == pytest.approx(1.0, abs=1e-10)
    assert res.delta_m == pytest.approx(1.0, abs=1e-10)
    assert abs(res.lambda_p - 1.0) < 1e-10


def test_gaussian_linear_matches_closed_form():
    chi, phi, zb = 1.05, 2.0, 0.0
    lam = lambda_pure(gaussian_linear(phi), chi, zb, tol=1e-12)
    dp_c, dm_c = gaussian_linear_closed(chi, phi, zb)
    assert abs(lam) == pytest.approx(dp_c, rel=1e-8)
    dm = overlap_mixed(gaussian_linear(phi), chi, zb, tol=1e-12)
    assert dm == pytest.approx(dm_c, rel=1e-8)


def test_mixed_gaussian_benchmark_value():
    chi = 1.05
    dm = overlap_mixed(gaussian_linear(0.0), chi, 0.0, tol=1e-12)
    assert dm == pytest.approx(math.sqrt(2.0) * chi / math.sqrt(1.0 + chi**4), rel=1e-8)


def test_conjugation_symmetry():
    chi, zb = 1.08, 0.7
    lam_plus = lambda_pure(gaussian_linear(1.3), chi, zb)
    lam_minus = lambda_pure(gaussian_linear(-1.3), chi, zb)
    assert lam_plus == pytest.approx(lam_minus.conjugate(), rel=1e-10)


def test_mixed_invariant_under_phase_sign():
    chi, zb = 1.04, -0.5
    assert overlap_mixed(gaussian_quadratic(1.1, z0=4.0), chi, zb) == pytest.approx(
        overlap_mixed(gaussian_quadratic(-1.1, z0=4.0), chi, zb), rel=1e-12)


def test_disjoint_supports():
    assert overlap_pure(gaussian_linear(0.5), 1.0, 25.0) < 1e-6
    assert overlap_mixed(gaussian_linear(0.5), 1.0, 25.0) < 1e-6


def test_ordering_and_unit_bound_random():
    rng = np.random.default_rng(7)
    kinds = ("gl", "gq", "cl", "cq")
    for _ in range(120):
        kind = kinds[rng.integers(0, 4)]
        chi = rng.uniform(0.9, 1.1)
        zb = rng.uniform(-3.0, 3.0)
        if kind == "gl":
            p = gaussian_linear(rng.uniform(-3, 3))
        elif kind == "gq":
            p = gaussian_quadratic(rng.uniform(0, 2), z0=rng.uniform(0, 10))
        elif kind == "cl":
            p = comb(10.0, 2.0, phi_tilde=rng.uniform(-2, 2))
        else:
            p = comb(10.0, 2.0, phi_tilde=rng.uniform(0, 1.5),
                     phase_kind="quadratic", delta_z0=rng.uniform(-1, 1))
        res = evaluate_overlap(p, chi, zb)
        assert 0.0 <= res.delta_p <= res.delta_m + 1e-9
        assert res.delta_m <= 1.0 + 1e-9
        assert res.delta_p == abs(res.lambda_p)


def test_invalid_inputs():
    with pytest.raises(ValidityError):
        lambda_pure(gaussian_linear(0.0), -1.0, 0.0)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValidityError):
            overlap_mixed(gaussian_linear(0.0), 1.0, 0.0, tol=tol)


def test_point_overlap_evaluates_each_node_once(monkeypatch):
    # Re Lambda_p, Im Lambda_p and Delta_m are three quad integrals on the
    # same bounds and breakpoints; they must share the evaluations of the
    # profile's bound scalar modulus (two per distinct node) instead of
    # repeating them per integral.
    scipy_quad = overlap.quad
    for profile in (comb(10.0, 2.0, phi_tilde=1.0),
                    comb(10.0, 2.0, phi_tilde=0.7, phase_kind="quadratic", delta_z0=0.4)):
        nodes = set()
        kernel_calls = 0
        kernel = profile.scalar_modulus

        def recording_quad(func, *args, **kwargs):
            def integrand(x):
                nodes.add(x)
                return func(x)
            return scipy_quad(integrand, *args, **kwargs)

        def counting_kernel(z):
            nonlocal kernel_calls
            kernel_calls += 1
            return kernel(z)

        monkeypatch.setattr(overlap, "quad", recording_quad)
        monkeypatch.setitem(profile.__dict__, "scalar_modulus", counting_kernel)
        evaluate_overlap(profile, 1.05, 0.3, tol=1e-12)
        assert nodes
        assert 0 < kernel_calls <= 2 * len(nodes)


@pytest.mark.parametrize("profile", [
    gaussian_linear(0.9, z0=3.0),
    gaussian_quadratic(1.5, z0=5.0),
    comb(10.0, 2.0, phi_tilde=1.0),
    comb(10.0, 2.0, phi_tilde=0.7, phase_kind="quadratic", delta_z0=0.4, z0=1e6),
])
def test_point_node_is_modulus_product_and_phase_difference(profile, monkeypatch):
    # the node's hoisted arithmetic reproduces modulus and phase_difference
    # bit for bit
    captured = []
    monkeypatch.setattr(overlap, "_shared_node_quad",
                        lambda node, lo, hi, *rest: captured.append((node, lo, hi)) or (0.0,))
    chi, zb = 1.05, 0.3
    overlap_mixed(profile, chi, zb)
    node, lo, hi = captured[0]
    for z in np.linspace(lo, hi, 201):
        z = float(z)
        value = node(z)
        assert value.real == modulus(profile, chi * z + zb) * modulus(profile, z / chi)
        assert value.imag == phase_difference(profile, chi, zb, z)


@pytest.mark.parametrize("profile", [
    gaussian_quadratic(1.5, z0=5.0),
    comb(10.0, 2.0, phi_tilde=1.0),
    comb(10.0, 2.0, phi_tilde=0.7, phase_kind="quadratic", delta_z0=0.4),
])
def test_point_overlap_is_independent_of_node_memo_cap(profile, monkeypatch):
    chi, zb, tol = 1.05, 0.3, 1e-12
    ref = evaluate_overlap(profile, chi, zb, tol=tol)
    assert ref.lambda_p == lambda_pure(profile, chi, zb, tol=tol)
    assert ref.delta_m == overlap_mixed(profile, chi, zb, tol=tol)
    for cap in (0, 7):
        monkeypatch.setattr(overlap, "_NODE_MEMO_CAP", cap)
        assert evaluate_overlap(profile, chi, zb, tol=tol) == ref


# -- multi-peak form -----------------------------------------------------------


def test_multipeak_unit_shape_reduces_to_plain_overlap():
    prof = gaussian_linear(0.9)
    env = lambda y: modulus(prof, y)
    peaks = [SubPeak(center=0.0, width=1.0, shape=lambda u: 1.0)]
    chi, zb = 1.05, 0.3
    dp, dm = overlap_multipeak(env, peaks, chi, zb,
                               envelope_phase=lambda y: -0.9 * y)
    res = evaluate_overlap(prof, chi, zb)
    assert dp == pytest.approx(res.delta_p, abs=1e-9)
    assert dm == pytest.approx(res.delta_m, abs=1e-9)


def test_multipeak_two_subpeaks_flat_spacetime():
    # two Gaussian sub-peaks under a wide envelope, normalized numerically
    width = 0.1
    centers = (-1.0, 1.0)
    env = lambda y: math.exp(-0.25 * y * y)
    shape = lambda u: math.exp(-0.25 * u * u)
    peaks = [SubPeak(c, width, shape) for c in centers]

    from scipy.integrate import quad
    raw = lambda y: env(y) * sum(pk(y) for pk in peaks)
    norm, _ = quad(lambda y: raw(y) ** 2, -12, 12, points=centers, epsabs=1e-13)
    scale = 1.0 / math.sqrt(norm)
    dp, dm = overlap_multipeak(lambda y: scale * env(y), peaks, 1.0, 0.0)
    assert dp == pytest.approx(1.0, abs=1e-9)
    assert dm == pytest.approx(1.0, abs=1e-9)


def test_multipeak_comb_agrees_with_comb_profile():
    sig, d = 10.0, 2.0
    prof = comb(sig, d, phi_tilde=0.8)
    c = prof.norm_constant
    env = lambda y: c * math.exp(-0.25 * y * y)
    shape = lambda u: math.exp(-0.25 * u * u)
    peaks = [SubPeak(center=n * d, width=1.0 / sig, shape=shape)
             for n in range(-prof.n_max, prof.n_max + 1)]
    chi, zb = 1.02, 0.15
    dp, dm = overlap_multipeak(env, peaks, chi, zb,
                               envelope_phase=lambda y: -0.8 * y)
    res = evaluate_overlap(prof, chi, zb)
    assert dp == pytest.approx(res.delta_p, abs=1e-7)
    assert dm == pytest.approx(res.delta_m, abs=1e-7)


def test_multipeak_normalization_guard():
    env = lambda y: math.exp(-0.25 * y * y)   # not normalized
    peaks = [SubPeak(0.0, 1.0, lambda u: 1.0)]
    with pytest.raises(ValidityError):
        overlap_multipeak(env, peaks, 1.0, 0.0)


# -- fixed-node kernel -----------------------------------------------------------


def _random_profile(rng, family):
    if family == "gaussian_linear":
        return gaussian_linear(rng.uniform(-3, 3), z0=rng.uniform(0, 100))
    if family == "gaussian_quadratic":
        return gaussian_quadratic(rng.uniform(0, 1.5), z0=rng.uniform(0, 100))
    sigma, d = (10.0, 2.0) if family.endswith("10") else (25.0, 0.5)
    if family.startswith("comb_linear"):
        return comb(sigma, d, phi_tilde=rng.uniform(-2, 2))
    return comb(sigma, d, phi_tilde=rng.uniform(0, 1.5), phase_kind="quadratic",
                delta_z0=rng.uniform(-1, 1))


@pytest.mark.parametrize("family, cases, shifts", [
    ("gaussian_linear", 8, 3),
    ("gaussian_quadratic", 8, 3),
    ("comb_linear_10", 4, 2),
    ("comb_quadratic_10", 4, 2),
    ("comb_linear_25", 2, 2),
    ("comb_quadratic_25", 2, 2),
])
def test_batch_kernel_matches_quadrature(family, cases, shifts):
    rng = np.random.default_rng(sum(map(ord, family)))
    for _ in range(cases):
        prof = _random_profile(rng, family)
        chi = rng.uniform(0.9, 1.1)
        z_bars = rng.uniform(-3.0, 3.0, size=shifts)
        lam, dm = overlap_batch(prof, chi, z_bars, tol=1e-12)
        for zb, lam_k, dm_k in zip(z_bars, lam, dm):
            assert abs(lam_k - lambda_pure(prof, chi, zb, tol=1e-12)) <= 1e-12
            assert abs(dm_k - overlap_mixed(prof, chi, zb, tol=1e-12)) <= 1e-12


@pytest.mark.parametrize("profile", [
    gaussian_linear(1.5),
    # the phase rate grows with z_bar, so shifts stop at different levels
    gaussian_quadratic(1.5, z0=50.0),
    comb(10.0, 2.0, phi_tilde=1.0),
    comb(10.0, 2.0, phi_tilde=0.7, phase_kind="quadratic", delta_z0=0.4),
])
def test_batch_kernel_is_independent_of_batching(profile, monkeypatch):
    chi = 1.05
    z_bars = np.linspace(-10.0, 10.0, 41)
    lam, dm = overlap_batch(profile, chi, z_bars, tol=1e-12)
    for i, zb in enumerate(z_bars):
        lam_1, dm_1 = overlap_batch(profile, chi, [zb], tol=1e-12)
        assert lam_1[0] == lam[i] and dm_1[0] == dm[i]
    # a budget of a few rows splits the batch into many chunks
    monkeypatch.setattr(overlap, "CHUNK_BYTES", 200_000)
    lam_c, dm_c = overlap_batch(profile, chi, z_bars, tol=1e-12)
    assert np.array_equal(lam_c, lam) and np.array_equal(dm_c, dm)


def test_batch_kernel_raises_at_node_cap(monkeypatch):
    prof = gaussian_quadratic(0.7, z0=3.0)
    overlap_batch(prof, 1.05, [0.0, 1.0], tol=1e-12)   # converges under the default cap
    # the first level has 84 intervals; a cap of 128 stops the first halving
    monkeypatch.setattr(overlap, "MAX_INTERVALS", 128)
    with pytest.raises(NonConvergenceError):
        overlap_batch(prof, 1.05, [0.0, 1.0], tol=1e-12)


def test_batch_kernel_refuses_unresolvable_phase():
    # z0 ~ 1e6 makes the phase oscillate ~1e5 times per envelope width
    with pytest.raises(NonConvergenceError):
        overlap_batch(gaussian_quadratic(0.7, z0=1.215e6), 1.05, [0.0])


def test_batch_kernel_invalid_inputs():
    prof = gaussian_linear(1.0)
    for z_bars in ([0.0, float("nan")], [float("inf")]):
        with pytest.raises(ValidityError):
            overlap_batch(prof, 1.05, z_bars)
    with pytest.raises(ValidityError):
        overlap_batch(prof, 0.0, [0.0])
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValidityError):
            overlap_batch(prof, 1.05, [0.0], tol=tol)


@pytest.mark.parametrize("z_bar", [float("nan"), float("inf")])
def test_quadrature_rejects_nonfinite_shift(z_bar):
    with pytest.raises(ValidityError):
        lambda_pure(gaussian_linear(1.0), 1.05, z_bar)
    with pytest.raises(ValidityError):
        overlap_mixed(gaussian_linear(1.0), 1.05, z_bar)
