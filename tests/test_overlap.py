import math
import tracemalloc
import warnings

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
    # Re Lambda_p, Im Lambda_p and Delta_m are three components of one
    # integrand on one panel partition: each array call to quad's integrand
    # evaluates the modulus twice on arrays of its nodes, and no node is
    # visited twice.
    real_quad, real_modulus = overlap.quad, overlap.modulus
    for profile in (comb(10.0, 2.0, phi_tilde=1.0),
                    comb(10.0, 2.0, phi_tilde=0.7, phase_kind="quadratic", delta_z0=0.4)):
        nodes = []
        modulus_elements = 0

        def recording_quad(func, *args, **kwargs):
            def integrand(x):
                nodes.append(x.copy())
                return func(x)
            return real_quad(integrand, *args, **kwargs)

        def counting_modulus(profile, z):
            nonlocal modulus_elements
            modulus_elements += np.size(z)
            return real_modulus(profile, z)

        monkeypatch.setattr(overlap, "quad", recording_quad)
        monkeypatch.setattr(overlap, "modulus", counting_modulus)
        evaluate_overlap(profile, 1.05, 0.3, tol=1e-12)
        visited = np.concatenate(nodes)
        assert visited.size
        assert np.unique(visited).size == visited.size
        assert modulus_elements == 2 * visited.size


@pytest.mark.parametrize("profile", [
    gaussian_linear(0.9, z0=3.0),
    gaussian_quadratic(1.5, z0=5.0),
    comb(10.0, 2.0, phi_tilde=1.0),
    comb(10.0, 2.0, phi_tilde=0.7, phase_kind="quadratic", delta_z0=0.4, z0=1e6),
])
def test_point_node_is_modulus_product_and_phase_difference(profile, monkeypatch):
    # the integrand's three components are built from the modulus and
    # phase_difference arrays bit for bit
    captured = []
    monkeypatch.setattr(overlap, "quad",
                        lambda func, lo, hi, *rest: captured.append((func, lo, hi)) or (0.0,) * 3)
    chi, zb = 1.05, 0.3
    overlap_mixed(profile, chi, zb)
    func, lo, hi = captured[0]
    z = np.linspace(lo, hi, 201)
    re, im, weight = func(z)
    expected = modulus(profile, chi * z + zb) * modulus(profile, z / chi)
    dpsi = phase_difference(profile, chi, zb, z)
    assert np.array_equal(weight, expected)
    assert np.array_equal(re, expected * np.cos(dpsi))
    assert np.array_equal(im, expected * np.sin(dpsi))


@pytest.mark.parametrize("profile", [
    gaussian_quadratic(1.5, z0=5.0),
    comb(10.0, 2.0, phi_tilde=1.0),
    comb(10.0, 2.0, phi_tilde=0.7, phase_kind="quadratic", delta_z0=0.4),
])
def test_point_overlap_is_independent_of_node_memo_cap(profile, monkeypatch):
    # The node memo is gone: the point views are one pass, and the chunk
    # budget that bounds its memory does not change a bit of the result.
    chi, zb, tol = 1.05, 0.3, 1e-12
    ref = evaluate_overlap(profile, chi, zb, tol=tol)
    assert ref.lambda_p == lambda_pure(profile, chi, zb, tol=tol)
    assert ref.delta_m == overlap_mixed(profile, chi, zb, tol=tol)
    for budget in (1, 20_000):
        monkeypatch.setattr(overlap, "CHUNK_BYTES", budget)
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


# -- adaptive Gauss-Kronrod quadrature -------------------------------------------


@pytest.mark.parametrize("weights, degree", [("_KRONROD", 31), ("_GAUSS", 19)],
                         ids=["K21", "G10"])
def test_gauss_kronrod_rule_exactness(weights, degree):
    w, x = getattr(overlap, weights), overlap._NODES
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(w, x**k) - exact) <= 1e-15, k
    # and no further: the weights sit on the right nodes
    assert abs(np.dot(w, x ** (degree + 1)) - 2.0 / (degree + 2)) > 1e-13


def _scipy_point(profile, chi, z_bar, tol):
    """(Lambda_p, Delta_m) from three scalar scipy.integrate.quad integrals on
    the same support and breakpoints, with the same tolerances and the same
    error contract: an independent reference for overlap.quad."""
    from scipy.integrate import IntegrationWarning
    from scipy.integrate import quad as scipy_quad

    lo, hi = overlap._integration_bounds(profile, chi, z_bar)
    pts = sorted({float(p) for p in overlap._breakpoints(profile, chi, z_bar)
                  if lo < p < hi}) or None

    def weight(z):
        return modulus(profile, chi * z + z_bar) * modulus(profile, z / chi)

    def re(z):
        return weight(z) * math.cos(phase_difference(profile, chi, z_bar, z))

    def im(z):
        return weight(z) * math.sin(phase_difference(profile, chi, z_bar, z))

    parts = []
    for func in (re, im, weight):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, err = scipy_quad(func, lo, hi, epsabs=tol * 1e-2, epsrel=1e-13,
                                  limit=2**16, points=pts)
        if err > tol:
            raise NonConvergenceError(f"scipy quad error {err:.2e}")
        parts.append(val)
    return complex(parts[0], parts[1]), parts[2]


def _fuzz_draw(rng):
    chi, z_bar, tol = rng.uniform(0.7, 1.5), rng.uniform(-10.0, 10.0), rng.choice([1e-10, 1e-12])
    family = rng.integers(4)
    if family == 0:
        return gaussian_linear(rng.uniform(-5, 5), z0=rng.uniform(0, 100)), chi, z_bar, tol
    if family == 1:
        return gaussian_quadratic(rng.uniform(0, 5), z0=rng.uniform(0, 100)), chi, z_bar, tol
    sigma, d = rng.uniform(5, 40), rng.uniform(0.3, 3)
    if sigma * d < 10.0:
        return None
    if family == 2:
        return comb(sigma, d, phi_tilde=rng.uniform(-5, 5)), chi, z_bar, tol
    return comb(sigma, d, phi_tilde=rng.uniform(0, 5), phase_kind="quadratic",
                delta_z0=rng.uniform(-1, 1)), chi, z_bar, tol


def _outcome(point):
    try:
        return point()
    except NonConvergenceError:
        return None


def test_point_quadrature_matches_scipy_on_a_fuzz_sample():
    # chi in [0.7, 1.5], z_bar in +-10, Gaussians with phi <= 5 and z0 <= 100,
    # combs with sigma 5-40 and d 0.3-3, at tol 1e-10 and 1e-12
    rng = np.random.default_rng(20261017)
    checked = 0
    while checked < 48:
        draw = _fuzz_draw(rng)
        if draw is None:
            continue
        profile, chi, z_bar, tol = draw
        ref = _outcome(lambda: _scipy_point(profile, chi, z_bar, tol))
        res = _outcome(lambda: evaluate_overlap(profile, chi, z_bar, tol=tol))
        assert (ref is None) == (res is None)
        if res is not None:
            assert abs(res.lambda_p - ref[0]) <= tol
            assert abs(res.delta_m - ref[1]) <= tol
        checked += 1


def test_point_quadrature_memory_at_the_panel_cap():
    # z0 ~ 1e6 at chi = 1.05: the phase is unresolvable within 2**16 panels
    prof = gaussian_quadratic(1.0, z0=1.215e6)
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergenceError, match="65536 panels"):
            evaluate_overlap(prof, 1.05, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk of node temporaries, plus the partition: fewer than 16 float64
    # per panel (edges, values, errors and one round's copies of them)
    assert peak < overlap.CHUNK_BYTES + 16 * 8 * 2**16
