import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravpulse.errors import ValidityError
from gravpulse.profiles import (MAX_INTERVALS, DimensionfulFrame, Profile, ProfileKind, comb,
                                comb_tooth_positions, evaluate, gaussian_linear,
                                gaussian_quadratic, jacobi_theta3, modulus,
                                normalization, phase)

GAUSS_PEAK = (2.0 * math.pi) ** -0.25


def test_gaussian_linear_basics():
    p = gaussian_linear(0.0)
    assert normalization(p) == pytest.approx(1.0, abs=1e-10)
    assert evaluate(p, 0.0) == pytest.approx(GAUSS_PEAK)
    # modulus is independent of the phase strength
    for phi in (0.5, 3.0, -2.0):
        assert abs(evaluate(gaussian_linear(phi), 0.0)) == pytest.approx(GAUSS_PEAK)


def test_gaussian_fourth_power_integral():
    # integral of |F|^4 for the Gaussian equals 1/(2 sqrt(pi))
    from scipy.integrate import quad
    p = gaussian_linear(1.3)
    val, _ = quad(lambda z: modulus(p, z) ** 4, -10, 10, epsabs=1e-13)
    assert val == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-10)


def test_gaussian_decay():
    p = gaussian_linear(0.7)
    # exp(-64/4) = 1.125e-7 of the peak at |z| = 8, below 1e-7 just beyond
    for z in (8.0, -8.0):
        assert abs(evaluate(p, z)) == pytest.approx(math.exp(-16.0) * GAUSS_PEAK, rel=1e-12)
    assert abs(evaluate(p, 8.3)) < 1e-7 * abs(evaluate(p, 0.0))


def test_gaussian_quadratic_phase_vertex():
    z0 = 3.5
    p = gaussian_quadratic(0.8, z0=z0)
    assert phase(p, -z0) == 0.0
    assert normalization(p) == pytest.approx(1.0, abs=1e-10)
    # phi = 0 collapses onto the plain Gaussian
    p0 = gaussian_quadratic(0.0, z0=z0)
    zs = np.linspace(-5, 5, 11)
    assert np.allclose(evaluate(p0, zs), evaluate(gaussian_linear(0.0), zs))


def test_comb_normalization():
    p = comb(10.0, 2.0)
    assert normalization(p) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("kind", list(ProfileKind))
def test_normalization_default_params(kind):
    if kind is ProfileKind.GAUSSIAN_LINEAR:
        p = gaussian_linear(1.0)
    elif kind is ProfileKind.GAUSSIAN_QUADRATIC:
        p = gaussian_quadratic(1.0, z0=2.0)
    elif kind is ProfileKind.COMB_LINEAR:
        p = comb(10.0, 2.0, phi_tilde=1.0)
    else:
        p = comb(10.0, 2.0, phi_tilde=1.0, phase_kind="quadratic", delta_z0=0.5)
    assert normalization(p) == pytest.approx(1.0, abs=1e-8)


def test_normalization_random_sweep():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        kind = rng.integers(0, 4)
        if kind == 0:
            p = gaussian_linear(rng.uniform(-3, 3), z0=rng.uniform(0, 100))
        elif kind == 1:
            p = gaussian_quadratic(rng.uniform(0, 2), z0=rng.uniform(0, 100))
        else:
            # down to the d*sigma >= 10 precondition floor
            sig = rng.uniform(5, 40)
            d = rng.uniform(max(10.0 / sig, 0.4), 3.0)
            if d * sig < 10.0:
                continue
            p = comb(sig, d, phi_tilde=rng.uniform(-3, 3),
                     phase_kind="quadratic" if kind == 3 else "linear",
                     delta_z0=rng.uniform(-1, 1))
        assert abs(normalization(p) - 1.0) < 1e-8
        checked += 1


def test_normalization_residual_at_separation_floor():
    # At the precondition boundary adjacent teeth overlap by ~exp(-(d*sigma)^2/8)
    # ~ 4e-6 of the norm; the normalization constant includes that overlap.
    p = comb(20.0, 0.5)
    resid = abs(normalization(p) - 1.0)
    assert resid < 1e-12


def test_comb_single_tooth_limit():
    # huge spacing: only the n = 0 tooth survives, a narrow Gaussian whose
    # amplitude falls to 1/e of the peak at z = 2/sqrt(1+sigma^2)
    sig = 8.0
    p = comb(sig, 9.0)
    half = 2.0 / math.sqrt(1.0 + sig**2)
    ratio = modulus(p, half) / modulus(p, 0.0)
    assert ratio == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_comb_midpoint_suppression():
    sig, d = 10.0, 2.0
    p = comb(sig, d)
    mid = modulus(p, 0.5 * d)
    # nearest teeth each contribute exp(-sigma^2 d^2/16)
    bound = 3.0 * modulus(p, 0.0) * math.exp(-sig**2 * d**2 / 16.0)
    assert mid < bound


def test_comb_peak_alignment():
    sig, d = 10.0, 2.0
    p = comb(sig, d)
    from scipy.optimize import minimize_scalar
    for n in (0, 1, 2):
        res = minimize_scalar(lambda z: -modulus(p, z),
                              bracket=(n * d - 0.2, n * d, n * d + 0.2),
                              method="golden", options={"xtol": 1e-12})
        # The envelope pulls each tooth maximum inward by n*d/(1+sigma^2),
        # i.e. O(1/sigma^2); accounting for that pull, the maxima sit within
        # 1e-6 of the prediction.
        pulled = n * d * sig**2 / (1.0 + sig**2)
        assert abs(res.x - pulled) < 1e-6
        assert abs(res.x - n * d) <= n * d / (1.0 + sig**2) + 1e-6


def test_comb_truncation_stability():
    p1 = comb(10.0, 2.0, phi_tilde=1.0)
    p2 = comb(10.0, 2.0, phi_tilde=1.0, n_max=2 * p1.n_max)
    assert abs(normalization(p1) - normalization(p2)) < 1e-12
    zs = np.linspace(-8, 8, 41)
    assert np.max(np.abs(modulus(p1, zs) - modulus(p2, zs))) < 1e-13


@pytest.mark.parametrize("sig, d", [(10.0, 2.0), (25.0, 0.5)])
def test_comb_array_modulus_matches_scalar_loop(sig, d):
    p = comb(sig, d)
    zs = np.linspace(-p.z_extent, p.z_extent, 301).reshape(7, 43)
    arr = modulus(p, zs)
    assert arr.shape == zs.shape
    ref = np.vectorize(lambda z: modulus(p, float(z)))(zs)
    # the tooth sums differ only in summation order and in the terms below
    # exp(-60) that the scalar loop skips
    assert np.max(np.abs(arr - ref)) <= 16 * np.finfo(float).eps * modulus(p, 0.0)


def _all_teeth_array_modulus(p, z):
    """Array comb modulus summed over every tooth in ascending order with
    the same np.exp, leaving out exponents >= 60: the reference the windowed
    array sum must reproduce."""
    z = np.asarray(z, dtype=float)
    s2over4 = 0.25 * p.sigma_tilde**2
    tooth_sum = np.zeros_like(z)
    with np.errstate(over="ignore"):
        for t in comb_tooth_positions(p):
            e = s2over4 * (z - t) ** 2
            np.add(tooth_sum, np.exp(-e), out=tooth_sum, where=e < 60.0)
        envelope = np.exp(-0.25 * (z * z))
    return tooth_sum * envelope * p.norm_constant


@pytest.mark.parametrize("sig, d", [(10.0, 2.0), (25.0, 0.5), (13.0, 0.77), (100.0, 0.1)])
def test_comb_array_modulus_matches_all_teeth_sum(sig, d):
    p = comb(sig, d)
    teeth = comb_tooth_positions(p)
    reach = math.sqrt(60.0 / (0.25 * sig**2))
    outer = teeth[-1] + reach
    special = [math.inf, -math.inf, math.nan, 1e300, -1e300, 0.0, -0.0, outer + d, -outer - d]
    edges = [x for t in teeth for edge in (t - reach, t + reach)
             for x in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf))]
    zs = np.concatenate([special, edges, np.random.default_rng(5).uniform(-1.2 * outer,
                                                                          1.2 * outer, 999)])
    zs = zs[:zs.size - zs.size % 6]
    for z in (zs, zs.reshape(6, -1), zs.reshape(-1, 3)[::-1]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            arr = modulus(p, z)
        assert arr.shape == z.shape
        # bit for bit, NaN included
        assert arr.tobytes() == _all_teeth_array_modulus(p, z).tobytes()
    head = modulus(p, zs[:5])               # inf, -inf, nan, 1e300, -1e300
    assert math.isnan(head[2]) and not head[[0, 1, 3, 4]].any()


def _full_loop_modulus(p, z):
    """Scalar comb modulus summed over every tooth, skipping terms below
    exp(-60): the reference the windowed scalar loop must reproduce."""
    zf = float(z)
    s2over4 = 0.25 * p.sigma_tilde**2
    acc = 0.0
    with np.errstate(over="ignore"):
        for t in comb_tooth_positions(p):
            e = s2over4 * (zf - t) ** 2
            if e < 60.0:
                acc += math.exp(-e)
    return p.norm_constant * math.exp(-0.25 * zf * zf) * acc


@pytest.mark.parametrize("sig, d, n_max", [
    (10.0, 2.0, None), (25.0, 0.5, None), (5.0, 2.0, None), (100.0, 0.1, None),
    (13.0, 0.77, None), (10.0, 2.0, 12), (7.3, 1.5, 9),
])
def test_comb_scalar_modulus_matches_full_tooth_loop(sig, d, n_max):
    p = comb(sig, d, n_max=n_max)
    teeth = comb_tooth_positions(p)
    reach = math.sqrt(60.0 / (0.25 * sig**2))
    outer = teeth[-1] + reach
    rng = np.random.default_rng(11)
    zs = [0.0, -0.0, 1e300, -1e300, 1e20, -1e20, float("inf"), float("-inf"),
          outer + d, -outer - d, 2.0 * outer, -2.0 * outer, p.z_extent, -p.z_extent]
    zs += list(rng.uniform(-1.2 * outer, 1.2 * outer, 400))
    for t in teeth:
        for edge in (t, t - reach, t + reach):
            zs += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    for z in zs:
        assert modulus(p, z).hex() == _full_loop_modulus(p, z).hex(), z
    assert math.isnan(modulus(p, float("nan")))
    assert modulus(p, float("inf")) == 0.0 and modulus(p, -1e300) == 0.0


def test_comb_preconditions():
    with pytest.raises(ValidityError):
        comb(3.0, 4.0)            # sigma_tilde too small
    with pytest.raises(ValidityError):
        comb(10.0, 0.5)           # teeth not separated
    with pytest.raises(ValidityError):
        comb(10.0, 2.0, phase_kind="cubic")


def test_theta3_series_values():
    assert jacobi_theta3(0.0) == 1.0
    # 1 + 2*(0.1 + 1e-4 + 1e-9 + ...) = 1.200200002 (the 0.1^9 term is 2e-9)
    assert jacobi_theta3(0.1) == pytest.approx(1.200200002, abs=1e-10)
    q = 0.5
    brute = 1.0 + 2.0 * sum(q ** (n * n) for n in range(1, 80))
    assert jacobi_theta3(q) == pytest.approx(brute, rel=1e-15)
    with pytest.raises(ValueError):
        jacobi_theta3(1.0)
    with pytest.raises(ValueError):
        jacobi_theta3(-0.1)


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.9])
def test_theta3_against_mpmath(q):
    with mpmath.workdps(30):
        ref = float(mpmath.jtheta(3, 0, q))
    assert jacobi_theta3(q) == pytest.approx(ref, rel=1e-12)


def test_theta3_factor_above_one():
    p = comb(10.0, 2.0)
    q = math.exp(-0.5 * (p.sigma_tilde**2 / (1 + p.sigma_tilde**2)) * p.d_tilde**2)
    assert jacobi_theta3(q) > 1.0


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-6.0, max_value=6.0))
def test_phase_sign_leaves_modulus(phi, z):
    assert abs(evaluate(gaussian_linear(phi), z)) == abs(evaluate(gaussian_linear(-phi), z))
    pq = gaussian_quadratic(phi, z0=1.0)
    pq_neg = gaussian_quadratic(-phi, z0=1.0)
    assert abs(evaluate(pq, z)) == abs(evaluate(pq_neg, z))


def test_evaluate_vector_scalar_agree():
    p = comb(12.0, 1.5, phi_tilde=0.8)
    zs = np.linspace(-4, 4, 17)
    vec = evaluate(p, zs)
    sc = np.array([evaluate(p, float(z)) for z in zs])
    assert np.allclose(vec, sc, rtol=1e-14, atol=0)


@pytest.mark.parametrize("build", [
    lambda: Profile(ProfileKind.COMB_LINEAR, sigma_tilde=10.0, d_tilde=2.0, n_max=10**8),
    lambda: comb(1e6, 1e-5),                      # default n_max ~ 8e5 teeth
    lambda: comb(1000.0, 2.0, phase_kind="quadratic"),
], ids=["n_max_1e8", "tiny_d_huge_sigma", "sigma_1000"])
def test_comb_beyond_kernel_interval_cap_is_refused_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValidityError, match="overlap-kernel intervals"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_comb_kernel_interval_cap_boundary():
    # 8*sigma_tilde*z_extent intervals with z_extent = 5*2 + 10/sigma + 10:
    # 130960 at sigma_tilde = 818, 131280 at 820 (cap 131072)
    below = Profile(ProfileKind.COMB_LINEAR, sigma_tilde=818.0, d_tilde=2.0, n_max=5)
    assert 2.0 * below.z_extent / below.node_spacing == pytest.approx(130960.0)
    assert MAX_INTERVALS == 131072
    with pytest.raises(ValidityError):
        Profile(ProfileKind.COMB_LINEAR, sigma_tilde=820.0, d_tilde=2.0, n_max=5)


def test_tooth_positions():
    p = comb(10.0, 2.0)
    teeth = comb_tooth_positions(p)
    assert teeth[0] == -p.n_max * 2.0 and teeth[-1] == p.n_max * 2.0
    with pytest.raises(ValidityError):
        comb_tooth_positions(gaussian_linear(0.0))


@pytest.mark.parametrize("kind", list(ProfileKind), ids=lambda k: k.value)
@pytest.mark.parametrize("field", ["phi_tilde", "z0", "sigma_tilde", "d_tilde", "delta_z0"])
def test_nonfinite_profile_field_is_refused(field, kind):
    valid = dict(phi_tilde=1.0, z0=0.5, sigma_tilde=10.0, d_tilde=2.0, delta_z0=0.3, n_max=6)
    Profile(kind, **valid)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidityError):
            Profile(kind, **{**valid, field: bad})


def test_finite_profile_fields_whose_sum_overflows_are_accepted():
    p = Profile(ProfileKind.GAUSSIAN_QUADRATIC, phi_tilde=1e308, z0=1e308, delta_z0=1e308)
    assert p.phase_center == 1e308


@pytest.mark.parametrize("d_tilde", [0.0, 1e-310, -2.0, math.nan])
def test_comb_zero_or_tiny_tooth_spacing_is_refused(d_tilde):
    with pytest.raises(ValidityError, match="d_tilde"):
        comb(10.0, d_tilde)


@pytest.mark.parametrize("n_max", [6.5, 6.0, "6"])
def test_comb_non_integer_n_max_is_refused(n_max):
    with pytest.raises(ValidityError, match="n_max"):
        Profile(ProfileKind.COMB_LINEAR, sigma_tilde=10.0, d_tilde=2.0, n_max=n_max)
    assert Profile(ProfileKind.COMB_LINEAR, sigma_tilde=10.0, d_tilde=2.0,
                   n_max=np.int64(6)).n_max == 6


def test_comb_nan_n_max_is_refused():
    with pytest.raises(ValidityError, match="n_max"):
        Profile(ProfileKind.COMB_LINEAR, sigma_tilde=10.0, d_tilde=2.0, n_max=math.nan)


def test_frame_validation():
    f = DimensionfulFrame(omega0=1.215e15, sigma=1e9)
    assert f.z0 == pytest.approx(1.215e6)
    with pytest.raises(ValidityError):
        DimensionfulFrame(omega0=1e9, sigma=1e9)
    with pytest.raises(ValidityError):
        DimensionfulFrame(omega0=-1.0, sigma=1e-3)
