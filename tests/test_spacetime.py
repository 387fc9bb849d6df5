import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravpulse.errors import ValidityError
from gravpulse.spacetime import (EARTH_RADIUS_M, EARTH_SCHWARZSCHILD_RADIUS_M,
                                 RedshiftFactor, SpacetimeConfig,
                                 classical_redshift, delta_expansion,
                                 delta_near_limit, kappa, kappa_from_delta,
                                 redshift_factor)

def chi_reference(r_a, r_b, r_s):
    """Independent high-precision evaluation of the fourth-root expression."""
    with mpmath.workdps(60):
        r_a, r_b, r_s = map(mpmath.mpf, (r_a, r_b, r_s))
        return ((1 - mpmath.mpf(3) / 2 * r_s / r_b) / (1 - r_s / r_a)) ** mpmath.mpf("0.25")


def test_flat_spacetime_is_identity():
    cfg = SpacetimeConfig(r_a=1.0e7, r_b=2.0e7, r_s=0.0)
    assert redshift_factor(cfg) == 1.0
    assert delta_expansion(cfg) == (0.0, 0.0)
    assert kappa(1.0) == 0.0


def test_equal_radii_redshift_below_one():
    cfg = SpacetimeConfig(r_a=EARTH_RADIUS_M, r_b=EARTH_RADIUS_M)
    chi = redshift_factor(cfg)
    assert chi < 1.0
    x = cfg.r_s / cfg.r_a
    expected = float(chi_reference(cfg.r_a, cfg.r_b, cfg.r_s))
    # binomial expansion cross-check to O(x^2)
    series = 1.0 - 0.125 * x - (19.0 / 128.0) * x * x
    assert chi == pytest.approx(expected, rel=1e-12)
    assert chi == pytest.approx(series, abs=1e-30)


def test_distant_receiver_limit():
    cfg = SpacetimeConfig(r_a=EARTH_RADIUS_M, r_b=1e30)
    chi = redshift_factor(cfg)
    closed = (1.0 - cfg.r_s / cfg.r_a) ** -0.25
    assert chi > 1.0
    assert chi == pytest.approx(closed, rel=1e-14)


def delta_reference(r_a, r_b, r_s):
    """The series coefficients restated in exact arithmetic."""
    xa = mpmath.mpf(r_s) / mpmath.mpf(r_a)
    xb = mpmath.mpf(r_s) / mpmath.mpf(r_b)
    d1 = xa / 4 - 3 * xb / 8
    d2 = 5 * xa**2 / 32 - 3 * xa * xb / 32 - 27 * xb**2 / 128
    return d1, d2


def test_exact_vs_series_third_order_bound():
    # The residual chi - (1 + d1 + d2) must scale like d1^3 with a stable
    # constant across magnitudes.  Double precision cannot resolve residuals
    # at r_s/r_a ~ 1e-12 (d1^3 ~ 1e-39), so the scaling law is checked in
    # 60-digit arithmetic and the double implementation is compared to the
    # high-precision series separately.
    constants = []
    with mpmath.workdps(60):
        for scale in (1e-12, 1e-9, 1e-6, 1e-4):
            r_a = 6.371e6
            r_s = scale * r_a
            cfg = SpacetimeConfig(r_a=r_a, r_b=2.5 * r_a, r_s=r_s)
            d1_hp, d2_hp = delta_reference(cfg.r_a, cfg.r_b, cfg.r_s)
            resid = abs(chi_reference(cfg.r_a, cfg.r_b, cfg.r_s) - (1 + d1_hp + d2_hp))
            constants.append(float(resid / abs(d1_hp) ** 3))
            d1, d2 = delta_expansion(cfg, max_ratio=1e-3)
            assert d1 == pytest.approx(float(d1_hp), rel=1e-13)
            assert d2 == pytest.approx(float(d2_hp), rel=1e-13)
    assert max(constants) / min(constants) < 1.01


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1.1, max_value=50.0), st.floats(min_value=1.2, max_value=2.0))
def test_chi_monotone_in_receiver_radius(rb_factor, step):
    cfg_lo = SpacetimeConfig(r_a=EARTH_RADIUS_M, r_b=rb_factor * EARTH_RADIUS_M)
    cfg_hi = SpacetimeConfig(r_a=EARTH_RADIUS_M, r_b=step * rb_factor * EARTH_RADIUS_M)
    assert redshift_factor(cfg_hi) > redshift_factor(cfg_lo)


def test_delta_expansion_equal_radii_coefficient():
    cfg = SpacetimeConfig(r_a=1e7, r_b=1e7, r_s=1.0)
    d1, _ = delta_expansion(cfg)
    assert d1 == pytest.approx(-0.125 * 1e-7, rel=1e-14)


def test_delta_expansion_matches_exact_to_third_order():
    cfg = SpacetimeConfig(r_a=1e7, r_b=3e7, r_s=5e3 * 1e-3)
    d1, d2 = delta_expansion(cfg)
    chi = redshift_factor(cfg)
    assert abs(chi - (1.0 + d1 + d2)) < 10.0 * abs(d1) ** 3


def test_delta_expansion_validity_threshold():
    cfg = SpacetimeConfig(r_a=10.0, r_b=30.0, r_s=1.0)
    with pytest.raises(ValidityError):
        delta_expansion(cfg)
    d1, d2 = delta_expansion(cfg, max_ratio=0.5)
    assert math.isfinite(d1) and math.isfinite(d2)


def test_near_limit_zero_separation_matches_expansion():
    r_a, r_s = 6.371e6, 8.87e-3
    d1_n, d2_n = delta_near_limit(r_a, 0.0, r_s)
    cfg = SpacetimeConfig(r_a=r_a, r_b=r_a, r_s=r_s)
    d1_e, d2_e = delta_expansion(cfg)
    assert d1_n == pytest.approx(d1_e, rel=1e-14)
    assert d2_n == pytest.approx(d2_e, rel=1e-14)


def test_near_limit_flat():
    assert delta_near_limit(6.371e6, 1e4, 0.0) == (0.0, 0.0)


def test_near_limit_leo_ratio():
    r_a, sep = 6.371e6, 4e5
    x = EARTH_SCHWARZSCHILD_RADIUS_M / r_a
    d1, d2 = delta_near_limit(r_a, sep, EARTH_SCHWARZSCHILD_RADIUS_M, max_ratio=0.1)
    # |d2/d1| = 3 L/r_a up to the r_s/r_a correction, here -(19/16) x
    assert abs(d2 / d1) == pytest.approx(3.0 * sep / r_a - 19.0 / 16.0 * x, rel=1e-12)
    assert abs(d2 / d1) == pytest.approx(3.0 * sep / r_a, rel=1e-7)


def test_near_limit_threshold():
    with pytest.raises(ValidityError):
        delta_near_limit(6.371e6, 4e5, EARTH_SCHWARZSCHILD_RADIUS_M)
    with pytest.raises(ValidityError):
        delta_near_limit(6.371e6, -1.0, EARTH_SCHWARZSCHILD_RADIUS_M)


def test_kappa_values():
    assert kappa(1.0) == 0.0
    assert kappa(1e9) == pytest.approx(1.0, abs=1e-17)
    d1 = 1e-6
    assert kappa(1.0 + d1) == pytest.approx(2.0 * d1, rel=2.0 * d1)
    # series check against a central finite difference of log chi^2... the
    # expansion kappa = 2*d1 - 3*d1^2 + O(d1^3)
    assert kappa_from_delta(d1) == pytest.approx(2.0 * d1 - 3.0 * d1 * d1, rel=1e-5)


def test_kappa_from_delta_matches_kappa():
    for d in (1e-3, 0.05, 0.3):
        assert kappa_from_delta(d) == pytest.approx(kappa(1.0 + d), rel=1e-14)


def test_classical_redshift():
    assert classical_redshift(0.0, 1.0, 2.0, 123.0) == 0.0
    chi, sigma, z0 = 1.05, 2.0e9, 1000.0
    expected = -sigma * kappa(chi) * z0
    assert classical_redshift(0.0, chi, sigma, z0) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValidityError):
        classical_redshift(0.0, 1.0, -1.0, 0.0)


def test_config_invariants():
    with pytest.raises(ValidityError):
        SpacetimeConfig(r_a=1.0, r_b=10.0, r_s=2.0)          # r_a <= r_s
    with pytest.raises(ValidityError):
        SpacetimeConfig(r_a=10.0, r_b=1.0, r_s=1.0)          # r_b <= 1.5 r_s
    with pytest.raises(ValidityError):
        SpacetimeConfig(r_a=float("inf"), r_b=1.0, r_s=0.0)
    with pytest.raises(ValidityError):
        SpacetimeConfig(r_a=10.0, r_b=10.0, r_s=-1.0)


def test_redshift_factor_record():
    cfg = SpacetimeConfig(r_a=EARTH_RADIUS_M, r_b=6.771e6)
    rf = RedshiftFactor.from_config(cfg)
    assert rf.chi == redshift_factor(cfg)
    assert abs(rf.delta1) > abs(rf.delta2)
    # chi - 1 ~ -1.4e-10 to full relative precision, which rf.chi - 1.0 lacks
    ref = chi_reference(cfg.r_a, cfg.r_b, cfg.r_s) - 1
    assert rf.delta == pytest.approx(float(ref), rel=1e-14, abs=0.0)
    assert abs(rf.chi - 1.0 - float(ref)) > 1e-9 * abs(float(ref))


def test_redshift_factor_record_refuses_series_beyond_ratio_bound():
    RedshiftFactor.from_config(SpacetimeConfig(r_a=100.0, r_b=200.0, r_s=4.9))
    with pytest.raises(ValidityError):
        RedshiftFactor.from_config(SpacetimeConfig(r_a=100.0, r_b=200.0, r_s=5.0))


def test_first_order_dominates_away_from_cancellation():
    # delta1 vanishes at r_b = (3/2) r_a; everywhere well away from that
    # point it dominates delta2 by roughly the 1/ratio scale
    r_a, r_s = 6.371e6, 8.87e-3
    for rb_factor in (1.0, 1.2, 2.5, 10.0, 1e3):
        cfg = SpacetimeConfig(r_a=r_a, r_b=rb_factor * r_a, r_s=r_s)
        d1, d2 = delta_expansion(cfg)
        assert abs(d1) > 1e6 * abs(d2)
