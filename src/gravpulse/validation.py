"""Cross-validation battery: every closed form is checked against an
independent numerical route at a tolerance far tighter than any plausible
coefficient drift, so a perturbed constant anywhere in the analytic layer
makes ``gravpulse validate`` fail.

Checks call through module attributes (``analytic.fn``) on purpose: the
mutation-sensitivity test patches those attributes and expects the battery
to notice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import analytic, multiphoton, optimize, overlap, profiles, spacetime, states

__all__ = ["CheckResult", "run_battery", "format_report", "numeric_weak_field_coefficients",
           "FAST", "FULL"]

FAST = "fast"
FULL = "full"


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# -- individual checks ---------------------------------------------------------


def check_gaussian_linear_closed_vs_quadrature() -> tuple[float, float]:
    worst = 0.0
    for chi in (1.001, 1.02, 1.1):
        for phi in (0.0, 1.0, 3.0):
            for zb in (-1.0, 0.3):
                prof = profiles.gaussian_linear(phi)
                dp_c, dm_c = analytic.gaussian_linear_closed(chi, phi, zb)
                res = overlap.evaluate_overlap(prof, chi, zb, tol=1e-12)
                worst = max(worst, _rel(dp_c, res.delta_p), _rel(dm_c, res.delta_m))
    return worst, 1e-7


def check_gaussian_quadratic_closed_vs_quadrature() -> tuple[float, float]:
    worst = 0.0
    for chi, phi, z0, zb in ((1.01, 0.7, 50.0, 0.2), (1.05, 1.5, 5.0, -0.4),
                             (1.001, 0.5, 100.0, 0.0)):
        prof = profiles.gaussian_quadratic(phi, z0=z0)
        dp_c, dm_c = analytic.gaussian_quadratic_closed(chi, phi, z0, zb)
        res = overlap.evaluate_overlap(prof, chi, zb, tol=1e-12)
        worst = max(worst, _rel(dp_c, res.delta_p), _rel(dm_c, res.delta_m))
    return worst, 1e-7


def check_mixed_benchmark() -> tuple[float, float]:
    worst = 0.0
    for chi in (1.01, 1.05, 1.1):
        prof = profiles.gaussian_linear(1.0)
        res = optimize.maximize_shift(prof, chi)
        target = math.sqrt(2.0) * chi / math.sqrt(1.0 + chi**4)
        worst = max(worst, _rel(res.delta_m_opt, target))
    return worst, 1e-7


def check_phase_penalty_ratio() -> tuple[float, float]:
    chi = 1.02
    worst = 0.0
    for phi in (0.5, 1.0, 2.0, 3.0):
        prof = profiles.gaussian_linear(phi)
        res = optimize.maximize_shift(prof, chi)
        ratio = res.delta_p_opt / res.delta_m_opt
        target = math.exp(-((chi**2 - 1.0) ** 2) * phi**2 / (chi**4 + 1.0))
        worst = max(worst, _rel(ratio, target))
    return worst, 1e-7


def check_optimizer_vs_stationary_point() -> tuple[float, float]:
    chi, phi, z0 = 1.001, 0.5, 100.0
    prof = profiles.gaussian_quadratic(phi, z0=z0)
    res = optimize.maximize_shift(prof, chi)
    _, a1, a2 = analytic.gaussian_quadratic_coefficients(chi, phi, z0)
    return _rel(res.z_bar_opt, -32.0 * a1 / a2), 1e-6


def check_near_earth_coefficients() -> tuple[float, float]:
    """Richardson-extrapolate the delta1^2 deficit coefficient of the exact
    optimal overlaps and compare with the weak-field operations."""
    worst = 0.0
    d1, d1h = 1e-4, 5e-5
    for phi in (0.5, 2.0):
        dp, _, _ = analytic.gaussian_linear_optimal(1.0 + d1, phi)
        dph, _, _ = analytic.gaussian_linear_optimal(1.0 + d1h, phi)
        fit = 2.0 * (1.0 - dph) / d1h**2 - (1.0 - dp) / d1**2
        dp_ne, _ = analytic.gaussian_linear_near_earth(1e-3, phi)
        impl = (1.0 - dp_ne) / 1e-6
        worst = max(worst, _rel(fit, impl))
    for phi, z0 in ((0.5, 100.0), (1.5, 20.0)):
        dp, _, _ = analytic.gaussian_quadratic_optimal(1.0 + d1, phi, z0)
        dph, _, _ = analytic.gaussian_quadratic_optimal(1.0 + d1h, phi, z0)
        fit = 2.0 * (1.0 - dph) / d1h**2 - (1.0 - dp) / d1**2
        dp_ne, _ = analytic.gaussian_quadratic_near_earth(1e-3, phi, z0)
        impl = (1.0 - dp_ne) / 1e-6
        worst = max(worst, _rel(fit, impl))
    return worst, 1e-4


def check_purity_invariance() -> tuple[float, float]:
    grid = states.FrequencyGrid.centered(2048, 20.0 / 2048)
    prof = profiles.gaussian_linear(1.0)
    worst = 0.0
    for build in (states.pure_state, states.mixed_state):
        before = build(prof, grid)
        after = states.apply_redshift(before, 1.05)
        worst = max(worst, abs(states.purity(after) - states.purity(before)))
    return worst, 1e-9


def check_oracle_equivalence() -> tuple[float, float]:
    chi = 1.05
    prof = profiles.gaussian_linear(1.0)
    target = overlap.overlap_mixed(prof, chi, 0.0, tol=1e-12)
    lam = 1.0 / 512.0
    grid = states.FrequencyGrid.centered(int(round(24.0 / lam)), lam)
    sent = states.mixed_state(prof, grid)
    received = states.apply_redshift(sent, chi)
    return abs(states.fidelity(sent, received) - target), 1e-4


def check_ordering_sample() -> tuple[float, float]:
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(40):
        chi = rng.uniform(0.9, 1.1)
        zb = rng.uniform(-3.0, 3.0)
        prof = profiles.gaussian_quadratic(rng.uniform(0.0, 2.0), z0=rng.uniform(0.0, 5.0))
        res = overlap.evaluate_overlap(prof, chi, zb)
        worst = max(worst, res.delta_p - res.delta_m, res.delta_m - 1.0)
    return max(worst, 0.0), 1e-9


def check_multiphoton_laws() -> tuple[float, float]:
    worst = 0.0
    lam = 0.97 + 0.01j
    for n in (0.0, 1.0, 50.0, 1e4):
        dp = multiphoton.coherent_overlap(lam, n)
        worst = max(worst, _rel(dp, math.exp(-(1.0 - lam.real) * n)))
        dp_s = multiphoton.squeezed_overlap(lam.real, n)
        worst = max(worst, _rel(dp_s, 1.0 / (1.0 + 0.5 * (1.0 - lam.real) * n)))
    return worst, 1e-12


def check_comb_linear_vs_quadrature() -> tuple[float, float]:
    d1 = 1e-3
    chi = 1.0 + d1
    worst = 0.0
    for phi in (0.0, 5.0):
        prof = profiles.comb(10.0, 2.0, phi_tilde=phi)
        dp_ne, dm_ne, _ = analytic.comb_linear_near_earth_optimal(d1, 10.0, 2.0, phi)
        res = overlap.evaluate_overlap(prof, chi, 0.0, tol=1e-11)
        worst = max(worst, abs(dp_ne - res.delta_p), abs(dm_ne - res.delta_m))
    return worst, 1e-6


def check_relative_change_consistency() -> tuple[float, float]:
    """relative_change must agree with the ratio of the matching closed
    forms where double precision can resolve it directly."""
    d1 = 1e-2
    worst = 0.0
    eta = analytic.relative_change(profiles.gaussian_linear(1.5), d1)
    dp, dm, _ = analytic.gaussian_linear_optimal(1.0 + d1, 1.5)
    worst = max(worst, _rel(eta, dp / dm - 1.0))
    eta = analytic.relative_change(profiles.gaussian_quadratic(0.8, z0=5.0), d1)
    dp, dm, _ = analytic.gaussian_quadratic_optimal(1.0 + d1, 0.8, 5.0)
    return max(worst, _rel(eta, dp / dm - 1.0)), 1e-9


def check_comb_quadratic_weak_field_consistency() -> tuple[float, float]:
    """The weak-field record of a quadratic comb against `overlap_batch`:
    Delta_p_opt at the record's shift, Delta_m_opt and the naive Delta_p at
    z_bar = 0."""
    d1 = 1e-3
    prof = profiles.comb(25.0, 0.4, 1.0, "quadratic", delta_z0=0.5)
    res = analytic.weak_field_optimum(prof, d1)
    lam, dm = overlap.overlap_batch(prof, 1.0 + d1, [res.z_bar_opt, 0.0], tol=1e-13)
    dp = np.abs(lam)
    return max(abs(res.delta_p_opt - dp[0]), abs(res.naive_delta_p - dp[1]),
               abs(res.delta_m_opt - dm[1])), 1e-6


def check_relative_change_headline() -> tuple[float, float]:
    d1 = 1e-3
    eta_ga = analytic.relative_change(profiles.gaussian_linear(1.0), d1)
    eta_co = analytic.relative_change(profiles.comb(10.0, 6.0, phi_tilde=1.0), d1)
    worst = max(_rel(eta_ga, -2.0 * d1**2),
                _rel(eta_co, -2.0 * d1**2 / 100.0))
    return worst, 1e-2


# Richardson pair: the O(delta1^2) remainder stays below ~1e-6 relative
# while the deficits c*delta1^2 stay far above double-precision rounding.
_RICHARDSON_DELTA1 = (2e-5, 1e-5)
# The fit's shifts are z_bar = delta1*_RICHARDSON_SHIFTS*(-1, 0, 1); a wide
# stencil keeps the parabola's vertex inside it for shift rates up to ~10.
_RICHARDSON_SHIFTS = 10.0


def numeric_weak_field_coefficients(profile: profiles.Profile) -> analytic.WeakFieldCoefficients:
    """(c_p, c_m, c_naive, z_rate) of `profile` from the numeric overlaps.

    At each delta1 one `overlap_batch` call gives Lambda_p and Delta_m at
    three shifts; the vertex of the parabola through log|Lambda_p| gives the
    optimal pure deficit and shift, the middle shift (z_bar = 0) the mixed
    and the naive ones.  A Richardson step over the two delta1 values
    removes the O(delta1) term of each coefficient.
    """
    fits = []
    for d1 in _RICHARDSON_DELTA1:
        span = _RICHARDSON_SHIFTS * d1
        lam, dm = overlap.overlap_batch(profile, 1.0 + d1, [-span, 0.0, span], tol=1e-14)
        y0, y1, y2 = np.log(np.abs(lam))
        slope, curv = 0.5 * (y2 - y0), y2 - 2.0 * y1 + y0
        deficits = np.array([0.5 * slope * slope / curv - y1, -math.log(dm[1]), -y1])
        fits.append(np.append(deficits / (d1 * d1), -_RICHARDSON_SHIFTS * slope / curv))
    big, small = fits
    ratio = _RICHARDSON_DELTA1[0] / _RICHARDSON_DELTA1[1]
    return analytic.WeakFieldCoefficients(*((ratio * small - big) / (ratio - 1.0)).tolist())


def check_weak_field_coefficients_vs_numeric() -> tuple[float, float]:
    """The weak-field coefficients and shift rate against the numeric
    Richardson fit, one profile per family; the shift rate's error is taken
    relative to max(|z_rate|, 1)."""
    worst = 0.0
    for prof in (profiles.gaussian_linear(1.5), profiles.gaussian_quadratic(1.5, z0=5.0),
                 profiles.comb(10.0, 2.0, phi_tilde=1.0),
                 profiles.comb(13.0, 0.77, phi_tilde=3.0, phase_kind="quadratic",
                               delta_z0=0.5)):
        got = analytic.weak_field_coefficients(prof)
        ref = numeric_weak_field_coefficients(prof)
        worst = max(worst, *(_rel(g, r) for g, r in zip(got[:3], ref[:3])),
                    abs(got.z_rate - ref.z_rate) / max(abs(ref.z_rate), 1.0))
    return worst, 1e-4


def check_earth_scale_redshift() -> tuple[float, float]:
    cfg = spacetime.SpacetimeConfig(r_a=6.371e6, r_b=6.771e6)
    d1, d2 = spacetime.delta_expansion(cfg)
    approx = -0.125 * cfg.r_s / cfg.r_a
    kw = abs(spacetime.kappa_from_delta(d1 + d2)) * 1.215e15
    ok_d1 = abs(d1 - approx) / abs(approx) <= 0.25
    ok_kw = 1e4 <= kw <= 1e6
    return (0.0 if (ok_d1 and ok_kw) else 1.0), 0.5


_FAST_CHECKS = [
    ("gaussian-linear closed form vs quadrature", check_gaussian_linear_closed_vs_quadrature),
    ("gaussian-quadratic closed form vs quadrature", check_gaussian_quadratic_closed_vs_quadrature),
    ("mixed-overlap benchmark vs optimizer", check_mixed_benchmark),
    ("pure/mixed phase-penalty ratio", check_phase_penalty_ratio),
    ("optimizer vs analytic stationary point", check_optimizer_vs_stationary_point),
    ("weak-field deficit coefficients (Richardson)", check_near_earth_coefficients),
    ("purity invariance under the redshift map", check_purity_invariance),
    ("multi-photon overlap laws", check_multiphoton_laws),
    ("comb weak-field optimal vs quadrature", check_comb_linear_vs_quadrature),
    ("relative-change consistency with closed forms", check_relative_change_consistency),
    ("comb quadratic weak-field consistency", check_comb_quadratic_weak_field_consistency),
    ("relative-change headline values", check_relative_change_headline),
    ("earth-scale redshift sanity", check_earth_scale_redshift),
    ("weak-field moment coefficients vs numeric Richardson fit",
     check_weak_field_coefficients_vs_numeric),
]

_FULL_CHECKS = _FAST_CHECKS + [
    ("density-matrix oracle vs quadrature", check_oracle_equivalence),
    ("overlap ordering on random profiles", check_ordering_sample),
]


def run_battery(level: str = FAST) -> list[CheckResult]:
    if level not in (FAST, FULL):
        raise ValueError(f"level must be '{FAST}' or '{FULL}', got {level!r}")
    checks = _FAST_CHECKS if level == FAST else _FULL_CHECKS
    results = []
    for name, fn in checks:
        t0 = time.perf_counter()
        measured, tolerance = fn()
        results.append(CheckResult(name=name, measured=measured,
                                   tolerance=tolerance,
                                   seconds=time.perf_counter() - t0))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name}: measured {r.measured:.3e} "
                     f"vs tolerance {r.tolerance:.1e}  ({r.seconds:.2f} s)")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
