"""Overlap functionals between the expected and the redshift-deformed,
rigidly shifted wavepackets.

With f the profile modulus and psi its phase (z0 baked into the profile),
the corrected overlaps at rescaled shift z_bar are

    Lambda_p(chi, z_bar) = integral f(chi*z + z_bar) * f(z/chi)
                           * exp(i * [psi(chi*z + z_bar) - psi(z/chi)]) dz
    Delta_p = |Lambda_p|
    Delta_m = integral f(chi*z + z_bar) * f(z/chi) dz

Both lie in [0, 1] up to quadrature tolerance, with Delta_p <= Delta_m, and
equal 1 at chi = 1, z_bar = 0.

Two numerical routes compute them.  `overlap_batch` is a trapezoid rule on
fixed nodes that evaluates many shifts in one vectorized pass; the
optimizer runs on it.  `lambda_pure`, `overlap_mixed` and
`evaluate_overlap` use adaptive quadrature (scipy.integrate.quad, imported
on first use) and serve point evaluations and the independent oracle of
`gravpulse validate` and the tests; the integrals of one point share one
integrand evaluation per node.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonConvergenceError, ValidityError
from .profiles import MAX_INTERVALS, Profile, comb_tooth_positions, modulus, phase_difference

__all__ = [
    "OverlapResult",
    "SubPeak",
    "lambda_pure",
    "overlap_pure",
    "overlap_mixed",
    "evaluate_overlap",
    "overlap_batch",
    "overlap_multipeak",
    "DEFAULT_TOL",
    "CHUNK_BYTES",
    "MAX_INTERVALS",
]

DEFAULT_TOL = 1e-10
_QUAD_LIMIT = 2**16

# overlap_batch: shifts are processed in chunks whose (shift x node)
# temporaries stay within CHUNK_BYTES; refinement past MAX_INTERVALS node
# intervals (from profiles) raises NonConvergenceError.  One shift at the
# cap fits a chunk.
CHUNK_BYTES = 8 * 2**20
# float64 (shift x node) arrays alive at once while one chunk is summed.
_TEMPS_PER_POINT = 6


@dataclass(frozen=True)
class OverlapResult:
    """Pure/mixed overlaps and the complex pure-state integral at one
    (chi, z_bar) point."""

    delta_p: float
    delta_m: float
    lambda_p: complex


def _integration_bounds(profile: Profile, chi: float, z_bar: float) -> tuple[float, float]:
    # Intersection of the supports of f(chi*z + z_bar) and f(z/chi); the
    # integrand vanishes outside either factor's truncation domain.
    zext = profile.z_extent
    lo = max((-zext - z_bar) / chi, -zext * chi)
    hi = min((zext - z_bar) / chi, zext * chi)
    return lo, hi


def _breakpoints(profile: Profile, chi: float, z_bar: float,
                 lo: float, hi: float) -> list[float] | None:
    if not profile.kind.is_comb:
        return None
    teeth = comb_tooth_positions(profile)
    cand = np.concatenate([(teeth - z_bar) / chi, teeth * chi])
    pts = sorted({float(p) for p in cand if lo < p < hi})
    return pts or None


def quad(func: Callable[[float], float], a: float, b: float, **kwargs):
    """scipy.integrate.quad, imported on first use so that importing the
    package does not load scipy.integrate."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(func, a, b, **kwargs)


def _quad(func: Callable[[float], float], lo: float, hi: float,
          pts: list[float] | None, tol: float) -> float:
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(func, lo, hi, epsabs=tol * 1e-2, epsrel=1e-13,
                        limit=_QUAD_LIMIT, points=pts)
    if err > tol:
        raise NonConvergenceError(
            f"overlap quadrature error {err:.2e} exceeds tolerance {tol:g}")
    return val


def _check_inputs(chi: float, tol: float, z_bar):
    if not (chi > 0.0 and math.isfinite(chi)):
        raise ValidityError(f"chi must be positive and finite, got {chi!r}")
    bad = np.asarray(z_bar, dtype=float)[~np.isfinite(z_bar)]
    if bad.size:
        raise ValidityError(f"z_bar must be finite, got {float(bad[0])!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValidityError(f"tolerance must be positive and finite, got {tol!r}")


# Distinct nodes one `_shared_node_quad` call stores; past the cap a node is
# computed without being stored.  quad's limit of 2**16 subintervals of 21
# nodes would otherwise allow ~1.4 M entries (about 250 MB).
_NODE_MEMO_CAP = 2**15


def _shared_node_quad(node: Callable[[float], complex], lo: float, hi: float,
                      pts: list[float] | None, tol: float,
                      parts: tuple[str, ...]) -> tuple[float, ...]:
    """One quad integral over [lo, hi] per name in `parts` ("re", "im",
    "mixed") of node(z) = complex(weight, dpsi): Re and Im of
    weight*exp(i*dpsi), and the weight alone.

    The integrals visit the same Gauss-Kronrod nodes, so `node` is
    evaluated once per distinct node and shared.  A node is kept as one
    32-byte complex (a tuple of two floats takes 104 bytes).
    """
    memo: dict[float, complex] = {}
    get, cap, cos, sin = memo.get, _NODE_MEMO_CAP, math.cos, math.sin

    def miss(z: float) -> complex:
        value = node(z)
        if len(memo) < cap:
            memo[z] = value
        return value

    def re(z: float) -> float:
        value = get(z)
        if value is None:
            value = miss(z)
        return value.real * cos(value.imag)

    def im(z: float) -> float:
        value = get(z)
        if value is None:
            value = miss(z)
        return value.real * sin(value.imag)

    def mixed(z: float) -> float:
        value = get(z)
        if value is None:
            value = miss(z)
        return value.real

    integrands = {"re": re, "im": im, "mixed": mixed}
    return tuple(_quad(integrands[part], lo, hi, pts, tol) for part in parts)


def _point_integrals(profile: Profile, chi: float, z_bar: float, tol: float,
                     parts: tuple[str, ...]) -> tuple[float, ...]:
    """The integrals named in `parts` at (chi, z_bar), on the intersection
    of the two supports with comb teeth as breakpoints."""
    _check_inputs(chi, tol, z_bar)
    lo, hi = _integration_bounds(profile, chi, z_bar)
    if lo >= hi:
        return (0.0,) * len(parts)
    pts = _breakpoints(profile, chi, z_bar, lo, hi)
    # The weight calls the profile's bound scalar modulus twice; the phase is
    # phase_difference's arithmetic, in its order, with the constants of this
    # (profile, chi, z_bar) hoisted.
    f = profile.scalar_modulus
    a = chi - 1.0 / chi
    if profile.kind.has_quadratic_phase:
        k, b, two_c = -profile.phi_tilde**2, chi + 1.0 / chi, 2.0 * profile.phase_center

        def node(z: float) -> complex:
            diff = a * z + z_bar
            return complex(f(chi * z + z_bar) * f(z / chi), k * diff * (b * z + z_bar + two_c))
    else:
        k = -profile.phi_tilde

        def node(z: float) -> complex:
            return complex(f(chi * z + z_bar) * f(z / chi), k * (a * z + z_bar))

    return _shared_node_quad(node, lo, hi, pts, tol, parts)


def lambda_pure(profile: Profile, chi: float, z_bar: float,
                tol: float = DEFAULT_TOL) -> complex:
    """Complex pure-state overlap integral; |result| is Delta_p."""
    return complex(*_point_integrals(profile, chi, z_bar, tol, ("re", "im")))


def overlap_pure(profile: Profile, chi: float, z_bar: float,
                 tol: float = DEFAULT_TOL) -> float:
    """Delta_p = |Lambda_p|."""
    return abs(lambda_pure(profile, chi, z_bar, tol=tol))


def overlap_mixed(profile: Profile, chi: float, z_bar: float,
                  tol: float = DEFAULT_TOL) -> float:
    """Delta_m: same integral with the phase removed."""
    return _point_integrals(profile, chi, z_bar, tol, ("mixed",))[0]


def evaluate_overlap(profile: Profile, chi: float, z_bar: float,
                     tol: float = DEFAULT_TOL) -> OverlapResult:
    """Lambda_p, Delta_p and Delta_m at one point from one shared set of
    integrand evaluations."""
    re, im, dm = _point_integrals(profile, chi, z_bar, tol, ("re", "im", "mixed"))
    lam = complex(re, im)
    return OverlapResult(delta_p=abs(lam), delta_m=dm, lambda_p=lam)


# -- fixed-node kernel ---------------------------------------------------------


def overlap_batch(profile: Profile, chi: float, z_bars,
                  tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(Lambda_p, Delta_m) at every shift of `z_bars`, as a complex and a
    real array of the same length, from one integrand pass per node level.

    A trapezoid rule on nodes shared by all shifts covers [-L, L] with
    L = z_extent*max(chi, 1/chi).  The integrands are analytic and decay
    like Gaussians, so the rule converges geometrically in the spacing
    (Trefethen & Weideman, SIAM Review 56, 2014).  The spacing starts at
    1/4 (1/(4*sigma_tilde) for combs, the tooth width) and halves on the
    nested midpoints until |T_{h/2} - T_h| <= tol for both integrals.
    Convergence is tested only once the spacing resolves the fastest phase
    oscillation on the domain (two nodes per period): coarser levels can
    alias a fast oscillation identically and agree by accident.

    Every shift stops at its own level, and its sums never mix with other
    shifts, so a result does not depend on which shifts share the call.
    Raises NonConvergenceError when a shift needs more than MAX_INTERVALS
    intervals.
    """
    z_bars = np.atleast_1d(np.asarray(z_bars, dtype=float))
    _check_inputs(chi, tol, z_bars)
    half = profile.z_extent * max(chi, 1.0 / chi)
    n = int(math.ceil(2.0 * half / profile.node_spacing))
    h = 2.0 * half / n
    # First level at which each shift's spacing resolves its phase rate.
    ratio = h * _phase_rate(profile, chi, z_bars, half) / math.pi
    start = np.ceil(np.log2(np.maximum(ratio, 1.0))).astype(int)
    if n << int(start.max(initial=0)) > MAX_INTERVALS:
        raise NonConvergenceError(
            f"overlap phase oscillates too fast for {MAX_INTERVALS} trapezoid intervals")

    nodes = -half + h * np.arange(n + 1)
    ends = np.ones(n + 1)
    ends[[0, -1]] = 0.5
    lam, dm = _node_sums(profile, chi, z_bars, nodes, ends)
    lam *= h
    dm *= h
    active = np.arange(z_bars.size)
    level = 0
    while active.size:
        if 2 * n > MAX_INTERVALS:
            raise NonConvergenceError(
                f"overlap trapezoid rule not within tolerance {tol:g} "
                f"after {MAX_INTERVALS} intervals")
        mids = -half + h * (np.arange(n) + 0.5)
        lam_mid, dm_mid = _node_sums(profile, chi, z_bars[active], mids, 1.0)
        h *= 0.5
        n *= 2
        level += 1
        new_lam = 0.5 * lam[active] + h * lam_mid
        new_dm = 0.5 * dm[active] + h * dm_mid
        err = np.maximum(np.abs(new_lam - lam[active]), np.abs(new_dm - dm[active]))
        lam[active] = new_lam
        dm[active] = new_dm
        active = active[(err > tol) | (level < start[active])]
    return lam, dm


def _phase_rate(profile: Profile, chi: float, z_bars: np.ndarray,
                half: float) -> np.ndarray:
    """Bound on |d/dz phase_difference| over |z| <= half, per shift."""
    a = chi - 1.0 / chi
    if not profile.kind.has_quadratic_phase:
        return np.full(z_bars.shape, abs(profile.phi_tilde * a))
    # d/dz [(a*z + zb) * (b*z + zb + 2c)] = 2ab*z + a*(zb + 2c) + b*zb
    b = chi + 1.0 / chi
    return profile.phi_tilde**2 * (2.0 * abs(a * b) * half
                                   + np.abs(a * (z_bars + 2.0 * profile.phase_center) + b * z_bars))


def _node_sums(profile: Profile, chi: float, z_bars: np.ndarray, nodes: np.ndarray,
               node_weights) -> tuple[np.ndarray, np.ndarray]:
    """Per shift, the node-weighted sums of the pure (complex) and mixed
    integrands over `nodes`, in chunks of shifts within CHUNK_BYTES."""
    fixed = modulus(profile, nodes / chi) * node_weights
    scaled = chi * nodes
    lam = np.empty(z_bars.size, dtype=complex)
    dm = np.empty(z_bars.size)
    rows = max(1, CHUNK_BYTES // (8 * _TEMPS_PER_POINT * nodes.size))
    for s in range(0, z_bars.size, rows):
        zb = z_bars[s:s + rows, None]
        weight = modulus(profile, scaled + zb)
        weight *= fixed
        dpsi = phase_difference(profile, chi, zb, nodes)
        dm[s:s + rows] = weight.sum(axis=1)
        lam.real[s:s + rows] = (weight * np.cos(dpsi)).sum(axis=1)
        np.sin(dpsi, out=dpsi)
        dpsi *= weight
        lam.imag[s:s + rows] = dpsi.sum(axis=1)
        del weight, dpsi      # freed before the next chunk's modulus allocates its own
    return lam, dm


# -- multi-peak generalization -----------------------------------------------


@dataclass(frozen=True)
class SubPeak:
    """One sub-peak of a structured profile: a positive peaked shape g of
    unit-scale argument, centered at `center` with width `width`, both in
    envelope-width units relative to the carrier."""

    center: float
    width: float
    shape: Callable[[float], float]

    def __call__(self, y: float) -> float:
        return self.shape((y - self.center) / self.width)


def overlap_multipeak(envelope: Callable[[float], float],
                      peaks: Sequence[SubPeak],
                      chi: float, z_bar: float,
                      envelope_phase: Callable[[float], float] | None = None,
                      tol: float = DEFAULT_TOL,
                      z_extent: float = 30.0,
                      norm_tol: float = 1e-6) -> tuple[float, float]:
    """(Delta_p, Delta_m) for a profile of the form envelope(z) * sum of
    sub-peaks, evaluated by direct quadrature over the product profile.

    The double sum over peak pairs factorizes into the product of the two
    summed profiles, so this reduces exactly to the single-profile overlaps
    when sum(g) == 1.  The combined modulus must already be normalized;
    deviations beyond norm_tol raise ValidityError.
    """
    _check_inputs(chi, tol, z_bar)

    def combined(y: float) -> float:
        total = 0.0
        for pk in peaks:
            g = pk(y)
            if g < 0.0:
                raise ValidityError("sub-peak shapes must be non-negative")
            total += g
        return envelope(y) * total

    pts = sorted({pk.center for pk in peaks}
                 | {pk.center / chi for pk in peaks}
                 | {(pk.center - z_bar) / chi for pk in peaks})
    pts = [p for p in pts if -z_extent < p < z_extent] or None
    norm = _quad(lambda y: combined(y) ** 2, -z_extent, z_extent, pts, tol)
    if abs(norm - 1.0) > norm_tol:
        raise ValidityError(
            f"combined multi-peak profile is not normalized: integral |F|^2 = {norm:.9g}")

    psi = envelope_phase if envelope_phase is not None else (lambda y: 0.0)

    def node(z: float) -> complex:
        return complex(combined(chi * z + z_bar) * combined(z / chi),
                       psi(chi * z + z_bar) - psi(z / chi))

    re, im, dm = _shared_node_quad(node, -z_extent, z_extent, pts, tol, ("re", "im", "mixed"))
    return math.hypot(re, im), dm
