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

Two numerical routes compute them, both in numpy.  `overlap_batch` is a
trapezoid rule on fixed nodes that evaluates many shifts in one vectorized
pass; the optimizer runs on it.  `lambda_pure`, `overlap_pure`,
`overlap_mixed` and `evaluate_overlap` are views of one adaptive
Gauss-Kronrod pass (`quad`) that integrates Re Lambda_p, Im Lambda_p and
Delta_m together on one panel partition, evaluating the profile on arrays
of nodes; they serve point evaluations and the independent oracle of
`gravpulse validate` and the tests.
"""

from __future__ import annotations

import math
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

# overlap_batch: shifts are processed in chunks whose (shift x node)
# temporaries stay within CHUNK_BYTES; refinement past MAX_INTERVALS node
# intervals (from profiles) raises NonConvergenceError.  One shift at the
# cap fits a chunk.  quad evaluates new panels in chunks within the same
# budget.
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


def _breakpoints(profile: Profile, chi: float, z_bar: float) -> np.ndarray:
    """Where a comb tooth of either factor is centred: the panel edges of the
    first quadrature partition."""
    if not profile.kind.is_comb:
        return np.empty(0)
    teeth = comb_tooth_positions(profile)
    return np.concatenate([(teeth - z_bar) / chi, teeth * chi])


# -- adaptive Gauss-Kronrod quadrature -----------------------------------------

# QUADPACK's 21-point Kronrod rule on [-1, 1] and its embedded 10-point Gauss
# rule (Piessens et al., QUADPACK, 1983, routine qk21): the non-negative
# Kronrod nodes, descending, then the Kronrod weights and the Gauss weights
# of the nodes 0.97390..., 0.86506..., ..., 0.14887....
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208814930264, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651328)
# The same rules on all 21 nodes, ascending; the Gauss weight of a
# Kronrod-only node is zero.
_NODES = np.concatenate([-np.array(_XGK[:10]), _XGK[::-1]])
_KRONROD = np.concatenate([_WGK[:10], _WGK[::-1]])
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11::2] = _WG[::-1]

# Panels the partition may reach before quad gives up.
_QUAD_PANELS = 2**16
# float64 values per node alive at once while one chunk of panels is
# evaluated and reduced: the nodes, the three components, one product of
# them with a weight row, and the point integrand's own temporaries
# (measured: 9.5 per node at the chunk budget).
_TEMPS_PER_NODE = 10
_EPS = np.finfo(float).eps


def quad(func: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, tol: float,
         points=()) -> np.ndarray:
    """The k integrals over [lo, hi] of an integrand with k components, by
    one adaptive Gauss-Kronrod pass.

    `func` maps a 1-D array of nodes to a (k, nodes) array.  All components
    share one panel partition, which starts as [lo, hi] split at the
    `points` inside it.  A panel's error estimate is the largest of its
    components' QUADPACK estimates: |K21 - G10| scaled to
    resasc*min(1, (200*|K21 - G10|/resasc)**1.5), and at least 50*eps*resabs
    for round-off.  Refinement is global: each round bisects the fewest
    largest-error panels whose removal would leave the others' summed
    estimate within max(tol*1e-2, 1e-13*max|I|), and evaluates the new
    panels' nodes in one `func` call per chunk of CHUNK_BYTES, until the
    summed estimate meets that target.

    Raises NonConvergenceError when the estimate exceeds `tol`, or when the
    partition would pass _QUAD_PANELS panels before meeting the target.
    """
    if not lo < hi:
        raise ValidityError(f"quad needs lo < hi, got [{lo!r}, {hi!r}]")
    points = np.asarray(points, dtype=float)
    edges = np.unique(np.concatenate([[lo, hi], points[(points > lo) & (points < hi)]]))
    left, right = edges[:-1], edges[1:]
    val, err = _gauss_kronrod(func, left, right)
    while True:
        total = val.sum(axis=1)
        est = float(err.sum())
        target = max(1e-2 * tol, 1e-13 * float(np.abs(total).max()))
        if est <= target:
            break
        free = _QUAD_PANELS - left.size
        if free <= 0 or not math.isfinite(est):
            raise NonConvergenceError(
                f"overlap quadrature error {est:.2e} not within {target:.2e} "
                f"after {left.size} panels")
        order = np.argsort(-err, kind="stable")
        rest = est - np.cumsum(err[order])
        split = order[:min(np.count_nonzero(rest > target) + 1, left.size, free)]
        mid = 0.5 * (left[split] + right[split])
        new_left = np.concatenate([left[split], mid])
        new_right = np.concatenate([mid, right[split]])
        new_val, new_err = _gauss_kronrod(func, new_left, new_right)
        keep = np.ones(left.size, dtype=bool)
        keep[split] = False
        left = np.concatenate([left[keep], new_left])
        right = np.concatenate([right[keep], new_right])
        val = np.concatenate([val[:, keep], new_val], axis=1)
        err = np.concatenate([err[keep], new_err])
    if est > tol:
        raise NonConvergenceError(
            f"overlap quadrature error {est:.2e} exceeds tolerance {tol:g}")
    return total


def _gauss_kronrod(func, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per panel [left, right]: the K21 value of each component, (k, panels),
    and the largest component error estimate, (panels,)."""
    center = 0.5 * (left + right)
    half = 0.5 * (right - left)
    rows = max(1, CHUNK_BYTES // (8 * _TEMPS_PER_NODE * _NODES.size))
    vals, errs = [], []
    for s in range(0, left.size, rows):
        h = half[s:s + rows]
        f = func((center[s:s + rows, None] + h[:, None] * _NODES).ravel())
        f = f.reshape(f.shape[0], h.size, _NODES.size)
        # QUADPACK's qk21 on [-1, 1], scaled by the half-width at the end
        resk = (f * _KRONROD).sum(axis=-1)
        err = np.abs(resk - (f * _GAUSS).sum(axis=-1))
        resabs = (np.abs(f) * _KRONROD).sum(axis=-1)
        f -= 0.5 * resk[..., None]
        resasc = (np.abs(f, out=f) * _KRONROD).sum(axis=-1)
        del f       # freed before the next chunk's integrand allocates its own
        # resasc = 0 means a constant integrand, whose |K21 - G10| is round-off
        # that the floor covers.
        ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=resasc > 0.0)
        err = np.maximum(resasc * np.minimum(ratio, 1.0) ** 1.5, 50.0 * _EPS * resabs)
        vals.append(resk * h)
        errs.append(err.max(axis=0) * h)
    return np.concatenate(vals, axis=1), np.concatenate(errs)


def _check_inputs(chi: float, tol: float, z_bar):
    if not (chi > 0.0 and math.isfinite(chi)):
        raise ValidityError(f"chi must be positive and finite, got {chi!r}")
    bad = np.asarray(z_bar, dtype=float)[~np.isfinite(z_bar)]
    if bad.size:
        raise ValidityError(f"z_bar must be finite, got {float(bad[0])!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValidityError(f"tolerance must be positive and finite, got {tol!r}")


def _pure_and_mixed(weight: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """The three integrands Re, Im of weight*exp(i*dpsi) and weight, stacked."""
    out = np.empty((3, weight.size))
    np.cos(dpsi, out=out[0])
    out[0] *= weight
    np.sin(dpsi, out=out[1])
    out[1] *= weight
    out[2] = weight
    return out


def _point_integrals(profile: Profile, chi: float, z_bar: float,
                     tol: float) -> tuple[float, float, float]:
    """(Re Lambda_p, Im Lambda_p, Delta_m) at (chi, z_bar): one quad pass on
    the intersection of the two supports, comb teeth as panel edges."""
    _check_inputs(chi, tol, z_bar)
    lo, hi = _integration_bounds(profile, chi, z_bar)
    if lo >= hi:
        return 0.0, 0.0, 0.0

    def integrand(z: np.ndarray) -> np.ndarray:
        weight = modulus(profile, chi * z + z_bar)
        weight *= modulus(profile, z / chi)
        return _pure_and_mixed(weight, phase_difference(profile, chi, z_bar, z))

    re, im, dm = quad(integrand, lo, hi, tol, _breakpoints(profile, chi, z_bar))
    return float(re), float(im), float(dm)


def lambda_pure(profile: Profile, chi: float, z_bar: float,
                tol: float = DEFAULT_TOL) -> complex:
    """Complex pure-state overlap integral; |result| is Delta_p."""
    re, im, _ = _point_integrals(profile, chi, z_bar, tol)
    return complex(re, im)


def overlap_pure(profile: Profile, chi: float, z_bar: float,
                 tol: float = DEFAULT_TOL) -> float:
    """Delta_p = |Lambda_p|."""
    return abs(lambda_pure(profile, chi, z_bar, tol=tol))


def overlap_mixed(profile: Profile, chi: float, z_bar: float,
                  tol: float = DEFAULT_TOL) -> float:
    """Delta_m: same integral with the phase removed."""
    return _point_integrals(profile, chi, z_bar, tol)[2]


def evaluate_overlap(profile: Profile, chi: float, z_bar: float,
                     tol: float = DEFAULT_TOL) -> OverlapResult:
    """Lambda_p, Delta_p and Delta_m at one point from one quad pass."""
    re, im, dm = _point_integrals(profile, chi, z_bar, tol)
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
    sub-peaks, evaluated by direct quadrature (`quad`) over the product
    profile, whose scalar callables are called once per node.

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

    def at(fn: Callable[[float], float], ys: np.ndarray) -> np.ndarray:
        return np.array([fn(y) for y in ys.tolist()])

    pts = [pk.center for pk in peaks] + [pk.center / chi for pk in peaks] \
        + [(pk.center - z_bar) / chi for pk in peaks]
    (norm,) = quad(lambda y: at(combined, y)[None] ** 2, -z_extent, z_extent, tol, pts)
    if abs(norm - 1.0) > norm_tol:
        raise ValidityError(
            f"combined multi-peak profile is not normalized: integral |F|^2 = {norm:.9g}")

    psi = envelope_phase if envelope_phase is not None else (lambda y: 0.0)

    def integrand(z: np.ndarray) -> np.ndarray:
        y = chi * z + z_bar
        return _pure_and_mixed(at(combined, y) * at(combined, z / chi),
                               at(psi, y) - at(psi, z / chi))

    re, im, dm = quad(integrand, -z_extent, z_extent, tol, pts)
    return math.hypot(re, im), float(dm)
