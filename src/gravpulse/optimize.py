"""Maximization of the corrected overlaps over the rigid spectral shift.

The optimizer locates the global maximizer of z_bar -> Delta(z_bar) with a
coarse grid scan (global; pitch kept below a quarter tooth spacing for
combs, whose objective is multimodal) followed by golden-section
refinement and a parabolic polish on the log-objective.  Every objective
value comes from the fixed-node kernel `overlap.overlap_batch`: the scan
is one batched call, each polish stencil and the final gradient check one
call of three shifts, and the reported overlaps are the kernel's values
at the optimum from that last call.

The polish step matters: near the top the objective varies by less than
its floating-point rounding over the final golden bracket, so golden
section alone stops near sqrt(machine epsilon), while the three-point
vertex of log(objective) on a finite stencil recovers the maximizer to
~1e-9.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidityError
from .overlap import overlap_batch
# Not called here; perfbench's tracer tests look the name up on this module.
from .overlap import overlap_pure  # noqa: F401
from .profiles import DimensionfulFrame, Profile
from .spacetime import classical_redshift

__all__ = [
    "Objective",
    "OptimizationResult",
    "FlatObjectiveWarning",
    "maximize_shift",
    "naive_corrected_overlap",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

SCAN_HALF_WIDTH = 10.0     # envelope widths
SCAN_POINTS = 201
FLAT_SPREAD = 1e-13


class Objective(Enum):
    PURE = "pure"
    MIXED = "mixed"


class FlatObjectiveWarning(UserWarning):
    """The overlap deformation 1 - Delta is below machine resolution over
    the scan window (chi too close to 1); the optimizer returns z_bar = 0."""


@dataclass(frozen=True)
class OptimizationResult:
    z_bar_opt: float
    delta_p_opt: float
    delta_m_opt: float
    delta_omega_opt: float    # rad/s; NaN when no dimensionful frame is given
    n_evals: int
    converged: bool


def maximize_shift(profile: Profile, chi: float, which: Objective,
                   frame: DimensionfulFrame | None = None,
                   window: float = SCAN_HALF_WIDTH,
                   xtol: float = 1e-10,
                   quad_tol: float = 1e-12) -> OptimizationResult:
    """Globally maximize the chosen overlap over z_bar in [-window, window].

    Every objective value comes from `overlap_batch` at tolerance
    `quad_tol`.  Grid-ties within 1e-13 resolve toward the smallest
    |z_bar|.  When the scan cannot resolve any variation, or the
    deformation 1 - Delta is itself below 1e-13, a FlatObjectiveWarning is
    emitted and z_bar = 0 is returned.
    """
    if not (chi > 0.0 and math.isfinite(chi)):
        raise ValidityError(f"chi must be positive and finite, got {chi!r}")
    n_evals = 0
    last = None

    def ev(xs) -> np.ndarray:
        # Objective at each shift of xs; `last` keeps both overlaps.
        nonlocal n_evals, last
        lam, dm = overlap_batch(profile, chi, xs, tol=quad_tol)
        n_evals += lam.size
        last = (lam, dm)
        return np.abs(lam) if which is Objective.PURE else dm

    n_points = SCAN_POINTS
    if profile.kind.is_comb:
        # multimodal objective with period ~ d_tilde*chi: pitch < d_tilde/4
        n_points = max(n_points, int(math.ceil(8.0 * window / profile.d_tilde)) + 1)
    grid = np.linspace(-window, window, n_points)
    vals = ev(grid)

    spread = float(vals.max() - vals.min())
    if spread < FLAT_SPREAD or 1.0 - float(vals.max()) < FLAT_SPREAD:
        # Either no variation at all, or the deformation 1 - Delta_opt sits
        # below double-precision resolution: chi is too close to 1 for the
        # numeric route and the tie-break (smallest |z_bar|) applies.
        warnings.warn(
            "overlap deformation is below machine resolution over the scan "
            "window; returning z_bar = 0 (consider an exaggerated chi "
            "override for numeric studies)", FlatObjectiveWarning)
        ev([0.0])
        return _finish(profile, chi, 0.0, last[0][0], last[1][0], n_evals, True, frame)

    near_best = np.flatnonzero(vals > vals.max() - FLAT_SPREAD)
    i = int(near_best[np.argmin(np.abs(grid[near_best]))])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, n_points - 1)]

    x, _ = _golden_max(lambda z: float(ev([z])[0]), lo, hi, xtol)

    # Parabolic polish on log(objective): two passes with shrinking stencils.
    converged = True
    for h in (1e-3, 1e-4):
        x_new, ok = _log_parabola_vertex(ev, x, h, lo, hi)
        if ok:
            x = x_new
        else:
            converged = False
    # Gradient check: the stationary-point residual at the reported optimum,
    # evaluated together with the optimum itself.
    y = ev([x - 1e-5, x, x + 1e-5])
    g = (y[2] - y[0]) / 2e-5
    converged = converged and abs(g) < 1e-5
    return _finish(profile, chi, x, last[0][1], last[1][1], n_evals, converged, frame)


def _finish(profile: Profile, chi: float, z_bar: float, lam: complex, dm: float,
            n_evals: int, converged: bool,
            frame: DimensionfulFrame | None) -> OptimizationResult:
    """Result at z_bar from the kernel's overlaps there."""
    if frame is not None:
        domega = classical_redshift(z_bar, chi, frame.sigma, profile.z0)
    else:
        domega = float("nan")
    return OptimizationResult(z_bar_opt=z_bar, delta_p_opt=float(abs(lam)),
                              delta_m_opt=float(dm),
                              delta_omega_opt=domega, n_evals=n_evals,
                              converged=converged)


def _golden_max(f, a: float, b: float, xtol: float, max_iter: int = 120):
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    n = 2
    while (b - a) > xtol and n < max_iter:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        n += 1
    return 0.5 * (a + b), n


def _log_parabola_vertex(f, x: float, h: float, lo: float, hi: float):
    """Vertex of the parabola through log f at x-h, x, x+h, with the three
    values from one call f([x-h, x, x+h]).

    Returns (x, False) unchanged when the stencil leaves the bracket, the
    objective is non-positive, or the curvature is not concave.
    """
    if x - h < lo or x + h > hi:
        h = min(h, 0.5 * min(x - lo, hi - x))
        if h <= 0.0:
            return x, False
    vals = f([x - h, x, x + h])
    if not np.all(vals > 0.0):
        return x, False
    y0, y1, y2 = (math.log(v) for v in vals)
    curv = y0 - 2.0 * y1 + y2
    if curv >= 0.0:
        return x, False
    step = 0.5 * h * (y0 - y2) / curv
    if abs(step) > 2.0 * h:
        return x, False
    return x + step, True


def naive_corrected_overlap(profile: Profile, chi: float, which: Objective,
                            tol: float = 1e-12) -> float:
    """Overlap at z_bar = 0, i.e. after the rigid carrier-tracking shift
    delta_omega = -kappa*omega0 with no further optimization."""
    lam, dm = overlap_batch(profile, chi, [0.0], tol=tol)
    return float(abs(lam[0])) if which is Objective.PURE else float(dm[0])
