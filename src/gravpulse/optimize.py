"""Maximization of the corrected overlaps over the rigid spectral shift.

The optimizer locates the global maximizer of z_bar -> Delta(z_bar) with a
coarse grid scan (global; pitch kept below a quarter tooth spacing for
combs, whose objective is multimodal) followed by a safeguarded Newton
loop on log(objective) inside the scan's bracket around the best grid
point.  Every objective value comes from the fixed-node kernel
`overlap.overlap_batch`: the scan is one batched call, each Newton step and
the final gradient check one call of three shifts, and the reported
overlaps are the kernel's values at the optimum from that last call.

Each Newton step takes the first and second differences of log(objective)
on a three-point stencil.  For Gaussian profiles log(objective) is exactly
quadratic in z_bar, so one step lands on the maximizer; for other profiles
the bracket keeps the scan's global choice and a step that is not concave
or would leave it falls back to bisection.  Differencing the log rather
than the objective keeps the maximizer resolvable to ~1e-9 where the
objective itself varies by less than its rounding.
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

SCAN_HALF_WIDTH = 10.0     # envelope widths
SCAN_POINTS = 201
FLAT_SPREAD = 1e-13
# Newton loop: stencil half-widths, the step below which the fine one
# applies, and the iteration cap.
NEWTON_H = 1e-3
NEWTON_H_FINE = 1e-4
MAX_NEWTON_STEPS = 60


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

    Otherwise Newton steps on log(objective) refine the best grid point
    within its neighbouring grid points.  `xtol` is a step length in z_bar
    units: the loop stops once a step is shorter, once a Newton step is no
    shorter than the Newton step before it (rounding noise), or after
    MAX_NEWTON_STEPS steps.  `converged` reports whether the objective's
    slope at the returned z_bar is below 1e-5.
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
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, n_points - 1)])

    x = float(grid[i])
    h, prev = NEWTON_H, math.inf
    for _ in range(MAX_NEWTON_STEPS):
        y = ev([x - h, x, x + h])
        if not np.all(y > 0.0):
            break
        y0, y1, y2 = (math.log(v) for v in y)
        g = (y2 - y0) / (2.0 * h)
        c = (y2 - 2.0 * y1 + y0) / (h * h)
        if g > 0.0:
            lo = x
        elif g < 0.0:
            hi = x
        x_new = x - g / c if c < 0.0 else math.nan
        newton = lo < x_new < hi
        if not newton:
            x_new = 0.5 * (lo + hi)
        step = abs(x_new - x)
        x = x_new
        if step < xtol or (newton and step >= prev):
            break
        prev = step if newton else math.inf
        if step < NEWTON_H_FINE:
            h = NEWTON_H_FINE
    # Gradient check: the stationary-point residual at the reported optimum,
    # evaluated together with the optimum itself.
    y = ev([x - 1e-5, x, x + 1e-5])
    g = (y[2] - y[0]) / 2e-5
    converged = abs(g) < 1e-5
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


def naive_corrected_overlap(profile: Profile, chi: float, which: Objective,
                            tol: float = 1e-12) -> float:
    """Overlap at z_bar = 0, i.e. after the rigid carrier-tracking shift
    delta_omega = -kappa*omega0 with no further optimization."""
    lam, dm = overlap_batch(profile, chi, [0.0], tol=tol)
    return float(abs(lam[0])) if which is Objective.PURE else float(dm[0])
