"""Maximization of the corrected overlaps over the rigid spectral shift.

One pass gives both optima and the naive overlap.  A coarse grid scan
(global; pitch kept below a quarter tooth spacing for combs, whose
objectives are multimodal) is one batched call of the fixed-node kernel
`overlap.overlap_batch`, which returns Lambda_p and Delta_m together; the
scan also carries z_bar = 0, whose pure overlap is the naive
(carrier-tracking only) one, and which stays out of the argmax.  From the
scan, a safeguarded Newton loop on log(objective) refines the maximizer of
Delta_p = |Lambda_p| and then that of Delta_m, each inside the scan's
bracket around its best grid point.  Each Newton step and each final
gradient check is one kernel call of three shifts, and the reported
overlaps are the kernel's values at each optimum from its last call.

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

import numpy as np

from .errors import ValidityError
from .overlap import overlap_batch
# Not called here; perfbench's tracer tests look the name up on this module.
from .overlap import overlap_pure  # noqa: F401
from .profiles import Profile

__all__ = [
    "OptimizationResult",
    "FlatObjectiveWarning",
    "maximize_shift",
    "naive_corrected_overlap",
]

SCAN_HALF_WIDTH = 10.0     # envelope widths
SCAN_POINTS = 201
FLAT_SPREAD = 1e-13
# Newton loop: stencil half-widths, the step below which the fine one
# applies, the step length (z_bar units) that ends it, and the iteration cap.
NEWTON_H = 1e-3
NEWTON_H_FINE = 1e-4
NEWTON_XTOL = 1e-10
MAX_NEWTON_STEPS = 60


class FlatObjectiveWarning(UserWarning):
    """The overlap deformation 1 - Delta is below machine resolution over
    the scan window (chi too close to 1); the optimizer returns z_bar = 0."""


@dataclass(frozen=True)
class OptimizationResult:
    """Optimal shifts and overlaps of one profile at one chi, from either
    path: `maximize_shift` ("numeric") or `analytic.weak_field_optimum`
    ("weak-field", which has z_bar_m_opt = 0, n_evals = 0, converged)."""

    z_bar_opt: float          # maximizer of Delta_p
    delta_p_opt: float
    z_bar_m_opt: float        # maximizer of Delta_m
    delta_m_opt: float
    naive_delta_p: float      # Delta_p at z_bar = 0
    eta: float                # delta_p_opt / delta_m_opt - 1
    n_evals: int              # overlap evaluations (shifts)
    converged: bool           # both gradient checks
    path: str                 # "numeric" or "weak-field"


def maximize_shift(profile: Profile, chi: float,
                   quad_tol: float = 1e-12) -> OptimizationResult:
    """Globally maximize Delta_p and Delta_m over |z_bar| <= SCAN_HALF_WIDTH.

    Every objective value comes from `overlap_batch` at tolerance
    `quad_tol`, and one scan serves both objectives.  Grid-ties within
    1e-13 resolve toward the smallest |z_bar|.  When the scan cannot
    resolve any variation of an objective, or its deformation 1 - Delta is
    itself below 1e-13, that objective takes z_bar = 0 from the scan and
    one FlatObjectiveWarning is emitted.

    Otherwise Newton steps on log(objective) refine the best grid point
    within its neighbouring grid points.  The loop stops once a step is
    shorter than NEWTON_XTOL, once a Newton step is no shorter than the
    Newton step before it (rounding noise), or after MAX_NEWTON_STEPS steps.
    `converged` reports whether both objectives' slopes at their returned
    z_bar are below 1e-5.  The record's path is "numeric"; the classical
    redshift is left to the caller, which knows chi - 1 more precisely than
    chi does.
    """
    if not (chi > 0.0 and math.isfinite(chi)):
        raise ValidityError(f"chi must be positive and finite, got {chi!r}")
    n_evals = 0

    def ev(xs) -> tuple[np.ndarray, np.ndarray]:
        nonlocal n_evals
        lam, dm = overlap_batch(profile, chi, xs, tol=quad_tol)
        n_evals += lam.size
        return lam, dm

    n_points = SCAN_POINTS
    if profile.kind.is_comb:
        # multimodal objective with period ~ d_tilde*chi: pitch < d_tilde/4
        n_points = max(n_points, int(math.ceil(8.0 * SCAN_HALF_WIDTH / profile.d_tilde)) + 1)
    grid = np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, n_points)
    # The last shift, z_bar = 0, gives the naive overlap and the flat result.
    lam, dm = ev(np.append(grid, 0.0))
    at_zero = (0.0, lam[-1], dm[-1], True)
    pure = _maximize(ev, lambda lam, dm: np.abs(lam), grid, lam, dm)
    mixed = _maximize(ev, lambda lam, dm: dm, grid, lam, dm)
    if pure is None or mixed is None:
        # No variation at all, or the deformation 1 - Delta_opt sits below
        # double-precision resolution: chi is too close to 1 for the numeric
        # route and the tie-break (smallest |z_bar|) applies.
        warnings.warn(
            "overlap deformation is below machine resolution over the scan "
            "window; returning z_bar = 0 (consider an exaggerated chi "
            "override for numeric studies)", FlatObjectiveWarning)
    z_p, lam_p, _, converged_p = pure or at_zero
    z_m, _, dm_m, converged_m = mixed or at_zero
    delta_p, delta_m = float(abs(lam_p)), float(dm_m)
    return OptimizationResult(z_bar_opt=z_p, delta_p_opt=delta_p, z_bar_m_opt=z_m,
                              delta_m_opt=delta_m, naive_delta_p=float(abs(lam[-1])),
                              eta=delta_p / delta_m - 1.0, n_evals=n_evals,
                              converged=converged_p and converged_m, path="numeric")


def _maximize(ev, objective, grid: np.ndarray, lam: np.ndarray,
              dm: np.ndarray) -> tuple[float, complex, float, bool] | None:
    """(z_bar, Lambda_p, Delta_m, converged) at the maximizer of
    objective(Lambda_p, Delta_m), refined from the scan values `lam`, `dm`
    on `grid` (plus one trailing shift left out); None when the scan shows
    no resolvable deformation."""
    vals = objective(lam, dm)[:grid.size]
    spread = float(vals.max() - vals.min())
    if spread < FLAT_SPREAD or 1.0 - float(vals.max()) < FLAT_SPREAD:
        return None
    near_best = np.flatnonzero(vals > vals.max() - FLAT_SPREAD)
    i = int(near_best[np.argmin(np.abs(grid[near_best]))])
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, grid.size - 1)])

    x = float(grid[i])
    h, prev = NEWTON_H, math.inf
    for _ in range(MAX_NEWTON_STEPS):
        y = objective(*ev([x - h, x, x + h]))
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
        if step < NEWTON_XTOL or (newton and step >= prev):
            break
        prev = step if newton else math.inf
        if step < NEWTON_H_FINE:
            h = NEWTON_H_FINE
    # Gradient check: the stationary-point residual at the reported optimum,
    # evaluated together with the optimum itself.
    lam, dm = ev([x - 1e-5, x, x + 1e-5])
    y = objective(lam, dm)
    g = (y[2] - y[0]) / 2e-5
    return x, lam[1], dm[1], bool(abs(g) < 1e-5)


def naive_corrected_overlap(profile: Profile, chi: float,
                            tol: float = 1e-12) -> tuple[float, float]:
    """(Delta_p, Delta_m) at z_bar = 0, i.e. after the rigid carrier-tracking
    shift delta_omega = -kappa*omega0 with no further optimization."""
    lam, dm = overlap_batch(profile, chi, [0.0], tol=tol)
    return float(abs(lam[0])), float(dm[0])
