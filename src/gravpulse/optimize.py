"""Maximization of the corrected overlaps over the rigid spectral shift.

One batched call of the fixed-node kernel `overlap.overlap_batch` scans
Lambda_p and Delta_m over a grid (pitch at most a quarter tooth spacing
for combs, whose objectives are multimodal) with an odd point count and its
centre exactly at z_bar = 0.  A safeguarded Newton loop on log|Lambda_p|
then refines the maximizer of Delta_p = |Lambda_p| inside the scan's
bracket around its best grid point; each step and the final gradient check
is one kernel call of three shifts.

The mixed overlap needs no search.  Delta_m(z_bar) is the cross-correlation
of the even moduli f(chi*z) and f(z/chi), whose Fourier transforms are
non-negative (a Gaussian, or a Gaussian envelope times a Gaussian tooth
train, up to the <= 1e-14 of weight tooth truncation drops).  So Delta_m is
positive definite and, by Bochner's theorem, Delta_m(z_bar) <= Delta_m(0):
Delta_m_opt, like the naive (carrier-tracking only) Delta_p, is the scan's
value at z_bar = 0.

For Gaussian profiles log|Lambda_p| is exactly quadratic in z_bar, so one
Newton step lands on the maximizer; for other profiles the bracket keeps
the scan's global choice and a step that is not concave or would leave it
falls back to bisection.  Differencing the log rather than Delta_p keeps
the maximizer resolvable to ~1e-9 where Delta_p itself varies by less than
its rounding.
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
    """The pure-overlap deformation 1 - Delta_p is below machine resolution
    over the scan window (chi too close to 1); the optimizer returns z_bar = 0."""


@dataclass(frozen=True)
class OptimizationResult:
    """Optimal shift and overlaps of one profile at one chi, from either
    path: `maximize_shift` ("numeric") or `analytic.weak_field_optimum`
    ("weak-field", with n_evals = 0 and converged)."""

    z_bar_opt: float          # maximizer of Delta_p
    delta_p_opt: float
    delta_m_opt: float        # Delta_m at z_bar = 0, its maximum
    naive_delta_p: float      # Delta_p at z_bar = 0
    eta: float                # delta_p_opt / delta_m_opt - 1
    n_evals: int              # overlap evaluations (shifts)
    converged: bool           # the gradient check of Delta_p
    path: str                 # "numeric" or "weak-field"


def maximize_shift(profile: Profile, chi: float,
                   quad_tol: float = 1e-12) -> OptimizationResult:
    """Globally maximize Delta_p over |z_bar| <= SCAN_HALF_WIDTH; Delta_m_opt
    and the naive Delta_p are the scan's values at z_bar = 0.

    Every overlap comes from `overlap_batch` at tolerance `quad_tol`.
    Grid-ties within FLAT_SPREAD resolve toward the smallest |z_bar|.  When
    the scan resolves no variation of Delta_p, or 1 - Delta_p is itself
    below FLAT_SPREAD, z_bar_opt = 0 and one FlatObjectiveWarning is
    emitted.  Otherwise Newton steps refine the best grid point within its
    neighbours until a step is shorter than NEWTON_XTOL, a Newton step is no
    shorter than the one before it (rounding noise), or MAX_NEWTON_STEPS;
    `converged` says whether the slope of Delta_p at z_bar_opt is below
    1e-5.  The path is "numeric"; the classical redshift is left to the
    caller, which knows chi - 1 more precisely than chi does.
    """
    if not (chi > 0.0 and math.isfinite(chi)):
        raise ValidityError(f"chi must be positive and finite, got {chi!r}")
    n_evals = 0

    def ev(xs) -> tuple[np.ndarray, np.ndarray]:
        nonlocal n_evals
        lam, dm = overlap_batch(profile, chi, xs, tol=quad_tol)
        n_evals += lam.size
        return lam, dm

    half = SCAN_POINTS // 2
    if profile.kind.is_comb:
        # multimodal objective with period ~ d_tilde*chi: pitch <= d_tilde/4
        half = max(half, int(math.ceil(4.0 * SCAN_HALF_WIDTH / profile.d_tilde)))
    grid = np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, 2 * half + 1)
    grid[half] = 0.0        # linspace's midpoint can miss 0 by an ulp
    lam, dm = ev(grid)
    naive, delta_m = float(abs(lam[half])), float(dm[half])
    pure = _maximize(ev, grid, np.abs(lam))
    if pure is None:
        warnings.warn(
            "overlap deformation is below machine resolution over the scan "
            "window; returning z_bar = 0 (consider an exaggerated chi "
            "override for numeric studies)", FlatObjectiveWarning)
    z_p, delta_p, converged = pure or (0.0, naive, True)
    return OptimizationResult(z_bar_opt=z_p, delta_p_opt=delta_p, delta_m_opt=delta_m,
                              naive_delta_p=naive, eta=delta_p / delta_m - 1.0,
                              n_evals=n_evals, converged=converged, path="numeric")


def _maximize(ev, grid: np.ndarray, vals: np.ndarray) -> tuple[float, float, bool] | None:
    """(z_bar, Delta_p, converged) at the maximizer of Delta_p = |Lambda_p|,
    refined from its scan values `vals` on `grid`; None when the scan shows
    no resolvable deformation."""
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
        y = np.abs(ev([x - h, x, x + h])[0])
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
    lam = ev([x - 1e-5, x, x + 1e-5])[0]
    y = np.abs(lam)
    g = (y[2] - y[0]) / 2e-5
    # abs of the complex element: np.abs of an array can differ in the last bit
    return x, float(abs(lam[1])), bool(abs(g) < 1e-5)


def naive_corrected_overlap(profile: Profile, chi: float,
                            tol: float = 1e-12) -> tuple[float, float]:
    """(Delta_p, Delta_m) at z_bar = 0, i.e. after the rigid carrier-tracking
    shift delta_omega = -kappa*omega0 with no further optimization."""
    lam, dm = overlap_batch(profile, chi, [0.0], tol=tol)
    return float(abs(lam[0])), float(dm[0])
