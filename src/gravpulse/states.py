"""Finite-grid density-matrix oracle for single-photon states.

Continuum single-photon states are discretized onto a uniform grid of
narrow frequency windows (width lam in envelope-width units, lam << 1).
Pure states carry complex window amplitudes sampled from the profile at
bin centers; their completely mixed counterparts carry the same diagonal
as probabilities.  The oracle provides brute-force fidelities against
which the quadrature overlaps are cross-checked, and purities with which
the unitarity of the spectral-rescaling map is verified.

Receiver bookkeeping: rescaling compresses the sampled profile by chi^2
while the window grid stays fixed, so each window of the received state
covers chi^2 times more of its profile than a sender window does.  The
state records this as ``bin_compression``; ``purity`` divides it out,
reporting mixed-state purity per the sender's window convention so the
map's purity invariance is visible at fixed window count.  Freshly built
states have bin_compression = 1 and purity is literally sum(p**2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, SupportEscapeError, ValidityError
from .profiles import Profile, evaluate, modulus

__all__ = [
    "FrequencyGrid",
    "StateKind",
    "DiscreteState",
    "pure_state",
    "mixed_state",
    "apply_redshift",
    "purity",
    "fidelity",
    "sharp_frequency_diagonal_trace",
]

MAX_LAMBDA = 0.05
MIN_COVERAGE = 10.0          # envelope widths the grid must span
LEAK_TOLERANCE = 1e-10


class StateKind(enum.Enum):
    PURE = "pure"
    MIXED_DIAGONAL = "mixed_diagonal"


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform window grid: n_bins windows of width lam starting at z_min."""

    n_bins: int
    lam: float
    z_min: float

    def __post_init__(self):
        if self.n_bins < 2:
            raise ValidityError(f"need at least 2 bins, got {self.n_bins}")
        if not 0.0 < self.lam <= MAX_LAMBDA:
            raise ValidityError(
                f"bin ratio lam must be in (0, {MAX_LAMBDA:g}], got {self.lam!r}; "
                "windows must be much narrower than the envelope")
        if self.n_bins * self.lam < MIN_COVERAGE:
            raise ValidityError(
                f"grid spans {self.n_bins * self.lam:g} envelope widths, "
                f"needs >= {MIN_COVERAGE:g}")

    @classmethod
    def centered(cls, n_bins: int, lam: float) -> "FrequencyGrid":
        return cls(n_bins=n_bins, lam=lam, z_min=-0.5 * n_bins * lam)

    @property
    def z_max(self) -> float:
        return self.z_min + self.n_bins * self.lam

    def centers(self) -> np.ndarray:
        return self.z_min + (np.arange(self.n_bins) + 0.5) * self.lam


@dataclass(frozen=True)
class DiscreteState:
    """Immutable window-basis state: complex amplitudes for the pure kind,
    a probability diagonal for the mixed kind."""

    kind: StateKind
    grid: FrequencyGrid
    profile: Profile
    chi_applied: float = 1.0
    amplitudes: np.ndarray | None = None
    probabilities: np.ndarray | None = None
    prenorm_residual: float = 0.0

    def __post_init__(self):
        if self.kind is StateKind.PURE:
            if self.amplitudes is None or len(self.amplitudes) != self.grid.n_bins:
                raise ValidityError("pure state needs one amplitude per bin")
            norm_sq = float(np.vdot(self.amplitudes, self.amplitudes).real)
            if abs(norm_sq - 1.0) > 1e-10:
                raise ValidityError(f"pure-state norm^2 must be 1, got {norm_sq!r}")
            self.amplitudes.setflags(write=False)
        else:
            if self.probabilities is None or len(self.probabilities) != self.grid.n_bins:
                raise ValidityError("mixed state needs one probability per bin")
            if np.any(self.probabilities < 0.0):
                raise ValidityError("probabilities must be non-negative")
            if abs(self.probabilities.sum() - 1.0) > 1e-12:
                raise ValidityError("mixed-state trace must be 1 within 1e-12")
            self.probabilities.setflags(write=False)

    @property
    def bin_compression(self) -> float:
        """Profile support covered per window, relative to a sender window."""
        return self.chi_applied**2


def _sampled_amplitudes(profile: Profile, grid: FrequencyGrid,
                        chi_total: float) -> tuple[np.ndarray, float]:
    z = grid.centers()
    amp = math.sqrt(grid.lam) * chi_total * evaluate(profile, chi_total**2 * z)
    norm_sq = float(np.vdot(amp, amp).real)
    return amp, norm_sq


def pure_state(profile: Profile, grid: FrequencyGrid) -> DiscreteState:
    """Window discretization of the pure state: amplitude sqrt(lam)*F(z_n)
    at each bin center, then renormalized to unit norm.

    The pre-normalization deviation |norm^2 - 1| is kept on the state as a
    grid-quality metric.
    """
    amp, norm_sq = _sampled_amplitudes(profile, grid, 1.0)
    residual = abs(norm_sq - 1.0)
    return DiscreteState(StateKind.PURE, grid, profile,
                         amplitudes=amp / math.sqrt(norm_sq),
                         prenorm_residual=residual)


def mixed_state(profile: Profile, grid: FrequencyGrid) -> DiscreteState:
    """Completely mixed counterpart: same diagonal lam*|F(z_n)|^2 as the
    pure state, renormalized to unit trace."""
    z = grid.centers()
    p = grid.lam * modulus(profile, z) ** 2
    tr = float(p.sum())
    return DiscreteState(StateKind.MIXED_DIAGONAL, grid, profile,
                         probabilities=p / tr, prenorm_residual=abs(tr - 1.0))


def apply_redshift(state: DiscreteState, chi: float) -> DiscreteState:
    """Received state on the sender's grid: the analytic profile is re-sampled
    at the rescaled arguments chi^2*z_n (never interpolated from stored
    bins) and renormalized.

    Raises SupportEscapeError when the rescaled profile leaks more than
    1e-10 of its weight past the grid (chi < 1 expands the support).
    """
    if chi <= 0.0 or not math.isfinite(chi):
        raise ValidityError(f"chi must be positive and finite, got {chi!r}")
    grid = state.grid
    chi_total = state.chi_applied * chi
    if state.kind is StateKind.PURE:
        # the amplitudes' norm^2 is the same sum lam*chi^2*|F|^2
        amp, mass = _sampled_amplitudes(state.profile, grid, chi_total)
    else:
        z = grid.centers()
        weights = grid.lam * chi_total**2 * modulus(state.profile, chi_total**2 * z) ** 2
        mass = float(weights.sum())
    if abs(mass - 1.0) > LEAK_TOLERANCE:
        raise SupportEscapeError(
            f"rescaled profile leaks {abs(mass - 1.0):.2e} past the grid "
            f"(tolerance {LEAK_TOLERANCE:g})")
    samples = ({"amplitudes": amp / math.sqrt(mass)} if state.kind is StateKind.PURE
               else {"probabilities": weights / mass})
    return DiscreteState(state.kind, grid, state.profile, chi_applied=chi_total,
                         prenorm_residual=abs(mass - 1.0), **samples)


def purity(state: DiscreteState) -> float:
    """Tr(rho^2): exactly 1 for pure states; sum(p^2) for mixed states,
    divided by bin_compression so the value refers to sender windows (see
    module docstring)."""
    if state.kind is StateKind.PURE:
        return 1.0
    return float(np.sum(state.probabilities**2)) / state.bin_compression


def _check_same_grid(a: DiscreteState, b: DiscreteState) -> None:
    ga, gb = a.grid, b.grid
    if ga.n_bins != gb.n_bins or ga.lam != gb.lam or ga.z_min != gb.z_min:
        raise GridMismatchError("states live on different grids")


def fidelity(a: DiscreteState, b: DiscreteState) -> float:
    """Square-root fidelity between two window states.

    pure/pure        |<a|b>|
    diag/diag        sum sqrt(p_n * q_n)
    pure/diag mix    sqrt(sum q_n * |a_n|^2)
    """
    _check_same_grid(a, b)
    if a.kind is StateKind.PURE and b.kind is StateKind.PURE:
        return abs(complex(np.vdot(a.amplitudes, b.amplitudes)))
    if a.kind is StateKind.MIXED_DIAGONAL and b.kind is StateKind.MIXED_DIAGONAL:
        return float(np.sum(np.sqrt(a.probabilities * b.probabilities)))
    pure = a if a.kind is StateKind.PURE else b
    diag = b if a.kind is StateKind.PURE else a
    return math.sqrt(float(np.sum(diag.probabilities * np.abs(pure.amplitudes) ** 2)))


def sharp_frequency_diagonal_trace(profile: Profile, grid: FrequencyGrid) -> float:
    """Trace of the diagonal state built naively from sharp frequency
    eigenstates, i.e. the profile density sampled without the window
    factor: sum_n |F(z_n)|^2.

    This grows as 1/lam under grid refinement; its divergence is what
    forces the finite-width window construction used everywhere else.
    """
    z = grid.centers()
    return float(np.sum(modulus(profile, z) ** 2))
