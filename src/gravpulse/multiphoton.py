"""Multi-photon overlaps composed from the optimized single-photon results.

All three laws take the complex single-photon pure overlap (or its
modulus) evaluated at the optimal rigid shift and return the N-photon pure
overlap Delta_p.  The mixed-state overlap is N-independent for coherent and
squeezed wavepackets, so the single-photon Delta_m serves unchanged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ValidityError

__all__ = [
    "PhotonKind",
    "PhotonStatistics",
    "fock_overlap",
    "coherent_overlap",
    "squeezed_overlap",
    "squeezing_parameter",
]


class PhotonKind(enum.Enum):
    FOCK = "fock"
    COHERENT = "coherent"
    SQUEEZED = "squeezed"


@dataclass(frozen=True)
class PhotonStatistics:
    """Photon-number content of the wavepacket state: an exact integer for
    Fock states, a mean for coherent and squeezed ones."""

    kind: PhotonKind
    n_mean: float

    def __post_init__(self):
        if not math.isfinite(self.n_mean):
            raise ValidityError(f"photon number must be finite, got {self.n_mean!r}")
        if self.kind is PhotonKind.FOCK:
            if self.n_mean < 1 or self.n_mean != int(self.n_mean):
                raise ValidityError(
                    f"Fock photon number must be an integer >= 1, got {self.n_mean!r}")
        elif self.n_mean < 0.0:
            raise ValidityError(f"mean photon number must be >= 0, got {self.n_mean!r}")


def fock_overlap(delta_single: float, n: int) -> float:
    """N-photon Fock overlap: Delta**N, polynomial decay in photon number."""
    if not 0.0 <= delta_single <= 1.0:
        raise ValidityError(f"single-photon overlap must lie in [0, 1], got {delta_single!r}")
    if n < 1 or n != int(n):
        raise ValidityError(f"Fock photon number must be an integer >= 1, got {n!r}")
    return delta_single ** int(n)


def _check_lambda(lambda_single: complex) -> complex:
    lam = complex(lambda_single)
    if abs(lam) > 1.0 + 1e-12:
        raise ValidityError(f"|Lambda| must be <= 1, got {abs(lam)!r}")
    return lam


def coherent_overlap(lambda_single: complex, n_mean: float) -> float:
    """Delta_p for coherent wavepackets of mean photon number N.

    Delta_p = exp(-(1 - Re(Lambda)) * N): exponential sensitivity gain over
    the single photon.
    """
    lam = _check_lambda(lambda_single)
    if n_mean < 0.0:
        raise ValidityError(f"mean photon number must be >= 0, got {n_mean!r}")
    return math.exp(-(1.0 - lam.real) * n_mean)


def squeezed_overlap(lambda_single: complex, n_mean: float) -> float:
    """Delta_p for single-mode squeezed wavepackets.

    Delta_p = [(1 + (1 - Re(Lambda))*N/2)^2 + (Im(Lambda))^2 * N^2/4]^(-1/2);
    for real Lambda this is (1 + (1 - Lambda)*N/2)^(-1), falling off only
    polynomially, as 2/((1 - Lambda)*N) for large N.
    """
    lam = _check_lambda(lambda_single)
    if n_mean < 0.0:
        raise ValidityError(f"mean photon number must be >= 0, got {n_mean!r}")
    re_term = 1.0 + 0.5 * (1.0 - lam.real) * n_mean
    im_term = 0.5 * lam.imag * n_mean
    return (re_term * re_term + im_term * im_term) ** -0.5


def squeezing_parameter(n_mean: float) -> float:
    """Squeezing s with mean photon number N = 2*sinh(s)**2."""
    if n_mean < 0.0:
        raise ValidityError(f"mean photon number must be >= 0, got {n_mean!r}")
    return math.asinh(math.sqrt(0.5 * n_mean))
