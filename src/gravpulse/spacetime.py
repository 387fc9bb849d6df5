"""Gravitational redshift factor for radial light exchange around a static
spherical mass, with its weak-field expansions.

Geometry: a sender at radial coordinate r_a on the surface and a receiver
orbiting at r_b.  The spectral rescaling factor is

    chi = ((1 - 1.5*r_s/r_b) / (1 - r_s/r_a)) ** 0.25

where r_s is the Schwarzschild radius of the central body.  The factor 3/2
in the numerator reflects the receiver's orbital motion; the roles are not
symmetric under exchanging the radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidityError

__all__ = [
    "EARTH_SCHWARZSCHILD_RADIUS_M",
    "EARTH_RADIUS_M",
    "SpacetimeConfig",
    "RedshiftFactor",
    "redshift_factor",
    "delta_expansion",
    "delta_near_limit",
    "kappa",
    "kappa_from_delta",
    "classical_redshift",
]

EARTH_SCHWARZSCHILD_RADIUS_M = 8.87e-3   # 2*G*M_earth/c^2, ~9 mm
EARTH_RADIUS_M = 6.371e6

# Ratio bound of the (delta1, delta2) series in `RedshiftFactor`: relaxed
# from the library's 1e-3 so pedagogically exaggerated geometries still
# report, with the printed series residual measuring the loss of accuracy.
SERIES_MAX_RATIO = 5e-2


@dataclass(frozen=True)
class SpacetimeConfig:
    """Radial coordinates of sender (r_a) and receiver (r_b), plus the
    central body's Schwarzschild radius, all in meters."""

    r_a: float
    r_b: float
    r_s: float = EARTH_SCHWARZSCHILD_RADIUS_M

    def __post_init__(self):
        for name in ("r_a", "r_b", "r_s"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValidityError(f"{name} must be finite, got {v!r}")
        if self.r_s < 0.0:
            raise ValidityError(f"r_s must be >= 0, got {self.r_s:g}")
        if self.r_a <= self.r_s:
            raise ValidityError(f"need r_a > r_s, got r_a={self.r_a:g}, r_s={self.r_s:g}")
        if self.r_b <= 1.5 * self.r_s:
            raise ValidityError(f"need r_b > 1.5*r_s, got r_b={self.r_b:g}, r_s={self.r_s:g}")


def _log_chi(cfg: SpacetimeConfig) -> float:
    xa = cfg.r_s / cfg.r_a
    xb = cfg.r_s / cfg.r_b
    if 1.0 - xa <= 0.0 or 1.0 - 1.5 * xb <= 0.0:
        raise ValidityError("redshift factor undefined: fourth-root argument <= 0")
    return 0.25 * (math.log1p(-1.5 * xb) - math.log1p(-xa))


def redshift_factor(cfg: SpacetimeConfig) -> float:
    """Exact spectral rescaling factor chi for the given geometry.

    Computed as exp(0.25*(log1p(-1.5*r_s/r_b) - log1p(-r_s/r_a))).  The
    double nearest chi holds chi - 1 only to ~1e-16 absolute, ~1e-6
    relative at near-Earth delta ~ 1e-10; `RedshiftFactor.delta` keeps it.
    """
    return math.exp(_log_chi(cfg))


def delta_expansion(cfg: SpacetimeConfig, max_ratio: float = 1e-3) -> tuple[float, float]:
    """First- and second-order parts (delta1, delta2) of chi - 1 in powers of
    the ratios r_s/r_a and r_s/r_b.

    delta1 = (1/4) r_s/r_a - (3/8) r_s/r_b
    delta2 = (5/32)(r_s/r_a)^2 - (3/32) r_s^2/(r_a r_b) - (27/128)(r_s/r_b)^2

    Raises ValidityError unless both ratios are below max_ratio.
    """
    xa = cfg.r_s / cfg.r_a
    xb = cfg.r_s / cfg.r_b
    if xa >= max_ratio or xb >= max_ratio:
        raise ValidityError(
            f"weak-field expansion invalid: r_s/r_a={xa:.3e}, r_s/r_b={xb:.3e} "
            f"(threshold {max_ratio:g})")
    delta1 = 0.25 * xa - 0.375 * xb
    delta2 = (5.0 / 32.0) * xa * xa - (3.0 / 32.0) * xa * xb - (27.0 / 128.0) * xb * xb
    return delta1, delta2


def delta_near_limit(r_a: float, separation: float, r_s: float,
                     max_ratio: float = 1e-2) -> tuple[float, float]:
    """(delta1, delta2) for a receiver a small height L above the sender.

    delta1 = -(1/8) r_s/r_a
    delta2 = (3/8) r_s*L/r_a^2 - (19/128)(r_s/r_a)^2

    Valid for L/r_a below max_ratio; reduces to delta_expansion with
    r_b = r_a at L = 0.
    """
    if separation < 0.0:
        raise ValidityError(f"separation must be >= 0, got {separation:g}")
    if r_a <= 0.0:
        raise ValidityError(f"r_a must be positive, got {r_a:g}")
    ratio = separation / r_a
    if ratio >= max_ratio:
        raise ValidityError(
            f"near limit invalid: L/r_a = {ratio:.3e} >= {max_ratio:g}")
    x = r_s / r_a
    delta1 = -0.125 * x
    delta2 = 0.375 * x * separation / r_a - (19.0 / 128.0) * x * x
    return delta1, delta2


def kappa(chi: float) -> float:
    """Rigid-shift fraction (chi^2 - 1)/chi^2 of the carrier frequency."""
    if chi <= 0.0:
        raise ValidityError(f"chi must be positive, got {chi:g}")
    return (chi * chi - 1.0) / (chi * chi)


def kappa_from_delta(delta: float) -> float:
    """kappa evaluated at chi = 1 + delta without forming chi^2 - 1.

    Equals delta*(2 + delta)/(1 + delta)^2; free of the catastrophic
    cancellation that kappa(1 + 1e-10) suffers in double precision.
    """
    return delta * (2.0 + delta) / ((1.0 + delta) * (1.0 + delta))


def classical_redshift(z_bar_opt: float, chi: float, sigma: float, z0: float) -> float:
    """Classical redshift in rad/s implied by the optimal rigid shift:

        delta_omega_rs = (sigma/chi^2) * (z_bar_opt - (chi^2 - 1)*z0)

    With z_bar_opt = 0 this is -sigma*kappa(chi)*z0 = -kappa*omega0, the
    naive carrier-tracking correction.  chi^2 - 1 is formed from chi, so
    near chi = 1 it keeps only ~2e-16/|chi - 1| relative precision; the CLI
    forms it from `RedshiftFactor.delta` instead.
    """
    if sigma <= 0.0:
        raise ValidityError(f"sigma must be positive, got {sigma:g}")
    chi2 = chi * chi
    return (sigma / chi2) * (z_bar_opt - (chi2 - 1.0) * z0)


@dataclass(frozen=True)
class RedshiftFactor:
    """Exact chi, chi - 1 to full relative precision (which the double
    nearest chi lacks near chi = 1), and the expansion parts delta1, delta2
    (NaN when chi is given directly rather than by a geometry)."""

    chi: float
    delta: float
    delta1: float
    delta2: float

    @classmethod
    def from_config(cls, cfg: SpacetimeConfig) -> "RedshiftFactor":
        """chi = exp and delta = expm1 of one log-sum; the series parts come
        from `delta_expansion` at ratio bound SERIES_MAX_RATIO."""
        d1, d2 = delta_expansion(cfg, max_ratio=SERIES_MAX_RATIO)
        log_chi = _log_chi(cfg)
        return cls(chi=math.exp(log_chi), delta=math.expm1(log_chi), delta1=d1, delta2=d2)
